//! Fig. 12: system performance in different environments — clean space vs
//! multipath with and without the channel-selection suppression (§V-D).
//!
//! Paper: localization 7.61 / 9.21 / 14.82 cm, orientation 8.59 / 10.98 /
//! 19.33°, classification 0.88 / 0.82 / 0.65 for Clean / Multipath+ /
//! Multipath. Suppression recovers most of the multipath damage because
//! only a minority of channels is corrupted; the residual gap to clean
//! space is the broadband (smooth) multipath no outlier test can see.

use rfp_bench::matid::{self, Model};
use rfp_bench::{loc, report};
use rfp_core::model::ExtractConfig;
use rfp_core::{RfPrism, RfPrismConfig};
use rfp_geom::angle;
use rfp_sim::{MultipathEnvironment, Scene};

fn run_localization(scene: &Scene, suppress: bool) -> (f64, f64) {
    let mut config = RfPrismConfig::paper();
    config.extract = ExtractConfig { suppress_multipath: suppress, ..ExtractConfig::paper() };
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region())
        .with_config(config);
    let specs = loc::grid_orientation_specs(scene, 2);
    let mut pos_err = Vec::new();
    let mut orient_err = Vec::new();
    for spec in specs {
        let tag = rfp_bench::setup::place_tag(spec.tag_seed, spec.material, spec.position, spec.alpha);
        let survey = scene.survey(&tag, spec.survey_seed);
        if let Ok(result) = prism.sense(&survey.per_antenna) {
            pos_err.push(result.estimate.position.distance(spec.position) * 100.0);
            orient_err.push(
                angle::dipole_distance(result.estimate.orientation, spec.alpha).to_degrees(),
            );
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&pos_err), mean(&orient_err))
}

fn run_classification(scene: &Scene) -> f64 {
    let corpus = matid::build_corpus(scene, 60, 30);
    matid::evaluate_all(&corpus, &Model::Tree).accuracy()
}

fn main() {
    report::header("Fig. 12", "clean space vs multipath ± suppression");
    let clean = Scene::standard_2d();
    let cluttered =
        Scene::standard_2d().with_environment(MultipathEnvironment::cluttered(3, 2024));

    let (clean_loc, clean_orient) = run_localization(&clean, true);
    let (mp_loc, mp_orient) = run_localization(&cluttered, true);
    let (raw_loc, raw_orient) = run_localization(&cluttered, false);

    report::section("localization error");
    report::row("clean space", "7.61 cm", &report::cm(clean_loc));
    report::row("multipath + suppression", "9.21 cm", &report::cm(mp_loc));
    report::row("multipath, no suppression", "14.82 cm", &report::cm(raw_loc));

    report::section("orientation error");
    report::row("clean space", "8.59°", &report::deg(clean_orient));
    report::row("multipath + suppression", "10.98°", &report::deg(mp_orient));
    report::row("multipath, no suppression", "19.33°", &report::deg(raw_orient));

    report::section("material classification accuracy");
    let clean_acc = run_classification(&clean);
    let mp_acc = run_classification(&cluttered);
    report::row("clean space", "88 %", &report::pct(clean_acc));
    report::row("multipath + suppression", "82 %", &report::pct(mp_acc));

    report::section("suppression gain");
    report::row(
        "localization gain",
        "37.8 %",
        &report::pct(1.0 - mp_loc / raw_loc),
    );
    report::row(
        "orientation gain",
        "43.2 %",
        &report::pct(1.0 - mp_orient / raw_orient),
    );

    // Shape assertions: multipath hurts, suppression recovers most of it.
    assert!(mp_loc < raw_loc, "suppression must help localization");
    assert!(clean_loc < mp_loc, "clean space must be best");
    assert!(
        raw_loc > 1.4 * clean_loc,
        "raw multipath should roughly double the error (got {raw_loc} vs {clean_loc})"
    );
    assert!(clean_acc >= mp_acc - 0.05, "clean classification should not be worse");
}
