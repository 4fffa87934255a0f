//! Head-to-head comparison machinery: RF-Prism vs MobiTagbot (Figs. 14–16)
//! and RF-Prism vs Tagtag (Figs. 17–20).

use crate::loc::TrialSpec;
use crate::metrics::ConfusionMatrix;
use crate::setup;
use rfp_baselines::mobitagbot::{MobiTagbot, MobiTagbotCalibration};
use rfp_baselines::Tagtag;
use rfp_core::material::{ClassifierKind, MaterialIdentifier};
use rfp_geom::Vec2;
use rfp_ml::dataset::Dataset;
use rfp_phys::Material;
use rfp_sim::Scene;
use std::collections::BTreeMap;

/// Localization errors (cm) of both systems on the same surveys.
#[derive(Debug, Clone, Default)]
pub struct CdfComparison {
    /// RF-Prism errors, cm.
    pub prism_cm: Vec<f64>,
    /// MobiTagbot errors, cm.
    pub mobitagbot_cm: Vec<f64>,
}

/// Runs both localizers over the same trial specs.
///
/// Every tag identity is first calibrated in-situ (MobiTagbot style: tag at
/// a known position in its *calibration-time* state `calib_material`,
/// α = 0). RF-Prism needs no calibration for localization — that is its
/// headline claim.
pub fn mobitagbot_comparison(
    scene: &Scene,
    specs: &[TrialSpec],
    calib_material: Material,
) -> CdfComparison {
    let prism = setup::prism_for(scene);
    let mtb = MobiTagbot::new(scene.antenna_poses(), scene.region());

    // One in-situ calibration per tag identity.
    let calib_pos = Vec2::new(0.5, 1.0);
    let mut calibrations: BTreeMap<u64, MobiTagbotCalibration> = BTreeMap::new();
    for spec in specs {
        calibrations.entry(spec.tag_seed).or_insert_with(|| {
            let tag = setup::place_tag(spec.tag_seed, calib_material, calib_pos, 0.0);
            let survey = scene.survey(&tag, 7_000 + spec.tag_seed);
            mtb.calibrate(&survey.per_antenna, calib_pos).expect("calibration survey")
        });
    }

    let mut out = CdfComparison::default();
    for spec in specs {
        let tag = setup::place_tag(spec.tag_seed, spec.material, spec.position, spec.alpha);
        let survey = scene.survey(&tag, spec.survey_seed);
        if let Ok(result) = prism.sense(&survey.per_antenna) {
            out.prism_cm.push(result.estimate.position.distance(spec.position) * 100.0);
        }
        let localizer = mtb.clone().with_calibration(calibrations[&spec.tag_seed].clone());
        if let Ok(est) = localizer.localize(&survey.per_antenna) {
            out.mobitagbot_cm.push(est.distance(spec.position) * 100.0);
        }
    }
    out
}

/// The three evaluation regimes of Figs. 17–19.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagtagSetup {
    /// Fig. 17: same distance, same orientation (fresh noise only).
    Fixed,
    /// Fig. 18: different positions, same orientation.
    VaryDistance,
    /// Fig. 19: different positions and orientations.
    VaryBoth,
}

impl TagtagSetup {
    /// The x-axis label of the paper's Fig. 20.
    pub fn label(self) -> &'static str {
        match self {
            TagtagSetup::Fixed => "-distance -orientation",
            TagtagSetup::VaryDistance => "+distance -orientation",
            TagtagSetup::VaryBoth => "+distance +orientation",
        }
    }
}

/// Per-material accuracy of both identifiers under one setup.
#[derive(Debug, Clone)]
pub struct TagtagComparison {
    /// Confusion matrix of RF-Prism (decision tree on disentangled
    /// features).
    pub prism: ConfusionMatrix,
    /// Confusion matrix of the Tagtag baseline.
    pub tagtag: ConfusionMatrix,
}

/// Runs the Fig. 17–19 experiment: train both identifiers under the
/// training conditions, evaluate under the setup's test conditions.
pub fn tagtag_comparison(scene: &Scene, setup_kind: TagtagSetup, reps: usize) -> TagtagComparison {
    let grid = setup::evaluation_grid(scene);
    let train_pos = grid[12]; // region centre
    let prism = setup::prism_for(scene);
    let channel_count = scene.reader().plan.channel_count();
    let tags: Vec<(u64, rfp_core::DeviceCalibration)> =
        (1..=3).map(|s| (s, setup::calibrate_tag(s, 400 + s))).collect();

    let mut tagtag = Tagtag::new(scene.antenna_poses(), channel_count);
    let mut train_ds = Dataset::new(Material::CLASSES.len());
    let mut seed = 0u64;

    // Training: fixed position, α = 0 (both systems get the same data).
    for (class, &material) in Material::CLASSES.iter().enumerate() {
        for _ in 0..reps {
            seed += 1;
            let (tag_seed, calibration) = &tags[seed as usize % tags.len()];
            let tag = setup::place_tag(*tag_seed, material, train_pos, 0.0);
            let survey = scene.survey(&tag, 600_000 + seed * 17);
            if let Ok(result) = prism.sense(&survey.per_antenna) {
                train_ds.push(
                    result.material_features(calibration, channel_count).to_vector(),
                    class,
                );
            }
            if let Ok(curve) = tagtag.features(&survey.per_antenna) {
                tagtag.add_example(curve, material);
            }
        }
    }
    let identifier = MaterialIdentifier::train(&train_ds, &ClassifierKind::paper_default());

    // Testing under the setup's conditions.
    let mut prism_cm = ConfusionMatrix::new(Material::CLASSES.len());
    let mut tagtag_cm = ConfusionMatrix::new(Material::CLASSES.len());
    for (class, &material) in Material::CLASSES.iter().enumerate() {
        for r in 0..reps {
            seed += 1;
            let (tag_seed, calibration) = &tags[seed as usize % tags.len()];
            let (position, alpha) = match setup_kind {
                TagtagSetup::Fixed => (train_pos, 0.0),
                TagtagSetup::VaryDistance => (grid[(seed as usize * 3 + r) % grid.len()], 0.0),
                TagtagSetup::VaryBoth => (
                    grid[(seed as usize * 3 + r) % grid.len()],
                    90.0f64.to_radians(),
                ),
            };
            let tag = setup::place_tag(*tag_seed, material, position, alpha);
            let survey = scene.survey(&tag, 700_000 + seed * 19);
            if let Ok(result) = prism.sense(&survey.per_antenna) {
                let f = result.material_features(calibration, channel_count).to_vector();
                prism_cm.record(class, identifier.predict_index(&f));
            }
            if let Ok(curve) = tagtag.features(&survey.per_antenna) {
                let predicted = tagtag.identify(&curve).class_index().expect("class");
                tagtag_cm.record(class, predicted);
            }
        }
    }
    TagtagComparison { prism: prism_cm, tagtag: tagtag_cm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc;

    #[test]
    fn mobitagbot_comparison_produces_errors_for_both() {
        let scene = Scene::standard_2d();
        let specs: Vec<TrialSpec> =
            loc::grid_orientation_specs(&scene, 1).into_iter().step_by(40).collect();
        let cmp = mobitagbot_comparison(&scene, &specs, Material::Plastic);
        assert!(!cmp.prism_cm.is_empty());
        assert_eq!(cmp.prism_cm.len(), cmp.mobitagbot_cm.len());
    }

    #[test]
    fn tagtag_setups_have_labels() {
        assert!(TagtagSetup::Fixed.label().contains("-distance"));
        assert!(TagtagSetup::VaryBoth.label().contains("+orientation"));
    }
}
