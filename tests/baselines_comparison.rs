//! Integration tests of the comparison baselines against RF-Prism — the
//! qualitative claims behind the paper's Figs. 14–20, at test scale.

use rf_prism::core::RfPrism;
use rf_prism::prelude::*;
use rfp_baselines::{BackPos, MobiTagbot, Tagtag};

fn prism_for(scene: &Scene) -> RfPrism {
    RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region())
}

/// MobiTagbot collapses when the attached material changes after its
/// calibration; RF-Prism does not (Fig. 16's mechanism).
#[test]
fn material_change_breaks_mobitagbot_not_prism() {
    let scene = Scene::standard_2d()
        .with_environment(MultipathEnvironment::cluttered(3, 31));
    let prism = prism_for(&scene);
    let mtb = MobiTagbot::new(scene.antenna_poses(), scene.region());

    // Calibrate MobiTagbot with the tag on its plastic carrier.
    let calib_pos = Vec2::new(0.5, 1.0);
    let base = SimTag::with_seeded_diversity(1).attached_to(Material::Plastic);
    let calib_survey =
        scene.survey(&base.with_motion(Motion::planar_static(calib_pos, 0.0)), 1);
    let calibration = mtb.calibrate(&calib_survey.per_antenna, calib_pos).unwrap();
    let mtb = mtb.with_calibration(calibration);

    let truth = Vec2::new(0.9, 1.8);
    let mut prism_err = Vec::new();
    let mut mtb_err = Vec::new();
    for (i, m) in [Material::Metal, Material::Water, Material::Alcohol]
        .into_iter()
        .enumerate()
    {
        let tag = base.attached_to(m).with_motion(Motion::planar_static(truth, 0.4));
        let survey = scene.survey(&tag, 10 + i as u64);
        prism_err.push(
            prism
                .sense(&survey.per_antenna)
                .unwrap()
                .estimate
                .position
                .distance(truth),
        );
        mtb_err.push(mtb.localize(&survey.per_antenna).unwrap().distance(truth));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&mtb_err) > 2.0 * mean(&prism_err),
        "MobiTagbot {:.3} m should be ≫ RF-Prism {:.3} m",
        mean(&mtb_err),
        mean(&prism_err)
    );
}

/// BackPos (slope differences) is material-immune like RF-Prism but senses
/// nothing besides position.
#[test]
fn backpos_localizes_across_materials() {
    let scene = Scene::standard_2d();
    let bp = BackPos::new(scene.antenna_poses(), scene.region());
    let truth = Vec2::new(0.3, 1.2);
    for (i, m) in [Material::Plastic, Material::Metal].into_iter().enumerate() {
        let tag = SimTag::with_seeded_diversity(2)
            .attached_to(m)
            .with_motion(Motion::planar_static(truth, 0.8));
        let survey = scene.survey(&tag, 20 + i as u64);
        let est = bp.localize(&survey.per_antenna).unwrap();
        assert!(est.distance(truth) < 0.3, "{m}: error {}", est.distance(truth));
    }
}

/// Tagtag classifies correctly at its training position but degrades when
/// the lossy material biases its RSS ranging at a new distance
/// (Fig. 18's mechanism).
#[test]
fn tagtag_degrades_with_distance() {
    let scene = Scene::standard_2d();
    let mut tagtag = Tagtag::new(scene.antenna_poses(), 50);
    let train_pos = Vec2::new(0.5, 1.2);
    let classes = [Material::Wood, Material::Metal, Material::Water, Material::Alcohol];
    for (i, &m) in classes.iter().enumerate() {
        for rep in 0..4u64 {
            let tag = SimTag::with_seeded_diversity(3)
                .attached_to(m)
                .with_motion(Motion::planar_static(train_pos, 0.0));
            let survey = scene.survey(&tag, 40 + i as u64 * 10 + rep);
            let f = tagtag.features(&survey.per_antenna).unwrap();
            tagtag.add_example(f, m);
        }
    }

    let accuracy_at = |pos: Vec2, seed0: u64| {
        let mut hits = 0;
        let mut total = 0;
        for (i, &m) in classes.iter().enumerate() {
            for rep in 0..4u64 {
                let tag = SimTag::with_seeded_diversity(3)
                    .attached_to(m)
                    .with_motion(Motion::planar_static(pos, 0.0));
                let survey = scene.survey(&tag, seed0 + i as u64 * 10 + rep);
                let f = tagtag.features(&survey.per_antenna).unwrap();
                total += 1;
                if tagtag.identify(&f) == m {
                    hits += 1;
                }
            }
        }
        hits as f64 / total as f64
    };
    let same = accuracy_at(train_pos, 400);
    let far = accuracy_at(Vec2::new(1.3, 2.3), 500);
    assert!(same > 0.8, "same-position accuracy {same}");
    assert!(same >= far, "distance must not *help* Tagtag: {same} vs {far}");
}
