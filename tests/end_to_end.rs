//! End-to-end integration tests spanning the whole workspace: simulator →
//! pre-processing → disentangling → sensing, including the statistical
//! claims the paper's headline numbers rest on.

use rf_prism::core::material::ClassifierKind;
use rf_prism::core::{MaterialIdentifier, RfPrism};
use rf_prism::geom::angle;
use rf_prism::ml::dataset::Dataset;
use rf_prism::prelude::*;

fn prism_for(scene: &Scene) -> RfPrism {
    RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region())
}

/// Mean localization error over a grid of positions stays in the paper's
/// centimetre regime.
#[test]
fn localization_regime_matches_paper() {
    let scene = Scene::standard_2d();
    let prism = prism_for(&scene);
    let mut errors = Vec::new();
    for (i, position) in scene.region().grid(4, 4).enumerate() {
        let tag = SimTag::with_seeded_diversity(i as u64 % 4)
            .with_motion(Motion::planar_static(position, 0.4));
        let survey = scene.survey(&tag, 10 + i as u64);
        let result = prism.sense(&survey.per_antenna).expect("clean static window");
        errors.push(result.estimate.position.distance(position) * 100.0);
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 12.0, "mean localization error {mean} cm");
    assert!(errors.iter().all(|&e| e < 40.0), "worst case {errors:?}");
}

/// The headline claim: localization accuracy is unaffected by rotating the
/// tag or changing the attached material.
#[test]
fn localization_invariant_to_orientation_and_material() {
    let scene = Scene::standard_2d();
    let prism = prism_for(&scene);
    let position = Vec2::new(0.7, 1.6);
    let mut by_condition = Vec::new();
    for (i, &(material, alpha_deg)) in [
        (Material::Plastic, 0.0),
        (Material::Plastic, 60.0),
        (Material::Plastic, 120.0),
        (Material::Metal, 0.0),
        (Material::Water, 60.0),
        (Material::Alcohol, 120.0),
    ]
    .iter()
    .enumerate()
    {
        let mut errs = Vec::new();
        for rep in 0..5u64 {
            let tag = SimTag::with_seeded_diversity(3)
                .attached_to(material)
                .with_motion(Motion::planar_static(position, f64::to_radians(alpha_deg)));
            let survey = scene.survey(&tag, 100 + i as u64 * 10 + rep);
            let result = prism.sense(&survey.per_antenna).expect("clean window");
            errs.push(result.estimate.position.distance(position) * 100.0);
        }
        by_condition.push(errs.iter().sum::<f64>() / errs.len() as f64);
    }
    let max = by_condition.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = by_condition.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max < min + 8.0,
        "conditions should all sense alike: {by_condition:?}"
    );
}

/// Orientation is recovered modulo π with paper-like accuracy.
#[test]
fn orientation_recovery() {
    let scene = Scene::standard_2d();
    let prism = prism_for(&scene);
    let mut errors = Vec::new();
    for (i, alpha_deg) in (0..150).step_by(30).enumerate() {
        for rep in 0..4u64 {
            let alpha = f64::from(alpha_deg).to_radians();
            let tag = SimTag::with_seeded_diversity(1)
                .with_motion(Motion::planar_static(Vec2::new(0.4, 1.2), alpha));
            let survey = scene.survey(&tag, 200 + i as u64 * 10 + rep);
            let result = prism.sense(&survey.per_antenna).expect("clean window");
            errors.push(
                angle::dipole_distance(result.estimate.orientation, alpha).to_degrees(),
            );
        }
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 25.0, "mean orientation error {mean}°");
}

/// Full material-identification loop: calibrate, train, identify at unseen
/// positions.
#[test]
fn material_identification_loop() {
    let scene = Scene::standard_2d();
    let prism = prism_for(&scene);
    let channel_count = scene.reader().plan.channel_count();
    let calib_pos = Vec2::new(0.5, 1.0);

    let bare = SimTag::with_seeded_diversity(5)
        .with_motion(Motion::planar_static(calib_pos, 0.0));
    let survey = scene.survey(&bare, 1);
    let observations: Vec<_> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| {
            rf_prism::core::model::extract_observation(
                p,
                r,
                &rf_prism::core::model::ExtractConfig::paper(),
            )
            .expect("calibration survey")
        })
        .collect();
    let calibration = DeviceCalibration::from_observations(&observations, calib_pos, 0.0);

    // Train on four easily separated classes at one position…
    let classes = [Material::Wood, Material::Metal, Material::Water, Material::EdibleOil];
    let mut train = Dataset::new(Material::CLASSES.len());
    for (ci, &m) in classes.iter().enumerate() {
        for rep in 0..8u64 {
            let tag = SimTag::with_seeded_diversity(5)
                .attached_to(m)
                .with_motion(Motion::planar_static(Vec2::new(0.2, 1.3), 0.0));
            let survey = scene.survey(&tag, 300 + ci as u64 * 20 + rep);
            let result = prism.sense(&survey.per_antenna).expect("clean window");
            train.push(
                result.material_features(&calibration, channel_count).to_vector(),
                m.class_index().unwrap(),
            );
        }
    }
    let identifier = MaterialIdentifier::train(&train, &ClassifierKind::paper_default());

    // …identify at a different position and orientation.
    let mut hits = 0;
    let mut total = 0;
    for (ci, &m) in classes.iter().enumerate() {
        for rep in 0..5u64 {
            let tag = SimTag::with_seeded_diversity(5)
                .attached_to(m)
                .with_motion(Motion::planar_static(Vec2::new(1.1, 2.0), 1.0));
            let survey = scene.survey(&tag, 600 + ci as u64 * 10 + rep);
            let result = prism.sense(&survey.per_antenna).expect("clean window");
            let feats = result.material_features(&calibration, channel_count);
            total += 1;
            if identifier.identify(&feats) == m {
                hits += 1;
            }
        }
    }
    assert!(
        hits as f64 / total as f64 > 0.8,
        "identification moved across the region: {hits}/{total}"
    );
}

/// The multipath environment hurts, and the suppression recovers most of
/// the damage (Fig. 12's shape).
#[test]
fn multipath_suppression_recovers_accuracy() {
    use rf_prism::core::model::ExtractConfig;
    use rf_prism::core::RfPrismConfig;
    let cluttered =
        Scene::standard_2d().with_environment(MultipathEnvironment::cluttered(3, 5));
    let with = prism_for(&cluttered);
    let without = prism_for(&cluttered).with_config(RfPrismConfig {
        extract: ExtractConfig { suppress_multipath: false, ..ExtractConfig::paper() },
        ..RfPrismConfig::paper()
    });

    let mut err_with = Vec::new();
    let mut err_without = Vec::new();
    for (i, position) in cluttered.region().grid(3, 3).enumerate() {
        let tag = SimTag::with_seeded_diversity(2)
            .with_motion(Motion::planar_static(position, 0.5));
        let survey = cluttered.survey(&tag, 700 + i as u64);
        if let Ok(r) = with.sense(&survey.per_antenna) {
            err_with.push(r.estimate.position.distance(position));
        }
        if let Ok(r) = without.sense(&survey.per_antenna) {
            err_without.push(r.estimate.position.distance(position));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&err_with) < mean(&err_without),
        "suppression must help: {} vs {}",
        mean(&err_with),
        mean(&err_without)
    );
}

/// 3-D sensing works end to end (paper §VII future work; six antennas for
/// slope redundancy — see the `ablation_antennas_3d` bench).
#[test]
fn three_dimensional_sensing() {
    use rf_prism::core::solver3d::solve_3d;
    use rf_prism::core::SolverConfig;
    let scene = Scene::six_antenna_3d();
    let truth = Vec3::new(0.6, 1.5, 0.6);
    let dipole = Vec3::new(0.8, 0.1, 0.6).normalized();
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::Static { position: truth, dipole });
    let survey = scene.survey(&tag, 3);
    let observations: Vec<_> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| {
            rf_prism::core::model::extract_observation(
                p,
                r,
                &rf_prism::core::model::ExtractConfig::paper(),
            )
            .expect("usable")
        })
        .collect();
    let est = solve_3d(&observations, scene.region(), (0.0, 1.5), &SolverConfig::default())
        .expect("solvable");
    assert!(est.position.distance(truth) < 0.4, "3-D error {}", est.position.distance(truth));
}
