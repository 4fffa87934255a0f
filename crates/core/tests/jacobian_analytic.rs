//! Analytic-Jacobian verification (DESIGN.md §6): across random scenes,
//! poses and evaluation points, the closed-form `∂r/∂p` of the 2-D and
//! 3-D residuals must agree with central differences to ≤ 1e-6
//! elementwise, and the analytic facade must converge to the same optimum
//! as the frozen oracle's numeric-Jacobian solve (`rfp_oracle::solver`)
//! on clean synthetic scenes, with far fewer residual evaluations.

use proptest::prelude::*;
use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig};
use rfp_core::solver::{
    residuals_2d, residuals_and_jacobian_2d, solve_2d, solve_2d_seeded_warm, SolveSeeds,
    SolveStats, SolverConfig, SolverWorkspace, TagEstimate2D,
};
use rfp_core::solver3d::{
    residuals_3d, residuals_and_jacobian_3d, solve_3d, Solver3DConfig, TagEstimate3D,
};
use rfp_geom::{angle, AntennaPose, Region2, Vec2, Vec3};
use rfp_oracle::solver::{
    solve_2d_reference, solve_3d_reference, Jacobian, Reference2DSeeds, Reference2DWorkspace,
    Reference3DSeeds, Reference3DWorkspace,
};
use rfp_phys::polarization::{orientation_phase, planar_dipole};
use rfp_phys::propagation;
use rfp_sim::{Motion, NoiseModel, ReaderConfig, Scene, SimTag};

/// Central-difference steps matching the oracle's numeric solve.
const STEPS_2D: [f64; 5] = [1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
const STEPS_3D: [f64; 7] = [1e-4, 1e-4, 1e-4, 1e-4, 1e-4, 1e-13, 1e-4];

/// The oracle's numeric-Jacobian solve under the default configuration,
/// seeded as [`solve_2d`] seeds the facade, with its LM work counters.
fn oracle_numeric_2d(obs: &[AntennaObservation], region: Region2) -> (TagEstimate2D, SolveStats) {
    let config = SolverConfig::default();
    let poses: Vec<AntennaPose> = obs.iter().map(|o| o.pose).collect();
    let seeds = Reference2DSeeds::for_scene(region, &config, &poses);
    let mut ws = Reference2DWorkspace::default();
    let est = solve_2d_reference(obs, &seeds, &config, Jacobian::Numeric, &mut ws, None).unwrap();
    (est, ws.stats())
}

/// The oracle's numeric-Jacobian 3-D solve under the default
/// configuration, seeded as [`solve_3d`] seeds the facade.
fn oracle_numeric_3d(obs: &[AntennaObservation], region: Region2, z: (f64, f64)) -> TagEstimate3D {
    let config = Solver3DConfig::default();
    let poses: Vec<AntennaPose> = obs.iter().map(|o| o.pose).collect();
    let seeds = Reference3DSeeds::for_scene(region, z, &config, &poses);
    let mut ws = Reference3DWorkspace::default();
    solve_3d_reference(obs, &seeds, &config, Jacobian::Numeric, &mut ws, None).unwrap()
}

/// Exact (noise-free) 2-D observations with simulated RSSI and channels:
/// a clean survey's extraction with slope and intercept overwritten by
/// the forward model.
fn synthetic_observations(
    poses: &[AntennaPose],
    truth: (Vec2, f64, f64, f64),
) -> Vec<AntennaObservation> {
    let (pos, alpha, kt, bt) = truth;
    let scene = Scene::standard_2d()
        .with_noise(NoiseModel::clean())
        .with_reader(ReaderConfig::ideal());
    let tag = SimTag::nominal(0).with_motion(Motion::planar_static(pos, alpha));
    let survey = scene.survey(&tag, 0);
    poses
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&pose, reads)| {
            let mut o = extract_observation(pose, reads, &ExtractConfig::paper()).unwrap();
            let d = pose.position().distance(pos.with_z(0.0));
            o.slope = propagation::slope_from_distance(d) + kt;
            o.intercept =
                angle::wrap_tau(orientation_phase(&pose, planar_dipole(alpha)) + bt);
            o
        })
        .collect()
}

/// Exact observations straight from the forward model (no simulator, no
/// RSSI — the mode penalty is disabled by the `-∞` RSSI of `from_line`).
fn observations_from_truth(
    poses: &[AntennaPose],
    pos: Vec3,
    w: Vec3,
    kt: f64,
    bt: f64,
) -> Vec<AntennaObservation> {
    poses
        .iter()
        .map(|&pose| {
            let d = pose.position().distance(pos);
            AntennaObservation::from_line(
                pose,
                propagation::slope_from_distance(d) + kt,
                orientation_phase(&pose, w) + bt,
            )
        })
        .collect()
}

/// Asserts elementwise agreement of an analytic Jacobian with central
/// differences of the residual function.
fn assert_jacobian_matches<R>(residual: R, jac: &[f64], p: &[f64], steps: &[f64], m: usize)
where
    R: Fn(&[f64], &mut Vec<f64>),
{
    let n = p.len();
    let mut r_plus = Vec::new();
    let mut r_minus = Vec::new();
    let mut work = p.to_vec();
    for j in 0..n {
        let h = steps[j];
        work[j] = p[j] + h;
        residual(&work, &mut r_plus);
        work[j] = p[j] - h;
        residual(&work, &mut r_minus);
        work[j] = p[j];
        for i in 0..m {
            let num = (r_plus[i] - r_minus[i]) / (2.0 * h);
            let ana = jac[i * n + j];
            let tol = 1e-6 * (1.0 + ana.abs().max(num.abs()));
            assert!(
                (ana - num).abs() <= tol,
                "Jacobian entry ({i},{j}): analytic {ana} vs central-diff {num}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-D: the analytic Jacobian agrees with central differences at
    /// random evaluation points near random truths.
    #[test]
    fn analytic_jacobian_2d_matches_central_differences(
        x in -0.4f64..1.4,
        y in 0.6f64..2.4,
        alpha in 0.0f64..std::f64::consts::PI,
        kt in -5e-8f64..5e-8,
        bt in 0.0f64..std::f64::consts::TAU,
        dx in -0.05f64..0.05,
        dy in -0.05f64..0.05,
        dalpha in -0.05f64..0.05,
        dbt in -0.05f64..0.05,
    ) {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = observations_from_truth(
            &poses,
            Vec2::new(x, y).with_z(0.0),
            planar_dipole(alpha),
            kt,
            bt,
        );
        let config = SolverConfig::default();
        let p = [x + dx, y + dy, alpha + dalpha, kt, bt + dbt];
        let mut r = Vec::new();
        let mut jac = Vec::new();
        residuals_and_jacobian_2d(&obs, &p, &config, &mut r, Some(&mut jac));
        assert_jacobian_matches(
            |q: &[f64], out: &mut Vec<f64>| residuals_2d(&obs, q, &config, out),
            &jac,
            &p,
            &STEPS_2D,
            r.len(),
        );
    }

    /// 3-D: same agreement for the 7-parameter residuals over random
    /// positions and dipole directions.
    #[test]
    fn analytic_jacobian_3d_matches_central_differences(
        x in 0.0f64..1.2,
        y in 0.8f64..2.0,
        z in 0.1f64..1.2,
        theta in 0.1f64..1.47,
        phi in 0.0f64..std::f64::consts::TAU,
        kt in -5e-8f64..5e-8,
        bt in 0.0f64..std::f64::consts::TAU,
        dpos in -0.04f64..0.04,
        dang in -0.04f64..0.04,
    ) {
        let poses = Scene::six_antenna_3d().antenna_poses();
        let (st, ct) = theta.sin_cos();
        let (sp, cp) = phi.sin_cos();
        let w = Vec3::new(st * cp, st * sp, ct);
        // Near-degenerate polarization geometry (dipole almost parallel to
        // an antenna's boresight) makes θ_orient vary arbitrarily fast;
        // central differences are meaningless there, so skip those draws.
        for pose in &poses {
            let uw = pose.u().dot(w);
            let vw = pose.v().dot(w);
            prop_assume!(uw * uw + vw * vw > 1e-2);
        }
        let obs = observations_from_truth(&poses, Vec3::new(x, y, z), w, kt, bt);
        let config = Solver3DConfig::default();
        let p = [
            x + dpos,
            y - dpos,
            z + dpos,
            theta + dang,
            phi - dang,
            kt,
            bt + dang,
        ];
        let mut r = Vec::new();
        let mut jac = Vec::new();
        residuals_and_jacobian_3d(&obs, &p, &config, &mut r, Some(&mut jac));
        assert_jacobian_matches(
            |q: &[f64], out: &mut Vec<f64>| residuals_3d(&obs, q, &config, out),
            &jac,
            &p,
            &STEPS_3D,
            r.len(),
        );
    }

    /// The analytic facade and the oracle's numeric LM land on the same
    /// optimum — the exact truth — to well within 1e-9 on clean synthetic
    /// 2-D scenes.
    #[test]
    fn analytic_and_numeric_lm_converge_identically_2d(
        x in -0.3f64..1.3,
        y in 0.7f64..2.3,
        alpha in 0.05f64..3.0,
        kt in -4e-8f64..4e-8,
        bt in 0.1f64..6.0,
    ) {
        let scene = Scene::standard_2d();
        let poses = scene.antenna_poses();
        let obs = observations_from_truth(
            &poses,
            Vec2::new(x, y).with_z(0.0),
            planar_dipole(alpha),
            kt,
            bt,
        );
        let analytic = solve_2d(&obs, scene.region(), &SolverConfig::default()).unwrap();
        let (numeric, _) = oracle_numeric_2d(&obs, scene.region());
        prop_assert!(analytic.position.distance(numeric.position) < 1e-9);
        prop_assert!(angle::dipole_distance(analytic.orientation, numeric.orientation) < 1e-9);
        prop_assert!((analytic.kt - numeric.kt).abs() < 1e-15);
        prop_assert!(angle::distance(analytic.bt, numeric.bt) < 1e-9);
        // And both are at the truth.
        prop_assert!(analytic.position.distance(Vec2::new(x, y)) < 1e-9);
    }
}

/// Pinned (non-random) convergence check, 3-D included: the analytic
/// facade and the oracle's numeric solve agree on a specific clean scene.
#[test]
fn pinned_analytic_numeric_agreement_3d() {
    let scene = Scene::six_antenna_3d();
    let poses = scene.antenna_poses();
    let theta = 0.8f64;
    let phi = 2.1f64;
    let (st, ct) = theta.sin_cos();
    let (sp, cp) = phi.sin_cos();
    let w = Vec3::new(st * cp, st * sp, ct);
    let obs =
        observations_from_truth(&poses, Vec3::new(0.6, 1.4, 0.7), w, -2.3e-8, 1.1);
    let analytic =
        solve_3d(&obs, scene.region(), (0.0, 1.5), &Solver3DConfig::default()).unwrap();
    let numeric = oracle_numeric_3d(&obs, scene.region(), (0.0, 1.5));
    assert!(analytic.position.distance(numeric.position) < 1e-9);
    assert!(analytic.dipole_axis_error(numeric.dipole) < 1e-9);
    assert!((analytic.kt - numeric.kt).abs() < 1e-14);
    assert!(angle::distance(analytic.bt, numeric.bt) < 1e-9);
    assert!(analytic.position.distance(Vec3::new(0.6, 1.4, 0.7)) < 1e-9);
}

#[test]
fn numeric_fallback_converges_to_analytic_result() {
    let scene = Scene::standard_2d();
    let poses = scene.antenna_poses();
    let truth_pos = Vec2::new(0.7, 1.9);
    let obs = synthetic_observations(&poses, (truth_pos, 1.1, -2.0e-8, 2.4));
    let analytic = solve_2d(&obs, scene.region(), &SolverConfig::default()).unwrap();
    let (numeric, _) = oracle_numeric_2d(&obs, scene.region());
    // On a clean synthetic scene both modes must land on the same
    // optimum — the exact truth — to well below a nanometre.
    assert!(analytic.position.distance(numeric.position) < 1e-9);
    assert!((analytic.orientation - numeric.orientation).abs() < 1e-9);
    assert!((analytic.kt - numeric.kt).abs() < 1e-15);
    assert!(angle::distance(analytic.bt, numeric.bt) < 1e-9);
    assert!(analytic.position.distance(truth_pos) < 1e-9);
    assert!(numeric.position.distance(truth_pos) < 1e-9);
}

#[test]
fn analytic_path_needs_far_fewer_residual_evaluations() {
    let scene = Scene::standard_2d();
    let poses = scene.antenna_poses();
    let obs = synthetic_observations(&poses, (Vec2::new(0.5, 1.5), 0.6, -1e-8, 1.0));
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &poses);
    let mut ws = SolverWorkspace::default();
    solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
    let analytic = ws.stats();
    let (_, numeric) = oracle_numeric_2d(&obs, scene.region());
    assert!(analytic.residual_evals > 0 && numeric.residual_evals > 0);
    assert!(
        analytic.residual_evals * 2 <= numeric.residual_evals,
        "analytic {} evals vs numeric {}",
        analytic.residual_evals,
        numeric.residual_evals
    );
}

#[test]
fn numeric_fallback_3d_converges_to_analytic_result() {
    let scene = Scene::four_antenna_3d()
        .with_noise(NoiseModel::clean())
        .with_reader(ReaderConfig::ideal());
    let truth = Vec3::new(0.4, 1.7, 0.6);
    let dipole = Vec3::new(0.5, 0.6, 0.8).normalized();
    let motion = Motion::Static { position: truth, dipole: dipole.normalized() };
    let tag = SimTag::nominal(1).with_motion(motion);
    let survey = scene.survey(&tag, 5);
    let obs: Vec<AntennaObservation> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
        .collect();
    let analytic =
        solve_3d(&obs, scene.region(), (0.0, 1.0), &Solver3DConfig::default()).unwrap();
    let numeric = oracle_numeric_3d(&obs, scene.region(), (0.0, 1.0));
    assert!(analytic.position.distance(numeric.position) < 1e-6);
    assert!(analytic.dipole_axis_error(numeric.dipole) < 1e-6);
    assert!((analytic.kt - numeric.kt).abs() < 1e-13);
    assert!(angle::distance(analytic.bt, numeric.bt) < 1e-6);
}
