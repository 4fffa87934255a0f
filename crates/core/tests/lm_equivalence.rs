//! Bit-identity suite for the const-generic LM facades (DESIGN.md §6).
//!
//! The 2-D (`LmCore<5>`/`LmCore<3>`) and 3-D (`LmCore<7>`/`LmCore<4>`)
//! solver facades must reproduce the frozen pre-refactor solvers in
//! `rfp_oracle::solver` bit-for-bit — same refinements, same sort
//! orders, same warm-gate decisions, same final estimate down to the last
//! ulp. The facade has one configuration, the paper's, and the oracle
//! runs at its default (the same values, kept as fields of its own
//! config types). Every input axis gets a pin: the facade's geometry
//! tables vs the oracle's direct evaluation, observations from a subset of
//! the seeds' antennas, the twin-α tie-break, and warm starts both fresh
//! (gate hit) and teleported-stale (gate miss fallback). The oracle builds
//! its own seeds, so every pin also checks the facade's seed construction
//! against an independent copy. Below the
//! facades, `LmCore::refine` is pinned against the oracle's dynamic
//! analytic LM core on a small line model, and its work accounting on
//! that model and the 2-D and 3-D joint and slope problems: the core
//! evaluates the oracle's points, each once, with one residual and one
//! Jacobian evaluation per point.

use proptest::prelude::*;
use rfp_core::lm::{LmCore, ResidualModel};
use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig};
use rfp_core::solver::{
    residuals_and_jacobian_2d, solve_2d_seeded_warm, solve_2d_tracking_warm, SolveSeeds,
    SolverConfig, SolverWorkspace, TagEstimate2D, WarmGate, WarmStart,
};
use rfp_core::solver3d::{
    residuals_and_jacobian_3d, solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace,
    TagEstimate3D, WarmStart3D,
};
use rfp_geom::{angle, AntennaPose, Vec2, Vec3};
use rfp_oracle::solver::{
    levenberg_marquardt_analytic_with, solve_2d_reference, solve_3d_reference, Jacobian,
    LmWorkspace, Reference2DConfig, Reference2DSeeds, Reference2DWorkspace, Reference3DConfig,
    Reference3DSeeds, Reference3DWorkspace,
};
use rfp_phys::polarization::{orientation_phase, planar_dipole, projection_magnitude};
use rfp_phys::{propagation, Material};
use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};
use std::cell::RefCell;
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn observations_2d(
    x: f64,
    y: f64,
    alpha: f64,
    material_idx: usize,
    seed: u64,
    clutter: bool,
) -> Option<(Scene, Vec<AntennaObservation>)> {
    let mut scene = Scene::standard_2d();
    if clutter {
        scene = scene.with_environment(MultipathEnvironment::cluttered(3, seed ^ 0x5d));
    }
    let material = Material::CLASSES[material_idx % Material::CLASSES.len()];
    let tag = SimTag::with_seeded_diversity(seed)
        .attached_to(material)
        .with_motion(Motion::planar_static(Vec2::new(x, y), alpha));
    let survey = scene.survey(&tag, seed.wrapping_mul(0x9e37_79b9));
    let obs: Option<Vec<_>> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
        .collect();
    obs.map(|o| (scene, o))
}

fn observations_3d(
    position: Vec3,
    dipole: Vec3,
    seed: u64,
) -> Option<(Scene, Vec<AntennaObservation>)> {
    let scene = Scene::six_antenna_3d();
    let tag = SimTag::nominal(1)
        .with_motion(Motion::Static { position, dipole: dipole.normalized() });
    let survey = scene.survey(&tag, seed);
    let obs: Option<Vec<_>> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
        .collect();
    obs.map(|o| (scene, o))
}

/// Bit-pattern equality across every 2-D output field, uncertainty
/// propagation included.
fn assert_bits_2d(facade: &TagEstimate2D, oracle: &TagEstimate2D, what: &str) {
    let fields = |e: &TagEstimate2D| {
        [
            e.position.x,
            e.position.y,
            e.orientation,
            e.kt,
            e.bt,
            e.cost,
            e.residual_rms,
            e.position_std_m,
            e.orientation_std_rad,
            e.position_cov[0][0],
            e.position_cov[0][1],
            e.position_cov[1][0],
            e.position_cov[1][1],
        ]
    };
    for (i, (fa, fb)) in fields(facade).iter().zip(fields(oracle).iter()).enumerate() {
        assert_eq!(
            fa.to_bits(),
            fb.to_bits(),
            "{what} (field {i}): facade {facade:?} vs oracle {oracle:?}"
        );
    }
}

/// Bit-pattern equality across every 3-D output field.
fn assert_bits_3d(facade: &TagEstimate3D, oracle: &TagEstimate3D, what: &str) {
    let fields = |e: &TagEstimate3D| {
        [
            e.position.x,
            e.position.y,
            e.position.z,
            e.dipole.x,
            e.dipole.y,
            e.dipole.z,
            e.kt,
            e.bt,
            e.cost,
            e.residual_rms,
        ]
    };
    for (i, (fa, fb)) in fields(facade).iter().zip(fields(oracle).iter()).enumerate() {
        assert_eq!(
            fa.to_bits(),
            fb.to_bits(),
            "{what} (field {i}): facade {facade:?} vs oracle {oracle:?}"
        );
    }
}

/// Runs facade and oracle (at its default configuration) against the same
/// scene and warm input, each with its own seeds, and pins the results
/// bit-for-bit. The facade always seeds from its geometry tables;
/// `with_geometry` controls whether the oracle does too, or evaluates the
/// seed geometry directly.
fn pin_2d(
    obs: &[AntennaObservation],
    scene: &Scene,
    warm: Option<&WarmStart>,
    with_geometry: bool,
    what: &str,
) {
    let (region, poses) = (scene.region(), scene.antenna_poses());
    let (config, oracle_config) = (SolverConfig::default(), Reference2DConfig::default());
    let seeds = SolveSeeds::for_scene(region, &config, &poses);
    let oracle_seeds = if with_geometry {
        Reference2DSeeds::for_scene(region, &oracle_config, &poses)
    } else {
        Reference2DSeeds::new(region, &oracle_config)
    };
    let mut ws = SolverWorkspace::default();
    let facade = solve_2d_seeded_warm(obs, &seeds, &config, &mut ws, warm).expect("solvable");
    let mut oracle_ws = Reference2DWorkspace::default();
    let oracle = solve_2d_reference(
        obs, &oracle_seeds, &oracle_config, Jacobian::Analytic, &mut oracle_ws, warm,
    )
    .expect("solvable");
    assert_bits_2d(&facade, &oracle, what);
}

fn pin_3d(
    obs: &[AntennaObservation],
    scene: &Scene,
    warm: Option<&WarmStart3D>,
    with_geometry: bool,
    what: &str,
) {
    let z_range = (0.0, 1.0);
    let (region, poses) = (scene.region(), scene.antenna_poses());
    let (config, oracle_config) = (SolverConfig::default(), Reference3DConfig::default());
    let seeds = Solve3DSeeds::for_scene(region, z_range, &config, &poses);
    let oracle_seeds = if with_geometry {
        Reference3DSeeds::for_scene(region, z_range, &oracle_config, &poses)
    } else {
        Reference3DSeeds::new(region, z_range, &oracle_config)
    };
    let mut ws = Solver3DWorkspace::default();
    let facade = solve_3d_seeded_warm(obs, &seeds, &config, &mut ws, warm).expect("solvable");
    let mut oracle_ws = Reference3DWorkspace::default();
    let oracle = solve_3d_reference(
        obs, &oracle_seeds, &oracle_config, Jacobian::Analytic, &mut oracle_ws, warm,
    )
    .expect("solvable");
    assert_bits_3d(&facade, &oracle, what);
}

fn scene_2d() -> (Scene, Vec<AntennaObservation>) {
    observations_2d(0.45, 1.55, 0.7, 2, 41, true).expect("standard scene extracts")
}

fn scene_3d() -> (Scene, Vec<AntennaObservation>) {
    observations_3d(Vec3::new(0.7, 1.1, 0.5), Vec3::new(0.4, 0.6, 0.9), 21)
        .expect("3-D scene extracts")
}

// ---------------------------------------------------------------------------
// 2-D pins
// ---------------------------------------------------------------------------

#[test]
fn default_wide4_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    pin_2d(&obs, &scene, None, true, "default Wide4");
}

#[test]
fn table_free_seeds_match_reference_2d() {
    let (scene, obs) = scene_2d();
    pin_2d(&obs, &scene, None, false, "no geometry tables");
}

#[test]
fn fresh_warm_start_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = SolverWorkspace::default();
    let cold = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
    let warm = WarmStart::from_estimate(&cold);
    pin_2d(&obs, &scene, Some(&warm), true, "fresh warm start");
}

#[test]
fn teleported_warm_start_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    // A prior parked far outside the basin: the gate must miss in both
    // implementations and both must fall back to the identical cold scan.
    let stale = WarmStart {
        position: Vec2::new(-2.6, 5.4),
        orientation: 2.9,
        kt: 4.0e-8,
        bt: 0.3,
    };
    pin_2d(&obs, &scene, Some(&stale), true, "stale warm start");
}

/// The twin-α disambiguation path: with only three antennas the wrapped
/// intercept system admits near-twin α solutions and the RSSI mode
/// penalty breaks the tie — the facade must take the identical branch.
#[test]
fn three_antenna_twin_alpha_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    // The standard scene has exactly three antennas, so both solvers seed
    // from tables of the full deployment.
    pin_2d(&obs[..3], &scene, None, true, "twin-α with 3 antennas");
}

/// Seeds built for four planar antennas, observations from three of them
/// (an antenna dropped by extraction), in pose order and permuted: the
/// facade reads the three antennas' table columns, the oracle's tables do
/// not match and it evaluates the seed geometry directly.
#[test]
fn dropped_antenna_matches_reference_2d() {
    let scene = Scene::standard_2d();
    let mut poses = scene.antenna_poses();
    let target = scene.region().center().with_z(0.0);
    poses.push(AntennaPose::looking_at(Vec3::new(1.5, 0.0, 0.6), target, 1.2));
    let (pos, alpha, kt, bt) = (Vec3::new(0.35, 1.45, 0.0), 1.1, -2.0e-8, 0.9);
    let w = planar_dipole(alpha);
    // Exact forward-model lines, with the RSSI of the backscatter link
    // budget so that the mode penalty reads the projection columns too.
    let observation = |pose: AntennaPose| {
        let d = pose.position().distance(pos);
        let mut o = AntennaObservation::from_line(
            pose,
            propagation::slope_from_distance(d) + kt,
            orientation_phase(&pose, w) + bt,
        );
        o.mean_rssi_dbm =
            -30.0 - 40.0 * d.log10() + 20.0 * projection_magnitude(&pose, w).log10();
        o
    };
    let (config, oracle_config) = (SolverConfig::default(), Reference2DConfig::default());
    let region = scene.region();
    let seeds = SolveSeeds::for_scene(region, &config, &poses);
    let oracle_seeds = Reference2DSeeds::for_scene(region, &oracle_config, &poses);
    let (mut ws, mut oracle_ws) = (SolverWorkspace::default(), Reference2DWorkspace::default());
    for order in [[0, 1, 3], [3, 0, 1]] {
        let obs: Vec<AntennaObservation> = order.iter().map(|&i| observation(poses[i])).collect();
        let facade = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None);
        let oracle = solve_2d_reference(
            &obs, &oracle_seeds, &oracle_config, Jacobian::Analytic, &mut oracle_ws, None,
        );
        let what = format!("antennas {order:?} of 4");
        assert_bits_2d(&facade.expect("solvable"), &oracle.expect("solvable"), &what);
    }
}

/// The tracking entry with a period-1 gate re-anchors every solve, which
/// is by contract `solve_2d_seeded_warm` exactly — and therefore also the
/// reference, transitively.
#[test]
fn tracking_gate_period_one_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = SolverWorkspace::default();
    let cold = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
    let warm = WarmStart::from_estimate(&cold);

    let mut gate = WarmGate::with_period(1);
    let mut gated_ws = SolverWorkspace::default();
    let gated =
        solve_2d_tracking_warm(&obs, &seeds, &config, &mut gated_ws, Some(&warm), &mut gate)
            .expect("solvable");

    let oracle_config = Reference2DConfig::default();
    let oracle_seeds =
        Reference2DSeeds::for_scene(scene.region(), &oracle_config, &scene.antenna_poses());
    let mut oracle_ws = Reference2DWorkspace::default();
    let oracle = solve_2d_reference(
        &obs,
        &oracle_seeds,
        &oracle_config,
        Jacobian::Analytic,
        &mut oracle_ws,
        Some(&warm),
    )
    .expect("solvable");
    assert_bits_2d(&gated, &oracle, "tracking gate period 1");
}

/// The stage-1 dedup drops only duplicate basins. Against the oracle at
/// a dedup radius of 0 (the 2-D solve before the dedup, which ran the
/// scan and the joint refinements from every kept candidate), the
/// facade answers alike on 64 static tags per scene, clean, in two
/// cluttered rooms and with uncalibrated ports, spread over the region
/// with the materials in turn: the same `Ok`/`Err`, the position within
/// 1e-9 m, the orientation within 1e-9 rad and the cost within 1e-9
/// relative. Only the last bits may move: the dropped duplicate's
/// refinement of the same basin sometimes won by a last-bit margin.
/// At least 90% of the solves drop a duplicate (a solve with no
/// admissible candidate scans the overall best alone and drops none).
#[test]
fn stage1_dedup_drops_only_duplicate_basins() {
    let cluttered =
        |seed| Scene::standard_2d().with_environment(MultipathEnvironment::cluttered(3, seed));
    let scenes = [
        ("standard_2d", Scene::standard_2d()),
        ("cluttered(3, 7)", cluttered(7)),
        ("cluttered(3, 17)", cluttered(17)),
        ("uncalibrated(11)", Scene::standard_2d_uncalibrated(11)),
    ];
    let config = SolverConfig::default();
    let undeduplicated = Reference2DConfig { stage1_dedup_m: 0.0, ..Reference2DConfig::default() };
    for (name, scene) in &scenes {
        let (region, poses) = (scene.region(), scene.antenna_poses());
        let seeds = SolveSeeds::for_scene(region, &config, &poses);
        let oracle_seeds = Reference2DSeeds::for_scene(region, &undeduplicated, &poses);
        let (mut ws, mut oracle_ws) = (SolverWorkspace::default(), Reference2DWorkspace::default());
        let (lo, hi) = (region.min(), region.max());
        let (mut solved, mut deduplicated) = (0, 0);
        for k in 0..64u64 {
            let (i, j) = ((k % 8) as f64 + 0.5, (k / 8) as f64 + 0.5);
            let position =
                Vec2::new(lo.x + (hi.x - lo.x) * i / 8.0, lo.y + (hi.y - lo.y) * j / 8.0);
            let tag = SimTag::with_seeded_diversity(900 + k)
                .attached_to(Material::CLASSES[k as usize % Material::CLASSES.len()])
                .with_motion(Motion::planar_static(position, 0.37 * k as f64 % 3.1));
            let survey = scene.survey(&tag, 9000 + k);
            let obs: Vec<AntennaObservation> = poses
                .iter()
                .zip(&survey.per_antenna)
                .filter_map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
                .collect();
            let before = ws.prune_stats();
            let facade = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None);
            let duplicates = ws.prune_stats().since(before).stage1_duplicates;
            let oracle = solve_2d_reference(
                &obs, &oracle_seeds, &undeduplicated, Jacobian::Analytic, &mut oracle_ws, None,
            );
            let what = format!("{name} tag {k}");
            match (facade, oracle) {
                (Ok(f), Ok(o)) => {
                    let moved = f.position.distance(o.position);
                    assert!(moved <= 1e-9, "{what}: position moved {moved} m: {f:?} vs {o:?}");
                    let turned = angle::dipole_distance(f.orientation, o.orientation);
                    assert!(turned <= 1e-9, "{what}: orientation moved {turned} rad");
                    let cost = (f.cost - o.cost).abs() / f.cost.abs().max(o.cost.abs());
                    assert!(cost <= 1e-9, "{what}: cost {} vs {}", f.cost, o.cost);
                    solved += 1;
                    deduplicated += usize::from(duplicates >= 1);
                }
                (f, o) => assert_eq!(f.err(), o.err(), "{what}"),
            }
        }
        assert!(solved >= 48, "{name}: {solved} of 64 tags solved");
        assert!(10 * deduplicated >= 9 * solved, "{name}: {deduplicated} of {solved} deduplicated");
    }
}

/// Workspace reuse across solves must not perturb results: re-solving the
/// same input with a dirty workspace is bit-identical to a fresh one.
#[test]
fn dirty_workspace_reuse_is_bit_identical_2d() {
    let (scene, obs) = scene_2d();
    let (_, obs_other) =
        observations_2d(-0.8, 2.1, 2.2, 5, 77, false).expect("standard scene extracts");
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());

    let mut fresh = SolverWorkspace::default();
    let clean = solve_2d_seeded_warm(&obs, &seeds, &config, &mut fresh, None).expect("solvable");

    let mut dirty = SolverWorkspace::default();
    solve_2d_seeded_warm(&obs_other, &seeds, &config, &mut dirty, None).expect("solvable");
    let reused = solve_2d_seeded_warm(&obs, &seeds, &config, &mut dirty, None).expect("solvable");
    assert_bits_2d(&reused, &clean, "dirty workspace reuse");
}

// ---------------------------------------------------------------------------
// 3-D pins
// ---------------------------------------------------------------------------

#[test]
fn default_wide4_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    pin_3d(&obs, &scene, None, true, "default Wide4 3-D");
}

#[test]
fn table_free_seeds_match_reference_3d() {
    let (scene, obs) = scene_3d();
    pin_3d(&obs, &scene, None, false, "no geometry tables 3-D");
}

#[test]
fn fresh_warm_start_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    let config = SolverConfig::default();
    let seeds =
        Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &scene.antenna_poses());
    let mut ws = Solver3DWorkspace::default();
    let cold = solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
    let warm = WarmStart3D::from_estimate(&cold);
    pin_3d(&obs, &scene, Some(&warm), true, "fresh warm start 3-D");
}

#[test]
fn teleported_warm_start_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    let stale = WarmStart3D {
        position: Vec3::new(-3.0, 6.0, 2.5),
        dipole: Vec3::new(0.1, -0.9, 0.2),
        kt: 5.0e-8,
        bt: 1.1,
    };
    pin_3d(&obs, &scene, Some(&stale), true, "stale warm 3-D");
}

/// Four of the six antennas against tables built for all six — what a
/// cluttered 3-D scene sees whenever extraction drops an antenna: the
/// facade reads the four antennas' table columns, while the oracle's
/// tables do not match and it evaluates the seed geometry directly.
#[test]
fn four_antenna_fallback_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    pin_3d(&obs[..4], &scene, None, true, "4 of 6 antennas");
}

/// Workspace reuse across 3-D solves must not perturb results: nothing
/// ranked or cached by the previous solve may leak into the next one.
#[test]
fn dirty_workspace_reuse_is_bit_identical_3d() {
    let (scene, obs) = scene_3d();
    let (_, obs_other) =
        observations_3d(Vec3::new(0.3, 1.7, 0.8), Vec3::new(-0.7, 0.2, 0.4), 58)
            .expect("3-D scene extracts");
    let config = SolverConfig::default();
    let seeds =
        Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &scene.antenna_poses());

    let mut fresh = Solver3DWorkspace::default();
    let clean = solve_3d_seeded_warm(&obs, &seeds, &config, &mut fresh, None).expect("solvable");

    let mut dirty = Solver3DWorkspace::default();
    solve_3d_seeded_warm(&obs_other, &seeds, &config, &mut dirty, None).expect("solvable");
    let reused = solve_3d_seeded_warm(&obs, &seeds, &config, &mut dirty, None).expect("solvable");
    assert_bits_3d(&reused, &clean, "dirty workspace reuse 3-D");
}

// ---------------------------------------------------------------------------
// LM core pins
// ---------------------------------------------------------------------------

/// Fit y = a·x + b over 10 points — a tiny 2-parameter model whose
/// analytic Jacobian is exact.
struct Line {
    data: Vec<(f64, f64)>,
}

impl ResidualModel<2> for Line {
    fn eval(&self, p: &[f64; 2], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        r.clear();
        let mut jac = jac;
        if let Some(j) = jac.as_deref_mut() {
            j.clear();
        }
        for &(x, y) in &self.data {
            r.push(y - (p[0] * x + p[1]));
            if let Some(j) = jac.as_deref_mut() {
                j.push(-x);
                j.push(-1.0);
            }
        }
    }
}

fn line_model() -> Line {
    Line { data: (0..10).map(|i| (i as f64, 2.0 * i as f64 - 3.0)).collect() }
}

/// A [`ResidualModel`] that records, bitwise, every point it is handed.
struct Counting<'a, M> {
    model: &'a M,
    points: RefCell<Vec<Vec<u64>>>,
}

impl<'a, M> Counting<'a, M> {
    fn new(model: &'a M) -> Self {
        Counting { model, points: RefCell::new(Vec::new()) }
    }

    /// The points handed to `eval` so far, in call order.
    fn points(&self) -> Vec<Vec<u64>> {
        self.points.borrow().clone()
    }
}

impl<M: ResidualModel<P>, const P: usize> ResidualModel<P> for Counting<'_, M> {
    fn eval(&self, p: &[f64; P], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        self.points.borrow_mut().push(p.iter().map(|v| v.to_bits()).collect());
        self.model.eval(p, r, jac);
    }
}

#[test]
fn analytic_refine_matches_dynamic_core_bitwise() {
    let line = line_model();
    let model = Counting::new(&line);
    let mut core = LmCore::<2>::default();
    let (p, cost) = core.refine(&model, [0.0, 0.0], 100, 1e-14);

    let mut ws = LmWorkspace::default();
    let resjac = |p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
        let pa = [p[0], p[1]];
        line.eval(&pa, r, jac);
    };
    let (pd, costd) =
        levenberg_marquardt_analytic_with(&mut ws, &resjac, vec![0.0, 0.0], 100, 1e-14);
    assert_eq!(p[0].to_bits(), pd[0].to_bits());
    assert_eq!(p[1].to_bits(), pd[1].to_bits());
    assert_eq!(cost.to_bits(), costd.to_bits());
    assert!((p[0] - 2.0).abs() < 1e-8 && (p[1] + 3.0).abs() < 1e-8);
    // The oracle's iterations, and one fused evaluation per `eval` call.
    let (stats, evals) = (core.stats(), model.points().len() as u64);
    assert_eq!(stats.iterations, ws.stats().iterations);
    assert_eq!(stats.residual_evals, evals);
    assert_eq!(stats.jacobian_evals, evals);
}

/// The solver's LM tolerance (`rfp_core::solver`'s private `TOLERANCE`).
const SOLVER_TOLERANCE: f64 = 1e-10;

/// Refines `model` from `start` on `LmCore` and on the oracle's dynamic
/// core, both recording the points they evaluate, and pins the
/// evaluation accounting: the same result bits and iterations; no point
/// evaluated twice by the core; the core's points are the oracle's with
/// its repeats dropped (an accepted trial re-evaluated as the next
/// iteration's point, a trial whose step rounded away or onto the
/// previous attempt's trial); and one residual and one Jacobian
/// evaluation per point. Returns the number of oracle evaluations the
/// core did not repeat.
fn pin_evaluations<M: ResidualModel<P>, const P: usize>(
    model: &M,
    start: [f64; P],
    max_iterations: usize,
    what: &str,
) -> usize {
    let counting = Counting::new(model);
    let mut core = LmCore::<P>::default();
    let (p, cost) = core.refine(&counting, start, max_iterations, SOLVER_TOLERANCE);
    let visited = counting.points();

    let oracle = Counting::new(model);
    let resjac = |q: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
        let q: [f64; P] = q.try_into().expect("P parameters");
        oracle.eval(&q, r, jac);
    };
    let mut ws = LmWorkspace::default();
    let (pd, costd) = levenberg_marquardt_analytic_with(
        &mut ws, &resjac, start.to_vec(), max_iterations, SOLVER_TOLERANCE,
    );
    for (a, (x, y)) in p.iter().zip(&pd).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: parameter {a}");
    }
    assert_eq!(cost.to_bits(), costd.to_bits(), "{what}: cost");

    let mut seen = HashSet::new();
    for (k, point) in visited.iter().enumerate() {
        assert!(seen.insert(point.clone()), "{what}: evaluation {k} repeats a point");
    }
    let oracle_points = oracle.points();
    let mut seen = HashSet::new();
    let distinct: Vec<Vec<u64>> =
        oracle_points.iter().filter(|q| seen.insert((*q).clone())).cloned().collect();
    assert_eq!(distinct, visited, "{what}: the oracle's points without repeats");

    let stats = core.stats();
    assert_eq!(stats.iterations, ws.stats().iterations, "{what}: iterations");
    assert_eq!(stats.residual_evals, visited.len() as u64, "{what}: residual evals");
    assert_eq!(stats.jacobian_evals, visited.len() as u64, "{what}: jacobian evals");
    oracle_points.len() - visited.len()
}

/// The joint 2-D problem through `residuals_and_jacobian_2d`.
struct Joint2D<'a>(&'a [AntennaObservation]);

impl ResidualModel<5> for Joint2D<'_> {
    fn eval(&self, p: &[f64; 5], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        residuals_and_jacobian_2d(self.0, p, r, jac);
    }
}

/// The joint 3-D problem through `residuals_and_jacobian_3d`.
struct Joint3D<'a>(&'a [AntennaObservation]);

impl ResidualModel<7> for Joint3D<'_> {
    fn eval(&self, p: &[f64; 7], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        residuals_and_jacobian_3d(self.0, p, r, jac);
    }
}

/// A joint kernel's slope rows (the even ones) as a stage-1 problem in
/// the `S` joint parameters `free` (the position and `k_t`); the other
/// parameters hold their values in `fixed`, and the slope rows do not
/// read them.
struct SlopeRows<'a, const J: usize, const S: usize> {
    observations: &'a [AntennaObservation],
    kernel: Kernel,
    fixed: [f64; J],
    free: [usize; S],
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

type Kernel = fn(&[AntennaObservation], &[f64], &mut Vec<f64>, Option<&mut Vec<f64>>);

impl<'a, const J: usize, const S: usize> SlopeRows<'a, J, S> {
    fn new(observations: &'a [AntennaObservation], kernel: Kernel, free: [usize; S]) -> Self {
        let (fixed, scratch) = ([0.0; J], RefCell::new((Vec::new(), Vec::new())));
        SlopeRows { observations, kernel, fixed, free, scratch }
    }
}

impl<const J: usize, const S: usize> ResidualModel<S> for SlopeRows<'_, J, S> {
    fn eval(&self, p: &[f64; S], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        let mut full = self.fixed;
        for (&a, &v) in self.free.iter().zip(p) {
            full[a] = v;
        }
        let (rows, columns) = &mut *self.scratch.borrow_mut();
        (self.kernel)(self.observations, &full, rows, jac.is_some().then_some(columns));
        r.clear();
        r.extend(rows.iter().step_by(2));
        if let Some(jac) = jac {
            jac.clear();
            for row in columns.chunks_exact(J).step_by(2) {
                jac.extend(self.free.iter().map(|&a| row[a]));
            }
        }
    }
}

/// No refinement hands `eval` the same point twice: over the line model
/// and the 2-D and 3-D joint and slope problems, from spread-out cold
/// starts at the solver's iteration caps and tolerance, `LmCore`
/// evaluates exactly the oracle's points once each, and the sweep meets
/// both kinds of repeat the oracle makes.
#[test]
fn refine_evaluates_each_point_once() {
    let mut skipped = pin_evaluations(&line_model(), [0.0, 0.0], 100, "line");

    let (_, near) = scene_2d();
    let (_, far) = observations_2d(-0.8, 2.1, 2.2, 5, 77, false).expect("standard scene extracts");
    for (s, obs) in [near, far].iter().enumerate() {
        let joint = Joint2D(obs);
        let slope = SlopeRows::<5, 3>::new(obs, residuals_and_jacobian_2d, [0, 1, 3]);
        for (k, (x, y)) in [(-1.0, 1.0), (0.0, 1.5), (1.0, 2.0), (-0.5, 2.5)].into_iter().enumerate() {
            let what = format!("2-D scene {s} start {k}");
            skipped += pin_evaluations(&slope, [x, y, 0.0], 60, &format!("{what} slope"));
            for alpha in [0.3, 1.6, 2.8] {
                let start = [x, y, alpha, 0.0, 1.0];
                skipped += pin_evaluations(&joint, start, 60, &format!("{what} α {alpha} joint"));
            }
        }
    }

    let (_, obs) = scene_3d();
    let joint = Joint3D(&obs);
    let slope = SlopeRows::<7, 4>::new(&obs, residuals_and_jacobian_3d, [0, 1, 2, 5]);
    for (k, (x, y, z)) in
        [(0.3, 0.8, 0.2), (0.9, 1.5, 0.7), (0.5, 1.2, 0.9)].into_iter().enumerate()
    {
        let what = format!("3-D start {k}");
        skipped += pin_evaluations(&slope, [x, y, z, 0.0], 80, &format!("{what} slope"));
        for (theta, phi) in [(0.8, 0.5), (1.2, 2.0)] {
            let start = [x, y, z, theta, phi, 0.0, 1.0];
            skipped += pin_evaluations(&joint, start, 80, &format!("{what} joint"));
        }
    }
    assert!(skipped > 0, "the sweep meets repeated points");
}

// ---------------------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scenes: the facade is the oracle bit-for-bit.
    #[test]
    fn facade_matches_reference_2d(
        x in -1.2f64..1.2,
        y in 0.8f64..2.4,
        alpha in 0.0f64..3.1,
        material_idx in 0usize..8,
        seed in 0u64..1000,
        clutter in proptest::bool::ANY,
    ) {
        let Some((scene, obs)) = observations_2d(x, y, alpha, material_idx, seed, clutter)
        else { return Ok(()) };
        pin_2d(&obs, &scene, None, true, "randomized 2-D");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized 3-D scenes: the facade is the oracle bit-for-bit.
    #[test]
    fn facade_matches_reference_3d(
        x in 0.2f64..1.0,
        y in 0.6f64..1.8,
        z in 0.2f64..0.8,
        dx in -1.0f64..1.0,
        dy in -1.0f64..1.0,
        dz in 0.1f64..1.0,
        seed in 0u64..1000,
    ) {
        let Some((scene, obs)) =
            observations_3d(Vec3::new(x, y, z), Vec3::new(dx, dy, dz), seed)
        else { return Ok(()) };
        pin_3d(&obs, &scene, None, true, "randomized 3-D");
    }
}
