//! Property suite for coarse-to-fine seed pruning and warm starts
//! (DESIGN.md §6): the fast paths may only ever *speed up* the solve.
//!
//! Two contracts, each exercised over randomized 2-D scenes (tag
//! placement, orientation, material, noise seed, with and without
//! multipath clutter):
//!
//! 1. **Pruned ≈ exhaustive** — the solver's pruned beam must land on the
//!    basin of the refine-everything scan, which only the frozen oracle
//!    (`rfp_oracle::solver`) still runs: final cost within `1e-6`
//!    (relative) of the oracle's exhaustive scan, position within `1e-6` m.
//! 2. **Warm gate safety** — a warm start, fresh or teleported-stale, must
//!    never produce a worse result than the cold scan beyond the gate's
//!    advertised tolerance; a rejected prior falls back to the cold result
//!    bit-for-bit.
//!
//! In 3-D pruning can pick another basin than the exhaustive scan, so only
//! one six-antenna scene is pinned there.

use proptest::prelude::*;
use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig};
use rfp_core::solver::{
    solve_2d_seeded_warm, SolveSeeds, SolverConfig, SolverWorkspace, TagEstimate2D, WarmStart,
};
use rfp_core::solver3d::{solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace};
use rfp_geom::{Vec2, Vec3};
use rfp_oracle::solver::{
    solve_2d_reference, solve_3d_reference, Jacobian, Reference2DConfig, Reference2DSeeds,
    Reference2DWorkspace, Reference3DConfig, Reference3DSeeds, Reference3DWorkspace,
};
use rfp_phys::Material;
use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};

/// One randomized scene instance → per-antenna observations (skipping the
/// rare placements where extraction fails on some antenna).
fn observations_for(
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

fn solve(
    observations: &[AntennaObservation],
    scene: &Scene,
    warm: Option<&WarmStart>,
) -> TagEstimate2D {
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = SolverWorkspace::default();
    solve_2d_seeded_warm(observations, &seeds, &config, &mut ws, warm).expect("3 antennas")
}

/// The oracle's refine-everything scan of the same scene.
fn solve_exhaustive(observations: &[AntennaObservation], scene: &Scene) -> TagEstimate2D {
    let config = Reference2DConfig::exhaustive();
    let seeds = Reference2DSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = Reference2DWorkspace::default();
    solve_2d_reference(observations, &seeds, &config, Jacobian::Analytic, &mut ws, None)
        .expect("3 antennas")
}

/// The warm gate's relative tolerance, from the oracle's frozen copy of
/// the solver's values.
fn warm_gate() -> f64 {
    1.0 + Reference2DConfig::default().warm_gate_rel_tol
}

/// Bit-pattern equality across every solver output field.
fn assert_bit_identical(a: &TagEstimate2D, b: &TagEstimate2D, what: &str) {
    let fields = |e: &TagEstimate2D| {
        [e.position.x, e.position.y, e.orientation, e.kt, e.bt, e.cost, e.residual_rms]
    };
    for (fa, fb) in fields(a).iter().zip(fields(b).iter()) {
        assert_eq!(fa.to_bits(), fb.to_bits(), "{what}: {a:?} vs {b:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: the pruned beam lands on the exhaustive basin.
    #[test]
    fn default_pruning_matches_exhaustive_cost(
        x in -1.2f64..1.2,
        y in 0.8f64..2.4,
        alpha in 0.0f64..3.1,
        material_idx in 0usize..8,
        seed in 0u64..1000,
        clutter in proptest::bool::ANY,
    ) {
        let Some((scene, obs)) = observations_for(x, y, alpha, material_idx, seed, clutter)
        else { return Ok(()) };
        let exhaustive = solve_exhaustive(&obs, &scene);
        let pruned = solve(&obs, &scene, None);
        let tol = 1e-6 * (1.0 + exhaustive.cost);
        prop_assert!(
            pruned.cost <= exhaustive.cost + tol,
            "pruned cost {} vs exhaustive {}",
            pruned.cost,
            exhaustive.cost
        );
        prop_assert!(
            pruned.position.distance(exhaustive.position) < 1e-6,
            "pruned position {} vs exhaustive {}",
            pruned.position,
            exhaustive.position
        );
    }

    /// Contract 2a: warm-starting from the solve's own estimate never
    /// worsens the result beyond the gate tolerance.
    #[test]
    fn fresh_warm_start_preserves_the_estimate(
        x in -1.2f64..1.2,
        y in 0.8f64..2.4,
        alpha in 0.0f64..3.1,
        material_idx in 0usize..8,
        seed in 0u64..1000,
        clutter in proptest::bool::ANY,
    ) {
        let Some((scene, obs)) = observations_for(x, y, alpha, material_idx, seed, clutter)
        else { return Ok(()) };
        let cold = solve(&obs, &scene, None);
        let warm = WarmStart::from_estimate(&cold);
        let rewarmed = solve(&obs, &scene, Some(&warm));
        let gate = warm_gate();
        prop_assert!(
            rewarmed.cost <= cold.cost * gate + 1e-9,
            "warm cost {} vs cold {} beyond the gate ×{gate}",
            rewarmed.cost,
            cold.cost
        );
        prop_assert!(
            rewarmed.position.distance(cold.position) < 0.05,
            "warm re-solve moved {} m",
            rewarmed.position.distance(cold.position)
        );
    }

    /// Contract 2b: a teleported (stale) prior must be rejected by the
    /// gate or land on the cold basin anyway — never a worse answer.
    #[test]
    fn teleported_warm_start_never_degrades(
        x in -1.2f64..1.2,
        y in 0.8f64..2.4,
        dx in -2.0f64..2.0,
        dy in -1.5f64..1.5,
        alpha in 0.0f64..3.1,
        seed in 0u64..1000,
    ) {
        // The tag "was" at (x+dx, y+dy) last round but teleported to
        // (x, y); the stale prior carries the old position and a mangled
        // orientation.
        prop_assume!(dx.abs() + dy.abs() > 0.8);
        let Some((scene, obs)) = observations_for(x, y, alpha, 2, seed, false)
        else { return Ok(()) };
        let cold = solve(&obs, &scene, None);
        let stale = WarmStart {
            position: Vec2::new(x + dx, y + dy),
            orientation: (alpha + 1.3) % std::f64::consts::PI,
            kt: cold.kt * 0.5,
            bt: (cold.bt + 2.0) % std::f64::consts::TAU,
        };
        let warmed = solve(&obs, &scene, Some(&stale));
        let gate = warm_gate();
        prop_assert!(
            warmed.cost <= cold.cost * gate + 1e-9,
            "stale prior let cost {} through vs cold {}",
            warmed.cost,
            cold.cost
        );
    }
}

/// Deterministic teleport case: the gate must *miss* (fall back to the
/// cold scan bit-for-bit) for a prior parked far outside the tag's basin,
/// and the fallback must report the miss.
#[test]
fn rejected_prior_falls_back_to_the_cold_scan_bit_for_bit() {
    let (scene, obs) =
        observations_for(0.4, 1.6, 1.1, 3, 31, true).expect("standard scene extracts");
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());

    let mut ws = SolverWorkspace::default();
    let cold = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");

    let stale = WarmStart {
        position: Vec2::new(-2.6, 5.4),
        orientation: 2.9,
        kt: 4.0e-8,
        bt: 0.3,
    };
    let before = ws.prune_stats();
    let warmed =
        solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&stale)).expect("solvable");
    let delta = ws.prune_stats().since(before);

    if delta.warm_start_misses == 1 {
        assert_bit_identical(&cold, &warmed, "gate miss must fall back to the cold scan");
    } else {
        // The gate only accepts a prior that matched the coarse floor; the
        // result must then be at least as good as the cold scan's gate.
        assert_eq!(delta.warm_start_hits, 1);
        assert!(warmed.cost <= cold.cost * warm_gate() + 1e-9);
    }
}

/// One six-antenna 3-D scene: the pruned beam refines at most 16 of the 75
/// seeds and lands on the basin of the oracle's exhaustive scan.
#[test]
fn pruned_3d_matches_the_exhaustive_oracle_on_one_scene() {
    let scene = Scene::six_antenna_3d();
    let dipole = Vec3::new(0.2, 0.5, 1.0).normalized();
    let tag = SimTag::nominal(1)
        .with_motion(Motion::Static { position: Vec3::new(0.8, 1.2, 0.4), dipole });
    let survey = scene.survey(&tag, 2);
    let poses = scene.antenna_poses();
    let obs: Vec<AntennaObservation> = poses
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
        .collect();
    let (region, z_range) = (scene.region(), (0.0, 1.5));

    let config = SolverConfig::default();
    let seeds = Solve3DSeeds::for_scene(region, z_range, &config, &poses);
    let mut ws = Solver3DWorkspace::default();
    let pruned = solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
    let ps = ws.prune_stats();
    assert_eq!(ps.seeds_total, 75);
    assert!(ps.seeds_refined <= 16, "refined {}", ps.seeds_refined);

    let exhaustive_config = Reference3DConfig::exhaustive();
    let oracle_seeds = Reference3DSeeds::for_scene(region, z_range, &exhaustive_config, &poses);
    let mut oracle_ws = Reference3DWorkspace::default();
    let exhaustive = solve_3d_reference(
        &obs, &oracle_seeds, &exhaustive_config, Jacobian::Analytic, &mut oracle_ws, None,
    )
    .unwrap();
    assert!(pruned.position.distance(exhaustive.position) < 1e-6);
    assert!((pruned.cost - exhaustive.cost).abs() <= 1e-6 * (1.0 + exhaustive.cost));
}
