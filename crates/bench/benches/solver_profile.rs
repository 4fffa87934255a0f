//! Solver profile: what one disentangling solve costs, what the analytic
//! Jacobian buys over a numeric one, and what warm starts buy over a cold
//! solve (DESIGN.md §6).
//!
//! For the 2-D (5-parameter) and 3-D (7-parameter) solves this reports,
//! per configuration, the single-solve p50 latency and the LM work
//! counters ([`SolveStats`]): residual-vector evaluations, Jacobian
//! evaluations and iterations. The numeric core charges its
//! central-difference sweeps (2 per parameter per iteration) to
//! `residual_evals` — exactly the cost the fused analytic evaluation
//! removes — and the seed accounting ([`PruneStats`]) shows how many
//! multi-start seeds each configuration actually refined, and how many
//! stage-1 candidates it dropped as duplicates of a kept basin.
//!
//! Three configurations per dimension:
//!
//! * `analytic`  — the solver: analytic Jacobian, pruned seed beam;
//! * `numeric`   — the frozen oracle (`rfp_oracle::solver`) with its
//!   numeric Jacobian, pruned seed beam; the oracle keeps LM work counters
//!   but no seed or λ-retry tallies, so those read 0 in this row;
//! * `warm`      — the solver warm-started from the previous solve's
//!   estimate (the steady-state regime of a live deployment).
//!
//! Each entry also carries the damped-step counters ([`StepStats`]): λ
//! retries beyond each iteration's first attempt and Cholesky rejections.
//!
//! A fifth timing per dimension, `reference`, runs the frozen pre-lane
//! oracle with its analytic Jacobian cold on the same observations in the
//! same process, yielding the same-run ratios `lane_speedup_p50` /
//! `lane_speedup_min` — what the const-generic lane core buys over the
//! twin scalar solvers it replaced, with CPU steal cancelled. The
//! refine-everything scan exists only in the oracle, which runs it per
//! dimension for the seed-pruning work check only (not reported).
//!
//! Writes a `BENCH_solver.json` snapshot at the repo root (override the
//! path with `SOLVER_PROFILE_OUT`) so the solver perf trajectory is
//! recorded PR over PR; `scripts/bench_gate` regenerates it with
//! `SOLVER_PROFILE_QUICK=1` (fewer repeats) and fails CI on regression.

use rfp_bench::report;
use rfp_core::lm::StepStats;
use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig};
use rfp_core::solver::{
    solve_2d_seeded_warm, PruneStats, SolveSeeds, SolveStats, SolverConfig, SolverWorkspace,
    WarmStart,
};
use rfp_core::solver3d::{solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace, WarmStart3D};
use rfp_geom::Vec2;
use rfp_obs::JsonValue;
use rfp_oracle::solver::{
    solve_2d_reference, solve_3d_reference, Jacobian, Reference2DConfig, Reference2DSeeds,
    Reference2DWorkspace, Reference3DConfig, Reference3DSeeds, Reference3DWorkspace,
};
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};
use std::hint::black_box;
use std::time::Instant;

/// One profiled configuration: p50 and floor latency plus per-solve work
/// counters. The floor (fastest sample) is what the CI gate compares —
/// CPU steal on a loaded box only ever *inflates* samples, so the
/// minimum is the steal-robust latency estimate, while p50 stays the
/// honest headline number for reports.
#[derive(Debug, Clone, Copy)]
struct Profile {
    p50_us: f64,
    min_us: f64,
    stats: SolveStats,
    prune: PruneStats,
    steps: StepStats,
}

/// `SOLVER_PROFILE_QUICK=1` trims the repeat counts so the CI perf gate
/// finishes in seconds; the gate compares the floor latency (`min_us`),
/// which stays stable at reduced repeat counts even on a loaded box.
fn quick_mode() -> bool {
    std::env::var("SOLVER_PROFILE_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Times `solve` over `repeats` runs (after `warmup` unrecorded runs) and
/// returns the p50 latency with the per-solve counters of the final run.
fn profile<F>(mut solve: F, warmup: usize, repeats: usize) -> Profile
where
    F: FnMut() -> (SolveStats, PruneStats, StepStats),
{
    for _ in 0..warmup {
        solve();
    }
    let mut samples_us = Vec::with_capacity(repeats);
    let mut stats = SolveStats::default();
    let mut prune = PruneStats::default();
    let mut steps = StepStats::default();
    for _ in 0..repeats {
        let t0 = Instant::now();
        (stats, prune, steps) = solve();
        samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    Profile {
        p50_us: samples_us[samples_us.len() / 2],
        min_us: samples_us[0],
        stats,
        prune,
        steps,
    }
}

fn observations_2d(scene: &Scene) -> Vec<AntennaObservation> {
    let tag = SimTag::with_seeded_diversity(7)
        .attached_to(Material::Glass)
        .with_motion(Motion::planar_static(Vec2::new(0.45, 1.55), 0.7));
    let survey = scene.survey(&tag, 41);
    scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).expect("usable"))
        .collect()
}

fn observations_3d(scene: &Scene) -> Vec<AntennaObservation> {
    let tag = SimTag::with_seeded_diversity(11)
        .attached_to(Material::Wood)
        .with_motion(Motion::Static {
            position: rfp_geom::Vec3::new(0.8, 1.3, 0.6),
            dipole: rfp_geom::Vec3::new(0.6, 0.3, 0.8).normalized(),
        });
    let survey = scene.survey(&tag, 43);
    scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).expect("usable"))
        .collect()
}

/// Profiles the 2-D solve; `warm_from_self` re-seeds each solve from its
/// own converged estimate (the steady-state warm-start regime).
fn profile_2d(warm_from_self: bool) -> Profile {
    let config = SolverConfig::default();
    let scene = Scene::standard_2d();
    let obs = observations_2d(&scene);
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = SolverWorkspace::default();
    let warm = warm_from_self.then(|| {
        let est = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
        WarmStart::from_estimate(&est)
    });
    let (warmup, repeats) = if quick_mode() { (5, 50) } else { (20, 200) };
    profile(
        || {
            let (s0, p0, t0) = (ws.stats(), ws.prune_stats(), ws.step_stats());
            black_box(
                solve_2d_seeded_warm(black_box(&obs), &seeds, &config, &mut ws, warm.as_ref())
                    .expect("solvable"),
            );
            (ws.stats().since(s0), ws.prune_stats().since(p0), ws.step_stats().since(t0))
        },
        warmup,
        repeats,
    )
}

/// Profiles the 3-D solve (see [`profile_2d`]).
fn profile_3d(warm_from_self: bool) -> Profile {
    let config = SolverConfig::default();
    let scene = Scene::six_antenna_3d();
    let obs = observations_3d(&scene);
    let seeds =
        Solve3DSeeds::for_scene(scene.region(), (0.0, 1.5), &config, &scene.antenna_poses());
    let mut ws = Solver3DWorkspace::default();
    let warm = warm_from_self.then(|| {
        let est = solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
        WarmStart3D::from_estimate(&est)
    });
    let (warmup, repeats) = if quick_mode() { (2, 20) } else { (5, 60) };
    profile(
        || {
            let (s0, p0, t0) = (ws.stats(), ws.prune_stats(), ws.step_stats());
            black_box(
                solve_3d_seeded_warm(black_box(&obs), &seeds, &config, &mut ws, warm.as_ref())
                    .expect("solvable"),
            );
            (ws.stats().since(s0), ws.prune_stats().since(p0), ws.step_stats().since(t0))
        },
        warmup,
        repeats,
    )
}

/// Times the frozen 2-D oracle with `jacobian`, cold, on the same scene
/// as [`profile_2d`]. The oracle keeps only the LM work counters
/// (deliberately — it predates the seed and λ-retry telemetry).
fn profile_2d_reference(config: &Reference2DConfig, jacobian: Jacobian) -> Profile {
    let scene = Scene::standard_2d();
    let obs = observations_2d(&scene);
    let seeds = Reference2DSeeds::for_scene(scene.region(), config, &scene.antenna_poses());
    let mut ws = Reference2DWorkspace::default();
    let (warmup, repeats) = if quick_mode() { (5, 50) } else { (20, 200) };
    profile(
        || {
            let s0 = ws.stats();
            black_box(
                solve_2d_reference(black_box(&obs), &seeds, config, jacobian, &mut ws, None)
                    .expect("solvable"),
            );
            (ws.stats().since(s0), PruneStats::default(), StepStats::default())
        },
        warmup,
        repeats,
    )
}

/// Times the frozen 3-D oracle cold (see [`profile_2d_reference`]).
fn profile_3d_reference(config: &Reference3DConfig, jacobian: Jacobian) -> Profile {
    let scene = Scene::six_antenna_3d();
    let obs = observations_3d(&scene);
    let seeds =
        Reference3DSeeds::for_scene(scene.region(), (0.0, 1.5), config, &scene.antenna_poses());
    let mut ws = Reference3DWorkspace::default();
    let (warmup, repeats) = if quick_mode() { (2, 20) } else { (5, 60) };
    profile(
        || {
            let s0 = ws.stats();
            black_box(
                solve_3d_reference(black_box(&obs), &seeds, config, jacobian, &mut ws, None)
                    .expect("solvable"),
            );
            (ws.stats().since(s0), PruneStats::default(), StepStats::default())
        },
        warmup,
        repeats,
    )
}

fn print_rows(label: &str, rows: &[(&str, Profile)]) {
    report::section(label);
    for (name, p) in rows {
        println!(
            "  {name:<10} p50 {:>9.1} µs   residual evals {:>6}   jacobian evals {:>5}   iterations {:>5}   seeds {:>3}/{:<3}   stage-1 duplicates {:>2}",
            p.p50_us,
            p.stats.residual_evals,
            p.stats.jacobian_evals,
            p.stats.iterations,
            p.prune.seeds_refined,
            p.prune.seeds_total,
            p.prune.stage1_duplicates,
        );
    }
}

fn json_entry(p: Profile) -> JsonValue {
    JsonValue::obj(vec![
        ("p50_us", JsonValue::Num((p.p50_us * 100.0).round() / 100.0)),
        ("min_us", JsonValue::Num((p.min_us * 100.0).round() / 100.0)),
        ("residual_evals", JsonValue::Num(p.stats.residual_evals as f64)),
        ("jacobian_evals", JsonValue::Num(p.stats.jacobian_evals as f64)),
        ("iterations", JsonValue::Num(p.stats.iterations as f64)),
        ("seeds_total", JsonValue::Num(p.prune.seeds_total as f64)),
        ("seeds_refined", JsonValue::Num(p.prune.seeds_refined as f64)),
        ("warm_start_hits", JsonValue::Num(p.prune.warm_start_hits as f64)),
        ("lambda_retries", JsonValue::Num(p.steps.lambda_retries as f64)),
        ("chol_failures", JsonValue::Num(p.steps.chol_failures as f64)),
    ])
}

/// One dimension's profiles: the pruned analytic solver (`analytic`), the
/// oracle's pruned numeric solve and the warm-started steady state.
#[derive(Clone, Copy)]
struct DimProfiles {
    analytic: Profile,
    numeric: Profile,
    warm: Profile,
    /// The frozen pre-lane oracle, cold, same run — latencies only.
    reference: Profile,
}

fn dim_json(d: DimProfiles) -> JsonValue {
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    JsonValue::obj(vec![
        ("analytic", json_entry(d.analytic)),
        ("numeric", json_entry(d.numeric)),
        ("warm", json_entry(d.warm)),
        (
            "reference",
            JsonValue::obj(vec![
                ("p50_us", JsonValue::Num(round2(d.reference.p50_us))),
                ("min_us", JsonValue::Num(round2(d.reference.min_us))),
            ]),
        ),
        (
            "lane_speedup_p50",
            JsonValue::Num(round2(d.reference.p50_us / d.analytic.p50_us)),
        ),
        (
            "lane_speedup_min",
            JsonValue::Num(round2(d.reference.min_us / d.analytic.min_us)),
        ),
        ("p50_speedup", JsonValue::Num(round2(d.numeric.p50_us / d.analytic.p50_us))),
        (
            "residual_eval_ratio",
            JsonValue::Num(round2(
                d.numeric.stats.residual_evals as f64 / d.analytic.stats.residual_evals as f64,
            )),
        ),
    ])
}

fn write_snapshot(d2: DimProfiles, d3: DimProfiles) {
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    let path = std::env::var("SOLVER_PROFILE_OUT").unwrap_or_else(|_| default_path.to_string());
    let value = rfp_obs::report::snapshot(
        "solver_profile",
        vec![
            (
                "units",
                JsonValue::obj(vec![
                    (
                        "latency",
                        JsonValue::Str(
                            "microseconds (single-solve p50 + floor; the gate compares floors)"
                                .into(),
                        ),
                    ),
                    ("counters", JsonValue::Str("per solve, all LM starts".into())),
                ]),
            ),
            ("solve_2d", dim_json(d2)),
            ("solve_3d", dim_json(d3)),
        ],
    );
    match rfp_obs::report::write_json(std::path::Path::new(&path), &value) {
        Ok(()) => println!("\nsnapshot written to {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

fn main() {
    report::header(
        "solver_profile",
        "single-solve cost: Jacobian mode × seed pruning × warm starts",
    );
    if quick_mode() {
        println!("(quick mode: reduced repeats)");
    }

    let d2 = DimProfiles {
        analytic: profile_2d(false),
        numeric: profile_2d_reference(&Reference2DConfig::default(), Jacobian::Numeric),
        warm: profile_2d(true),
        reference: profile_2d_reference(&Reference2DConfig::default(), Jacobian::Analytic),
    };
    print_rows(
        "2-D (5 parameters, 3 antennas)",
        &[("analytic", d2.analytic), ("numeric", d2.numeric), ("warm", d2.warm)],
    );

    let d3 = DimProfiles {
        analytic: profile_3d(false),
        numeric: profile_3d_reference(&Reference3DConfig::default(), Jacobian::Numeric),
        warm: profile_3d(true),
        reference: profile_3d_reference(&Reference3DConfig::default(), Jacobian::Analytic),
    };
    print_rows(
        "3-D (7 parameters, 6 antennas)",
        &[("analytic", d3.analytic), ("numeric", d3.numeric), ("warm", d3.warm)],
    );

    for (dim, d) in [("2-D", d2), ("3-D", d3)] {
        println!(
            "  {dim} speedups: numeric/analytic ×{:.2}   cold/warm ×{:.2}",
            d.numeric.p50_us / d.analytic.p50_us,
            d.analytic.p50_us / d.warm.p50_us,
        );
        println!(
            "  {dim} lane core vs frozen oracle: reference p50 {:.1} µs → lanes {:.1} µs (×{:.2} p50, ×{:.2} floor)",
            d.reference.p50_us,
            d.analytic.p50_us,
            d.reference.p50_us / d.analytic.p50_us,
            d.reference.min_us / d.analytic.min_us,
        );
    }

    write_snapshot(d2, d3);

    // The headline claim of the analytic path: at least 2× fewer residual
    // evaluations per solve, in both dimensions.
    assert!(
        d2.analytic.stats.residual_evals * 2 <= d2.numeric.stats.residual_evals,
        "2-D analytic {} evals vs numeric {}",
        d2.analytic.stats.residual_evals,
        d2.numeric.stats.residual_evals
    );
    assert!(
        d3.analytic.stats.residual_evals * 2 <= d3.numeric.stats.residual_evals,
        "3-D analytic {} evals vs numeric {}",
        d3.analytic.stats.residual_evals,
        d3.numeric.stats.residual_evals
    );
    // And the headline claim of seed pruning: the solver does at most half
    // the LM work of the oracle's exhaustive scan, in both dimensions.
    // Asserted on the deterministic iteration counters, not wall time — a
    // loaded single-core CI box jitters p50 across the 2× line while the
    // work counters never move (the wall-clock trajectory is enforced
    // separately by `scripts/bench_gate` against the committed snapshot).
    let exhaustive = [
        profile_2d_reference(&Reference2DConfig::exhaustive(), Jacobian::Analytic),
        profile_3d_reference(&Reference3DConfig::exhaustive(), Jacobian::Analytic),
    ];
    for ((dim, d), exhaustive) in [("2-D", d2), ("3-D", d3)].into_iter().zip(exhaustive) {
        assert!(
            d.analytic.stats.iterations * 2 <= exhaustive.stats.iterations,
            "{dim} pruned ran {} LM iterations vs exhaustive {} — pruning must halve the work",
            d.analytic.stats.iterations,
            exhaustive.stats.iterations
        );
        assert!(
            d.warm.prune.warm_start_hits > 0,
            "{dim} warm profile never hit the warm-start gate"
        );
    }
}
