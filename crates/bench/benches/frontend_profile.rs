//! Front-end profile: what one antenna window's DSP front end costs,
//! stage by stage — pre-processing (group, circular-average, π vote,
//! unwrap), the raw OLS fit over the emitted columns, and the robust
//! multipath-rejecting fit — comparing the workspace kernels against the
//! frozen pre-rework allocating implementations in [`rfp_oracle::frontend`]
//! (DESIGN.md §6).
//!
//! Each pool holds distinct windows (every antenna of [`POOL_TAGS`] tags
//! spread over the working region): three densities of the standard 2-D
//! survey, and the benchmark's six-antenna cluttered room, where the
//! robust fit really rejects channels. The timed samples visit a pool's
//! windows in turn, both paths in the same order. Repeating one window
//! would let the branch predictor learn it and flatter whichever path
//! branches more; a survey never shows a window twice.
//!
//! The two paths compute the same observation (the property suite
//! `frontend_workspace` pins them together); the difference is purely
//! data layout and algorithmic discipline: flat SoA per-channel columns
//! reused across windows, fit columns written as the observations are,
//! `select_nth_unstable` medians and an incrementally-downdated refit —
//! versus `BTreeMap` grouping, per-channel `Vec`s, sorting medians and a
//! full refit per rejection round.
//!
//! The `preprocess` stage used to be trig-floor-bound on both paths (four
//! libm calls per read, bit-identity pinning the exact same evaluations).
//! The phase-code tables of [`rfp_dsp::trig`] break that bound: reads that
//! carry their reader code — exactly what the R420 windows here produce —
//! replace the per-read libm calls with bit-identical lookups. The
//! standard window's `preprocess` ratio against the frozen reference is
//! exported as `standard_preprocess_speedup_p50` for the perf gate's ≥2×
//! floor. The fit chain — the fused unwrap+OLS
//! fit plus the robust multipath rejection, the "front end" of Eq. 5 —
//! carries the earlier rework's algorithmic wins and keeps its own floor.
//!
//! Writes a `BENCH_frontend.json` snapshot at the repo root (override the
//! path with `FRONTEND_PROFILE_OUT`); `scripts/bench_gate` regenerates it
//! with `FRONTEND_PROFILE_QUICK=1` and enforces the fused fit chain's and
//! the preprocess stage's ≥2× p50 speedups on the paper's standard
//! windows plus a no-regression check on the end-to-end window ratio.

use rfp_bench::report;
use rfp_dsp::preprocess::{preprocess_reads_with, PreprocessConfig, RawRead};
use rfp_dsp::robust::{robust_line_fit_with, RobustFitConfig};
use rfp_dsp::{FitWorkspace, FrontEndWorkspace};
use rfp_geom::{Vec2, Vec3};
use rfp_obs::JsonValue;
use rfp_oracle::frontend as reference;
use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `FRONTEND_PROFILE_QUICK=1` trims the repeats for the CI perf gate.
fn quick_mode() -> bool {
    std::env::var("FRONTEND_PROFILE_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Tags in each window pool; every tag contributes one window per
/// antenna.
const POOL_TAGS: u64 = 128;

/// (p50, p90) microseconds over `repeats` samples of `sample`, which is
/// handed the index of the next window in the pool and returns the time
/// of the part it measures. Cycling through many distinct windows keeps
/// the branch predictor and caches from learning one window, as they
/// cannot in a real inventory sweep.
fn time_us<F: FnMut(usize) -> Duration>(
    pool: usize,
    mut sample: F,
    warmup: usize,
    repeats: usize,
) -> (f64, f64) {
    for k in 0..warmup {
        sample(k % pool);
    }
    let mut samples: Vec<f64> =
        (0..repeats).map(|k| sample((warmup + k) % pool).as_secs_f64() * 1e6).collect();
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    (samples[samples.len() / 2], samples[samples.len() * 9 / 10])
}

/// Wall time of `f`.
fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// Every antenna's raw reads of [`POOL_TAGS`] static tags surveyed in
/// `scene`, tag `k` placed by `motion(k)`, but for windows too thin to fit
/// a line (an antenna that barely reads a tag, as the pipelines drop it).
fn window_pool(scene: &Scene, motion: impl Fn(u64) -> Motion) -> Vec<Vec<RawRead>> {
    let mut pool = Vec::new();
    for k in 0..POOL_TAGS {
        let tag = SimTag::with_seeded_diversity(k).with_motion(motion(k));
        pool.extend(scene.survey(&tag, 31 + k).per_antenna.into_iter().filter(|reads| {
            reference::preprocess_reads(reads, &PreprocessConfig::default())
                .is_ok_and(|channels| channels.len() >= 2)
        }));
    }
    pool
}

/// The paper-like simulated survey's windows, spread over the working
/// region, with the window density controlled by the reader's
/// reads-per-channel dwell.
fn standard_pool(reads_per_channel: usize) -> Vec<Vec<RawRead>> {
    let scene = Scene::standard_2d();
    let reader = scene.reader().with_reads_per_channel(reads_per_channel);
    let scene = scene.with_reader(reader);
    let (lo, hi) = (scene.region().min(), scene.region().max());
    window_pool(&scene, |k| {
        // A 16 × 8 grid over the region, each tag at its own orientation.
        let (i, j) = ((k % 16) as f64, (k / 16) as f64);
        let position = Vec2::new(
            lo.x + (hi.x - lo.x) * (i + 0.5) / 16.0,
            lo.y + (hi.y - lo.y) * (j + 0.5) / 8.0,
        );
        Motion::planar_static(position, 0.37 * k as f64)
    })
}

/// The benchmark's `cluttered_3d` room: the six-antenna 3-D deployment
/// with the clutter of room 6, where multipath bends whole blocks of
/// channels off the line and the robust fit rejects them.
fn cluttered_pool() -> Vec<Vec<RawRead>> {
    let scene = Scene::six_antenna_3d().with_environment(MultipathEnvironment::cluttered(6, 6));
    let (lo, hi) = (scene.region().min(), scene.region().max());
    window_pool(&scene, |k| {
        // An 8 × 4 × 4 grid over the region and 0.1–1.4 m of height, each
        // tag's dipole on its own direction of the sphere.
        let (i, j, h) = ((k % 8) as f64, ((k / 8) % 4) as f64, (k / 32) as f64);
        let position = Vec3::new(
            lo.x + (hi.x - lo.x) * (i + 0.5) / 8.0,
            lo.y + (hi.y - lo.y) * (j + 0.5) / 4.0,
            0.1 + 1.3 * (h + 0.5) / 4.0,
        );
        let cos_theta = 1.0 - 2.0 * ((k as f64 * 0.618_034) % 1.0);
        let phi = 2.399_963 * k as f64;
        let sin_theta = (1.0 - cos_theta * cos_theta).sqrt();
        let dipole = Vec3::new(sin_theta * phi.cos(), sin_theta * phi.sin(), cos_theta);
        Motion::Static { position, dipole }
    })
}

/// One measured stage: reference vs fused p50/p90 and the p50 ratio.
struct Stage {
    name: &'static str,
    ref_p50: f64,
    ref_p90: f64,
    fused_p50: f64,
    fused_p90: f64,
}

impl Stage {
    fn new(
        name: &'static str,
        (ref_p50, ref_p90): (f64, f64),
        (fused_p50, fused_p90): (f64, f64),
    ) -> Self {
        Stage { name, ref_p50, ref_p90, fused_p50, fused_p90 }
    }

    fn speedup(&self) -> f64 {
        self.ref_p50 / self.fused_p50
    }

    fn json(&self) -> JsonValue {
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        JsonValue::obj(vec![
            ("stage", JsonValue::Str(self.name.into())),
            ("reference_p50_us", JsonValue::Num(round2(self.ref_p50))),
            ("reference_p90_us", JsonValue::Num(round2(self.ref_p90))),
            ("fused_p50_us", JsonValue::Num(round2(self.fused_p50))),
            ("fused_p90_us", JsonValue::Num(round2(self.fused_p90))),
            ("speedup_p50", JsonValue::Num(round2(self.speedup()))),
        ])
    }
}

/// Measures the three front-end stages plus the end-to-end window over
/// one pool of windows, both paths visiting the windows in the same
/// order.
fn profile_pool(pool: &[Vec<RawRead>], warmup: usize, repeats: usize) -> Vec<Stage> {
    let pre = PreprocessConfig::default();
    let robust = RobustFitConfig::default();
    let n = pool.len();

    // Stage inputs shared by both paths: each window's fit columns.
    let columns: Vec<(Vec<f64>, Vec<f64>)> = pool
        .iter()
        .map(|reads| {
            let channels = reference::preprocess_reads(reads, &pre).expect("usable window");
            (
                channels.iter().map(|c| c.frequency_hz).collect(),
                channels.iter().map(|c| c.phase).collect(),
            )
        })
        .collect();
    let mut ws = FrontEndWorkspace::default();
    let mut fit_ws = FitWorkspace::default();
    let mut out = Vec::new();
    rfp_dsp::trig::warm_tables();

    // Pre-processing: group + circular-average + π-fold + unwrap.
    let preprocess = Stage::new(
        "preprocess",
        time_us(
            n,
            |i| {
                timed(|| {
                    let channels = reference::preprocess_reads(black_box(&pool[i]), &pre);
                    black_box(channels.expect("usable"));
                })
            },
            warmup,
            repeats,
        ),
        time_us(
            n,
            |i| {
                timed(|| {
                    preprocess_reads_with(&mut ws, black_box(&pool[i]), &pre, &mut out)
                        .expect("usable");
                    black_box(&out);
                })
            },
            warmup,
            repeats,
        ),
    );

    // Raw fit: column materialization + OLS versus the sums already
    // accumulated during the unwrap (the window's pre-processing runs
    // untimed first).
    let unwrap_fit = Stage::new(
        "unwrap_fit",
        time_us(
            n,
            |i| {
                let channels = reference::preprocess_reads(&pool[i], &pre).expect("usable");
                timed(|| {
                    let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
                    let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
                    black_box(reference::ols(&xs, &ys).expect("fittable"));
                })
            },
            warmup,
            repeats,
        ),
        time_us(
            n,
            |i| {
                preprocess_reads_with(&mut ws, &pool[i], &pre, &mut out).expect("usable");
                timed(|| {
                    black_box(ws.raw_fit().expect("fittable"));
                })
            },
            warmup,
            repeats,
        ),
    );

    // Robust rejection: sorting medians + full refit per round versus
    // banded selection medians + downdated sums.
    let robust_reject = Stage::new(
        "robust_reject",
        time_us(
            n,
            |i| {
                let (xs, ys) = &columns[i];
                timed(|| {
                    black_box(reference::robust_line_fit(xs, ys).expect("fittable"));
                })
            },
            warmup,
            repeats,
        ),
        time_us(
            n,
            |i| {
                let (xs, ys) = &columns[i];
                timed(|| {
                    let fit = robust_line_fit_with(&mut fit_ws, xs, ys, &robust);
                    black_box(fit.expect("fittable"));
                })
            },
            warmup,
            repeats,
        ),
    );

    // End-to-end window: everything an extraction's front end runs — for
    // the frozen reference, the raw OLS fit its extraction also ran; for
    // the workspace, only the pre-processing and the robust fit, since
    // extraction under multipath suppression skips the raw fit.
    let window = Stage::new(
        "window",
        time_us(
            n,
            |i| {
                timed(|| {
                    let channels =
                        reference::preprocess_reads(black_box(&pool[i]), &pre).expect("usable");
                    let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
                    let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
                    black_box(reference::ols(&xs, &ys).expect("fittable"));
                    black_box(reference::robust_line_fit(&xs, &ys).expect("fittable"));
                })
            },
            warmup,
            repeats,
        ),
        time_us(
            n,
            |i| {
                timed(|| {
                    preprocess_reads_with(&mut ws, black_box(&pool[i]), &pre, &mut out)
                        .expect("usable");
                    let (wxs, wys, fit_ws) = ws.fit_columns();
                    black_box(robust_line_fit_with(fit_ws, wxs, wys, &robust).expect("fittable"));
                })
            },
            warmup,
            repeats,
        ),
    );
    vec![preprocess, unwrap_fit, robust_reject, window]
}

fn main() {
    report::header(
        "frontend_profile",
        "per-window DSP front end: fused SoA workspace vs pre-rework allocating path",
    );
    if quick_mode() {
        println!("(quick mode: reduced repeats)");
    }
    let (warmup, repeats) = if quick_mode() { (30, 300) } else { (100, 2000) };

    // Three window densities — a sparse inventory pass, the paper's
    // standard survey and a dense tracking window — and the cluttered
    // room, where the robust fit rejects channels.
    let mut windows: Vec<JsonValue> = Vec::new();
    let mut standard_window_speedup = 0.0f64;
    let mut standard_fit_speedup = 0.0f64;
    let mut standard_preprocess_speedup = 0.0f64;
    for label in ["sparse", "standard", "dense", "cluttered"] {
        let pool = match label {
            "sparse" => standard_pool(2),
            "standard" => standard_pool(8),
            "dense" => standard_pool(24),
            _ => cluttered_pool(),
        };
        let reads = pool.iter().map(Vec::len).sum::<usize>() as f64 / pool.len() as f64;
        report::section(&format!(
            "{label} windows ({} distinct, {reads:.0} reads on average)",
            pool.len()
        ));
        let stages = profile_pool(&pool, warmup, repeats);
        for s in &stages {
            println!(
                "  {:<13} reference p50 {:>7.2} p90 {:>7.2}   fused p50 {:>7.2} p90 {:>7.2}   speedup ×{:.2}",
                s.name,
                s.ref_p50,
                s.ref_p90,
                s.fused_p50,
                s.fused_p90,
                s.speedup()
            );
        }
        // The fit chain (unwrap+OLS fit → robust reject) is the rework's
        // algorithmic target; preprocess carries its own floor.
        let chain: Vec<&Stage> =
            stages.iter().filter(|s| s.name == "unwrap_fit" || s.name == "robust_reject").collect();
        let fit_speedup = chain.iter().map(|s| s.ref_p50).sum::<f64>()
            / chain.iter().map(|s| s.fused_p50).sum::<f64>();
        println!("  fit chain (unwrap_fit + robust_reject) speedup ×{fit_speedup:.2}");
        let window_stage = stages.last().expect("window stage");
        if label == "standard" {
            standard_window_speedup = window_stage.speedup();
            standard_fit_speedup = fit_speedup;
            standard_preprocess_speedup =
                stages.iter().find(|s| s.name == "preprocess").expect("preprocess").speedup();
        }
        windows.push(JsonValue::obj(vec![
            ("window", JsonValue::Str(label.into())),
            ("windows", JsonValue::Num(pool.len() as f64)),
            ("reads", JsonValue::Num(reads.round())),
            ("fit_chain_speedup_p50", JsonValue::Num((fit_speedup * 100.0).round() / 100.0)),
            ("stages", JsonValue::Arr(stages.iter().map(Stage::json).collect())),
        ]));
    }
    println!(
        "\n  standard window: preprocess ×{standard_preprocess_speedup:.2}, \
         fit chain ×{standard_fit_speedup:.2}, end-to-end ×{standard_window_speedup:.2}"
    );

    let value = rfp_obs::report::snapshot(
        "frontend_profile",
        vec![
            (
                "units",
                JsonValue::obj(vec![(
                    "latency",
                    JsonValue::Str("microseconds per antenna window (p50/p90)".into()),
                )]),
            ),
            ("windows", JsonValue::Arr(windows)),
            // Gate metrics: the fit-chain and preprocess ratios are
            // floored at ≥2× by scripts/bench_gate; the end-to-end window
            // p50 is regression-checked against the committed snapshot.
            (
                "standard_fit_speedup_p50",
                JsonValue::Num((standard_fit_speedup * 100.0).round() / 100.0),
            ),
            (
                "standard_preprocess_speedup_p50",
                JsonValue::Num((standard_preprocess_speedup * 100.0).round() / 100.0),
            ),
            (
                "standard_window_speedup_p50",
                JsonValue::Num((standard_window_speedup * 100.0).round() / 100.0),
            ),
        ],
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontend.json");
    let path =
        std::env::var("FRONTEND_PROFILE_OUT").unwrap_or_else(|_| default_path.to_string());
    match rfp_obs::report::write_json(std::path::Path::new(&path), &value) {
        Ok(()) => println!("\nsnapshot written to {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
