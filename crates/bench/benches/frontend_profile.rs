//! Front-end profile: what one antenna window's DSP front end costs,
//! stage by stage — pre-processing (group, circular-average, π-fold,
//! unwrap), the fused unwrap+OLS raw fit, and the robust
//! multipath-rejecting fit — comparing the workspace kernels against the
//! frozen pre-rework allocating implementations in [`rfp_oracle::frontend`]
//! (DESIGN.md §6).
//!
//! The two paths compute the same observation (the property suite
//! `frontend_workspace` pins them together); the difference is purely
//! data layout and algorithmic discipline: flat SoA per-channel columns
//! reused across windows, raw-fit sums accumulated during the unwrap,
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
//! with `FRONTEND_PROFILE_QUICK=1` and enforces the fused fit chain's ≥2×
//! p50 speedup on the paper's standard window plus a no-regression check
//! on the end-to-end window latency.

use rfp_bench::report;
use rfp_dsp::preprocess::{preprocess_reads_with, PreprocessConfig, RawRead};
use rfp_dsp::robust::{robust_line_fit_with, RobustFitConfig};
use rfp_dsp::FrontEndWorkspace;
use rfp_geom::Vec2;
use rfp_obs::JsonValue;
use rfp_oracle::frontend as reference;
use rfp_sim::{Motion, Scene, SimTag};
use std::hint::black_box;
use std::time::Instant;

/// `FRONTEND_PROFILE_QUICK=1` trims the repeats for the CI perf gate.
fn quick_mode() -> bool {
    std::env::var("FRONTEND_PROFILE_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// (p50, p90) microseconds over `repeats` timed runs of `f`.
fn time_us<F: FnMut()>(mut f: F, warmup: usize, repeats: usize) -> (f64, f64) {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    (samples[samples.len() / 2], samples[samples.len() * 9 / 10])
}

/// One antenna's raw reads from the paper-like simulated survey, with the
/// window density controlled by the reader's reads-per-channel dwell.
fn window_reads(reads_per_channel: usize) -> Vec<RawRead> {
    let scene = Scene::standard_2d();
    let reader = scene.reader().with_reads_per_channel(reads_per_channel);
    let scene = scene.with_reader(reader);
    let tag = SimTag::with_seeded_diversity(3)
        .with_motion(Motion::planar_static(Vec2::new(0.4, 1.5), 0.9));
    let survey = scene.survey(&tag, 31);
    survey.per_antenna.into_iter().next().expect("antenna 0")
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

/// Measures the three front-end stages plus the end-to-end window for one
/// read density.
fn profile_window(reads: &[RawRead], warmup: usize, repeats: usize) -> Vec<Stage> {
    let pre = PreprocessConfig::default();
    let robust = RobustFitConfig::default();

    // Stage inputs shared by both paths.
    let channels = reference::preprocess_reads(reads, &pre).expect("usable window");
    let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
    let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    preprocess_reads_with(&mut ws, reads, &pre, &mut out).expect("usable window");

    let mut stages = Vec::new();

    // Pre-processing: group + circular-average + π-fold + unwrap.
    rfp_dsp::trig::warm_tables();
    let (rp50, rp90) = time_us(
        || {
            black_box(reference::preprocess_reads(black_box(reads), &pre).expect("usable"));
        },
        warmup,
        repeats,
    );
    let (fp50, fp90) = time_us(
        || {
            preprocess_reads_with(&mut ws, black_box(reads), &pre, &mut out).expect("usable");
            black_box(&out);
        },
        warmup,
        repeats,
    );
    stages.push(Stage {
        name: "preprocess",
        ref_p50: rp50,
        ref_p90: rp90,
        fused_p50: fp50,
        fused_p90: fp90,
    });

    // Raw fit: column materialization + OLS versus the sums already
    // accumulated during the unwrap.
    let (rp50, rp90) = time_us(
        || {
            let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
            let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
            black_box(reference::ols(&xs, &ys).expect("fittable"));
        },
        warmup,
        repeats,
    );
    let (fp50, fp90) = time_us(
        || {
            black_box(ws.raw_fit().expect("fittable"));
        },
        warmup,
        repeats,
    );
    stages.push(Stage {
        name: "unwrap_fit",
        ref_p50: rp50,
        ref_p90: rp90,
        fused_p50: fp50,
        fused_p90: fp90,
    });

    // Robust rejection: sorting medians + full refit per round versus
    // selection medians + downdated sums.
    let (rp50, rp90) = time_us(
        || {
            black_box(reference::robust_line_fit(&xs, &ys, &robust).expect("fittable"));
        },
        warmup,
        repeats,
    );
    let (fp50, fp90) = {
        let (wxs, wys, fit_ws) = ws.fit_columns();
        time_us(
            || {
                black_box(robust_line_fit_with(fit_ws, wxs, wys, &robust).expect("fittable"));
            },
            warmup,
            repeats,
        )
    };
    stages.push(Stage {
        name: "robust_reject",
        ref_p50: rp50,
        ref_p90: rp90,
        fused_p50: fp50,
        fused_p90: fp90,
    });

    // End-to-end window: everything an extraction's front end runs.
    let (rp50, rp90) = time_us(
        || {
            let channels =
                reference::preprocess_reads(black_box(reads), &pre).expect("usable");
            let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
            let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
            black_box(reference::ols(&xs, &ys).expect("fittable"));
            black_box(reference::robust_line_fit(&xs, &ys, &robust).expect("fittable"));
        },
        warmup,
        repeats,
    );
    let (fp50, fp90) = time_us(
        || {
            preprocess_reads_with(&mut ws, black_box(reads), &pre, &mut out).expect("usable");
            black_box(ws.raw_fit().expect("fittable"));
            let (wxs, wys, fit_ws) = ws.fit_columns();
            black_box(robust_line_fit_with(fit_ws, wxs, wys, &robust).expect("fittable"));
        },
        warmup,
        repeats,
    );
    stages.push(Stage {
        name: "window",
        ref_p50: rp50,
        ref_p90: rp90,
        fused_p50: fp50,
        fused_p90: fp90,
    });
    stages
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

    // Three window densities: a sparse inventory pass, the paper's
    // standard survey and a dense tracking window.
    let mut windows: Vec<JsonValue> = Vec::new();
    let mut standard_window_speedup = 0.0f64;
    let mut standard_fit_speedup = 0.0f64;
    let mut standard_preprocess_speedup = 0.0f64;
    for (label, reads_per_channel) in [("sparse", 2usize), ("standard", 8), ("dense", 24)] {
        let reads = window_reads(reads_per_channel);
        report::section(&format!("{label} window ({} reads)", reads.len()));
        let stages = profile_window(&reads, warmup, repeats);
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
            ("reads", JsonValue::Num(reads.len() as f64)),
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
