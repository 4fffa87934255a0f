//! Streaming-advance profile: what one sliding-window advance costs
//! through the incremental engine versus a full batch recompute of the
//! same window (DESIGN.md §8).
//!
//! A `StreamingSession` holds per-(antenna, channel) running phasor sums
//! that grow as reads arrive; a channel that loses reads to expiry is
//! re-derived from the reads it keeps. Advancing the window by one reader
//! dwell (the cadence at which new channel data lands) therefore costs
//! the new reads plus the few channels they touch, plus the warm solve,
//! instead of re-running the whole front end over every retained read.
//! The baseline is the production batch path (`RfPrism::sense_reusing`)
//! over the same retained `DEPTH`-round window, warm-started the same
//! way — what a batch engine must pay to emit an estimate at the same
//! cadence — so the ratio isolates exactly what the incremental
//! accumulators save.
//!
//! The scenario is the paper's standard quantized reader: every phasor
//! is resolved by an exact phase-code lookup where the window uses it
//! (the `"table"` row).
//!
//! Built with `--features obs` the bench also measures the cost of
//! *continuous telemetry*: the same steady-state advance loop with the
//! probes inert (no recorder) versus recording (latency histograms and
//! counters live), reported as `obs_overhead_p50`: the mean of the two
//! slice-order groups' median paired differences over the inert p50.
//!
//! Writes a `BENCH_streaming.json` snapshot at the repo root (override
//! with `STREAMING_PROFILE_OUT`); `scripts/bench_gate` regenerates it
//! with `STREAMING_PROFILE_QUICK=1` and enforces the standard row's ≥4×
//! advance speedup and (when present) the ≤5% telemetry overhead.

use rfp_bench::report;
use rfp_core::{RfPrism, RfPrismConfig, SenseWorkspace, WarmStart};
use rfp_geom::Vec2;
use rfp_obs::JsonValue;
use rfp_sim::{stream_rounds, Motion, Scene, SimTag, StreamRound};
use std::hint::black_box;
use std::time::Instant;

/// `STREAMING_PROFILE_QUICK=1` trims the rounds for the CI perf gate.
fn quick_mode() -> bool {
    std::env::var("STREAMING_PROFILE_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() as f64 * q) as usize).min(sorted.len() - 1)]
}

/// The standard scenario's row: the same replayed stream measured
/// through both engines.
struct Row {
    advance_p50: f64,
    advance_p90: f64,
    batch_p50: f64,
    speedup: f64,
    retained_reads: usize,
}

impl Row {
    fn json(&self) -> JsonValue {
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        JsonValue::obj(vec![
            // Phasors come from the phase-code tables.
            ("backend", JsonValue::Str("table".into())),
            ("advance_p50_us", JsonValue::Num(round2(self.advance_p50))),
            ("advance_p90_us", JsonValue::Num(round2(self.advance_p90))),
            ("batch_recompute_p50_us", JsonValue::Num(round2(self.batch_p50))),
            ("advance_speedup_interleaved_p50", JsonValue::Num(round2(self.speedup))),
            ("retained_reads", JsonValue::Num(self.retained_reads as f64)),
        ])
    }
}

/// The standard-window scenario keeps this many hop rounds of history:
/// the window always spans `DEPTH` rounds of retained reads, which is
/// what the batch baseline must recompute on every advance (`O(window)`).
const DEPTH: usize = 4;

/// Streaming advances per hop round: one per reader dwell, the cadence
/// at which new channel data actually lands. Each advance pushes/expires
/// only that dwell's reads (`k ≈ reads-per-dwell × antennas`), so the
/// incremental engine pays `O(k)` where the batch engine pays the full
/// `DEPTH`-round recompute to emit an estimate at the same rate.
const ADVANCES_PER_ROUND: usize = 50;

/// Measures what live telemetry costs the hot path: the same steady-state
/// advance loop with the probes **inert** (obs compiled in but no
/// recorder installed — one thread-local load and a branch per probe)
/// versus **recording** (a recorder installed: histograms timing every
/// advance, counters draining per window).
///
/// The true overhead (well under a microsecond) is far smaller than this
/// container's run-to-run scheduler/thermal drift on a ~40 µs advance, so
/// a plain ratio of two independently-measured p50s is too noisy to gate
/// at 5% — even whole alternating passes leave the paired samples minutes
/// apart. Instead two sessions replay the stream **in lockstep**: every
/// dwell slice times the identical pushes-plus-advance once with the
/// probes inert and once under a persistent recorder, microseconds apart,
/// with the order flipping each slice so cache-warming asymmetry cancels.
///
/// The flip does not cancel inside a median: the second run of a slice
/// replays data the first just warmed, so the paired differences
/// `on_i − off_i` split into two modes by which regime ran first, and
/// the median of all of them sits in the gap between, where a few
/// outliers move it. The gated overhead is therefore the mean
/// of the two slice-order groups' median differences, over `p50_off`:
/// each group's median is well inside its mode, and the mean cancels the
/// ordering offset. The median of all the differences and the pooled
/// per-regime percentiles are reported alongside for context.
#[cfg(feature = "obs")]
fn profile_obs_overhead(
    scene: &Scene,
    config: RfPrismConfig,
    rounds: &[StreamRound],
    warmup: usize,
) -> ObsOverhead {
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region())
        .with_config(config);
    let antennas = scene.antenna_poses().len();
    let span = DEPTH as f64 * scene.reader().round_duration_s();

    // One timed dwell slice: drain reads up to `end_t` into the session,
    // advance, recycle — the same kernel `profile_stream` times, so
    // whatever recorder is (or is not) installed is what gets measured.
    let slice_kernel = |session: &mut rfp_core::StreamingSession,
                        cursors: &mut [usize],
                        round: &StreamRound,
                        end_t: f64,
                        last: bool| {
        let t0 = Instant::now();
        for (antenna, reads) in round.per_antenna.iter().enumerate() {
            let cursor = &mut cursors[antenna];
            while *cursor < reads.len() && (reads[*cursor].timestamp_s < end_t || last) {
                session.push(antenna, &reads[*cursor]);
                *cursor += 1;
            }
        }
        let result = session.advance(black_box(end_t));
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        if let Ok(result) = result {
            black_box(&result.estimate);
            session.recycle(result);
        }
        dt
    };

    let mut sess_off = prism.sense_streaming(span);
    let mut sess_on = prism.sense_streaming(span);
    let mut rec = rfp_obs::Recorder::new(rfp_core::obs::METRICS);
    let mut cursors_off = vec![0usize; antennas];
    let mut cursors_on = vec![0usize; antennas];
    let mut off: Vec<f64> = Vec::new();
    let mut on: Vec<f64> = Vec::new();
    // Paired differences by slice order: probes inert first, recording
    // first.
    let mut diffs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (i, round) in rounds.iter().enumerate() {
        let dwell_s = (round.end_time_s - round.start_time_s) / ADVANCES_PER_ROUND as f64;
        cursors_off.iter_mut().for_each(|c| *c = 0);
        cursors_on.iter_mut().for_each(|c| *c = 0);
        for slice in 0..ADVANCES_PER_ROUND {
            let end_t = round.start_time_s + (slice + 1) as f64 * dwell_s;
            let last = slice + 1 == ADVANCES_PER_ROUND;
            let mut run_on = |rec: rfp_obs::Recorder| {
                rfp_obs::recorder::observe_with(rec, || {
                    slice_kernel(&mut sess_on, &mut cursors_on, round, end_t, last)
                })
            };
            let (dt_off, dt_on) = if slice % 2 == 0 {
                let dt_off = slice_kernel(&mut sess_off, &mut cursors_off, round, end_t, last);
                let (dt_on, r) = run_on(rec);
                rec = r;
                (dt_off, dt_on)
            } else {
                let (dt_on, r) = run_on(rec);
                rec = r;
                (slice_kernel(&mut sess_off, &mut cursors_off, round, end_t, last), dt_on)
            };
            if i >= warmup {
                off.push(dt_off);
                on.push(dt_on);
                diffs[slice % 2].push(dt_on - dt_off);
            }
        }
    }
    let sort = |v: &mut Vec<f64>| v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    sort(&mut off);
    sort(&mut on);
    diffs.iter_mut().for_each(sort);
    let mut all: Vec<f64> = diffs.concat();
    sort(&mut all);
    let p50_off = percentile(&off, 0.5);
    let group_medians = diffs.each_ref().map(|d| percentile(d, 0.5));
    ObsOverhead {
        p50_off,
        p50_on: percentile(&on, 0.5),
        p90_off: percentile(&off, 0.9),
        p90_on: percentile(&on, 0.9),
        order_balanced: (group_medians[0] + group_medians[1]) / 2.0 / p50_off,
        paired_median: percentile(&all, 0.5) / p50_off,
    }
}

/// What [`profile_obs_overhead`] measured: the pooled advance
/// percentiles of each regime (µs) and two overhead statistics, as
/// fractions of `p50_off`.
#[cfg(feature = "obs")]
struct ObsOverhead {
    p50_off: f64,
    p50_on: f64,
    p90_off: f64,
    p90_on: f64,
    /// The mean of the two slice-order groups' median paired differences:
    /// the gated statistic.
    order_balanced: f64,
    /// The median of all the paired differences, which the ordering
    /// splits into two modes (reported, not gated).
    paired_median: f64,
}

/// Replays `rounds` through a streaming session (one timed sample per
/// dwell advance) and through the warm batch path on the same retained
/// windows, both in steady state after `warmup` rounds.
fn profile_stream(scene: &Scene, rounds: &[StreamRound], warmup: usize) -> Row {
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region())
        .with_config(RfPrismConfig::paper());
    let antennas = scene.antenna_poses().len();
    let span = DEPTH as f64 * scene.reader().round_duration_s();

    // Streaming engine: after each dwell lands, push its reads, advance,
    // recycle. The push loop is part of the timed advance — it IS the
    // O(new reads) update work the incremental engine pays.
    //
    // Batch baseline: full front-end recompute over the same retained
    // `DEPTH`-round window, warm-started identically (the solve cost
    // cancels; the front end is the contrast), run after each round's
    // advances so both sides sample the same stretch of time and the
    // box's drift cancels in their ratio. Assembling the window is done
    // outside the timer — the baseline is charged only for the recompute
    // itself, not for buffer management.
    let mut session = prism.sense_streaming(span);
    let mut advance_us: Vec<f64> = Vec::with_capacity(rounds.len() * ADVANCES_PER_ROUND);
    let mut cursors = vec![0usize; antennas];
    let cache = prism.batch_cache();
    let mut ws = SenseWorkspace::default();
    let mut warm: Option<WarmStart> = None;
    let mut batch_us: Vec<f64> = Vec::with_capacity(rounds.len());
    let mut window: Vec<Vec<rfp_dsp::preprocess::RawRead>> = vec![Vec::new(); antennas];
    for (i, round) in rounds.iter().enumerate() {
        let dwell_s =
            (round.end_time_s - round.start_time_s) / ADVANCES_PER_ROUND as f64;
        cursors.iter_mut().for_each(|c| *c = 0);
        for slice in 0..ADVANCES_PER_ROUND {
            let end_t = round.start_time_s + (slice + 1) as f64 * dwell_s;
            let t0 = Instant::now();
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                let cursor = &mut cursors[antenna];
                while *cursor < reads.len()
                    && (reads[*cursor].timestamp_s < end_t
                        || slice + 1 == ADVANCES_PER_ROUND)
                {
                    session.push(antenna, &reads[*cursor]);
                    *cursor += 1;
                }
            }
            let result = session.advance(black_box(end_t));
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            match result {
                Ok(result) => {
                    black_box(&result.estimate);
                    session.recycle(result);
                }
                // The very first round starts from an empty window; until
                // enough channels have been dwelt on there is nothing to
                // fit yet.
                Err(e) => assert_eq!(i, 0, "unusable window: {e}"),
            }
            if i >= warmup {
                advance_us.push(dt);
            }
        }
        for (antenna, buf) in window.iter_mut().enumerate() {
            buf.clear();
            for round in &rounds[i.saturating_sub(DEPTH - 1)..=i] {
                buf.extend_from_slice(&round.per_antenna[antenna]);
            }
        }
        let t0 = Instant::now();
        let result = prism
            .sense_reusing(&cache, black_box(&window), warm.as_ref(), &mut ws)
            .expect("usable window");
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        warm = Some(WarmStart::from_estimate(&result.estimate));
        ws.recycle(result);
        if i >= warmup {
            batch_us.push(dt);
        }
    }
    let retained = session.retained_reads();

    advance_us.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    batch_us.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let advance_p50 = percentile(&advance_us, 0.5);
    let batch_p50 = percentile(&batch_us, 0.5);
    Row {
        advance_p50,
        advance_p90: percentile(&advance_us, 0.9),
        batch_p50,
        speedup: batch_p50 / advance_p50,
        retained_reads: retained,
    }
}

fn main() {
    report::header(
        "streaming_profile",
        "incremental sliding-window advance vs full batch recompute per hop round",
    );
    if quick_mode() {
        println!("(quick mode: reduced rounds)");
    }
    let (warmup, measured) = if quick_mode() { (10, 120) } else { (25, 600) };
    let n_rounds = warmup + measured;
    let tag = SimTag::with_seeded_diversity(3)
        .with_motion(Motion::planar_static(Vec2::new(0.4, 1.5), 0.9));

    // Standard scenario: the paper's quantized R420 reader; phasors come
    // from the exact phase-code tables.
    let scene = Scene::standard_2d();
    let rounds = stream_rounds(&scene, &tag, n_rounds, 31);
    let standard = profile_stream(&scene, &rounds, warmup);

    // Telemetry overhead on the standard scenario: obs probes inert vs a
    // live recorder, same binary, same stream (feature-gated — without
    // `--features obs` there are no probes to measure).
    #[cfg(feature = "obs")]
    let obs_overhead = {
        let o = profile_obs_overhead(&scene, RfPrismConfig::paper(), &rounds, warmup);
        println!(
            "  obs        advance p50 {:>7.2} → {:>7.2} with recorder \
             ({:+.1}% p50 order-balanced, {:+.1}% p50 paired median, {:+.1}% p90 pooled)",
            o.p50_off,
            o.p50_on,
            o.order_balanced * 100.0,
            o.paired_median * 100.0,
            (o.p90_on / o.p90_off - 1.0) * 100.0,
        );
        let round4 = |x: f64| (x * 1e4).round() / 1e4;
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        Some((
            round4(o.order_balanced),
            JsonValue::obj(vec![
                ("advance_p50_us_off", JsonValue::Num(round2(o.p50_off))),
                ("advance_p50_us_on", JsonValue::Num(round2(o.p50_on))),
                ("advance_p90_us_off", JsonValue::Num(round2(o.p90_off))),
                ("advance_p90_us_on", JsonValue::Num(round2(o.p90_on))),
                ("overhead_p50", JsonValue::Num(round4(o.order_balanced))),
                ("overhead_p50_paired_median", JsonValue::Num(round4(o.paired_median))),
                ("overhead_p90", JsonValue::Num(round4(o.p90_on / o.p90_off - 1.0))),
            ]),
        ))
    };

    println!(
        "  table      advance p50 {:>7.2} p90 {:>7.2}   batch p50 {:>7.2}   speedup ×{:.2}   \
         ({} retained reads)",
        standard.advance_p50,
        standard.advance_p90,
        standard.batch_p50,
        standard.speedup,
        standard.retained_reads,
    );

    let mut fields = vec![
        (
            "units",
            JsonValue::obj(vec![(
                "latency",
                JsonValue::Str("microseconds per whole-tag window advance (p50/p90)".into()),
            )]),
        ),
        // Gate metric: the standard (quantized-reader) row's amortized
        // advance must stay ≥4× under the batch recompute.
        (
            "advance_speedup_interleaved_p50",
            JsonValue::Num((standard.speedup * 100.0).round() / 100.0),
        ),
    ];
    // Second gate metric, present only when the probes are compiled in:
    // recording telemetry must cost ≤5% advance p50 over inert probes (the
    // order-balanced statistic of `profile_obs_overhead`).
    #[cfg(feature = "obs")]
    if let Some((overhead_p50, detail)) = obs_overhead {
        fields.push(("obs_overhead_p50", JsonValue::Num(overhead_p50)));
        fields.push(("obs", detail));
    }
    fields.push(("rows", JsonValue::Arr(vec![standard.json()])));
    let value = rfp_obs::report::snapshot("streaming_profile", fields);
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    let path =
        std::env::var("STREAMING_PROFILE_OUT").unwrap_or_else(|_| default_path.to_string());
    match rfp_obs::report::write_json(std::path::Path::new(&path), &value) {
        Ok(()) => println!("\nsnapshot written to {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
