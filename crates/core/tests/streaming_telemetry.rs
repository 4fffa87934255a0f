//! Continuous-telemetry contract of the streaming engine (compiled only
//! with the `obs` feature): per-advance metric deltas tile the session's
//! end-of-run totals exactly, the latency histograms count one observation
//! per instrumented operation, and the streaming health rules fold to
//! *healthy* over a clean replay.

#![cfg(feature = "obs")]

use rfp_core::obs;
use rfp_core::RfPrism;
use rfp_geom::Vec2;
use rfp_obs::{MetricKind, MetricsSnapshot, TelemetryFrame};
use rfp_sim::{Motion, Scene, SimTag};

/// Drives `rounds` simulated rounds through a streaming session under a
/// fresh recorder, snapshotting a delta after every advance. Returns the
/// deltas, the final cumulative snapshot, the finished recorder, and the
/// number of successful advances.
fn replay_rounds(
    rounds: usize,
    seed: u64,
) -> (Vec<MetricsSnapshot>, MetricsSnapshot, rfp_obs::Recorder, u64) {
    let scene = Scene::standard_2d().with_noise(rfp_sim::NoiseModel::clean());
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let stream = rfp_sim::stream_rounds(&scene, &tag, rounds, seed);
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());

    let mut deltas = Vec::new();
    let mut ok = 0u64;
    let ((), rec) = rfp_obs::recorder::observe(obs::METRICS, || {
        let mut session = prism.sense_streaming(scene.reader().round_duration_s());
        let mut last: Option<MetricsSnapshot> = None;
        for round in &stream {
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                for read in reads {
                    session.push(antenna, read);
                }
            }
            if let Ok(result) = session.advance(round.end_time_s) {
                ok += 1;
                session.recycle(result);
            }
            rfp_obs::recorder::with_current(|r| {
                let snap = r.metrics.snapshot();
                deltas.push(match &last {
                    Some(prev) => snap.delta_since(prev),
                    None => snap.clone(),
                });
                last = Some(snap);
            });
        }
    });
    let total = rec.metrics.snapshot();
    (deltas, total, rec, ok)
}

/// Per-advance deltas merged back together reproduce the cumulative
/// snapshot exactly — counters, gauges *and* histogram buckets — so a
/// frame stream loses nothing relative to the end-of-run report.
#[test]
fn per_advance_deltas_tile_the_session_totals() {
    let (deltas, total, _rec, ok) = replay_rounds(6, 17);
    assert_eq!(deltas.len(), 6);
    assert!(ok > 0, "clean fixture must produce estimates");

    let mut merged = MetricsSnapshot::zero(obs::METRICS);
    for delta in &deltas {
        merged.merge(delta);
    }
    for (idx, def) in obs::METRICS.iter().enumerate() {
        match def.kind {
            MetricKind::Counter => assert_eq!(
                merged.counter(idx),
                total.counter(idx),
                "counter {} does not tile",
                def.name
            ),
            MetricKind::Histogram => {
                let m = merged.histogram(idx).unwrap();
                let t = total.histogram(idx).unwrap();
                assert_eq!(m.count, t.count, "histogram {} count does not tile", def.name);
                assert_eq!(m.buckets, t.buckets, "histogram {} buckets do not tile", def.name);
            }
            // Gauges merge by max and delta by current level; a monotone
            // replay makes the final level the max, so they agree too.
            MetricKind::Gauge => assert_eq!(merged.gauge(idx), total.gauge(idx)),
        }
    }
}

/// The advance-latency histogram counts exactly one observation per
/// advance; the extract histogram counts one per antenna extraction (a
/// whole number of antennas per advance).
#[test]
fn latency_histograms_count_instrumented_operations() {
    let (_deltas, total, _rec, _ok) = replay_rounds(5, 23);
    let advances = total.histogram(obs::id::STREAMING_ADVANCE_LATENCY_US).unwrap().count;
    assert_eq!(advances, 5, "one advance-latency observation per advance");
    let extracts = total.histogram(obs::id::STREAMING_EXTRACT_LATENCY_US).unwrap().count;
    assert!(extracts >= advances, "every advance extracts at least one antenna");
    assert_eq!(extracts % advances, 0, "extractions come in whole antenna sweeps");
    // Streaming work counters moved (windows update incrementally).
    assert!(total.counter(obs::id::STREAMING_UPDATES) > 0);
}

/// Folding the streaming health rules over the per-advance deltas of a
/// clean static replay yields *healthy* at every tick, and the verdicts
/// ride in well-formed telemetry frames.
#[test]
fn health_folds_healthy_over_a_clean_replay() {
    let (deltas, _total, _rec, _ok) = replay_rounds(6, 31);
    let mut evaluator = obs::streaming_health();
    for (k, delta) in deltas.iter().enumerate() {
        let report = evaluator.observe(delta);
        assert_eq!(
            report.verdict,
            rfp_obs::Health::Healthy,
            "tick {k} reasons: {:?}",
            report.reasons
        );
        let frame = TelemetryFrame::from_delta(k as u64, k as u64 + 1, delta, Some(report));
        let line = frame.to_jsonl_line();
        let back = TelemetryFrame::from_json(&line).expect("frame parses");
        assert_eq!(back, frame, "frame round-trips");
        assert!(!line.contains('\n'), "JSONL frames are single lines");
    }
}

/// Two identical replays produce byte-identical frame streams — the
/// deltas carry no wall-clock state (histograms are excluded from frames
/// by construction).
#[test]
fn frame_streams_are_reproducible_across_replays() {
    let frames = |seed| {
        let (deltas, _t, _r, _ok) = replay_rounds(4, seed);
        deltas
            .iter()
            .enumerate()
            .map(|(k, d)| TelemetryFrame::from_delta(k as u64, k as u64, d, None).to_jsonl_line())
            .collect::<Vec<_>>()
    };
    let a = frames(17);
    let b = frames(17);
    assert_eq!(a, b, "same log, same frames");
    assert!(!a.is_empty());
}
