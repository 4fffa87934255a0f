//! Continuous-telemetry contract of the streaming engine (compiled only
//! with the `obs` feature): recording each advance under its own recorder
//! and merging them in order loses nothing against one recorder over the
//! whole replay, the latency histograms count one observation per
//! instrumented operation, and the streaming health rules fold to
//! *healthy* over a clean replay.

#![cfg(feature = "obs")]

use rfp_core::obs;
use rfp_core::RfPrism;
use rfp_geom::Vec2;
use rfp_obs::{recorder, JsonValue, MetricKind, Recorder, Registry, TelemetryFrame};
use rfp_sim::{Motion, Scene, SimTag};

/// Drives `rounds` simulated rounds of a clean static tag through one
/// streaming session, running each advance — its pushes, the advance and
/// the recycle — through `tick`. Returns the number of successful
/// advances.
fn replay_rounds(rounds: usize, seed: u64, mut tick: impl FnMut(&mut dyn FnMut())) -> u64 {
    let scene = Scene::standard_2d().with_noise(rfp_sim::NoiseModel::clean());
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let stream = rfp_sim::stream_rounds(&scene, &tag, rounds, seed);
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());

    let mut session = prism.sense_streaming(scene.reader().round_duration_s());
    let mut ok = 0u64;
    for round in &stream {
        tick(&mut || {
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                for read in reads {
                    session.push(antenna, read);
                }
            }
            if let Ok(result) = session.advance(round.end_time_s) {
                ok += 1;
                session.recycle(result);
            }
        });
    }
    ok
}

/// The whole replay under one recorder, and its successful advances.
fn replay_whole(rounds: usize, seed: u64) -> (Recorder, u64) {
    let (ok, rec) =
        recorder::observe(obs::METRICS, || replay_rounds(rounds, seed, |advance| advance()));
    (rec, ok)
}

/// Each advance under a recorder of its own, merged in order into a run
/// recorder as the CLI's telemetry replay does. Returns every advance's
/// registry, the run recorder and the successful advances.
fn replay_per_advance(rounds: usize, seed: u64) -> (Vec<Registry>, Recorder, u64) {
    let mut ticks = Vec::new();
    let mut run = Recorder::new(obs::METRICS);
    let ok = replay_rounds(rounds, seed, |advance| {
        let ((), tick) = recorder::observe(obs::METRICS, advance);
        run.merge_at_current(&tick);
        ticks.push(tick.metrics);
    });
    (ticks, run, ok)
}

/// One recorder per advance, merged in order, agrees with one recorder
/// over the whole replay on every counter, every gauge, every histogram
/// count and the span tree's shape — so a frame stream loses nothing
/// relative to the end-of-run report.
#[test]
fn per_advance_recorders_merge_to_the_whole_replay() {
    let (whole, ok) = replay_whole(6, 17);
    let (ticks, run, ok_per_advance) = replay_per_advance(6, 17);
    assert_eq!(ticks.len(), 6);
    assert!(ok > 0, "clean fixture must produce estimates");
    assert_eq!(ok_per_advance, ok);

    for (idx, def) in obs::METRICS.iter().enumerate() {
        match def.kind {
            MetricKind::Counter => assert_eq!(
                run.metrics.counter(idx),
                whole.metrics.counter(idx),
                "counter {}",
                def.name
            ),
            MetricKind::Gauge => {
                assert_eq!(run.metrics.gauge(idx), whole.metrics.gauge(idx), "gauge {}", def.name)
            }
            MetricKind::Histogram => assert_eq!(
                run.metrics.histogram(idx).unwrap().count(),
                whole.metrics.histogram(idx).unwrap().count(),
                "histogram {} count",
                def.name
            ),
        }
    }
    let shape = |rec: &Recorder| {
        let mut nodes = Vec::new();
        rec.spans.walk(&mut |depth, node| nodes.push((depth, node.name, node.count)));
        nodes
    };
    assert!(!shape(&whole).is_empty());
    assert_eq!(shape(&run), shape(&whole), "span trees differ");
}

/// The advance-latency histogram counts exactly one observation per
/// advance; the extract histogram counts one per antenna extraction (a
/// whole number of antennas per advance).
#[test]
fn latency_histograms_count_instrumented_operations() {
    let (rec, _ok) = replay_whole(5, 23);
    let count = |idx| rec.metrics.histogram(idx).unwrap().count();
    let advances = count(obs::id::STREAMING_ADVANCE_LATENCY_US);
    assert_eq!(advances, 5, "one advance-latency observation per advance");
    let extracts = count(obs::id::STREAMING_EXTRACT_LATENCY_US);
    assert!(extracts >= advances, "every advance extracts at least one antenna");
    assert_eq!(extracts % advances, 0, "extractions come in whole antenna sweeps");
    // Streaming work counters moved (windows update incrementally).
    assert!(rec.metrics.counter(obs::id::STREAMING_UPDATES) > 0);
}

/// Folding the streaming health rules over the per-advance registries of
/// a clean static replay yields *healthy* at every tick, and the verdicts
/// ride in well-formed telemetry frames.
#[test]
fn health_folds_healthy_over_a_clean_replay() {
    let (ticks, _run, _ok) = replay_per_advance(6, 31);
    let mut health = obs::StreamingHealth::default();
    for (k, tick) in ticks.iter().enumerate() {
        let report = health.observe(tick);
        assert_eq!(
            report.verdict,
            rfp_obs::Health::Healthy,
            "tick {k} reasons: {:?}",
            report.reasons
        );
        let frame = TelemetryFrame::from_delta(k as u64, k as u64 + 1, tick, Some(report));
        let line = frame.to_jsonl_line();
        let back = JsonValue::parse(&line).expect("frame parses");
        assert_eq!(back, frame.to_json(), "frame round-trips");
        assert_eq!(back.get("seq").and_then(JsonValue::as_u64), Some(k as u64));
        assert_eq!(back.get("tick").and_then(JsonValue::as_u64), Some(k as u64 + 1));
        let verdict = back.get("health").and_then(|h| h.get("verdict"));
        assert_eq!(verdict.and_then(JsonValue::as_str), Some("healthy"));
        assert!(!line.contains('\n'), "JSONL frames are single lines");
    }
}

/// Two identical replays produce byte-identical frame streams — the
/// per-advance registries carry no wall-clock state into frames
/// (histograms are excluded from frames by construction).
#[test]
fn frame_streams_are_reproducible_across_replays() {
    let frames = |seed| {
        let (ticks, _run, _ok) = replay_per_advance(4, seed);
        ticks
            .iter()
            .enumerate()
            .map(|(k, t)| TelemetryFrame::from_delta(k as u64, k as u64, t, None).to_jsonl_line())
            .collect::<Vec<_>>()
    };
    let a = frames(17);
    let b = frames(17);
    assert_eq!(a, b, "same log, same frames");
    assert!(!a.is_empty());
}
