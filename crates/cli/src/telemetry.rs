//! Continuous-telemetry replay: drive a survey log through the streaming
//! engine and emit periodic [`TelemetryFrame`] JSONL records.
//!
//! The driver replays each tag's reads — all antennas merged back into
//! arrival order — through its own [`rfp_core::StreamingSession`], calling
//! `advance` once per `every` reads. Each tick (its pushes and its
//! advance) records under a fresh [`Recorder`], whose [`Registry`] is the
//! tick's delta; the tick then folds into the tag's run recorder with
//! [`Recorder::merge_at_current`], as batch workers fold into theirs. The
//! coordinator merges tick *k*'s registries across tags in tag-id order.
//! Because ticks are counted in reads processed (never wall clock) and the
//! merge order is fixed, replaying the same log produces **byte-identical
//! frames at any `--jobs` value** — wall-clock histograms are excluded
//! from frames by [`TelemetryFrame::from_delta`] for exactly this reason.
//!
//! Health folds on the coordinator: the merged tick runs through
//! [`rfp_core::obs::StreamingHealth`], and the resulting verdict rides in
//! the frame. The stale-tags gauge is likewise a coordinator derivation: a
//! tag is *stale* at tick `k` when its tick attempted a window
//! (`pipeline.windows_total > 0`) but produced no estimate
//! (`pipeline.windows_ok == 0`).

use crate::commands::CommandError;
use crate::log::SurveyLog;
use rfp_core::batch::fan_out;
use rfp_core::obs as pobs;
use rfp_core::RfPrism;
use rfp_dsp::preprocess::RawRead;
use rfp_geom::Vec2;
use rfp_obs::{recorder, Recorder, Registry, RunReport, TelemetryFrame};
use std::fmt::Write as _;

/// Knobs for a telemetry replay.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Worker threads replaying tag sessions (`0` = one per CPU).
    pub jobs: usize,
    /// Reads per tag between advances — the deterministic tick size.
    pub every: usize,
    /// Sliding-window span in seconds (`<= 0` retains every read).
    pub window_s: f64,
    /// Fold the streaming health rules over each merged tick.
    pub health: bool,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions { jobs: 1, every: 64, window_s: 0.0, health: false }
    }
}

/// Everything one replay produces, split by sink.
pub struct TelemetryRun {
    /// One JSONL line per tick, already serialized (byte-stable).
    pub frames: Vec<String>,
    /// Human-readable per-tag table plus a footer (byte-stable).
    pub summary: String,
    /// The merged end-of-run report (has wall-clock timings — *not*
    /// byte-stable; feed it to `--prom`, not to diffs).
    pub report: RunReport,
}

/// One tag's finished replay, returned by a worker.
struct TagReplay {
    /// Each tick's registry, in tick order.
    ticks: Vec<Registry>,
    /// The tag session's whole recorder (metrics + spans): every tick
    /// merged in order.
    rec: Recorder,
    /// Total reads replayed.
    reads: usize,
    /// Advances that produced an estimate.
    ok: u64,
    /// Last successful estimate's position.
    last_pos: Option<Vec2>,
}

/// Replays `log_text` and renders every sink.
///
/// # Errors
///
/// [`CommandError::Log`] on a malformed log, [`CommandError::Usage`] when
/// `every` is zero.
pub fn replay(log_text: &str, opts: &TelemetryOptions) -> Result<TelemetryRun, CommandError> {
    if opts.every == 0 {
        return Err(CommandError::Usage("--every must be at least 1".into()));
    }
    let log = SurveyLog::from_text(log_text)?;
    let prism = RfPrism::new(log.poses.clone(), log.plan);
    let window_s = if opts.window_s > 0.0 { opts.window_s } else { f64::INFINITY };

    // Merge each tag's per-antenna reads back into arrival order. The sort
    // is stable, so reads sharing a timestamp keep antenna-then-log order
    // and the sequence is a pure function of the log text.
    let sequences: Vec<Vec<(usize, RawRead)>> = log
        .tags
        .values()
        .map(|record| {
            let mut seq: Vec<(usize, RawRead)> = record
                .per_antenna
                .iter()
                .enumerate()
                .flat_map(|(antenna, reads)| reads.iter().map(move |r| (antenna, *r)))
                .collect();
            seq.sort_by(|a, b| a.1.timestamp_s.total_cmp(&b.1.timestamp_s));
            seq
        })
        .collect();

    // The batch engine's pool returns the replays in tag order, so nothing
    // downstream depends on completion order.
    let replays: Vec<TagReplay> =
        fan_out("telemetry_replay", &sequences, opts.jobs, || (), |sequence, ()| {
            replay_tag(&prism, sequence, opts.every, window_s)
        });

    // Coordinator: merge tick k across tags (tag-id order), derive the
    // stale-tags gauge, fold health, emit one frame per tick.
    let max_ticks = replays.iter().map(|r| r.ticks.len()).max().unwrap_or(0);
    let mut evaluator = opts.health.then(pobs::StreamingHealth::default);
    let mut worst = rfp_obs::Health::Healthy;
    let mut frames = Vec::with_capacity(max_ticks);
    for k in 0..max_ticks {
        let mut merged = Registry::new(pobs::METRICS);
        let mut stale = 0u64;
        let mut reads_done = 0u64;
        for r in &replays {
            reads_done += r.reads.min((k + 1) * opts.every) as u64;
            if let Some(tick) = r.ticks.get(k) {
                merged.merge(tick);
                if tick.counter(pobs::id::PIPELINE_WINDOWS_TOTAL) > 0
                    && tick.counter(pobs::id::PIPELINE_WINDOWS_OK) == 0
                {
                    stale += 1;
                }
            }
        }
        merged.set(pobs::id::STREAMING_STALE_TAGS, stale as f64);
        let health = evaluator.as_mut().map(|ev| ev.observe(&merged));
        if let Some(report) = &health {
            worst = worst.max(report.verdict);
        }
        frames.push(TelemetryFrame::from_delta(k as u64, reads_done, &merged, health).to_jsonl_line());
    }

    // End-of-run report: absorb every tag recorder in tag-id order — the
    // same merge discipline the batch front end uses.
    let mut coordinator = Recorder::new(pobs::METRICS);
    for r in &replays {
        coordinator.merge_at_current(&r.rec);
    }
    let report = RunReport::from_recorder("stream", &coordinator)
        .with_meta("jobs", &opts.jobs.to_string())
        .with_meta("every", &opts.every.to_string());

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "{:>6} {:>8} {:>7} {:>5} {:>18} {:>10}",
        "tag", "reads", "ticks", "ok", "position (m)", "truth err"
    );
    let mut total_reads = 0usize;
    for ((id, record), r) in log.tags.iter().zip(&replays) {
        total_reads += r.reads;
        let position = r
            .last_pos
            .map(|p| format!("({:+.3}, {:.3})", p.x, p.y))
            .unwrap_or_else(|| "-".into());
        let truth_err = match (r.last_pos, record.truth) {
            (Some(p), Some(t)) => format!("{:.1} cm", p.distance(t.position) * 100.0),
            _ => "-".into(),
        };
        let _ = writeln!(
            summary,
            "{id:>6} {:>8} {:>7} {:>5} {position:>18} {truth_err:>10}",
            r.reads,
            r.ticks.len(),
            r.ok,
        );
    }
    let _ = writeln!(
        summary,
        "-- telemetry: {} frames over {} reads ({} tags, every {}) --",
        frames.len(),
        total_reads,
        replays.len(),
        opts.every,
    );
    if opts.health {
        let _ = writeln!(summary, "  health: worst verdict {}", worst.as_str());
    }

    Ok(TelemetryRun { frames, summary, report })
}

/// Replays one tag's merged read sequence, recording each tick under a
/// recorder of its own and folding it into the tag's run recorder.
fn replay_tag(
    prism: &RfPrism,
    reads: &[(usize, RawRead)],
    every: usize,
    window_s: f64,
) -> TagReplay {
    let mut ticks = Vec::new();
    let mut rec = Recorder::new(pobs::METRICS);
    let mut ok = 0u64;
    let mut last_pos = None;
    let mut session = prism.sense_streaming(window_s);
    for chunk in reads.chunks(every) {
        let ((), tick) = recorder::observe(pobs::METRICS, || {
            for (antenna, read) in chunk {
                session.push(*antenna, read);
            }
            // Advance "now" to just past the newest read so the window
            // holds everything pushed so far.
            let now_s = chunk.last().expect("chunks are non-empty").1.timestamp_s + 1e-9;
            // A failed advance stays visible through the counters and
            // health rules; the replay itself keeps going.
            if let Ok(result) = session.advance(now_s) {
                ok += 1;
                last_pos = Some(result.estimate.position);
                session.recycle(result);
            }
        });
        rec.merge_at_current(&tick);
        ticks.push(tick.metrics);
    }
    TagReplay { ticks, rec, reads: reads.len(), ok, last_pos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::simulate;
    use rfp_obs::JsonValue;

    fn sample_log() -> String {
        let args: Vec<String> =
            ["--tags", "3", "--seed", "2"].iter().map(|s| s.to_string()).collect();
        simulate(&args).unwrap()
    }

    #[test]
    fn frames_are_byte_identical_at_any_jobs() {
        let log = sample_log();
        let run = |jobs: usize| {
            let opts = TelemetryOptions { jobs, health: true, ..TelemetryOptions::default() };
            replay(&log, &opts).unwrap()
        };
        let sequential = run(1);
        assert!(!sequential.frames.is_empty());
        for jobs in [2, 0] {
            let parallel = run(jobs);
            assert_eq!(sequential.frames, parallel.frames, "frames diverged at jobs={jobs}");
            assert_eq!(sequential.summary, parallel.summary, "summary diverged at jobs={jobs}");
        }
    }

    #[test]
    fn frames_parse_and_tile_the_run_totals() {
        let log = sample_log();
        let run = replay(&log, &TelemetryOptions::default()).unwrap();
        let mut advances = 0u64;
        let mut last_tick = 0u64;
        for (k, line) in run.frames.iter().enumerate() {
            let frame = JsonValue::parse(line).expect("valid frame");
            assert_eq!(frame.get("seq").and_then(JsonValue::as_u64), Some(k as u64));
            let tick = frame.get("tick").and_then(JsonValue::as_u64).expect("tick");
            assert!(tick >= last_tick, "tick must be monotone");
            last_tick = tick;
            assert!(frame.get("health").is_none(), "health off by default");
            let counters = frame.get("counters").expect("counters");
            let windows = counters.get("pipeline.windows_total").and_then(JsonValue::as_u64);
            advances += windows.unwrap_or(0);
        }
        // Frame counter deltas tile the end-of-run totals exactly.
        let total = run
            .report
            .counters
            .iter()
            .find(|(n, _)| n == "pipeline.windows_total")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(advances, total, "frame deltas must tile the run total");
        assert!(total > 0);
    }

    #[test]
    fn health_verdicts_ride_in_frames_when_enabled() {
        let log = sample_log();
        let opts = TelemetryOptions { health: true, ..TelemetryOptions::default() };
        let run = replay(&log, &opts).unwrap();
        let frame = JsonValue::parse(&run.frames[0]).unwrap();
        assert!(frame.get("health").and_then(|h| h.get("verdict")).is_some());
        assert!(run.summary.contains("health: worst verdict"));
    }

    #[test]
    fn rejects_zero_every() {
        let opts = TelemetryOptions { every: 0, ..TelemetryOptions::default() };
        assert!(matches!(replay("", &opts), Err(CommandError::Usage(_))));
    }
}
