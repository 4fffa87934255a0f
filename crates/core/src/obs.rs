//! Instrumentation probes for the sensing pipeline (feature `obs`).
//!
//! Every hook the pipeline, solvers, detector and batch engine use lives
//! here, in two interchangeable implementations:
//!
//! * with the `obs` feature **on**, probes forward to the thread-local
//!   recorder in [`rfp_obs`] — spans aggregate into a stage tree, counters
//!   and histograms land in a [`rfp_obs::Registry`] over the [`METRICS`]
//!   descriptor table, and a caller (the CLI, a bench, a test) collects
//!   everything via `rfp_obs::recorder::observe`;
//! * with the feature **off** (the default), every probe is an empty
//!   `#[inline(always)]` function and [`active`] is a `const false`, so
//!   guarded snapshot code folds away and the solver hot path compiles to
//!   exactly the uninstrumented build.
//!
//! Either way, probes never affect results: they only read solver state
//! (work counters, verdicts) and the monotonic clock. The batch-vs-
//! sequential bit-identity suite runs with the feature on and off to pin
//! this down.
//!
//! Metrics are addressed by the compile-time indices in [`id`]; the
//! recording hot path does no hashing and no allocation.

/// Indices into [`METRICS`] — the stable metric addresses
/// the probes use. The table test pins each index to its metric name.
pub mod id {
    /// `solver2d.solves` — completed 2-D joint solves.
    pub const SOLVER2D_SOLVES: usize = 0;
    /// `solver2d.iterations` — LM iterations across all 2-D starts.
    pub const SOLVER2D_ITERATIONS: usize = 1;
    /// `solver2d.residual_evals` — residual-vector evaluations (2-D).
    pub const SOLVER2D_RESIDUAL_EVALS: usize = 2;
    /// `solver2d.jacobian_evals` — Jacobian evaluations (2-D).
    pub const SOLVER2D_JACOBIAN_EVALS: usize = 3;
    /// `solver3d.solves` — completed 3-D joint solves.
    pub const SOLVER3D_SOLVES: usize = 4;
    /// `solver3d.iterations` — LM iterations across all 3-D starts.
    pub const SOLVER3D_ITERATIONS: usize = 5;
    /// `solver3d.residual_evals` — residual-vector evaluations (3-D).
    pub const SOLVER3D_RESIDUAL_EVALS: usize = 6;
    /// `solver3d.jacobian_evals` — Jacobian evaluations (3-D).
    pub const SOLVER3D_JACOBIAN_EVALS: usize = 7;
    /// `pipeline.windows_total` — sensing windows attempted (2-D and 3-D).
    pub const PIPELINE_WINDOWS_TOTAL: usize = 8;
    /// `pipeline.windows_ok` — windows that produced an estimate.
    pub const PIPELINE_WINDOWS_OK: usize = 9;
    /// `pipeline.windows_moving_rejected` — windows discarded because the
    /// error detector declared the tag moving.
    pub const PIPELINE_WINDOWS_MOVING_REJECTED: usize = 10;
    /// `pipeline.windows_too_few_obs` — windows with fewer usable antenna
    /// observations than the solve needs.
    pub const PIPELINE_WINDOWS_TOO_FEW_OBS: usize = 11;
    /// `pipeline.extract_failures` — per-antenna extraction failures.
    pub const PIPELINE_EXTRACT_FAILURES: usize = 12;
    /// `pipeline.rounds_skipped` — hop rounds skipped by the multi-round
    /// path (incomplete extraction or a moving verdict).
    pub const PIPELINE_ROUNDS_SKIPPED: usize = 13;
    /// `detector.windows_clean` — verdicts with every channel kept.
    pub const DETECTOR_WINDOWS_CLEAN: usize = 14;
    /// `detector.windows_multipath` — verdicts with multipath-corrupted
    /// channels suppressed.
    pub const DETECTOR_WINDOWS_MULTIPATH: usize = 15;
    /// `detector.windows_moving` — verdicts rejecting the window for
    /// nonlinearity (tag motion).
    pub const DETECTOR_WINDOWS_MOVING: usize = 16;
    /// `detector.channels_rejected` — channels dropped across antennas by
    /// the robust fits in multipath-suppressed windows.
    pub const DETECTOR_CHANNELS_REJECTED: usize = 17;
    /// `material.features_extracted` — material feature vectors built.
    pub const MATERIAL_FEATURES_EXTRACTED: usize = 18;
    /// `batch.tags` — tags submitted to the batch engine.
    pub const BATCH_TAGS: usize = 19;
    /// `batch.workers` — worker threads of the most recent batch (gauge;
    /// merges as max).
    pub const BATCH_WORKERS: usize = 20;
    /// `sense.latency_us` — end-to-end sensing latency histogram, µs.
    pub const SENSE_LATENCY_US: usize = 21;
    /// `solve.latency_us` — joint-solve latency histogram, µs.
    pub const SOLVE_LATENCY_US: usize = 22;
    /// `solver.seeds_total` — multi-start position seeds considered by the
    /// coarse-to-fine scan (2-D and 3-D).
    pub const SOLVER_SEEDS_TOTAL: usize = 23;
    /// `solver.seeds_refined` — seeds that received a stage-1 LM
    /// refinement.
    pub const SOLVER_SEEDS_REFINED: usize = 24;
    /// `solver.seeds_pruned` — seeds skipped by the coarse ranking / early
    /// exit (never LM-refined).
    pub const SOLVER_SEEDS_PRUNED: usize = 25;
    /// `solver.warm_start_hits` — warm-started refinements accepted by the
    /// validation gate (multi-start scan skipped).
    pub const SOLVER_WARM_HITS: usize = 26;
    /// `solver.warm_start_misses` — warm-start attempts rejected by the
    /// gate (fell back to the multi-start scan).
    pub const SOLVER_WARM_MISSES: usize = 27;
    /// `frontend.windows` — per-antenna front-end extractions attempted.
    pub const FRONTEND_WINDOWS: usize = 28;
    /// `frontend.reads` — raw reader reports consumed by the front end.
    pub const FRONTEND_READS: usize = 29;
    /// `frontend.channels` — clean channel observations produced.
    pub const FRONTEND_CHANNELS: usize = 30;
    /// `frontend.trig_table_reads` — per-read phasors served by the
    /// quantized phase-code tables. The batch front end counts one per
    /// read per pass; a streaming window counts each lookup where it
    /// happens (a push, a rebuild's re-accumulation, a fold at extract).
    pub const FRONTEND_TRIG_TABLE_READS: usize = 31;
    /// `frontend.trig_libm_reads` — per-read phasors served by libm
    /// (batch: reads without a phase code that reproduces their phase;
    /// streaming: phases off the reader grid), counted like
    /// [`FRONTEND_TRIG_TABLE_READS`].
    pub const FRONTEND_TRIG_LIBM_READS: usize = 32;
    /// `streaming.updates` — reads pushed into streaming windows.
    pub const STREAMING_UPDATES: usize = 33;
    /// `streaming.downdates` — reads expired out of streaming windows.
    pub const STREAMING_DOWNDATES: usize = 34;
    /// `streaming.rebuilds` — channels re-derived from their retained
    /// reads after losing reads to expiry.
    pub const STREAMING_REBUILDS: usize = 35;
    /// `streaming.advance_latency_us` — `StreamingSession::advance`
    /// latency histogram, µs.
    pub const STREAMING_ADVANCE_LATENCY_US: usize = 36;
    /// `streaming.extract_latency_us` — per-antenna streaming-window
    /// extraction latency histogram (the window's expiry included), µs.
    pub const STREAMING_EXTRACT_LATENCY_US: usize = 37;
    /// `streaming.stale_tags` — tags whose last telemetry window produced
    /// no estimate (gauge; set by the replay/serve driver).
    pub const STREAMING_STALE_TAGS: usize = 38;
    /// `solver.lane_seed_blocks` — 4-seed blocks scored by the wide
    /// coarse-ranking lanes (2-D and 3-D).
    pub const SOLVER_LANE_SEED_BLOCKS: usize = 39;
    /// `solver.lane_row_blocks` — 4-row antenna blocks evaluated by the
    /// wide residual/Jacobian lanes of the LM cores.
    pub const SOLVER_LANE_ROW_BLOCKS: usize = 40;
    /// `solver.lane_scalar_rows` — seeds/rows that fell through to the
    /// scalar remainder of a 4-wide loop.
    pub const SOLVER_LANE_SCALAR_ROWS: usize = 41;
    /// `solver.lambda_retries` — damped-step λ retries beyond the first
    /// attempt of each LM iteration.
    pub const SOLVER_LAMBDA_RETRIES: usize = 42;
    /// `solver.chol_failures` — damped normal equations rejected as
    /// non-positive-definite (factorization failures that escalate λ).
    pub const SOLVER_CHOL_FAILURES: usize = 43;
}

#[cfg(feature = "obs")]
mod enabled {
    use crate::detector::MobilityVerdict;
    use rfp_obs::{recorder, MetricDef, Recorder};
    use std::time::Instant;

    /// Log-spaced µs buckets covering sub-100 µs solves up to 100 ms+
    /// end-to-end windows.
    const LATENCY_BUCKETS_US: &[f64] = &[
        50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
        100_000.0,
    ];

    /// Finer log-spaced µs buckets for the incremental streaming paths,
    /// whose steady-state advances sit well under the batch pipeline's
    /// 50 µs first bucket.
    const STREAMING_LATENCY_BUCKETS_US: &[f64] = &[
        5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
    ];

    /// The pipeline's metric descriptor table; entry *i* is the metric
    /// addressed by index *i* in [`super::id`].
    pub static METRICS: &[MetricDef] = &[
        MetricDef::counter("solver2d.solves", "completed 2-D joint solves"),
        MetricDef::counter("solver2d.iterations", "LM iterations across all 2-D starts"),
        MetricDef::counter("solver2d.residual_evals", "residual-vector evaluations (2-D)"),
        MetricDef::counter("solver2d.jacobian_evals", "Jacobian evaluations (2-D)"),
        MetricDef::counter("solver3d.solves", "completed 3-D joint solves"),
        MetricDef::counter("solver3d.iterations", "LM iterations across all 3-D starts"),
        MetricDef::counter("solver3d.residual_evals", "residual-vector evaluations (3-D)"),
        MetricDef::counter("solver3d.jacobian_evals", "Jacobian evaluations (3-D)"),
        MetricDef::counter("pipeline.windows_total", "sensing windows attempted"),
        MetricDef::counter("pipeline.windows_ok", "windows that produced an estimate"),
        MetricDef::counter(
            "pipeline.windows_moving_rejected",
            "windows discarded for tag motion",
        ),
        MetricDef::counter(
            "pipeline.windows_too_few_obs",
            "windows with too few usable antenna observations",
        ),
        MetricDef::counter("pipeline.extract_failures", "per-antenna extraction failures"),
        MetricDef::counter(
            "pipeline.rounds_skipped",
            "hop rounds skipped by the multi-round path",
        ),
        MetricDef::counter("detector.windows_clean", "verdicts with every channel kept"),
        MetricDef::counter(
            "detector.windows_multipath",
            "verdicts with multipath channels suppressed",
        ),
        MetricDef::counter("detector.windows_moving", "verdicts rejecting the window"),
        MetricDef::counter(
            "detector.channels_rejected",
            "channels dropped by the robust per-antenna fits",
        ),
        MetricDef::counter("material.features_extracted", "material feature vectors built"),
        MetricDef::counter("batch.tags", "tags submitted to the batch engine"),
        MetricDef::gauge("batch.workers", "worker threads of the most recent batch"),
        MetricDef::histogram(
            "sense.latency_us",
            "end-to-end sensing latency, microseconds",
            LATENCY_BUCKETS_US,
        ),
        MetricDef::histogram(
            "solve.latency_us",
            "joint-solve latency, microseconds",
            LATENCY_BUCKETS_US,
        ),
        MetricDef::counter("solver.seeds_total", "multi-start seeds considered"),
        MetricDef::counter("solver.seeds_refined", "seeds given stage-1 LM refinement"),
        MetricDef::counter("solver.seeds_pruned", "seeds skipped by the coarse ranking"),
        MetricDef::counter("solver.warm_start_hits", "warm starts accepted by the gate"),
        MetricDef::counter("solver.warm_start_misses", "warm starts rejected by the gate"),
        MetricDef::counter("frontend.windows", "per-antenna front-end extractions attempted"),
        MetricDef::counter("frontend.reads", "raw reader reports consumed by the front end"),
        MetricDef::counter("frontend.channels", "clean channel observations produced"),
        MetricDef::counter(
            "frontend.trig_table_reads",
            "per-read phasors served by the quantized phase-code tables",
        ),
        MetricDef::counter(
            "frontend.trig_libm_reads",
            "per-read phasors served by libm (reads without a usable phase code)",
        ),
        MetricDef::counter("streaming.updates", "reads pushed into streaming windows"),
        MetricDef::counter("streaming.downdates", "reads expired out of streaming windows"),
        MetricDef::counter(
            "streaming.rebuilds",
            "channels re-derived from their retained reads after expiry",
        ),
        MetricDef::histogram(
            "streaming.advance_latency_us",
            "streaming advance latency, microseconds",
            STREAMING_LATENCY_BUCKETS_US,
        ),
        MetricDef::histogram(
            "streaming.extract_latency_us",
            "per-antenna streaming extraction latency, expiry included, microseconds",
            STREAMING_LATENCY_BUCKETS_US,
        ),
        MetricDef::gauge("streaming.stale_tags", "tags with no estimate in the last window"),
        MetricDef::counter(
            "solver.lane_seed_blocks",
            "4-seed blocks scored by the wide coarse-ranking lanes",
        ),
        MetricDef::counter(
            "solver.lane_row_blocks",
            "4-row antenna blocks evaluated by the wide residual lanes",
        ),
        MetricDef::counter(
            "solver.lane_scalar_rows",
            "seeds/rows handled by the scalar remainder of a 4-wide loop",
        ),
        MetricDef::counter(
            "solver.lambda_retries",
            "damped-step lambda retries beyond each iteration's first attempt",
        ),
        MetricDef::counter(
            "solver.chol_failures",
            "damped normal equations rejected as non-positive-definite",
        ),
    ];

    pub use recorder::{counter_add, gauge_set, observe_value};

    /// Whether a recorder is installed on this thread.
    #[inline]
    pub fn active() -> bool {
        recorder::active()
    }

    /// The streaming engine's watchdog: threshold rules over windowed
    /// [`METRICS`] deltas (see DESIGN.md §9).
    ///
    /// * `warm_miss_rate` — solver warm-start gate misses per attempt;
    ///   misses re-run the multi-start scan (degraded at 50%, unhealthy
    ///   at 90%).
    /// * `stale_tags` — tags whose latest window produced no estimate
    ///   (gauge set by the serve/replay driver; degraded at 1, unhealthy
    ///   at 4).
    /// * `no_estimates` — attempted windows with zero successes for 3
    ///   (degraded) / 6 (unhealthy) consecutive telemetry windows.
    ///
    /// Rate rules guard against near-idle windows with a minimum
    /// denominator, so a trickle of reads never trips a ratio.
    pub fn streaming_health() -> rfp_obs::HealthEvaluator {
        use super::id;
        rfp_obs::HealthEvaluator::new()
            .rate(rfp_obs::RateRule {
                name: "warm_miss_rate",
                numerators: vec![id::SOLVER_WARM_MISSES],
                denominators: vec![id::SOLVER_WARM_HITS, id::SOLVER_WARM_MISSES],
                min_denominator: 4,
                degraded_at: 0.5,
                unhealthy_at: 0.9,
            })
            .gauge(rfp_obs::GaugeRule {
                name: "stale_tags",
                gauge: id::STREAMING_STALE_TAGS,
                degraded_at: 1.0,
                unhealthy_at: 4.0,
            })
            .stall(rfp_obs::StallRule {
                name: "no_estimates",
                ok: vec![id::PIPELINE_WINDOWS_OK],
                attempted: vec![id::PIPELINE_WINDOWS_TOTAL],
                degraded_after: 3,
                unhealthy_after: 6,
            })
    }

    /// Opens the named stage span on this thread's recorder.
    #[inline]
    pub fn span(name: &'static str) -> rfp_obs::SpanGuard {
        recorder::span(name)
    }

    /// A stage span that also times its stage into latency histograms;
    /// created by [`timed_span`]. The clock is read once when it opens and
    /// once when it closes, and the span and every histogram take that
    /// one elapsed time under one recorder borrow.
    #[must_use = "a timed span records on drop; binding it to _ closes it immediately"]
    #[derive(Debug)]
    pub(crate) struct TimedSpan {
        /// `None` when no recorder was active at creation.
        open: Option<(usize, Instant)>,
        histograms: &'static [usize],
    }

    impl Drop for TimedSpan {
        fn drop(&mut self) {
            if let Some((node, start)) = self.open.take() {
                let elapsed = start.elapsed();
                let us = elapsed.as_secs_f64() * 1e6;
                let histograms = self.histograms;
                recorder::with_current(|r| {
                    r.spans.exit(node, elapsed);
                    for &h in histograms {
                        r.metrics.observe(h, us);
                    }
                });
            }
        }
    }

    /// Opens the named stage span and times it into the latency
    /// histograms `histograms` (µs, recorded with the span when it
    /// closes).
    #[inline]
    pub(crate) fn timed_span(name: &'static str, histograms: &'static [usize]) -> TimedSpan {
        let mut node = None;
        recorder::with_current(|r| node = Some(r.spans.enter(name)));
        TimedSpan { open: node.map(|node| (node, Instant::now())), histograms }
    }

    /// Times consecutive stretches of work into latency histogram `idx`
    /// (µs) with one clock read per boundary: each lap ends where the
    /// next one starts.
    #[derive(Debug)]
    pub(crate) struct Laps {
        idx: usize,
        /// The running lap's start; `None` before the first lap, or when
        /// no recorder is active.
        mark: Option<Instant>,
    }

    impl Laps {
        /// Laps timed into histogram `idx`.
        #[inline]
        pub(crate) fn new(idx: usize) -> Laps {
            Laps { idx, mark: None }
        }

        /// Starts a lap, unless the previous lap's end already did.
        #[inline]
        pub(crate) fn start(&mut self) {
            if self.mark.is_none() && active() {
                self.mark = Some(Instant::now());
            }
        }

        /// Ends the running lap, timing it, and starts the next one at the
        /// same instant.
        #[inline]
        pub(crate) fn lap(&mut self) {
            if let Some(start) = self.mark {
                let now = Instant::now();
                observe_value(self.idx, (now - start).as_secs_f64() * 1e6);
                self.mark = Some(now);
            }
        }
    }

    /// Adds `n` to counter `idx` for each `(idx, n)` of `entries`, under
    /// one recorder borrow.
    #[inline]
    pub(crate) fn counters_add(entries: &[(usize, u64)]) {
        recorder::with_current(|r| {
            for &(idx, n) in entries {
                r.metrics.add(idx, n);
            }
        });
    }

    /// Records one detector verdict into the `detector.*` counters.
    pub fn verdict(v: &MobilityVerdict) {
        match v {
            MobilityVerdict::Clean => counter_add(super::id::DETECTOR_WINDOWS_CLEAN, 1),
            MobilityVerdict::MultipathSuppressed { rejected_channels } => {
                counter_add(super::id::DETECTOR_WINDOWS_MULTIPATH, 1);
                counter_add(super::id::DETECTOR_CHANNELS_REJECTED, *rejected_channels as u64);
            }
            MobilityVerdict::Moving { .. } => {
                counter_add(super::id::DETECTOR_WINDOWS_MOVING, 1);
            }
        }
    }

    /// One batch worker's recording context: a fresh recorder when the
    /// coordinator thread was observing at fan-out time, nothing
    /// otherwise. The coordinator merges worker contexts back in
    /// worker-index order, keeping count-type metrics deterministic at any
    /// worker count.
    #[derive(Debug)]
    pub struct WorkerObs(Option<Recorder>);

    impl WorkerObs {
        /// A worker context; records only when `observing` (the
        /// coordinator's [`active`] at spawn time).
        pub fn new(observing: bool) -> WorkerObs {
            WorkerObs(observing.then(|| Recorder::new(METRICS)))
        }

        /// Runs `f` with this context installed on the current thread,
        /// returning the result and the (updated) context.
        pub fn run<R>(self, f: impl FnOnce() -> R) -> (R, WorkerObs) {
            match self.0 {
                Some(rec) => {
                    let (out, rec) = recorder::observe_with(rec, f);
                    (out, WorkerObs(Some(rec)))
                }
                None => (f(), WorkerObs(None)),
            }
        }

        /// Merges everything this worker recorded into the coordinator's
        /// recorder (spans graft under the coordinator's open span).
        pub fn absorb_into_current(&self) {
            if let Some(rec) = &self.0 {
                recorder::absorb(rec);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rfp_obs::MetricKind;

        #[test]
        fn metric_table_matches_id_constants() {
            use crate::obs::id::*;
            let by_idx = [
                (SOLVER2D_SOLVES, "solver2d.solves"),
                (SOLVER2D_ITERATIONS, "solver2d.iterations"),
                (SOLVER2D_RESIDUAL_EVALS, "solver2d.residual_evals"),
                (SOLVER2D_JACOBIAN_EVALS, "solver2d.jacobian_evals"),
                (SOLVER3D_SOLVES, "solver3d.solves"),
                (SOLVER3D_ITERATIONS, "solver3d.iterations"),
                (SOLVER3D_RESIDUAL_EVALS, "solver3d.residual_evals"),
                (SOLVER3D_JACOBIAN_EVALS, "solver3d.jacobian_evals"),
                (PIPELINE_WINDOWS_TOTAL, "pipeline.windows_total"),
                (PIPELINE_WINDOWS_OK, "pipeline.windows_ok"),
                (PIPELINE_WINDOWS_MOVING_REJECTED, "pipeline.windows_moving_rejected"),
                (PIPELINE_WINDOWS_TOO_FEW_OBS, "pipeline.windows_too_few_obs"),
                (PIPELINE_EXTRACT_FAILURES, "pipeline.extract_failures"),
                (PIPELINE_ROUNDS_SKIPPED, "pipeline.rounds_skipped"),
                (DETECTOR_WINDOWS_CLEAN, "detector.windows_clean"),
                (DETECTOR_WINDOWS_MULTIPATH, "detector.windows_multipath"),
                (DETECTOR_WINDOWS_MOVING, "detector.windows_moving"),
                (DETECTOR_CHANNELS_REJECTED, "detector.channels_rejected"),
                (MATERIAL_FEATURES_EXTRACTED, "material.features_extracted"),
                (BATCH_TAGS, "batch.tags"),
                (BATCH_WORKERS, "batch.workers"),
                (SENSE_LATENCY_US, "sense.latency_us"),
                (SOLVE_LATENCY_US, "solve.latency_us"),
                (SOLVER_SEEDS_TOTAL, "solver.seeds_total"),
                (SOLVER_SEEDS_REFINED, "solver.seeds_refined"),
                (SOLVER_SEEDS_PRUNED, "solver.seeds_pruned"),
                (SOLVER_WARM_HITS, "solver.warm_start_hits"),
                (SOLVER_WARM_MISSES, "solver.warm_start_misses"),
                (FRONTEND_WINDOWS, "frontend.windows"),
                (FRONTEND_READS, "frontend.reads"),
                (FRONTEND_CHANNELS, "frontend.channels"),
                (FRONTEND_TRIG_TABLE_READS, "frontend.trig_table_reads"),
                (FRONTEND_TRIG_LIBM_READS, "frontend.trig_libm_reads"),
                (STREAMING_UPDATES, "streaming.updates"),
                (STREAMING_DOWNDATES, "streaming.downdates"),
                (STREAMING_REBUILDS, "streaming.rebuilds"),
                (STREAMING_ADVANCE_LATENCY_US, "streaming.advance_latency_us"),
                (STREAMING_EXTRACT_LATENCY_US, "streaming.extract_latency_us"),
                (STREAMING_STALE_TAGS, "streaming.stale_tags"),
                (SOLVER_LANE_SEED_BLOCKS, "solver.lane_seed_blocks"),
                (SOLVER_LANE_ROW_BLOCKS, "solver.lane_row_blocks"),
                (SOLVER_LANE_SCALAR_ROWS, "solver.lane_scalar_rows"),
                (SOLVER_LAMBDA_RETRIES, "solver.lambda_retries"),
                (SOLVER_CHOL_FAILURES, "solver.chol_failures"),
            ];
            assert_eq!(by_idx.len(), METRICS.len());
            for (idx, name) in by_idx {
                assert_eq!(METRICS[idx].name, name, "index {idx}");
            }
            assert_eq!(METRICS[crate::obs::id::BATCH_WORKERS].kind, MetricKind::Gauge);
            assert_eq!(METRICS[crate::obs::id::SENSE_LATENCY_US].kind, MetricKind::Histogram);
            assert_eq!(
                METRICS[crate::obs::id::STREAMING_ADVANCE_LATENCY_US].kind,
                MetricKind::Histogram
            );
            assert_eq!(METRICS[crate::obs::id::STREAMING_STALE_TAGS].kind, MetricKind::Gauge);
        }

        #[test]
        fn streaming_health_rules_fold_over_metric_deltas() {
            use crate::obs::id::*;
            let mut ev = streaming_health();
            // A clean window: plenty of work, warm starts hitting.
            let ((), rec) = recorder::observe(METRICS, || {
                counter_add(FRONTEND_WINDOWS, 100);
                counter_add(SOLVER_WARM_HITS, 10);
                counter_add(PIPELINE_WINDOWS_TOTAL, 10);
                counter_add(PIPELINE_WINDOWS_OK, 10);
            });
            let report = ev.observe(&rec.metrics.snapshot());
            assert_eq!(report.verdict, rfp_obs::Health::Healthy);

            // A degrading window: 60% warm-start misses.
            let ((), rec) = recorder::observe(METRICS, || {
                counter_add(FRONTEND_WINDOWS, 100);
                counter_add(SOLVER_WARM_HITS, 4);
                counter_add(SOLVER_WARM_MISSES, 6);
                counter_add(PIPELINE_WINDOWS_TOTAL, 10);
                counter_add(PIPELINE_WINDOWS_OK, 10);
            });
            let report = ev.observe(&rec.metrics.snapshot());
            assert_eq!(report.verdict, rfp_obs::Health::Degraded);
            assert_eq!(report.reasons[0].rule, "warm_miss_rate");
        }

        #[test]
        fn verdict_routes_to_the_right_counters() {
            use crate::obs::id::*;
            let ((), rec) = recorder::observe(METRICS, || {
                verdict(&MobilityVerdict::Clean);
                verdict(&MobilityVerdict::MultipathSuppressed { rejected_channels: 7 });
                verdict(&MobilityVerdict::Moving { worst_residual_std: 0.9 });
            });
            assert_eq!(rec.metrics.counter(DETECTOR_WINDOWS_CLEAN), 1);
            assert_eq!(rec.metrics.counter(DETECTOR_WINDOWS_MULTIPATH), 1);
            assert_eq!(rec.metrics.counter(DETECTOR_CHANNELS_REJECTED), 7);
            assert_eq!(rec.metrics.counter(DETECTOR_WINDOWS_MOVING), 1);
        }
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use crate::detector::MobilityVerdict;

    /// Inert stand-in for the recorder's span guard.
    #[derive(Debug)]
    pub struct SpanGuard;

    /// Always `false` without the `obs` feature, so guarded snapshot code
    /// is dead and folds away.
    #[inline(always)]
    pub const fn active() -> bool {
        false
    }

    /// No-op counter probe.
    #[inline(always)]
    pub fn counter_add(_idx: usize, _n: u64) {}

    /// No-op gauge probe.
    #[inline(always)]
    pub fn gauge_set(_idx: usize, _v: f64) {}

    /// No-op histogram probe.
    #[inline(always)]
    pub fn observe_value(_idx: usize, _v: f64) {}

    /// No-op span probe.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// Inert stand-in for a timed span.
    #[derive(Debug)]
    pub(crate) struct TimedSpan;

    /// No-op timed span probe.
    #[inline(always)]
    pub(crate) fn timed_span(_name: &'static str, _histograms: &'static [usize]) -> TimedSpan {
        TimedSpan
    }

    /// Inert stand-in for lap timing.
    #[derive(Debug)]
    pub(crate) struct Laps;

    impl Laps {
        /// Inert laps.
        #[inline(always)]
        pub(crate) fn new(_idx: usize) -> Laps {
            Laps
        }

        /// No-op lap start.
        #[inline(always)]
        pub(crate) fn start(&mut self) {}

        /// No-op lap end.
        #[inline(always)]
        pub(crate) fn lap(&mut self) {}
    }

    /// No-op counter-block probe.
    #[inline(always)]
    pub(crate) fn counters_add(_entries: &[(usize, u64)]) {}

    /// No-op verdict probe.
    #[inline(always)]
    pub fn verdict(_v: &MobilityVerdict) {}

    /// Inert stand-in for a batch worker's recording context.
    #[derive(Debug)]
    pub struct WorkerObs;

    impl WorkerObs {
        /// Inert context.
        #[inline(always)]
        pub fn new(_observing: bool) -> WorkerObs {
            WorkerObs
        }

        /// Runs `f` directly.
        #[inline(always)]
        pub fn run<R>(self, f: impl FnOnce() -> R) -> (R, WorkerObs) {
            (f(), WorkerObs)
        }

        /// No-op merge.
        #[inline(always)]
        pub fn absorb_into_current(&self) {}
    }
}

#[cfg(feature = "obs")]
pub use enabled::*;

#[cfg(not(feature = "obs"))]
pub use disabled::*;
