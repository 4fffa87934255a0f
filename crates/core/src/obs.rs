//! Instrumentation probes for the sensing pipeline (feature `obs`).
//!
//! Every hook the pipeline, solvers, detector and batch engine use lives
//! here, in two interchangeable implementations:
//!
//! * with the `obs` feature **on**, probes forward to the thread-local
//!   recorder in `rfp_obs` — spans aggregate into a stage tree, counters
//!   and histograms land in an `rfp_obs::Registry` over the `METRICS`
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

/// Declares every metric once, in index order: the [`id`] constants,
/// compiled with or without the feature because probes name them, and
/// with the `obs` feature the [`METRICS`] descriptor table.
macro_rules! metrics {
    ($($id:ident: $kind:ident($name:literal, $help:literal $(, $buckets:ident)?),)*) => {
        /// Indices into `METRICS` — the stable metric addresses the
        /// probes use.
        pub mod id {
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            enum Index {
                $($id,)*
            }
            $(
                #[doc = concat!("`", $name, "` — ", $help, ".")]
                pub const $id: usize = Index::$id as usize;
            )*
        }

        /// The pipeline's metric descriptor table; entry *i* is the metric
        /// addressed by index *i* in [`id`].
        #[cfg(feature = "obs")]
        pub static METRICS: &[rfp_obs::MetricDef] =
            &[$(rfp_obs::MetricDef::$kind($name, $help $(, $buckets)?),)*];
    };
}

/// Log-spaced µs buckets covering sub-100 µs solves up to 100 ms+
/// end-to-end windows.
#[cfg(feature = "obs")]
const LATENCY_BUCKETS_US: &[f64] = &[
    50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0,
];

/// Finer log-spaced µs buckets for the incremental streaming paths,
/// whose steady-state advances sit well under the batch pipeline's
/// 50 µs first bucket.
#[cfg(feature = "obs")]
const STREAMING_LATENCY_BUCKETS_US: &[f64] =
    &[5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0];

metrics! {
    SOLVER2D_SOLVES: counter("solver2d.solves", "completed 2-D joint solves"),
    SOLVER2D_ITERATIONS: counter("solver2d.iterations", "LM iterations across all 2-D starts"),
    SOLVER2D_RESIDUAL_EVALS: counter("solver2d.residual_evals", "residual-vector evaluations (2-D)"),
    SOLVER2D_JACOBIAN_EVALS: counter("solver2d.jacobian_evals", "Jacobian evaluations (2-D)"),
    SOLVER3D_SOLVES: counter("solver3d.solves", "completed 3-D joint solves"),
    SOLVER3D_ITERATIONS: counter("solver3d.iterations", "LM iterations across all 3-D starts"),
    SOLVER3D_RESIDUAL_EVALS: counter("solver3d.residual_evals", "residual-vector evaluations (3-D)"),
    SOLVER3D_JACOBIAN_EVALS: counter("solver3d.jacobian_evals", "Jacobian evaluations (3-D)"),
    PIPELINE_WINDOWS_TOTAL: counter("pipeline.windows_total", "sensing windows attempted"),
    PIPELINE_WINDOWS_OK: counter("pipeline.windows_ok", "windows that produced an estimate"),
    PIPELINE_WINDOWS_MOVING_REJECTED: counter(
        "pipeline.windows_moving_rejected",
        "windows discarded for tag motion"
    ),
    PIPELINE_WINDOWS_TOO_FEW_OBS: counter(
        "pipeline.windows_too_few_obs",
        "windows with too few usable antenna observations"
    ),
    PIPELINE_EXTRACT_FAILURES: counter("pipeline.extract_failures", "per-antenna extraction failures"),
    PIPELINE_ROUNDS_SKIPPED: counter(
        "pipeline.rounds_skipped",
        "hop rounds skipped by the multi-round path"
    ),
    DETECTOR_WINDOWS_CLEAN: counter("detector.windows_clean", "verdicts with every channel kept"),
    DETECTOR_WINDOWS_MULTIPATH: counter(
        "detector.windows_multipath",
        "verdicts with multipath channels suppressed"
    ),
    DETECTOR_WINDOWS_MOVING: counter("detector.windows_moving", "verdicts rejecting the window"),
    DETECTOR_CHANNELS_REJECTED: counter(
        "detector.channels_rejected",
        "channels dropped by the robust per-antenna fits"
    ),
    MATERIAL_FEATURES_EXTRACTED: counter(
        "material.features_extracted",
        "material feature vectors built"
    ),
    BATCH_TAGS: counter("batch.tags", "tags submitted to the batch engine"),
    BATCH_WORKERS: gauge("batch.workers", "worker threads of the most recent batch"),
    SENSE_LATENCY_US: histogram(
        "sense.latency_us",
        "end-to-end sensing latency, microseconds",
        LATENCY_BUCKETS_US
    ),
    SOLVE_LATENCY_US: histogram(
        "solve.latency_us",
        "joint-solve latency, microseconds",
        LATENCY_BUCKETS_US
    ),
    SOLVER_SEEDS_TOTAL: counter("solver.seeds_total", "multi-start seeds considered"),
    SOLVER_SEEDS_REFINED: counter("solver.seeds_refined", "seeds given stage-1 LM refinement"),
    SOLVER_SEEDS_PRUNED: counter("solver.seeds_pruned", "seeds skipped by the coarse ranking"),
    SOLVER_WARM_HITS: counter("solver.warm_start_hits", "warm starts accepted by the gate"),
    SOLVER_WARM_MISSES: counter("solver.warm_start_misses", "warm starts rejected by the gate"),
    FRONTEND_WINDOWS: counter(
        "frontend.windows",
        "per-antenna front-end extractions attempted"
    ),
    FRONTEND_READS: counter("frontend.reads", "raw reader reports consumed by the front end"),
    FRONTEND_CHANNELS: counter("frontend.channels", "clean channel observations produced"),
    // The batch front end counts one phasor per read per pass; a
    // streaming window counts each lookup where it happens (a push, a
    // rebuild's re-accumulation, a fold at extract).
    FRONTEND_TRIG_TABLE_READS: counter(
        "frontend.trig_table_reads",
        "per-read phasors served by the quantized phase-code tables"
    ),
    FRONTEND_TRIG_LIBM_READS: counter(
        "frontend.trig_libm_reads",
        "per-read phasors served by libm (reads without a usable phase code)"
    ),
    STREAMING_UPDATES: counter("streaming.updates", "reads pushed into streaming windows"),
    STREAMING_DOWNDATES: counter("streaming.downdates", "reads expired out of streaming windows"),
    STREAMING_REBUILDS: counter(
        "streaming.rebuilds",
        "channels re-derived from their retained reads after expiry"
    ),
    STREAMING_ADVANCE_LATENCY_US: histogram(
        "streaming.advance_latency_us",
        "streaming advance latency, microseconds",
        STREAMING_LATENCY_BUCKETS_US
    ),
    STREAMING_EXTRACT_LATENCY_US: histogram(
        "streaming.extract_latency_us",
        "per-antenna streaming extraction latency, expiry included, microseconds",
        STREAMING_LATENCY_BUCKETS_US
    ),
    // Set by the telemetry driver, not by a probe.
    STREAMING_STALE_TAGS: gauge(
        "streaming.stale_tags",
        "tags with no estimate in the last window"
    ),
    SOLVER_LAMBDA_RETRIES: counter(
        "solver.lambda_retries",
        "damped-step lambda retries beyond each iteration's first attempt"
    ),
    SOLVER_CHOL_FAILURES: counter(
        "solver.chol_failures",
        "damped normal equations rejected as non-positive-definite"
    ),
    SOLVER_SCAN_SEEDS: counter(
        "solver.scan_seeds",
        "closed-form b_t seeds the orientation scans computed"
    ),
    SOLVER_SCAN_EXACT: counter(
        "solver.scan_exact",
        "scan directions whose cost the orientation scans evaluated exactly"
    ),
}

#[cfg(feature = "obs")]
mod enabled {
    use super::METRICS;
    use crate::detector::MobilityVerdict;
    use rfp_obs::{recorder, Health, HealthReason, HealthReport, Recorder, Registry};
    use std::time::Instant;

    pub use recorder::{counter_add, gauge_set, observe_value};

    /// Whether a recorder is installed on this thread.
    #[inline]
    pub fn active() -> bool {
        recorder::active()
    }

    /// The streaming engine's watchdog (DESIGN.md §9): three rules read
    /// each telemetry tick's [`METRICS`] registry, in this order.
    ///
    /// * `warm_miss_rate` — solver warm-start gate misses per attempt;
    ///   misses re-run the multi-start scan (degraded at 0.5, unhealthy at
    ///   0.9; skipped under 4 attempts, so a near-idle tick never trips
    ///   it).
    /// * `stale_tags` — the `streaming.stale_tags` gauge, tags whose tick
    ///   produced no estimate (degraded at 1, unhealthy at 4).
    /// * `no_estimates` — consecutive ticks with windows attempted and none
    ///   ok (degraded at 3, unhealthy at 6); a tick with an estimate, or
    ///   with no window attempted, ends the streak.
    #[derive(Debug, Clone, Default)]
    pub struct StreamingHealth {
        /// Consecutive ticks with windows attempted and none ok.
        stalled: u32,
    }

    impl StreamingHealth {
        /// The verdict on one tick's registry: the worst rule level, with
        /// one reason per tripped rule.
        pub fn observe(&mut self, tick: &Registry) -> HealthReport {
            use super::id;
            let mut reasons = Vec::new();
            let misses = tick.counter(id::SOLVER_WARM_MISSES);
            let attempts = tick.counter(id::SOLVER_WARM_HITS) + misses;
            if attempts >= 4 {
                let rate = misses as f64 / attempts as f64;
                judge(&mut reasons, "warm_miss_rate", rate, 0.5, 0.9);
            }
            judge(&mut reasons, "stale_tags", tick.gauge(id::STREAMING_STALE_TAGS), 1.0, 4.0);
            let stalled = tick.counter(id::PIPELINE_WINDOWS_TOTAL) > 0
                && tick.counter(id::PIPELINE_WINDOWS_OK) == 0;
            self.stalled = if stalled { self.stalled + 1 } else { 0 };
            judge(&mut reasons, "no_estimates", f64::from(self.stalled), 3.0, 6.0);
            let verdict = reasons.iter().map(|r| r.level).max().unwrap_or(Health::Healthy);
            HealthReport { verdict, reasons }
        }
    }

    /// Adds rule `rule`'s reason when `value` reaches its degraded or
    /// unhealthy threshold.
    fn judge(
        reasons: &mut Vec<HealthReason>,
        rule: &str,
        value: f64,
        degraded_at: f64,
        unhealthy_at: f64,
    ) {
        let (level, threshold) = if value >= unhealthy_at {
            (Health::Unhealthy, unhealthy_at)
        } else if value >= degraded_at {
            (Health::Degraded, degraded_at)
        } else {
            return;
        };
        reasons.push(HealthReason { rule: rule.to_string(), level, value, threshold });
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
            assert_eq!(METRICS[BATCH_WORKERS].kind, MetricKind::Gauge);
            assert_eq!(METRICS[SENSE_LATENCY_US].kind, MetricKind::Histogram);
            assert_eq!(METRICS[STREAMING_ADVANCE_LATENCY_US].kind, MetricKind::Histogram);
            assert_eq!(METRICS[STREAMING_STALE_TAGS].kind, MetricKind::Gauge);
        }

        /// One tick's registry: `hits` and `misses` warm starts, `stale`
        /// tags, and `attempted` windows of which `ok` gave an estimate.
        fn tick(hits: u64, misses: u64, stale: f64, attempted: u64, ok: u64) -> Registry {
            use crate::obs::id::*;
            let mut r = Registry::new(METRICS);
            r.add(SOLVER_WARM_HITS, hits);
            r.add(SOLVER_WARM_MISSES, misses);
            r.set(STREAMING_STALE_TAGS, stale);
            r.add(PIPELINE_WINDOWS_TOTAL, attempted);
            r.add(PIPELINE_WINDOWS_OK, ok);
            r
        }

        /// A report's reasons as `(rule, level, value, threshold)`.
        fn reasons(report: &HealthReport) -> Vec<(&str, Health, f64, f64)> {
            report
                .reasons
                .iter()
                .map(|r| (r.rule.as_str(), r.level, r.value, r.threshold))
                .collect()
        }

        #[test]
        fn warm_miss_rate_needs_four_attempts_and_trips_at_half_and_nine_tenths() {
            let mut health = StreamingHealth::default();
            let report = health.observe(&tick(0, 3, 0.0, 10, 10));
            assert_eq!(report.verdict, Health::Healthy, "3 attempts are under the floor");
            assert!(report.reasons.is_empty());
            let report = health.observe(&tick(2, 2, 0.0, 10, 10));
            assert_eq!(report.verdict, Health::Degraded);
            assert_eq!(reasons(&report), [("warm_miss_rate", Health::Degraded, 0.5, 0.5)]);
            let report = health.observe(&tick(1, 9, 0.0, 10, 10));
            assert_eq!(report.verdict, Health::Unhealthy);
            assert_eq!(reasons(&report), [("warm_miss_rate", Health::Unhealthy, 0.9, 0.9)]);
        }

        #[test]
        fn stale_tags_trip_at_one_and_four() {
            let mut health = StreamingHealth::default();
            assert_eq!(health.observe(&tick(0, 0, 0.0, 10, 10)).verdict, Health::Healthy);
            let report = health.observe(&tick(0, 0, 1.0, 10, 10));
            assert_eq!(report.verdict, Health::Degraded);
            assert_eq!(reasons(&report), [("stale_tags", Health::Degraded, 1.0, 1.0)]);
            let report = health.observe(&tick(0, 0, 3.0, 10, 10));
            assert_eq!(reasons(&report), [("stale_tags", Health::Degraded, 3.0, 1.0)]);
            let report = health.observe(&tick(0, 0, 4.0, 10, 10));
            assert_eq!(report.verdict, Health::Unhealthy);
            assert_eq!(reasons(&report), [("stale_tags", Health::Unhealthy, 4.0, 4.0)]);
        }

        #[test]
        fn no_estimates_trips_after_three_and_six_stalled_ticks() {
            let mut health = StreamingHealth::default();
            let stalled = tick(0, 0, 0.0, 8, 0);
            for _ in 0..2 {
                assert_eq!(health.observe(&stalled).verdict, Health::Healthy);
            }
            let report = health.observe(&stalled);
            assert_eq!(report.verdict, Health::Degraded);
            assert_eq!(reasons(&report), [("no_estimates", Health::Degraded, 3.0, 3.0)]);
            for _ in 0..2 {
                assert_eq!(health.observe(&stalled).verdict, Health::Degraded);
            }
            let report = health.observe(&stalled);
            assert_eq!(report.verdict, Health::Unhealthy);
            assert_eq!(reasons(&report), [("no_estimates", Health::Unhealthy, 6.0, 6.0)]);
            // A tick with an estimate ends the streak.
            assert_eq!(health.observe(&tick(0, 0, 0.0, 8, 1)).verdict, Health::Healthy);
            assert_eq!(health.observe(&stalled).verdict, Health::Healthy);
            // So does a tick that attempted no window.
            health.observe(&stalled);
            assert_eq!(health.observe(&stalled).verdict, Health::Degraded);
            assert_eq!(health.observe(&tick(0, 0, 0.0, 0, 0)).verdict, Health::Healthy);
            assert_eq!(health.observe(&stalled).verdict, Health::Healthy);
        }

        #[test]
        fn reasons_keep_rule_order_and_the_worst_level_wins() {
            let mut health = StreamingHealth::default();
            for _ in 0..2 {
                health.observe(&tick(0, 0, 0.0, 8, 0));
            }
            let report = health.observe(&tick(2, 2, 4.0, 8, 0));
            assert_eq!(report.verdict, Health::Unhealthy);
            assert_eq!(
                reasons(&report),
                [
                    ("warm_miss_rate", Health::Degraded, 0.5, 0.5),
                    ("stale_tags", Health::Unhealthy, 4.0, 4.0),
                    ("no_estimates", Health::Degraded, 3.0, 3.0),
                ]
            );
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
