//! Streaming sensing sessions: the incremental sliding-window pipeline.
//!
//! A [`StreamingSession`] couples one [`rfp_dsp::StreamingWindow`]
//! per antenna to the warm-started joint solver and the [`TagTracker`].
//! Reads are [`push`](StreamingSession::push)ed as they arrive; each
//! [`advance`](StreamingSession::advance) expires reads older than the
//! window span, re-extracts each antenna's line fit from the *incremental*
//! per-channel running sums (paying for the channels that changed instead
//! of a batch recompute), and runs the pipeline's shared sensing sequence
//! (usable count, mobility detector, solve) with
//! [`crate::solver::solve_2d_tracking_warm`] (an [`LmCore<5>`](crate::LmCore)
//! lane-core facade, so warm streaming solves stay allocation-free) against
//! the prism's seeds, warm-started from the tracker's extrapolated position
//! with a periodically re-anchored warm-gate floor. Each window's extract
//! is bit-identical to the batch pre-processing on the reads it retains (a
//! channel that loses reads is re-derived from the reads it keeps), and
//! the line fits that follow are the batch extraction's own fit tail
//! (the channel-count check, raw fit, robust fit and inlier mask of
//! [`crate::model`]), so streaming never changes results or errors, only
//! cost. The windows borrow the session's one front-end workspace for
//! their fit columns and keep 32 bytes per retained read, so a
//! `standard_2d` tag tracked over a 40 s window holds about 270 KB.
//!
//! ```
//! use rfp_geom::Vec2;
//! use rfp_sim::{Motion, Scene, SimTag};
//!
//! let scene = Scene::standard_2d();
//! let tag = SimTag::with_seeded_diversity(7)
//!     .with_motion(Motion::planar_static(Vec2::new(0.4, 1.3), 0.6));
//! let rounds = rfp_sim::stream_rounds(&scene, &tag, 3, 11);
//! let span = scene.reader().round_duration_s();
//!
//! let prism = rfp_core::RfPrism::new(scene.antenna_poses(), scene.reader().plan)
//!     .with_region(scene.region());
//! let mut session = prism.sense_streaming(span);
//! let mut last = None;
//! for round in &rounds {
//!     for (antenna, reads) in round.per_antenna.iter().enumerate() {
//!         for read in reads {
//!             session.push(antenna, read);
//!         }
//!     }
//!     let result = session.advance(round.end_time_s)?;
//!     last = Some(result.estimate.position);
//!     session.recycle(result);
//! }
//! let err_cm = last.unwrap().distance(Vec2::new(0.4, 1.3)) * 100.0;
//! assert!(err_cm < 40.0, "streaming localization error {err_cm} cm");
//! # Ok::<(), rfp_core::SenseError>(())
//! ```

use crate::model::{fit_observation, AntennaObservation, ExtractConfig, ExtractError};
use crate::obs;
use crate::obs::id::{
    FRONTEND_READS, FRONTEND_TRIG_LIBM_READS, FRONTEND_TRIG_TABLE_READS, FRONTEND_WINDOWS,
    STREAMING_DOWNDATES, STREAMING_REBUILDS, STREAMING_UPDATES,
};
use crate::pipeline::{RfPrism, SenseError, SenseWorkspace, SensingResult};
use crate::solver::{solve_2d_tracking_warm, WarmGate, WarmStart};
use crate::tracking::{TagTracker, TrackerConfig};
use rfp_dsp::preprocess::RawRead;
use rfp_dsp::streaming::{StreamingStats, StreamingWindow};
use rfp_dsp::workspace::FrontEndWorkspace;
use rfp_geom::AntennaPose;

/// A long-lived incremental sensing session over one tag.
///
/// Created by [`RfPrism::sense_streaming`]; owns one sliding window per
/// antenna, one front-end workspace the windows share for their fit
/// columns, the solver scratch space, the warm-start state and a
/// [`TagTracker`], and solves against the prism's seeds. All steady-state
/// allocations happen in the first few advances; afterwards
/// [`push`](Self::push)/[`advance`](Self::advance) are allocation-free as
/// long as results are returned via [`recycle`](Self::recycle).
pub struct StreamingSession<'a> {
    prism: &'a RfPrism,
    windows: Vec<StreamingWindow>,
    workspace: SenseWorkspace,
    tracker: TagTracker,
    window_span_s: f64,
    warm: Option<WarmStart>,
    /// Cached warm-gate floor, re-anchored periodically (tracking solves
    /// of a slowly sliding window share one coarse-scan floor).
    gate: WarmGate,
    stats: StreamingStats,
}

impl RfPrism {
    /// Opens a streaming sensing session: reads pushed via
    /// [`StreamingSession::push`] slide through a window of `window_span_s`
    /// seconds per antenna, and every [`StreamingSession::advance`] pays
    /// only for the reads that arrived or expired since the previous one.
    ///
    /// Every window's line fits run this prism's [`ExtractConfig`]
    /// (`config().extract`) through the batch extraction's fit tail, so a
    /// streaming extract agrees with the batch [`sense`](RfPrism::sense)
    /// on the same retained reads, errors included.
    pub fn sense_streaming(&self, window_span_s: f64) -> StreamingSession<'_> {
        StreamingSession {
            windows: self.poses().iter().map(|_| StreamingWindow::new()).collect(),
            workspace: SenseWorkspace::default(),
            tracker: TagTracker::new(TrackerConfig::default()),
            window_span_s,
            warm: None,
            gate: WarmGate::default(),
            stats: StreamingStats::default(),
            prism: self,
        }
    }
}

impl<'a> StreamingSession<'a> {
    /// Appends one read to `antenna`'s sliding window (O(1): one phasor
    /// lookup and a ring append).
    ///
    /// # Panics
    ///
    /// If `antenna` is out of range for the prism's pose list.
    pub fn push(&mut self, antenna: usize, read: &RawRead) {
        self.windows[antenna].push(read);
    }

    /// The sliding-window span in seconds; reads older than
    /// `now_s - window_span_s` expire on the next [`advance`](Self::advance).
    pub fn window_span_s(&self) -> f64 {
        self.window_span_s
    }

    /// The tag tracker fed by successful advances.
    pub fn tracker(&self) -> &TagTracker {
        &self.tracker
    }

    /// Cumulative incremental-engine statistics over the session's
    /// lifetime (reads pushed, reads expired, channels rebuilt).
    pub fn stats(&self) -> StreamingStats {
        self.stats
    }

    /// Total reads currently retained across all antenna windows.
    pub fn retained_reads(&self) -> usize {
        self.windows.iter().map(StreamingWindow::read_count).sum()
    }

    /// Advances the session to `now_s`: expires reads older than the
    /// window span, incrementally re-extracts every antenna's line fit,
    /// and runs detection + the warm-started joint solve.
    ///
    /// Tracker coupling: the solver is warm-started from the previous
    /// estimate with the position replaced by the tracker's constant-
    /// velocity extrapolation to `now_s`; a successful solve feeds the
    /// tracker back. Stale tracker state (no success within five window
    /// spans) is evicted first, so a long outage re-acquires cold.
    ///
    /// # Errors
    ///
    /// As [`RfPrism::sense`]: fewer than 3 usable antennas, a moving tag
    /// (when rejection is enabled) or a solver failure.
    pub fn advance(&mut self, now_s: f64) -> Result<SensingResult, SenseError> {
        let _sense_span = obs::timed_span(
            "sense_streaming",
            &[obs::id::STREAMING_ADVANCE_LATENCY_US, obs::id::SENSE_LATENCY_US],
        );
        let cutoff = now_s - self.window_span_s;
        let config = self.prism.config();
        // One window's extraction ends where the next one's starts.
        let mut extract_laps = obs::Laps::new(obs::id::STREAMING_EXTRACT_LATENCY_US);
        let result = self.workspace.sense(
            self.prism.poses(),
            config,
            3,
            self.windows.iter_mut(),
            |pose, window, frontend, slot| {
                extract_laps.start();
                window.expire_before(cutoff);
                let extracted = extract_streaming(pose, window, &config.extract, frontend, slot);
                extract_laps.lap();
                extracted
            },
            |observations, solver| {
                // Hold the kinematic state over a few missed/rejected
                // windows, then re-acquire from scratch rather than
                // extrapolate stale velocity across a long gap.
                if self.tracker.evict_stale(now_s, 5.0 * self.window_span_s) {
                    self.warm = None;
                }
                let warm = match (self.warm, self.tracker.extrapolate(now_s)) {
                    (Some(w), Some(position)) => Some(w.with_position(position)),
                    (w, _) => w,
                };
                let estimate = solve_2d_tracking_warm(
                    observations,
                    &self.prism.seeds,
                    &config.solver,
                    solver,
                    warm.as_ref(),
                    &mut self.gate,
                )?;
                self.tracker.observe(estimate.position, now_s);
                self.warm = Some(WarmStart::from_estimate(&estimate));
                Ok(estimate)
            },
        );
        self.drain_window_counters();
        if let Err(SenseError::TagMoving { .. }) = result {
            // Coast the tracker through the rejected window so the next
            // successful advance extrapolates from `now_s`.
            self.tracker.predict_to(now_s);
        }
        result
    }

    /// Returns a [`SensingResult`]'s buffers to the session pool so the
    /// next [`advance`](Self::advance) allocates nothing.
    pub fn recycle(&mut self, result: SensingResult) {
        self.workspace.recycle(result);
    }

    /// Publishes per-window counters accumulated since the last advance,
    /// summed over the windows and under one recorder borrow, and folds
    /// them into the session totals.
    fn drain_window_counters(&mut self) {
        let mut advance = StreamingStats::default();
        let mut trig_hits = [0u64; 2];
        for window in &mut self.windows {
            let StreamingStats { updates, downdates, refit_fallbacks: _, rebuilds } =
                window.take_stats();
            advance.updates += updates;
            advance.downdates += downdates;
            advance.rebuilds += rebuilds;
            let [table, libm] = window.take_trig_hits();
            trig_hits[0] += table;
            trig_hits[1] += libm;
        }
        obs::counters_add(&[
            (STREAMING_UPDATES, advance.updates),
            (STREAMING_DOWNDATES, advance.downdates),
            (STREAMING_REBUILDS, advance.rebuilds),
            (FRONTEND_READS, advance.updates),
            (FRONTEND_TRIG_TABLE_READS, trig_hits[0]),
            (FRONTEND_TRIG_LIBM_READS, trig_hits[1]),
        ]);
        self.stats.updates += advance.updates;
        self.stats.downdates += advance.downdates;
        self.stats.rebuilds += advance.rebuilds;
    }
}

/// The streaming analogue of `extract_observation_into`: the channels and
/// fit columns come from the window's incremental accumulators instead of
/// re-preprocessing raw reads, into the session's one front-end workspace,
/// and the batch fit tail fills `out` from them.
fn extract_streaming(
    pose: AntennaPose,
    window: &mut StreamingWindow,
    config: &ExtractConfig,
    frontend: &mut FrontEndWorkspace,
    out: &mut AntennaObservation,
) -> Result<(), ExtractError> {
    obs::counter_add(FRONTEND_WINDOWS, 1);
    window.extract_into(frontend, &mut out.channels)?;
    fit_observation(pose, config, frontend, out)
}
