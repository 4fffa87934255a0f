//! The per-thread recorder: one [`Registry`] plus one [`SpanTree`],
//! installed into a thread-local slot so instrumented code never threads a
//! handle through its call graph.
//!
//! Recording is strictly opt-in: with no recorder installed every probe
//! ([`counter_add`], [`span`], …) is a thread-local load and a branch.
//! Callers that want a report wrap the workload in [`observe`]:
//!
//! ```
//! use rfp_obs::{MetricDef, recorder};
//!
//! static METRICS: &[MetricDef] = &[MetricDef::counter("work.items", "items processed")];
//!
//! let ((), rec) = recorder::observe(METRICS, || {
//!     let _stage = rfp_obs::span!("stage_a");
//!     recorder::counter_add(0, 3);
//! });
//! assert_eq!(rec.metrics.counter(0), 3);
//! assert_eq!(rec.spans.nodes()[0].name, "stage_a");
//! ```
//!
//! Worker threads each install their own recorder and hand it back to the
//! coordinator, which merges them **in worker-index order** into its own
//! ([`absorb`] / [`Recorder::merge_at_current`]) — fixed merge order plus
//! commutative counter addition is what makes multi-worker reports
//! deterministic in everything but wall-clock timings.

use crate::metrics::{MetricDef, Registry};
use crate::span::SpanTree;
use std::cell::RefCell;
use std::time::Instant;

/// A metrics registry and a span tree — everything one thread records.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    /// Counter/gauge/histogram storage.
    pub metrics: Registry,
    /// Aggregated stage timings.
    pub spans: SpanTree,
}

impl Recorder {
    /// A fresh recorder over the descriptor table `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Recorder { metrics: Registry::new(defs), spans: SpanTree::new() }
    }

    /// Merges another recorder produced from the same descriptor table:
    /// metrics merge per [`Registry::merge`]; the other's span forest is
    /// grafted under this recorder's innermost open span (or at top level
    /// if none is open).
    pub fn merge_at_current(&mut self, other: &Recorder) {
        self.metrics.merge(&other.metrics);
        self.spans.merge_at(self.spans.current(), &other.spans);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs `rec` as this thread's recorder, runs `f`, and returns `f`'s
/// result together with the recorder. A previously-installed recorder is
/// saved and restored, so scopes nest.
pub fn observe_with<R>(rec: Recorder, f: impl FnOnce() -> R) -> (R, Recorder) {
    let saved = CURRENT.with(|c| c.borrow_mut().replace(rec));
    let out = f();
    let rec = CURRENT.with(|c| {
        std::mem::replace(&mut *c.borrow_mut(), saved).expect("recorder still installed")
    });
    (out, rec)
}

/// [`observe_with`] against a fresh recorder over `defs`.
pub fn observe<R>(defs: &'static [MetricDef], f: impl FnOnce() -> R) -> (R, Recorder) {
    observe_with(Recorder::new(defs), f)
}

/// Whether a recorder is installed on this thread (i.e. probes record).
#[inline]
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Runs `f` against the installed recorder; does nothing when none is.
#[inline]
pub fn with_current<F: FnOnce(&mut Recorder)>(f: F) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Adds `n` to counter `idx` of the installed recorder, if any.
#[inline]
pub fn counter_add(idx: usize, n: u64) {
    with_current(|r| r.metrics.add(idx, n));
}

/// Sets gauge `idx` of the installed recorder, if any.
#[inline]
pub fn gauge_set(idx: usize, v: f64) {
    with_current(|r| r.metrics.set(idx, v));
}

/// Records `v` into histogram `idx` of the installed recorder, if any.
#[inline]
pub fn observe_value(idx: usize, v: f64) {
    with_current(|r| r.metrics.observe(idx, v));
}

/// Merges a worker's recorder into this thread's recorder (no-op when
/// none is installed); see [`Recorder::merge_at_current`].
pub fn absorb(other: &Recorder) {
    with_current(|r| r.merge_at_current(other));
}

/// RAII guard of one open span; created by [`span`]. Closes and credits
/// the span on drop. Inert (and free beyond one thread-local check) when
/// no recorder was installed at creation.
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when no recorder was active at creation.
    open: Option<(usize, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((idx, start)) = self.open.take() {
            let elapsed = start.elapsed();
            with_current(|r| r.spans.exit(idx, elapsed));
        }
    }
}

/// Opens span `name` on this thread's recorder and returns the guard that
/// closes it. With no recorder installed the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let mut open = None;
    with_current(|r| open = Some(r.spans.enter(name)));
    SpanGuard { open: open.map(|idx| (idx, Instant::now())) }
}

/// Opens a named span on the thread-local recorder, returning its RAII
/// guard — sugar for [`recorder::span`](crate::recorder::span).
///
/// ```
/// # use rfp_obs::{MetricDef, recorder};
/// # static METRICS: &[MetricDef] = &[];
/// # let (_, rec) = recorder::observe(METRICS, || {
/// let _guard = rfp_obs::span!("solve_2d");
/// # });
/// # assert_eq!(rec.spans.nodes()[0].name, "solve_2d");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::recorder::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEFS: &[MetricDef] = &[
        MetricDef::counter("t.count", "counter"),
        MetricDef::histogram("t.lat", "latency", &[10.0, 100.0]),
    ];

    #[test]
    fn probes_without_recorder_are_no_ops() {
        assert!(!active());
        counter_add(0, 1);
        observe_value(1, 5.0);
        let _g = span("orphan");
        // Nothing to assert beyond "did not panic / did not record":
        let ((), rec) = observe(DEFS, || {});
        assert_eq!(rec.metrics.counter(0), 0);
        assert!(rec.spans.nodes().is_empty());
    }

    #[test]
    fn observe_scopes_nest_and_restore() {
        let ((), outer) = observe(DEFS, || {
            counter_add(0, 1);
            let ((), inner) = observe(DEFS, || counter_add(0, 10));
            assert_eq!(inner.metrics.counter(0), 10);
            counter_add(0, 2);
        });
        assert_eq!(outer.metrics.counter(0), 3);
    }

    #[test]
    fn span_guards_nest_through_the_tls() {
        let ((), rec) = observe(DEFS, || {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
        });
        let mut seen = Vec::new();
        rec.spans.walk(&mut |d, n| seen.push((d, n.name, n.count)));
        assert_eq!(seen, vec![(0, "outer", 1), (1, "inner", 1)]);
    }

    #[test]
    fn absorb_merges_worker_into_current() {
        let mut worker = Recorder::new(DEFS);
        worker.metrics.add(0, 5);
        let s = worker.spans.enter("sense");
        worker.spans.exit(s, std::time::Duration::from_millis(1));
        let ((), rec) = observe(DEFS, || {
            let _batch = span("batch");
            absorb(&worker);
            absorb(&worker);
        });
        assert_eq!(rec.metrics.counter(0), 10);
        let mut seen = Vec::new();
        rec.spans.walk(&mut |d, n| seen.push((d, n.name, n.count)));
        assert_eq!(seen, vec![(0, "batch", 1), (1, "sense", 2)]);
    }
}
