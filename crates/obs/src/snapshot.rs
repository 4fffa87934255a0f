//! Windowed metric snapshots: frozen copies of a [`Registry`]'s numeric
//! state that subtract ([`MetricsSnapshot::delta_since`]) and merge
//! ([`MetricsSnapshot::merge`]), so a long-running session can emit
//! *periodic* telemetry — "what happened in the last window" — instead of
//! one cumulative report at process exit.
//!
//! The intended loop:
//!
//! ```
//! use rfp_obs::{recorder, MetricDef};
//!
//! static METRICS: &[MetricDef] = &[MetricDef::counter("work.items", "items")];
//!
//! let ((), rec) = recorder::observe(METRICS, || {
//!     recorder::counter_add(0, 3);
//! });
//! let mut last = rec.metrics.snapshot();
//! // ... more work happens on `rec.metrics` ...
//! let delta = rec.metrics.snapshot_delta(&last);
//! assert_eq!(delta.counter(0), 0); // nothing since the snapshot
//! last = rec.metrics.snapshot();
//! # let _ = last;
//! ```
//!
//! Deltas follow the registry's own merge discipline — counters and
//! histogram buckets subtract exactly (they are monotone), gauges carry
//! the *current* level — so per-worker deltas merged in worker-index
//! order are deterministic the same way full registries are.

use crate::metrics::{MetricDef, MetricKind, Registry};

/// Frozen numeric state of one histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramState {
    /// Total observation count in the snapshot window.
    pub count: u64,
    /// Sum of observations in the window.
    pub sum: f64,
    /// Per-bucket counts, `+Inf` overflow last (same layout as
    /// [`crate::Histogram::bucket_counts`]).
    pub buckets: Vec<u64>,
}

/// A frozen copy of one [`Registry`]'s numeric state (or of the *change*
/// between two states — the type is closed under
/// [`delta_since`](Self::delta_since) and [`merge`](Self::merge)).
///
/// Values are stored dense, indexed by descriptor-table position, so
/// lookups and arithmetic never search by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    defs: &'static [MetricDef],
    counters: Vec<u64>,
    gauges: Vec<f64>,
    histograms: Vec<Option<HistogramState>>,
}

impl Registry {
    /// Freezes the registry's current numeric state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let defs = self.defs();
        let mut counters = vec![0u64; defs.len()];
        let mut gauges = vec![0f64; defs.len()];
        let mut histograms: Vec<Option<HistogramState>> = vec![None; defs.len()];
        for (idx, def) in defs.iter().enumerate() {
            match def.kind {
                MetricKind::Counter => counters[idx] = self.counter(idx),
                MetricKind::Gauge => gauges[idx] = self.gauge(idx),
                MetricKind::Histogram => {
                    let h = self.histogram(idx).expect("kind checked");
                    histograms[idx] = Some(HistogramState {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.bucket_counts().to_vec(),
                    });
                }
            }
        }
        MetricsSnapshot { defs, counters, gauges, histograms }
    }

    /// [`snapshot`](Self::snapshot) minus `earlier`: what happened since
    /// the earlier snapshot was taken.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` was taken over a different descriptor table.
    pub fn snapshot_delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        self.snapshot().delta_since(earlier)
    }
}

impl MetricsSnapshot {
    /// The descriptor table this snapshot was taken over.
    pub fn defs(&self) -> &'static [MetricDef] {
        self.defs
    }

    /// Counter `idx`'s value in this snapshot (0 for other kinds).
    pub fn counter(&self, idx: usize) -> u64 {
        self.counters.get(idx).copied().unwrap_or(0)
    }

    /// Gauge `idx`'s level in this snapshot (0 for other kinds).
    pub fn gauge(&self, idx: usize) -> f64 {
        self.gauges.get(idx).copied().unwrap_or(0.0)
    }

    /// Histogram `idx`'s frozen state, if that metric is a histogram.
    pub fn histogram(&self, idx: usize) -> Option<&HistogramState> {
        self.histograms.get(idx).and_then(Option::as_ref)
    }

    /// Overwrites gauge `idx`'s level (ignored when out of range). Lets a
    /// driver stamp *derived* gauges — e.g. a stale-tag count computed
    /// across sessions — onto a merged delta before emitting it.
    pub fn set_gauge(&mut self, idx: usize, v: f64) {
        if let Some(g) = self.gauges.get_mut(idx) {
            *g = v;
        }
    }

    /// The windowed difference `self - earlier`: counters and histogram
    /// buckets subtract (saturating, so a reset registry never underflows),
    /// gauges keep `self`'s current level (a gauge is a *state*, not a
    /// flow — the meaningful windowed reading is "where is it now").
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different descriptor tables.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        assert!(
            std::ptr::eq(self.defs, earlier.defs),
            "cannot diff snapshots over different metric tables"
        );
        let counters = self
            .counters
            .iter()
            .zip(&earlier.counters)
            .map(|(now, was)| now.saturating_sub(*was))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .zip(&earlier.histograms)
            .map(|(now, was)| match (now, was) {
                (Some(now), Some(was)) => Some(HistogramState {
                    count: now.count.saturating_sub(was.count),
                    sum: now.sum - was.sum,
                    buckets: now
                        .buckets
                        .iter()
                        .zip(&was.buckets)
                        .map(|(n, w)| n.saturating_sub(*w))
                        .collect(),
                }),
                (now, _) => now.clone(),
            })
            .collect();
        MetricsSnapshot { defs: self.defs, counters, gauges: self.gauges.clone(), histograms }
    }

    /// Element-wise merge of another snapshot (or delta) over the same
    /// table: counters and buckets add, gauges take the maximum — the
    /// exact [`Registry::merge`] rules, so per-worker deltas merged in
    /// index order stay deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different descriptor tables.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        assert!(
            std::ptr::eq(self.defs, other.defs),
            "cannot merge snapshots over different metric tables"
        );
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = a.max(*b);
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    a.count += b.count;
                    a.sum += b.sum;
                    for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                        *x += y;
                    }
                }
                (a @ None, b @ Some(_)) => *a = b.clone(),
                _ => {}
            }
        }
    }

    /// An all-zero snapshot over `defs` — the identity element for
    /// [`merge`](Self::merge), handy as a fold seed.
    pub fn zero(defs: &'static [MetricDef]) -> MetricsSnapshot {
        MetricsSnapshot {
            defs,
            counters: vec![0; defs.len()],
            gauges: vec![0.0; defs.len()],
            histograms: defs
                .iter()
                .map(|d| match d.kind {
                    MetricKind::Histogram => Some(HistogramState {
                        count: 0,
                        sum: 0.0,
                        buckets: vec![0; d.buckets.len() + 1],
                    }),
                    _ => None,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricDef;

    const BOUNDS: &[f64] = &[1.0, 10.0];
    static DEFS: &[MetricDef] = &[
        MetricDef::counter("t.count", "a counter"),
        MetricDef::gauge("t.level", "a gauge"),
        MetricDef::histogram("t.dist", "a histogram", BOUNDS),
    ];

    #[test]
    fn snapshot_freezes_registry_state() {
        let mut r = Registry::new(DEFS);
        r.add(0, 5);
        r.set(1, 2.5);
        r.observe(2, 0.5);
        r.observe(2, 50.0);
        let s = r.snapshot();
        assert_eq!(s.counter(0), 5);
        assert_eq!(s.gauge(1), 2.5);
        let h = s.histogram(2).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets, vec![1, 0, 1]);
        // Later recording does not change the frozen copy.
        r.add(0, 1);
        assert_eq!(s.counter(0), 5);
    }

    #[test]
    fn delta_windows_the_change() {
        let mut r = Registry::new(DEFS);
        r.add(0, 3);
        r.observe(2, 0.5);
        let first = r.snapshot();
        r.add(0, 4);
        r.set(1, 7.0);
        r.observe(2, 5.0);
        let delta = r.snapshot_delta(&first);
        assert_eq!(delta.counter(0), 4);
        assert_eq!(delta.gauge(1), 7.0); // gauges carry the current level
        let h = delta.histogram(2).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets, vec![0, 1, 0]);
        assert!((h.sum - 5.0).abs() < 1e-12);
        // Consecutive deltas tile the total exactly.
        let second = r.snapshot();
        r.add(0, 10);
        let delta2 = r.snapshot_delta(&second);
        assert_eq!(delta.counter(0) + delta2.counter(0) + first.counter(0), r.counter(0));
    }

    #[test]
    fn merge_follows_registry_rules() {
        let mut r1 = Registry::new(DEFS);
        r1.add(0, 2);
        r1.set(1, 3.0);
        r1.observe(2, 0.5);
        let mut r2 = Registry::new(DEFS);
        r2.add(0, 5);
        r2.set(1, 1.0);
        r2.observe(2, 100.0);

        let mut merged = MetricsSnapshot::zero(DEFS);
        merged.merge(&r1.snapshot());
        merged.merge(&r2.snapshot());

        let mut reg = Registry::new(DEFS);
        reg.merge(&r1);
        reg.merge(&r2);
        assert_eq!(merged, reg.snapshot(), "snapshot merge == registry merge");
    }

    #[test]
    #[should_panic]
    fn cross_table_delta_panics() {
        static OTHER: &[MetricDef] = &[MetricDef::counter("o.c", "other")];
        let r = Registry::new(DEFS);
        let other = Registry::new(OTHER).snapshot();
        let _ = r.snapshot_delta(&other);
    }
}
