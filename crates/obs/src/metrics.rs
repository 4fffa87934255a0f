//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms behind compile-time metric descriptors.
//!
//! The design goal is an **allocation-free hot path**: a crate that wants
//! to be instrumented declares one `&'static [MetricDef]` descriptor table
//! and addresses every metric by its index into that table. A [`Registry`]
//! allocates its storage once, at construction, from the descriptor table;
//! recording is then a bounds-checked array access plus an integer add (or
//! a bucket scan for histograms) — no hashing, no string comparison, no
//! allocation.
//!
//! Registries built from the *same* descriptor table merge element-wise
//! ([`Registry::merge`]): counters and histogram buckets add, gauges take
//! the maximum. Addition is commutative, so merging per-worker registries
//! in any fixed order yields the same counter values as a sequential run —
//! the property the batch engine's determinism contract rests on.

/// What kind of value a metric accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone `u64` sum. Merge: addition.
    Counter,
    /// Last-set `f64` level. Merge: maximum (the only commutative choice
    /// that keeps per-worker merges order-independent).
    Gauge,
    /// Fixed-bucket `f64` distribution. Merge: element-wise addition.
    Histogram,
}

/// Compile-time description of one metric: its stable name (dotted
/// lowercase, e.g. `solver2d.residual_evals`), kind, one-line help text
/// and — for histograms — the inclusive upper bounds of its buckets
/// (ascending; an implicit `+Inf` bucket is always appended).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable dotted name, used by every sink.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// One-line description for humans and the Prometheus `# HELP` line.
    pub help: &'static str,
    /// Ascending inclusive bucket upper bounds (histograms only; empty
    /// for counters and gauges).
    pub buckets: &'static [f64],
}

impl MetricDef {
    /// Descriptor for a counter.
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        MetricDef { name, kind: MetricKind::Counter, help, buckets: &[] }
    }

    /// Descriptor for a gauge.
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        MetricDef { name, kind: MetricKind::Gauge, help, buckets: &[] }
    }

    /// Descriptor for a fixed-bucket histogram; `buckets` are the
    /// ascending inclusive upper bounds (`+Inf` is implicit).
    pub const fn histogram(
        name: &'static str,
        help: &'static str,
        buckets: &'static [f64],
    ) -> Self {
        MetricDef { name, kind: MetricKind::Histogram, help, buckets }
    }
}

/// A fixed-bucket histogram: per-bucket counts plus count/sum/min/max.
///
/// Bucket `i` counts observations `v <= bounds[i]` that exceeded every
/// earlier bound; the final bucket (index `bounds.len()`) is the implicit
/// `+Inf` overflow bucket. Bounds come from the [`MetricDef`], so two
/// histograms of the same metric always merge bucket-for-bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The ascending inclusive bucket upper bounds (without the implicit
    /// `+Inf` overflow bucket).
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts; one longer than [`Histogram::bounds`] — the last
    /// entry is the `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed value (`+Inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed value (`-Inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts:
    /// the bucket holding the target rank is found by a cumulative scan,
    /// then the value is linearly interpolated across that bucket's span.
    /// The first bucket interpolates from the observed minimum and the
    /// `+Inf` overflow bucket from its lower bound to the observed
    /// maximum, so the estimate is always inside `[min, max]`. `None`
    /// when the histogram is empty.
    ///
    /// The estimate is exact at bucket edges and off by at most one
    /// bucket width elsewhere — with log-spaced latency buckets that is a
    /// bounded *relative* error, which is what p50/p90/p99 reporting
    /// needs.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                below += c;
                continue;
            }
            if (below + c) as f64 >= rank {
                let lo = if i == 0 { self.min } else { self.bounds[i - 1].max(self.min) };
                let hi = if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
                if hi <= lo {
                    return Some(lo);
                }
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            below += c;
        }
        Some(self.max)
    }

    /// Element-wise merge of another histogram over the same bounds.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert!(std::ptr::eq(self.bounds, other.bounds));
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One metric's current value inside a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// Boxed, so a registry stays small when most of its metrics are
    /// counters: a telemetry replay keeps one registry per tick.
    Histogram(Box<Histogram>),
}

/// The metrics registry: storage for one descriptor table's worth of
/// metrics, addressed by descriptor index. See the module docs for the
/// design rationale; see [`Registry::merge`] for the combination rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    defs: &'static [MetricDef],
    values: Vec<MetricValue>,
}

impl Registry {
    /// Allocates zeroed storage for every metric in `defs`. This is the
    /// only allocating operation; recording never allocates.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        let values = defs
            .iter()
            .map(|d| match d.kind {
                MetricKind::Counter => MetricValue::Counter(0),
                MetricKind::Gauge => MetricValue::Gauge(0.0),
                MetricKind::Histogram => {
                    MetricValue::Histogram(Box::new(Histogram::new(d.buckets)))
                }
            })
            .collect();
        Registry { defs, values }
    }

    /// The descriptor table this registry was built from.
    pub fn defs(&self) -> &'static [MetricDef] {
        self.defs
    }

    /// Adds `n` to counter `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or not a counter.
    #[inline]
    pub fn add(&mut self, idx: usize, n: u64) {
        match &mut self.values[idx] {
            MetricValue::Counter(c) => *c += n,
            _ => panic!("metric {} is not a counter", self.defs[idx].name),
        }
    }

    /// Sets gauge `idx` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or not a gauge.
    #[inline]
    pub fn set(&mut self, idx: usize, v: f64) {
        match &mut self.values[idx] {
            MetricValue::Gauge(g) => *g = v,
            _ => panic!("metric {} is not a gauge", self.defs[idx].name),
        }
    }

    /// Records `v` into histogram `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or not a histogram.
    #[inline]
    pub fn observe(&mut self, idx: usize, v: f64) {
        match &mut self.values[idx] {
            MetricValue::Histogram(h) => h.observe(v),
            _ => panic!("metric {} is not a histogram", self.defs[idx].name),
        }
    }

    /// Current value of counter `idx` (0 for other kinds).
    pub fn counter(&self, idx: usize) -> u64 {
        match &self.values[idx] {
            MetricValue::Counter(c) => *c,
            _ => 0,
        }
    }

    /// Current value of gauge `idx` (0 for other kinds).
    pub fn gauge(&self, idx: usize) -> f64 {
        match &self.values[idx] {
            MetricValue::Gauge(g) => *g,
            _ => 0.0,
        }
    }

    /// Histogram `idx`, if that metric is a histogram.
    pub fn histogram(&self, idx: usize) -> Option<&Histogram> {
        match &self.values[idx] {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Merges another registry built from the same descriptor table:
    /// counters and histograms add element-wise, gauges take the maximum.
    ///
    /// # Panics
    ///
    /// Panics if the two registries use different descriptor tables.
    pub fn merge(&mut self, other: &Registry) {
        assert!(
            std::ptr::eq(self.defs, other.defs),
            "cannot merge registries over different metric tables"
        );
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            match (a, b) {
                (MetricValue::Counter(x), MetricValue::Counter(y)) => *x += y,
                (MetricValue::Gauge(x), MetricValue::Gauge(y)) => *x = x.max(*y),
                (MetricValue::Histogram(x), MetricValue::Histogram(y)) => x.merge(y),
                _ => unreachable!("same defs imply same kinds"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[1.0, 10.0, 100.0];
    const DEFS: &[MetricDef] = &[
        MetricDef::counter("test.count", "a counter"),
        MetricDef::gauge("test.level", "a gauge"),
        MetricDef::histogram("test.dist", "a histogram", BOUNDS),
    ];

    #[test]
    fn histogram_bucketing_places_values_correctly() {
        let mut h = Histogram::new(BOUNDS);
        // At, below, between, and beyond the bounds; bounds are inclusive.
        for v in [0.5, 1.0, 1.5, 10.0, 99.9, 100.0, 100.1, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert!((h.min() - 0.5).abs() < 1e-12);
        assert!((h.max() - 1e9).abs() < 1.0);
        let expect_sum: f64 = 0.5 + 1.0 + 1.5 + 10.0 + 99.9 + 100.0 + 100.1 + 1e9;
        assert!((h.sum() - expect_sum).abs() < 1e-6);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(BOUNDS);
        // 10 observations spread uniformly over (0, 10]: buckets hold
        // [1] <=1.0 and [9] in (1, 10].
        for i in 1..=10 {
            h.observe(i as f64);
        }
        // p0 and p100 pin to the observed extremes.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        // The median rank (5 of 10) lands in the (1, 10] bucket; the
        // interpolated estimate sits between the bucket edges and within
        // one bucket of the true median 5.5.
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 > 1.0 && p50 <= 10.0, "p50 = {p50}");
        let p90 = h.quantile(0.9).unwrap();
        assert!(p90 >= p50 && p90 <= 10.0, "p90 = {p90}");
        // Empty histogram has no quantiles.
        assert_eq!(Histogram::new(BOUNDS).quantile(0.5), None);
        // A single observation is its own quantile everywhere.
        let mut one = Histogram::new(BOUNDS);
        one.observe(42.0);
        assert_eq!(one.quantile(0.5), Some(42.0));
        assert_eq!(one.quantile(0.99), Some(42.0));
        // Overflow-bucket observations interpolate toward the max.
        let mut over = Histogram::new(BOUNDS);
        over.observe(500.0);
        over.observe(900.0);
        let p99 = over.quantile(0.99).unwrap();
        assert!((100.0..=900.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn empty_histogram_reports_infinities() {
        let h = Histogram::new(BOUNDS);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), f64::INFINITY);
        assert_eq!(h.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::new(BOUNDS);
        let mut b = Histogram::new(BOUNDS);
        a.observe(0.5);
        a.observe(50.0);
        b.observe(5.0);
        b.observe(500.0);
        a.merge(&b);
        assert_eq!(a.bucket_counts(), &[1, 1, 1, 1]);
        assert_eq!(a.count(), 4);
        assert!((a.min() - 0.5).abs() < 1e-12);
        assert!((a.max() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn registry_records_and_merges() {
        let mut a = Registry::new(DEFS);
        a.add(0, 3);
        a.set(1, 2.0);
        a.observe(2, 5.0);
        let mut b = Registry::new(DEFS);
        b.add(0, 4);
        b.set(1, 7.0);
        b.observe(2, 50.0);
        a.merge(&b);
        assert_eq!(a.counter(0), 7);
        assert_eq!(a.gauge(1), 7.0); // max
        let h = a.histogram(2).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts(), &[0, 1, 1, 0]);
    }

    #[test]
    #[should_panic]
    fn kind_mismatch_panics() {
        let mut r = Registry::new(DEFS);
        r.add(1, 1); // gauge addressed as counter
    }
}
