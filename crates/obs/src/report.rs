//! Run reports: an owned, serializable snapshot of one [`Recorder`],
//! with three sinks — a versioned JSON document, a human-readable summary
//! table, and a Prometheus-style text exposition.
//!
//! The JSON schema is stable and versioned (`schema_version`, currently
//! [`SCHEMA_VERSION`]); [`RunReport::to_json`]'s document reads back
//! through [`JsonValue::parse`] exactly, field for field, which the schema
//! test pins. Bench snapshot writers
//! reuse the same serializer through [`snapshot`] / [`write_json`] so every
//! machine-readable artifact this workspace emits shares one format.

use crate::health::HealthReport;
use crate::json::JsonValue;
use crate::metrics::{MetricKind, Registry};
use crate::recorder::Recorder;
use std::io;
use std::path::Path;

/// Version stamped into every JSON report and bench snapshot. Bump when a
/// field changes meaning or is removed; adding fields is compatible.
///
/// History: v1 = PR 3 (counters/gauges/spans/histograms); v2 adds
/// histogram `help` + estimated `p50`/`p90`/`p99` and the telemetry-frame
/// record. A reader should accept only the current version.
pub const SCHEMA_VERSION: u64 = 2;

/// One aggregated span in a report: its `/`-joined stage path plus the
/// entry count and total time, in DFS first-entry order.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEntry {
    /// Stage path from the root, joined with `/` (e.g. `sense/solve_2d`).
    pub path: String,
    /// How many times this stage ran.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
}

/// One histogram in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// One-line help text from the descriptor table.
    pub help: String,
    /// Total observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`None` when empty).
    pub min: Option<f64>,
    /// Largest observation (`None` when empty).
    pub max: Option<f64>,
    /// Estimated median (bucket interpolation; `None` when empty).
    pub p50: Option<f64>,
    /// Estimated 90th percentile.
    pub p90: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
    /// Ascending inclusive bucket upper bounds (without `+Inf`).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one longer than `bounds` (`+Inf` overflow last).
    pub buckets: Vec<u64>,
}

/// An owned snapshot of one recorder, ready for any sink.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Report name (e.g. the CLI subcommand that produced it).
    pub name: String,
    /// Free-form key/value context (input file, jobs, …), insertion-ordered.
    pub meta: Vec<(String, String)>,
    /// Flattened span tree, DFS first-entry order.
    pub spans: Vec<SpanEntry>,
    /// Counters, descriptor-table order. Zero-valued counters are kept so
    /// the schema is identical run to run.
    pub counters: Vec<(String, u64)>,
    /// Gauges, descriptor-table order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, descriptor-table order.
    pub histograms: Vec<HistogramEntry>,
}

impl RunReport {
    /// Snapshots `rec` into an owned report named `name`.
    pub fn from_recorder(name: &str, rec: &Recorder) -> RunReport {
        let mut spans = Vec::new();
        let mut path: Vec<&'static str> = Vec::new();
        rec.spans.walk(&mut |depth, node| {
            path.truncate(depth);
            path.push(node.name);
            spans.push(SpanEntry {
                path: path.join("/"),
                count: node.count,
                total_ns: node.total_ns,
            });
        });

        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (idx, def) in rec.metrics.defs().iter().enumerate() {
            match def.kind {
                MetricKind::Counter => {
                    counters.push((def.name.to_string(), rec.metrics.counter(idx)));
                }
                MetricKind::Gauge => {
                    gauges.push((def.name.to_string(), rec.metrics.gauge(idx)));
                }
                MetricKind::Histogram => {
                    let h = rec.metrics.histogram(idx).expect("kind checked");
                    let empty = h.count() == 0;
                    histograms.push(HistogramEntry {
                        name: def.name.to_string(),
                        help: def.help.to_string(),
                        count: h.count(),
                        sum: h.sum(),
                        min: (!empty).then(|| h.min()),
                        max: (!empty).then(|| h.max()),
                        p50: h.quantile(0.5),
                        p90: h.quantile(0.9),
                        p99: h.quantile(0.99),
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts().to_vec(),
                    });
                }
            }
        }

        RunReport { name: name.to_string(), meta: Vec::new(), spans, counters, gauges, histograms }
    }

    /// Appends one meta key/value pair (builder-style).
    pub fn with_meta(mut self, key: &str, value: &str) -> RunReport {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// The versioned JSON document for this report.
    pub fn to_json(&self) -> JsonValue {
        let meta = JsonValue::Obj(
            self.meta.iter().map(|(k, v)| (k.clone(), JsonValue::Str(v.clone()))).collect(),
        );
        let spans = JsonValue::Arr(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::obj(vec![
                        ("path", JsonValue::Str(s.path.clone())),
                        ("count", JsonValue::Num(s.count as f64)),
                        ("total_ns", JsonValue::Num(s.total_ns as f64)),
                    ])
                })
                .collect(),
        );
        let counters = JsonValue::Obj(
            self.counters.iter().map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64))).collect(),
        );
        let gauges = JsonValue::Obj(
            self.gauges.iter().map(|(k, v)| (k.clone(), JsonValue::Num(*v))).collect(),
        );
        let histograms = JsonValue::Arr(
            self.histograms
                .iter()
                .map(|h| {
                    JsonValue::obj(vec![
                        ("name", JsonValue::Str(h.name.clone())),
                        ("help", JsonValue::Str(h.help.clone())),
                        ("count", JsonValue::Num(h.count as f64)),
                        ("sum", JsonValue::Num(h.sum)),
                        ("min", h.min.map_or(JsonValue::Null, JsonValue::Num)),
                        ("max", h.max.map_or(JsonValue::Null, JsonValue::Num)),
                        ("p50", h.p50.map_or(JsonValue::Null, JsonValue::Num)),
                        ("p90", h.p90.map_or(JsonValue::Null, JsonValue::Num)),
                        ("p99", h.p99.map_or(JsonValue::Null, JsonValue::Num)),
                        (
                            "bounds",
                            JsonValue::Arr(h.bounds.iter().map(|&b| JsonValue::Num(b)).collect()),
                        ),
                        (
                            "buckets",
                            JsonValue::Arr(
                                h.buckets.iter().map(|&c| JsonValue::Num(c as f64)).collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::obj(vec![
            ("schema_version", JsonValue::Num(SCHEMA_VERSION as f64)),
            ("name", JsonValue::Str(self.name.clone())),
            ("meta", meta),
            ("spans", spans),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// The human-readable summary table (the CLI's `--trace` output).
    /// Timings are wall-clock; everything else is deterministic.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== run report: {} ==\n", self.name));
        for (k, v) in &self.meta {
            out.push_str(&format!("   {k}: {v}\n"));
        }
        if !self.spans.is_empty() {
            out.push_str("-- spans --\n");
            let width = self
                .spans
                .iter()
                .map(|s| 2 * depth_of(&s.path) + leaf_of(&s.path).len())
                .max()
                .unwrap_or(0)
                .max(16);
            for s in &self.spans {
                let depth = depth_of(&s.path);
                let label = format!("{}{}", "  ".repeat(depth), leaf_of(&s.path));
                out.push_str(&format!(
                    "   {label:<width$}  x{:<6} {}\n",
                    s.count,
                    fmt_ns(s.total_ns)
                ));
            }
        }
        let nonzero: Vec<_> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !nonzero.is_empty() {
            out.push_str("-- counters --\n");
            let width = nonzero.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (k, v) in &nonzero {
                out.push_str(&format!("   {k:<width$}  {v}\n"));
            }
        }
        let live_gauges: Vec<_> = self.gauges.iter().filter(|(_, v)| *v != 0.0).collect();
        if !live_gauges.is_empty() {
            out.push_str("-- gauges --\n");
            let width = live_gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (k, v) in &live_gauges {
                out.push_str(&format!("   {k:<width$}  {v}\n"));
            }
        }
        let live_hists: Vec<_> = self.histograms.iter().filter(|h| h.count > 0).collect();
        if !live_hists.is_empty() {
            out.push_str("-- histograms --\n");
            for h in live_hists {
                let mean = h.sum / h.count as f64;
                out.push_str(&format!(
                    "   {}  n={} mean={:.1} p50={:.1} p90={:.1} p99={:.1} min={:.1} max={:.1}\n",
                    h.name,
                    h.count,
                    mean,
                    h.p50.unwrap_or(0.0),
                    h.p90.unwrap_or(0.0),
                    h.p99.unwrap_or(0.0),
                    h.min.unwrap_or(0.0),
                    h.max.unwrap_or(0.0),
                ));
            }
        }
        out
    }

    /// Prometheus-style text exposition (dots in metric names become
    /// underscores). Counters and gauges emit `# TYPE` + value exactly as
    /// they always have; histograms (added later) also carry a `# HELP`
    /// line and the conventional cumulative `_bucket{le=...}` / `_sum` /
    /// `_count` triplet.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let sanitize = |name: &str| name.replace('.', "_");
        for (k, v) in &self.counters {
            let name = sanitize(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = sanitize(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for h in &self.histograms {
            let name = sanitize(&h.name);
            if !h.help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", h.help));
            }
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                cumulative += c;
                let le = match h.bounds.get(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

/// One periodic telemetry record: one tick's counter deltas and gauge
/// levels, plus an optional health verdict.
/// Serialized compact, one frame per JSONL line.
///
/// Frames deliberately carry **only deterministic data** — counter deltas,
/// gauge levels, health verdicts computed from them — never wall-clock
/// histograms or span timings, so replaying the same log produces
/// byte-identical frames at any worker count. Latency distributions go to
/// the end-of-run report and the Prometheus sink instead.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Frame number within the emitting run, starting at 0.
    pub seq: u64,
    /// The deterministic clock this frame closes (e.g. reads processed).
    pub tick: u64,
    /// The tick's counter deltas, descriptor-table order, zeros kept.
    pub counters: Vec<(String, u64)>,
    /// The tick's gauge levels, descriptor-table order.
    pub gauges: Vec<(String, f64)>,
    /// Health verdict for this tick, when a watchdog is attached.
    pub health: Option<HealthReport>,
}

impl TelemetryFrame {
    /// Builds a frame from one tick's `delta`: a registry that recorded
    /// that tick and nothing else.
    pub fn from_delta(
        seq: u64,
        tick: u64,
        delta: &Registry,
        health: Option<HealthReport>,
    ) -> TelemetryFrame {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for (idx, def) in delta.defs().iter().enumerate() {
            match def.kind {
                MetricKind::Counter => counters.push((def.name.to_string(), delta.counter(idx))),
                MetricKind::Gauge => gauges.push((def.name.to_string(), delta.gauge(idx))),
                MetricKind::Histogram => {} // wall-clock data: excluded by design
            }
        }
        TelemetryFrame { seq, tick, counters, gauges, health }
    }

    /// The frame as a JSON object (stamped with [`SCHEMA_VERSION`]).
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("schema_version".to_string(), JsonValue::Num(SCHEMA_VERSION as f64)),
            ("seq".to_string(), JsonValue::Num(self.seq as f64)),
            ("tick".to_string(), JsonValue::Num(self.tick as f64)),
            (
                "counters".to_string(),
                JsonValue::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                JsonValue::Obj(
                    self.gauges.iter().map(|(k, v)| (k.clone(), JsonValue::Num(*v))).collect(),
                ),
            ),
        ];
        if let Some(health) = &self.health {
            pairs.push(("health".to_string(), health.to_json()));
        }
        JsonValue::Obj(pairs)
    }

    /// The frame as one JSONL line (compact form, no trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        self.to_json().to_compact()
    }
}

fn depth_of(path: &str) -> usize {
    path.matches('/').count()
}

fn leaf_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn fmt_ns(ns: u64) -> String {
    let us = ns as f64 / 1e3;
    if us < 1e3 {
        format!("{us:.1} us")
    } else if us < 1e6 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{:.3} s", us / 1e6)
    }
}

/// Wraps bench-snapshot `fields` in the shared versioned envelope:
/// `schema_version` + `name` + the given fields, in order. Benches write
/// the result with [`write_json`] so every snapshot this workspace emits
/// carries the same version stamp.
pub fn snapshot(name: &str, fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut pairs = vec![
        ("schema_version".to_string(), JsonValue::Num(SCHEMA_VERSION as f64)),
        ("name".to_string(), JsonValue::Str(name.to_string())),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Obj(pairs)
}

/// Writes `value` to `path` in the canonical pretty form.
///
/// # Errors
///
/// Propagates the underlying [`std::fs::write`] error.
pub fn write_json(path: &Path, value: &JsonValue) -> io::Result<()> {
    std::fs::write(path, value.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricDef;
    use crate::recorder;

    static DEFS: &[MetricDef] = &[
        MetricDef::counter("solver.iterations", "LM iterations"),
        MetricDef::counter("solver.solves", "solve calls"),
        MetricDef::gauge("batch.workers", "worker threads"),
        MetricDef::histogram("solve.latency_us", "solve latency", &[100.0, 1000.0]),
    ];

    fn sample_report() -> RunReport {
        let ((), rec) = recorder::observe(DEFS, || {
            let _sense = recorder::span("sense");
            {
                let _solve = recorder::span("solve_2d");
                recorder::counter_add(0, 17);
            }
            recorder::counter_add(1, 1);
            recorder::gauge_set(2, 4.0);
            recorder::observe_value(3, 250.0);
            recorder::observe_value(3, 40.0);
        });
        RunReport::from_recorder("sense", &rec).with_meta("log", "trace.jsonl")
    }

    /// The report a JSON document holds, read back field by field through
    /// [`JsonValue::parse`].
    fn read_report(text: &str) -> RunReport {
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("schema_version").and_then(JsonValue::as_u64), Some(SCHEMA_VERSION));
        let arr = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_arr).unwrap().to_vec();
        let obj = |k: &str| v.get(k).and_then(JsonValue::as_obj).unwrap().to_vec();
        let text = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().into();
        let int = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap();
        let num = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64);
        let nums = |v: &JsonValue, k: &str| -> Vec<f64> {
            arr(v, k).iter().map(|x| x.as_f64().unwrap()).collect()
        };
        RunReport {
            name: text(&v, "name"),
            meta: obj("meta").into_iter().map(|(k, s)| (k, s.as_str().unwrap().into())).collect(),
            spans: arr(&v, "spans")
                .iter()
                .map(|s| SpanEntry {
                    path: text(s, "path"),
                    count: int(s, "count"),
                    total_ns: int(s, "total_ns"),
                })
                .collect(),
            counters: obj("counters").into_iter().map(|(k, n)| (k, n.as_u64().unwrap())).collect(),
            gauges: obj("gauges").into_iter().map(|(k, n)| (k, n.as_f64().unwrap())).collect(),
            histograms: arr(&v, "histograms")
                .iter()
                .map(|h| HistogramEntry {
                    name: text(h, "name"),
                    help: text(h, "help"),
                    count: int(h, "count"),
                    sum: num(h, "sum").unwrap(),
                    min: num(h, "min"),
                    max: num(h, "max"),
                    p50: num(h, "p50"),
                    p90: num(h, "p90"),
                    p99: num(h, "p99"),
                    bounds: nums(h, "bounds"),
                    buckets: nums(h, "buckets").into_iter().map(|c| c as u64).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let back = read_report(&text);
        assert_eq!(back, report);
        // And the document itself is stable under a second pass.
        assert_eq!(back.to_json().to_pretty(), text);
    }

    #[test]
    fn json_carries_schema_version_and_structure() {
        let v = sample_report().to_json();
        assert_eq!(v.get("schema_version").and_then(JsonValue::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("sense"));
        let spans = v.get("spans").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(spans[0].get("path").and_then(JsonValue::as_str), Some("sense"));
        assert_eq!(spans[1].get("path").and_then(JsonValue::as_str), Some("sense/solve_2d"));
        let counters = v.get("counters").and_then(JsonValue::as_obj).unwrap();
        assert_eq!(counters[0].0, "solver.iterations");
    }

    #[test]
    fn empty_histogram_min_max_round_trip_as_null() {
        let ((), rec) = recorder::observe(DEFS, || {});
        let report = RunReport::from_recorder("idle", &rec);
        assert_eq!(report.histograms[0].min, None);
        let text = report.to_json().to_pretty();
        let histograms = JsonValue::parse(&text).unwrap().get("histograms").cloned().unwrap();
        assert_eq!(histograms.as_arr().unwrap()[0].get("min"), Some(&JsonValue::Null));
        assert_eq!(read_report(&text), report);
    }

    #[test]
    fn summary_lists_spans_and_nonzero_counters() {
        let s = sample_report().summary();
        assert!(s.contains("run report: sense"));
        assert!(s.contains("solve_2d"));
        assert!(s.contains("solver.iterations"));
        assert!(s.contains("17"));
        // zero counters are suppressed in the summary...
        assert!(!s.contains("nonexistent"));
        // ...but histograms with data show up.
        assert!(s.contains("solve.latency_us"));
    }

    #[test]
    fn report_carries_help_and_quantiles() {
        let report = sample_report();
        let h = &report.histograms[0];
        assert_eq!(h.help, "solve latency");
        assert!(h.p50.is_some() && h.p90.is_some() && h.p99.is_some());
        assert_eq!(read_report(&report.to_json().to_pretty()), report);
    }

    /// The frame a JSON line holds, read back field by field through
    /// [`JsonValue::parse`].
    fn read_frame(line: &str) -> TelemetryFrame {
        let v = JsonValue::parse(line).unwrap();
        assert_eq!(v.get("schema_version").and_then(JsonValue::as_u64), Some(SCHEMA_VERSION));
        let int = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap();
        let obj = |k: &str| v.get(k).and_then(JsonValue::as_obj).unwrap().to_vec();
        TelemetryFrame {
            seq: int("seq"),
            tick: int("tick"),
            counters: obj("counters").into_iter().map(|(k, n)| (k, n.as_u64().unwrap())).collect(),
            gauges: obj("gauges").into_iter().map(|(k, n)| (k, n.as_f64().unwrap())).collect(),
            health: v.get("health").map(crate::health::tests::read_health),
        }
    }

    #[test]
    fn telemetry_frame_round_trips_and_is_one_line() {
        use crate::health::{Health, HealthReason};
        static FRAME_DEFS: &[MetricDef] = &[
            MetricDef::counter("s.windows", "windows"),
            MetricDef::gauge("s.stale", "stale tags"),
            MetricDef::histogram("s.lat", "latency", &[10.0]),
        ];
        let mut reg = Registry::new(FRAME_DEFS);
        reg.add(0, 7);
        reg.set(1, 2.0);
        reg.observe(2, 5.0); // histogram: must NOT appear in the frame
        let frame = TelemetryFrame::from_delta(
            3,
            400,
            &reg,
            Some(HealthReport {
                verdict: Health::Degraded,
                reasons: vec![HealthReason {
                    rule: "stale_tags".into(),
                    level: Health::Degraded,
                    value: 2.0,
                    threshold: 1.0,
                }],
            }),
        );
        let line = frame.to_jsonl_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"s.windows\":7"));
        assert!(!line.contains("s.lat"), "histograms are excluded from frames");
        assert!(line.contains("\"verdict\":\"degraded\""));
        assert_eq!(read_frame(&line), frame);

        // Health-less frames omit the key entirely and still round-trip.
        let bare = TelemetryFrame::from_delta(0, 100, &reg, None);
        assert!(!bare.to_jsonl_line().contains("health"));
        assert_eq!(read_frame(&bare.to_jsonl_line()), bare);
    }

    #[test]
    fn prometheus_exposition_is_cumulative() {
        let p = sample_report().prometheus();
        assert!(p.contains("# TYPE solver_iterations counter\nsolver_iterations 17\n"));
        assert!(p.contains("batch_workers 4\n"));
        // HELP lines exist for histograms only; counters/gauges keep the
        // original HELP-less format.
        assert!(p.contains("# HELP solve_latency_us solve latency\n"));
        assert!(!p.contains("# HELP solver_iterations"));
        assert!(!p.contains("# HELP batch_workers"));
        assert!(p.contains("solve_latency_us_bucket{le=\"100\"} 1\n"));
        assert!(p.contains("solve_latency_us_bucket{le=\"1000\"} 2\n"));
        assert!(p.contains("solve_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(p.contains("solve_latency_us_count 2\n"));
    }

    #[test]
    fn snapshot_envelope_is_versioned() {
        let v = snapshot("bench_solver", vec![("evals", JsonValue::Num(12.0))]);
        assert_eq!(v.get("schema_version").and_then(JsonValue::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("bench_solver"));
        assert_eq!(v.get("evals").and_then(JsonValue::as_u64), Some(12));
    }
}
