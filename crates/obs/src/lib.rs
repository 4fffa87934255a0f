//! `rfp-obs` — the RF-Prism instrumentation layer.
//!
//! Three pieces, composable but independent:
//!
//! 1. **Spans** ([`span!`] / [`recorder::span`], backed by
//!    [`span::SpanTree`]): nested, named stage timings recorded into a
//!    thread-local buffer with monotonic clocks. Repeated entries of the
//!    same stage aggregate, so the buffer stays bounded regardless of how
//!    many windows or tags a run processes.
//! 2. **Metrics** ([`Registry`] over a `&'static [MetricDef]` table):
//!    named counters, gauges and fixed-bucket histograms, addressed by
//!    index so the hot path never hashes or allocates.
//! 3. **Sinks** ([`RunReport`]): a human-readable summary table, a
//!    versioned JSON run report (schema pinned by round-trip tests, reused
//!    by the bench snapshot writers), and a Prometheus-style exposition.
//!
//! The crate is std-only with zero dependencies, so anything in the
//! workspace can depend on it. Instrumented crates gate their dependency
//! behind a feature (`rfp-core`'s `obs`) and compile probes down to
//! nothing when it is off; when it is on but no recorder is installed,
//! every probe is one thread-local load and a branch.
//!
//! ```
//! use rfp_obs::{MetricDef, RunReport, recorder};
//!
//! static METRICS: &[MetricDef] = &[
//!     MetricDef::counter("demo.items", "items processed"),
//! ];
//!
//! let (answer, rec) = recorder::observe(METRICS, || {
//!     let _stage = rfp_obs::span!("work");
//!     recorder::counter_add(0, 5);
//!     42
//! });
//! assert_eq!(answer, 42);
//! let report = RunReport::from_recorder("demo", &rec);
//! assert_eq!(report.counters[0], ("demo.items".to_string(), 5));
//! assert!(report.to_json().to_pretty().contains("\"schema_version\": 2"));
//! ```
//!
//! For *continuous* (rather than end-of-run) telemetry, a driver records
//! each tick under a recorder of its own and folds it into the run's with
//! [`Recorder::merge_at_current`], as batch workers do: the tick's
//! [`Registry`] is that tick's delta, and [`TelemetryFrame::from_delta`]
//! turns it into a JSONL record. A watchdog's verdict on the tick rides
//! in the frame as a [`HealthReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod span;

pub use health::{Health, HealthReason, HealthReport};
pub use json::{JsonError, JsonValue};
pub use metrics::{Histogram, MetricDef, MetricKind, Registry};
pub use recorder::{Recorder, SpanGuard};
pub use report::{HistogramEntry, RunReport, SpanEntry, TelemetryFrame, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
pub use span::{SpanNode, SpanTree};
