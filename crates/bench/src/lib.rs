//! Experiment harness reproducing the RF-Prism paper's evaluation.
//!
//! Every figure of §VI has a corresponding `[[bench]]` target (with
//! `harness = false`) under `benches/`; `cargo bench` runs them all and
//! prints paper-vs-measured rows. This library holds the shared machinery:
//!
//! * [`setup`] — the standard deployment, the paper's 25-point evaluation
//!   grid, tag construction and device calibration;
//! * [`loc`] — localization/orientation trial runner (Figs. 8, 9, 12,
//!   14–16);
//! * [`matid`] — material-identification dataset builder and classifier
//!   evaluation (Figs. 10, 11, 13, 17–20);
//! * [`huber`] — the Huber IRLS line fit of the multipath-suppression
//!   ablation;
//! * [`report`] — consistent console formatting with explicit
//!   paper-reference columns.
//!
//! Absolute numbers come from the simulator substrate, not the authors'
//! testbed; EXPERIMENTS.md records how each measured value compares with
//! the paper's and why the shape is expected to (and does) hold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod huber;
pub mod loc;
pub mod matid;
pub mod report;
pub mod setup;
