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
//! * [`knn`], [`svm`] — the classifiers Fig. 13 compares the shipped
//!   decision tree (`rfp_ml::tree`) with;
//! * [`forest`], [`mlp`] — the random forest and the small perceptron of
//!   the classifier ablation (the paper's §VII future work);
//! * [`modsel`] — k-fold cross-validated scoring and grid search (the
//!   tuning ablation);
//! * [`metrics`] — accuracy and row-normalized confusion matrices
//!   (Figs. 10–13, 17–20);
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
pub mod forest;
pub mod huber;
pub mod knn;
pub mod loc;
pub mod matid;
pub mod metrics;
pub mod mlp;
pub mod modsel;
pub mod report;
pub mod setup;
pub mod svm;
