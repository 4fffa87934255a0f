//! State-of-the-art baselines the paper compares RF-Prism against.
//!
//! The original systems are closed-source MATLAB pipelines; each is
//! re-implemented here from its published description, operating on exactly
//! the same raw reads as RF-Prism so the comparisons are apples-to-apples:
//!
//! * [`mobitagbot`] — *MobiTagbot* (Shangguan & Jamieson, MobiSys'16): a
//!   channel-hopping hologram localizer. It matches the measured wrapped
//!   phases across channels and antennas against a propagation-only
//!   hypothesis, after a standard one-time bare-tag calibration. It cannot
//!   model orientation- or material-induced phase terms, which is the
//!   paper's point (Figs. 14–16): equal to RF-Prism when those factors are
//!   frozen, ~20 % worse under rotation, ~3× worse under material changes.
//! * [`tagtag`] — *Tagtag* (Xie et al., SenSys'19): material identification
//!   from phase/RSS curves. Distance is crudely removed with an
//!   RSS-derived range estimate and orientation with per-curve
//!   de-meaning (their channel-hopping trick); the residual curves are
//!   matched with DTW. Degrades when the RSS ranging is biased
//!   (Figs. 17–20).
//! * [`dtw`] — Dynamic Time Warping distance and the 1-NN DTW classifier
//!   that Tagtag matches its curves with.
//! * [`backpos`] — *BackPos* (Liu et al., TMC'15): hyperbolic positioning
//!   from pairwise phase differences. Implemented here on slope
//!   differences (its modern multi-frequency form); included as an extra
//!   reference point for the localization benches.
//!
//! The baselines exist only to evaluate RF-Prism: the `rf-prism` facade
//! takes this crate as a dev-dependency, for its comparison tests, and
//! the `rfp-bench` harness runs it for Figs. 14–20.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backpos;
pub mod dtw;
pub mod mobitagbot;
pub mod tagtag;

pub use backpos::BackPos;
pub use mobitagbot::MobiTagbot;
pub use tagtag::Tagtag;
