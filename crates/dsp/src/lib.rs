//! Signal pre-processing and robust fitting for RF-Prism.
//!
//! This crate implements the paper's *signal pre-processing module*
//! (Section III) and the estimation primitives used by the disentangler:
//!
//! * [`preprocess`] — turning raw per-read reader reports into one clean
//!   unwrapped phase per channel: π-jump correction (COTS readers flip the
//!   reported phase by π at random), circular per-channel averaging, and
//!   2π unwrapping across channels, in two passes over the reads.
//! * [`linfit`] — ordinary/weighted least-squares and Theil–Sen line fits
//!   (one vectorizable sweep over the pairs, the median selected inside a
//!   band around a trimmed least-squares pilot slope) with goodness-of-fit
//!   diagnostics. Linear fitting is the workhorse of
//!   the whole system: the multi-frequency model (paper Eq. 6) reduces each
//!   antenna's observation to the slope and intercept of a line.
//! * [`robust`] — iterative outlier-channel rejection, the paper's
//!   *multipath suppression* (Section V-D): when a minority of channels is
//!   corrupted by frequency-selective multipath, drop them and keep the
//!   "clean" line.
//! * [`streaming`] — the incremental sliding-window front end
//!   ([`StreamingWindow`]): per-channel running sums that grow on read
//!   arrival, with a channel re-accumulated from its kept reads when some
//!   expire, so an advance pays for the reads and channels that changed
//!   instead of a batch recompute, and extracts bit-identically to it; its
//!   robust fit is the batch kernel's.
//! * [`stats`] — small statistics helpers (mean, std, median, MAD,
//!   percentiles) shared by the solver and the experiment harness.
//! * [`trig`] — the pre-processing trigonometry tables: exact sin/cos
//!   lookups by 12-bit reader phase code in two interleaved `[sin, cos]`
//!   tables (bit-identical to libm, proven exhaustively over all 4096
//!   codes); codeless reads call libm.
//! * [`workspace`] — reusable flat scratch buffers
//!   ([`FrontEndWorkspace`], [`FitWorkspace`]) that make the whole front
//!   end allocation-free in steady state; the `*_with` kernel variants in
//!   [`preprocess`], [`linfit`] and [`robust`] run against them.
//!
//! The pre-optimization allocating implementations are frozen verbatim
//! in the dev-only `rfp-oracle` crate (`rfp_oracle::frontend`), the
//! benchmark baseline and property-test oracle of these kernels.
//!
//! # Example: from noisy wrapped samples to a fitted line
//!
//! ```
//! use rfp_dsp::linfit::ols;
//! use rfp_geom::angle;
//!
//! // Wrapped phase samples of a steep line.
//! let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
//! let wrapped: Vec<f64> = xs.iter().map(|x| angle::wrap_tau(0.9 * x + 1.0)).collect();
//! let unwrapped = angle::unwrapped(&wrapped);
//! let fit = ols(&xs, &unwrapped).unwrap();
//! assert!((fit.slope - 0.9).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fold;
pub mod linfit;
pub mod preprocess;
pub mod robust;
pub mod stats;
pub mod streaming;
pub mod trig;
pub mod workspace;

pub use linfit::{ols, theil_sen_with, weighted_ols, LineFit};
pub use preprocess::{
    preprocess_reads, preprocess_reads_with, ChannelObservation, PreprocessConfig, RawRead,
};
pub use robust::{robust_line_fit, robust_line_fit_with, RobustFit, RobustFitConfig, RobustSummary};
pub use streaming::{StreamExtract, StreamingError, StreamingStats, StreamingWindow};
pub use workspace::{FitWorkspace, FrontEndWorkspace, OlsSums};

/// Configuration of the front end, from raw reads to a fitted line: the
/// batch extraction (`rfp_core::model::extract_observation`, which
/// re-exports this type) and every [`StreamingWindow`] run on it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExtractConfig {
    /// Pre-processing options.
    pub preprocess: PreprocessConfig,
    /// Robust-fit (multipath suppression) options.
    pub robust: RobustFitConfig,
    /// When false, skip outlier rejection entirely (used by the Fig. 12
    /// "Multipath without suppression" arm).
    pub suppress_multipath: bool,
}

impl ExtractConfig {
    /// Paper defaults: suppression on.
    pub fn paper() -> Self {
        ExtractConfig {
            preprocess: PreprocessConfig::default(),
            robust: RobustFitConfig::default(),
            suppress_multipath: true,
        }
    }
}
