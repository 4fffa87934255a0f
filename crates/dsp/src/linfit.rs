//! Line fitting.
//!
//! The multi-frequency phase model (paper Eq. 6) turns every antenna's
//! 50-channel observation into the slope and intercept of a straight line,
//! so line fitting quality directly bounds sensing accuracy. Three fitters
//! are provided:
//!
//! * [`ols`] — ordinary least squares, the default for clean channels;
//! * [`weighted_ols`] — per-point weights (e.g. read counts per channel);
//! * [`theil_sen`] — median-of-slopes, used to seed the robust multipath
//!   rejection with an estimate that tolerates up to ~29 % corrupted
//!   channels. The median is selected inside a narrow value band around
//!   the OLS slope ([`theil_sen_with`]), so only the ~10 % of pairwise
//!   slopes near it take part in the selection.

use crate::stats;
use crate::workspace::{fit_diagnostics, FitWorkspace};

/// Result of a straight-line fit `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R² ∈ [0, 1] (1 = perfect line).
    /// Defined as 0 when the dependent variable has zero variance and the
    /// fit is exact; `NaN` never escapes.
    pub r_squared: f64,
    /// Standard deviation of the residuals.
    pub residual_std: f64,
    /// Number of points used.
    pub n: usize,
}

impl LineFit {
    /// Predicted value at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Residuals `y − prediction` for the given data.
    ///
    /// Allocates a fresh vector per call — kept for external callers'
    /// convenience. Hot paths inside this workspace use
    /// [`LineFit::residuals_into`] instead.
    pub fn residuals(&self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        xs.iter().zip(ys).map(|(&x, &y)| y - self.predict(x)).collect()
    }

    /// Writes the residuals `y − prediction` into `out` without
    /// allocating. `out` must already have the points' length.
    ///
    /// # Panics
    ///
    /// Panics when `xs`, `ys` and `out` lengths disagree.
    pub fn residuals_into(&self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert_eq!(xs.len(), out.len(), "output length mismatch");
        for ((&x, &y), o) in xs.iter().zip(ys).zip(out.iter_mut()) {
            *o = y - self.predict(x);
        }
    }
}

/// Errors returned by the fitting routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two points (or two distinct x values) were supplied.
    TooFewPoints,
    /// `xs` and `ys` (or `weights`) have different lengths.
    LengthMismatch,
    /// All x values coincide; the slope is undefined.
    DegenerateX,
    /// A weight was negative or all weights were zero.
    BadWeights,
    /// The fitted line is not finite: the sums overflowed.
    NonFinite,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "need at least two points to fit a line"),
            FitError::LengthMismatch => write!(f, "input slices have different lengths"),
            FitError::DegenerateX => write!(f, "all x values coincide; slope undefined"),
            FitError::BadWeights => write!(f, "weights must be non-negative with positive sum"),
            FitError::NonFinite => write!(f, "the fitted line is not finite"),
        }
    }
}

impl std::error::Error for FitError {}

/// Ordinary least-squares line fit.
///
/// # Errors
///
/// Returns [`FitError`] when fewer than two points are given, the slices
/// differ in length, or all x values coincide.
///
/// # Example
///
/// ```
/// use rfp_dsp::linfit::ols;
/// let fit = ols(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0])?;
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// # Ok::<(), rfp_dsp::linfit::FitError>(())
/// ```
pub fn ols(xs: &[f64], ys: &[f64]) -> Result<LineFit, FitError> {
    // Streamed unit-weight specialization of [`weighted_ols`]: identical
    // arithmetic (multiplying by a 1.0 weight is exact), no weight vector.
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let wsum = xs.len() as f64;
    let xbar = xs.iter().sum::<f64>() / wsum;
    let ybar = ys.iter().sum::<f64>() / wsum;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - xbar) * (x - xbar);
        sxy += (x - xbar) * (y - ybar);
    }
    if sxx <= 0.0 {
        return Err(FitError::DegenerateX);
    }
    let slope = sxy / sxx;
    let intercept = ybar - slope * xbar;
    let (r_squared, residual_std) = fit_diagnostics(xs, ys, slope, intercept, ybar);
    Ok(LineFit { slope, intercept, r_squared, residual_std, n: xs.len() })
}

/// Weighted least-squares line fit.
///
/// # Errors
///
/// As [`ols`], plus [`FitError::BadWeights`] when a weight is negative or
/// all weights are zero.
pub fn weighted_ols(xs: &[f64], ys: &[f64], weights: &[f64]) -> Result<LineFit, FitError> {
    if xs.len() != ys.len() || xs.len() != weights.len() {
        return Err(FitError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    if weights.iter().any(|&w| w < 0.0) {
        return Err(FitError::BadWeights);
    }
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return Err(FitError::BadWeights);
    }
    let xbar = xs.iter().zip(weights).map(|(x, w)| x * w).sum::<f64>() / wsum;
    let ybar = ys.iter().zip(weights).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for ((&x, &y), &w) in xs.iter().zip(ys).zip(weights) {
        sxx += w * (x - xbar) * (x - xbar);
        sxy += w * (x - xbar) * (y - ybar);
    }
    if sxx <= 0.0 {
        return Err(FitError::DegenerateX);
    }
    let slope = sxy / sxx;
    let intercept = ybar - slope * xbar;

    // Unweighted diagnostics over the supplied points (weights affect the
    // estimate, not the reported residual scale), streamed without a
    // residual vector.
    let (r_squared, residual_std) = fit_diagnostics(xs, ys, slope, intercept, ybar);
    Ok(LineFit { slope, intercept, r_squared, residual_std, n: xs.len() })
}

/// Theil–Sen estimator: slope is the median of all pairwise slopes,
/// intercept the median of `y − slope·x`.
///
/// Robust to up to ~29 % arbitrarily corrupted points, which is what the
/// multipath-suppression pass needs for its initial estimate. O(n²) pairs —
/// one sweep over the 1,225 pairs of a 50-channel window.
///
/// # Errors
///
/// As [`ols`].
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> Result<LineFit, FitError> {
    theil_sen_with(&mut FitWorkspace::default(), xs, ys)
}

/// [`theil_sen`] against caller-owned scratch, with zero allocations
/// once the slope buffer is sized. Returns the same fit as [`theil_sen`].
///
/// The median of the O(n²) pairwise slopes is selected inside a value
/// band around the [`ols`] slope of the same columns, of half-width
/// `0.5 · σ / x-span` (σ that fit's `residual_std`): one branch-free sweep
/// enumerates the pairs, counts the slopes below the band and keeps only
/// those inside it, and the median is selected among those few
/// (`stats::band_median`). The band partitions the multiset by value,
/// so when it covers the median rank(s) the read-out is exactly the
/// order statistic a selection over every slope picks. When it does not,
/// or the columns are not finite, every slope is collected and selected
/// as before.
///
/// # Errors
///
/// As [`theil_sen`].
pub fn theil_sen_with(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
) -> Result<LineFit, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let slope = match banded_median_slope(ws, xs, ys) {
        Some(slope) => slope,
        None => {
            ws.slopes.clear();
            for i in 0..xs.len() {
                for j in (i + 1)..xs.len() {
                    let dx = xs[j] - xs[i];
                    if dx.abs() > 0.0 {
                        ws.slopes.push((ys[j] - ys[i]) / dx);
                    }
                }
            }
            if ws.slopes.is_empty() {
                return Err(FitError::DegenerateX);
            }
            stats::median_in_place(&mut ws.slopes).expect("nonempty")
        }
    };
    theil_sen_from_slope(ws, xs, ys, slope)
}

/// The median pairwise slope of [`theil_sen_with`] selected inside the
/// band around the OLS slope, or `None` when the band misses the median
/// rank(s) or cannot be placed (non-finite columns or band, no pair with
/// distinct abscissae).
fn banded_median_slope(ws: &mut FitWorkspace, xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len();
    let fit = ols(xs, ys).ok()?;
    let (mut x_lo, mut x_hi, mut y_lo, mut y_hi) =
        (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY);
    for (&x, &y) in xs.iter().zip(ys) {
        (x_lo, x_hi, y_lo, y_hi) = (x_lo.min(x), x_hi.max(x), y_lo.min(y), y_hi.max(y));
    }
    let half = 0.5 * fit.residual_std / (x_hi - x_lo);
    let (lo, hi) = (fit.slope - half, fit.slope + half);
    // Finite spans keep every pair's dx and dy finite, so no slope is NaN
    // and the three-way classification below is total.
    if !((x_hi - x_lo).is_finite() && (y_hi - y_lo).is_finite() && lo.is_finite() && hi.is_finite())
    {
        return None;
    }
    let pairs = n * (n - 1) / 2;
    if ws.slopes.len() < pairs {
        ws.slopes.resize(pairs, 0.0);
    }
    let band = &mut ws.slopes[..pairs];
    let (mut valid, mut below, mut kept) = (0usize, 0usize, 0usize);
    for i in 0..n {
        let (xi, yi) = (xs[i], ys[i]);
        for j in (i + 1)..n {
            let dx = xs[j] - xi;
            let slope = (ys[j] - yi) / dx;
            let ok = dx.abs() > 0.0;
            valid += ok as usize;
            below += (ok & (slope < lo)) as usize;
            // Written unconditionally, kept only when inside the band.
            band[kept] = slope;
            kept += (ok & (slope >= lo) & (slope <= hi)) as usize;
        }
    }
    stats::band_median(&mut band[..kept], below, valid)
}

/// Completes a Theil–Sen fit from a precomputed median pairwise `slope`:
/// intercept is the median of `y − slope·x`, diagnostics are the shared
/// ones. Passing the slope [`theil_sen_with`] would compute on the same
/// columns yields a bit-identical [`LineFit`] — this is the tail of that
/// function, split out so incremental callers that maintain the O(n²)
/// pairwise-slope multiset across sliding-window advances can skip the
/// pair enumeration without changing a single output bit.
///
/// # Errors
///
/// As [`ols`] (length mismatch, fewer than two points).
pub fn theil_sen_from_slope(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
    slope: f64,
) -> Result<LineFit, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    ws.scratch.clear();
    ws.scratch.extend(xs.iter().zip(ys).map(|(&x, &y)| y - slope * x));
    let intercept = stats::median_in_place(&mut ws.scratch).expect("nonempty");

    let ybar = stats::mean(ys).expect("nonempty");
    let (r_squared, residual_std) = fit_diagnostics(xs, ys, slope, intercept, ybar);
    Ok(LineFit { slope, intercept, r_squared, residual_std, n: xs.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = ols(&xs, &ys).unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert_eq!(fit.r_squared, 1.0);
        assert!(fit.residual_std < 1e-12);
        assert_eq!(fit.n, 4);
    }

    #[test]
    fn ols_errors() {
        assert_eq!(ols(&[1.0], &[1.0]).unwrap_err(), FitError::TooFewPoints);
        assert_eq!(ols(&[1.0, 2.0], &[1.0]).unwrap_err(), FitError::LengthMismatch);
        assert_eq!(
            ols(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).unwrap_err(),
            FitError::DegenerateX
        );
    }

    #[test]
    fn ols_r_squared_degrades_with_noise() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let clean: Vec<f64> = xs.iter().map(|x| 0.1 * x).collect();
        let noisy: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 0.1 * x + if i % 2 == 0 { 3.0 } else { -3.0 })
            .collect();
        let f1 = ols(&xs, &clean).unwrap();
        let f2 = ols(&xs, &noisy).unwrap();
        assert!(f1.r_squared > f2.r_squared);
        assert!(f2.residual_std > 2.5);
    }

    #[test]
    fn weighted_ols_ignores_zero_weight_points() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 2.0, 100.0];
        let w = [1.0, 1.0, 1.0, 0.0];
        let fit = weighted_ols(&xs, &ys, &w).unwrap();
        assert!((fit.slope - 1.0).abs() < 1e-12);
        assert!((fit.intercept).abs() < 1e-12);
    }

    #[test]
    fn weighted_ols_bad_weights() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        assert_eq!(
            weighted_ols(&xs, &ys, &[-1.0, 1.0]).unwrap_err(),
            FitError::BadWeights
        );
        assert_eq!(
            weighted_ols(&xs, &ys, &[0.0, 0.0]).unwrap_err(),
            FitError::BadWeights
        );
    }

    #[test]
    fn constant_y_gives_zero_slope_full_r2() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [5.0, 5.0, 5.0];
        let fit = ols(&xs, &ys).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn theil_sen_matches_ols_on_clean_data() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.7 * x + 4.0).collect();
        let fit = theil_sen(&xs, &ys).unwrap();
        assert!((fit.slope + 0.7).abs() < 1e-12);
        assert!((fit.intercept - 4.0).abs() < 1e-12);
    }

    #[test]
    fn theil_sen_shrugs_off_outliers() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 1.5 * x).collect();
        // Corrupt 5 of 20 points badly, all at high x so OLS tilts.
        for i in [15usize, 16, 17, 18, 19] {
            ys[i] += 40.0;
        }
        let ts = theil_sen(&xs, &ys).unwrap();
        let ls = ols(&xs, &ys).unwrap();
        assert!((ts.slope - 1.5).abs() < 0.05, "theil-sen slope {}", ts.slope);
        assert!((ls.slope - 1.5).abs() > 0.1, "ols should be pulled by outliers");
    }

    /// The band around the OLS slope holds the median pairwise slope of a
    /// noisy line (and reads out the full selection's value), and misses
    /// it once a block of channels sits far off the line on one side —
    /// the two windows `frontend_workspace` pins against the reference.
    #[test]
    fn band_hits_on_a_noisy_line_and_misses_under_one_sided_outliers() {
        let xs: Vec<f64> = (0..50).map(|i| 902.75e6 + 5e5 * i as f64).collect();
        let mut ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                1.3e-7 * (x - 902.75e6) + 0.4 + 0.02 * (((i * 7919) % 13) as f64 / 6.0 - 1.0)
            })
            .collect();
        let mut ws = FitWorkspace::default();
        let mut all: Vec<f64> = (0..50)
            .flat_map(|i| ((i + 1)..50).map(move |j| (i, j)))
            .map(|(i, j)| (ys[j] - ys[i]) / (xs[j] - xs[i]))
            .collect();
        let banded = banded_median_slope(&mut ws, &xs, &ys).expect("band covers the median");
        assert_eq!(banded.to_bits(), stats::median_in_place(&mut all).unwrap().to_bits());
        for y in ys.iter_mut().skip(36) {
            *y += 6.0;
        }
        assert_eq!(banded_median_slope(&mut ws, &xs, &ys), None);
    }

    #[test]
    fn predict_and_residuals() {
        let fit = ols(&[0.0, 1.0], &[1.0, 3.0]).unwrap();
        assert!((fit.predict(2.0) - 5.0).abs() < 1e-12);
        let r = fit.residuals(&[0.0, 1.0], &[1.0, 3.0]);
        assert!(r.iter().all(|x| x.abs() < 1e-12));
    }

    #[test]
    fn residuals_into_matches_residuals() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 2.9, 5.2, 6.8];
        let fit = ols(&xs, &ys).unwrap();
        let alloc = fit.residuals(&xs, &ys);
        let mut buf = [0.0; 4];
        fit.residuals_into(&xs, &ys, &mut buf);
        assert_eq!(alloc.as_slice(), buf.as_slice());
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn residuals_into_length_checked() {
        let fit = ols(&[0.0, 1.0], &[1.0, 3.0]).unwrap();
        let mut buf = [0.0; 3];
        fit.residuals_into(&[0.0, 1.0], &[1.0, 3.0], &mut buf);
    }
}
