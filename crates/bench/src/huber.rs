//! Huber IRLS line fitting: the soft multipath-suppression strategy the
//! `ablation_suppression` bench compares against the paper's hard channel
//! rejection (§V-D, `rfp_dsp::robust`).

use rfp_dsp::linfit::{self, FitError};

/// Huber IRLS line fit, `(slope, intercept)`: a soft alternative to hard
/// outlier rejection.
///
/// Iteratively reweighted least squares with Huber weights
/// `w = min(1, delta / |r|)`: residuals below `delta` count fully,
/// larger ones are down-weighted proportionally instead of being dropped.
/// Softer than `robust_line_fit` — it never zeroes a channel, so a
/// *sharp* outlier still leaks a little bias, but smooth heavy-tailed
/// noise is handled more gracefully.
///
/// # Errors
///
/// Propagates [`FitError`] from the underlying weighted fits.
///
/// # Example
///
/// ```
/// use rfp_bench::huber::huber_line_fit;
/// let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
/// let mut ys: Vec<f64> = xs.iter().map(|x| 0.3 * x - 1.0).collect();
/// ys[10] += 5.0;
/// let (slope, _) = huber_line_fit(&xs, &ys, 0.05, 10)?;
/// assert!((slope - 0.3).abs() < 0.01);
/// # Ok::<(), rfp_dsp::linfit::FitError>(())
/// ```
pub fn huber_line_fit(
    xs: &[f64],
    ys: &[f64],
    delta: f64,
    iterations: usize,
) -> Result<(f64, f64), FitError> {
    let (mut slope, mut intercept) = linfit::ols_line(xs, ys)?;
    let mut weights = Vec::with_capacity(xs.len());
    for _ in 0..iterations {
        weights.clear();
        weights.extend(xs.iter().zip(ys).map(|(&x, &y)| {
            let r = (y - (slope * x + intercept)).abs();
            if r <= delta {
                1.0
            } else {
                delta / r
            }
        }));
        let (next_slope, next_intercept) = weighted_line(xs, ys, &weights)?;
        let converged = (next_slope - slope).abs() < 1e-15
            && (next_intercept - intercept).abs() < 1e-12;
        (slope, intercept) = (next_slope, next_intercept);
        if converged {
            break;
        }
    }
    Ok((slope, intercept))
}

/// The weighted least-squares line `(slope, intercept)` of `(xs, ys)`,
/// whose lengths [`linfit::ols_line`] has checked, with one weight per
/// point.
///
/// # Errors
///
/// [`FitError::BadWeights`] when every weight is zero,
/// [`FitError::DegenerateX`] when the weighted abscissae have no spread.
fn weighted_line(xs: &[f64], ys: &[f64], weights: &[f64]) -> Result<(f64, f64), FitError> {
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
    Ok((slope, ybar - slope * xbar))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_ols_on_clean_data() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.2 * x + 3.0).collect();
        let (slope, intercept) = huber_line_fit(&xs, &ys, 0.05, 10).unwrap();
        assert!((slope + 0.2).abs() < 1e-12);
        assert!((intercept - 3.0).abs() < 1e-12);
    }

    #[test]
    fn downweights_spikes() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 0.1 * x).collect();
        for &i in &[5usize, 30, 44] {
            ys[i] -= 3.0;
        }
        let ols_fit = linfit::ols(&xs, &ys).unwrap();
        let (slope, _) = huber_line_fit(&xs, &ys, 0.05, 15).unwrap();
        assert!(
            (slope - 0.1).abs() < (ols_fit.slope - 0.1).abs() / 3.0,
            "huber {} vs ols {}",
            slope,
            ols_fit.slope
        );
    }

    #[test]
    fn propagates_errors() {
        assert!(huber_line_fit(&[1.0], &[1.0], 0.1, 5).is_err());
    }
}
