//! Huber IRLS line fitting: the soft multipath-suppression strategy the
//! `ablation_suppression` bench compares against the paper's hard channel
//! rejection (§V-D, `rfp_dsp::robust`).

use rfp_dsp::linfit::{self, FitError, LineFit};

/// Huber IRLS line fit: a soft alternative to hard outlier rejection.
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
/// let fit = huber_line_fit(&xs, &ys, 0.05, 10)?;
/// assert!((fit.slope - 0.3).abs() < 0.01);
/// # Ok::<(), rfp_dsp::linfit::FitError>(())
/// ```
pub fn huber_line_fit(
    xs: &[f64],
    ys: &[f64],
    delta: f64,
    iterations: usize,
) -> Result<LineFit, FitError> {
    let mut fit = linfit::ols(xs, ys)?;
    let mut weights = Vec::with_capacity(xs.len());
    for _ in 0..iterations {
        weights.clear();
        weights.extend(xs.iter().zip(ys).map(|(&x, &y)| {
            let r = (y - fit.predict(x)).abs();
            if r <= delta {
                1.0
            } else {
                delta / r
            }
        }));
        let next = linfit::weighted_ols(xs, ys, &weights)?;
        let converged = (next.slope - fit.slope).abs() < 1e-15
            && (next.intercept - fit.intercept).abs() < 1e-12;
        fit = next;
        if converged {
            break;
        }
    }
    Ok(fit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_ols_on_clean_data() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.2 * x + 3.0).collect();
        let h = huber_line_fit(&xs, &ys, 0.05, 10).unwrap();
        assert!((h.slope + 0.2).abs() < 1e-12);
        assert!((h.intercept - 3.0).abs() < 1e-12);
    }

    #[test]
    fn downweights_spikes() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 0.1 * x).collect();
        for &i in &[5usize, 30, 44] {
            ys[i] -= 3.0;
        }
        let ols_fit = linfit::ols(&xs, &ys).unwrap();
        let h = huber_line_fit(&xs, &ys, 0.05, 15).unwrap();
        assert!(
            (h.slope - 0.1).abs() < (ols_fit.slope - 0.1).abs() / 3.0,
            "huber {} vs ols {}",
            h.slope,
            ols_fit.slope
        );
    }

    #[test]
    fn propagates_errors() {
        assert!(huber_line_fit(&[1.0], &[1.0], 0.1, 5).is_err());
    }
}
