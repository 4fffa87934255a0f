//! Robust line fitting with outlier-channel rejection — the paper's
//! multipath suppression (Section V-D).
//!
//! In a multipath environment the phase readings at different channels
//! suffer different superpositions of the reflected paths. As long as the
//! line-of-sight path dominates, *most* channels still lie on the ideal
//! line while a minority deviate strongly. The paper's insight: 50 channels
//! are far more than a line fit needs, so detect the deviating channels as
//! outliers and fit on the clean remainder.
//!
//! Algorithm: seed with a Theil–Sen fit (robust to ≲29 % corruption),
//! compute residuals, estimate their scale with the MAD, drop points whose
//! residual exceeds `threshold × scale`, refit with OLS, and iterate until
//! the inlier set stabilizes. A floor on the scale prevents the rejection
//! from eating legitimate noise when the data is already clean.
//!
//! Each round computes only what the next round or the result reads
//! (see [`robust_line_fit_with`]).

use crate::linfit::{self, FitError, LineFit};
use crate::stats;
use crate::workspace::{masked_fit_diagnostics, FitWorkspace, OlsSums};

/// Configuration for [`robust_line_fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustFitConfig {
    /// Residuals beyond `threshold × scale` are outliers (default 2.5).
    pub threshold: f64,
    /// Lower bound on the residual scale, radians — protects clean data
    /// from over-rejection (default 0.012, a few× the per-channel phase
    /// noise of the paper-like reader configuration).
    pub scale_floor: f64,
    /// Maximum reject-refit iterations (default 5).
    pub max_iterations: usize,
    /// Never drop below this fraction of the points (default 0.5).
    pub min_inlier_fraction: f64,
}

impl Default for RobustFitConfig {
    fn default() -> Self {
        RobustFitConfig {
            threshold: 2.5,
            scale_floor: 0.012,
            max_iterations: 5,
            min_inlier_fraction: 0.5,
        }
    }
}

/// Result of a robust fit: the final OLS fit on the inliers plus the mask of
/// points that survived.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustFit {
    /// Final fit computed on the inlier subset.
    pub fit: LineFit,
    /// `true` for points kept as inliers (same order as the input).
    pub inliers: Vec<bool>,
    /// Number of reject-refit iterations performed.
    pub iterations: usize,
}

impl RobustFit {
    /// Number of inlier points.
    pub fn inlier_count(&self) -> usize {
        self.inliers.iter().filter(|&&b| b).count()
    }

    /// Fraction of points kept.
    pub fn inlier_fraction(&self) -> f64 {
        self.inlier_count() as f64 / self.inliers.len() as f64
    }
}

/// Robust straight-line fit with iterative outlier rejection.
///
/// # Errors
///
/// Returns [`FitError`] if the initial Theil–Sen fit cannot be computed
/// (fewer than two points, mismatched lengths, degenerate x), or
/// [`FitError::NonFinite`] when a NaN reaches a median or the refit.
///
/// # Example
///
/// ```
/// use rfp_dsp::robust::{robust_line_fit, RobustFitConfig};
/// let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
/// let mut ys: Vec<f64> = xs.iter().map(|x| 0.2 * x + 1.0).collect();
/// ys[7] += 2.0; // one multipath-corrupted channel
/// let r = robust_line_fit(&xs, &ys, &RobustFitConfig::default())?;
/// assert!(!r.inliers[7]);
/// assert!((r.fit.slope - 0.2).abs() < 1e-9);
/// # Ok::<(), rfp_dsp::linfit::FitError>(())
/// ```
pub fn robust_line_fit(
    xs: &[f64],
    ys: &[f64],
    config: &RobustFitConfig,
) -> Result<RobustFit, FitError> {
    let mut ws = FitWorkspace::default();
    let summary = robust_line_fit_with(&mut ws, xs, ys, config)?;
    Ok(RobustFit {
        fit: summary.fit,
        inliers: ws.inlier_mask().to_vec(),
        iterations: summary.iterations,
    })
}

/// Outcome of [`robust_line_fit_with`]: the final inlier fit plus loop
/// bookkeeping. The inlier mask itself stays in the workspace
/// ([`FitWorkspace::inlier_mask`]) so the kernel allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustSummary {
    /// Final fit computed on the inlier subset.
    pub fit: LineFit,
    /// Number of reject-refit iterations performed.
    pub iterations: usize,
    /// Number of points kept as inliers.
    pub inlier_count: usize,
}

impl RobustSummary {
    /// Fraction of the points kept, given the input length.
    pub fn inlier_fraction(&self, n: usize) -> f64 {
        self.inlier_count as f64 / n as f64
    }
}

/// [`robust_line_fit`] against caller-owned scratch, with an incremental
/// refit: the full-set OLS sums (`Σx, Σy, Σxy, Σx²`, anchored at the
/// first abscissa) are accumulated once, and each rejection round
/// *downdates* them by the excluded points instead of re-collecting and
/// refitting the inlier subset from scratch. Zero heap allocations once
/// the workspace buffers are sized.
///
/// The rounds read only the current line, so the Theil–Sen seed skips
/// its diagnostics (they are computed only when `max_iterations` is 0 and
/// the seed is the result), and the refit's diagnostics are computed once,
/// after the last round. The cutoff `threshold × max(MAD·1.4826,
/// scale_floor)` is never below `threshold × scale_floor` when both
/// factors are positive (rounding is monotone), so a round whose
/// |residuals| are all within that keeps every point whatever the MAD is,
/// and skips its two selections; a NaN, zero or negative factor always
/// takes the MAD. The mask, line and iteration count are those of the
/// full computation.
///
/// The refit solution comes from the downdated normal equations rather
/// than a freshly centered two-pass OLS, so the result can differ from
/// the pre-rework implementation in the last couple of ulps (the
/// `frontend_workspace` property suite bounds the difference); the
/// allocating [`robust_line_fit`] delegates here, keeping both public
/// paths bit-identical to each other.
///
/// # Errors
///
/// As [`robust_line_fit`].
pub fn robust_line_fit_with(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
    config: &RobustFitConfig,
) -> Result<RobustSummary, FitError> {
    // The rounds read only the seed's line; its diagnostics are computed
    // only when no round replaces it.
    let (mut slope, mut intercept) = linfit::theil_sen_line(ws, xs, ys)?;
    let n = xs.len();
    ws.inliers.clear();
    ws.inliers.resize(n, true);
    if config.max_iterations == 0 {
        let fit = linfit::theil_sen_fit(xs, ys, slope, intercept);
        return Ok(RobustSummary { fit, iterations: 0, inlier_count: n });
    }
    let min_inliers = ((n as f64 * config.min_inlier_fraction).ceil() as usize).max(2);
    let mut iterations = 0;

    // Full-set sums, downdated per round by the excluded points.
    let mut all = OlsSums::anchored(xs[0]);
    for (&x, &y) in xs.iter().zip(ys) {
        all.add(x, y);
    }
    // The least cutoff the MAD can set, when both factors are positive: a
    // round whose residuals all sit within it keeps every point whatever
    // the MAD is, so it skips the MAD's two selections.
    let floor_cutoff = (config.threshold > 0.0 && config.scale_floor > 0.0)
        .then_some(config.threshold * config.scale_floor);

    let mut sums = all;
    for _ in 0..config.max_iterations {
        iterations += 1;
        ws.resid.clear();
        ws.resid.extend(xs.iter().zip(ys).map(|(&x, &y)| y - (slope * x + intercept)));
        ws.abs_res.clear();
        ws.abs_res.extend(ws.resid.iter().map(|r| r.abs()));
        if ws.abs_res.iter().any(|r| r.is_nan()) {
            return Err(FitError::NonFinite);
        }
        let cutoff = match floor_cutoff {
            Some(floor) if ws.abs_res.iter().all(|&ar| ar <= floor) => floor,
            _ => {
                let scale = (stats::mad_with(&ws.resid, &mut ws.scratch).unwrap_or(0.0)
                    * stats::MAD_TO_SIGMA)
                    .max(config.scale_floor);
                config.threshold * scale
            }
        };

        // The cutoff alone decides the mask whenever it keeps at least
        // `min_inliers` points: those points then fill the first ranks of
        // the residual ranking, so the inlier floor adds nothing. Only
        // when it keeps fewer are the points ranked by residual, so the
        // floor can top the mask up. Unstable sort with the index as a
        // tie-break reproduces the stable ranking without its merge
        // buffer.
        let within = ws.abs_res.iter().filter(|&&ar| ar <= cutoff).count();
        ws.inliers_next.clear();
        if within >= min_inliers {
            ws.inliers_next.extend(ws.abs_res.iter().map(|&ar| ar <= cutoff));
        } else {
            ws.order.clear();
            ws.order.extend(0..n);
            let abs_res = &ws.abs_res;
            ws.order.sort_unstable_by(|&a, &b| {
                abs_res[a].partial_cmp(&abs_res[b]).expect("finite").then(a.cmp(&b))
            });
            ws.inliers_next.resize(n, false);
            for (rank, &idx) in ws.order.iter().enumerate() {
                if rank < min_inliers || ws.abs_res[idx] <= cutoff {
                    ws.inliers_next[idx] = true;
                }
            }
        }
        // Incremental refit: subtract the excluded points from the
        // full-set sums (typically a handful) rather than re-accumulating
        // the inlier subset.
        sums = all;
        for (i, &keep) in ws.inliers_next.iter().enumerate() {
            if !keep {
                sums.remove(xs[i], ys[i]);
            }
        }
        (slope, intercept) = sums.solve()?;

        let converged = ws.inliers_next == ws.inliers;
        std::mem::swap(&mut ws.inliers, &mut ws.inliers_next);
        if converged {
            break;
        }
    }

    // Only the last round's diagnostics are returned: one pass over its
    // mask and line.
    let (r_squared, residual_std) =
        masked_fit_diagnostics(xs, ys, &ws.inliers, slope, intercept, sums.ybar());
    let fit = LineFit { slope, intercept, r_squared, residual_std, n: sums.n };
    Ok(RobustSummary { fit, iterations, inlier_count: sums.n })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(xs: &[f64], slope: f64, intercept: f64) -> Vec<f64> {
        xs.iter().map(|x| slope * x + intercept).collect()
    }

    #[test]
    fn clean_data_keeps_everything() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys = line(&xs, 0.13, -2.0);
        let r = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        assert_eq!(r.inlier_count(), 50);
        assert!((r.fit.slope - 0.13).abs() < 1e-12);
    }

    #[test]
    fn rejects_multipath_like_outliers() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut ys = line(&xs, 0.1, 0.5);
        let corrupted = [3usize, 11, 24, 25, 40, 41, 42];
        for &i in &corrupted {
            ys[i] += if i % 2 == 0 { 1.5 } else { -2.2 };
        }
        let r = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        for &i in &corrupted {
            assert!(!r.inliers[i], "channel {i} should be rejected");
        }
        assert!((r.fit.slope - 0.1).abs() < 1e-9);
        assert!((r.fit.intercept - 0.5).abs() < 1e-9);
    }

    #[test]
    fn respects_min_inlier_fraction() {
        // Half the channels corrupted consistently: the fit cannot drop
        // below the floor.
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut ys = line(&xs, 0.2, 0.0);
        for i in 0..10 {
            ys[i * 2] += 5.0;
        }
        let cfg = RobustFitConfig { min_inlier_fraction: 0.6, ..Default::default() };
        let r = robust_line_fit(&xs, &ys, &cfg).unwrap();
        assert!(r.inlier_fraction() >= 0.6 - 1e-12);
    }

    #[test]
    fn scale_floor_prevents_overrejection_of_noise() {
        // Small Gaussian-ish noise, no outliers: with a sane floor nothing
        // should be rejected.
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 0.1 * x + 0.01 * ((i * 7919 % 13) as f64 - 6.0) / 6.0)
            .collect();
        let r = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        assert_eq!(r.inlier_count(), 50);
    }

    #[test]
    fn propagates_fit_errors() {
        assert!(robust_line_fit(&[1.0], &[1.0], &RobustFitConfig::default()).is_err());
    }

    #[test]
    fn iterations_bounded() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys = line(&xs, 1.0, 0.0);
        let cfg = RobustFitConfig { max_iterations: 3, ..Default::default() };
        let r = robust_line_fit(&xs, &ys, &cfg).unwrap();
        assert!(r.iterations <= 3);
    }

    #[test]
    fn workspace_kernel_matches_allocating_api() {
        let xs: Vec<f64> = (0..50).map(|i| 9.02e8 + 5e5 * i as f64).collect();
        let mut ys = line(&xs, 1.2e-8, 0.4);
        for &i in &[4usize, 18, 33] {
            ys[i] += 1.7;
        }
        let mut ws = FitWorkspace::default();
        for rep in 0..3 {
            let shift = rep as f64 * 0.1;
            let ys2: Vec<f64> = ys.iter().map(|y| y + shift).collect();
            let with = robust_line_fit_with(&mut ws, &xs, &ys2, &RobustFitConfig::default())
                .unwrap();
            let alloc = robust_line_fit(&xs, &ys2, &RobustFitConfig::default()).unwrap();
            assert_eq!(with.fit, alloc.fit);
            assert_eq!(with.iterations, alloc.iterations);
            assert_eq!(with.inlier_count, alloc.inlier_count());
            assert_eq!(ws.inlier_mask(), alloc.inliers.as_slice());
        }
    }
}
