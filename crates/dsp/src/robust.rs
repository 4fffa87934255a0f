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
/// (fewer than two points, mismatched lengths, degenerate x).
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
    let current = linfit::theil_sen_with(ws, xs, ys)?;
    // Margin 0 disables the decision-sensitivity probe (see
    // [`robust_line_fit_seeded`]); the probe never changes the arithmetic.
    reject_refit_loop(ws, xs, ys, config, 0.0, current).map(|(summary, _)| summary)
}

/// [`robust_line_fit_with`] for incremental callers, with two additions.
///
/// The Theil–Sen *slope* is supplied by the caller instead of recomputed
/// from the O(n²) pairwise enumeration. The caller must pass exactly the
/// median slope [`linfit::theil_sen_with`] would produce on `(xs, ys)` —
/// streaming windows maintain the pairwise-slope multiset incrementally
/// across advances and take the median of the same values in the same
/// order, so the guarantee holds bitwise and the whole fit (seed
/// intercept, diagnostics, every rejection round) is bit-identical to the
/// unseeded call.
///
/// The second return value is a **decision-sensitivity probe**: `true`
/// when any rejection decision of any iteration sat within `margin` of
/// its boundary — a point's absolute residual within `margin` of the
/// cutoff, or the residual gap across the `min_inliers` rank boundary
/// below `margin`. The streaming front end feeds this fit phases that may
/// differ from the batch recompute by up to its downdating drift bound
/// (≪ the margin). If the probe stays `false`, every mask decision
/// cleared its boundary by more than the drift, so the inlier masks are
/// *guaranteed* identical to the batch fit's; if it fires, the caller
/// falls back to the bit-exact full recompute. The probe never changes
/// the arithmetic, and with `margin == 0.0` it cannot fire.
///
/// # Errors
///
/// As [`robust_line_fit`].
pub fn robust_line_fit_seeded(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
    config: &RobustFitConfig,
    margin: f64,
    seed_slope: f64,
) -> Result<(RobustSummary, bool), FitError> {
    let current = linfit::theil_sen_from_slope(ws, xs, ys, seed_slope)?;
    reject_refit_loop(ws, xs, ys, config, margin, current)
}

/// The shared reject-refit loop behind both robust entries, starting from
/// the given seed fit.
fn reject_refit_loop(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
    config: &RobustFitConfig,
    margin: f64,
    mut current: LineFit,
) -> Result<(RobustSummary, bool), FitError> {
    let mut sensitive = false;
    let n = xs.len();
    let min_inliers = ((n as f64 * config.min_inlier_fraction).ceil() as usize).max(2);
    ws.inliers.clear();
    ws.inliers.resize(n, true);
    let mut inlier_count = n;
    let mut iterations = 0;

    // Full-set sums, downdated per round by the excluded points.
    let mut all = OlsSums::anchored(xs[0]);
    for (&x, &y) in xs.iter().zip(ys) {
        all.add(x, y);
    }

    for _ in 0..config.max_iterations {
        iterations += 1;
        ws.resid.clear();
        ws.resid.resize(n, 0.0);
        current.residuals_into(xs, ys, &mut ws.resid);
        ws.abs_res.clear();
        ws.abs_res.extend(ws.resid.iter().map(|r| r.abs()));
        let scale = (stats::mad_with(&ws.resid, &mut ws.scratch).unwrap_or(0.0)
            * stats::MAD_TO_SIGMA)
            .max(config.scale_floor);
        let cutoff = config.threshold * scale;

        // The cutoff alone decides the mask whenever it keeps at least
        // `min_inliers` points: those points then fill the first ranks of
        // the residual ranking, so the inlier floor adds nothing. Only
        // when it keeps fewer are the points ranked by residual, so the
        // floor can top the mask up. Unstable sort with the index as a
        // tie-break reproduces the stable ranking without its merge
        // buffer. A NaN residual takes the ranking too, whose comparator
        // panics on it: the cutoff alone would quietly reject it, and the
        // ranking is the behaviour the mask must reproduce.
        let mut within = 0usize;
        let mut nan = false;
        for &ar in &ws.abs_res {
            within += (ar <= cutoff) as usize;
            nan |= ar.is_nan();
        }
        ws.inliers_next.clear();
        if within >= min_inliers && !nan {
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
        if margin > 0.0 {
            // Cutoff proximity: a residual this close to the cutoff could
            // land on the other side under sub-margin input drift.
            sensitive |= ws.abs_res.iter().any(|&ar| (ar - cutoff).abs() < margin);
            // Rank boundary: near-tied residuals straddling the inlier
            // floor could swap ranks under drift and flip which point the
            // floor retains. Rank only decides membership for points the
            // cutoff would reject, so a tie among clear cutoff-inliers is
            // harmless. The two boundary values are the order statistics
            // of ranks `min_inliers − 1` and `min_inliers`, selected.
            if n > min_inliers {
                ws.scratch.clear();
                ws.scratch.extend_from_slice(&ws.abs_res);
                let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite");
                let (_, last, above) = ws.scratch.select_nth_unstable_by(min_inliers - 1, cmp);
                let floor_last = *last;
                let floor_next = above.iter().copied().fold(f64::INFINITY, f64::min);
                sensitive |=
                    floor_next - floor_last < margin && floor_next > cutoff - margin;
            }
        }

        // Incremental refit: subtract the excluded points from the
        // full-set sums (typically a handful) rather than re-accumulating
        // the inlier subset.
        let mut sums = all;
        for (i, &keep) in ws.inliers_next.iter().enumerate() {
            if !keep {
                sums.remove(xs[i], ys[i]);
            }
        }
        let (slope, intercept) = sums.solve()?;
        let ybar = sums.ybar();
        let (r_squared, residual_std) =
            masked_fit_diagnostics(xs, ys, &ws.inliers_next, slope, intercept, ybar);
        let refit = LineFit { slope, intercept, r_squared, residual_std, n: sums.n };

        let converged = ws.inliers_next == ws.inliers;
        std::mem::swap(&mut ws.inliers, &mut ws.inliers_next);
        inlier_count = sums.n;
        current = refit;
        if converged {
            break;
        }
    }

    Ok((RobustSummary { fit: current, iterations, inlier_count }, sensitive))
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
    fn sensitivity_probe_is_pure_observation() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.3).collect();
        let mut ys = line(&xs, 0.21, 1.4);
        ys[7] += 0.9;
        ys[19] -= 1.1;
        let cfg = RobustFitConfig::default();
        let baseline = robust_line_fit(&xs, &ys, &cfg).unwrap();
        let mut ws = FitWorkspace::default();
        let slope = linfit::theil_sen_with(&mut ws, &xs, &ys).unwrap().slope;
        let (probed, sensitive) =
            robust_line_fit_seeded(&mut ws, &xs, &ys, &cfg, 1e-6, slope).unwrap();
        assert_eq!(probed.fit.slope.to_bits(), baseline.fit.slope.to_bits());
        assert_eq!(probed.fit.intercept.to_bits(), baseline.fit.intercept.to_bits());
        assert_eq!(probed.inlier_count, baseline.inlier_count());
        // Clean margins: outliers sit ~1 rad from a ~0.03 cutoff.
        assert!(!sensitive);
        // A residual parked exactly on the cutoff must trip the probe.
        let (_, near) =
            robust_line_fit_seeded(&mut ws, &xs, &ys, &cfg, 10.0, slope).unwrap();
        assert!(near);
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
