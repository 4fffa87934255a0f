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
//! (see [`robust_line_fit_with`]), and a clean window computes no round at
//! all: it is certified.
//!
//! # Certified clean windows
//!
//! When both factors of the cutoff are positive, round 1 keeps every point
//! whose residual about the Theil–Sen line is within the floor cutoff
//! `threshold × scale_floor`, whatever the MAD is. A window where every
//! residual is within it keeps every point; its refit is the least-squares
//! line over all points, and the round converges: 1 iteration, every point
//! an inlier. [`robust_line_fit_with`] proves that before it selects
//! anything, from the pilot band `[lo, hi]` the Theil–Sen median reads
//! ([`linfit`]). Let `sc` be its centre slope, `h = max(hi − sc, sc − lo)`,
//! `fᵢ = yᵢ − sc·xᵢ`, `m` the median of the `fᵢ`, `dev = maxᵢ |fᵢ − m|`
//! and `span = max x − min x`.
//!
//! * When the band covers the median rank(s) of the pairwise slopes, the
//!   Theil–Sen slope `s` lies in it, so `|s − sc| ≤ h`: an odd count's
//!   median is a member of the band, an even count's is the mean of two
//!   members, and rounding the mean keeps it inside.
//! * With `d = s − sc` and `x̄` the middle of the abscissae,
//!   `Gᵢ = yᵢ − s·xᵢ` is `fᵢ − d·x̄` moved by `d·(xᵢ − x̄)`, at most
//!   `|d|·span/2`. The median is 1-Lipschitz in the sup norm, so the
//!   intercept `b = median(G)` is within `|d|·span/2` of `m − d·x̄`, and
//!   every round-1 residual `Gᵢ − b` is at most `dev + h·span` in exact
//!   arithmetic.
//!
//! A window passes the bound below first. Half the spread of the `fᵢ` is
//! at most `dev`, so a window whose spread alone fails it selects no
//! median. Only a window that passes runs one count-only sweep (the
//! pairwise slopes divided as the Theil–Sen sweep divides them, none
//! stored) to confirm that the band covers. It counts the pilot band and
//! one a third as wide around the same slope, and the window is certified
//! against the narrowest band that covers. A window that fails the bound
//! goes on to the Theil–Sen fit with the pilot band it already has. One
//! whose bands do not cover takes the full path too.
//!
//! ## The rounding bound
//!
//! Let `u = 2⁻⁵³` and `p = max|y| + max(|lo|, |hi|)·max(max|x|, 1)`. The
//! certificate requires `8p` finite. No value it or round 1 computes
//! exceeds `6p` (`|fᵢ| ≤ p`, `h·span ≤ 4p`), so none overflows.
//! `η = 2⁻¹⁰⁷⁵` is the most a product that underflows loses. Then:
//!
//! * each `fᵢ`, and each `y − s·x` the Theil–Sen intercept takes, rounds
//!   twice (product, difference): within `2.01u·p + 2η` of exact;
//! * `m` and `b` are medians of those, so within that of the exact
//!   medians (Lipschitz), plus `1.01u·p + η` for an even count's mean;
//! * `dev`, `h`, `span` and `h·span` each round once, down by at most a
//!   factor `1 − u`;
//! * a residual `y − (s·x + b)` rounds three times (product, sum,
//!   difference): `3.01u·p + η`, and a factor `1 + u`.
//!
//! So every round-1 residual is at most
//! `(1 + 5u)·(dev + h·span) + 11.1u·p + 12η`. The certificate compares
//! `(dev + h·span + MARGIN·p)·(1 + MARGIN) + f64::MIN_POSITIVE` with the
//! floor cutoff. `MARGIN = 2⁻⁴⁴ = 512u` covers the factor `1 + 5u` and the
//! four roundings of that value, and covers the `p` term 46 times over.
//! `f64::MIN_POSITIVE` covers the `η` terms. Every window the certificate
//! passes has each round-1 residual within the floor cutoff. The mask,
//! line, diagnostics and iteration count it returns are those of the full
//! computation, bit for bit.

use crate::linfit::{self, FitError, LineFit, Pilot};
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
/// A window the certificate passes (module docs) returns the full-set
/// line, with every point an inlier and 1 iteration, and computes no
/// Theil–Sen line and no round. Otherwise the rounds read only the
/// current line, so the Theil–Sen seed skips its diagnostics (they are
/// computed only when `max_iterations` is 0 and the seed is the result),
/// and the refit's diagnostics are computed once, after the last round.
/// The cutoff `threshold × max(MAD·1.4826, scale_floor)` is never below
/// `threshold × scale_floor` when both factors are positive (rounding is
/// monotone), so a round whose |residuals| are all within that keeps every
/// point whatever the MAD is, and skips its two selections; a NaN, zero or
/// negative factor always takes the MAD. The mask, line and iteration
/// count are those of the full computation.
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
    let pilot = linfit::pilot(ws, xs, ys)?;
    let n = xs.len();
    ws.inliers.clear();
    ws.inliers.resize(n, true);
    // The least cutoff the MAD can set, when both factors are positive: a
    // round whose residuals all sit within it keeps every point whatever
    // the MAD is, so it skips the MAD's two selections.
    let floor_cutoff = (config.threshold > 0.0 && config.scale_floor > 0.0)
        .then_some(config.threshold * config.scale_floor);
    if let (Some(floor), Some(pilot), 1..) = (floor_cutoff, &pilot, config.max_iterations) {
        if certified(ws, xs, ys, pilot, floor) {
            // Round 1 keeps every point: its refit is the full-set line,
            // and it converges.
            #[cfg(test)]
            tests::tally(|t| t.certified += 1);
            if cfg!(debug_assertions) {
                let (s, b) = linfit::theil_sen_line_from(ws, xs, ys, Some(*pilot))
                    .expect("a certified window has a Theil–Sen line");
                debug_assert!(
                    xs.iter().zip(ys).all(|(&x, &y)| (y - (s * x + b)).abs() <= floor),
                    "a certified round-1 residual exceeds the floor cutoff {floor:e}"
                );
            }
            ws.size_rounds(n);
            let all = full_sums(xs, ys);
            let (slope, intercept) = all.solve()?;
            return Ok(summary(ws, xs, ys, all, slope, intercept, 1));
        }
    }
    #[cfg(test)]
    tests::tally(|t| t.full += 1);
    // The rounds read only the seed's line; its diagnostics are computed
    // only when no round replaces it.
    let (mut slope, mut intercept) = linfit::theil_sen_line_from(ws, xs, ys, pilot)?;
    if config.max_iterations == 0 {
        let fit = linfit::line_fit(xs, ys, slope, intercept);
        return Ok(RobustSummary { fit, iterations: 0, inlier_count: n });
    }
    let min_inliers = ((n as f64 * config.min_inlier_fraction).ceil() as usize).max(2);
    let mut iterations = 0;

    // Full-set sums, downdated per round by the excluded points.
    let all = full_sums(xs, ys);
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
    Ok(summary(ws, xs, ys, sums, slope, intercept, iterations))
}

/// The least-squares sums of every point, anchored at the first abscissa.
fn full_sums(xs: &[f64], ys: &[f64]) -> OlsSums {
    let mut all = OlsSums::anchored(xs[0]);
    for (&x, &y) in xs.iter().zip(ys) {
        all.add(x, y);
    }
    all
}

/// The result of the rounds: the line `(slope, intercept)` solved from
/// `sums` over the mask in `ws`, with that mask's diagnostics (one pass
/// over the mask and line).
fn summary(
    ws: &FitWorkspace,
    xs: &[f64],
    ys: &[f64],
    sums: OlsSums,
    slope: f64,
    intercept: f64,
    iterations: usize,
) -> RobustSummary {
    let (r_squared, residual_std) =
        masked_fit_diagnostics(xs, ys, &ws.inliers, slope, intercept, sums.ybar());
    let fit = LineFit { slope, intercept, r_squared, residual_std, n: sums.n };
    RobustSummary { fit, iterations, inlier_count: sums.n }
}

/// The narrower band the certificate counts: the pilot band's half-width
/// divided by this, around the same slope.
const NARROW: f64 = 3.0;

/// The certificate's rounding margin, `2⁻⁴⁴` (module docs).
const MARGIN: f64 = 256.0 * f64::EPSILON;

/// Whether every round-1 residual of `(xs, ys)` about its Theil–Sen line
/// is provably within `cutoff` (module docs): the bound first, against the
/// narrower band, then one count-only sweep to confirm that a band whose
/// bound passes covers the median pairwise slope.
fn certified(ws: &mut FitWorkspace, xs: &[f64], ys: &[f64], pilot: &Pilot, cutoff: f64) -> bool {
    let Some([outer, inner]) = bounds(ws, xs, ys, pilot, cutoff) else {
        return false;
    };
    // The narrower band's bound is the smaller: a window it fails takes
    // the full path with no sweep spent.
    if inner > cutoff {
        return false;
    }
    let [outer_covers, inner_covers] =
        linfit::bands_cover(xs, ys, [pilot.band(1.0), pilot.band(NARROW)]);
    inner_covers || (outer_covers && outer <= cutoff)
}

/// The certificate's bound on every round-1 residual when the pilot band,
/// or the narrower band, covers the median pairwise slope: `[pilot,
/// narrower]` (module docs). `None` when a value could overflow, or when
/// the spread of the `fᵢ` alone puts the narrower band's bound above
/// `cutoff`: `dev` is at least half that spread, so such a window fails
/// with no median selected. Uses the scratch of `ws` for the `fᵢ`.
fn bounds(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
    pilot: &Pilot,
    cutoff: f64,
) -> Option<[f64; 2]> {
    let (lo, hi) = pilot.band(1.0);
    let p = pilot.y_abs + lo.abs().max(hi.abs()) * pilot.x_abs.max(1.0);
    if !(8.0 * p).is_finite() {
        return None;
    }
    let sc = pilot.slope;
    ws.scratch.clear();
    ws.scratch.extend(xs.iter().zip(ys).map(|(&x, &y)| y - sc * x));
    // `h·span` of each band.
    let tilts = [1.0, NARROW].map(|k| {
        let (lo, hi) = pilot.band(k);
        (hi - sc).max(sc - lo) * pilot.x_span
    });
    let (f_lo, f_hi) = ws.scratch.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &f| {
        (lo.min(f), hi.max(f))
    });
    if 0.5 * (f_hi - f_lo) + tilts[1] > cutoff {
        return None;
    }
    let m = stats::median_in_place(&mut ws.scratch).expect("nonempty");
    let dev = ws.scratch.iter().fold(0.0f64, |dev, &f| dev.max((f - m).abs()));
    Some(tilts.map(|tilt| (dev + tilt + MARGIN * p) * (1.0 + MARGIN) + f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::tests::tag_windows;
    use crate::preprocess::{preprocess_reads_with, PreprocessConfig, RawRead};
    use crate::{FrontEndWorkspace, StreamingWindow};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rfp_geom::{Vec2, Vec3};
    use rfp_phys::Material;
    use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};
    use std::cell::Cell;

    /// Which path the robust fits on this thread took.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Tally {
        /// Windows certified clean.
        pub certified: usize,
        /// Windows that took the Theil–Sen line and the rounds.
        pub full: usize,
    }

    thread_local! {
        static TALLY: Cell<Tally> = Cell::new(Tally::default());
    }

    /// Updates this thread's tally.
    pub(super) fn tally(f: impl FnOnce(&mut Tally)) {
        TALLY.with(|c| {
            let mut t = c.get();
            f(&mut t);
            c.set(t);
        });
    }

    /// Which paths `f` made the robust fit take.
    fn tallied(f: impl FnOnce()) -> Tally {
        TALLY.with(|c| c.set(Tally::default()));
        f();
        TALLY.with(Cell::get)
    }

    /// [`robust_line_fit_with`] as it was before the certificate,
    /// verbatim: the reference its certified path is pinned to.
    fn reference(
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
            let fit = linfit::line_fit(xs, ys, slope, intercept);
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

    /// Asserts that the kernel, on `ws`, and the reference, on a fresh
    /// workspace, agree on `(xs, ys)` under `config`: the fit's bits, the
    /// iteration and inlier counts and the mask, or the error variant.
    fn assert_matches_reference(
        ws: &mut FitWorkspace,
        xs: &[f64],
        ys: &[f64],
        config: &RobustFitConfig,
        ctx: &str,
    ) {
        let mut reference_ws = FitWorkspace::default();
        let expected = reference(&mut reference_ws, xs, ys, config);
        match (robust_line_fit_with(ws, xs, ys, config), expected) {
            (Ok(a), Ok(e)) => {
                let bits = |s: &RobustSummary| {
                    let f = s.fit;
                    let line = [f.slope, f.intercept, f.r_squared, f.residual_std];
                    (line.map(f64::to_bits), f.n, s.iterations, s.inlier_count)
                };
                assert_eq!(bits(&a), bits(&e), "{ctx}: {a:?} vs {e:?}");
                assert_eq!(ws.inlier_mask(), reference_ws.inlier_mask(), "{ctx}");
            }
            (a, e) => assert_eq!(a, e, "{ctx}"),
        }
    }

    /// The pin's configurations: each factor of the cutoff at its default,
    /// 0, negative, NaN and ∞; 0, 1 and 5 rounds; an inlier floor of none,
    /// half, every point and more.
    fn configs() -> Vec<RobustFitConfig> {
        let d = RobustFitConfig::default();
        let factors = |v: f64| [v, 0.0, -v, f64::NAN, f64::INFINITY];
        let mut out = Vec::new();
        for threshold in factors(d.threshold) {
            for scale_floor in factors(d.scale_floor) {
                for max_iterations in [0, 1, 5] {
                    for min_inlier_fraction in [0.0, 0.5, 1.0, 1.5] {
                        out.push(RobustFitConfig {
                            threshold,
                            scale_floor,
                            max_iterations,
                            min_inlier_fraction,
                        });
                    }
                }
            }
        }
        out
    }

    /// Fit columns: `(frequencies, unwrapped phases)`.
    type Columns = (Vec<f64>, Vec<f64>);

    /// The fit columns the batch front end leaves for each window that
    /// pre-processes.
    fn batch_columns(windows: &[Vec<RawRead>]) -> Vec<Columns> {
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        let mut pool = Vec::new();
        for reads in windows {
            if preprocess_reads_with(&mut ws, reads, &PreprocessConfig::default(), &mut out).is_ok()
            {
                let (xs, ys, _) = ws.fit_columns();
                pool.push((xs.to_vec(), ys.to_vec()));
            }
        }
        pool
    }

    /// The windows of `tags` static tags spread over `scene`'s region, in
    /// its plane or at three heights, bare or attached to the material
    /// classes in turn.
    fn scene_windows(scene: &Scene, tags: u64, planar: bool, attached: bool) -> Vec<Vec<RawRead>> {
        let (lo, hi) = (scene.region().min(), scene.region().max());
        tag_windows(scene, tags, |k| {
            let (i, j) = ((k % 4) as f64 + 0.5, ((k / 4) % 4) as f64 + 0.5);
            let (x, y) = (lo.x + (hi.x - lo.x) * i / 4.0, lo.y + (hi.y - lo.y) * j / 4.0);
            let motion = if planar {
                Motion::planar_static(Vec2::new(x, y), 0.37 * k as f64)
            } else {
                let (theta, phi) = (0.4 + 0.7 * k as f64, 1.9 * k as f64);
                let dipole =
                    Vec3::new(theta.sin() * phi.cos(), theta.sin() * phi.sin(), theta.cos());
                Motion::Static { position: Vec3::new(x, y, 0.3 + 0.9 * (k / 16) as f64), dipole }
            };
            let tag = SimTag::with_seeded_diversity(k).with_motion(motion);
            if attached {
                tag.attached_to(Material::CLASSES[k as usize % Material::CLASSES.len()])
            } else {
                tag
            }
        })
    }

    /// The fit columns of every advance of a streaming window over four
    /// rounds, for `tags` tags streamed for 12 rounds in `standard_2d`.
    fn streaming_columns(tags: u64) -> Vec<Columns> {
        let scene = Scene::standard_2d();
        let round_s = scene.reader().round_duration_s();
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        let mut pool = Vec::new();
        for k in 0..tags {
            let position = Vec2::new(0.3 * k as f64 - 0.4, 1.2 + 0.2 * k as f64);
            let tag = SimTag::with_seeded_diversity(k)
                .with_motion(Motion::planar_static(position, 0.9 * k as f64))
                .attached_to(Material::CLASSES[k as usize]);
            let rounds = rfp_sim::stream_rounds(&scene, &tag, 12, 70 + k);
            let mut windows: Vec<StreamingWindow> =
                rounds[0].per_antenna.iter().map(|_| StreamingWindow::new()).collect();
            for round in &rounds {
                for (win, reads) in windows.iter_mut().zip(&round.per_antenna) {
                    for r in reads {
                        win.push(&RawRead {
                            channel: r.channel,
                            frequency_hz: r.frequency_hz,
                            phase: r.phase,
                            rssi_dbm: r.rssi_dbm,
                            timestamp_s: r.timestamp_s,
                            phase_code: r.phase_code,
                        });
                    }
                    win.expire_before(round.end_time_s - 4.0 * round_s);
                    if win.extract_into(&mut ws, &mut out).is_ok() {
                        let (xs, ys, _) = ws.fit_columns();
                        pool.push((xs.to_vec(), ys.to_vec()));
                    }
                }
            }
        }
        pool
    }

    /// A random line of 5–60 points: reader-plan abscissae in Hz (in order
    /// or shuffled) or small integers, and a slope and intercept of
    /// phase-line size. A third of the lines sit 1e6 rad up with no noise,
    /// so rounding alone makes their residuals; the others carry noise
    /// from none to 0.02 rad. Some lines carry a few outliers.
    fn random_line(rng: &mut StdRng) -> Columns {
        let n = rng.gen_range(5..=60usize);
        let hz = rng.gen_bool(0.7);
        let mut xs: Vec<f64> =
            (0..n).map(|i| if hz { 902.75e6 + 5e5 * i as f64 } else { i as f64 }).collect();
        if rng.gen_bool(0.3) {
            for i in (1..n).rev() {
                xs.swap(i, rng.gen_range(0..=i));
            }
        }
        let slope = if hz { rng.gen_range(-2e-7..2e-7) } else { rng.gen_range(-3.0..3.0) };
        let rounding = rng.gen_bool(0.33);
        let intercept = if rounding { 1e6 } else { 0.0 } + rng.gen_range(-50.0..50.0);
        let noise =
            if rounding { 0.0 } else { [0.0, 1e-4, 3e-3, 0.02][rng.gen_range(0..4usize)] };
        let outliers = if rng.gen_bool(0.3) { rng.gen_range(1..=n / 5 + 1) } else { 0 };
        let mut ys: Vec<f64> =
            xs.iter().map(|&x| slope * x + intercept + noise * rng.gen_range(-1.0..1.0)).collect();
        for _ in 0..outliers {
            let i = rng.gen_range(0..n);
            ys[i] += rng.gen_range(0.05..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        }
        (xs, ys)
    }

    /// The certificate's bounds on `(xs, ys)`, `[pilot, narrower]`, and
    /// whether each band covers; `None` without a pilot band or when a
    /// value could overflow.
    fn certificate(xs: &[f64], ys: &[f64]) -> Option<([f64; 2], [bool; 2])> {
        let mut ws = FitWorkspace::default();
        let pilot = linfit::pilot(&mut ws, xs, ys).ok()??;
        let bounds = bounds(&mut ws, xs, ys, &pilot, f64::INFINITY)?;
        Some((bounds, linfit::bands_cover(xs, ys, [pilot.band(1.0), pilot.band(NARROW)])))
    }

    /// Hostile windows of 0–6 points: NaN and ∞ ordinates, abscissae of
    /// 1e300 Hz, unsorted and duplicate abscissae, mismatched lengths.
    fn hostile_windows(rng: &mut StdRng) -> Vec<Columns> {
        let xs_pick = [0.0, 1.0, 2.0, 2.0, -3.0, 902.75e6, 903.25e6, 1e300, -1e300, 0.5];
        let ys_pick = [0.0, 0.1, -0.2, 1.7, 3.0, 1e6, f64::NAN, f64::INFINITY, -f64::INFINITY];
        let mut pool = Vec::new();
        for k in 0..400usize {
            let n = k % 7;
            let xs: Vec<f64> = (0..n).map(|_| xs_pick[rng.gen_range(0..xs_pick.len())]).collect();
            // Mostly finite ordinates, so that windows also certify.
            let mut ys: Vec<f64> = xs
                .iter()
                .map(|&x| 0.25 * x.clamp(-10.0, 10.0) + rng.gen_range(-1e-3..1e-3))
                .collect();
            if k % 3 == 0 && n > 0 {
                ys[rng.gen_range(0..n)] = ys_pick[rng.gen_range(0..ys_pick.len())];
            }
            if k % 50 == 7 {
                ys.push(0.0);
            }
            pool.push((xs, ys));
        }
        pool
    }

    /// Pin: certified fits equal the previous kernel bit for bit — the fit,
    /// iteration and inlier counts, mask and error variant — on standard
    /// and cluttered survey windows, bare and material-attached, on the
    /// columns of streaming advances, on random lines whose certificate
    /// bound sits at, one ulp either side of and 1e-12 either side of the
    /// floor cutoff, and on hostile windows, under the default
    /// configuration and a grid of hostile ones (each cutoff factor 0,
    /// negative, NaN and ∞; 0, 1 and 5 rounds; inlier floors 0 to above 1).
    /// Every pool runs both the certified and the full path.
    #[test]
    fn certified_fits_match_the_reference_bit_for_bit() {
        let grid = configs();
        let default = RobustFitConfig::default();
        let standard = Scene::standard_2d();
        let cluttered =
            Scene::six_antenna_3d().with_environment(MultipathEnvironment::cluttered(6, 6));
        let pools: [(&str, Vec<Columns>); 5] = [
            ("standard", batch_columns(&scene_windows(&standard, 24, true, false))),
            ("standard attached", batch_columns(&scene_windows(&standard, 24, true, true))),
            ("cluttered", batch_columns(&scene_windows(&cluttered, 16, false, false))),
            ("cluttered attached", batch_columns(&scene_windows(&cluttered, 16, false, true))),
            ("streaming", streaming_columns(3)),
        ];
        let mut ws = FitWorkspace::default();
        for (label, pool) in &pools {
            assert!(pool.len() >= 48, "{label}: {} windows", pool.len());
            let t = tallied(|| {
                for (k, (xs, ys)) in pool.iter().enumerate() {
                    let ctx = format!("{label} window {k}");
                    assert_matches_reference(&mut ws, xs, ys, &default, &ctx);
                    let config = grid[(7 * k) % grid.len()];
                    assert_matches_reference(
                        &mut ws,
                        xs,
                        ys,
                        &config,
                        &format!("{ctx}, {config:?}"),
                    );
                }
            });
            assert!(t.certified > 0 && t.full > 0, "{label}: {t:?}");
        }

        // Random lines at the certificate's edge: each band's bound at the
        // floor cutoff, one ulp and 1e-12 either side. A window certifies
        // exactly when a band that covers has its bound within the cutoff.
        let mut rng = StdRng::seed_from_u64(41);
        let (mut edges, mut paths) = (0, Tally::default());
        for k in 0..600 {
            let (xs, ys) = random_line(&mut rng);
            let Some((bounds, covers)) = certificate(&xs, &ys) else {
                assert_matches_reference(&mut ws, &xs, &ys, &default, &format!("line {k}"));
                continue;
            };
            edges += 1;
            let certifies = |cutoff: f64| bounds.iter().zip(covers).any(|(&b, c)| c && b <= cutoff);
            for bound in bounds {
                for cutoff in
                    [bound, bound.next_up(), bound + 1e-12, bound.next_down(), bound - 1e-12]
                {
                    let mut configs =
                        vec![RobustFitConfig { threshold: 1.0, scale_floor: cutoff, ..default }];
                    // The default threshold, when a scale floor puts the
                    // cutoff exactly there.
                    let floor = cutoff / default.threshold;
                    if let Some(scale_floor) = [floor, floor.next_up(), floor.next_down()]
                        .into_iter()
                        .find(|&f| default.threshold * f == cutoff)
                    {
                        configs.push(RobustFitConfig { scale_floor, ..default });
                    }
                    for (i, config) in configs.iter().enumerate() {
                        let config = RobustFitConfig {
                            max_iterations: [1, 5][(k + i) % 2],
                            min_inlier_fraction: [0.5, 1.5][k % 2],
                            ..*config
                        };
                        let ctx = format!("line {k}, cutoff {cutoff:e}, bounds {bounds:?}");
                        let t =
                            tallied(|| assert_matches_reference(&mut ws, &xs, &ys, &config, &ctx));
                        assert_eq!(t.certified == 1, certifies(cutoff), "{ctx}: {covers:?}, {t:?}");
                        paths.certified += t.certified;
                        paths.full += t.full;
                    }
                }
            }
        }
        assert!(edges >= 300, "{edges} lines reach the edge");
        assert!(paths.certified > 0 && paths.full > 0, "edge lines: {paths:?}");

        // Hostile windows under every configuration of the grid.
        let t = tallied(|| {
            for (k, (xs, ys)) in hostile_windows(&mut rng).iter().enumerate() {
                for config in &grid {
                    let ctx = format!("hostile window {k}: {xs:?}, {ys:?}, {config:?}");
                    assert_matches_reference(&mut ws, xs, ys, config, &ctx);
                }
            }
        });
        assert!(t.certified > 0 && t.full > 0, "hostile windows: {t:?}");
    }

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
