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
//! residual exceeds `2.5 × scale`, refit with OLS, and iterate, at most 5
//! rounds, until the inlier set stabilizes. A floor of 0.012 rad on the
//! scale prevents the rejection from eating legitimate noise when the data
//! is already clean, and no round keeps fewer than half the points. These
//! are the procedure's constants: it has one configuration.
//!
//! Each round computes only what the next round or the result reads
//! (see [`robust_line_fit_with`]), and a clean window computes no round at
//! all: it is certified.
//!
//! # Certified clean windows
//!
//! Round 1 keeps every point whose residual about the Theil–Sen line is
//! within the floor cutoff `2.5 × 0.012`, whatever the MAD is. A window
//! where every residual is within it keeps every point; its refit is the
//! least-squares line over all points, and the round converges: 1
//! iteration, every point an inlier. [`robust_line_fit_with`] proves that
//! before it selects anything, from the pilot band `[lo, hi]` the
//! Theil–Sen median reads ([`linfit`]). Let `sc` be its centre slope,
//! `h = max(hi − sc, sc − lo)`, `fᵢ = yᵢ − sc·xᵢ`, `m` the median of the
//! `fᵢ`, `dev = maxᵢ |fᵢ − m|` and `span = max x − min x`.
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

/// Configuration for [`robust_line_fit`]: none. Multipath suppression has
/// one configuration, the paper's (module docs). The type stays only
/// because the frozen benchmark passes `&config.robust` to
/// [`robust_line_fit_with`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustFitConfig {}

/// Residuals beyond `THRESHOLD × scale` are outliers.
const THRESHOLD: f64 = 2.5;
/// Lower bound on the residual scale, radians: it protects clean data from
/// over-rejection (a few× the per-channel phase noise of the paper-like
/// reader configuration).
const SCALE_FLOOR: f64 = 0.012;
/// Maximum reject-refit rounds.
const MAX_ITERATIONS: usize = 5;
/// No round keeps fewer than this fraction of the points.
const MIN_INLIER_FRACTION: f64 = 0.5;
/// The least cutoff the MAD can set: a round whose residuals all sit
/// within it keeps every point whatever the MAD is.
const FLOOR_CUTOFF: f64 = THRESHOLD * SCALE_FLOOR;

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
/// current line, so the Theil–Sen seed computes no diagnostics, and the
/// refit's diagnostics are computed once, after the last round. The cutoff
/// `2.5 × max(MAD·1.4826, 0.012)` is never below the floor cutoff
/// `2.5 × 0.012` (rounding is monotone), so a round whose |residuals| are
/// all within that keeps every point whatever the MAD is, and skips its
/// two selections. The mask, line and iteration count are those of the
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
    _config: &RobustFitConfig,
) -> Result<RobustSummary, FitError> {
    let pilot = linfit::pilot(ws, xs, ys)?;
    let n = xs.len();
    ws.inliers.clear();
    ws.inliers.resize(n, true);
    if let Some(pilot) = &pilot {
        if certified(ws, xs, ys, pilot) {
            // Round 1 keeps every point: its refit is the full-set line,
            // and it converges.
            #[cfg(test)]
            tests::tally(|t| t.certified += 1);
            if cfg!(debug_assertions) {
                let (s, b) = linfit::theil_sen_line_from(ws, xs, ys, Some(*pilot))
                    .expect("a certified window has a Theil–Sen line");
                debug_assert!(
                    xs.iter().zip(ys).all(|(&x, &y)| (y - (s * x + b)).abs() <= FLOOR_CUTOFF),
                    "a certified round-1 residual exceeds the floor cutoff {FLOOR_CUTOFF:e}"
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
    // The rounds read only the seed's line.
    let (mut slope, mut intercept) = linfit::theil_sen_line_from(ws, xs, ys, pilot)?;
    let min_inliers = ((n as f64 * MIN_INLIER_FRACTION).ceil() as usize).max(2);
    let mut iterations = 0;

    // Full-set sums, downdated per round by the excluded points.
    let all = full_sums(xs, ys);
    let mut sums = all;
    for _ in 0..MAX_ITERATIONS {
        iterations += 1;
        ws.resid.clear();
        ws.resid.extend(xs.iter().zip(ys).map(|(&x, &y)| y - (slope * x + intercept)));
        ws.abs_res.clear();
        ws.abs_res.extend(ws.resid.iter().map(|r| r.abs()));
        if ws.abs_res.iter().any(|r| r.is_nan()) {
            return Err(FitError::NonFinite);
        }
        let cutoff = if ws.abs_res.iter().all(|&ar| ar <= FLOOR_CUTOFF) {
            FLOOR_CUTOFF
        } else {
            let scale = (stats::mad_with(&ws.resid, &mut ws.scratch).unwrap_or(0.0)
                * stats::MAD_TO_SIGMA)
                .max(SCALE_FLOOR);
            THRESHOLD * scale
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
            #[cfg(test)]
            tests::tally(|t| t.topped_up += 1);
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
/// is provably within the floor cutoff (module docs): the bound first,
/// against the narrower band, then one count-only sweep to confirm that a
/// band whose bound passes covers the median pairwise slope.
fn certified(ws: &mut FitWorkspace, xs: &[f64], ys: &[f64], pilot: &Pilot) -> bool {
    let Some([outer, inner]) = bounds(ws, xs, ys, pilot, FLOOR_CUTOFF) else {
        return false;
    };
    // The narrower band's bound is the smaller: a window it fails takes
    // the full path with no sweep spent.
    if inner > FLOOR_CUTOFF {
        return false;
    }
    let [outer_covers, inner_covers] =
        linfit::bands_cover(xs, ys, [pilot.band(1.0), pilot.band(NARROW)]);
    inner_covers || (outer_covers && outer <= FLOOR_CUTOFF)
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

    /// Which paths the robust fits on this thread took.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Tally {
        /// Windows certified clean.
        pub certified: usize,
        /// Windows that took the Theil–Sen line and the rounds.
        pub full: usize,
        /// Rounds whose mask the inlier floor topped up.
        pub topped_up: usize,
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

    /// [`robust_line_fit_with`] as it was before the certificate, at the
    /// module's constants: the reference its certified path is pinned to.
    fn reference(ws: &mut FitWorkspace, xs: &[f64], ys: &[f64]) -> Result<RobustSummary, FitError> {
        // The rounds read only the seed's line.
        let (mut slope, mut intercept) = linfit::theil_sen_line(ws, xs, ys)?;
        let n = xs.len();
        ws.inliers.clear();
        ws.inliers.resize(n, true);
        let min_inliers = ((n as f64 * MIN_INLIER_FRACTION).ceil() as usize).max(2);
        let mut iterations = 0;

        // Full-set sums, downdated per round by the excluded points.
        let mut all = OlsSums::anchored(xs[0]);
        for (&x, &y) in xs.iter().zip(ys) {
            all.add(x, y);
        }

        let mut sums = all;
        for _ in 0..MAX_ITERATIONS {
            iterations += 1;
            ws.resid.clear();
            ws.resid.extend(xs.iter().zip(ys).map(|(&x, &y)| y - (slope * x + intercept)));
            ws.abs_res.clear();
            ws.abs_res.extend(ws.resid.iter().map(|r| r.abs()));
            if ws.abs_res.iter().any(|r| r.is_nan()) {
                return Err(FitError::NonFinite);
            }
            // A round whose residuals all sit within the floor cutoff keeps
            // every point whatever the MAD is, so it skips the MAD's two
            // selections.
            let cutoff = if ws.abs_res.iter().all(|&ar| ar <= FLOOR_CUTOFF) {
                FLOOR_CUTOFF
            } else {
                let scale = (stats::mad_with(&ws.resid, &mut ws.scratch).unwrap_or(0.0)
                    * stats::MAD_TO_SIGMA)
                    .max(SCALE_FLOOR);
                THRESHOLD * scale
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
    /// workspace, agree on `(xs, ys)`: the fit's bits, the iteration and
    /// inlier counts and the mask, or the error variant.
    fn assert_matches_reference(ws: &mut FitWorkspace, xs: &[f64], ys: &[f64], ctx: &str) {
        let mut reference_ws = FitWorkspace::default();
        let expected = reference(&mut reference_ws, xs, ys);
        match (robust_line_fit_with(ws, xs, ys, &RobustFitConfig::default()), expected) {
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

    /// A random line of 5–60 points, as its abscissae, the ordinates of
    /// the line itself and a residual pattern to add at any scale.
    /// Abscissae are reader-plan frequencies in Hz (in order or shuffled)
    /// or small integers, and the slope and intercept are of phase-line
    /// size; a third of the lines sit 1e6 rad up, where the columns' own
    /// rounding is largest. The pattern is noise from none to 0.02 rad,
    /// plus a few outliers on some lines.
    fn random_line(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
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
        let intercept = if rng.gen_bool(0.33) { 1e6 } else { 0.0 } + rng.gen_range(-50.0..50.0);
        let line = xs.iter().map(|&x| slope * x + intercept).collect();
        let noise = [0.0, 1e-4, 3e-3, 0.02][rng.gen_range(0..4usize)];
        let outliers = if rng.gen_bool(0.3) { rng.gen_range(1..=n / 5 + 1) } else { 0 };
        let mut pattern: Vec<f64> = (0..n).map(|_| noise * rng.gen_range(-1.0..1.0)).collect();
        for _ in 0..outliers {
            let i = rng.gen_range(0..n);
            pattern[i] += rng.gen_range(0.05..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        }
        (xs, line, pattern)
    }

    /// The certificate's bounds on `(xs, ys)`, `[pilot, narrower]`; `None`
    /// without a pilot band or when a value could overflow.
    fn certificate_bounds(xs: &[f64], ys: &[f64]) -> Option<[f64; 2]> {
        let mut ws = FitWorkspace::default();
        let pilot = linfit::pilot(&mut ws, xs, ys).ok()??;
        bounds(&mut ws, xs, ys, &pilot, f64::INFINITY)
    }

    /// Whether the pilot band and the narrower band of `(xs, ys)` cover
    /// the median pairwise slope.
    fn bands_covering(xs: &[f64], ys: &[f64]) -> [bool; 2] {
        let pilot = linfit::pilot(&mut FitWorkspace::default(), xs, ys).unwrap().unwrap();
        linfit::bands_cover(xs, ys, [pilot.band(1.0), pilot.band(NARROW)])
    }

    /// Two scales either side of where `bound(scale)` crosses `target`,
    /// `[below, above]` with `bound(below) <= target < bound(above)`,
    /// bisected until no scale lies between them: the bound then sits as
    /// close to `target` on each side as the rounding of the scaled
    /// columns lets it. `None` when the bound at scale 0 is already above
    /// `target`, no scale up to 2⁴⁰ puts it above, or a bound is `None`.
    fn straddle(bound: impl Fn(f64) -> Option<f64>, target: f64) -> Option<[f64; 2]> {
        let (mut below, mut above) = (0.0f64, 1.0f64);
        if bound(below)? > target {
            return None;
        }
        while bound(above)? <= target {
            (below, above) = (above, 2.0 * above);
            if above > 2f64.powi(40) {
                return None;
            }
        }
        loop {
            let mid = 0.5 * (below + above);
            if mid <= below || mid >= above {
                return Some([below, above]);
            }
            if bound(mid)? <= target {
                below = mid;
            } else {
                above = mid;
            }
        }
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
    /// columns of streaming advances (each window also with one channel
    /// pushed off its line), on random lines whose residual
    /// pattern is scaled until the pilot or the narrower band's bound
    /// straddles the floor cutoff (at it, and 1e-12 either side), and on
    /// hostile windows. Every pool runs both the certified and the full
    /// path, and the edge lines certify exactly when a covering band's
    /// bound is within the cutoff, both outcomes present.
    #[test]
    fn certified_fits_match_the_reference_bit_for_bit() {
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
                    assert_matches_reference(&mut ws, xs, ys, &ctx);
                    // The same window with its middle channel 0.5 rad off
                    // the line, as one multipath-corrupted channel is.
                    let mut off = ys.clone();
                    off[ys.len() / 2] += 0.5;
                    assert_matches_reference(&mut ws, xs, &off, &format!("{ctx}, one channel off"));
                }
            });
            assert!(t.certified > 0 && t.full > 0, "{label}: {t:?}");
        }

        // Random lines at the certificate's edge: each band's bound just
        // at or below the floor cutoff and just above it, and 1e-12 below
        // and above it. A window certifies exactly when a band that covers
        // has its bound within the cutoff.
        let mut rng = StdRng::seed_from_u64(41);
        let (mut edges, mut paths) = (0, Tally::default());
        for k in 0..600 {
            let (xs, line, pattern) = random_line(&mut rng);
            let scaled = |scale: f64| -> Vec<f64> {
                line.iter().zip(&pattern).map(|(&y, &r)| y + scale * r).collect()
            };
            let mut edge = false;
            for band in 0..2 {
                for target in [FLOOR_CUTOFF, FLOOR_CUTOFF - 1e-12, FLOOR_CUTOFF + 1e-12] {
                    let bound = |scale: f64| Some(certificate_bounds(&xs, &scaled(scale))?[band]);
                    let Some(scales) = straddle(bound, target) else {
                        continue;
                    };
                    edge = true;
                    for scale in scales {
                        let ys = scaled(scale);
                        let bounds = certificate_bounds(&xs, &ys).expect("bounds at the edge");
                        let covers = bands_covering(&xs, &ys);
                        let ctx = format!("line {k}, scale {scale:e}, bounds {bounds:?}");
                        let t = tallied(|| assert_matches_reference(&mut ws, &xs, &ys, &ctx));
                        let certifies =
                            bounds.iter().zip(covers).any(|(&b, c)| c && b <= FLOOR_CUTOFF);
                        assert_eq!(t.certified == 1, certifies, "{ctx}: {covers:?}, {t:?}");
                        paths.certified += t.certified;
                        paths.full += t.full;
                    }
                }
            }
            if edge {
                edges += 1;
            } else {
                assert_matches_reference(&mut ws, &xs, &scaled(1.0), &format!("line {k}"));
            }
        }
        assert!(edges >= 300, "{edges} lines reach the edge");
        assert!(paths.certified > 0 && paths.full > 0, "edge lines: {paths:?}");

        let t = tallied(|| {
            for (k, (xs, ys)) in hostile_windows(&mut rng).iter().enumerate() {
                let ctx = format!("hostile window {k}: {xs:?}, {ys:?}");
                assert_matches_reference(&mut ws, xs, ys, &ctx);
            }
        });
        assert!(t.certified > 0 && t.full > 0, "hostile windows: {t:?}");
    }

    /// Pin: when a round's cutoff keeps fewer than half the points, the
    /// residual ranking tops the mask up to the inlier floor. A seeded
    /// 42-point window, half on y = 0.3x and half scattered up to 0.5 either
    /// side of y = −0.2x, reaches that branch at the module's constants (a
    /// test-only tally counts it). It keeps the previous kernel's bits and
    /// the frozen oracle's inlier mask and iteration count, with the line
    /// within 1e-9 relative of the oracle's.
    #[test]
    fn floor_top_up_matches_the_oracle() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..42).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| match i % 2 {
                0 => 0.3 * x,
                _ => -0.2 * x + 0.5 * rng.gen_range(-1.0..1.0),
            })
            .collect();
        let mut fit = None;
        let t = tallied(|| fit = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).ok());
        assert!(t.topped_up > 0, "{t:?}");
        let fit = fit.unwrap();
        let oracle = rfp_oracle::frontend::robust_line_fit(&xs, &ys).unwrap();
        assert_eq!(fit.inliers, oracle.inliers);
        assert_eq!(fit.iterations, oracle.iterations);
        let (a, e) = (fit.fit, oracle.fit);
        assert!((a.slope - e.slope).abs() <= 1e-9 * (1.0 + e.slope.abs()), "{a:?} vs {e:?}");
        assert!((a.intercept - e.intercept).abs() <= 1e-9 * (1.0 + e.intercept.abs()), "{a:?}");
        assert_matches_reference(&mut FitWorkspace::default(), &xs, &ys, "top-up window");
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
        let r = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        assert!(r.inlier_fraction() >= MIN_INLIER_FRACTION);
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
        let r = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        assert!(r.iterations <= MAX_ITERATIONS);
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
