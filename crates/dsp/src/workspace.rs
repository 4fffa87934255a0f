//! Reusable front-end workspaces: flat SoA scratch buffers that make the
//! whole pre-processing + robust-fitting front end allocation-free in
//! steady state.
//!
//! The per-window front end (π-jump correction → per-channel aggregation →
//! cross-channel unwrap → robust line fit) used to materialize a dozen
//! short-lived `Vec`s and a `BTreeMap` per antenna per window. At batch
//! rates (hundreds of tags × several antennas × many windows per second)
//! the allocator traffic dominates the arithmetic. The fix mirrors the
//! solver's workspace pattern: every intermediate lives in a
//! caller-owned workspace whose buffers are sized once and then reused
//! verbatim.
//!
//! Two workspaces are provided:
//!
//! * [`FitWorkspace`] — scratch for the line-fitting kernels
//!   ([`theil_sen_with`](crate::linfit::theil_sen_with),
//!   [`robust_line_fit_with`](crate::robust::robust_line_fit_with)):
//!   residual/rank/inlier columns, a median selection scratch and a
//!   Theil–Sen slope buffer (every pairwise slope, stored by one sweep;
//!   the banded median compacts its band's members to the front in
//!   place, in batch and in a streaming window alike).
//! * [`FrontEndWorkspace`] — everything above plus the pre-processing
//!   stage's per-channel accumulator columns (struct-of-arrays: one flat
//!   `f64`/`usize` column per quantity instead of a map of per-channel
//!   `Vec`s) and the fit columns the final observations are written to,
//!   which the line fits read without fresh allocations.
//!
//! The allocating public APIs (`preprocess_reads`, `robust_line_fit`, …)
//! now delegate to these kernels against a temporary workspace, so both
//! paths are bit-identical by construction (pinned by the
//! `frontend_workspace` property suite). The pre-optimization
//! implementations are preserved verbatim in the dev-only `rfp-oracle`
//! crate (`rfp_oracle::frontend`) as the benchmark baseline.

use crate::linfit::{FitError, LineFit};
use crate::preprocess::RawRead;

/// Raw running sums for an ordinary least-squares line fit, accumulated
/// against a fixed abscissa shift `x0` (the first point's x) to keep the
/// normal-equation cancellation benign at RF frequencies (~9e8 Hz).
///
/// Supports O(1) *downdating*: removing a point's contribution by
/// subtracting its terms, which is what makes the robust refit incremental
/// — each rejection round subtracts the newly excluded points instead of
/// refitting from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OlsSums {
    /// Abscissa shift applied to every x term.
    pub x0: f64,
    /// Number of points accumulated.
    pub n: usize,
    /// Σ (x − x0).
    pub sx: f64,
    /// Σ y.
    pub sy: f64,
    /// Σ (x − x0) · y.
    pub sxy: f64,
    /// Σ (x − x0)².
    pub sxx: f64,
}

impl OlsSums {
    /// Empty sums anchored at `x0`.
    #[inline]
    pub fn anchored(x0: f64) -> Self {
        OlsSums { x0, ..Default::default() }
    }

    /// Adds one point.
    #[inline]
    pub fn add(&mut self, x: f64, y: f64) {
        let xd = x - self.x0;
        self.n += 1;
        self.sx += xd;
        self.sy += y;
        self.sxy += xd * y;
        self.sxx += xd * xd;
    }

    /// Removes one previously added point (downdate).
    #[inline]
    pub fn remove(&mut self, x: f64, y: f64) {
        let xd = x - self.x0;
        self.n -= 1;
        self.sx -= xd;
        self.sy -= y;
        self.sxy -= xd * y;
        self.sxx -= xd * xd;
    }

    /// Solves the accumulated normal equations for `(slope, intercept)`.
    ///
    /// # Errors
    ///
    /// [`FitError::TooFewPoints`] below two points,
    /// [`FitError::DegenerateX`] when the x spread vanishes,
    /// [`FitError::NonFinite`] when the sums overflowed (an x near 1e300
    /// squares to ∞) and the line is not finite.
    #[inline]
    pub fn solve(&self) -> Result<(f64, f64), FitError> {
        if self.n < 2 {
            return Err(FitError::TooFewPoints);
        }
        let n = self.n as f64;
        let denom = n * self.sxx - self.sx * self.sx;
        if denom <= 0.0 {
            return Err(FitError::DegenerateX);
        }
        let slope = (n * self.sxy - self.sx * self.sy) / denom;
        let shifted_intercept = (self.sy - slope * self.sx) / n;
        let intercept = shifted_intercept - slope * self.x0;
        if !(slope.is_finite() && intercept.is_finite()) {
            return Err(FitError::NonFinite);
        }
        Ok((slope, intercept))
    }

    /// Mean of the accumulated y values.
    #[inline]
    pub fn ybar(&self) -> f64 {
        self.sy / self.n as f64
    }
}

/// Goodness-of-fit diagnostics over `(xs, ys)` for the line
/// `y = slope·x + intercept`, streamed without materializing a residual
/// vector. `ybar` is the centre used for the total sum of squares (the
/// weighted mean for weighted fits, the plain mean otherwise) — exactly
/// the conventions of the allocating fitters.
pub(crate) fn fit_diagnostics(
    xs: &[f64],
    ys: &[f64],
    slope: f64,
    intercept: f64,
    ybar: f64,
) -> (f64, f64) {
    let n = xs.len() as f64;
    let mut ss_res = 0.0;
    let mut r_sum = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let r = y - (slope * x + intercept);
        ss_res += r * r;
        r_sum += r;
    }
    let mut ss_tot = 0.0;
    for &y in ys {
        ss_tot += (y - ybar) * (y - ybar);
    }
    let r_squared = if ss_tot > 0.0 {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else if ss_res <= f64::EPSILON {
        1.0
    } else {
        0.0
    };
    let r_mean = r_sum / n;
    let mut var = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let r = y - (slope * x + intercept);
        var += (r - r_mean) * (r - r_mean);
    }
    (r_squared, (var / n).sqrt())
}

/// As [`fit_diagnostics`] but restricted to the points with `mask[i]`
/// true — the inlier-subset diagnostics of the robust refit.
pub(crate) fn masked_fit_diagnostics(
    xs: &[f64],
    ys: &[f64],
    mask: &[bool],
    slope: f64,
    intercept: f64,
    ybar: f64,
) -> (f64, f64) {
    let mut ss_res = 0.0;
    let mut r_sum = 0.0;
    let mut ss_tot = 0.0;
    let mut n = 0usize;
    for ((&x, &y), &keep) in xs.iter().zip(ys).zip(mask) {
        if !keep {
            continue;
        }
        let r = y - (slope * x + intercept);
        ss_res += r * r;
        r_sum += r;
        ss_tot += (y - ybar) * (y - ybar);
        n += 1;
    }
    let r_squared = if ss_tot > 0.0 {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else if ss_res <= f64::EPSILON {
        1.0
    } else {
        0.0
    };
    let r_mean = r_sum / n as f64;
    let mut var = 0.0;
    for ((&x, &y), &keep) in xs.iter().zip(ys).zip(mask) {
        if !keep {
            continue;
        }
        let r = y - (slope * x + intercept);
        var += (r - r_mean) * (r - r_mean);
    }
    (r_squared, (var / n as f64).sqrt())
}

/// Scratch buffers for the allocation-free line-fitting kernels. Buffers
/// grow to the high-water mark of the inputs seen and are then reused;
/// after the first call at a given problem size no kernel touches the
/// heap.
#[derive(Debug, Clone, Default)]
pub struct FitWorkspace {
    /// Residuals of the current fit, one per point.
    pub(crate) resid: Vec<f64>,
    /// `|resid|`, one per point.
    pub(crate) abs_res: Vec<f64>,
    /// Median / MAD selection scratch.
    pub(crate) scratch: Vec<f64>,
    /// Point indices ranked by absolute residual.
    pub(crate) order: Vec<usize>,
    /// Current inlier mask.
    pub(crate) inliers: Vec<bool>,
    /// Next iteration's inlier mask (double buffer).
    pub(crate) inliers_next: Vec<bool>,
    /// Theil–Sen slope buffer: one slot per pair of the n(n−1)/2, where
    /// the sweep stores every pairwise slope and a band's members are
    /// compacted to the front.
    pub(crate) slopes: Vec<f64>,
}

impl FitWorkspace {
    /// Inlier mask of the most recent
    /// [`robust_line_fit_with`](crate::robust::robust_line_fit_with) call
    /// (same order as its input points).
    #[inline]
    pub fn inlier_mask(&self) -> &[bool] {
        &self.inliers
    }
}

/// Per-channel accumulator columns plus fit scratch for the whole
/// pre-processing front end. One instance per worker thread (or per
/// sequential pipeline, or per streaming session, whose windows borrow it
/// for their fit columns), mirroring the solver's `SolverWorkspace`.
///
/// Layout is struct-of-arrays: each per-channel quantity is one flat
/// column indexed by *slot* (dense channel index in first-appearance
/// order), so the two passes over the raw reads touch a
/// handful of contiguous arrays instead of chasing a map of heap-allocated
/// per-channel vectors.
#[derive(Debug, Clone, Default)]
pub struct FrontEndWorkspace {
    /// channel id → slot + sentinel (`u32::MAX` = unseen this call).
    pub(crate) slot_of: Vec<u32>,
    /// slot → channel id (also the list of `slot_of` entries to reset).
    pub(crate) chan: Vec<usize>,
    /// slot → number of raw reads.
    pub(crate) count: Vec<usize>,
    /// slot → frequency of the channel's first read.
    pub(crate) first_freq: Vec<f64>,
    /// slot → phase of the channel's first read.
    pub(crate) first_phase: Vec<f64>,
    /// slot → Σ rssi.
    pub(crate) sum_rssi: Vec<f64>,
    /// slot → Σ sin(2p); once the axis is derived, the sine of the axis
    /// (its unit vector's first component, for pass 2's sign test).
    pub(crate) acc_sin: Vec<f64>,
    /// slot → Σ cos(2p); once the axis is derived, the cosine of the axis.
    pub(crate) acc_cos: Vec<f64>,
    /// slot → recovered per-channel axis.
    pub(crate) axis: Vec<f64>,
    /// slot → unwrapped axis (for the global majority vote).
    pub(crate) unwrapped: Vec<f64>,
    /// Slots ascending by (frequency, channel).
    pub(crate) order: Vec<usize>,
    /// Phase column in sorted order (unwrap operates in place here).
    pub(crate) phase_col: Vec<f64>,
    /// read index → slot (recorded in pass 1, reused by the vote pass
    /// instead of re-looking channels up).
    pub(crate) read_slot: Vec<u32>,
    /// The usable reads of a call whose input held an unusable one.
    pub(crate) usable_reads: Vec<RawRead>,
    /// Per-call trig tallies: `[table lookups, libm calls]`.
    pub(crate) trig_hits: [u64; 2],
    /// Frequency column of the final observations (fit abscissa).
    fit_x: Vec<f64>,
    /// Unwrapped phase column of the final observations (fit ordinate).
    fit_y: Vec<f64>,
    /// Scratch for the line-fit kernels run after pre-processing.
    pub fit: FitWorkspace,
}

impl FrontEndWorkspace {
    /// The fit columns produced by the last
    /// [`preprocess_reads_with`](crate::preprocess::preprocess_reads_with)
    /// or [`StreamingWindow::extract_into`](crate::StreamingWindow::extract_into)
    /// — `(frequencies, unwrapped phases)` — together with the fit scratch,
    /// split-borrowed so the columns can feed the fitting kernels directly.
    #[inline]
    pub fn fit_columns(&mut self) -> (&[f64], &[f64], &mut FitWorkspace) {
        (&self.fit_x, &self.fit_y, &mut self.fit)
    }

    /// Trig tallies of the last pre-processing call: `[table lookups,
    /// libm calls]`, one per read (its double-angle phasor). Feeds the
    /// `frontend.trig_*` observability counters.
    #[inline]
    pub fn trig_hits(&self) -> [u64; 2] {
        self.trig_hits
    }

    /// Raw (non-robust) line fit over the fit columns of the last
    /// pre-processed or extracted window: least-squares sums anchored at
    /// the first frequency, accumulated in column order, then one streamed
    /// pass for the diagnostics.
    ///
    /// # Errors
    ///
    /// As [`OlsSums::solve`]: [`FitError::TooFewPoints`],
    /// [`FitError::DegenerateX`] or [`FitError::NonFinite`].
    pub fn raw_fit(&self) -> Result<LineFit, FitError> {
        let mut raw = OlsSums::anchored(self.fit_x.first().copied().unwrap_or(0.0));
        for (&x, &y) in self.fit_x.iter().zip(&self.fit_y) {
            raw.add(x, y);
        }
        let (slope, intercept) = raw.solve()?;
        let (r_squared, residual_std) =
            fit_diagnostics(&self.fit_x, &self.fit_y, slope, intercept, raw.ybar());
        Ok(LineFit { slope, intercept, r_squared, residual_std, n: raw.n })
    }

    /// Resets the per-call state, keeping every buffer's capacity. Called
    /// at the top of `preprocess_reads_with`.
    pub(crate) fn reset_channels(&mut self) {
        for &ch in &self.chan {
            self.slot_of[ch] = u32::MAX;
        }
        self.chan.clear();
        self.count.clear();
        self.first_freq.clear();
        self.first_phase.clear();
        self.sum_rssi.clear();
        self.acc_sin.clear();
        self.acc_cos.clear();
        self.axis.clear();
        self.unwrapped.clear();
        self.order.clear();
        self.phase_col.clear();
        self.read_slot.clear();
        self.trig_hits = [0; 2];
        self.fit_x.clear();
        self.fit_y.clear();
    }

    /// Slot of `channel`, allocating a fresh slot on first sight.
    #[inline]
    pub(crate) fn slot(&mut self, channel: usize) -> usize {
        if channel >= self.slot_of.len() {
            self.slot_of.resize(channel + 1, u32::MAX);
        }
        let s = self.slot_of[channel];
        if s != u32::MAX {
            return s as usize;
        }
        let slot = self.chan.len();
        self.slot_of[channel] = slot as u32;
        self.chan.push(channel);
        self.count.push(0);
        self.first_freq.push(0.0);
        self.first_phase.push(0.0);
        self.sum_rssi.push(0.0);
        self.acc_sin.push(0.0);
        self.acc_cos.push(0.0);
        self.axis.push(0.0);
        self.unwrapped.push(0.0);
        slot
    }

    /// Number of slots in use this call.
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.chan.len()
    }

    /// Appends one final `(frequency, phase)` observation point to the
    /// fit columns.
    #[inline]
    pub(crate) fn emit(&mut self, freq: f64, phase: f64) {
        self.fit_x.push(freq);
        self.fit_y.push(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_sums_match_direct_fit() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 3.1, 4.9, 7.0, 9.05];
        let mut sums = OlsSums::anchored(xs[0]);
        for (&x, &y) in xs.iter().zip(&ys) {
            sums.add(x, y);
        }
        let (slope, intercept) = sums.solve().unwrap();
        let direct = crate::linfit::ols(&xs, &ys).unwrap();
        assert!((slope - direct.slope).abs() < 1e-12);
        assert!((intercept - direct.intercept).abs() < 1e-12);
    }

    #[test]
    fn ols_sums_downdate_equals_refit() {
        let xs: Vec<f64> = (0..20).map(|i| 9.02e8 + 5e5 * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.1e-8 * x - 3.0).collect();
        let mut sums = OlsSums::anchored(xs[0]);
        for (&x, &y) in xs.iter().zip(&ys) {
            sums.add(x, y);
        }
        // Remove three points; the downdated solution must match a fit on
        // the remaining points.
        for &i in &[3usize, 7, 15] {
            sums.remove(xs[i], ys[i]);
        }
        let (kept_x, kept_y): (Vec<f64>, Vec<f64>) = xs
            .iter()
            .zip(&ys)
            .enumerate()
            .filter(|(i, _)| ![3usize, 7, 15].contains(i))
            .map(|(_, (&x, &y))| (x, y))
            .unzip();
        let (slope, intercept) = sums.solve().unwrap();
        let direct = crate::linfit::ols(&kept_x, &kept_y).unwrap();
        assert!((slope - direct.slope).abs() < 1e-9 * direct.slope.abs().max(1.0));
        assert!((intercept - direct.intercept).abs() < 1e-6);
    }

    #[test]
    fn ols_sums_degenerate_and_underflow() {
        let mut sums = OlsSums::anchored(2.0);
        sums.add(2.0, 1.0);
        assert_eq!(sums.solve().unwrap_err(), FitError::TooFewPoints);
        sums.add(2.0, 3.0);
        assert_eq!(sums.solve().unwrap_err(), FitError::DegenerateX);
        // A far x overflows Σx² to ∞, and the normal equations give NaN.
        sums.add(1e300, 2.0);
        assert_eq!(sums.solve().unwrap_err(), FitError::NonFinite);
    }

    #[test]
    fn slot_map_resets_between_calls() {
        let mut ws = FrontEndWorkspace::default();
        let a = ws.slot(5);
        let b = ws.slot(9);
        assert_ne!(a, b);
        assert_eq!(ws.slot(5), a);
        ws.reset_channels();
        assert_eq!(ws.slot_of[5], u32::MAX, "channel 5 unseen after reset");
        let c = ws.slot(9);
        assert_eq!(c, 0, "slots are dense again after reset");
    }
}
