//! Line fitting.
//!
//! The multi-frequency phase model (paper Eq. 6) turns every antenna's
//! 50-channel observation into the slope and intercept of a straight line,
//! so line fitting quality directly bounds sensing accuracy. Two fitters
//! are provided:
//!
//! * [`ols`] — ordinary least squares, the default for clean channels
//!   ([`ols_line`] is its line alone, for callers that read no
//!   diagnostics);
//! * [`theil_sen`] — median-of-slopes, used to seed the robust multipath
//!   rejection with an estimate that tolerates up to ~29 % corrupted
//!   channels. One vectorizable sweep stores every pairwise slope, and the
//!   median is selected inside a narrow value band around a trimmed
//!   least-squares pilot slope ([`theil_sen_with`]), so only the ~12 % of
//!   pairwise slopes near it take part in the selection; when the band
//!   misses the median, every pairwise slope does.

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
    /// A non-finite value broke the fit: the least-squares sums
    /// overflowed, or a NaN (a NaN input, or one that ∞ − ∞ or 0 · ∞ made)
    /// reached a Theil–Sen or residual median.
    NonFinite,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "need at least two points to fit a line"),
            FitError::LengthMismatch => write!(f, "input slices have different lengths"),
            FitError::DegenerateX => write!(f, "all x values coincide; slope undefined"),
            FitError::BadWeights => write!(f, "weights must be non-negative with positive sum"),
            FitError::NonFinite => write!(f, "a non-finite value broke the fit"),
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
    let (slope, intercept) = ols_line(xs, ys)?;
    Ok(line_fit(xs, ys, slope, intercept))
}

/// [`ols`]'s line alone, `(slope, intercept)`, with the same arithmetic
/// and errors: no diagnostics passes. For callers that read only the
/// line.
///
/// # Errors
///
/// As [`ols`].
///
/// # Example
///
/// ```
/// use rfp_dsp::linfit::{ols, ols_line};
/// let (xs, ys) = ([0.0, 1.0, 2.0], [1.0, 3.1, 4.9]);
/// let fit = ols(&xs, &ys)?;
/// assert_eq!(ols_line(&xs, &ys)?, (fit.slope, fit.intercept));
/// # Ok::<(), rfp_dsp::linfit::FitError>(())
/// ```
pub fn ols_line(xs: &[f64], ys: &[f64]) -> Result<(f64, f64), FitError> {
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
    Ok((slope, ybar - slope * xbar))
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
/// As [`ols`], plus [`FitError::NonFinite`] when a NaN (or an ∞ that
/// makes one) reaches a median.
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> Result<LineFit, FitError> {
    theil_sen_with(&mut FitWorkspace::default(), xs, ys)
}

/// [`theil_sen`] against caller-owned scratch, with zero allocations
/// once the slope buffer is sized. Returns the same fit as [`theil_sen`].
///
/// The median pairwise slope is exact, and every pair is divided once:
///
/// 1. one sweep stores every pair's slope at its own index of the
///    workspace's slope buffer (NaN for a pair whose abscissae coincide),
///    with no loop-carried store index, so it vectorizes; the same pass
///    counts the valid slopes and those below and inside a value band
///    centred on a pilot line (least squares refitted without the points
///    beyond 2σ of it, which a cluttered room's multipath rarely pulls
///    off the median);
/// 2. when that band covers the median rank(s), its members are
///    compacted in place to the front of the buffer and the median is
///    selected among them, shifted by the count below
///    (`stats::band_median`);
/// 3. otherwise every valid slope is selected.
///
/// A band partitions the slopes by value, so both paths read out the
/// order statistics a selection over every slope picks.
///
/// # Errors
///
/// As [`theil_sen`].
pub fn theil_sen_with(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
) -> Result<LineFit, FitError> {
    let (slope, intercept) = theil_sen_line(ws, xs, ys)?;
    Ok(line_fit(xs, ys, slope, intercept))
}

/// [`theil_sen_with`]'s line alone, `(slope, intercept)`: no mean of the
/// ordinates and no diagnostics passes.
///
/// # Errors
///
/// As [`theil_sen`].
pub(crate) fn theil_sen_line(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
) -> Result<(f64, f64), FitError> {
    let pilot = pilot(ws, xs, ys)?;
    theil_sen_line_from(ws, xs, ys, pilot)
}

/// [`theil_sen_line`] on columns that [`pilot`] checked, with the pilot
/// band it read. The robust fit seeds from it, since its rejection rounds
/// read only the line.
///
/// # Errors
///
/// [`FitError::DegenerateX`] when every abscissa coincides,
/// [`FitError::NonFinite`] when a NaN reaches a median.
pub(crate) fn theil_sen_line_from(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
    pilot: Option<Pilot>,
) -> Result<(f64, f64), FitError> {
    let pairs = xs.len() * (xs.len() - 1) / 2;
    let slope = median_slope(&mut ws.slopes[..pairs], xs, ys, pilot)?;
    // The intercept is the median of `y − slope·x`.
    ws.scratch.clear();
    ws.scratch.extend(xs.iter().zip(ys).map(|(&x, &y)| y - slope * x));
    if ws.scratch.iter().any(|v| v.is_nan()) {
        return Err(FitError::NonFinite);
    }
    let intercept = stats::median_in_place(&mut ws.scratch).expect("nonempty");
    Ok((slope, intercept))
}

/// The [`LineFit`] of the line `(slope, intercept)` over `(xs, ys)`: the
/// shared diagnostics about the plain mean of `ys`.
pub(crate) fn line_fit(xs: &[f64], ys: &[f64], slope: f64, intercept: f64) -> LineFit {
    let ybar = stats::mean(ys).expect("nonempty");
    let (r_squared, residual_std) = fit_diagnostics(xs, ys, slope, intercept, ybar);
    LineFit { slope, intercept, r_squared, residual_std, n: xs.len() }
}

/// Half-width of the pilot band, in residual σ of the trimmed pilot line
/// per unit of x-span.
const PILOT_HALF_WIDTH: f64 = 0.75;
/// A point further than this many σ from the least-squares line sits out
/// the pilot line's refit.
const PILOT_TRIM: f64 = 2.0;

/// The pilot band of a window's pairwise slopes, and the extents of its
/// columns, which the robust fit's certificate reads
/// ([`robust`](crate::robust)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pilot {
    /// The trimmed least-squares slope the band is centred on.
    pub(crate) slope: f64,
    /// The band's half-width.
    half: f64,
    /// `max x − min x`.
    pub(crate) x_span: f64,
    /// `max |x|`.
    pub(crate) x_abs: f64,
    /// `max |y|`.
    pub(crate) y_abs: f64,
}

impl Pilot {
    /// The band `[slope − half/k, slope + half/k]`: the pilot band for
    /// `k = 1`, a narrower one around the same slope for `k > 1`. It holds
    /// `slope` (rounding is monotone).
    #[inline]
    pub(crate) fn band(&self, k: f64) -> (f64, f64) {
        let half = self.half / k;
        (self.slope - half, self.slope + half)
    }
}

/// Checks `(xs, ys)` for a line fit, sizes the pair buffer of `ws` for
/// their pairs and reads their pilot band: `None` when a column or its
/// span is not finite.
///
/// # Errors
///
/// [`FitError::LengthMismatch`] and [`FitError::TooFewPoints`], in that
/// order, before anything zips the columns.
pub(crate) fn pilot(
    ws: &mut FitWorkspace,
    xs: &[f64],
    ys: &[f64],
) -> Result<Option<Pilot>, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let pairs = xs.len() * (xs.len() - 1) / 2;
    if ws.slopes.len() < pairs {
        // Exact growth keeps the buffer at the largest window's pair
        // count, whatever window sizes came before it, and whether or not
        // a window's slopes are stored.
        ws.slopes.reserve_exact(pairs - ws.slopes.len());
        ws.slopes.resize(pairs, 0.0);
    }
    Ok(pilot_band(xs, ys))
}

/// The median of the pairwise slopes of `(xs, ys)` (lengths equal, at
/// least two points), with `slopes` as the pair buffer (one slot per
/// pair) and `pilot` the columns' pilot band.
fn median_slope(
    slopes: &mut [f64],
    xs: &[f64],
    ys: &[f64],
    pilot: Option<Pilot>,
) -> Result<f64, FitError> {
    // Finite columns with finite spans keep every pair's dx and dy finite,
    // so no valid slope is NaN and NaN marks exactly the invalid pairs.
    // Columns without a pilot band, the non-finite ones among them, take
    // an empty band and are checked for NaN slopes.
    let (lo, hi) = pilot.map_or((f64::NAN, f64::NAN), |p| p.band(1.0));
    let (valid, below, inside) = sweep(xs, ys, lo, hi, slopes);
    if valid == 0 {
        return Err(FitError::DegenerateX);
    }
    if pilot.is_none() && slopes.iter().filter(|s| !s.is_nan()).count() != valid {
        return Err(FitError::NonFinite);
    }
    if let Some(median) = band_select(slopes, lo, hi, below, inside, valid) {
        return Ok(median);
    }
    #[cfg(test)]
    tests::tally(|t| t.full += 1);
    let kept = compact(slopes, |v| !v.is_nan());
    Ok(stats::median_in_place(&mut slopes[..kept]).expect("a valid slope"))
}

/// Whether each band `[lo, hi]` of `bands` covers the median rank(s) of
/// the valid pairwise slopes of `(xs, ys)` (lengths equal, at least two
/// points): [`sweep`]'s division and counts, with no slope stored. A
/// covering band holds the median pairwise slope, which [`median_slope`]
/// returns whatever path it takes.
pub(crate) fn bands_cover<const K: usize>(
    xs: &[f64],
    ys: &[f64],
    bands: [(f64, f64); K],
) -> [bool; K] {
    let mut valid = 0usize;
    // Per band: slopes below `lo`, and slopes at most `hi`.
    let (mut below, mut upto) = ([0usize; K], [0usize; K]);
    for i in 0..xs.len() - 1 {
        let (xi, yi) = (xs[i], ys[i]);
        for (&xj, &yj) in xs[i + 1..].iter().zip(&ys[i + 1..]) {
            let dx = xj - xi;
            let ok = dx.abs() > 0.0;
            let v = if ok { (yj - yi) / dx } else { f64::NAN };
            valid += ok as usize;
            for (k, &(lo, hi)) in bands.iter().enumerate() {
                below[k] += (v < lo) as usize;
                upto[k] += (v <= hi) as usize;
            }
        }
    }
    std::array::from_fn(|k| stats::band_covers(below[k], upto[k] - below[k], valid))
}

/// Stores the slope of every pair `i < j` at its index of `slopes` (row
/// by row, NaN where the abscissae coincide) and returns the counts of
/// valid slopes, of slopes below `lo`, and of slopes inside `[lo, hi]`.
fn sweep(xs: &[f64], ys: &[f64], lo: f64, hi: f64, slopes: &mut [f64]) -> (usize, usize, usize) {
    let (mut valid, mut below, mut inside) = (0usize, 0usize, 0usize);
    let mut start = 0;
    for i in 0..xs.len() - 1 {
        let (xi, yi) = (xs[i], ys[i]);
        let row = &mut slopes[start..start + xs.len() - 1 - i];
        start += row.len();
        #[cfg(test)]
        tests::tally(|t| t.divided += row.len());
        for ((s, &xj), &yj) in row.iter_mut().zip(&xs[i + 1..]).zip(&ys[i + 1..]) {
            let dx = xj - xi;
            let ok = dx.abs() > 0.0;
            let v = if ok { (yj - yi) / dx } else { f64::NAN };
            *s = v;
            valid += ok as usize;
            below += (v < lo) as usize;
            inside += ((v >= lo) & (v <= hi)) as usize;
        }
    }
    (valid, below, inside)
}

/// The median of the `total` valid `slopes` when the band `[lo, hi]`,
/// with `below` slopes under it and `inside` in it, covers the median
/// rank(s): the band's members are compacted in place to the front of
/// `slopes` and selected. `None`, and `slopes` untouched, otherwise.
fn band_select(
    slopes: &mut [f64],
    lo: f64,
    hi: f64,
    below: usize,
    inside: usize,
    total: usize,
) -> Option<f64> {
    if !stats::band_covers(below, inside, total) {
        return None;
    }
    let kept = compact(slopes, |v| (v >= lo) & (v <= hi));
    stats::band_median(&mut slopes[..kept], below, total)
}

/// Moves the values `keep` admits to the front of `slopes`, in order, and
/// returns their count. Each block of 64 values is tested into a bitmask
/// first (a pass that vectorizes), and only the kept values are moved, so
/// a band of ~12% members costs a mask per block and a move per member
/// instead of a store per value. A value moves to an index no greater than
/// its own, so no value is overwritten before it is read.
fn compact(slopes: &mut [f64], keep: impl Fn(f64) -> bool) -> usize {
    let mut kept = 0usize;
    for start in (0..slopes.len()).step_by(64) {
        let block = &slopes[start..slopes.len().min(start + 64)];
        let mut bits = 0u64;
        for (l, &v) in block.iter().enumerate() {
            bits |= (keep(v) as u64) << l;
        }
        while bits != 0 {
            slopes[kept] = slopes[start + bits.trailing_zeros() as usize];
            kept += 1;
            bits &= bits - 1;
        }
    }
    kept
}

/// The pilot band: centred on the slope of the least-squares line refitted
/// without the points beyond [`PILOT_TRIM`] σ of it, of half-width
/// [`PILOT_HALF_WIDTH`] · σ / x-span (σ the refit's). `None` when a column
/// or its span is not finite.
fn pilot_band(xs: &[f64], ys: &[f64]) -> Option<Pilot> {
    let (mut x_lo, mut x_hi, mut y_lo, mut y_hi) =
        (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY);
    let mut finite = true;
    for (&x, &y) in xs.iter().zip(ys) {
        finite &= x.is_finite() & y.is_finite();
        (x_lo, x_hi, y_lo, y_hi) = (x_lo.min(x), x_hi.max(x), y_lo.min(y), y_hi.max(y));
    }
    let x_span = x_hi - x_lo;
    if !(finite && x_span.is_finite() && (y_hi - y_lo).is_finite()) {
        return None;
    }
    let all = PilotLine::fit(xs, ys, |_, _| true)?;
    let cut = PILOT_TRIM * all.sigma;
    let line = PilotLine::fit(xs, ys, |dx, dy| all.residual(dx, dy).abs() <= cut).unwrap_or(all);
    let pilot = Pilot {
        slope: line.slope,
        half: PILOT_HALF_WIDTH * line.sigma / x_span,
        x_span,
        x_abs: x_lo.abs().max(x_hi.abs()),
        y_abs: y_lo.abs().max(y_hi.abs()),
    };
    let (lo, hi) = pilot.band(1.0);
    (lo.is_finite() && hi.is_finite()).then_some(pilot)
}

/// A least-squares line `dy ≈ intercept + slope · dx` in coordinates
/// anchored at the first point, with its residual σ, solved in one pass
/// from raw sums: it only places a band, so a few lost digits are
/// harmless.
#[derive(Clone, Copy)]
struct PilotLine {
    intercept: f64,
    slope: f64,
    sigma: f64,
}

impl PilotLine {
    /// The line through the points whose anchored coordinates `keep`
    /// admits, or `None` when they hold fewer than two distinct abscissae.
    fn fit(xs: &[f64], ys: &[f64], keep: impl Fn(f64, f64) -> bool) -> Option<PilotLine> {
        let (x0, y0) = (xs[0], ys[0]);
        let (mut m, mut sx, mut sy, mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for (&x, &y) in xs.iter().zip(ys) {
            let (dx, dy) = (x - x0, y - y0);
            let w = if keep(dx, dy) { 1.0 } else { 0.0 };
            (m, sx, sy) = (m + w, sx + w * dx, sy + w * dy);
            (sxx, sxy, syy) = (sxx + w * dx * dx, sxy + w * dx * dy, syy + w * dy * dy);
        }
        let (cxx, cxy, cyy) = (sxx - sx * sx / m, sxy - sx * sy / m, syy - sy * sy / m);
        if !(m >= 2.0 && cxx > 0.0) {
            return None;
        }
        let slope = cxy / cxx;
        let sigma = ((cyy - slope * cxy).max(0.0) / m).sqrt();
        Some(PilotLine { intercept: (sy - slope * sx) / m, slope, sigma })
    }

    /// The residual of the point at anchored coordinates `(dx, dy)`.
    #[inline]
    fn residual(&self, dx: f64, dy: f64) -> f64 {
        dy - self.intercept - self.slope * dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// What the median kernels did on this thread.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Tally {
        /// Pair slopes divided.
        pub divided: usize,
        /// Selections over every valid slope.
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

    /// What `f` made the median kernels do.
    fn tallied(f: impl FnOnce()) -> Tally {
        TALLY.with(|c| c.set(Tally::default()));
        f();
        TALLY.with(Cell::get)
    }

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

    /// Pin: `ols_line` is `ols`'s line bit for bit, and its error, on
    /// random lines (reader-plan or small abscissae, in order or not) and
    /// on degenerate inputs: too few points, mismatched lengths, coincident
    /// abscissae, NaN and ∞ values, and sums that overflow.
    #[test]
    fn ols_line_is_the_line_of_ols() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let line = |xs: &[f64], ys: &[f64]| {
            let bits = |(s, b): (f64, f64)| (s.to_bits(), b.to_bits());
            assert_eq!(
                ols_line(xs, ys).map(bits),
                ols(xs, ys).map(|f| bits((f.slope, f.intercept))),
                "{xs:?}, {ys:?}"
            );
        };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let n = rng.gen_range(2..60usize);
            let hz = rng.gen_bool(0.5);
            let xs: Vec<f64> = (0..n)
                .map(|i| if hz { 902.75e6 + 5e5 * i as f64 } else { rng.gen_range(-9.0..9.0) })
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| 1e-7 * x + rng.gen_range(-40.0..40.0)).collect();
            line(&xs, &ys);
        }
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let degenerate: [(&[f64], &[f64]); 9] = [
            (&[], &[]),
            (&[1.0], &[1.0]),
            (&[1.0, 2.0], &[1.0]),
            (&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            (&[0.0, 1.0, 2.0], &[1.0, nan, 3.0]),
            (&[0.0, nan, 2.0], &[1.0, 2.0, 3.0]),
            (&[0.0, 1.0, 2.0], &[1.0, inf, 3.0]),
            (&[0.0, 1.0, 1e300], &[1.0, 2.0, 3.0]),
            (&[-1e300, 1e300], &[1.0, 2.0]),
        ];
        for (xs, ys) in degenerate {
            line(xs, ys);
        }
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

    /// A noisy 50-channel line in the shape of a standard window.
    fn noisy_line() -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (0..50).map(|i| 902.75e6 + 5e5 * i as f64).collect();
        let ys = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                1.3e-7 * (x - 902.75e6) + 0.4 + 0.02 * (((i * 7919) % 13) as f64 / 6.0 - 1.0)
            })
            .collect();
        (xs, ys)
    }

    /// The median of every valid pairwise slope, selected in pair order.
    fn full_selection(xs: &[f64], ys: &[f64]) -> f64 {
        let mut all: Vec<f64> = (0..xs.len())
            .flat_map(|i| ((i + 1)..xs.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| (xs[j] - xs[i]).abs() > 0.0)
            .map(|(i, j)| (ys[j] - ys[i]) / (xs[j] - xs[i]))
            .collect();
        stats::median_in_place(&mut all).unwrap()
    }

    /// Pin: a noisy line, and the same line with a block of 14 channels
    /// 6 rad off it on either side (the block pulls the least-squares
    /// slope off the median pairwise slope), read out the full
    /// selection's bits, dividing each of the 1,225 pairs once.
    #[test]
    fn one_sided_outliers_read_out_the_full_selection() {
        let (xs, clean) = noisy_line();
        let mut ws = FitWorkspace::default();
        for shift in [0.0, 6.0, -6.0] {
            let mut ys = clean.clone();
            for y in ys.iter_mut().skip(36) {
                *y += shift;
            }
            let mut fit = None;
            let t = tallied(|| fit = Some(theil_sen_with(&mut ws, &xs, &ys).unwrap()));
            let fit = fit.unwrap();
            let ols_slope = ols(&xs, &ys).unwrap().slope;
            let expected = full_selection(&xs, &ys);
            assert_eq!(fit.slope.to_bits(), expected.to_bits(), "shift {shift}");
            if shift != 0.0 {
                assert!((ols_slope - expected).abs() > 1e-8, "shift {shift}: OLS {ols_slope}");
            }
            assert_eq!(t.divided, 1225, "shift {shift}: {t:?}");
        }
    }

    /// Pin: a workspace that met 30- and 45-channel windows before a
    /// 50-channel one holds the 1,225 slope slots the 50-channel window
    /// needs, as one that met only that window does.
    #[test]
    fn slope_buffer_holds_exactly_the_largest_windows_pairs() {
        let (xs, ys) = noisy_line();
        let slots = |channels: &[usize]| {
            let mut ws = FitWorkspace::default();
            for &n in channels {
                theil_sen_with(&mut ws, &xs[..n], &ys[..n]).unwrap();
            }
            ws.slopes.capacity()
        };
        assert_eq!(slots(&[30, 45, 50]), 1225);
        assert_eq!(slots(&[50]), 1225);
    }

    /// Pin: over the antenna windows of 64 static tags in `standard_2d`
    /// and of 32 in the six-antenna 3-D scene's cluttered room, the pilot
    /// band misses at most 2% of the medians (each miss takes the full
    /// selection, so under 10% miss and at most 2% select every slope),
    /// and every pair is divided once.
    #[test]
    fn survey_windows_select_in_a_band_and_divide_each_pair_once() {
        use crate::fold::tests::{standard_survey_windows, survey_windows};
        use crate::preprocess::{preprocess_reads_with, PreprocessConfig};
        use rfp_geom::Vec3;
        use rfp_sim::{Motion, MultipathEnvironment, Scene};
        let room = Scene::six_antenna_3d().with_environment(MultipathEnvironment::cluttered(6, 6));
        let (lo, hi) = (room.region().min(), room.region().max());
        let cluttered = survey_windows(&room, 32, |k| {
            let (i, j, h) = ((k % 4) as f64 + 0.5, ((k / 4) % 4) as f64 + 0.5, (k / 16) as f64);
            let position = Vec3::new(
                lo.x + (hi.x - lo.x) * i / 4.0,
                lo.y + (hi.y - lo.y) * j / 4.0,
                0.3 + 0.9 * h,
            );
            let (theta, phi) = (0.4 + 0.7 * k as f64, 1.9 * k as f64);
            let dipole =
                Vec3::new(theta.sin() * phi.cos(), theta.sin() * phi.sin(), theta.cos());
            Motion::Static { position, dipole }
        });
        let mut ws = crate::FrontEndWorkspace::default();
        let mut out = Vec::new();
        let pools = [("standard_2d", standard_survey_windows(8)), ("cluttered room", cluttered)];
        for (label, windows) in pools {
            let (mut pairs, mut fits) = (0, 0);
            let t = tallied(|| {
                for reads in &windows {
                    if preprocess_reads_with(&mut ws, reads, &PreprocessConfig::default(), &mut out)
                        .is_err()
                    {
                        continue;
                    }
                    let (xs, ys, fit_ws) = ws.fit_columns();
                    pairs += xs.len() * (xs.len() - 1) / 2;
                    fits += 1;
                    theil_sen_with(fit_ws, xs, ys).unwrap();
                }
            });
            let all = windows.len();
            assert!(fits * 10 >= all * 9, "{label}: {fits} of {all} windows fit");
            assert_eq!(t.divided, pairs, "{label}");
            assert!(t.full * 50 <= fits, "{label}: {t:?} over {fits} windows");
        }
    }

    #[test]
    fn predict_evaluates_the_line() {
        let fit = ols(&[0.0, 1.0], &[1.0, 3.0]).unwrap();
        assert!((fit.predict(2.0) - 5.0).abs() < 1e-12);
    }
}
