//! Incremental sliding-window front end: per-channel accumulators that
//! **update** on read arrival and **downdate** on expiry, so advancing a
//! window by `k` reads costs `O(k + C)` (`C` = live channels) instead of
//! re-running the `O(window)` batch front end.
//!
//! # How it stays equivalent to the batch path
//!
//! Every per-channel quantity the batch front end derives —
//! circular-statistic accumulators, fold sums, spread, the unwrap and the
//! global π majority vote — is either maintained incrementally or
//! recomputed lazily from the channel's retained reads when its membership
//! changed ("dirty"). Per-channel sums accumulate in arrival order, which
//! is exactly the per-channel summation order of the batch pass, so a
//! channel that has only ever been *appended to* since its last exact
//! rebuild is **bit-identical** to the batch recompute. Downdating
//! (subtracting an expired read's contribution) is not exactly invertible
//! in floating point: a downdated ("drifted") channel's sums sit within a
//! few ulps (≲1e-12) of the batch values.
//!
//! That residual drift is contained by three mechanisms:
//!
//! 1. **Exact rebuilds** — an emptied channel resets to the exact zero
//!    state; a channel accumulates at most 64 update/downdate operations
//!    while drifted before its sums are re-accumulated from the retained
//!    reads (bit-identical to batch again); and a drifted channel whose
//!    mean circular resultant falls below 0.01 (accumulator cancellation —
//!    the axis would amplify the drift) is rebuilt immediately.
//! 2. **Decision margins** — every discrete decision downstream of a
//!    drifted sum (π-fold classification, unwrap jump selection, the
//!    majority-vote comparisons, the robust fit's inlier rejections via
//!    [`crate::robust::robust_line_fit_seeded`]'s sensitivity probe) is
//!    checked against a 1e-6 rad decision margin. A decision
//!    that clears its boundary by more than the margin is guaranteed to
//!    agree with the batch decision (the drift is orders of magnitude
//!    smaller); one that does not triggers
//! 3. **Full-recompute fallback** — the retained reads are concatenated
//!    per channel and fed through the ordinary batch
//!    [`preprocess_reads_with`], which is bit-identical to a batch call on
//!    the same reads (per-channel orders are preserved; every
//!    cross-channel step of the front end is order-invariant). Fallbacks
//!    are tallied in [`StreamingStats::refit_fallbacks`].
//!
//! Net: when no fallback fires, emitted phases differ from the batch
//! recompute by the contained accumulator drift (≤1e-9 end to end) with
//! *identical* robust inlier masks; channels never downdated since their
//! last rebuild — and the entire fallback path — are bit-identical. The
//! `streaming_equivalence` property suite in `rfp-core` pins both claims
//! against random arrival/expiry schedules.

use std::collections::VecDeque;
use std::f64::consts::{FRAC_PI_2, PI};

use crate::linfit::{FitError, LineFit};
use crate::preprocess::{
    order_channels, preprocess_reads_with, wrap_tau, wrapped_distance, ChannelObservation,
    PreprocessError, RawRead,
};
use crate::robust::{robust_line_fit_seeded, RobustSummary};
use crate::stats;
use crate::trig::{self, hit};
use crate::workspace::FrontEndWorkspace;
use crate::ExtractConfig;
use rfp_geom::angle;

/// Maximum update/downdate operations a channel absorbs *while drifted*
/// before its sums are rebuilt exactly from the retained reads. Bounds the
/// accumulated downdating drift to `MAX_DRIFT_OPS` ulp-scale errors
/// (≈`64 · 4.4e-14 ≈ 3e-12` per sum).
const MAX_DRIFT_OPS: u32 = 64;

/// Minimum mean circular resultant `r̄ = |Σ phasor| / n` a drifted channel
/// may have before its sums are rebuilt exactly: below this, cancellation
/// has eaten the accumulator's significand and the axis `atan2` would
/// amplify the downdating drift unboundedly.
const CONDITIONING_FLOOR: f64 = 0.01;

/// Margin (radians) by which every discrete decision downstream of a
/// drifted accumulator must clear its boundary; decisions inside it
/// trigger the full-recompute fallback. It dwarfs the contained drift
/// (≲1e-9) while staying far below real decision gaps.
const DECISION_MARGIN: f64 = 1e-6;

/// Per-advance work tallies of a [`StreamingWindow`], feeding the
/// `streaming.*` observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingStats {
    /// Reads pushed into the window (accumulator updates).
    pub updates: u64,
    /// Reads expired out of the window (accumulator downdates).
    pub downdates: u64,
    /// Full batch recomputes taken because downdating would have lost
    /// precision (decision-margin hazard, robust-mask flip).
    pub refit_fallbacks: u64,
    /// Update/downdate operations absorbed by *drifted* channels — the
    /// pressure against the per-channel drift budget; a high rate
    /// means channels churn while carrying downdating drift.
    pub drift_ops: u64,
    /// Exact per-channel sum re-accumulations (drift budget exhausted,
    /// conditioning floor crossed, or post-fallback resync).
    pub rebuilds: u64,
}

/// Errors from [`StreamingWindow::extract_into`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamingError {
    /// No channel holds enough reads to aggregate.
    Preprocess(PreprocessError),
    /// The per-window line fit failed (degenerate input).
    Fit(FitError),
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::Preprocess(e) => write!(f, "streaming pre-processing failed: {e}"),
            StreamingError::Fit(e) => write!(f, "streaming line fit failed: {e}"),
        }
    }
}

impl std::error::Error for StreamingError {}

/// Result of one [`StreamingWindow::extract_into`] advance.
#[derive(Debug, Clone, Copy)]
pub struct StreamExtract {
    /// Whether this advance took the full-recompute fallback path.
    pub fallback: bool,
    /// Raw (pre-rejection) line fit over the window's channels.
    pub raw_fit: LineFit,
    /// Robust (multipath-suppressed) fit summary; `None` when
    /// [`ExtractConfig::suppress_multipath`] is off. The matching
    /// per-channel inlier mask is [`StreamingWindow::inlier_mask`].
    pub robust: Option<RobustSummary>,
}

/// One retained read plus the phasors computed for it at push time, so
/// no per-read trigonometry runs on the incremental extract path. `acc`
/// is the pass-1 phasor (doubled angle in π-jump mode);
/// `base`/`shift` are the fold-pass phasors for the unshifted and
/// π-shifted classification (π-jump mode only).
#[derive(Debug, Clone, Copy)]
struct StoredRead {
    read: RawRead,
    acc_sin: f64,
    acc_cos: f64,
    base_sin: f64,
    base_cos: f64,
    shift_sin: f64,
    shift_cos: f64,
    /// Fold classification against the channel's cached fold axis:
    /// `true` when this read contributed its base phasor, `false` the
    /// π-shifted one. Lets expiry downdate the fold sums in O(1).
    fold_base: bool,
    /// Majority-vote classification against the channel's cached vote
    /// axis (`true` = counted toward the axis side).
    vote_in: bool,
}

/// Incremental per-channel state: the retained reads plus running sums
/// and lazily recomputed derived quantities.
#[derive(Debug, Default)]
struct ChannelState {
    chan: usize,
    fifo: VecDeque<StoredRead>,
    count: usize,
    sum_rssi: f64,
    acc_sin: f64,
    acc_cos: f64,
    /// Some retained read is older than a read pushed before it, so
    /// expiry cannot stop at the first read it keeps.
    unordered: bool,
    /// Sums have been downdated since the last exact rebuild.
    drifted: bool,
    /// Update/downdate operations absorbed while drifted.
    drift_ops: u32,
    /// Membership changed since the derived state below was computed.
    dirty: bool,
    axis: f64,
    spread: f64,
    /// Every fold decision cleared the margin when the fold state was
    /// last refreshed.
    fold_margin_ok: bool,
    /// Incremental fold-pass sums: selected (base or π-shifted) phasors
    /// accumulated in FIFO order against `fold_axis`. Valid only while
    /// `fold_cache_valid`; pushes add the classified phasor, expiries
    /// subtract it via the read's stored [`StoredRead::fold_base`] bit.
    fold_sin: f64,
    fold_cos: f64,
    /// The axis every retained read's fold bit was classified against.
    fold_axis: f64,
    /// Lower bound on `min |wrapped_distance(p, fold_axis) − π/2|` over
    /// the retained reads: while the current axis sits closer to
    /// `fold_axis` than this, no fold selection can have flipped and the
    /// cached sums are exactly the sums a fresh classification would
    /// produce.
    fold_min_margin: f64,
    fold_cache_valid: bool,
    /// Incremental majority-vote tally against `vote_axis`, maintained
    /// the same way (integer counts, so downdating is exact).
    votes_axis: usize,
    vote_axis: f64,
    vote_min_margin: f64,
    vote_margin_ok: bool,
    vote_cache_valid: bool,
}

impl ChannelState {
    fn new(chan: usize) -> Self {
        ChannelState { chan, ..Default::default() }
    }

    /// Subtracts an expired read's contributions from the running sums
    /// (its fold and vote classification bits say which), marking the
    /// channel drifted.
    fn downdate(&mut self, sr: &StoredRead) {
        self.count -= 1;
        self.sum_rssi -= sr.read.rssi_dbm;
        self.acc_sin -= sr.acc_sin;
        self.acc_cos -= sr.acc_cos;
        if self.fold_cache_valid {
            if sr.fold_base {
                self.fold_sin -= sr.base_sin;
                self.fold_cos -= sr.base_cos;
            } else {
                self.fold_sin -= sr.shift_sin;
                self.fold_cos -= sr.shift_cos;
            }
        }
        if self.vote_cache_valid && sr.vote_in {
            self.votes_axis -= 1;
        }
        self.drifted = true;
        self.drift_ops += 1;
    }

    /// Exact zero state for an emptied channel (un-drifts it).
    fn reset_exact(&mut self) {
        self.count = 0;
        self.sum_rssi = 0.0;
        self.acc_sin = 0.0;
        self.acc_cos = 0.0;
        self.drifted = false;
        self.drift_ops = 0;
        self.dirty = true;
        self.fold_sin = 0.0;
        self.fold_cos = 0.0;
        self.fold_cache_valid = false;
        self.votes_axis = 0;
        self.vote_cache_valid = false;
    }
}

/// An incrementally maintained sliding window over one antenna's read
/// stream. Push reads with [`push`](Self::push) (normally in
/// nondecreasing timestamp order, as a reader delivers them), expire old
/// ones with
/// [`expire_before`](Self::expire_before), and extract the per-channel
/// observations plus the fitted line with
/// [`extract_into`](Self::extract_into) — the incremental analogue of
/// [`preprocess_reads_with`] followed by the robust line fit, equivalent
/// to the batch recompute per the module docs.
#[derive(Debug)]
pub struct StreamingWindow {
    config: ExtractConfig,
    /// [`DECISION_MARGIN`]; the hazard test widens it to force fallbacks.
    margin: f64,
    /// channel id → index into `channels` (`u32::MAX` = never seen).
    slot_of: Vec<u32>,
    channels: Vec<ChannelState>,
    /// Kept channel indices sorted by (frequency, channel id).
    order: Vec<usize>,
    /// Unwrap scratch in sorted order.
    phase_col: Vec<f64>,
    /// Batch workspace: runs the fallback path and hosts the fit columns
    /// + scratch for both paths.
    ws: FrontEndWorkspace,
    /// Fallback gather scratch.
    scratch_reads: Vec<RawRead>,
    /// Robust inlier mask of the previous advance (mask-flip guard).
    last_mask: Vec<bool>,
    had_mask: bool,
    /// Incrementally maintained Theil–Sen pairwise-slope state.
    slope_cache: SlopeCache,
    /// Work tallies since the last [`take_stats`](Self::take_stats).
    stats: StreamingStats,
    /// Trig tallies (`[table lookups, libm calls]`).
    trig_hits: [u64; 2],
}

/// Incrementally maintained Theil–Sen pairwise-slope state over the
/// emitted fit columns.
///
/// Unchanged channels re-emit bitwise-identical unwrapped phases across
/// advances (the unwrap corrects each channel's own wrapped value by an
/// integer number of periods), so in steady state only the few freshly
/// dwelt or expired channels move — refreshing just their pairs replaces
/// the O(n²) pairwise division sweep with an O(changed·n) touch-up.
/// Each changed column still touches `n - 1` pair slopes, so any fully
/// *sorted* representation of the multiset (merge, splice, or re-select)
/// would pay O(n²) per advance regardless; instead the cache tracks only
/// a **rank band** around the median: the multiset's member values inside
/// a fixed slope interval chosen to cover the median rank(s) with
/// [`BAND_PAD`] ranks of slack on each side, plus the exact count of
/// valid slopes below the interval. While the abscissae are unchanged the
/// median *ranks* are fixed, so each query is a coverage check plus a
/// small select inside the band (`stats::band_median`, the helper the
/// batch Theil–Sen's value band uses too) — and every pair refresh adjusts the
/// below-count or band membership in O(1). The band partitions the
/// multiset by value, so the in-band selection reads out exactly the
/// order statistics [`theil_sen_with`](crate::linfit::theil_sen_with)
/// computes, keeping the slope bit-identical to the batch enumeration;
/// when churn walks the median rank out of the band (or bloats it), the
/// band is re-derived from the slope matrix by quickselect — the same
/// cost the batch path pays every advance.
#[derive(Debug, Default)]
struct SlopeCache {
    /// Bitwise snapshot of the previous advance's fit columns.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Flat upper-triangular pairwise slopes in the `(i, j > i)`
    /// lexicographic order the batch enumeration uses; NaN marks the
    /// `dx == 0` pairs the batch enumeration skips entirely.
    slopes: Vec<f64>,
    /// Band interval (inclusive on both ends). Values strictly below
    /// `band_lo` are counted in `below`; values in `[band_lo, band_hi]`
    /// live in `members`; values above are only implied.
    band_lo: f64,
    band_hi: f64,
    /// Number of valid slopes strictly below `band_lo`.
    below: usize,
    /// The band's member values, unordered (a value sub-multiset).
    members: Vec<f64>,
    /// Number of valid (non-NaN) slopes in the multiset; depends only on
    /// the abscissae, so it is constant between full rebuilds.
    valid_count: usize,
    /// Band re-derivation scratch.
    scratch: Vec<f64>,
    /// Column indices whose emitted value changed since last advance,
    /// plus the same set as a flag bitmap (each changed pair is touched
    /// exactly once).
    changed: Vec<usize>,
    changed_flag: Vec<bool>,
    valid: bool,
}

/// Ranks of slack the band keeps on each side of the median ranks when
/// (re-)derived. Larger pads survive more churn between re-derivations
/// but make every in-band select proportionally larger.
const BAND_PAD: usize = 48;

/// Member-count ceiling past which the band is re-derived even while it
/// still covers the median: values migrating *into* the interval grow
/// `members` without bound otherwise (the interval is fixed between
/// re-derivations).
const BAND_BLOAT_LIMIT: usize = 384;


/// One pairwise Theil–Sen slope, NaN when the abscissae coincide.
fn pair_slope(xs: &[f64], ys: &[f64], i: usize, j: usize) -> f64 {
    let dx = xs[j] - xs[i];
    if dx.abs() > 0.0 {
        (ys[j] - ys[i]) / dx
    } else {
        f64::NAN
    }
}

impl SlopeCache {
    /// The median pairwise slope over `(xs, ys)` — bitwise the slope
    /// [`theil_sen_with`](crate::linfit::theil_sen_with) computes —
    /// recomputing only pairs that touch a column whose value changed
    /// since the previous call. Falls back to a full rebuild when the
    /// abscissae changed (channel membership / order) or most columns
    /// moved (e.g. a global π vote flip).
    fn median_slope(&mut self, xs: &[f64], ys: &[f64]) -> Result<f64, FitError> {
        if xs.len() != ys.len() {
            return Err(FitError::LengthMismatch);
        }
        let n = xs.len();
        if n < 2 {
            return Err(FitError::TooFewPoints);
        }
        let same_xs = self.valid
            && self.xs.len() == n
            && self.xs.iter().zip(xs).all(|(a, b)| a.to_bits() == b.to_bits());
        let mut incremental = false;
        if same_xs {
            self.changed.clear();
            for (i, (y, prev)) in ys.iter().zip(&self.ys).enumerate() {
                if y.to_bits() != prev.to_bits() {
                    self.changed.push(i);
                }
            }
            incremental = 2 * self.changed.len() <= n;
        }
        let mut band_fresh = false;
        if incremental {
            self.changed_flag.clear();
            self.changed_flag.resize(n, false);
            for &i in &self.changed {
                self.changed_flag[i] = true;
            }
            for c in 0..self.changed.len() {
                let i = self.changed[c];
                self.ys[i] = ys[i];
                for j in 0..n {
                    // Pairs between two changed columns are refreshed once,
                    // when the smaller index is being processed.
                    if j == i || (self.changed_flag[j] && j < i) {
                        continue;
                    }
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    let idx = a * (2 * n - a - 1) / 2 + (b - a - 1);
                    let old = self.slopes[idx];
                    let new = pair_slope(xs, ys, a, b);
                    self.slopes[idx] = new;
                    // Pair validity depends only on the (unchanged)
                    // abscissae, so old and new are NaN together and
                    // `valid_count` is preserved; NaN fails both interval
                    // compares, so invalid pairs fall through as no-ops.
                    debug_assert_eq!(old.is_nan(), new.is_nan());
                    if old < self.band_lo {
                        self.below -= 1;
                    } else if old <= self.band_hi {
                        let pos = self
                            .members
                            .iter()
                            .position(|&v| v == old)
                            .expect("band member missing");
                        self.members.swap_remove(pos);
                    }
                    if new < self.band_lo {
                        self.below += 1;
                    } else if new <= self.band_hi {
                        self.members.push(new);
                    }
                }
            }
        } else {
            self.xs.clear();
            self.xs.extend_from_slice(xs);
            self.ys.clear();
            self.ys.extend_from_slice(ys);
            self.slopes.clear();
            self.slopes.reserve(n * (n - 1) / 2);
            for i in 0..n {
                for j in (i + 1)..n {
                    self.slopes.push(pair_slope(xs, ys, i, j));
                }
            }
            self.valid_count = self.slopes.iter().filter(|v| !v.is_nan()).count();
            self.valid = true;
            if self.valid_count > 0 {
                self.rebuild_band();
                band_fresh = true;
            }
        }
        let m = self.valid_count;
        if m == 0 {
            return Err(FitError::DegenerateX);
        }
        // Re-derive the band when churn grew it past the bloat ceiling or
        // walked the median rank outside it. Coverage is guaranteed after
        // a re-derivation (`below ≤ lo_rank ≤ r0` and the inclusive upper
        // edge keeps every tie of the padded upper rank in the band). The
        // band holds no -0.0 (ascending abscissae make tied-y slopes
        // exactly +0.0), so equal selected values are bit-identical to the
        // batch selection's.
        if !band_fresh && self.members.len() > BAND_BLOAT_LIMIT {
            self.rebuild_band();
            band_fresh = true;
        }
        if let Some(median) = stats::band_median(&mut self.members, self.below, m) {
            return Ok(median);
        }
        debug_assert!(!band_fresh, "a re-derived band covers the median");
        self.rebuild_band();
        Ok(stats::band_median(&mut self.members, self.below, m).expect("re-derived band covers"))
    }

    /// Re-derive the band interval, below-count, and member sub-multiset
    /// from the slope matrix: quickselect the padded rank endpoints, then
    /// one partition pass. Requires `valid_count > 0`.
    fn rebuild_band(&mut self) {
        let m = self.valid_count;
        let (r0, r1) = ((m - 1) / 2, m / 2);
        let lo_rank = r0.saturating_sub(BAND_PAD);
        let hi_rank = (r1 + BAND_PAD).min(m - 1);
        self.scratch.clear();
        self.scratch.extend(self.slopes.iter().copied().filter(|v| !v.is_nan()));
        debug_assert_eq!(self.scratch.len(), m);
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite slopes");
        let (_, v_lo, upper) = self.scratch.select_nth_unstable_by(lo_rank, cmp);
        self.band_lo = *v_lo;
        self.band_hi = if hi_rank > lo_rank {
            let (_, v_hi, _) = upper.select_nth_unstable_by(hi_rank - lo_rank - 1, cmp);
            *v_hi
        } else {
            self.band_lo
        };
        let (band_lo, band_hi) = (self.band_lo, self.band_hi);
        self.below = 0;
        self.members.clear();
        for &v in &self.slopes {
            if v < band_lo {
                self.below += 1;
            } else if v <= band_hi {
                self.members.push(v);
            }
        }
    }
}

impl StreamingWindow {
    /// An empty window running the front end of `config`, the
    /// configuration the batch extraction takes.
    pub fn new(config: ExtractConfig) -> Self {
        StreamingWindow {
            config,
            margin: DECISION_MARGIN,
            slot_of: Vec::new(),
            channels: Vec::new(),
            order: Vec::new(),
            phase_col: Vec::new(),
            ws: FrontEndWorkspace::default(),
            scratch_reads: Vec::new(),
            last_mask: Vec::new(),
            had_mask: false,
            slope_cache: SlopeCache::default(),
            stats: StreamingStats::default(),
            trig_hits: [0; 2],
        }
    }

    /// The window's configuration.
    pub fn config(&self) -> &ExtractConfig {
        &self.config
    }

    /// Total reads currently retained.
    pub fn read_count(&self) -> usize {
        self.channels.iter().map(|c| c.count).sum()
    }

    /// Work tallies since the last [`take_stats`](Self::take_stats).
    pub fn stats(&self) -> StreamingStats {
        self.stats
    }

    /// Returns and resets the work tallies.
    pub fn take_stats(&mut self) -> StreamingStats {
        std::mem::take(&mut self.stats)
    }

    /// Returns and resets the trig tallies (`[table lookups, libm
    /// calls]`), counting every phasor evaluated at push time plus any
    /// fallback recompute's work.
    pub fn take_trig_hits(&mut self) -> [u64; 2] {
        std::mem::take(&mut self.trig_hits)
    }

    /// Robust inlier mask of the most recent successful
    /// [`extract_into`](Self::extract_into) (parallel to its emitted
    /// channels, sorted by frequency).
    pub fn inlier_mask(&self) -> &[bool] {
        self.ws.fit.inlier_mask()
    }

    /// Pushes one read into the window, updating its channel's running
    /// sums in O(1). Per-channel sums accumulate in push order, the order
    /// the batch front end sees the retained reads in. A read the batch
    /// front end skips (a non-finite phase or frequency, an out-of-range
    /// channel) is skipped here too, and so is a read whose timestamp is
    /// not finite: no cutoff could ever expire it. Reads normally arrive
    /// in nondecreasing timestamp order (the order a reader stream
    /// delivers them); one that arrives older than its channel's last
    /// read marks the channel for scanning expiry.
    pub fn push(&mut self, read: &RawRead) {
        if !read.is_usable() || !read.timestamp_s.is_finite() {
            return;
        }
        let doubled = self.config.preprocess.correct_pi_jumps;
        let mut stored = self.compute_phasors(read, doubled);
        let s = self.slot(read.channel);
        let ch = &mut self.channels[s];
        // Classify against the cached axes now so the fold sums and vote
        // tally stay current without revisiting the FIFO at extract time.
        // The additions land in FIFO (= batch) order, so an append-only
        // channel's fold sums remain bit-identical to a fresh pass as
        // long as no selection has flipped (checked at extract via the
        // cached minimum margins).
        if doubled && ch.fold_cache_valid {
            let dist = wrapped_distance(read.phase, ch.fold_axis);
            let m = (dist - FRAC_PI_2).abs();
            if m < ch.fold_min_margin {
                ch.fold_min_margin = m;
            }
            stored.fold_base = dist <= FRAC_PI_2;
            if stored.fold_base {
                ch.fold_sin += stored.base_sin;
                ch.fold_cos += stored.base_cos;
            } else {
                ch.fold_sin += stored.shift_sin;
                ch.fold_cos += stored.shift_cos;
            }
        }
        if doubled && ch.vote_cache_valid {
            let dist = wrapped_distance(read.phase, ch.vote_axis);
            let m = (dist - FRAC_PI_2).abs();
            if m < ch.vote_min_margin {
                ch.vote_min_margin = m;
            }
            stored.vote_in = dist <= FRAC_PI_2;
            if stored.vote_in {
                ch.votes_axis += 1;
            }
        }
        if ch.fifo.back().is_some_and(|b| read.timestamp_s < b.read.timestamp_s) {
            ch.unordered = true;
        }
        ch.fifo.push_back(stored);
        ch.count += 1;
        ch.sum_rssi += read.rssi_dbm;
        ch.acc_sin += stored.acc_sin;
        ch.acc_cos += stored.acc_cos;
        if ch.drifted {
            ch.drift_ops += 1;
            self.stats.drift_ops += 1;
        }
        ch.dirty = true;
        self.stats.updates += 1;
    }

    /// Expires every retained read with `timestamp_s < cutoff_s`,
    /// downdating its channel's sums, and returns the number removed.
    /// Afterwards no retained read is older than `cutoff_s`, whatever
    /// order the reads were pushed in: a channel whose reads arrived in
    /// timestamp order expires from its front, any other by a scan.
    /// Emptied channels reset to the exact zero state; channels that
    /// exceed the drift-operation budget are rebuilt exactly from their
    /// retained reads.
    pub fn expire_before(&mut self, cutoff_s: f64) -> usize {
        // A NaN cutoff expires everything, as it always has.
        let expired = |sr: &StoredRead| sr.read.timestamp_s < cutoff_s || cutoff_s.is_nan();
        let mut removed = 0usize;
        for ch in &mut self.channels {
            let before = ch.fifo.len();
            if ch.unordered {
                let mut fifo = std::mem::take(&mut ch.fifo);
                let mut last = f64::NEG_INFINITY;
                ch.unordered = false;
                fifo.retain(|sr| {
                    if expired(sr) {
                        ch.downdate(sr);
                        return false;
                    }
                    ch.unordered |= sr.read.timestamp_s < last;
                    last = sr.read.timestamp_s;
                    true
                });
                ch.fifo = fifo;
            } else {
                while let Some(sr) = ch.fifo.front().copied().filter(expired) {
                    ch.fifo.pop_front();
                    ch.downdate(&sr);
                }
            }
            let gone = before - ch.fifo.len();
            if gone > 0 {
                self.stats.drift_ops += gone as u64;
                removed += gone;
                ch.dirty = true;
                if ch.fifo.is_empty() {
                    ch.reset_exact();
                } else if ch.drift_ops >= MAX_DRIFT_OPS {
                    Self::rebuild_channel(ch);
                    self.stats.rebuilds += 1;
                }
            }
        }
        self.stats.downdates += removed as u64;
        removed
    }

    /// Runs the window's front end: per-channel aggregation (incremental
    /// where possible), cross-channel unwrap, π majority vote, and the
    /// raw + robust line fits. `out` is cleared and refilled with the
    /// per-channel observations (sorted by frequency), exactly as the
    /// batch [`preprocess_reads_with`] fills it. In steady state (all
    /// buffer capacities reached, no fallback) the call performs zero
    /// heap allocations.
    ///
    /// # Errors
    ///
    /// [`StreamingError::Preprocess`] when no channel holds enough reads;
    /// [`StreamingError::Fit`] when the line fit is degenerate.
    pub fn extract_into(
        &mut self,
        out: &mut Vec<ChannelObservation>,
    ) -> Result<StreamExtract, StreamingError> {
        let margin = self.margin;
        let min_reads = self.config.preprocess.min_reads_per_channel.max(1);
        let pi_mode = self.config.preprocess.correct_pi_jumps;

        // Conditioning pass: a drifted channel whose resultant has
        // cancelled away is rebuilt exactly before its axis is read off.
        for ch in &mut self.channels {
            if ch.count == 0 || !ch.drifted {
                continue;
            }
            let r = (ch.acc_sin * ch.acc_sin + ch.acc_cos * ch.acc_cos).sqrt()
                / ch.count as f64;
            if r < CONDITIONING_FLOOR {
                Self::rebuild_channel(ch);
                self.stats.rebuilds += 1;
            }
        }
        let any_drifted = self.channels.iter().any(|c| c.count > 0 && c.drifted);
        let mut hazard = false;

        // Per-channel stage: recompute axis / fold / spread for channels
        // whose membership changed, reuse the cache otherwise. The
        // expressions replicate the batch per-slot pass verbatim, and the
        // per-channel fold sums accumulate in FIFO (= batch) order.
        let mut kept = 0usize;
        for ch in &mut self.channels {
            let keep = ch.count >= min_reads;
            if ch.count == 0 || !keep {
                continue;
            }
            kept += 1;
            if ch.dirty {
                let (sin, cos) = (ch.acc_sin, ch.acc_cos);
                let n = ch.count as f64;
                let r = (sin * sin + cos * cos).sqrt() / n;
                let first_phase = ch.fifo.front().expect("non-empty").read.phase;
                if pi_mode {
                    let doubled_mean =
                        if r < 1e-12 { 2.0 * first_phase } else { sin.atan2(cos) };
                    ch.axis = doubled_mean / 2.0;
                    // Reuse the incremental fold sums when no selection
                    // can have flipped: the axis moved less (on the
                    // circle) than the closest retained read ever came to
                    // the fold boundary. Selections then match a fresh
                    // classification exactly, and because pushes appended
                    // phasors in FIFO order, the cached sums are the very
                    // float sequence the batch pass would compute. A
                    // drifted channel whose fold resultant has cancelled
                    // is reclassified instead (exact re-summation), like
                    // the conditioning rebuild of the first-pass sums.
                    let shift = wrapped_distance(ch.axis, ch.fold_axis);
                    let fr_cached = ((ch.fold_sin * ch.fold_sin + ch.fold_cos * ch.fold_cos)
                        .sqrt()
                        / n)
                        .min(1.0);
                    let reuse = ch.fold_cache_valid
                        && shift < ch.fold_min_margin
                        && !(ch.drifted && fr_cached < CONDITIONING_FLOOR);
                    if reuse {
                        ch.fold_margin_ok = ch.fold_min_margin - shift > margin;
                        ch.spread = (-2.0 * fr_cached.max(1e-300).ln()).sqrt();
                    } else {
                        let mut fold_sin = 0.0;
                        let mut fold_cos = 0.0;
                        let mut min_m = f64::INFINITY;
                        let mut margin_ok = true;
                        for sr in &mut ch.fifo {
                            let dist = wrapped_distance(sr.read.phase, ch.axis);
                            let m = (dist - FRAC_PI_2).abs();
                            if m < min_m {
                                min_m = m;
                            }
                            if m < margin {
                                margin_ok = false;
                            }
                            sr.fold_base = dist <= FRAC_PI_2;
                            if sr.fold_base {
                                fold_sin += sr.base_sin;
                                fold_cos += sr.base_cos;
                            } else {
                                fold_sin += sr.shift_sin;
                                fold_cos += sr.shift_cos;
                            }
                        }
                        ch.fold_sin = fold_sin;
                        ch.fold_cos = fold_cos;
                        ch.fold_axis = ch.axis;
                        ch.fold_min_margin = min_m;
                        ch.fold_cache_valid = true;
                        ch.fold_margin_ok = margin_ok;
                        let fr =
                            ((fold_sin * fold_sin + fold_cos * fold_cos).sqrt() / n).min(1.0);
                        ch.spread = (-2.0 * fr.max(1e-300).ln()).sqrt();
                    }
                } else {
                    ch.axis = if r < 1e-12 { first_phase } else { sin.atan2(cos) };
                    ch.spread = (-2.0 * r.clamp(1e-300, 1.0).ln()).sqrt();
                    ch.fold_margin_ok = true;
                }
                ch.dirty = false;
            }
            if ch.drifted && !ch.fold_margin_ok {
                hazard = true;
            }
        }
        if kept == 0 {
            return Err(StreamingError::Preprocess(PreprocessError::NoUsableChannels));
        }

        // Kept channels ascending by (frequency, channel id) — the batch
        // slot ordering.
        let channels = &self.channels;
        order_channels(
            &mut self.order,
            &self.slot_of,
            channels.len(),
            |s| channels[s].chan,
            |s| channels[s].count >= min_reads && channels[s].count > 0,
            |s| channels[s].fifo.front().expect("kept").read.frequency_hz,
        );

        // Cross-channel unwrap. The jump decisions flip only when a
        // consecutive difference sits at the half-period boundary, so a
        // post-hoc scan bounds them: under drift, any |d| within the
        // margin of the boundary is a hazard.
        self.phase_col.clear();
        for &s in &self.order {
            self.phase_col.push(wrap_tau(self.channels[s].axis));
        }
        let half = if pi_mode {
            angle::unwrap_in_place_period(&mut self.phase_col, PI);
            FRAC_PI_2
        } else {
            angle::unwrap_in_place(&mut self.phase_col);
            PI
        };
        if any_drifted {
            for k in 1..self.phase_col.len() {
                let d = self.phase_col[k] - self.phase_col[k - 1];
                if d.abs() > half - margin {
                    hazard = true;
                }
            }
        }

        // Global π majority vote over every retained read. The
        // per-channel tallies are maintained incrementally (pushes count
        // the new read against the cached vote axis, expiries subtract
        // the stored bit — counts are integers, so downdating is exact);
        // a channel is recounted only when the unwrapped axis moved
        // further than the closest read ever came to the vote boundary,
        // i.e. only when a vote could actually have flipped.
        if pi_mode {
            let mut votes_axis = 0usize;
            let mut votes_total = 0usize;
            for (k, &s) in self.order.iter().enumerate() {
                let unwrapped = self.phase_col[k];
                let ch = &mut self.channels[s];
                let shift = wrapped_distance(unwrapped, ch.vote_axis);
                if ch.vote_cache_valid && shift < ch.vote_min_margin {
                    ch.vote_margin_ok = ch.vote_min_margin - shift > margin;
                } else {
                    let mut va = 0usize;
                    let mut min_m = f64::INFINITY;
                    let mut margin_ok = true;
                    for sr in &mut ch.fifo {
                        let dist = wrapped_distance(sr.read.phase, unwrapped);
                        let m = (dist - FRAC_PI_2).abs();
                        if m < min_m {
                            min_m = m;
                        }
                        if m < margin {
                            margin_ok = false;
                        }
                        sr.vote_in = dist <= FRAC_PI_2;
                        if sr.vote_in {
                            va += 1;
                        }
                    }
                    ch.votes_axis = va;
                    ch.vote_margin_ok = margin_ok;
                    ch.vote_axis = unwrapped;
                    ch.vote_min_margin = min_m;
                    ch.vote_cache_valid = true;
                }
                votes_total += ch.count;
                votes_axis += ch.votes_axis;
                if any_drifted && !ch.vote_margin_ok {
                    hazard = true;
                }
            }
            if 2 * votes_axis < votes_total {
                for p in &mut self.phase_col {
                    *p += PI;
                }
            }
        }

        // Emit the observations and feed the fused unwrap+OLS sums + fit
        // columns, as the batch emit loop does.
        self.ws.reset_channels();
        out.clear();
        for (k, &s) in self.order.iter().enumerate() {
            let ch = &self.channels[s];
            let freq = ch.fifo.front().expect("kept").read.frequency_hz;
            let phase = self.phase_col[k];
            out.push(ChannelObservation {
                channel: ch.chan,
                frequency_hz: freq,
                phase,
                rssi_dbm: ch.sum_rssi / ch.count as f64,
                read_count: ch.count,
                phase_spread: ch.spread,
            });
            self.ws.emit(freq, phase);
        }

        // Fit stage; the robust sensitivity probe and the mask-flip guard
        // only arm while any channel is drifted (otherwise the columns are
        // bit-identical to batch and need no guard).
        let mut fallback = hazard;
        let mut fit = None;
        if !fallback {
            match self.fit_stage(any_drifted, margin).map_err(StreamingError::Fit)? {
                Some(result) => fit = Some(result),
                None => fallback = true,
            }
        }
        if fallback {
            self.stats.refit_fallbacks += 1;
            self.run_fallback(out)?;
            fit = Some(
                self.fit_stage(false, 0.0)
                    .map_err(StreamingError::Fit)?
                    .expect("unguarded fit cannot signal a hazard"),
            );
        }
        let (raw_fit, robust) = fit.expect("fit stage ran");
        Ok(StreamExtract { fallback, raw_fit, robust })
    }

    /// Raw + robust fits over the workspace's current fit columns.
    /// Returns `Ok(None)` when `guard` is set and a robust decision sat
    /// within the margin or the inlier mask flipped relative to the
    /// previous advance (caller must fall back).
    #[allow(clippy::type_complexity)]
    fn fit_stage(
        &mut self,
        guard: bool,
        margin: f64,
    ) -> Result<Option<(LineFit, Option<RobustSummary>)>, FitError> {
        let raw_fit = self.ws.raw_fit()?;
        if !self.config.suppress_multipath {
            return Ok(Some((raw_fit, None)));
        }
        let robust_cfg = self.config.robust;
        let probe = if guard { margin } else { 0.0 };
        let (xs, ys, fit_ws) = self.ws.fit_columns();
        // Seed slope from the incrementally maintained pairwise multiset —
        // bit-identical to the O(n²) enumeration inside the unseeded fit.
        let slope = self.slope_cache.median_slope(xs, ys)?;
        let (summary, sensitive) =
            robust_line_fit_seeded(fit_ws, xs, ys, &robust_cfg, probe, slope)?;
        if guard {
            if sensitive {
                return Ok(None);
            }
            if self.had_mask && self.ws.fit.inlier_mask() != &self.last_mask[..] {
                return Ok(None);
            }
        }
        self.last_mask.clear();
        self.last_mask.extend_from_slice(self.ws.fit.inlier_mask());
        self.had_mask = true;
        Ok(Some((raw_fit, Some(summary))))
    }

    /// Full batch recompute over the retained reads (concatenated per
    /// channel — bit-identical output to a batch call in arrival order),
    /// then exact rebuilds of every drifted channel so subsequent
    /// advances resume on the incremental path.
    fn run_fallback(
        &mut self,
        out: &mut Vec<ChannelObservation>,
    ) -> Result<(), StreamingError> {
        self.scratch_reads.clear();
        for ch in &self.channels {
            for sr in &ch.fifo {
                self.scratch_reads.push(sr.read);
            }
        }
        let res = preprocess_reads_with(
            &mut self.ws,
            &self.scratch_reads,
            &self.config.preprocess,
            out,
        );
        let fallback_hits = self.ws.trig_hits();
        for (total, h) in self.trig_hits.iter_mut().zip(fallback_hits) {
            *total += h;
        }
        res.map_err(StreamingError::Preprocess)?;
        for ch in &mut self.channels {
            if ch.count > 0 && ch.drifted {
                Self::rebuild_channel(ch);
                self.stats.rebuilds += 1;
            }
        }
        Ok(())
    }

    /// Re-accumulates a channel's sums from its retained reads in FIFO
    /// (= batch) order, restoring bit-identity with the batch recompute
    /// and clearing the drift state. The fold sums and vote tally are
    /// re-summed in the same pass from the stored classification bits
    /// (the selections themselves are unchanged — they depend only on the
    /// cached axes), so those caches survive the rebuild drift-free.
    fn rebuild_channel(ch: &mut ChannelState) {
        ch.sum_rssi = 0.0;
        ch.acc_sin = 0.0;
        ch.acc_cos = 0.0;
        ch.fold_sin = 0.0;
        ch.fold_cos = 0.0;
        let mut va = 0usize;
        for sr in &ch.fifo {
            ch.sum_rssi += sr.read.rssi_dbm;
            ch.acc_sin += sr.acc_sin;
            ch.acc_cos += sr.acc_cos;
            if ch.fold_cache_valid {
                if sr.fold_base {
                    ch.fold_sin += sr.base_sin;
                    ch.fold_cos += sr.base_cos;
                } else {
                    ch.fold_sin += sr.shift_sin;
                    ch.fold_cos += sr.shift_cos;
                }
            }
            if sr.vote_in {
                va += 1;
            }
        }
        if ch.vote_cache_valid {
            ch.votes_axis = va;
        }
        ch.count = ch.fifo.len();
        ch.drifted = false;
        ch.drift_ops = 0;
        ch.dirty = true;
    }

    /// Index of `channel`'s state, allocating one on first sight (slots
    /// persist for the window's lifetime, so steady state allocates
    /// nothing).
    fn slot(&mut self, channel: usize) -> usize {
        if channel >= self.slot_of.len() {
            self.slot_of.resize(channel + 1, u32::MAX);
        }
        let s = self.slot_of[channel];
        if s != u32::MAX {
            return s as usize;
        }
        let slot = self.channels.len();
        self.slot_of[channel] = slot as u32;
        self.channels.push(ChannelState::new(channel));
        slot
    }

    /// Computes the stored phasors for one read, replicating the batch
    /// per-read expressions bit for bit: table lookups when the read's
    /// code reproduces its phase, libm otherwise.
    fn compute_phasors(&mut self, read: &RawRead, doubled: bool) -> StoredRead {
        // `1.0 · p` is exactly `p`: one scaled expression serves both
        // modes, as in the batch passes.
        let scale = if doubled { 2.0 } else { 1.0 };
        let p = read.phase;
        let mut stored = StoredRead {
            read: *read,
            acc_sin: 0.0,
            acc_cos: 0.0,
            base_sin: 0.0,
            base_cos: 0.0,
            shift_sin: 0.0,
            shift_cos: 0.0,
            fold_base: false,
            vote_in: false,
        };
        match read.table_code() {
            Some(code) => {
                self.trig_hits[hit::TABLE] += if doubled { 3 } else { 1 };
                (stored.acc_sin, stored.acc_cos) = if doubled {
                    trig::table_double_sin_cos(code)
                } else {
                    trig::table_sin_cos(code)
                };
                if doubled {
                    (stored.base_sin, stored.base_cos) = trig::table_sin_cos(code);
                    (stored.shift_sin, stored.shift_cos) = trig::table_shift_sin_cos(code);
                }
            }
            None => {
                self.trig_hits[hit::LIBM] += if doubled { 3 } else { 1 };
                let x = scale * p;
                (stored.acc_sin, stored.acc_cos) = (x.sin(), x.cos());
                if doubled {
                    (stored.base_sin, stored.base_cos) = (p.sin(), p.cos());
                    let folded = p + PI;
                    (stored.shift_sin, stored.shift_cos) = (folded.sin(), folded.cos());
                }
            }
        }
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::robust_line_fit_with;

    fn read(channel: usize, phase: f64, t: f64) -> RawRead {
        RawRead {
            channel,
            frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
            phase: angle::wrap_tau(phase),
            rssi_dbm: -55.0 - 0.1 * channel as f64,
            timestamp_s: t,
            phase_code: None,
        }
    }

    /// Dwell-structured stream: `rounds` sweeps over `chans` channels,
    /// `per` reads per dwell, with π jumps sprinkled in.
    fn stream(rounds: usize, chans: usize, per: usize) -> Vec<RawRead> {
        let mut reads = Vec::new();
        for round in 0..rounds {
            for c in 0..chans {
                for k in 0..per {
                    let t = (round * chans + c) as f64 * 0.2
                        + 0.2 * (k as f64 + 0.5) / per as f64;
                    let p = 0.3
                        + 1.1 * c as f64
                        + 0.01 * k as f64
                        + 0.002 * round as f64
                        + if (round + c * 7 + k) % 3 == 0 { PI } else { 0.0 };
                    reads.push(read(c, p, t));
                }
            }
        }
        reads
    }

    fn batch_oracle(
        reads: &[RawRead],
        cfg: &ExtractConfig,
    ) -> (Vec<ChannelObservation>, Vec<bool>, RobustSummary) {
        let mut ws = FrontEndWorkspace::default();
        let mut out = Vec::new();
        preprocess_reads_with(&mut ws, reads, &cfg.preprocess, &mut out).unwrap();
        let (xs, ys, fit_ws) = ws.fit_columns();
        let summary = robust_line_fit_with(fit_ws, xs, ys, &cfg.robust).unwrap();
        let mask = ws.fit.inlier_mask().to_vec();
        (out, mask, summary)
    }

    /// A freshly filled window (no downdates yet) must be bit-identical
    /// to the batch front end on the same reads.
    #[test]
    fn append_only_window_is_bit_identical_to_batch() {
        let reads = stream(1, 12, 8);
        let cfg = ExtractConfig::paper();
        let mut win = StreamingWindow::new(cfg);
        for r in &reads {
            win.push(r);
        }
        let mut out = Vec::new();
        let extract = win.extract_into(&mut out).unwrap();
        assert!(!extract.fallback);
        let (batch, mask, summary) = batch_oracle(&reads, &cfg);
        assert_eq!(out.len(), batch.len());
        for (s, b) in out.iter().zip(&batch) {
            assert_eq!(s.channel, b.channel);
            assert_eq!(s.phase.to_bits(), b.phase.to_bits());
            assert_eq!(s.phase_spread.to_bits(), b.phase_spread.to_bits());
            assert_eq!(s.rssi_dbm.to_bits(), b.rssi_dbm.to_bits());
            assert_eq!(s.read_count, b.read_count);
        }
        assert_eq!(win.inlier_mask(), &mask[..]);
        let robust = extract.robust.unwrap();
        assert_eq!(robust.fit.slope.to_bits(), summary.fit.slope.to_bits());
        assert_eq!(robust.fit.intercept.to_bits(), summary.fit.intercept.to_bits());
    }

    /// Sliding the window dwell by dwell stays within the drift bound of
    /// the batch recompute on the retained read set, with identical
    /// robust inlier masks.
    #[test]
    fn sliding_window_tracks_batch_recompute() {
        let chans = 12;
        let per = 8;
        let reads = stream(4, chans, per);
        let round_len = chans * per;
        let span = chans as f64 * 0.2;
        let cfg = ExtractConfig::paper();
        let mut win = StreamingWindow::new(cfg);
        for r in &reads[..round_len] {
            win.push(r);
        }
        let mut out = Vec::new();
        let mut advances = 0usize;
        let mut fallbacks = 0usize;
        let mut next = round_len;
        while next + per <= reads.len() {
            for r in &reads[next..next + per] {
                win.push(r);
            }
            let now = reads[next + per - 1].timestamp_s;
            win.expire_before(now - span);
            let extract = win.extract_into(&mut out).unwrap();
            advances += 1;
            if extract.fallback {
                fallbacks += 1;
            }
            // Oracle: batch on exactly the retained reads, in arrival
            // order.
            let cutoff = now - span;
            let retained: Vec<RawRead> = reads[..next + per]
                .iter()
                .filter(|r| r.timestamp_s >= cutoff)
                .copied()
                .collect();
            assert_eq!(retained.len(), win.read_count());
            let (batch, mask, _) = batch_oracle(&retained, &cfg);
            assert_eq!(out.len(), batch.len());
            for (s, b) in out.iter().zip(&batch) {
                assert_eq!(s.channel, b.channel);
                assert!(
                    (s.phase - b.phase).abs() < 1e-9,
                    "phase {} vs {}",
                    s.phase,
                    b.phase
                );
                assert!((s.phase_spread - b.phase_spread).abs() < 1e-9);
                assert!((s.rssi_dbm - b.rssi_dbm).abs() < 1e-9);
                assert_eq!(s.read_count, b.read_count);
            }
            assert_eq!(win.inlier_mask(), &mask[..]);
            next += per;
        }
        assert!(advances >= 30, "exercised {advances} advances");
        let stats = win.take_stats();
        assert_eq!(stats.updates as usize, reads.len());
        assert!(stats.downdates > 0);
        assert_eq!(stats.refit_fallbacks as usize, fallbacks);
        // A sliding window keeps channels drifted, so drift ops accrue;
        // they can never exceed the update+downdate op count.
        assert!(stats.drift_ops > 0);
        assert!(stats.drift_ops <= stats.updates + stats.downdates);
    }

    /// An impossible decision margin forces the fallback on a downdated
    /// window, and the fallback output is bit-identical to batch.
    #[test]
    fn hazard_fallback_is_bit_identical_to_batch() {
        let chans = 10;
        let per = 6;
        let reads = stream(2, chans, per);
        let cfg = ExtractConfig::paper();
        let mut win = StreamingWindow::new(cfg);
        // Every fold decision sits "within margin" → guaranteed fallback
        // whenever the window has drifted.
        win.margin = 10.0;
        let round_len = chans * per;
        for r in &reads[..round_len] {
            win.push(r);
        }
        // Expire half of the first dwell to force a partial downdate.
        for r in &reads[round_len..round_len + per] {
            win.push(r);
        }
        let cutoff = reads[per / 2].timestamp_s;
        assert!(win.expire_before(cutoff) > 0);
        let mut out = Vec::new();
        let extract = win.extract_into(&mut out).unwrap();
        assert!(extract.fallback);
        assert_eq!(win.stats().refit_fallbacks, 1);
        let retained: Vec<RawRead> = reads[..round_len + per]
            .iter()
            .filter(|r| r.timestamp_s >= cutoff)
            .copied()
            .collect();
        let (batch, mask, _) = batch_oracle(&retained, &cfg);
        assert_eq!(out.len(), batch.len());
        for (s, b) in out.iter().zip(&batch) {
            assert_eq!(s.phase.to_bits(), b.phase.to_bits());
            assert_eq!(s.phase_spread.to_bits(), b.phase_spread.to_bits());
        }
        assert_eq!(win.inlier_mask(), &mask[..]);
        // The fallback rebuilt the drifted channels: the next advance is
        // incremental again even though the margin is still impossible
        // (no drift → guards disarmed).
        let extract = win.extract_into(&mut out).unwrap();
        assert!(!extract.fallback);
    }

    /// Emptied channels reset exactly; an empty window errors like batch.
    #[test]
    fn empty_window_errors() {
        let cfg = ExtractConfig::paper();
        let mut win = StreamingWindow::new(cfg);
        let mut out = Vec::new();
        assert!(matches!(
            win.extract_into(&mut out),
            Err(StreamingError::Preprocess(PreprocessError::NoUsableChannels))
        ));
        for r in &stream(1, 3, 4) {
            win.push(r);
        }
        assert!(win.extract_into(&mut out).is_ok());
        win.expire_before(f64::INFINITY);
        assert_eq!(win.read_count(), 0);
        assert!(matches!(
            win.extract_into(&mut out),
            Err(StreamingError::Preprocess(PreprocessError::NoUsableChannels))
        ));
    }

    /// A read stamped far ahead must not pin its channel, and one stamped
    /// at ±∞ or NaN must not enter the window at all: after
    /// `expire_before(c)` no retained read is older than `c`, whatever
    /// order or finiteness the pushed timestamps had, and the window still
    /// extracts what the batch front end makes of its retained reads.
    #[test]
    fn expiry_holds_for_out_of_order_and_non_finite_timestamps() {
        for (far, kept) in [(1e12, 1), (f64::INFINITY, 0), (f64::NEG_INFINITY, 0), (f64::NAN, 0)]
        {
            let cfg = ExtractConfig::paper();
            let mut win = StreamingWindow::new(cfg);
            let mut pushed = vec![read(0, 0.4, far)];
            for k in 0..400 {
                for c in 0..2 {
                    let t = k as f64 * 2.0 + c as f64 * 0.5;
                    pushed.push(read(c, 0.4 + 1.1 * c as f64 + 0.001 * k as f64, t));
                }
            }
            for r in &pushed {
                win.push(r);
            }
            win.expire_before(1000.0);
            assert_eq!(win.read_count(), kept, "far timestamp {far}");
            // Out of order from here on: every channel gets reads older
            // than its newest one, then expiry cuts through the middle.
            let late: Vec<RawRead> = (0..60)
                .map(|k| read(k % 3, 0.5 + 1.1 * (k % 3) as f64, 1000.0 + ((k * 37) % 60) as f64))
                .collect();
            for r in &late {
                win.push(r);
            }
            let cutoff = 1030.0;
            win.expire_before(cutoff);
            for ch in &win.channels {
                assert!(ch.fifo.iter().all(|sr| sr.read.timestamp_s >= cutoff), "far {far}");
            }
            let retained: Vec<RawRead> = pushed
                .iter()
                .chain(&late)
                .filter(|r| r.timestamp_s.is_finite() && r.timestamp_s >= cutoff)
                .copied()
                .collect();
            assert_eq!(win.read_count(), retained.len(), "far {far}");
            let mut out = Vec::new();
            win.extract_into(&mut out).unwrap();
            let (batch, mask, _) = batch_oracle(&retained, &cfg);
            assert_eq!(out.len(), batch.len());
            for (s, b) in out.iter().zip(&batch) {
                assert_eq!(s.channel, b.channel);
                assert!((s.phase - b.phase).abs() < 1e-9, "far {far}");
                assert_eq!(s.read_count, b.read_count);
            }
            assert_eq!(win.inlier_mask(), &mask[..]);
        }
    }

    /// Quantized, code-carrying reads ride the same incremental
    /// machinery through the table lookups and track a batch recompute on
    /// the same reads with their codes stripped. Stale codes — phases
    /// shifted after quantizing, codes kept — take libm and track it too.
    #[test]
    fn coded_windows_track_stripped_batch() {
        let chans = 10;
        let per = 6;
        let span = chans as f64 * 0.2;
        let lsb = crate::trig::PHASE_LSB_RAD;
        let quantized: Vec<RawRead> = stream(3, chans, per)
            .iter()
            .map(|r| {
                let phase = angle::wrap_tau((r.phase / lsb).round() * lsb);
                RawRead { phase, phase_code: crate::trig::code_for_phase(phase), ..*r }
            })
            .collect();
        let stale: Vec<RawRead> = quantized
            .iter()
            .map(|r| RawRead { phase: angle::wrap_tau(r.phase + 0.3), ..*r })
            .collect();
        for (label, reads) in [("coded", &quantized), ("stale", &stale)] {
            let cfg = ExtractConfig::paper();
            let mut win = StreamingWindow::new(cfg);
            let round_len = chans * per;
            for r in &reads[..round_len] {
                win.push(r);
            }
            let mut out = Vec::new();
            let mut next = round_len;
            while next + per <= reads.len() {
                for r in &reads[next..next + per] {
                    win.push(r);
                }
                let now = reads[next + per - 1].timestamp_s;
                let cutoff = now - span;
                win.expire_before(cutoff);
                win.extract_into(&mut out).unwrap();
                let retained: Vec<RawRead> = reads[..next + per]
                    .iter()
                    .filter(|r| r.timestamp_s >= cutoff)
                    .map(|r| RawRead { phase_code: None, ..*r })
                    .collect();
                let (batch, _, _) = batch_oracle(&retained, &cfg);
                assert_eq!(out.len(), batch.len());
                for (s, b) in out.iter().zip(&batch) {
                    assert!(
                        (s.phase - b.phase).abs() < 1e-9,
                        "{label}: {} vs {}",
                        s.phase,
                        b.phase
                    );
                    assert!((s.phase_spread - b.phase_spread).abs() < 1e-6, "{label}");
                }
                next += per;
            }
            let hits = win.take_trig_hits();
            match label {
                "coded" => assert_eq!(hits[hit::LIBM], 0, "{label}: {hits:?}"),
                _ => assert_eq!(hits[hit::TABLE], 0, "{label}: {hits:?}"),
            }
        }
    }
}
