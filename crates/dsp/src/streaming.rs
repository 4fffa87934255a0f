//! Incremental sliding-window front end: per-channel running sums that
//! grow as reads arrive, so an advance pays for the reads it pushes and
//! the channels it changes instead of re-running the `O(window)` batch
//! front end over every retained read.
//!
//! # Exactly the batch front end
//!
//! Every extract is bit-identical to [`preprocess_reads_with`] followed by
//! [`robust_line_fit_with`] on the window's retained reads, taken in the
//! order they were pushed:
//!
//! * a push adds the read's phasor and RSSI to its channel's running
//!   sums, in push order — the order in which the batch pass sums a
//!   channel's reads;
//! * a channel that loses reads on expiry is re-accumulated from the reads
//!   it keeps (a *rebuild*, tallied in [`StreamingStats::rebuilds`]).
//!   Subtracting an expired read instead would leave rounding residue
//!   that floating point cannot undo (an expired RSSI of 1e300 would take
//!   the whole sum with it);
//! * at extract, each channel whose reads changed derives its axis, folds
//!   its reads onto it and reads off its spread, with the batch
//!   expressions in the batch order and the batch's fold decisions (one
//!   sign test per grid read, the exact distance otherwise). The π
//!   majority vote of a channel whose reads the sign test all decided is
//!   its tally of shifted reads, or of the rest, by the parity of its
//!   unwrap; any other channel recounts exactly when its reads or
//!   unwrapped axis changed. The tallies are integers, so a kept count is
//!   the count a recount would give;
//! * the robust fit's Theil–Sen seed comes from a cache of the pairwise
//!   slopes that selects the batch median from the same values.
//!
//! At the reader's dwell cadence on a 40 s window an advance rebuilds
//! about two channels per antenna. The `streaming_equivalence` property
//! suite pins the contract against random arrival/expiry schedules.
//!
//! # What a window holds
//!
//! A retained read is 32 bytes: its timestamp, phase, RSSI and frequency.
//! Its channel is implied by the per-channel ring that holds it, and its
//! phase code is recovered from its phase. Phasors are looked up where
//! they are used — the push adds the accumulator phasor, a rebuild looks
//! it up again, the fold pass looks up the fold phasors — through the
//! phase-code tables when the phase sits on the reader grid and libm
//! otherwise. Every table entry is libm on the same expression, so the
//! lookup is bit-identical whether or not the read carried its code. A
//! channel keeps the timestamp and frequency of its oldest read inline,
//! so expiry passes over an in-order channel with nothing to expire, and
//! channel ordering and emit never touch the ring. A full ring grows by a
//! quarter of its length (plus four), so a channel's ring settles a few
//! slots above its peak read count. The fit columns and their scratch live
//! in the caller's [`FrontEndWorkspace`] for the length of an extract, so
//! one workspace serves every window of a session.
//!
//! [`preprocess_reads_with`]: crate::preprocess::preprocess_reads_with
//! [`robust_line_fit_with`]: crate::robust::robust_line_fit_with

use std::collections::VecDeque;
use std::f64::consts::PI;

use crate::fold::{self, FoldAxis};
use crate::linfit::{FitError, LineFit};
use crate::preprocess::{order_channels, wrap_tau, ChannelObservation, PreprocessError, RawRead};
use crate::robust::{robust_line_fit_seeded, RobustSummary};
use crate::stats;
use crate::trig::{self, hit};
use crate::workspace::FrontEndWorkspace;
use crate::ExtractConfig;
use rfp_geom::angle;

/// Per-advance work tallies of a [`StreamingWindow`], feeding the
/// `streaming.*` observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingStats {
    /// Reads pushed into the window.
    pub updates: u64,
    /// Reads expired out of the window.
    pub downdates: u64,
    /// Always 0: the window has no batch fallback. Kept only because the
    /// frozen benchmark's trace reads it.
    pub refit_fallbacks: u64,
    /// Channels re-derived from their retained reads after expiry.
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
    /// Raw (pre-rejection) line fit over the window's channels.
    pub raw_fit: LineFit,
    /// Robust (multipath-suppressed) fit summary; `None` when
    /// [`ExtractConfig::suppress_multipath`] is off. The matching
    /// per-channel inlier mask is [`StreamingWindow::inlier_mask`].
    pub robust: Option<RobustSummary>,
}

/// One retained read: the four numbers the front end reads back. Its
/// channel is the ring's, and its phase code is its phase's
/// ([`trig::code_for_phase`]), so 32 bytes hold it.
#[derive(Debug, Clone, Copy)]
struct StoredRead {
    timestamp_s: f64,
    phase: f64,
    rssi_dbm: f64,
    frequency_hz: f64,
}

/// Per-channel state: the retained reads, their running sums, and what
/// the last extract derived from them.
#[derive(Debug, Default)]
struct ChannelState {
    /// The channel id (below [`MAX_CHANNELS`](crate::preprocess::MAX_CHANNELS),
    /// so 32 bits hold it).
    chan: u32,
    fifo: VecDeque<StoredRead>,
    /// Timestamp and frequency of the oldest retained read, inline so that
    /// expiry and channel ordering need not touch the ring.
    first_t: f64,
    first_freq: f64,
    sum_rssi: f64,
    acc_sin: f64,
    acc_cos: f64,
    /// Some retained read is older than a read pushed before it, so
    /// expiry cannot stop at the first read it keeps.
    unordered: bool,
    /// The reads changed since `axis` and `spread` were derived.
    dirty: bool,
    axis: f64,
    spread: f64,
    votes: Votes,
}

/// How a channel's π votes are counted, settled by its last derive.
#[derive(Debug, Clone, Copy)]
enum Votes {
    /// The sign test decided every read, `shifted` of them folded by π: the
    /// votes follow from the parity of the unwrap.
    Parity { shifted: usize },
    /// Some read took the exact path: `votes` reads lie within π/2 of the
    /// unwrapped axis `against` (NaN: count again).
    Exact { votes: usize, against: f64 },
}

impl Default for Votes {
    fn default() -> Self {
        Votes::Exact { votes: 0, against: f64::NAN }
    }
}

impl ChannelState {
    fn new(chan: usize) -> Self {
        ChannelState { chan: chan as u32, ..Default::default() }
    }

    /// Re-accumulates the running sums from the retained reads in FIFO
    /// (= batch) order, looking each read's phasor up again.
    fn rebuild(&mut self, pi_mode: bool, hits: &mut [u64; 2]) {
        let (mut rssi, mut sin, mut cos) = (0.0, 0.0, 0.0);
        for sr in &self.fifo {
            rssi += sr.rssi_dbm;
            let [s, c] = acc_phasor(sr.phase, pi_mode, hits);
            sin += s;
            cos += c;
        }
        (self.sum_rssi, self.acc_sin, self.acc_cos) = (rssi, sin, cos);
        if let Some(front) = self.fifo.front() {
            (self.first_t, self.first_freq) = (front.timestamp_s, front.frequency_hz);
        }
        self.dirty = true;
    }

    /// Derives the axis and spread from the running sums and, in π-jump
    /// mode, one fold pass over the reads: the batch per-slot expressions,
    /// with the fold sums accumulated in the batch order and each read's
    /// fold decided as batch pass 2 decides it.
    fn derive(&mut self, pi_mode: bool, hits: &mut [u64; 2]) {
        let (sin, cos) = (self.acc_sin, self.acc_cos);
        let n = self.fifo.len() as f64;
        let first_phase = self.fifo[0].phase;
        if pi_mode {
            let fold = FoldAxis::new(sin, cos, self.fifo.len(), first_phase);
            self.axis = fold.axis;
            let table = trig::fold_table();
            let (mut fold_sin, mut fold_cos) = (0.0, 0.0);
            let (mut shifted, mut exact) = (0usize, false);
            for sr in &self.fifo {
                let code = trig::code_for_phase(sr.phase);
                let shift = match fold.sign_test(code, table) {
                    Some(shift) => shift,
                    None => {
                        exact = true;
                        fold.exact_shift(sr.phase)
                    }
                };
                let [s, c] = fold_phasor(sr.phase, code, shift, hits);
                fold_sin += s;
                fold_cos += c;
                shifted += shift as usize;
            }
            let fr = ((fold_sin * fold_sin + fold_cos * fold_cos).sqrt() / n).min(1.0);
            self.spread = (-2.0 * fr.max(1e-300).ln()).sqrt();
            self.votes = if exact { Votes::default() } else { Votes::Parity { shifted } };
        } else {
            let r = (sin * sin + cos * cos).sqrt() / n;
            self.axis = if r < 1e-12 { first_phase } else { sin.atan2(cos) };
            self.spread = (-2.0 * r.clamp(1e-300, 1.0).ln()).sqrt();
        }
        self.dirty = false;
    }

    /// The channel's π votes against its unwrapped axis: a parity lookup
    /// on the shift tally when the sign test decided every read and the
    /// parity certifies, an exact count otherwise (kept while the reads
    /// and `unwrapped` stay the same).
    fn votes(&mut self, unwrapped: f64) -> usize {
        if let Votes::Parity { shifted } = self.votes {
            match fold::vote_parity(self.axis, unwrapped) {
                Some(true) => return shifted,
                Some(false) => return self.fifo.len() - shifted,
                None => self.votes = Votes::default(),
            }
        }
        if let Votes::Exact { votes, against } = self.votes {
            if against.to_bits() == unwrapped.to_bits() {
                return votes;
            }
        }
        let votes = self.fifo.iter().filter(|sr| fold::exact_vote(sr.phase, unwrapped)).count();
        self.votes = Votes::Exact { votes, against: unwrapped };
        votes
    }
}

/// An incrementally maintained sliding window over one antenna's read
/// stream. Push reads with [`push`](Self::push) (normally in
/// nondecreasing timestamp order, as a reader delivers them), expire old
/// ones with [`expire_before`](Self::expire_before), and extract the
/// per-channel observations plus the fitted line with
/// [`extract_into`](Self::extract_into) — bit-identical to the batch front
/// end and robust fit on the retained reads (see the module docs).
#[derive(Debug)]
pub struct StreamingWindow {
    config: ExtractConfig,
    /// channel id → index into `channels` (`u32::MAX` = never seen).
    slot_of: Vec<u32>,
    channels: Vec<ChannelState>,
    /// Kept channel indices sorted by (frequency, channel id).
    order: Vec<usize>,
    /// Unwrap scratch in sorted order.
    phase_col: Vec<f64>,
    /// Robust inlier mask of the last successful extract.
    inliers: Vec<bool>,
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
/// below-count or band membership in O(1). A refreshed pair's old slope
/// is recomputed from the snapshot of the previous columns: the same
/// expression on the same operands, so it carries the bits the band
/// holds, and no slope matrix is kept. The band partitions the multiset
/// by value, so the in-band selection reads out exactly the order
/// statistics [`theil_sen_with`](crate::linfit::theil_sen_with)
/// computes, keeping the slope bit-identical to the batch enumeration;
/// when churn walks the median rank out of the band (or bloats it), the
/// band is re-derived by enumerating the pairs into the caller's slope
/// buffer and quickselecting — the cost the batch path pays every advance.
#[derive(Debug, Default)]
struct SlopeCache {
    /// Bitwise snapshot of the previous advance's fit columns.
    xs: Vec<f64>,
    ys: Vec<f64>,
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
    /// moved (e.g. a global π vote flip). `slopes` is scratch for the
    /// band re-derivations.
    fn median_slope(
        &mut self,
        xs: &[f64],
        ys: &[f64],
        slopes: &mut Vec<f64>,
    ) -> Result<f64, FitError> {
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
            for &i in &self.changed {
                for j in 0..n {
                    // Pairs between two changed columns are refreshed once,
                    // when the smaller index is being processed.
                    if j == i || (self.changed_flag[j] && j < i) {
                        continue;
                    }
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    // `self.ys` still holds the previous columns until the
                    // loop ends.
                    let old = pair_slope(&self.xs, &self.ys, a, b);
                    let new = pair_slope(xs, ys, a, b);
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
            for &i in &self.changed {
                self.ys[i] = ys[i];
            }
        } else {
            self.xs.clear();
            self.xs.extend_from_slice(xs);
            self.ys.clear();
            self.ys.extend_from_slice(ys);
            self.enumerate(slopes);
            self.valid_count = slopes.len();
            self.valid = true;
            if self.valid_count > 0 {
                self.derive_band(slopes);
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
            self.rebuild_band(slopes);
            band_fresh = true;
        }
        if let Some(median) = stats::band_median(&mut self.members, self.below, m) {
            return Ok(median);
        }
        debug_assert!(!band_fresh, "a re-derived band covers the median");
        self.rebuild_band(slopes);
        Ok(stats::band_median(&mut self.members, self.below, m).expect("re-derived band covers"))
    }

    /// Fills `slopes` with the valid pairwise slopes of the snapshot
    /// columns.
    fn enumerate(&self, slopes: &mut Vec<f64>) {
        slopes.clear();
        let n = self.xs.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let slope = pair_slope(&self.xs, &self.ys, i, j);
                if !slope.is_nan() {
                    slopes.push(slope);
                }
            }
        }
    }

    /// Re-derives the band from the current columns, enumerating their
    /// slopes into `slopes`.
    fn rebuild_band(&mut self, slopes: &mut Vec<f64>) {
        self.enumerate(slopes);
        debug_assert_eq!(slopes.len(), self.valid_count);
        self.derive_band(slopes);
    }

    /// Re-derives the band interval, below-count, and member sub-multiset
    /// from the valid slopes: quickselect the padded rank endpoints, then
    /// one partition pass. Requires `valid_count > 0`.
    fn derive_band(&mut self, slopes: &mut [f64]) {
        let m = self.valid_count;
        let (r0, r1) = ((m - 1) / 2, m / 2);
        let lo_rank = r0.saturating_sub(BAND_PAD);
        let hi_rank = (r1 + BAND_PAD).min(m - 1);
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite slopes");
        let (_, v_lo, upper) = slopes.select_nth_unstable_by(lo_rank, cmp);
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
        for &v in slopes.iter() {
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
            slot_of: Vec::new(),
            channels: Vec::new(),
            order: Vec::new(),
            phase_col: Vec::new(),
            inliers: Vec::new(),
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
        self.channels.iter().map(|c| c.fifo.len()).sum()
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
    /// calls]`), one per phasor looked up where it is used: the
    /// accumulator phasor of each pushed read and of each read a rebuild
    /// re-accumulates, and the fold phasor of each read a π-mode channel
    /// folds at extract.
    pub fn take_trig_hits(&mut self) -> [u64; 2] {
        std::mem::take(&mut self.trig_hits)
    }

    /// Robust inlier mask of the most recent successful
    /// [`extract_into`](Self::extract_into) (parallel to its emitted
    /// channels, sorted by frequency; empty when the window runs no
    /// robust fit).
    pub fn inlier_mask(&self) -> &[bool] {
        &self.inliers
    }

    /// Pushes one read into the window, adding it to its channel's running
    /// sums in O(1). Per-channel sums accumulate in push order, the order
    /// the batch front end sees the retained reads in. A read the batch
    /// front end skips (a non-finite phase, frequency or RSSI, an
    /// out-of-range channel) is skipped here too, and so is a read whose
    /// timestamp is not finite: no cutoff could ever expire it. Reads
    /// normally arrive in nondecreasing timestamp order (the order a reader
    /// stream delivers them); one that arrives older than its channel's
    /// last read marks the channel for scanning expiry.
    pub fn push(&mut self, read: &RawRead) {
        if !read.is_usable() || !read.timestamp_s.is_finite() {
            return;
        }
        let pi_mode = self.config.preprocess.correct_pi_jumps;
        let [sin, cos] = acc_phasor(read.phase, pi_mode, &mut self.trig_hits);
        let s = self.slot(read.channel);
        let ch = &mut self.channels[s];
        match ch.fifo.back() {
            None => {
                (ch.first_t, ch.first_freq) = (read.timestamp_s, read.frequency_hz);
            }
            Some(last) if read.timestamp_s < last.timestamp_s => ch.unordered = true,
            Some(_) => {}
        }
        // A full ring grows by a quarter: a channel's reads over a window
        // are about as many in every window, so the ring settles a few
        // slots above their peak instead of at the next power of two.
        if ch.fifo.len() == ch.fifo.capacity() {
            ch.fifo.reserve_exact(ch.fifo.len() / 4 + 4);
        }
        ch.fifo.push_back(StoredRead {
            timestamp_s: read.timestamp_s,
            phase: read.phase,
            rssi_dbm: read.rssi_dbm,
            frequency_hz: read.frequency_hz,
        });
        ch.sum_rssi += read.rssi_dbm;
        ch.acc_sin += sin;
        ch.acc_cos += cos;
        ch.dirty = true;
        self.stats.updates += 1;
    }

    /// Expires every retained read with `timestamp_s < cutoff_s` and
    /// returns the number removed. Afterwards no retained read is older
    /// than `cutoff_s`, whatever order the reads were pushed in: a channel
    /// whose reads arrived in timestamp order expires from its front (and
    /// is passed over when its oldest read is kept), any other by a scan.
    /// Every channel that lost reads is rebuilt from the reads it keeps.
    pub fn expire_before(&mut self, cutoff_s: f64) -> usize {
        // A NaN cutoff expires everything, as it always has.
        let expired = |t: f64| t < cutoff_s || cutoff_s.is_nan();
        let pi_mode = self.config.preprocess.correct_pi_jumps;
        let mut removed = 0usize;
        for ch in &mut self.channels {
            if ch.fifo.is_empty() || !(ch.unordered || expired(ch.first_t)) {
                continue;
            }
            let before = ch.fifo.len();
            if ch.unordered {
                let mut last = f64::NEG_INFINITY;
                ch.unordered = false;
                ch.fifo.retain(|sr| {
                    if expired(sr.timestamp_s) {
                        return false;
                    }
                    ch.unordered |= sr.timestamp_s < last;
                    last = sr.timestamp_s;
                    true
                });
            } else {
                while ch.fifo.front().is_some_and(|sr| expired(sr.timestamp_s)) {
                    ch.fifo.pop_front();
                }
            }
            let gone = before - ch.fifo.len();
            if gone > 0 {
                removed += gone;
                ch.rebuild(pi_mode, &mut self.trig_hits);
                self.stats.rebuilds += 1;
            }
        }
        self.stats.downdates += removed as u64;
        removed
    }

    /// Runs the window's front end: per-channel aggregation (re-derived
    /// only for channels whose reads changed), cross-channel unwrap, π
    /// majority vote, and the raw + robust line fits. `out` is cleared and
    /// refilled with the per-channel observations (sorted by frequency),
    /// exactly as the batch front end fills it. `ws` hosts the fit columns
    /// and their scratch for the call only, so one workspace serves every
    /// window of a session. In steady state (all buffer capacities
    /// reached) the call performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// [`StreamingError::Preprocess`] when no channel holds enough reads;
    /// [`StreamingError::Fit`] when the line fit is degenerate.
    pub fn extract_into(
        &mut self,
        ws: &mut FrontEndWorkspace,
        out: &mut Vec<ChannelObservation>,
    ) -> Result<StreamExtract, StreamingError> {
        let min_reads = self.config.preprocess.min_reads_per_channel.max(1);
        let pi_mode = self.config.preprocess.correct_pi_jumps;

        let mut kept = 0usize;
        for ch in &mut self.channels {
            if ch.fifo.len() >= min_reads {
                kept += 1;
                if ch.dirty {
                    ch.derive(pi_mode, &mut self.trig_hits);
                }
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
            |s| channels[s].chan as usize,
            |s| channels[s].fifo.len() >= min_reads,
            |s| channels[s].first_freq,
        );

        // Cross-channel unwrap.
        self.phase_col.clear();
        for &s in &self.order {
            self.phase_col.push(wrap_tau(self.channels[s].axis));
        }
        if pi_mode {
            angle::unwrap_in_place_period(&mut self.phase_col, PI);
            // Global π majority vote over every retained read: a parity
            // lookup per channel, or its exact count.
            let (mut votes, mut total) = (0usize, 0usize);
            for (k, &s) in self.order.iter().enumerate() {
                let ch = &mut self.channels[s];
                votes += ch.votes(self.phase_col[k]);
                total += ch.fifo.len();
            }
            if 2 * votes < total {
                for p in &mut self.phase_col {
                    *p += PI;
                }
            }
        } else {
            angle::unwrap_in_place(&mut self.phase_col);
        }

        // Emit the observations and feed the fused unwrap+OLS sums + fit
        // columns, as the batch emit loop does.
        ws.reset_channels();
        out.clear();
        for (k, &s) in self.order.iter().enumerate() {
            let ch = &self.channels[s];
            let phase = self.phase_col[k];
            out.push(ChannelObservation {
                channel: ch.chan as usize,
                frequency_hz: ch.first_freq,
                phase,
                rssi_dbm: ch.sum_rssi / ch.fifo.len() as f64,
                read_count: ch.fifo.len(),
                phase_spread: ch.spread,
            });
            ws.emit(ch.first_freq, phase);
        }
        let (raw_fit, robust) = self.fit(ws).map_err(StreamingError::Fit)?;
        Ok(StreamExtract { raw_fit, robust })
    }

    /// Raw and robust fits over the emitted fit columns.
    fn fit(
        &mut self,
        ws: &mut FrontEndWorkspace,
    ) -> Result<(LineFit, Option<RobustSummary>), FitError> {
        let raw_fit = ws.raw_fit()?;
        if !self.config.suppress_multipath {
            self.inliers.clear();
            return Ok((raw_fit, None));
        }
        let (xs, ys, fit_ws) = ws.fit_columns();
        // Seed slope from the incrementally maintained pairwise multiset —
        // bit-identical to the O(n²) enumeration inside the unseeded fit.
        let slope = self.slope_cache.median_slope(xs, ys, &mut fit_ws.slopes)?;
        let summary = robust_line_fit_seeded(fit_ws, xs, ys, &self.config.robust, slope)?;
        self.inliers.clear();
        self.inliers.extend_from_slice(fit_ws.inlier_mask());
        Ok((raw_fit, Some(summary)))
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
}

/// The accumulator phasor `[sin, cos]` of a read's phase — of the doubled
/// angle in π-jump mode, of the phase itself otherwise — with the batch
/// pass-1 expressions: a table lookup when the phase sits on the reader
/// grid (every table entry is libm on the same expression, so whether the
/// read carried its code does not matter), libm otherwise. Tallies the
/// source in `hits`.
#[inline]
fn acc_phasor(phase: f64, pi_mode: bool, hits: &mut [u64; 2]) -> [f64; 2] {
    match trig::code_for_phase(phase) {
        Some(code) => {
            hits[hit::TABLE] += 1;
            let c = code as usize;
            if pi_mode {
                trig::double_table()[c]
            } else {
                trig::fold_table()[c << 1]
            }
        }
        None => {
            hits[hit::LIBM] += 1;
            let x = if pi_mode { 2.0 * phase } else { phase };
            [x.sin(), x.cos()]
        }
    }
}

/// The fold-pass phasor `[sin, cos]` of a read's phase, shifted by π when
/// `shift`: the batch pass-2 expressions, looked up like [`acc_phasor`]
/// by the phase's `code`.
#[inline]
fn fold_phasor(phase: f64, code: Option<u16>, shift: bool, hits: &mut [u64; 2]) -> [f64; 2] {
    match code {
        Some(code) => {
            hits[hit::TABLE] += 1;
            trig::fold_table()[((code as usize) << 1) | shift as usize]
        }
        None => {
            hits[hit::LIBM] += 1;
            let folded = if shift { phase + PI } else { phase };
            [folded.sin(), folded.cos()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess_reads_with;
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

    /// Asserts that the window's last extract equals, bit for bit, the
    /// batch front end plus robust fit on `retained` (in arrival order).
    fn assert_matches_batch(
        win: &StreamingWindow,
        out: &[ChannelObservation],
        extract: &StreamExtract,
        retained: &[RawRead],
        ctx: &str,
    ) {
        let cfg = win.config();
        let mut ws = FrontEndWorkspace::default();
        let mut batch = Vec::new();
        preprocess_reads_with(&mut ws, retained, &cfg.preprocess, &mut batch).unwrap();
        let (xs, ys, fit_ws) = ws.fit_columns();
        let summary = robust_line_fit_with(fit_ws, xs, ys, &cfg.robust).unwrap();
        assert_eq!(out.len(), batch.len(), "{ctx}");
        for (s, b) in out.iter().zip(&batch) {
            assert_eq!(s.channel, b.channel, "{ctx}");
            assert_eq!(s.phase.to_bits(), b.phase.to_bits(), "{ctx}: ch {}", s.channel);
            assert_eq!(s.phase_spread.to_bits(), b.phase_spread.to_bits(), "{ctx}");
            assert_eq!(s.rssi_dbm.to_bits(), b.rssi_dbm.to_bits(), "{ctx}: ch {}", s.channel);
            assert_eq!(s.read_count, b.read_count, "{ctx}");
        }
        assert_eq!(win.inlier_mask(), ws.fit.inlier_mask(), "{ctx}");
        let robust = extract.robust.unwrap();
        assert_eq!(robust.fit.slope.to_bits(), summary.fit.slope.to_bits(), "{ctx}");
        assert_eq!(robust.fit.intercept.to_bits(), summary.fit.intercept.to_bits(), "{ctx}");
    }

    /// The reads of `reads` at or after `cutoff`, in arrival order.
    fn retained(reads: &[RawRead], cutoff: f64) -> Vec<RawRead> {
        reads.iter().filter(|r| r.timestamp_s >= cutoff).copied().collect()
    }

    /// A retained read is four `f64`s: its channel is its ring's and its
    /// phase code its phase's.
    #[test]
    fn stored_read_is_32_bytes() {
        assert_eq!(std::mem::size_of::<StoredRead>(), 32);
    }

    /// A channel's state is no larger than it was with the recount cache
    /// (a `usize` tally and its `f64` axis): the channel id's 32 bits make
    /// room for the vote bookkeeping's tag.
    #[test]
    fn channel_state_is_at_most_120_bytes() {
        let size = std::mem::size_of::<ChannelState>();
        assert!(size <= 120, "{size} bytes");
    }

    /// A freshly filled window (no expiry yet) is bit-identical to the
    /// batch front end on the same reads.
    #[test]
    fn append_only_window_is_bit_identical_to_batch() {
        let reads = stream(1, 12, 8);
        let mut win = StreamingWindow::new(ExtractConfig::paper());
        for r in &reads {
            win.push(r);
        }
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        let extract = win.extract_into(&mut ws, &mut out).unwrap();
        assert_matches_batch(&win, &out, &extract, &reads, "append-only");
    }

    /// Sliding the window dwell by dwell stays bit-identical to the batch
    /// recompute on the retained read set.
    #[test]
    fn sliding_window_tracks_batch_recompute() {
        let chans = 12;
        let per = 8;
        let reads = stream(4, chans, per);
        let round_len = chans * per;
        let span = chans as f64 * 0.2;
        let mut win = StreamingWindow::new(ExtractConfig::paper());
        for r in &reads[..round_len] {
            win.push(r);
        }
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        let mut advances = 0usize;
        let mut next = round_len;
        while next + per <= reads.len() {
            for r in &reads[next..next + per] {
                win.push(r);
            }
            let cutoff = reads[next + per - 1].timestamp_s - span;
            win.expire_before(cutoff);
            let extract = win.extract_into(&mut ws, &mut out).unwrap();
            advances += 1;
            let kept = retained(&reads[..next + per], cutoff);
            assert_eq!(kept.len(), win.read_count());
            assert_matches_batch(&win, &out, &extract, &kept, &format!("advance {advances}"));
            next += per;
        }
        assert!(advances >= 30, "exercised {advances} advances");
        let stats = win.take_stats();
        assert_eq!(stats.updates as usize, reads.len());
        assert!(stats.downdates > 0);
        assert!(stats.rebuilds > 0);
    }

    /// A finite but huge RSSI swamps its channel's sum while retained;
    /// once it expires the channel's mean RSSI is the batch mean of the
    /// reads left, bit for bit (subtracting it back out would cancel the
    /// sum to zero).
    #[test]
    fn expired_huge_rssi_leaves_no_trace() {
        let chans = 10;
        let per = 6;
        let mut reads = stream(2, chans, per);
        reads[1].rssi_dbm = 1e300;
        let mut win = StreamingWindow::new(ExtractConfig::paper());
        for r in &reads {
            win.push(r);
        }
        let cutoff = reads[per / 2].timestamp_s;
        assert!(win.expire_before(cutoff) > 0);
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        let extract = win.extract_into(&mut ws, &mut out).unwrap();
        assert_matches_batch(&win, &out, &extract, &retained(&reads, cutoff), "1e300 expired");
        assert!(out.iter().all(|o| o.rssi_dbm < -50.0), "{out:?}");
    }

    /// Emptied channels reset exactly; an empty window errors like batch.
    #[test]
    fn empty_window_errors() {
        let cfg = ExtractConfig::paper();
        let mut win = StreamingWindow::new(cfg);
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        assert!(matches!(
            win.extract_into(&mut ws, &mut out),
            Err(StreamingError::Preprocess(PreprocessError::NoUsableChannels))
        ));
        for r in &stream(1, 3, 4) {
            win.push(r);
        }
        assert!(win.extract_into(&mut ws, &mut out).is_ok());
        win.expire_before(f64::INFINITY);
        assert_eq!(win.read_count(), 0);
        assert!(matches!(
            win.extract_into(&mut ws, &mut out),
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
                assert!(ch.fifo.iter().all(|sr| sr.timestamp_s >= cutoff), "far {far}");
            }
            let kept: Vec<RawRead> = pushed
                .iter()
                .chain(&late)
                .filter(|r| r.timestamp_s.is_finite() && r.timestamp_s >= cutoff)
                .copied()
                .collect();
            assert_eq!(win.read_count(), kept.len(), "far {far}");
            let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
            let extract = win.extract_into(&mut ws, &mut out).unwrap();
            assert_matches_batch(&win, &out, &extract, &kept, &format!("far {far}"));
        }
    }

    /// Quantized, code-carrying reads ride the same incremental
    /// machinery through the table lookups and match a batch recompute on
    /// the same reads with their codes stripped, bit for bit. Stale codes
    /// — phases shifted after quantizing, codes kept — take libm and match
    /// it too.
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
            let mut win = StreamingWindow::new(ExtractConfig::paper());
            let round_len = chans * per;
            for r in &reads[..round_len] {
                win.push(r);
            }
            let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
            let mut next = round_len;
            while next + per <= reads.len() {
                for r in &reads[next..next + per] {
                    win.push(r);
                }
                let cutoff = reads[next + per - 1].timestamp_s - span;
                win.expire_before(cutoff);
                let extract = win.extract_into(&mut ws, &mut out).unwrap();
                let stripped: Vec<RawRead> = retained(&reads[..next + per], cutoff)
                    .into_iter()
                    .map(|r| RawRead { phase_code: None, ..r })
                    .collect();
                assert_matches_batch(&win, &out, &extract, &stripped, label);
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
