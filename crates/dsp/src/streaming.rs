//! Incremental sliding-window front end: per-channel running sums that
//! grow as reads arrive, so an advance pays for the reads it pushes and
//! the channels it changes instead of re-running the `O(window)` batch
//! front end over every retained read.
//!
//! # Exactly the batch front end
//!
//! Every extract is bit-identical to [`preprocess_reads_with`] on the
//! window's retained reads, taken in the order they were pushed — its
//! observations and the fit columns and raw-fit sums it leaves in the
//! workspace:
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
//!   the count a recount would give.
//!
//! The extract stops where [`preprocess_reads_with`] stops: the line fits
//! that follow are the batch extraction's own fit tail
//! (`rfp_core::model`), run on the fit columns the extract leaves in the
//! workspace.
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
//! it up again, the fold pass looks up the fold phasors — with the batch
//! passes' phasor helpers, through the phase-code tables when the phase
//! sits on the reader grid and libm otherwise. Every table entry is libm
//! on the same expression, so the lookup is bit-identical whether or not
//! the read carried its code. A channel keeps the timestamp and frequency
//! of its oldest read inline, so expiry passes over an in-order channel
//! with nothing to expire, and channel ordering and emit never touch the
//! ring. A full ring grows by a quarter of its length (plus four), so a
//! channel's ring settles a few slots above its peak read count. The fit columns and their scratch,
//! the Theil–Sen slope buffer among them, live in the caller's
//! [`FrontEndWorkspace`], so one workspace serves every window of a
//! session, and a window keeps no fit state.
//!
//! [`preprocess_reads_with`]: crate::preprocess::preprocess_reads_with

use std::collections::VecDeque;
use std::f64::consts::PI;

use crate::fold::{self, FoldAxis};
use crate::preprocess::{order_channels, wrap_tau, ChannelObservation, PreprocessError, RawRead};
use crate::trig;
use crate::workspace::FrontEndWorkspace;
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
    fn rebuild(&mut self, hits: &mut [u64; 2]) {
        let table = trig::double_table();
        let (mut rssi, mut sin, mut cos) = (0.0, 0.0, 0.0);
        for sr in &self.fifo {
            rssi += sr.rssi_dbm;
            let [s, c] = trig::acc_phasor(sr.phase, trig::code_for_phase(sr.phase), table, hits);
            sin += s;
            cos += c;
        }
        (self.sum_rssi, self.acc_sin, self.acc_cos) = (rssi, sin, cos);
        if let Some(front) = self.fifo.front() {
            (self.first_t, self.first_freq) = (front.timestamp_s, front.frequency_hz);
        }
        self.dirty = true;
    }

    /// Derives the axis from the running sums and the spread from one
    /// fold pass over the reads: the batch per-slot expressions, with the
    /// fold sums accumulated in the batch order and each read's fold
    /// decided as batch pass 2 decides it.
    fn derive(&mut self, hits: &mut [u64; 2]) {
        let n = self.fifo.len();
        let fold = FoldAxis::new(self.acc_sin, self.acc_cos, n, self.fifo[0].phase);
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
            let [s, c] = trig::fold_phasor(sr.phase, code, shift, table, hits);
            fold_sin += s;
            fold_cos += c;
            shifted += shift as usize;
        }
        let fr = ((fold_sin * fold_sin + fold_cos * fold_cos).sqrt() / n as f64).min(1.0);
        self.spread = (-2.0 * fr.max(1e-300).ln()).sqrt();
        self.votes = if exact { Votes::default() } else { Votes::Parity { shifted } };
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
/// per-channel observations and fit columns with
/// [`extract_into`](Self::extract_into) — bit-identical to the batch front
/// end on the retained reads (see the module docs).
#[derive(Debug, Default)]
pub struct StreamingWindow {
    /// channel id → index into `channels` (`u32::MAX` = never seen).
    slot_of: Vec<u32>,
    channels: Vec<ChannelState>,
    /// Non-empty channel indices sorted by (frequency, channel id).
    order: Vec<usize>,
    /// Unwrap scratch in sorted order.
    phase_col: Vec<f64>,
    /// Work tallies since the last [`take_stats`](Self::take_stats).
    stats: StreamingStats,
    /// Trig tallies (`[table lookups, libm calls]`).
    trig_hits: [u64; 2],
}

impl StreamingWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
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
    /// re-accumulates, and the fold phasor of each read a channel folds at
    /// extract.
    pub fn take_trig_hits(&mut self) -> [u64; 2] {
        std::mem::take(&mut self.trig_hits)
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
        let code = trig::code_for_phase(read.phase);
        let table = trig::double_table();
        let [sin, cos] = trig::acc_phasor(read.phase, code, table, &mut self.trig_hits);
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
                ch.rebuild(&mut self.trig_hits);
                self.stats.rebuilds += 1;
            }
        }
        self.stats.downdates += removed as u64;
        removed
    }

    /// Runs the window's front end: per-channel aggregation (re-derived
    /// only for channels whose reads changed), cross-channel unwrap and π
    /// majority vote. `out` is cleared and refilled with the per-channel
    /// observations (sorted by frequency), and `ws` with the fit columns
    /// and raw-fit sums, exactly as [`preprocess_reads_with`] fills them on
    /// the retained reads; the line fits that follow run on `ws`, so one
    /// workspace serves every window of a session. In steady state (all
    /// buffer capacities reached) the call performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// [`PreprocessError::NoUsableChannels`] when the window holds no read.
    ///
    /// [`preprocess_reads_with`]: crate::preprocess::preprocess_reads_with
    pub fn extract_into(
        &mut self,
        ws: &mut FrontEndWorkspace,
        out: &mut Vec<ChannelObservation>,
    ) -> Result<(), PreprocessError> {
        let mut kept = 0usize;
        for ch in &mut self.channels {
            if !ch.fifo.is_empty() {
                kept += 1;
                if ch.dirty {
                    ch.derive(&mut self.trig_hits);
                }
            }
        }
        if kept == 0 {
            return Err(PreprocessError::NoUsableChannels);
        }

        // Non-empty channels ascending by (frequency, channel id) — the
        // batch slot ordering.
        let channels = &self.channels;
        order_channels(
            &mut self.order,
            &self.slot_of,
            channels.len(),
            |s| channels[s].chan as usize,
            |s| !channels[s].fifo.is_empty(),
            |s| channels[s].first_freq,
        );

        // Cross-channel unwrap with period π, then the global π majority
        // vote over every retained read: a parity lookup per channel, or
        // its exact count.
        self.phase_col.clear();
        for &s in &self.order {
            self.phase_col.push(wrap_tau(self.channels[s].axis));
        }
        angle::unwrap_in_place_period(&mut self.phase_col, PI);
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
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linfit::LineFit;
    use crate::preprocess::preprocess_reads_with;
    use crate::robust::robust_line_fit_with;
    use crate::trig::hit;
    use crate::ExtractConfig;

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

    /// The raw fit, robust fit and inlier mask of the fit columns in
    /// `ws`, as the bits of each line.
    fn fits(ws: &mut FrontEndWorkspace) -> ([u64; 2], [u64; 2], Vec<bool>) {
        let bits = |f: &LineFit| [f.slope.to_bits(), f.intercept.to_bits()];
        let raw = ws.raw_fit().unwrap();
        let (xs, ys, fit_ws) = ws.fit_columns();
        let robust = robust_line_fit_with(fit_ws, xs, ys, &ExtractConfig::paper().robust).unwrap();
        (bits(&raw), bits(&robust.fit), fit_ws.inlier_mask().to_vec())
    }

    /// Asserts that the window's last extract into `ws` and `out` equals,
    /// bit for bit, the batch front end on `retained` (in arrival order):
    /// the observations, and the raw and robust fits and inlier mask of
    /// the fit columns.
    fn assert_matches_batch(
        ws: &mut FrontEndWorkspace,
        out: &[ChannelObservation],
        retained: &[RawRead],
        ctx: &str,
    ) {
        let mut batch_ws = FrontEndWorkspace::default();
        let mut batch = Vec::new();
        preprocess_reads_with(&mut batch_ws, retained, &Default::default(), &mut batch).unwrap();
        assert_eq!(out.len(), batch.len(), "{ctx}");
        for (s, b) in out.iter().zip(&batch) {
            assert_eq!(s.channel, b.channel, "{ctx}");
            assert_eq!(s.phase.to_bits(), b.phase.to_bits(), "{ctx}: ch {}", s.channel);
            assert_eq!(s.phase_spread.to_bits(), b.phase_spread.to_bits(), "{ctx}");
            assert_eq!(s.rssi_dbm.to_bits(), b.rssi_dbm.to_bits(), "{ctx}: ch {}", s.channel);
            assert_eq!(s.read_count, b.read_count, "{ctx}");
        }
        assert_eq!(fits(ws), fits(&mut batch_ws), "{ctx}");
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
        let mut win = StreamingWindow::new();
        for r in &reads {
            win.push(r);
        }
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        win.extract_into(&mut ws, &mut out).unwrap();
        assert_matches_batch(&mut ws, &out, &reads, "append-only");
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
        let mut win = StreamingWindow::new();
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
            win.extract_into(&mut ws, &mut out).unwrap();
            advances += 1;
            let kept = retained(&reads[..next + per], cutoff);
            assert_eq!(kept.len(), win.read_count());
            assert_matches_batch(&mut ws, &out, &kept, &format!("advance {advances}"));
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
        let mut win = StreamingWindow::new();
        for r in &reads {
            win.push(r);
        }
        let cutoff = reads[per / 2].timestamp_s;
        assert!(win.expire_before(cutoff) > 0);
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        win.extract_into(&mut ws, &mut out).unwrap();
        assert_matches_batch(&mut ws, &out, &retained(&reads, cutoff), "1e300 expired");
        assert!(out.iter().all(|o| o.rssi_dbm < -50.0), "{out:?}");
    }

    /// Emptied channels reset exactly; an empty window errors like batch.
    #[test]
    fn empty_window_errors() {
        let mut win = StreamingWindow::new();
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        assert_eq!(win.extract_into(&mut ws, &mut out), Err(PreprocessError::NoUsableChannels));
        for r in &stream(1, 3, 4) {
            win.push(r);
        }
        assert!(win.extract_into(&mut ws, &mut out).is_ok());
        win.expire_before(f64::INFINITY);
        assert_eq!(win.read_count(), 0);
        assert_eq!(win.extract_into(&mut ws, &mut out), Err(PreprocessError::NoUsableChannels));
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
            let mut win = StreamingWindow::new();
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
            win.extract_into(&mut ws, &mut out).unwrap();
            assert_matches_batch(&mut ws, &out, &kept, &format!("far {far}"));
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
            let mut win = StreamingWindow::new();
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
                win.extract_into(&mut ws, &mut out).unwrap();
                let stripped: Vec<RawRead> = retained(&reads[..next + per], cutoff)
                    .into_iter()
                    .map(|r| RawRead { phase_code: None, ..r })
                    .collect();
                assert_matches_batch(&mut ws, &out, &stripped, label);
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
