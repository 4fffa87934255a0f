//! Raw-read pre-processing: π-jump correction, per-channel aggregation and
//! cross-channel unwrapping.
//!
//! A COTS reader reports, for every successful inventory of a tag, the
//! channel it was read on, a phase in `[0, 2π)` and an RSSI. Three artifacts
//! must be repaired before the readings can be fitted to a line
//! (the paper's *signal pre-processing module*):
//!
//! 1. **π jumps** — ImpinJ-class readers resolve the backscatter phase only
//!    up to π; a random half of the reads come back shifted by exactly π.
//!    Within one channel the true phase is constant, so the reads form two
//!    antipodal clusters. We recover the channel phase with the
//!    double-angle trick (doubling maps both clusters onto one), then pick
//!    the cluster that holds the **majority** of reads to resolve which of
//!    `θ` / `θ+π` is the true value. This keeps the *absolute* phase
//!    correct, which matters because the line intercept carries the
//!    orientation information.
//! 2. **Per-channel noise** — multiple reads per 200 ms dwell are averaged
//!    (circularly) to beat down thermal phase noise.
//! 3. **2π folding** — across channels the phase walks many turns; standard
//!    unwrapping restores a continuous line (channel spacing is 500 kHz, so
//!    the true inter-channel increment is ≪ π for any realistic geometry).
//!
//! One window costs two passes over its reads; the rest is per channel:
//!
//! * **Pass 1** checks each read's usability, finds its channel's slot and
//!   accumulates the double-angle phasor and RSSI (a window holding an
//!   unusable read restarts on a copy without it);
//! * per channel: the axis, the channel order (a walk over the channel
//!   ids when frequency rises with them, a `(frequency, channel)` sort
//!   otherwise) and the period-π unwrap of the axes;
//! * **Pass 2** casts each read's π vote against its channel's unwrapped
//!   axis: one phasor sign test per read on the reader grid, the vote
//!   following from the unwrap's parity (the crate-private `fold` module
//!   certifies it; a read inside its margin or off the grid takes the
//!   exact distance).
//!
//! Per-read trigonometry has one path: reads that carry their 12-bit
//! reader phase code are looked up in the exact phase-code tables of
//! [`crate::trig`] (bit-identical to libm by construction), and every
//! other read calls libm. The lookups are fused into pass 1, so every
//! per-channel sum keeps the reference summation order — and hence its
//! bits.

use crate::fold::{self, FoldAxis};
use crate::trig::{self, PHASE_CODES, PHASE_LSB_RAD};
use crate::workspace::FrontEndWorkspace;
use rfp_geom::angle;

/// Most channels a plan may declare, and one past the largest channel
/// index a read may carry: LLRP channel indices are 16-bit.
pub const MAX_CHANNELS: usize = 1 << 16;

/// One raw read report from the reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRead {
    /// Channel index into the session's frequency plan.
    pub channel: usize,
    /// Centre frequency of that channel, Hz.
    pub frequency_hz: f64,
    /// Reported phase, wrapped into `[0, 2π)` (may contain a π jump).
    pub phase: f64,
    /// Reported RSSI, dBm.
    pub rssi_dbm: f64,
    /// Read timestamp, seconds since the start of the hop sequence.
    pub timestamp_s: f64,
    /// The reader's 12-bit phase code when `phase` sits exactly on the
    /// LLRP quantization grid (`phase == code · 2π/4096` bitwise), `None`
    /// for continuous/synthetic phases. Attach via
    /// [`crate::trig::code_for_phase`]. Carrying the code lets the front
    /// end replace every per-read libm call with an exact table lookup; a
    /// code that does not reproduce `phase` is ignored, and the read takes
    /// libm.
    pub phase_code: Option<u16>,
}

impl RawRead {
    /// Whether the read carries a usable sample: a finite phase, a finite
    /// frequency, a finite RSSI and a channel below [`MAX_CHANNELS`]. The
    /// front end, batch and streaming alike, skips any other read as if
    /// the reader had never reported it.
    #[inline]
    pub(crate) fn is_usable(&self) -> bool {
        self.phase.is_finite()
            && self.frequency_hz.is_finite()
            && self.rssi_dbm.is_finite()
            && self.channel < MAX_CHANNELS
    }

    /// The code to look the read up by in the trig tables: `phase_code`
    /// when its grid point is bitwise equal to `phase` (the test
    /// [`crate::trig::code_for_phase`] applies), `None` otherwise. A code
    /// left stale by an edit of `phase` therefore never shifts a channel.
    #[inline]
    pub(crate) fn table_code(&self) -> Option<u16> {
        self.phase_code.filter(|&c| {
            (c as usize) < PHASE_CODES
                && (c as f64 * PHASE_LSB_RAD).to_bits() == self.phase.to_bits()
        })
    }
}

/// Aggregated, corrected observation for one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelObservation {
    /// Channel index.
    pub channel: usize,
    /// Centre frequency, Hz.
    pub frequency_hz: f64,
    /// Unwrapped phase (continuous across channels), radians.
    pub phase: f64,
    /// Mean RSSI over the channel's reads, dBm.
    pub rssi_dbm: f64,
    /// Number of raw reads aggregated.
    pub read_count: usize,
}

/// Configuration for [`preprocess_reads`]: none. The front end has one
/// mode, the paper's: π-jump correction always runs, and every channel
/// with a usable read is kept. The type stays only because the frozen
/// benchmark passes `&config.preprocess` to [`preprocess_reads_with`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreprocessConfig {}

/// Errors from [`preprocess_reads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessError {
    /// No read was usable, so no channel holds a read.
    NoUsableChannels,
}

impl std::fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreprocessError::NoUsableChannels => {
                write!(f, "no channel had enough reads to aggregate")
            }
        }
    }
}

impl std::error::Error for PreprocessError {}

/// Runs the full pre-processing pipeline on one antenna's raw reads and
/// returns per-channel observations sorted by frequency, with phases
/// unwrapped across channels. Reads whose phase, frequency or RSSI is not
/// finite, or whose channel is out of range, are skipped.
///
/// # Errors
///
/// Returns [`PreprocessError::NoUsableChannels`] when no read is usable.
///
/// # Example
///
/// ```
/// use rfp_dsp::preprocess::{preprocess_reads, PreprocessConfig, RawRead};
///
/// let reads = vec![
///     RawRead { channel: 0, frequency_hz: 902.75e6, phase: 1.0, rssi_dbm: -50.0, timestamp_s: 0.0, phase_code: None },
///     RawRead { channel: 0, frequency_hz: 902.75e6, phase: 1.0 + std::f64::consts::PI, rssi_dbm: -50.0, timestamp_s: 0.01, phase_code: None },
///     RawRead { channel: 0, frequency_hz: 902.75e6, phase: 1.02, rssi_dbm: -50.0, timestamp_s: 0.02, phase_code: None },
///     RawRead { channel: 1, frequency_hz: 903.25e6, phase: 1.06, rssi_dbm: -50.0, timestamp_s: 0.2, phase_code: None },
/// ];
/// let obs = preprocess_reads(&reads, &PreprocessConfig::default())?;
/// assert_eq!(obs.len(), 2);
/// // The π-jumped read was folded back onto the majority cluster:
/// assert!((obs[0].phase - 1.0).abs() < 0.05);
/// # Ok::<(), rfp_dsp::preprocess::PreprocessError>(())
/// ```
pub fn preprocess_reads(
    reads: &[RawRead],
    config: &PreprocessConfig,
) -> Result<Vec<ChannelObservation>, PreprocessError> {
    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    preprocess_reads_with(&mut ws, reads, config, &mut out)?;
    Ok(out)
}

/// [`preprocess_reads`] against caller-owned scratch: per-channel
/// aggregation runs over the workspace's flat SoA accumulator columns
/// (two passes over the raw reads — no per-channel `Vec`s, no map; see
/// the module docs), the unwrap operates in the workspace's phase column,
/// and writing the final observations fills the fit columns
/// ([`FrontEndWorkspace::fit_columns`]). `out` is cleared and refilled;
/// in steady state (buffer capacities reached) the call performs **zero**
/// heap allocations.
///
/// Produces bit-identical observations to [`preprocess_reads`] (which
/// delegates here): the streamed per-channel circular statistics
/// accumulate in the same read order, and the channel order is the
/// original stable `(frequency, channel)` ordering.
///
/// # Errors
///
/// As [`preprocess_reads`].
pub fn preprocess_reads_with(
    ws: &mut FrontEndWorkspace,
    reads: &[RawRead],
    _config: &PreprocessConfig,
    out: &mut Vec<ChannelObservation>,
) -> Result<(), PreprocessError> {
    if accumulate(ws, reads) {
        return finish(ws, reads, out);
    }
    // An unusable read would poison every statistic of its channel: pass 1
    // stopped at it, so restart on a copy without it. Such reads are rare,
    // so only a window holding one pays for the copy.
    let mut usable = std::mem::take(&mut ws.usable_reads);
    usable.clear();
    usable.extend(reads.iter().filter(|r| r.is_usable()).copied());
    let complete = accumulate(ws, &usable);
    debug_assert!(complete, "the copy holds only usable reads");
    let result = finish(ws, &usable, out);
    ws.usable_reads = usable;
    result
}

/// Pass 1 over the reads: per-channel counts, first read, RSSI, and the
/// per-read double-angle phasors ([`trig::acc_phasor`]) accumulated into
/// the per-channel circular sums. Iterating the reads in input order
/// keeps every per-channel accumulation in that channel's read order —
/// the same summation order as the per-channel vectors of the reference
/// implementation, hence bit-identical sums. A reader dwells on one
/// channel for several reads in a row, so the sums of the current
/// channel's run live in registers and go back to their columns when the
/// channel changes. The slot of each read is recorded so pass 2 skips the
/// slot lookup. Returns `false`, leaving the workspace half-filled, at the
/// first unusable read.
fn accumulate(ws: &mut FrontEndWorkspace, reads: &[RawRead]) -> bool {
    ws.reset_channels();
    let table = trig::double_table();
    let mut hits = [0u64; 2];
    // The current run: its channel, slot and running sums.
    let mut run = Run::default();
    for r in reads {
        if !r.is_usable() {
            return false;
        }
        if r.channel != run.channel {
            run.store(ws);
            run = Run::load(ws, r);
        }
        ws.read_slot.push(run.slot as u32);
        let [sin, cos] = trig::acc_phasor(r.phase, r.table_code(), table, &mut hits);
        run.count += 1;
        run.rssi += r.rssi_dbm;
        run.sin += sin;
        run.cos += cos;
    }
    run.store(ws);
    ws.trig_hits = hits;
    true
}

/// The pass-1 sums of one channel's run of consecutive reads.
struct Run {
    /// Channel id; `usize::MAX` before the first read (no usable read
    /// carries it).
    channel: usize,
    slot: usize,
    count: usize,
    rssi: f64,
    sin: f64,
    cos: f64,
}

impl Default for Run {
    fn default() -> Self {
        Run { channel: usize::MAX, slot: 0, count: 0, rssi: 0.0, sin: 0.0, cos: 0.0 }
    }
}

impl Run {
    /// Starts a run at `r`, resuming its channel's sums so far.
    #[inline]
    fn load(ws: &mut FrontEndWorkspace, r: &RawRead) -> Self {
        let slot = ws.slot(r.channel);
        if ws.count[slot] == 0 {
            ws.first_freq[slot] = r.frequency_hz;
            ws.first_phase[slot] = r.phase;
        }
        Run {
            channel: r.channel,
            slot,
            count: ws.count[slot],
            rssi: ws.sum_rssi[slot],
            sin: ws.acc_sin[slot],
            cos: ws.acc_cos[slot],
        }
    }

    /// Writes the run's sums back to its channel's columns.
    #[inline]
    fn store(&self, ws: &mut FrontEndWorkspace) {
        if self.channel != usize::MAX {
            ws.count[self.slot] = self.count;
            ws.sum_rssi[self.slot] = self.rssi;
            ws.acc_sin[self.slot] = self.sin;
            ws.acc_cos[self.slot] = self.cos;
        }
    }
}

/// Everything after pass 1: per-channel axes, the channel order, the
/// cross-channel unwrap, pass 2 (the π vote) and the emit.
fn finish(
    ws: &mut FrontEndWorkspace,
    reads: &[RawRead],
    out: &mut Vec<ChannelObservation>,
) -> Result<(), PreprocessError> {
    use std::f64::consts::PI;

    out.clear();
    // Every slot holds a usable read.
    if ws.slots() == 0 {
        return Err(PreprocessError::NoUsableChannels);
    }
    // Per-slot axis: circular_mean(2p).unwrap_or(2·p₀) / 2, streamed; the
    // resultant's columns take the axis's unit vector for pass 2.
    for s in 0..ws.slots() {
        let fold = FoldAxis::new(ws.acc_sin[s], ws.acc_cos[s], ws.count[s], ws.first_phase[s]);
        ws.axis[s] = fold.axis;
        [ws.acc_sin[s], ws.acc_cos[s]] = fold.unit;
    }

    {
        let FrontEndWorkspace { order, slot_of, chan, first_freq, .. } = &mut *ws;
        order_channels(order, slot_of, chan.len(), |s| chan[s], |_| true, |s| first_freq[s]);
    }

    // Wrapped per-channel phases in channel order. The per-channel axes
    // are only known modulo π: unwrap them with period π into a
    // continuous curve, then resolve the single global π ambiguity by a
    // majority vote over *every* raw read (far more robust than voting
    // channel by channel).
    ws.phase_col.clear();
    for &s in &ws.order {
        ws.phase_col.push(angle::wrap_tau(ws.axis[s]));
    }
    angle::unwrap_in_place_period(&mut ws.phase_col, PI);
    for (k, &s) in ws.order.iter().enumerate() {
        ws.unwrapped[s] = ws.phase_col[k];
    }
    // Pass 2: cast every read's vote against its channel's unwrapped axis.
    // The unwrap needs only the pass-1 axes, so one pass suffices. A grid
    // read is decided by one sign test against the axis's unit vector
    // (`fold`), and its vote is that decision flipped when the unwrap moved
    // the axis by an odd number of periods; a read inside the sign test's
    // margin, or off the grid, takes the exact distance.
    let FrontEndWorkspace { read_slot, axis, unwrapped, acc_sin, acc_cos, .. } = &*ws;
    let fold_table = trig::fold_table();
    let mut votes_axis = 0usize;
    let mut cur = u32::MAX;
    let (mut fold, mut vote_axis, mut odd) = (FoldAxis::default(), 0.0, false);
    for (r, &s) in reads.iter().zip(read_slot.iter()) {
        if s != cur {
            cur = s;
            let s = s as usize;
            vote_axis = unwrapped[s];
            fold = FoldAxis { axis: axis[s], unit: [acc_sin[s], acc_cos[s]] };
            // A parity that does not certify sends the whole run to the
            // exact path.
            odd = fold::vote_parity(fold.axis, vote_axis).unwrap_or_else(|| {
                fold.unit = [0.0; 2];
                false
            });
        }
        let vote = match fold.sign_test(r.table_code(), fold_table) {
            Some(shift) => shift == odd,
            None => fold::exact_vote(r.phase, vote_axis),
        };
        votes_axis += vote as usize;
    }
    // Every read is usable, so every read votes.
    let votes_total = reads.len();
    if 2 * votes_axis < votes_total {
        for p in &mut ws.phase_col {
            *p += PI;
        }
    }

    // Emit the final observations; the same loop fills the (freq, phase)
    // fit columns.
    for k in 0..ws.order.len() {
        let s = ws.order[k];
        let freq = ws.first_freq[s];
        let phase = ws.phase_col[k];
        out.push(ChannelObservation {
            channel: ws.chan[s],
            frequency_hz: freq,
            phase,
            rssi_dbm: ws.sum_rssi[s] / ws.count[s] as f64,
            read_count: ws.count[s],
        });
        ws.emit(freq, phase);
    }
    Ok(())
}

/// Fills `order` with the slots among `0..slots` that `kept` selects,
/// ascending in frequency. `slot_of` maps channel id → slot (`u32::MAX` =
/// none) and `chan` slot → channel id. The reference implementation
/// stable-sorts channels that arrive in ascending channel-id order
/// (BTreeMap iteration), so the order is `(frequency, channel)`. A
/// reader's frequency plan usually rises with the channel id, and then
/// walking the ids in ascending order yields that order directly; the
/// walk checks the rise as it goes and falls back to sorting on the first
/// falling frequency, or when the ids are more than 4× as sparse as the
/// slots, where the walk would cost more than the sort.
pub(crate) fn order_channels(
    order: &mut Vec<usize>,
    slot_of: &[u32],
    slots: usize,
    chan: impl Fn(usize) -> usize,
    kept: impl Fn(usize) -> bool,
    freq: impl Fn(usize) -> f64,
) {
    order.clear();
    let (lo, hi) =
        (0..slots).fold((usize::MAX, 0), |(lo, hi), s| (lo.min(chan(s)), hi.max(chan(s))));
    if hi.wrapping_sub(lo) < 4 * slots {
        let mut last = f64::NEG_INFINITY;
        let mut rising = true;
        for &s in &slot_of[lo..=hi] {
            let s = s as usize;
            if s == u32::MAX as usize || !kept(s) {
                continue;
            }
            let f = freq(s);
            if f < last {
                rising = false;
                break;
            }
            last = f;
            order.push(s);
        }
        if rising {
            return;
        }
        order.clear();
    }
    order.extend((0..slots).filter(|&s| kept(s)));
    order.sort_unstable_by(|&a, &b| {
        freq(a)
            .partial_cmp(&freq(b))
            .expect("finite frequencies")
            .then_with(|| chan(a).cmp(&chan(b)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn read(channel: usize, phase: f64) -> RawRead {
        RawRead {
            channel,
            frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
            phase: angle::wrap_tau(phase),
            rssi_dbm: -55.0,
            timestamp_s: channel as f64 * 0.2,
            phase_code: None,
        }
    }

    /// A read whose phase is snapped to the reader grid, carrying its code.
    fn quantized_read(channel: usize, phase: f64) -> RawRead {
        let lsb = crate::trig::PHASE_LSB_RAD;
        let snapped = angle::wrap_tau((angle::wrap_tau(phase) / lsb).round() * lsb);
        RawRead {
            phase: snapped,
            phase_code: crate::trig::code_for_phase(snapped),
            ..read(channel, 0.0)
        }
    }

    #[test]
    fn aggregates_per_channel() {
        let reads = vec![read(0, 1.0), read(0, 1.1), read(1, 1.2), read(1, 1.3)];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].read_count, 2);
        assert!((obs[0].phase - 1.05).abs() < 1e-9);
        assert_eq!(obs[0].channel, 0);
        assert!((obs[0].rssi_dbm + 55.0).abs() < 1e-12);
    }

    #[test]
    fn pi_jump_minority_is_folded_back() {
        // 5 reads, 2 jumped by π: the majority cluster must win.
        let reads = vec![
            read(0, 0.5),
            read(0, 0.52),
            read(0, 0.5 + PI),
            read(0, 0.48),
            read(0, 0.51 + PI),
        ];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        assert!((obs[0].phase - 0.5).abs() < 0.05, "phase={}", obs[0].phase);
    }

    #[test]
    fn pi_jump_near_wrap_boundary() {
        // True phase near 0; jumped reads near π. Wrapping must not confuse
        // the vote.
        let reads = vec![read(0, 0.02), read(0, -0.03), read(0, 0.01 + PI)];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        assert!(
            angle::distance(obs[0].phase, 0.0) < 0.05,
            "phase={}",
            obs[0].phase
        );
    }

    #[test]
    fn unwraps_across_channels() {
        // Steep line: 1.1 rad per channel, wraps several times over 20 channels.
        let true_line = |c: usize| 0.3 + 1.1 * c as f64;
        let reads: Vec<RawRead> = (0..20).map(|c| read(c, true_line(c))).collect();
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        for w in obs.windows(2) {
            assert!(
                ((w[1].phase - w[0].phase) - 1.1).abs() < 1e-6,
                "increment {}",
                w[1].phase - w[0].phase
            );
        }
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(
            preprocess_reads(&[], &PreprocessConfig::default()).unwrap_err(),
            PreprocessError::NoUsableChannels
        );
    }

    #[test]
    fn channels_sorted_by_frequency() {
        let reads = vec![read(5, 1.0), read(1, 0.5), read(3, 0.7)];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        let freqs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
        assert!(freqs.windows(2).all(|w| w[1] > w[0]));
    }

    /// Window mixing quantized (coded) and continuous reads: table
    /// lookups must be bit-identical to libm on the same reads with their
    /// codes stripped.
    #[test]
    fn coded_reads_are_bit_identical_to_stripped() {
        let mut reads = Vec::new();
        for c in 0..12usize {
            for k in 0..5usize {
                let p = 0.3 + 1.7 * c as f64 + 0.21 * k as f64
                    + if k % 2 == 1 { PI } else { 0.0 };
                reads.push(quantized_read(c, p));
                reads.push(read(c, p + 0.005));
            }
        }
        let stripped: Vec<RawRead> =
            reads.iter().map(|r| RawRead { phase_code: None, ..*r }).collect();
        let cfg = PreprocessConfig::default();
        let coded_obs = preprocess_reads(&reads, &cfg).unwrap();
        assert_eq!(coded_obs, preprocess_reads(&stripped, &cfg).unwrap());
    }

    /// The workspace tallies which source served each per-read phasor.
    #[test]
    fn trig_hit_counters_split_table_and_libm_fallback() {
        // 3 coded + 2 continuous reads on one channel: one phasor per read
        // (pass 1's double angle).
        let reads = vec![
            quantized_read(0, 0.4),
            quantized_read(0, 0.41),
            quantized_read(0, 0.4 + PI),
            read(0, 0.42),
            read(0, 0.43),
        ];
        let mut ws = FrontEndWorkspace::default();
        let mut out = Vec::new();
        preprocess_reads_with(&mut ws, &reads, &PreprocessConfig::default(), &mut out)
            .unwrap();
        assert_eq!(ws.trig_hits(), [3, 2]);

        // A code that no longer reproduces its read's phase is ignored.
        let stale = RawRead { phase: angle::wrap_tau(reads[0].phase + 0.3), ..reads[0] };
        preprocess_reads_with(&mut ws, &[stale, reads[1]], &PreprocessConfig::default(), &mut out)
            .unwrap();
        assert_eq!(ws.trig_hits(), [1, 1]);
    }
}
