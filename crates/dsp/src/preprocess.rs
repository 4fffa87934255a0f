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
//! Per-read trigonometry has one path: reads that carry their 12-bit
//! reader phase code are looked up in the exact phase-code tables of
//! [`crate::trig`] (bit-identical to libm by construction), and every
//! other read calls libm. The lookups are fused into the per-channel
//! accumulation passes, so every per-channel sum keeps the reference
//! summation order — and hence its bits.

use crate::trig::{self, hit, PHASE_CODES, PHASE_LSB_RAD};
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
    /// frequency and a channel below [`MAX_CHANNELS`]. The front end,
    /// batch and streaming alike, skips any other read as if the reader
    /// had never reported it.
    #[inline]
    pub(crate) fn is_usable(&self) -> bool {
        self.phase.is_finite() && self.frequency_hz.is_finite() && self.channel < MAX_CHANNELS
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
    /// Circular spread of the (π-corrected) reads, radians — a per-channel
    /// quality indicator.
    pub phase_spread: f64,
}

/// Configuration for [`preprocess_reads`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Whether to run π-jump correction (on for COTS-reader data).
    pub correct_pi_jumps: bool,
    /// Channels with fewer reads than this are dropped.
    pub min_reads_per_channel: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig { correct_pi_jumps: true, min_reads_per_channel: 1 }
    }
}

/// Errors from [`preprocess_reads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessError {
    /// No channel had enough reads.
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
/// unwrapped across channels. Reads whose phase or frequency is not
/// finite, or whose channel is out of range, are skipped.
///
/// # Errors
///
/// Returns [`PreprocessError::NoUsableChannels`] when every channel has
/// fewer than `config.min_reads_per_channel` reads.
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
/// (two passes over the raw reads — no per-channel `Vec`s, no map), the
/// unwrap operates in the workspace's phase column, and writing the final
/// observations simultaneously feeds the fused unwrap+OLS accumulator
/// ([`FrontEndWorkspace::raw_fit`]) and the fit columns
/// ([`FrontEndWorkspace::fit_columns`]). `out` is cleared and refilled;
/// in steady state (buffer capacities reached) the call performs **zero**
/// heap allocations.
///
/// Produces bit-identical observations to [`preprocess_reads`] (which
/// delegates here): the streamed per-channel circular statistics
/// accumulate in the same read order, and the order-statistic medians and
/// unstable index sorts reproduce the original stable orderings exactly.
///
/// # Errors
///
/// As [`preprocess_reads`].
pub fn preprocess_reads_with(
    ws: &mut FrontEndWorkspace,
    reads: &[RawRead],
    config: &PreprocessConfig,
    out: &mut Vec<ChannelObservation>,
) -> Result<(), PreprocessError> {
    if reads.iter().all(RawRead::is_usable) {
        return preprocess_usable(ws, reads, config, out);
    }
    // An unusable read would poison every statistic of its channel: run on
    // a copy without it. Such reads are rare, so only a window holding one
    // pays for the copy.
    let mut usable = std::mem::take(&mut ws.usable_reads);
    usable.clear();
    usable.extend(reads.iter().filter(|r| r.is_usable()).copied());
    let result = preprocess_usable(ws, &usable, config, out);
    ws.usable_reads = usable;
    result
}

/// [`preprocess_reads_with`] on reads that are all usable.
fn preprocess_usable(
    ws: &mut FrontEndWorkspace,
    reads: &[RawRead],
    config: &PreprocessConfig,
    out: &mut Vec<ChannelObservation>,
) -> Result<(), PreprocessError> {
    use std::f64::consts::{FRAC_PI_2, PI};

    ws.reset_channels();
    out.clear();
    let min_reads = config.min_reads_per_channel.max(1);

    // Pass 1: per-channel counts, first read, RSSI, and the per-read
    // phasors — sin/cos of the doubled angle in π-jump mode (the
    // double-angle trick maps both antipodal clusters onto one) or of
    // the plain phase otherwise — accumulated into the per-channel
    // circular sums. Iterating the reads in input order keeps every
    // per-channel accumulation in that channel's read order — the same
    // summation order as the per-channel vectors of the reference
    // implementation, hence bit-identical sums. The slot of each read is
    // recorded so the fold and vote passes skip the branchy slot lookup.
    // A table hit is two loads, fused straight into the scatter.
    let scale = if config.correct_pi_jumps { 2.0 } else { 1.0 };
    for r in reads.iter() {
        let s = ws.slot(r.channel);
        ws.read_slot.push(s as u32);
        if ws.count[s] == 0 {
            ws.first_freq[s] = r.frequency_hz;
            ws.first_phase[s] = r.phase;
        }
        ws.count[s] += 1;
        ws.sum_rssi[s] += r.rssi_dbm;
        let (sin, cos) = match r.table_code() {
            Some(code) => {
                ws.trig_hits[hit::TABLE] += 1;
                if config.correct_pi_jumps {
                    trig::table_double_sin_cos(code)
                } else {
                    trig::table_sin_cos(code)
                }
            }
            None => {
                // `1.0 · p` is exactly `p`, so one scaled expression
                // serves both modes without perturbing bit-identity.
                ws.trig_hits[hit::LIBM] += 1;
                let x = scale * r.phase;
                (x.sin(), x.cos())
            }
        };
        ws.acc_sin[s] += sin;
        ws.acc_cos[s] += cos;
    }

    // Per-slot axis (and, without π correction, the spread too — it comes
    // from the same resultant vector as the mean).
    let mut kept = 0usize;
    for s in 0..ws.slots() {
        let n = ws.count[s];
        ws.keep[s] = n >= min_reads;
        if !ws.keep[s] {
            continue;
        }
        kept += 1;
        let (sin, cos) = (ws.acc_sin[s], ws.acc_cos[s]);
        let r = (sin * sin + cos * cos).sqrt() / n as f64;
        if config.correct_pi_jumps {
            // circular_mean(2p).unwrap_or(2·p₀) / 2, streamed.
            let doubled_mean = if r < 1e-12 { 2.0 * ws.first_phase[s] } else { sin.atan2(cos) };
            ws.axis[s] = doubled_mean / 2.0;
        } else {
            ws.axis[s] = if r < 1e-12 { ws.first_phase[s] } else { sin.atan2(cos) };
            ws.spread[s] = (-2.0 * r.clamp(1e-300, 1.0).ln()).sqrt();
        }
    }
    if kept == 0 {
        return Err(PreprocessError::NoUsableChannels);
    }

    // Pass 2 (π-jump mode): fold every read onto its channel axis and
    // accumulate the folded resultant for the per-channel spread. Table
    // hits resolve to the base or π-shifted table by the fold decision;
    // decision, lookup and accumulation run in one pass, in input order
    // (bit-identical sums, as in pass 1).
    if config.correct_pi_jumps {
        for (i, r) in reads.iter().enumerate() {
            let s = ws.read_slot[i] as usize;
            if !ws.keep[s] {
                continue;
            }
            let p = r.phase;
            let shift = wrapped_distance(p, ws.axis[s]) > FRAC_PI_2;
            let (sin, cos) = match r.table_code() {
                Some(code) => {
                    ws.trig_hits[hit::TABLE] += 1;
                    if shift {
                        trig::table_shift_sin_cos(code)
                    } else {
                        trig::table_sin_cos(code)
                    }
                }
                None => {
                    ws.trig_hits[hit::LIBM] += 1;
                    let folded = if shift { p + PI } else { p };
                    (folded.sin(), folded.cos())
                }
            };
            ws.fold_sin[s] += sin;
            ws.fold_cos[s] += cos;
        }
        for s in 0..ws.slots() {
            if !ws.keep[s] {
                continue;
            }
            let (sin, cos) = (ws.fold_sin[s], ws.fold_cos[s]);
            let r = ((sin * sin + cos * cos).sqrt() / ws.count[s] as f64).min(1.0);
            ws.spread[s] = (-2.0 * r.max(1e-300).ln()).sqrt();
        }
    }

    // Sort the kept slots ascending in frequency. The reference
    // implementation stable-sorts channels that arrive in ascending
    // channel-id order (BTreeMap iteration), so (frequency, channel) as an
    // unstable total order reproduces its ordering exactly.
    ws.order.clear();
    ws.order.extend((0..ws.slots()).filter(|&s| ws.keep[s]));
    {
        let first_freq = &ws.first_freq;
        let chan = &ws.chan;
        ws.order.sort_unstable_by(|&a, &b| {
            first_freq[a]
                .partial_cmp(&first_freq[b])
                .expect("finite frequencies")
                .then_with(|| chan[a].cmp(&chan[b]))
        });
    }

    // Wrapped per-channel phases in sorted order, then cross-channel
    // unwrap in place.
    ws.phase_col.clear();
    for &s in &ws.order {
        ws.phase_col.push(angle::wrap_tau(ws.axis[s]));
    }
    if config.correct_pi_jumps {
        // The per-channel axes are only known modulo π: unwrap them with
        // period π into a continuous curve, then resolve the single global
        // π ambiguity by a majority vote over *every* raw read (far more
        // robust than voting channel by channel).
        angle::unwrap_in_place_period(&mut ws.phase_col, PI);
        for (k, &s) in ws.order.iter().enumerate() {
            ws.unwrapped[s] = ws.phase_col[k];
        }
        let mut votes_axis = 0usize;
        let mut votes_total = 0usize;
        for (i, r) in reads.iter().enumerate() {
            let s = ws.read_slot[i] as usize;
            debug_assert_eq!(ws.slot_if_seen(r.channel), Some(s), "stale read_slot");
            if !ws.keep[s] {
                continue;
            }
            votes_total += 1;
            if wrapped_distance(r.phase, ws.unwrapped[s]) <= FRAC_PI_2 {
                votes_axis += 1;
            }
        }
        if 2 * votes_axis < votes_total {
            for p in &mut ws.phase_col {
                *p += PI;
            }
        }
    } else {
        angle::unwrap_in_place(&mut ws.phase_col);
    }

    // Emit the final observations; the same loop feeds the fused
    // unwrap+OLS accumulator and the (freq, phase) fit columns, so the
    // raw line fit afterwards needs no further pass over the window.
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
            phase_spread: ws.spread[s],
        });
        ws.emit(freq, phase);
    }
    Ok(())
}

/// `angle::distance(a, b)`, fast-pathed for the per-read hot loops.
///
/// `angle::distance` reaches `f64::rem_euclid`, whose `%` is a libm
/// `fmod` call — the single most expensive operation left in the fold and
/// vote passes once the trig is table-backed. For `|a - b| < τ` (every
/// real window: raw phases live in `[0, 2π)` and channel axes in
/// `(-π, π]`) the `rem_euclid` reduces to at most one add of `τ`, which
/// this helper replays branch by branch:
///
/// * `d ∈ [0, τ)`: `fmod(d, τ) = d` exactly, and `rem_euclid` returns it
///   unchanged — as does the fast path.
/// * `d ∈ (-τ, 0)`: `fmod(d, τ) = d` exactly (fmod is exact and keeps
///   the sign), then `rem_euclid` computes the *floating* add `d + τ` —
///   the identical expression the fast path evaluates, so even when that
///   add rounds (tiny `|d|` → exactly `τ`) both paths round the same way.
///
/// The subsequent `≥ τ` and `> π` adjustments are copied verbatim from
/// `wrap_tau`/`wrap_pi`, so the fast path is **bit-identical** to
/// `angle::distance` on its range; anything else (|d| ≥ τ, NaN) falls
/// back to the real thing. The frozen reference path keeps calling
/// `angle::distance`, and the bit-identity property suites compare the
/// two implementations on every window they generate.
#[inline(always)]
pub(crate) fn wrapped_distance(a: f64, b: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let d = a - b;
    if d > -TAU && d < TAU {
        let w = if d < 0.0 { d + TAU } else { d };
        let w = if w >= TAU { w - TAU } else { w };
        let w = if w > PI { w - TAU } else { w };
        w.abs()
    } else {
        angle::distance(a, b)
    }
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
        assert!(obs[0].phase_spread < 0.1);
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
    fn min_reads_filter_drops_thin_channels() {
        let reads = vec![read(0, 1.0), read(0, 1.0), read(1, 2.0)];
        let cfg = PreprocessConfig { min_reads_per_channel: 2, ..Default::default() };
        let obs = preprocess_reads(&reads, &cfg).unwrap();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].channel, 0);
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(
            preprocess_reads(&[], &PreprocessConfig::default()).unwrap_err(),
            PreprocessError::NoUsableChannels
        );
    }

    #[test]
    fn correction_can_be_disabled() {
        let reads = vec![read(0, 0.5), read(0, 0.5 + PI)];
        let cfg = PreprocessConfig { correct_pi_jumps: false, ..Default::default() };
        // With correction off the two antipodal reads average to something
        // near the midpoint (circular mean undefined-ish); just check we get
        // an observation and do not crash.
        let obs = preprocess_reads(&reads, &cfg).unwrap();
        assert_eq!(obs[0].read_count, 2);
    }

    #[test]
    fn channels_sorted_by_frequency() {
        let reads = vec![read(5, 1.0), read(1, 0.5), read(3, 0.7)];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        let freqs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
        assert!(freqs.windows(2).all(|w| w[1] > w[0]));
    }

    /// Window mixing quantized (coded) and continuous reads across both
    /// π-jump modes: table lookups must be bit-identical to libm on the
    /// same reads with their codes stripped.
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
        for &pi_jumps in &[true, false] {
            let cfg = PreprocessConfig { correct_pi_jumps: pi_jumps, ..Default::default() };
            let coded_obs = preprocess_reads(&reads, &cfg).unwrap();
            let stripped_obs = preprocess_reads(&stripped, &cfg).unwrap();
            assert_eq!(coded_obs, stripped_obs, "pi_jumps={pi_jumps}");
        }
    }

    /// The workspace tallies which source served each per-read phasor.
    #[test]
    fn trig_hit_counters_split_table_and_libm_fallback() {
        // 3 coded + 2 continuous reads on one channel, π-jump mode: two
        // phasor passes (double-angle + fold) over every read.
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
        assert_eq!(ws.trig_hits(), [6, 4]);

        // A code that no longer reproduces its read's phase is ignored.
        let stale = RawRead { phase: angle::wrap_tau(reads[0].phase + 0.3), ..reads[0] };
        preprocess_reads_with(&mut ws, &[stale, reads[1]], &PreprocessConfig::default(), &mut out)
            .unwrap();
        assert_eq!(ws.trig_hits(), [2, 2]);
    }
}
