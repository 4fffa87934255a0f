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
//! All per-read trigonometry goes through a pluggable backend
//! ([`TrigProvider`], selected per call via [`PreprocessConfig::trig`]):
//! quantized phase-**code tables** when the reads carry their 12-bit
//! reader codes (bit-identical to libm by construction), a bounded-error
//! **polynomial** for continuous synthetic phases, or plain **libm**. The
//! per-read phasors are computed in flat lane columns (4-wide unrolled)
//! before a scalar in-order scatter into the per-channel accumulators, so
//! the trig work autovectorizes while every per-channel sum keeps the
//! reference summation order — and hence its bits.

use crate::trig::{self, hit, TrigProvider};
use crate::workspace::FrontEndWorkspace;
use rfp_geom::angle;

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
    /// [`crate::trig::code_for_phase`]; codes ≥ 4096
    /// are treated modulo 4096 by the table backend. Carrying the code
    /// lets [`TrigProvider::Table`] replace every per-read libm call with
    /// an exact table lookup.
    pub phase_code: Option<u16>,
}

impl RawRead {
    /// Whether the read carries a usable sample: a finite phase and a
    /// finite frequency. The front end, batch and streaming alike, skips
    /// any other read as if the reader had never reported it.
    #[inline]
    pub(crate) fn is_usable(&self) -> bool {
        self.phase.is_finite() && self.frequency_hz.is_finite()
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
    /// Trigonometry backend for the per-read phasor computations. The
    /// default, [`TrigProvider::Table`], is bit-identical to
    /// [`TrigProvider::Libm`] on every input (table hits for reads with
    /// phase codes, libm otherwise) and fastest on quantized reader data.
    pub trig: TrigProvider,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            correct_pi_jumps: true,
            min_reads_per_channel: 1,
            trig: TrigProvider::default(),
        }
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
/// unwrapped across channels. Reads whose phase or frequency is not finite
/// are skipped.
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
    //
    // The table backend fuses lookup and scatter into this single pass
    // (a table hit is two loads — staging it through lane columns would
    // cost more memory traffic than it saves); the polynomial and libm
    // backends compute the phasors into the flat `read_sin`/`read_cos`
    // lane columns first (4-wide unrolled chunks the compiler can
    // autovectorize, and libm calls pipeline better without the
    // bookkeeping interleaved), then scatter in a scalar pass.
    if config.trig == TrigProvider::Table {
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
            let (sin, cos) = match r.phase_code {
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
    } else {
        fill_phasors(
            config.trig,
            reads,
            config.correct_pi_jumps,
            &mut ws.read_sin,
            &mut ws.read_cos,
            &mut ws.trig_hits,
        );
        // Explicit 4-wide lane unroll over the accumulator scatter: the
        // phasor lanes are loaded four at a time into named registers
        // before the per-read bookkeeping, matching the lane width of the
        // fill above. The four element bodies stay *sequential in index
        // order*, so per-slot sums accumulate in exactly the scalar
        // order — bit-identical even when a 4-block hits one slot twice.
        let n = reads.len();
        let mut i = 0;
        while i + 4 <= n {
            let (s0, s1, s2, s3) =
                (ws.read_sin[i], ws.read_sin[i + 1], ws.read_sin[i + 2], ws.read_sin[i + 3]);
            let (c0, c1, c2, c3) =
                (ws.read_cos[i], ws.read_cos[i + 1], ws.read_cos[i + 2], ws.read_cos[i + 3]);
            scatter_read(ws, &reads[i], s0, c0);
            scatter_read(ws, &reads[i + 1], s1, c1);
            scatter_read(ws, &reads[i + 2], s2, c2);
            scatter_read(ws, &reads[i + 3], s3, c3);
            i += 4;
        }
        while i < n {
            let (sin, cos) = (ws.read_sin[i], ws.read_cos[i]);
            scatter_read(ws, &reads[i], sin, cos);
            i += 1;
        }
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
    // hits resolve to the base or π-shifted table by the fold decision,
    // fused into the scatter; the polynomial and libm backends compute
    // the folded phasors into the lane columns first, then scatter in
    // read order (reads of dropped channels contribute `(0, 0)` lanes
    // into slots whose fold sums are never read, keeping that scatter
    // branch-free).
    if config.correct_pi_jumps {
        if config.trig == TrigProvider::Table {
            // Fused fold for the table backend: decision, lookup and
            // accumulation in one pass, in input order (bit-identical
            // sums, as in pass 1).
            for (i, r) in reads.iter().enumerate() {
                let s = ws.read_slot[i] as usize;
                if !ws.keep[s] {
                    continue;
                }
                let p = r.phase;
                let shift = wrapped_distance(p, ws.axis[s]) > FRAC_PI_2;
                let (sin, cos) = match r.phase_code {
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
        } else {
            fill_fold_phasors(
                config.trig,
                reads,
                &ws.read_slot,
                &ws.axis,
                &ws.keep,
                &mut ws.read_sin,
                &mut ws.read_cos,
                &mut ws.trig_hits,
            );
            // Same 4-wide lane unroll as the pass-1 scatter: load four
            // slot indices and four phasor lanes, then accumulate the
            // four element bodies sequentially in index order (bit-
            // identical per-slot sums under intra-block slot collisions).
            let FrontEndWorkspace {
                read_slot, read_sin, read_cos, fold_sin, fold_cos, ..
            } = &mut *ws;
            let n = reads.len();
            let mut i = 0;
            while i + 4 <= n {
                let (t0, t1, t2, t3) = (
                    read_slot[i] as usize,
                    read_slot[i + 1] as usize,
                    read_slot[i + 2] as usize,
                    read_slot[i + 3] as usize,
                );
                let (s0, s1, s2, s3) =
                    (read_sin[i], read_sin[i + 1], read_sin[i + 2], read_sin[i + 3]);
                let (c0, c1, c2, c3) =
                    (read_cos[i], read_cos[i + 1], read_cos[i + 2], read_cos[i + 3]);
                fold_sin[t0] += s0;
                fold_cos[t0] += c0;
                fold_sin[t1] += s1;
                fold_cos[t1] += c1;
                fold_sin[t2] += s2;
                fold_cos[t2] += c2;
                fold_sin[t3] += s3;
                fold_cos[t3] += c3;
                i += 4;
            }
            while i < n {
                let s = read_slot[i] as usize;
                fold_sin[s] += read_sin[i];
                fold_cos[s] += read_cos[i];
                i += 1;
            }
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

/// One element body of the pass-1 accumulator scatter: slot bookkeeping
/// plus the circular-sum accumulation of one read's phasor. Kept as a
/// named `#[inline(always)]` body so the 4-wide unrolled scatter and its
/// scalar remainder loop are the same code by construction (bit-identity
/// of the lane-unrolled pass is pinned against
/// [`crate::reference::preprocess_reads`]).
#[inline(always)]
fn scatter_read(ws: &mut FrontEndWorkspace, r: &RawRead, sin: f64, cos: f64) {
    let s = ws.slot(r.channel);
    ws.read_slot.push(s as u32);
    if ws.count[s] == 0 {
        ws.first_freq[s] = r.frequency_hz;
        ws.first_phase[s] = r.phase;
    }
    ws.count[s] += 1;
    ws.sum_rssi[s] += r.rssi_dbm;
    ws.acc_sin[s] += sin;
    ws.acc_cos[s] += cos;
}

/// Fills the per-read phasor lanes: `(sin_out[i], cos_out[i])` becomes
/// `sin/cos` of `reads[i].phase` (or of the doubled angle
/// `2.0 · phase` when `doubled`), computed by the selected backend.
/// `hits` tallies per-backend evaluations. [`TrigProvider::Table`] never
/// reaches here — its lookups are fused directly into the caller's
/// scatter pass (a table hit is two loads; staging it through the lanes
/// would cost more memory traffic than it saves).
fn fill_phasors(
    trig: TrigProvider,
    reads: &[RawRead],
    doubled: bool,
    sin_out: &mut Vec<f64>,
    cos_out: &mut Vec<f64>,
    hits: &mut [u64; 4],
) {
    let n = reads.len();
    sin_out.clear();
    sin_out.resize(n, 0.0);
    cos_out.clear();
    cos_out.resize(n, 0.0);
    // `1.0 · p` is exactly `p`, so one scaled expression serves both the
    // doubled and plain lanes without perturbing libm bit-identity.
    let scale = if doubled { 2.0 } else { 1.0 };
    match trig {
        TrigProvider::Table => unreachable!("table lookups are fused into the caller"),
        TrigProvider::Polynomial => {
            hits[hit::POLY] += n as u64;
            let mut rs = reads.chunks_exact(4);
            let mut ss = sin_out.chunks_exact_mut(4);
            let mut cs = cos_out.chunks_exact_mut(4);
            for ((r, s), c) in (&mut rs).zip(&mut ss).zip(&mut cs) {
                let (s0, c0) = trig::poly_sin_cos(scale * r[0].phase);
                let (s1, c1) = trig::poly_sin_cos(scale * r[1].phase);
                let (s2, c2) = trig::poly_sin_cos(scale * r[2].phase);
                let (s3, c3) = trig::poly_sin_cos(scale * r[3].phase);
                s[0] = s0;
                s[1] = s1;
                s[2] = s2;
                s[3] = s3;
                c[0] = c0;
                c[1] = c1;
                c[2] = c2;
                c[3] = c3;
            }
            let rem = rs.remainder();
            for ((r, s), c) in rem.iter().zip(ss.into_remainder()).zip(cs.into_remainder()) {
                let (ps, pc) = trig::poly_sin_cos(scale * r.phase);
                *s = ps;
                *c = pc;
            }
        }
        TrigProvider::Libm => {
            hits[hit::LIBM] += n as u64;
            for ((r, s), c) in reads.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let x = scale * r.phase;
                *s = x.sin();
                *c = x.cos();
            }
        }
        TrigProvider::Recurrence => {
            // Sequential by construction: each phasor rotates from the
            // previous read's angle (reads inside one dwell are near-
            // constant in phase, so most advances are one complex
            // rotation; dwell hops re-anchor through the polynomial).
            hits[hit::RECURRENCE] += n as u64;
            let mut rec = trig::PhasorRecurrence::new();
            for ((r, s), c) in reads.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (rs, rc) = rec.advance(scale * r.phase);
                *s = rs;
                *c = rc;
            }
        }
    }
}

/// Fills the fold-pass phasor lanes: for each read of a kept channel,
/// `(sin_out[i], cos_out[i])` becomes `sin/cos` of the phase folded onto
/// its channel axis (`p` when within π/2 of the axis, `p + π`
/// otherwise). Reads of dropped channels get inert `(0, 0)` lanes (their
/// slots' fold sums are never read). The polynomial and libm backends
/// stage the folded angles in the cos lane, then transform it;
/// [`TrigProvider::Table`] never reaches here (fused into the caller's
/// fold scatter, as in pass 1).
#[allow(clippy::too_many_arguments)]
fn fill_fold_phasors(
    trig: TrigProvider,
    reads: &[RawRead],
    read_slot: &[u32],
    axis: &[f64],
    keep: &[bool],
    sin_out: &mut Vec<f64>,
    cos_out: &mut Vec<f64>,
    hits: &mut [u64; 4],
) {
    use std::f64::consts::{FRAC_PI_2, PI};

    let n = reads.len();
    sin_out.clear();
    sin_out.resize(n, 0.0);
    cos_out.clear();
    cos_out.resize(n, 0.0);
    match trig {
        TrigProvider::Table => unreachable!("table lookups are fused into the caller"),
        TrigProvider::Recurrence => {
            // The recurrence tracks the *base* phase trajectory and
            // resolves a fold by negation — `sin/cos(p + π) = −sin/cos p`
            // exactly — so a π-jumped read costs a sign flip instead of
            // breaking the rotation chain with a π-sized re-anchor.
            hits[hit::RECURRENCE] += n as u64;
            let mut rec = trig::PhasorRecurrence::new();
            for i in 0..n {
                let s = read_slot[i] as usize;
                let p = reads[i].phase;
                let (bs, bc) = rec.advance(p);
                if !keep[s] {
                    continue;
                }
                if wrapped_distance(p, axis[s]) <= FRAC_PI_2 {
                    sin_out[i] = bs;
                    cos_out[i] = bc;
                } else {
                    sin_out[i] = -bs;
                    cos_out[i] = -bc;
                }
            }
        }
        TrigProvider::Polynomial | TrigProvider::Libm => {
            for i in 0..n {
                let s = read_slot[i] as usize;
                let p = reads[i].phase;
                cos_out[i] = if !keep[s] {
                    0.0
                } else if wrapped_distance(p, axis[s]) <= FRAC_PI_2 {
                    p
                } else {
                    p + PI
                };
            }
            if trig == TrigProvider::Polynomial {
                hits[hit::POLY] += n as u64;
                let mut i = 0;
                while i + 4 <= n {
                    let (s0, c0) = trig::poly_sin_cos(cos_out[i]);
                    let (s1, c1) = trig::poly_sin_cos(cos_out[i + 1]);
                    let (s2, c2) = trig::poly_sin_cos(cos_out[i + 2]);
                    let (s3, c3) = trig::poly_sin_cos(cos_out[i + 3]);
                    sin_out[i] = s0;
                    sin_out[i + 1] = s1;
                    sin_out[i + 2] = s2;
                    sin_out[i + 3] = s3;
                    cos_out[i] = c0;
                    cos_out[i + 1] = c1;
                    cos_out[i + 2] = c2;
                    cos_out[i + 3] = c3;
                    i += 4;
                }
                while i < n {
                    let (ps, pc) = trig::poly_sin_cos(cos_out[i]);
                    sin_out[i] = ps;
                    cos_out[i] = pc;
                    i += 1;
                }
            } else {
                hits[hit::LIBM] += n as u64;
                for i in 0..n {
                    let x = cos_out[i];
                    sin_out[i] = x.sin();
                    cos_out[i] = x.cos();
                }
            }
        }
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
    /// π-jump modes: the table backend must be bit-identical to libm.
    #[test]
    fn table_backend_is_bit_identical_to_libm() {
        let mut reads = Vec::new();
        for c in 0..12usize {
            for k in 0..5usize {
                let p = 0.3 + 1.7 * c as f64 + 0.21 * k as f64
                    + if k % 2 == 1 { PI } else { 0.0 };
                reads.push(quantized_read(c, p));
                reads.push(read(c, p + 0.005));
            }
        }
        for &pi_jumps in &[true, false] {
            let libm_cfg = PreprocessConfig {
                correct_pi_jumps: pi_jumps,
                trig: crate::trig::TrigProvider::Libm,
                ..Default::default()
            };
            let table_cfg = PreprocessConfig {
                trig: crate::trig::TrigProvider::Table,
                ..libm_cfg
            };
            let libm_obs = preprocess_reads(&reads, &libm_cfg).unwrap();
            let table_obs = preprocess_reads(&reads, &table_cfg).unwrap();
            assert_eq!(libm_obs, table_obs, "pi_jumps={pi_jumps}");
        }
    }

    /// The workspace tallies which backend served each per-read phasor.
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
        assert_eq!(ws.trig_hits(), [6, 0, 4, 0]);

        let poly_cfg = PreprocessConfig {
            trig: crate::trig::TrigProvider::Polynomial,
            ..Default::default()
        };
        preprocess_reads_with(&mut ws, &reads, &poly_cfg, &mut out).unwrap();
        assert_eq!(ws.trig_hits(), [0, 10, 0, 0]);

        let rec_cfg = PreprocessConfig {
            trig: crate::trig::TrigProvider::Recurrence,
            ..Default::default()
        };
        preprocess_reads_with(&mut ws, &reads, &rec_cfg, &mut out).unwrap();
        assert_eq!(ws.trig_hits(), [0, 0, 0, 10]);
    }

    /// Polynomial backend stays within its documented error bound end to
    /// end (continuous phases, steep line, π jumps).
    #[test]
    fn polynomial_backend_tracks_libm_closely() {
        let reads: Vec<RawRead> = (0..20)
            .flat_map(|c| {
                (0..4).map(move |k| {
                    read(c, 0.3 + 1.1 * c as f64 + if k % 2 == 0 { 0.0 } else { PI })
                })
            })
            .collect();
        let libm_obs = preprocess_reads(
            &reads,
            &PreprocessConfig { trig: crate::trig::TrigProvider::Libm, ..Default::default() },
        )
        .unwrap();
        let poly_obs = preprocess_reads(
            &reads,
            &PreprocessConfig {
                trig: crate::trig::TrigProvider::Polynomial,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(libm_obs.len(), poly_obs.len());
        for (l, p) in libm_obs.iter().zip(&poly_obs) {
            assert_eq!(l.channel, p.channel);
            assert!((l.phase - p.phase).abs() < 1e-9, "{} vs {}", l.phase, p.phase);
            // spread = √(−2 ln r) has unbounded derivative at r → 1, so a
            // ~1e-14 phasor error can move a near-zero spread by ~1e-7.
            assert!((l.phase_spread - p.phase_spread).abs() < 1e-6);
        }
    }

    /// The stateful phasor-recurrence backend stays within its documented
    /// error bound end to end on a dwell-like stream (near-constant phase
    /// within a channel, hops between channels, random π jumps).
    #[test]
    fn recurrence_backend_tracks_libm_closely() {
        let reads: Vec<RawRead> = (0..20)
            .flat_map(|c| {
                (0..8).map(move |k| {
                    read(
                        c,
                        0.3 + 1.1 * c as f64
                            + 0.004 * k as f64
                            + if (c * 7 + k) % 3 == 0 { PI } else { 0.0 },
                    )
                })
            })
            .collect();
        let libm_obs = preprocess_reads(
            &reads,
            &PreprocessConfig { trig: crate::trig::TrigProvider::Libm, ..Default::default() },
        )
        .unwrap();
        let rec_obs = preprocess_reads(
            &reads,
            &PreprocessConfig {
                trig: crate::trig::TrigProvider::Recurrence,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(libm_obs.len(), rec_obs.len());
        for (l, r) in libm_obs.iter().zip(&rec_obs) {
            assert_eq!(l.channel, r.channel);
            assert!((l.phase - r.phase).abs() < 1e-9, "{} vs {}", l.phase, r.phase);
            assert!((l.phase_spread - r.phase_spread).abs() < 1e-6);
        }
    }

    /// The 4-wide lane-unrolled scatter passes are bit-identical to the
    /// frozen reference: odd read counts (remainder loop) and repeated
    /// same-channel reads *inside* one 4-block (intra-block slot
    /// collisions) must not perturb a single bit.
    #[test]
    fn lane_unrolled_scatter_is_bit_identical_to_reference() {
        // 3 channels × 7 reads interleaved so most 4-blocks hit the same
        // slot at least twice; 21 reads total exercises the remainder.
        let mut reads = Vec::new();
        for k in 0..7usize {
            for c in 0..3usize {
                reads.push(read(c, 0.4 + 1.3 * c as f64 + 0.01 * k as f64
                    + if (k + c) % 2 == 0 { PI } else { 0.0 }));
            }
        }
        for &pi_jumps in &[true, false] {
            let cfg = PreprocessConfig {
                correct_pi_jumps: pi_jumps,
                trig: crate::trig::TrigProvider::Libm,
                ..Default::default()
            };
            let fused = preprocess_reads(&reads, &cfg).unwrap();
            let reference = crate::reference::preprocess_reads(&reads, &cfg).unwrap();
            assert_eq!(fused.len(), reference.len(), "pi_jumps={pi_jumps}");
            for (f, r) in fused.iter().zip(&reference) {
                assert_eq!(f.channel, r.channel);
                assert_eq!(f.phase.to_bits(), r.phase.to_bits(), "pi_jumps={pi_jumps}");
                assert_eq!(f.phase_spread.to_bits(), r.phase_spread.to_bits());
                assert_eq!(f.rssi_dbm.to_bits(), r.rssi_dbm.to_bits());
            }
        }
    }
}
