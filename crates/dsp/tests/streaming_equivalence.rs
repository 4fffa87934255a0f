//! Property-based equivalence contract of the incremental sliding-window
//! front end (`StreamingWindow`) against the batch pipeline it shadows:
//! after any schedule of pushes and expiries, every extract is
//! **bit-identical** to `preprocess_reads_with` on the retained reads —
//! phases, RSSI, read counts, and the fit columns, so the raw
//! fit, the robust fit (`robust_line_fit_with`) and its inlier mask read
//! off them are too.
//!
//! Schedules (round sizes, expiry depths, noise, π jumps, a channel that
//! changes frequency) are randomized by proptest, and so is whether the
//! reads arrive snapped to the reader's 12-bit phase grid with their codes
//! attached (the table lookups every R420 stream takes) or codeless
//! (libm); the oracle is the production batch front end itself.

use proptest::prelude::*;
use rfp_dsp::linfit::LineFit;
use rfp_dsp::preprocess::{preprocess_reads_with, ChannelObservation, RawRead};
use rfp_dsp::robust::{robust_line_fit_with, RobustSummary};
use rfp_dsp::workspace::FrontEndWorkspace;
use rfp_dsp::{ExtractConfig, StreamingWindow};
use rfp_geom::angle;

/// Splitmix-style generator so schedules need only one proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// One synthetic hop round: `per_chan` reads on each of `chans` channels,
/// phases on a noisy wrapped line with deterministic π jumps.
fn round_reads(
    rng: &mut Rng,
    round: usize,
    chans: usize,
    per_chan: usize,
    slope: f64,
    noise: f64,
) -> Vec<RawRead> {
    let mut reads = Vec::new();
    for c in 0..chans {
        let freq = 902.0e6 + c as f64 * 0.5e6;
        for k in 0..per_chan {
            let mut phase = slope * (freq - 902.0e6) + 1.3 + noise * rng.unit();
            if (round + c * 7 + k).is_multiple_of(3) {
                phase += std::f64::consts::PI;
            }
            reads.push(RawRead {
                channel: c,
                frequency_hz: freq,
                phase: angle::wrap_tau(phase),
                rssi_dbm: -55.0 - c as f64 * 0.25,
                timestamp_s: round as f64 + (c * per_chan + k) as f64 * 1e-3,
                phase_code: None,
            });
        }
    }
    reads
}

/// Snaps every read onto the reader's 12-bit phase grid and attaches its
/// code, as reads from a quantizing reader arrive.
fn quantized(reads: Vec<RawRead>) -> Vec<RawRead> {
    let lsb = rfp_dsp::trig::PHASE_LSB_RAD;
    reads
        .into_iter()
        .map(|r| {
            let phase = angle::wrap_tau((r.phase / lsb).round() * lsb);
            RawRead { phase, phase_code: rfp_dsp::trig::code_for_phase(phase), ..r }
        })
        .collect()
}

/// The raw fit, the robust fit and its inlier mask over the fit columns a
/// front end left in `ws`, as the extraction's fit tail reads them.
fn fits(ws: &mut FrontEndWorkspace) -> (LineFit, RobustSummary, Vec<bool>) {
    let raw_fit = ws.raw_fit().expect("raw fit");
    let (xs, ys, fit_ws) = ws.fit_columns();
    let robust =
        robust_line_fit_with(fit_ws, xs, ys, &ExtractConfig::paper().robust).expect("robust fit");
    (raw_fit, robust, fit_ws.inlier_mask().to_vec())
}

/// Batch oracle over the retained reads in arrival order: the production
/// front end plus the production fits.
fn batch_oracle(reads: &[RawRead]) -> (Vec<ChannelObservation>, LineFit, RobustSummary, Vec<bool>) {
    let mut ws = FrontEndWorkspace::default();
    let mut channels = Vec::new();
    preprocess_reads_with(&mut ws, reads, &ExtractConfig::paper().preprocess, &mut channels)
        .expect("oracle preprocess");
    let (raw_fit, robust, mask) = fits(&mut ws);
    (channels, raw_fit, robust, mask)
}

/// Asserts that a window's extract — `streamed`, and the fit columns it
/// left in `ws` — equals the oracle bit for bit.
fn assert_bitwise(
    streamed: &[ChannelObservation],
    ws: &mut FrontEndWorkspace,
    oracle: &(Vec<ChannelObservation>, LineFit, RobustSummary, Vec<bool>),
    ctx: &str,
) {
    let (o_channels, o_raw, o_robust, o_mask) = oracle;
    assert_eq!(streamed.len(), o_channels.len(), "{ctx}: channel count");
    for (s, o) in streamed.iter().zip(o_channels) {
        assert_eq!(s.channel, o.channel, "{ctx}: channel order");
        assert_eq!(
            s.frequency_hz.to_bits(),
            o.frequency_hz.to_bits(),
            "{ctx}: frequency ch {}",
            s.channel
        );
        assert_eq!(s.phase.to_bits(), o.phase.to_bits(), "{ctx}: phase ch {}", s.channel);
        assert_eq!(s.read_count, o.read_count, "{ctx}: read count ch {}", s.channel);
        assert_eq!(s.rssi_dbm.to_bits(), o.rssi_dbm.to_bits(), "{ctx}: rssi ch {}", s.channel);
    }
    let (raw_fit, robust, mask) = fits(ws);
    assert_eq!(raw_fit.slope.to_bits(), o_raw.slope.to_bits(), "{ctx}: raw slope");
    assert_eq!(raw_fit.intercept.to_bits(), o_raw.intercept.to_bits(), "{ctx}: raw intercept");
    assert_eq!(robust.fit.slope.to_bits(), o_robust.fit.slope.to_bits(), "{ctx}: slope");
    assert_eq!(
        robust.fit.intercept.to_bits(),
        o_robust.fit.intercept.to_bits(),
        "{ctx}: intercept"
    );
    assert_eq!(&mask, o_mask, "{ctx}: mask");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random arrival/expiry schedules: slide a window over `rounds`
    /// synthetic hop rounds keeping a random depth of history, comparing
    /// every advance against a batch recompute of the retained reads.
    #[test]
    fn sliding_schedules_track_batch(
        seed in 0u64..u64::MAX,
        rounds in 3usize..6,
        chans in 8usize..13,
        per_chan in 2usize..5,
        depth in 1usize..3,
        slope_m in -40.0f64..40.0,
        noise in 0.0f64..0.08,
        bad_kind in 0usize..3,
        quantize in proptest::bool::ANY,
    ) {
        let slope = slope_m * 1e-8; // rad/Hz over the ~5 MHz band
        let mut rng = Rng(seed);
        let mut window = StreamingWindow::new();
        let mut retained: Vec<RawRead> = Vec::new();
        let (mut ws, mut channels) = (FrontEndWorkspace::default(), Vec::new());

        for r in 0..rounds {
            let mut reads = round_reads(&mut rng, r, chans, per_chan, slope, noise);
            if quantize {
                reads = quantized(reads);
            }
            // One unusable read per round: window and batch must both skip
            // it (it counts as no update either).
            let at = (rng.next() % reads.len() as u64) as usize;
            let good = reads[at];
            reads.insert(at, match bad_kind {
                0 => RawRead { phase: f64::NAN, ..good },
                1 => RawRead { phase: f64::NEG_INFINITY, ..good },
                _ => RawRead { frequency_hz: f64::INFINITY, ..good },
            });
            for read in &reads {
                window.push(read);
            }
            retained.extend_from_slice(&reads);
            // Keep the last `depth` rounds (round r cutoff expires
            // everything older than r - depth + 1).
            let cutoff = (r as f64) - (depth as f64) + 1.0;
            window.expire_before(cutoff);
            retained.retain(|rd| rd.timestamp_s >= cutoff);

            window.extract_into(&mut ws, &mut channels).expect("stream extract");
            assert_bitwise(&channels, &mut ws, &batch_oracle(&retained), &format!("round {r}"));
        }

        let stats = window.stats();
        prop_assert_eq!(stats.updates as usize, rounds * chans * per_chan);
        prop_assert_eq!(stats.downdates > 0, rounds > depth);
    }

    /// A window that only ever grows — every extract bitwise, zero
    /// expiries.
    #[test]
    fn append_only_is_always_bitwise(
        seed in 0u64..u64::MAX,
        rounds in 1usize..4,
        chans in 8usize..13,
        noise in 0.0f64..0.08,
        quantize in proptest::bool::ANY,
    ) {
        let mut rng = Rng(seed);
        let mut window = StreamingWindow::new();
        let mut all: Vec<RawRead> = Vec::new();
        let (mut ws, mut channels) = (FrontEndWorkspace::default(), Vec::new());
        for r in 0..rounds {
            let mut reads = round_reads(&mut rng, r, chans, 3, 2.0e-7, noise);
            if quantize {
                reads = quantized(reads);
            }
            for read in &reads {
                window.push(read);
            }
            all.extend_from_slice(&reads);
            window.extract_into(&mut ws, &mut channels).expect("stream extract");
            assert_bitwise(&channels, &mut ws, &batch_oracle(&all),
                &format!("append-only round {r}"));
        }
        prop_assert_eq!(window.stats().downdates, 0);
        prop_assert_eq!(window.stats().refit_fallbacks, 0);
    }

    /// A channel whose reads change frequency: the batch front end takes
    /// a channel's frequency from its first retained read, so while the
    /// reads with the first frequency are retained the channel emits that
    /// frequency, and once they expire it emits the frequency of the reads
    /// it keeps — with the channel order and fit abscissae that follow,
    /// bit for bit.
    #[test]
    fn retuned_channel_follows_its_oldest_retained_read(
        seed in 0u64..u64::MAX,
        chans in 8usize..13,
        retuned in 0usize..8,
        shift_hz in -3.0e6f64..3.0e6,
        quantize in proptest::bool::ANY,
    ) {
        let mut rng = Rng(seed);
        let mut window = StreamingWindow::new();
        let mut retained: Vec<RawRead> = Vec::new();
        let (mut ws, mut channels) = (FrontEndWorkspace::default(), Vec::new());
        let nominal = 902.0e6 + retuned as f64 * 0.5e6;
        for r in 0..4 {
            let mut reads = round_reads(&mut rng, r, chans, 3, 2.0e-7, 0.02);
            if quantize {
                reads = quantized(reads);
            }
            // Round 0 hears the retuned channel at another frequency.
            for read in reads.iter_mut().filter(|rd| r == 0 && rd.channel == retuned) {
                read.frequency_hz = nominal + shift_hz;
            }
            for read in &reads {
                window.push(read);
            }
            retained.extend_from_slice(&reads);
            // Two rounds retained: round 0 expires at round 2.
            let cutoff = r as f64 - 1.0;
            window.expire_before(cutoff);
            retained.retain(|rd| rd.timestamp_s >= cutoff);

            window.extract_into(&mut ws, &mut channels).expect("stream extract");
            assert_bitwise(&channels, &mut ws, &batch_oracle(&retained), &format!("round {r}"));
            let emitted = channels.iter().find(|c| c.channel == retuned).expect("retuned channel");
            let first = if r < 2 { nominal + shift_hz } else { nominal };
            prop_assert_eq!(emitted.frequency_hz.to_bits(), first.to_bits());
        }
    }
}
