//! Property-based equivalence contract of the incremental sliding-window
//! front end (`StreamingWindow`) against the batch pipeline it shadows:
//!
//! * an **append-only** window (no expiry yet) extracts **bit-identically**
//!   to `preprocess_reads_with` + `robust_line_fit_with` on the same reads;
//! * after arbitrary update/downdate schedules, per-channel phases agree
//!   with a batch recompute over the retained reads to ≤ 1e-9 and the
//!   robust inlier mask is **identical**;
//! * whenever the window takes its full-recompute fallback, the extract is
//!   again **bit-identical** to batch.
//!
//! Schedules (round sizes, expiry depths, noise, π jumps) are randomized
//! by proptest, and so is whether the reads arrive snapped to the reader's
//! 12-bit phase grid with their codes attached (the push-time table
//! lookups every R420 stream takes) or codeless (libm); the oracle is the
//! production batch front end itself.

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

/// Batch oracle over the retained reads in arrival order: the production
/// front end plus the production robust fit.
fn batch_oracle(
    reads: &[RawRead],
    config: &ExtractConfig,
) -> (Vec<ChannelObservation>, LineFit, RobustSummary, Vec<bool>) {
    let mut ws = FrontEndWorkspace::default();
    let mut channels = Vec::new();
    preprocess_reads_with(&mut ws, reads, &config.preprocess, &mut channels)
        .expect("oracle preprocess");
    let raw_fit = ws.raw_fit().expect("oracle raw fit");
    let (xs, ys, fit_ws) = ws.fit_columns();
    let robust = robust_line_fit_with(fit_ws, xs, ys, &config.robust).expect("oracle robust fit");
    let mask = ws.fit.inlier_mask().to_vec();
    (channels, raw_fit, robust, mask)
}

fn assert_bitwise(
    streamed: &[ChannelObservation],
    extract: &rfp_dsp::StreamExtract,
    mask: &[bool],
    oracle: &(Vec<ChannelObservation>, LineFit, RobustSummary, Vec<bool>),
    ctx: &str,
) {
    let (o_channels, o_raw, o_robust, o_mask) = oracle;
    assert_eq!(streamed.len(), o_channels.len(), "{ctx}: channel count");
    for (s, o) in streamed.iter().zip(o_channels) {
        assert_eq!(s.phase.to_bits(), o.phase.to_bits(), "{ctx}: phase ch {}", s.channel);
        assert_eq!(
            s.phase_spread.to_bits(),
            o.phase_spread.to_bits(),
            "{ctx}: spread ch {}",
            s.channel
        );
        assert_eq!(s.read_count, o.read_count, "{ctx}: read count ch {}", s.channel);
        assert_eq!(s.rssi_dbm.to_bits(), o.rssi_dbm.to_bits(), "{ctx}: rssi ch {}", s.channel);
    }
    assert_eq!(extract.raw_fit.slope.to_bits(), o_raw.slope.to_bits(), "{ctx}: raw slope");
    let robust = extract.robust.as_ref().expect("robust on");
    assert_eq!(robust.fit.slope.to_bits(), o_robust.fit.slope.to_bits(), "{ctx}: slope");
    assert_eq!(
        robust.fit.intercept.to_bits(),
        o_robust.fit.intercept.to_bits(),
        "{ctx}: intercept"
    );
    assert_eq!(mask, o_mask.as_slice(), "{ctx}: mask");
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
        let config = ExtractConfig::paper();
        let mut window = StreamingWindow::new(config);
        let mut retained: Vec<RawRead> = Vec::new();
        let mut channels = Vec::new();
        let mut expired_any = false;

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
            let dropped = window.expire_before(cutoff);
            retained.retain(|rd| rd.timestamp_s >= cutoff);
            expired_any |= dropped > 0;

            let extract = window.extract_into(&mut channels).expect("stream extract");
            let oracle = batch_oracle(&retained, &config);

            if !expired_any || extract.fallback {
                // Append-only prefix and fallback advances are bitwise.
                assert_bitwise(&channels, &extract, window.inlier_mask(), &oracle,
                    &format!("round {r} (fallback={})", extract.fallback));
            } else {
                let (o_channels, _, o_robust, o_mask) = &oracle;
                prop_assert_eq!(channels.len(), o_channels.len());
                for (s, o) in channels.iter().zip(o_channels) {
                    prop_assert!(
                        (s.phase - o.phase).abs() < 1e-9,
                        "round {} ch {}: phase {} vs {}", r, s.channel, s.phase, o.phase
                    );
                    prop_assert_eq!(s.read_count, o.read_count);
                }
                let robust = extract.robust.as_ref().expect("robust on");
                prop_assert!((robust.fit.slope - o_robust.fit.slope).abs()
                    < 1e-9 * (1.0 + o_robust.fit.slope.abs()));
                prop_assert_eq!(window.inlier_mask(), o_mask.as_slice());
            }
        }

        let stats = window.stats();
        prop_assert_eq!(stats.updates as usize, rounds * chans * per_chan);
        prop_assert_eq!(stats.downdates > 0, rounds > depth);
    }

    /// A window that only ever grows is always on the exact batch path —
    /// every extract bitwise, zero downdates, zero fallbacks.
    #[test]
    fn append_only_is_always_bitwise(
        seed in 0u64..u64::MAX,
        rounds in 1usize..4,
        chans in 8usize..13,
        noise in 0.0f64..0.08,
        quantize in proptest::bool::ANY,
    ) {
        let mut rng = Rng(seed);
        let config = ExtractConfig::paper();
        let mut window = StreamingWindow::new(config);
        let mut all: Vec<RawRead> = Vec::new();
        let mut channels = Vec::new();
        for r in 0..rounds {
            let mut reads = round_reads(&mut rng, r, chans, 3, 2.0e-7, noise);
            if quantize {
                reads = quantized(reads);
            }
            for read in &reads {
                window.push(read);
            }
            all.extend_from_slice(&reads);
            let extract = window.extract_into(&mut channels).expect("stream extract");
            prop_assert!(!extract.fallback);
            let oracle = batch_oracle(&all, &config);
            assert_bitwise(&channels, &extract, window.inlier_mask(), &oracle,
                &format!("append-only round {r}"));
        }
        prop_assert_eq!(window.stats().downdates, 0);
        prop_assert_eq!(window.stats().refit_fallbacks, 0);
    }
}
