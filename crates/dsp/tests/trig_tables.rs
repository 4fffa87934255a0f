//! Property suite for the phase-code trig tables ([`rfp_dsp::trig`]) in
//! the front end: `preprocess_reads_with` on quantized (code-carrying)
//! and mixed windows is **bit-identical** to the frozen
//! [`rfp_oracle::frontend`] oracle, which knows nothing about codes and
//! calls libm on every read.
//!
//! The exhaustive all-4096-codes bit-identity proofs live next to the
//! tables in `rfp_dsp::trig`'s unit tests; these properties cover the
//! integration of the tables into the front end.

use proptest::prelude::*;
use rfp_dsp::preprocess::{preprocess_reads_with, PreprocessConfig, RawRead};
use rfp_dsp::trig::{self, PHASE_LSB_RAD};
use rfp_dsp::FrontEndWorkspace;
use rfp_geom::angle;
use rfp_oracle::frontend as reference;

/// Windows over a handful of channels with phases following a noisy
/// steep line plus π jumps — the shape the π-vote actually has to
/// resolve. Returns continuous (codeless) reads.
fn arb_window() -> impl Strategy<Value = Vec<RawRead>> {
    (
        2usize..12,
        1usize..6,
        0.0f64..std::f64::consts::TAU,
        -0.9f64..0.9,
        proptest::collection::vec(0.0f64..1.0, 72),
    )
        .prop_map(|(channels, reads_per, base, slope, noise)| {
            let mut reads = Vec::new();
            let mut k = 0usize;
            for c in 0..channels {
                for _ in 0..reads_per {
                    let n = noise[k % noise.len()];
                    k += 1;
                    let jump = if n > 0.5 { std::f64::consts::PI } else { 0.0 };
                    let phase = angle::wrap_tau(
                        base + slope * c as f64 + (n - 0.5) * 0.02 + jump,
                    );
                    reads.push(RawRead {
                        channel: c,
                        frequency_hz: 902.75e6 + c as f64 * 0.5e6,
                        phase,
                        rssi_dbm: -55.0,
                        timestamp_s: k as f64 * 0.01,
                        phase_code: None,
                    });
                }
            }
            reads
        })
}

/// Snaps a window onto the 12-bit reader grid, attaching codes.
fn quantized(reads: &[RawRead]) -> Vec<RawRead> {
    reads
        .iter()
        .map(|r| {
            let phase = angle::wrap_tau((r.phase / PHASE_LSB_RAD).round() * PHASE_LSB_RAD);
            RawRead { phase, phase_code: trig::code_for_phase(phase), ..*r }
        })
        .collect()
}

fn run(reads: &[RawRead]) -> Vec<rfp_dsp::ChannelObservation> {
    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    preprocess_reads_with(&mut ws, reads, &PreprocessConfig::default(), &mut out)
        .expect("windows generated non-empty");
    out
}

proptest! {
    /// Quantized windows through the table path are bit-identical to the
    /// frozen reference oracle (which knows nothing about codes and calls
    /// libm on every read).
    #[test]
    fn quantized_windows_are_bit_identical_to_reference(reads in arb_window()) {
        let reads = quantized(&reads);
        let expected = reference::preprocess_reads(&reads, &PreprocessConfig::default())
            .expect("non-empty");
        let actual = run(&reads);
        prop_assert_eq!(actual, expected);
    }

    /// Table lookups only replace arithmetic, never the channel
    /// structure: mixed (part-coded) windows equal the reference bitwise.
    #[test]
    fn mixed_windows_equal_the_reference_bitwise(
        reads in arb_window(),
        mask in proptest::collection::vec(proptest::bool::ANY, 72),
    ) {
        // Quantize an arbitrary subset of the reads.
        let q = quantized(&reads);
        let mixed: Vec<RawRead> = reads
            .iter()
            .zip(&q)
            .enumerate()
            .map(|(i, (r, qr))| if mask[i % mask.len()] { *qr } else { *r })
            .collect();
        let expected = reference::preprocess_reads(&mixed, &PreprocessConfig::default())
            .expect("non-empty");
        prop_assert_eq!(run(&mixed), expected);
    }
}
