//! Property suite pinning the workspace front-end kernels to the frozen
//! pre-rework implementations in [`rfp_oracle::frontend`].
//!
//! The public allocating APIs (`preprocess_reads`, `theil_sen`,
//! `robust_line_fit`, …) delegate to the workspace kernels, so comparing
//! them against the reference module exercises the optimized paths while
//! using a genuinely independent oracle. Everything except the robust fit
//! is required to be **bit-identical** (same summation order, same
//! order-statistic selection); the robust fit's incremental
//! downdated-sums refit is algebraically equal but re-associates the
//! sums, so it gets a tight tolerance with an exactly-equal inlier mask.

use proptest::prelude::*;
use rfp_dsp::linfit::{ols, theil_sen, theil_sen_with, weighted_ols, FitError, LineFit};
use rfp_dsp::preprocess::{preprocess_reads, PreprocessConfig, RawRead};
use rfp_dsp::robust::{robust_line_fit, robust_line_fit_with, RobustFitConfig};
use rfp_dsp::trig;
use rfp_dsp::{FitWorkspace, FrontEndWorkspace};
use rfp_oracle::frontend as reference;
use std::f64::consts::PI;

/// Read sets covering the degenerate shapes the front end must survive:
/// single-read channels, repeated identical phases (zero spread), and
/// channel indices far above the dense-slot range. The frequency plan
/// rises with the channel id, falls with it, or is scrambled (with ties
/// between channels), so both the channel-id walk and its sorting
/// fallback order the channels.
fn arb_reads() -> impl Strategy<Value = Vec<RawRead>> {
    (
        proptest::collection::vec(
            (0usize..30, 0.0f64..std::f64::consts::TAU, -80.0f64..-30.0, 0u8..2),
            0..120,
        ),
        0u8..3,
    )
        .prop_map(|(tuples, plan)| {
            tuples
                .into_iter()
                .enumerate()
                .map(|(i, (mut ch, phase, rssi, sparse))| {
                    if sparse == 1 {
                        // A few channels land way outside the dense range.
                        ch += 900;
                    }
                    RawRead {
                        channel: ch,
                        frequency_hz: plan_frequency(plan, ch),
                        phase,
                        rssi_dbm: rssi,
                        timestamp_s: i as f64 * 0.01,
                        phase_code: None,
                    }
                })
                .collect()
        })
}

/// Frequency of channel `ch` under plan 0 (rising with the id), 1
/// (falling) or 2 (scrambled, several ids per frequency).
fn plan_frequency(plan: u8, ch: usize) -> f64 {
    match plan {
        0 => 902.75e6 + ch as f64 * 0.5e6,
        1 => 927.25e6 - ch as f64 * 0.5e6,
        _ => 902.75e6 + ((ch * 7919) % 23) as f64 * 0.5e6,
    }
}

/// Snaps every read of `reads` onto the reader's 12-bit grid, attaching
/// the phase codes — the shape real quantized reader data arrives in.
fn quantized(reads: &[RawRead]) -> Vec<RawRead> {
    reads
        .iter()
        .map(|r| {
            let lsb = trig::PHASE_LSB_RAD;
            let phase =
                rfp_geom::angle::wrap_tau((r.phase / lsb).round() * lsb);
            RawRead { phase, phase_code: trig::code_for_phase(phase), ..*r }
        })
        .collect()
}

/// Shifts every phase of `reads` by `delta`, keeping each read's phase
/// code — the struct-update idiom that leaves quantized codes stale.
fn shifted(reads: &[RawRead], delta: f64) -> Vec<RawRead> {
    reads
        .iter()
        .map(|r| RawRead { phase: rfp_geom::angle::wrap_tau(r.phase + delta), ..*r })
        .collect()
}

/// Arbitrary fit data with occasional duplicate x values (zero-dx slope
/// pairs) and occasional exactly-repeated y values.
fn arb_fit_data() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    proptest::collection::vec((0i32..40, -50.0f64..50.0), 2..60).prop_map(|pts| {
        let xs: Vec<f64> = pts.iter().map(|&(xi, _)| xi as f64 * 0.37).collect();
        let ys: Vec<f64> = pts.iter().map(|&(_, y)| y).collect();
        (xs, ys)
    })
}

proptest! {
    #[test]
    fn preprocess_matches_reference_exactly(
        reads in arb_reads(),
        quantize in proptest::bool::ANY,
        stale in proptest::bool::ANY,
    ) {
        // Bit-identical to the reference on codeless reads (libm),
        // quantized, code-carrying reads (exact table lookups) and reads
        // whose phase was shifted after quantizing while the code was
        // kept (a stale code must fall back to libm, never be trusted).
        let reads = if quantize { quantized(&reads) } else { reads };
        let reads = if stale { shifted(&reads, 0.3) } else { reads };
        let config = PreprocessConfig::default();
        let expected = reference::preprocess_reads(&reads, &config);
        let actual = preprocess_reads(&reads, &config);
        // Bit-identical including the error case: `==` on f64 fields.
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn workspace_carries_no_state_between_calls(
        first in arb_reads(),
        second in arb_reads(),
    ) {
        let config = PreprocessConfig::default();
        let mut reused = FrontEndWorkspace::default();
        let mut out = Vec::new();
        let _ = rfp_dsp::preprocess_reads_with(&mut reused, &first, &config, &mut out);
        let reused_result =
            rfp_dsp::preprocess_reads_with(&mut reused, &second, &config, &mut out)
                .map(|()| out.clone());

        let mut fresh = FrontEndWorkspace::default();
        let mut fresh_out = Vec::new();
        let fresh_result =
            rfp_dsp::preprocess_reads_with(&mut fresh, &second, &config, &mut fresh_out)
                .map(|()| fresh_out.clone());
        prop_assert_eq!(reused_result, fresh_result);
    }

    #[test]
    fn ols_matches_reference_exactly(data in arb_fit_data()) {
        let (xs, ys) = data;
        prop_assert_eq!(ols(&xs, &ys), reference::ols(&xs, &ys));
    }

    #[test]
    fn weighted_ols_matches_reference_exactly(
        data in arb_fit_data(),
        wseed in 0u64..1000,
    ) {
        let (xs, ys) = data;
        let weights: Vec<f64> = (0..xs.len())
            .map(|i| ((i as u64 * 2654435761 + wseed) % 7) as f64)
            .collect();
        prop_assert_eq!(
            weighted_ols(&xs, &ys, &weights),
            reference::weighted_ols(&xs, &ys, &weights)
        );
    }

    #[test]
    fn theil_sen_matches_reference_exactly(data in arb_fit_data()) {
        let (xs, ys) = data;
        prop_assert_eq!(theil_sen(&xs, &ys), reference::theil_sen(&xs, &ys));
    }

    #[test]
    fn degenerate_channels_match_reference(quantize in proptest::bool::ANY) {
        // The fixed degenerate shapes below (single-read channels,
        // identical phases, vanishing double-angle resultant); proptest
        // just sweeps quantized and codeless reads.
        for reads in degenerate_windows() {
            let reads = if quantize { quantized(&reads) } else { reads };
            check_against_reference(&reads);
        }
    }

    #[test]
    fn robust_matches_reference_with_identical_inliers(data in arb_fit_data()) {
        let (xs, ys) = data;
        let config = RobustFitConfig::default();
        let expected = reference::robust_line_fit(&xs, &ys, &config);
        let actual = robust_line_fit(&xs, &ys, &config);
        match (actual, expected) {
            (Ok(a), Ok(e)) => {
                // The incremental downdated refit re-associates the OLS
                // sums, so the fit is equal only to rounding.
                prop_assert!((a.fit.slope - e.fit.slope).abs()
                    <= 1e-9 * (1.0 + e.fit.slope.abs()));
                prop_assert!((a.fit.intercept - e.fit.intercept).abs()
                    <= 1e-9 * (1.0 + e.fit.intercept.abs()));
                prop_assert_eq!(a.inliers, e.inliers);
                prop_assert_eq!(a.iterations, e.iterations);
            }
            (a, e) => prop_assert_eq!(a.is_err(), e.is_err()),
        }
    }
}

/// One raw read with the given channel and phase (codeless; `quantized`
/// snaps it onto the grid where needed).
fn plain_read(channel: usize, phase: f64) -> RawRead {
    RawRead {
        channel,
        frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
        phase: rfp_geom::angle::wrap_tau(phase),
        rssi_dbm: -55.0,
        timestamp_s: channel as f64 * 0.2,
        phase_code: None,
    }
}

/// The degenerate channel shapes the reference oracle pins: single-read
/// channels, alone or between fuller ones, a channel whose reads all
/// share one identical phase (zero spread, unit resultant), and a channel
/// whose double-angle resultant vanishes (phases π/2 apart — the
/// `first_phase` fallback axis).
fn degenerate_windows() -> Vec<Vec<RawRead>> {
    vec![
        // Single-read channels only.
        vec![plain_read(0, 0.4), plain_read(1, 0.6), plain_read(2, 0.8)],
        // A thin channel (1 read) between fuller ones.
        vec![
            plain_read(0, 0.4),
            plain_read(0, 0.45),
            plain_read(1, 1.9),
            plain_read(2, 0.5),
            plain_read(2, 0.55),
        ],
        // All reads of every channel carry the identical phase.
        vec![
            plain_read(0, 1.234),
            plain_read(0, 1.234),
            plain_read(0, 1.234),
            plain_read(1, 1.3),
            plain_read(1, 1.3),
        ],
        // Vanishing double-angle resultant: two reads π/2 apart double to
        // antipodal phasors, forcing the first-phase fallback axis.
        vec![
            plain_read(0, 0.7),
            plain_read(0, 0.7 + std::f64::consts::FRAC_PI_2),
            plain_read(1, 0.9),
        ],
    ]
}

/// Pins the front end bitwise to the reference on one window.
fn check_against_reference(reads: &[RawRead]) {
    let config = PreprocessConfig::default();
    assert_eq!(preprocess_reads(reads, &config), reference::preprocess_reads(reads, &config));
}

#[test]
fn streaming_fits_are_bit_identical_to_reference() {
    let xs: Vec<f64> = (0..37).map(|i| 9.02e8 + 5e5 * i as f64).collect();
    let ys: Vec<f64> =
        xs.iter().enumerate().map(|(i, x)| 1.3e-8 * x + ((i * 31 % 7) as f64) * 0.01).collect();
    assert_eq!(ols(&xs, &ys).unwrap(), reference::ols(&xs, &ys).unwrap());
    assert_eq!(theil_sen(&xs, &ys).unwrap(), reference::theil_sen(&xs, &ys).unwrap());
    let w: Vec<f64> = (0..xs.len()).map(|i| 1.0 + (i % 3) as f64).collect();
    assert_eq!(
        weighted_ols(&xs, &ys, &w).unwrap(),
        reference::weighted_ols(&xs, &ys, &w).unwrap()
    );
    // Workspace kernel == allocating API, buffers reused across calls.
    let mut ws = FitWorkspace::default();
    for rep in 0..3 {
        let shift = rep as f64 * 0.25;
        let ys2: Vec<f64> = ys.iter().map(|y| y + shift).collect();
        assert_eq!(theil_sen_with(&mut ws, &xs, &ys2).unwrap(), theil_sen(&xs, &ys2).unwrap());
    }
}

/// Reads of three channels interleaved so consecutive reads keep
/// revisiting the same slot, with an odd read count: bit-identical to the
/// frozen reference.
#[test]
fn interleaved_channels_are_bit_identical_to_reference() {
    let mut reads = Vec::new();
    for k in 0..7usize {
        for c in 0..3usize {
            reads.push(plain_read(c, 0.4 + 1.3 * c as f64 + 0.01 * k as f64
                + if (k + c) % 2 == 0 { PI } else { 0.0 }));
        }
    }
    let cfg = PreprocessConfig::default();
    let fused = preprocess_reads(&reads, &cfg).unwrap();
    let reference = reference::preprocess_reads(&reads, &cfg).unwrap();
    assert_eq!(fused.len(), reference.len());
    for (f, r) in fused.iter().zip(&reference) {
        assert_eq!(f.channel, r.channel);
        assert_eq!(f.phase.to_bits(), r.phase.to_bits());
        assert_eq!(f.rssi_dbm.to_bits(), r.rssi_dbm.to_bits());
    }
}

#[test]
fn downdated_refit_tracks_reference_implementation() {
    let xs: Vec<f64> = (0..50).map(|i| 9.02e8 + 5e5 * i as f64).collect();
    let mut ys: Vec<f64> = xs.iter().map(|x| 1.2e-8 * x + 0.4).collect();
    for &i in &[4usize, 18, 33, 41] {
        ys[i] += if i % 2 == 0 { 1.7 } else { -2.3 };
    }
    let new = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
    let old = reference::robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
    assert_eq!(new.inliers, old.inliers);
    assert!((new.fit.slope - old.fit.slope).abs() <= 1e-9 * old.fit.slope.abs().max(1e-12));
    assert!((new.fit.intercept - old.fit.intercept).abs() <= 1e-6);
}

/// The channel order takes the id walk when frequency rises with the id
/// (dense or sparse ids) and the sort otherwise (falling or scrambled
/// plans, ids too sparse to walk): every shape matches the reference.
#[test]
fn channel_orders_match_reference() {
    let window = |ids: &[usize], plan: u8| -> Vec<RawRead> {
        let mut reads = Vec::new();
        for k in 0..3 {
            for (i, &ch) in ids.iter().enumerate() {
                let phase = 0.3 + 0.9 * i as f64 + 0.01 * k as f64
                    + if (i + k) % 3 == 0 { PI } else { 0.0 };
                let frequency_hz = plan_frequency(plan, ch);
                reads.push(RawRead { frequency_hz, ..plain_read(ch, phase) });
            }
        }
        reads
    };
    let dense: Vec<usize> = (0..20).collect();
    let every_other: Vec<usize> = (0..20).map(|i| 2 * i).collect();
    let far_apart: Vec<usize> = (0..10).chain(5000..5010).collect();
    for ids in [&dense, &every_other, &far_apart] {
        for plan in 0..3 {
            check_against_reference(&window(ids, plan));
        }
    }
}

/// An unusable read (NaN phase, infinite frequency, out-of-range channel)
/// placed first, mid-window or last stops pass 1, which restarts on the
/// usable reads: the result is the reference's on the window without it.
#[test]
fn unusable_read_anywhere_restarts_on_the_usable_reads() {
    let usable: Vec<RawRead> = (0..12)
        .flat_map(|c| (0..3).map(move |k| plain_read(c, 0.4 + 1.2 * c as f64 + 0.02 * k as f64)))
        .collect();
    let bad = [
        RawRead { phase: f64::NAN, ..plain_read(3, 0.0) },
        RawRead { frequency_hz: f64::INFINITY, ..plain_read(4, 0.0) },
        RawRead { channel: 1 << 20, ..plain_read(5, 0.0) },
    ];
    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    for b in bad {
        for at in [0, usable.len() / 2, usable.len()] {
            let mut reads = usable.clone();
            reads.insert(at, b);
            let config = PreprocessConfig::default();
            let expected = reference::preprocess_reads(&usable, &config);
            assert_eq!(preprocess_reads(&reads, &config), expected, "bad read at {at}");
            // The workspace path with reused buffers agrees too.
            rfp_dsp::preprocess_reads_with(&mut ws, &reads, &config, &mut out).unwrap();
            assert_eq!(Ok(out.clone()), expected, "bad read at {at}");
        }
    }
}

/// Noisy 50-channel line in the shape of a standard window: a band around
/// the OLS slope holds the median pairwise slope.
fn banded_window() -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..50).map(|i| 902.75e6 + 5e5 * i as f64).collect();
    let ys = xs
        .iter()
        .enumerate()
        .map(|(i, x)| 1.3e-7 * (x - 902.75e6) + 0.4 + 0.02 * (((i * 7919) % 13) as f64 / 6.0 - 1.0))
        .collect();
    (xs, ys)
}

/// The same line with 14 channels shifted far off it on one side: the
/// OLS slope is pulled so far from the median pairwise slope that a band
/// around it misses the median.
fn band_miss_window() -> (Vec<f64>, Vec<f64>) {
    let (xs, mut ys) = banded_window();
    for y in ys.iter_mut().skip(36) {
        *y += 6.0;
    }
    (xs, ys)
}

/// Theil–Sen on a window a band around the OLS slope holds (hit) and on
/// one it misses both equal the reference bitwise; the robust fits seeded
/// from them keep the reference's inlier masks.
#[test]
fn theil_sen_band_hit_and_miss_match_reference() {
    let mut ws = FitWorkspace::default();
    for (xs, ys) in [banded_window(), band_miss_window()] {
        let expected = reference::theil_sen(&xs, &ys).unwrap();
        assert_eq!(theil_sen_with(&mut ws, &xs, &ys).unwrap(), expected);
        let robust = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        let oracle = reference::robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        assert_eq!(robust.inliers, oracle.inliers);
    }
}

/// The bits of every field of a fit.
fn fit_bits(fit: &LineFit) -> [u64; 5] {
    [
        fit.slope.to_bits(),
        fit.intercept.to_bits(),
        fit.r_squared.to_bits(),
        fit.residual_std.to_bits(),
        fit.n as u64,
    ]
}

/// Asserts that the workspace Theil–Sen equals the reference on `(xs, ys)`
/// bit for bit, or fails as it does.
fn assert_theil_sen_bitwise(ws: &mut FitWorkspace, xs: &[f64], ys: &[f64], ctx: &str) {
    match (theil_sen_with(ws, xs, ys), reference::theil_sen(xs, ys)) {
        (Ok(a), Ok(e)) => assert_eq!(fit_bits(&a), fit_bits(&e), "{ctx}"),
        (a, e) => assert_eq!(a, e, "{ctx}"),
    }
}

/// A noisy line of `n` channels on the reader's frequency plan.
fn noisy_line(n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n).map(|i| 902.75e6 + 5e5 * i as f64).collect();
    let ys = xs
        .iter()
        .enumerate()
        .map(|(i, x)| 1.3e-7 * (x - 902.75e6) + 0.4 + 0.02 * (((i * 7919) % 13) as f64 / 6.0 - 1.0))
        .collect();
    (xs, ys)
}

/// The median kernel against the reference, bit for bit, on the windows
/// that stress its paths: n = 2..=64 channels; blocks of 1–24 channels
/// 6 rad above or below the line at its low end, high end or middle (the
/// multipath shape that pulls a least-squares pilot); duplicate
/// abscissae; the same windows in scrambled order; and exact ties, whose
/// pairs over ascending abscissae give +0.0 slopes.
#[test]
fn theil_sen_kernel_matches_reference_on_hard_windows() {
    let mut ws = FitWorkspace::default();
    for n in 2..=64usize {
        let (xs, ys) = noisy_line(n);
        let mut windows = vec![(format!("n = {n}, clean"), xs.clone(), ys.clone())];
        for block in 1..=24.min(n) {
            for shift in [6.0, -6.0] {
                for start in [0, n - block, (n - block) / 2] {
                    let mut ys = ys.clone();
                    for y in &mut ys[start..start + block] {
                        *y += shift;
                    }
                    let ctx = format!("n = {n}, {block} channels from {start} by {shift}");
                    windows.push((ctx, xs.clone(), ys));
                }
            }
        }
        // Pairs of channels on one frequency: a zero dx is no slope.
        let twins: Vec<f64> = xs.iter().enumerate().map(|(i, _)| xs[i / 2 * 2]).collect();
        windows.push((format!("n = {n}, duplicate abscissae"), twins, ys.clone()));
        // Exact ties: the phases on a 0.05 rad grid, flat runs in places.
        let tied: Vec<f64> = ys.iter().map(|y| (y / 0.05).round() * 0.05).collect();
        windows.push((format!("n = {n}, tied ordinates"), xs.clone(), tied.clone()));
        let flat: Vec<f64> =
            ys.iter().enumerate().map(|(i, &y)| if i % 3 == 0 { 0.4 } else { y }).collect();
        windows.push((format!("n = {n}, flat every third"), xs.clone(), flat));
        let mut scrambled = Vec::new();
        for (ctx, wx, wy) in &windows {
            if ctx.contains("tied") || ctx.contains("flat") {
                // Scrambled ties would give -0.0 slopes beside +0.0 ones,
                // whose order a selection does not fix.
                continue;
            }
            let order: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % n).collect();
            if (0..n).all(|i| order.contains(&i)) {
                let sx = order.iter().map(|&i| wx[i]).collect();
                let sy = order.iter().map(|&i| wy[i]).collect();
                scrambled.push((format!("{ctx}, scrambled"), sx, sy));
            }
        }
        windows.extend(scrambled);
        for (ctx, wx, wy) in &windows {
            assert_theil_sen_bitwise(&mut ws, wx, wy, ctx);
        }
    }
}

/// Hostile input: a NaN ordinate or abscissa reaches a median, where the
/// reference panics; every public Theil–Sen and robust fit returns
/// `FitError::NonFinite` instead. An infinite ordinate, which the
/// reference fits, keeps its fit bit for bit.
#[test]
fn nan_input_is_an_error_and_infinite_input_keeps_its_fit() {
    let xs: Vec<f64> = (0..6).map(f64::from).collect();
    let mut nan_x = xs.clone();
    nan_x[3] = f64::NAN;
    let nan_y = vec![0.0, f64::NAN, 2.0, 3.0, 4.0, 5.0];
    let config = RobustFitConfig::default();
    let mut ws = FitWorkspace::default();
    for (label, xs, ys) in [("NaN ordinate", &xs, &nan_y), ("NaN abscissa", &nan_x, &xs)] {
        let reference_fit = std::panic::catch_unwind(|| reference::theil_sen(xs, ys));
        assert!(reference_fit.is_err(), "{label}: the reference panics");
        assert_eq!(theil_sen(xs, ys), Err(FitError::NonFinite), "{label}");
        assert_eq!(theil_sen_with(&mut ws, xs, ys), Err(FitError::NonFinite), "{label}");
        assert_eq!(robust_line_fit(xs, ys, &config), Err(FitError::NonFinite), "{label}");
        let robust = robust_line_fit_with(&mut ws, xs, ys, &config);
        assert_eq!(robust, Err(FitError::NonFinite), "{label}");
    }
    let inf_y = vec![0.0, f64::INFINITY, 2.0, 3.0, 4.0, 5.0];
    assert_theil_sen_bitwise(&mut ws, &xs, &inf_y, "infinite ordinate");
    assert!(theil_sen(&xs, &inf_y).is_ok());
}

/// When the cutoff keeps fewer than `min_inliers` points, the residual
/// ranking tops the mask up to the floor; that path matches the
/// reference's inlier mask exactly.
#[test]
fn robust_floor_ranking_matches_reference() {
    let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.37).collect();
    // Residual scale well above the floor, cutoff tight: most points sit
    // beyond 2.5 MAD-σ only because the threshold is lowered.
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| 0.8 * x + (((i * 7919) % 17) as f64 - 8.0) * 0.3)
        .collect();
    let config = RobustFitConfig { threshold: 0.2, min_inlier_fraction: 0.6, ..Default::default() };
    let actual = robust_line_fit(&xs, &ys, &config).unwrap();
    let expected = reference::robust_line_fit(&xs, &ys, &config).unwrap();
    assert_eq!(actual.inlier_count(), 24, "the floor, not the cutoff, sets the mask");
    assert_eq!(actual.inliers, expected.inliers);
    assert_eq!(actual.iterations, expected.iterations);
    let slope_tol = 1e-9 * (1.0 + expected.fit.slope.abs());
    assert!((actual.fit.slope - expected.fit.slope).abs() <= slope_tol);
}

/// Robust fit of `(xs, ys)` under `config` against the reference: the
/// same inlier mask and iteration count, and the line within the
/// property suite's bound (the incremental refit re-associates the OLS
/// sums).
fn assert_robust_matches_reference(xs: &[f64], ys: &[f64], config: &RobustFitConfig, ctx: &str) {
    let actual = robust_line_fit(xs, ys, config).unwrap();
    let expected = reference::robust_line_fit(xs, ys, config).unwrap();
    assert_eq!(actual.inliers, expected.inliers, "{ctx}");
    assert_eq!(actual.iterations, expected.iterations, "{ctx}");
    let (a, e) = (actual.fit, expected.fit);
    assert!((a.slope - e.slope).abs() <= 1e-9 * (1.0 + e.slope.abs()), "{ctx}: {a:?} vs {e:?}");
    assert!(
        (a.intercept - e.intercept).abs() <= 1e-9 * (1.0 + e.intercept.abs()),
        "{ctx}: {a:?} vs {e:?}"
    );
}

/// A window on the exact line `y = x/2` over x = 0..50 whose Theil–Sen seed
/// is that line bit for bit, so each residual of the first round is
/// exactly the offset it was given. Point 0 sits `edge` above the line (or
/// below, for a negative `edge`), the largest residual; the others sit
/// `±noise` off it in a parity pattern (`noise` 0: on the line). With
/// noise the MAD sets a cutoff above `edge`; without it the floor does.
fn edge_window(edge: f64, noise: f64) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..50).map(f64::from).collect();
    let sign = edge.signum();
    let ys = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| match i {
            0 => edge,
            _ if i % 2 == 0 => 0.5 * x + sign * noise,
            _ => 0.5 * x - sign * noise,
        })
        .collect();
    (xs, ys)
}

/// The robust fit skips the residual MAD when every residual is within
/// `threshold × scale_floor`, the least cutoff the MAD can set. At that
/// edge, one ulp below and one ulp above it (above, the MAD is taken),
/// with the floor or the MAD setting the cutoff, above the line and
/// below it, the mask is the reference's; so it is with `scale_floor` 0,
/// negative or NaN and with both factors negative (their product is the
/// positive edge, yet the MAD is always taken), and with no rounds at all
/// (the Theil–Sen seed itself, all points kept).
#[test]
fn robust_floor_edge_matches_reference() {
    let default = RobustFitConfig::default();
    let bound = default.threshold * default.scale_floor;
    let ulp = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
    let mut rejected = 0;
    for (label, edge) in [("at", bound), ("one ulp below", ulp(bound, -1)), ("one ulp above", ulp(bound, 1))]
    {
        for sign in [1.0, -1.0] {
            for noise in [0.0, 2f64.powi(-6)] {
                let (xs, ys) = edge_window(sign * edge, noise);
                let seed = theil_sen(&xs, &ys).unwrap();
                assert_eq!((seed.slope, seed.intercept), (0.5, 0.0), "exact seed");
                let ctx = format!("{label} {}, noise {noise}", if sign > 0.0 { "above" } else { "below" });
                assert_robust_matches_reference(&xs, &ys, &default, &ctx);
                rejected += !robust_line_fit(&xs, &ys, &default).unwrap().inliers[0] as usize;
                let factors = [
                    (default.threshold, 0.0),
                    (default.threshold, -default.scale_floor),
                    (default.threshold, f64::NAN),
                    (-default.threshold, -default.scale_floor),
                ];
                for (threshold, scale_floor) in factors {
                    let config = RobustFitConfig { threshold, scale_floor, ..default };
                    let ctx = format!("{ctx}, threshold {threshold}, scale_floor {scale_floor}");
                    assert_robust_matches_reference(&xs, &ys, &config, &ctx);
                }
                let config = RobustFitConfig { max_iterations: 0, ..default };
                let actual = robust_line_fit(&xs, &ys, &config).unwrap();
                let expected = reference::robust_line_fit(&xs, &ys, &config).unwrap();
                assert_eq!(actual, expected, "{ctx}, no rounds");
                assert_eq!(fit_bits(&actual.fit), fit_bits(&seed), "{ctx}, no rounds");
            }
        }
    }
    // Point 0 falls out only one ulp beyond a cutoff the floor sets,
    // above the line and below it.
    assert_eq!(rejected, 2);
}

/// A grid read of `code` (taken modulo 4096) on `channel` at `t`.
fn grid_read(channel: usize, code: usize, t: f64) -> RawRead {
    let code = (code % trig::PHASE_CODES) as u16;
    RawRead {
        channel,
        frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
        phase: code as f64 * trig::PHASE_LSB_RAD,
        rssi_dbm: -55.0 - 0.1 * channel as f64,
        timestamp_s: t,
        phase_code: Some(code),
    }
}

/// A window whose channel 0 holds the grid reads x, x, x, x + π/2: the
/// double-angle axis is x, so the last read sits on the channel's fold
/// boundary, inside the sign test's margin. Ordinary channels with π
/// jumps follow.
fn fold_boundary_window(x: usize) -> Vec<RawRead> {
    let mut reads: Vec<RawRead> = [x, x, x, x + trig::PHASE_CODES / 4]
        .iter()
        .enumerate()
        .map(|(k, &c)| grid_read(0, c, 0.01 * k as f64))
        .collect();
    for ch in 1..8 {
        for k in 0..4 {
            let code = x + 40 * ch + k + (k % 2) * trig::PHASE_CODES / 2;
            reads.push(grid_read(ch, code, 0.2 * ch as f64 + 0.01 * k as f64));
        }
    }
    reads
}

/// Asserts `actual` equals the reference observations bit for bit.
fn assert_bitwise(actual: &[rfp_dsp::ChannelObservation], reads: &[RawRead], ctx: &str) {
    let expected = reference::preprocess_reads(reads, &PreprocessConfig::default()).unwrap();
    assert_eq!(actual.len(), expected.len(), "{ctx}");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a.channel, e.channel, "{ctx}");
        assert_eq!(a.phase.to_bits(), e.phase.to_bits(), "{ctx}: channel {}", a.channel);
        assert_eq!(a.rssi_dbm.to_bits(), e.rssi_dbm.to_bits(), "{ctx}: channel {}", a.channel);
        assert_eq!(a.read_count, e.read_count, "{ctx}");
    }
}

/// A read on its channel's fold boundary leaves the sign test for the
/// exact distances, so the window stays bit-identical to the reference
/// for every boundary code, in batch and through a streaming window
/// (whose boundary channel counts its votes exactly, and keeps that
/// count while only another channel changes).
#[test]
fn fold_boundary_reads_are_bit_identical_to_reference() {
    let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
    for x in 0..trig::PHASE_CODES {
        let reads = fold_boundary_window(x);
        let batch = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        assert_bitwise(&batch, &reads, &format!("batch, x = {x}"));

        let mut win = rfp_dsp::StreamingWindow::new();
        for r in &reads {
            win.push(r);
        }
        win.extract_into(&mut ws, &mut out).unwrap();
        assert_bitwise(&out, &reads, &format!("streaming, x = {x}"));
        let mut grown = reads.clone();
        grown.push(grid_read(5, x + 203, 2.0));
        win.push(&grown[grown.len() - 1]);
        win.extract_into(&mut ws, &mut out).unwrap();
        assert_bitwise(&out, &grown, &format!("streaming after a push, x = {x}"));
    }
}

/// A steep 100-channel window whose unwrap climbs 1.4 rad a channel, to
/// about 140 rad: past 64 rad of unwrap the parity of the vote is not
/// certified, and those channels count their votes on the exact path.
/// Bit-identical to the reference in batch and through a streaming
/// window.
#[test]
fn unwrap_beyond_the_parity_span_is_bit_identical_to_reference() {
    let codes_per_rad = trig::PHASE_CODES as f64 / std::f64::consts::TAU;
    let mut reads = Vec::new();
    for ch in 0..100 {
        for k in 0..3 {
            let phase = 0.3 + 1.4 * ch as f64 + 0.002 * k as f64;
            let code = (phase * codes_per_rad).round() as usize + (k % 2) * trig::PHASE_CODES / 2;
            reads.push(grid_read(ch, code, 0.2 * ch as f64 + 0.01 * k as f64));
        }
    }
    let batch = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
    assert!(batch.last().unwrap().phase > 100.0, "the unwrap climbs past the span");
    assert_bitwise(&batch, &reads, "batch");
    let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
    let mut win = rfp_dsp::StreamingWindow::new();
    for r in &reads {
        win.push(r);
    }
    win.extract_into(&mut ws, &mut out).unwrap();
    assert_bitwise(&out, &reads, "streaming");
}
