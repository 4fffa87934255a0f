//! Frozen pre-optimization front-end implementations.
//!
//! These are the allocating implementations of the pre-processing and
//! fitting routines exactly as they stood before the workspace rework
//! (per-channel `BTreeMap` + intermediate `Vec`s, full refit each
//! rejection round). They are kept for two reasons:
//!
//! * the `frontend_profile` bench measures the fused workspace kernels
//!   against this baseline, so the speedup claim is reproducible on any
//!   machine;
//! * the `frontend_workspace` property suite uses them as an independent
//!   oracle for the optimized kernels.
//!
//! Do not "improve" this module — its value is that it does not change.

use rfp_dsp::linfit::{FitError, LineFit};
use rfp_dsp::preprocess::{ChannelObservation, PreprocessConfig, PreprocessError, RawRead};
use rfp_dsp::robust::RobustFit;
use rfp_dsp::stats;
use rfp_geom::angle;

/// Pre-rework [`rfp_dsp::preprocess::preprocess_reads`]: groups through a
/// `BTreeMap` and materializes per-channel phase vectors. Only the
/// π-jump-correcting mode, the front end's one mode, is kept.
///
/// # Errors
///
/// As the optimized version: [`PreprocessError::NoUsableChannels`].
pub fn preprocess_reads(
    reads: &[RawRead],
    _config: &PreprocessConfig,
) -> Result<Vec<ChannelObservation>, PreprocessError> {
    // Group by channel, preserving per-channel read order.
    let mut by_channel: std::collections::BTreeMap<usize, Vec<&RawRead>> =
        std::collections::BTreeMap::new();
    for r in reads {
        by_channel.entry(r.channel).or_default().push(r);
    }

    let mut observations = Vec::with_capacity(by_channel.len());
    let mut per_channel_reads: Vec<Vec<f64>> = Vec::with_capacity(by_channel.len());
    for (channel, reads) in by_channel {
        let phases: Vec<f64> = reads.iter().map(|r| r.phase).collect();
        // Nothing reads the spread, but this oracle is `frontend_profile`'s
        // timing reference: its work must stay as it was, or every
        // committed speed-up ratio would move.
        let (phase, spread) = channel_axis(&phases);
        std::hint::black_box(spread);
        let rssi = reads.iter().map(|r| r.rssi_dbm).sum::<f64>() / reads.len() as f64;
        observations.push(ChannelObservation {
            channel,
            frequency_hz: reads[0].frequency_hz,
            phase: angle::wrap_tau(phase),
            rssi_dbm: rssi,
            read_count: reads.len(),
        });
        per_channel_reads.push(phases);
    }
    if observations.is_empty() {
        return Err(PreprocessError::NoUsableChannels);
    }

    // Sort ascending in frequency (keeping the raw reads aligned).
    let mut order: Vec<usize> = (0..observations.len()).collect();
    order.sort_by(|&a, &b| {
        observations[a]
            .frequency_hz
            .partial_cmp(&observations[b].frequency_hz)
            .expect("finite frequencies")
    });
    let mut sorted_obs: Vec<ChannelObservation> =
        order.iter().map(|&i| observations[i]).collect();
    let sorted_reads: Vec<&Vec<f64>> = order.iter().map(|&i| &per_channel_reads[i]).collect();

    let mut phases: Vec<f64> = sorted_obs.iter().map(|o| o.phase).collect();
    angle::unwrap_in_place_period(&mut phases, std::f64::consts::PI);
    let mut votes_axis = 0usize;
    let mut votes_total = 0usize;
    for (axis, reads) in phases.iter().zip(&sorted_reads) {
        for &p in reads.iter() {
            votes_total += 1;
            if angle::distance(p, *axis) <= std::f64::consts::FRAC_PI_2 {
                votes_axis += 1;
            }
        }
    }
    if 2 * votes_axis < votes_total {
        for p in &mut phases {
            *p += std::f64::consts::PI;
        }
    }
    for (o, p) in sorted_obs.iter_mut().zip(phases) {
        o.phase = p;
    }
    Ok(sorted_obs)
}

fn channel_axis(phases: &[f64]) -> (f64, f64) {
    debug_assert!(!phases.is_empty());
    let doubled_mean =
        angle::circular_mean(phases.iter().map(|&p| 2.0 * p)).unwrap_or(2.0 * phases[0]);
    let axis = doubled_mean / 2.0;
    let folded: Vec<f64> = phases
        .iter()
        .map(|&p| {
            if angle::distance(p, axis) <= std::f64::consts::FRAC_PI_2 {
                p
            } else {
                p + std::f64::consts::PI
            }
        })
        .collect();
    let spread = angle::circular_std(folded.iter().copied()).unwrap_or(0.0);
    (axis, spread)
}

/// Pre-rework [`rfp_dsp::linfit::ols`]: unit-weight vector plus
/// [`weighted_ols`].
///
/// # Errors
///
/// As the optimized version.
pub fn ols(xs: &[f64], ys: &[f64]) -> Result<LineFit, FitError> {
    let w = vec![1.0; xs.len()];
    weighted_ols(xs, ys, &w)
}

/// Pre-rework weighted least squares (the library's former
/// `weighted_ols`), which [`ols`] runs with unit weights: materializes the
/// residual vector for its diagnostics.
///
/// # Errors
///
/// As [`ols`].
///
/// # Panics
///
/// When a weight is negative or NaN, or the weights do not sum to a
/// positive value.
pub fn weighted_ols(xs: &[f64], ys: &[f64], weights: &[f64]) -> Result<LineFit, FitError> {
    if xs.len() != ys.len() || xs.len() != weights.len() {
        return Err(FitError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    assert!(weights.iter().all(|&w| w >= 0.0), "negative or NaN weight");
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights must have a positive sum");
    let xbar = xs.iter().zip(weights).map(|(x, w)| x * w).sum::<f64>() / wsum;
    let ybar = ys.iter().zip(weights).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for ((&x, &y), &w) in xs.iter().zip(ys).zip(weights) {
        sxx += w * (x - xbar) * (x - xbar);
        sxy += w * (x - xbar) * (y - ybar);
    }
    if sxx <= 0.0 {
        return Err(FitError::DegenerateX);
    }
    let slope = sxy / sxx;
    let intercept = ybar - slope * xbar;

    let residuals: Vec<f64> =
        xs.iter().zip(ys).map(|(&x, &y)| y - (slope * x + intercept)).collect();
    let ss_res: f64 = residuals.iter().map(|r| r * r).sum();
    let ss_tot: f64 = ys.iter().map(|&y| (y - ybar) * (y - ybar)).sum();
    let r_squared = if ss_tot > 0.0 {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else if ss_res <= f64::EPSILON {
        1.0
    } else {
        0.0
    };
    let residual_std = stats::std_dev(&residuals).unwrap_or(0.0);
    Ok(LineFit { slope, intercept, r_squared, residual_std, n: xs.len() })
}

/// Pre-rework [`rfp_dsp::linfit::theil_sen`]: sorts freshly allocated slope
/// and offset vectors for the medians.
///
/// # Errors
///
/// As the optimized version.
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> Result<LineFit, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let mut slopes = Vec::with_capacity(xs.len() * (xs.len() - 1) / 2);
    for i in 0..xs.len() {
        for j in (i + 1)..xs.len() {
            let dx = xs[j] - xs[i];
            if dx.abs() > 0.0 {
                slopes.push((ys[j] - ys[i]) / dx);
            }
        }
    }
    if slopes.is_empty() {
        return Err(FitError::DegenerateX);
    }
    let slope = stats::median(&slopes).expect("nonempty");
    let offsets: Vec<f64> = xs.iter().zip(ys).map(|(&x, &y)| y - slope * x).collect();
    let intercept = stats::median(&offsets).expect("nonempty");

    let residuals: Vec<f64> =
        xs.iter().zip(ys).map(|(&x, &y)| y - (slope * x + intercept)).collect();
    let ss_res: f64 = residuals.iter().map(|r| r * r).sum();
    let ybar = stats::mean(ys).expect("nonempty");
    let ss_tot: f64 = ys.iter().map(|&y| (y - ybar) * (y - ybar)).sum();
    let r_squared = if ss_tot > 0.0 {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else if ss_res <= f64::EPSILON {
        1.0
    } else {
        0.0
    };
    let residual_std = stats::std_dev(&residuals).unwrap_or(0.0);
    Ok(LineFit { slope, intercept, r_squared, residual_std, n: xs.len() })
}

/// The robust fit's residual threshold, in scale units.
const THRESHOLD: f64 = 2.5;
/// The robust fit's floor on the residual scale, radians.
const SCALE_FLOOR: f64 = 0.012;
/// The robust fit's maximum reject-refit rounds.
const MAX_ITERATIONS: usize = 5;
/// The fraction of the points no rejection round drops below.
const MIN_INLIER_FRACTION: f64 = 0.5;

/// Pre-rework [`rfp_dsp::robust::robust_line_fit`]: refits the inlier
/// subset from scratch each rejection round through freshly collected
/// sub-slices. It runs at the paper's configuration, the optimized
/// version's one.
///
/// # Errors
///
/// As the optimized version.
pub fn robust_line_fit(xs: &[f64], ys: &[f64]) -> Result<RobustFit, FitError> {
    let mut current = theil_sen(xs, ys)?;
    let n = xs.len();
    let min_inliers = ((n as f64 * MIN_INLIER_FRACTION).ceil() as usize).max(2);
    let mut inliers = vec![true; n];
    let mut iterations = 0;

    for _ in 0..MAX_ITERATIONS {
        iterations += 1;
        let residuals: Vec<f64> =
            xs.iter().zip(ys).map(|(&x, &y)| y - current.predict(x)).collect();
        let abs_res: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
        let scale = (stats::mad(&residuals).unwrap_or(0.0) * stats::MAD_TO_SIGMA)
            .max(SCALE_FLOOR);
        let cutoff = THRESHOLD * scale;

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| abs_res[a].partial_cmp(&abs_res[b]).expect("finite"));
        let mut new_inliers = vec![false; n];
        for (rank, &idx) in order.iter().enumerate() {
            if rank < min_inliers || abs_res[idx] <= cutoff {
                new_inliers[idx] = true;
            }
        }

        let (sub_x, sub_y): (Vec<f64>, Vec<f64>) = xs
            .iter()
            .zip(ys)
            .zip(&new_inliers)
            .filter(|(_, &keep)| keep)
            .map(|((&x, &y), _)| (x, y))
            .unzip();
        let refit = ols(&sub_x, &sub_y)?;

        let converged = new_inliers == inliers;
        inliers = new_inliers;
        current = refit;
        if converged {
            break;
        }
    }

    Ok(RobustFit { fit: current, inliers, iterations })
}
