//! Per-antenna observation extraction: from raw reads to the fitted line
//! parameters `(kᵢ, bᵢ)` of the multi-frequency phase model (paper Eq. 6).
//!
//! This stage composes the pre-processing of `rfp-dsp` (π-jump correction,
//! circular averaging, unwrapping) with the robust line fit that implements
//! the paper's multipath suppression: channels whose phase deviates from
//! the consensus line are dropped before the slope/intercept are read off.
//! Batch and streaming extraction share one fit tail: each fills the
//! channel observations and the workspace's fit columns its own way (the
//! batch pre-processing, or a sliding window's incremental extract), and
//! the same code then checks the channel count and fits the line.

use crate::obs::counter_add;
use crate::obs::id::{
    FRONTEND_CHANNELS, FRONTEND_READS, FRONTEND_TRIG_LIBM_READS, FRONTEND_TRIG_TABLE_READS,
    FRONTEND_WINDOWS,
};
use rfp_dsp::preprocess::{preprocess_reads_with, ChannelObservation, RawRead};
use rfp_dsp::robust::robust_line_fit_with;
use rfp_dsp::workspace::FrontEndWorkspace;
use rfp_geom::{angle, AntennaPose};

pub use rfp_dsp::ExtractConfig;

/// The fitted multi-frequency line of one antenna, plus diagnostics.
///
/// `slope` is `kᵢ = 4π dᵢ / c + k_t` (rad/Hz) and `intercept` is
/// `bᵢ = θ_orient(Aᵢ, α) + b_t` reduced modulo 2π — the unwrapping constant
/// makes the absolute intercept unobservable, so only its value on the
/// circle carries information.
#[derive(Debug, Clone)]
pub struct AntennaObservation {
    /// Pose of the antenna that produced this observation.
    pub pose: AntennaPose,
    /// Fitted line slope `kᵢ`, rad/Hz.
    pub slope: f64,
    /// Fitted line intercept `bᵢ` at f = 0, wrapped to `[0, 2π)`.
    pub intercept: f64,
    /// Residual standard deviation of the (inlier) line fit, radians.
    pub residual_std: f64,
    /// Fraction of channels kept as inliers by the multipath suppression.
    pub inlier_fraction: f64,
    /// Per-channel observations (all channels, sorted by frequency).
    pub channels: Vec<ChannelObservation>,
    /// Parallel to `channels`: whether each survived outlier rejection.
    pub channel_inliers: Vec<bool>,
    /// Mean RSSI over inlier channels, dBm.
    pub mean_rssi_dbm: f64,
    /// Intercept of the unwrapped fit (not reduced mod 2π); differs from
    /// `intercept` by a multiple of 2π. Kept private: only residual-curve
    /// reconstruction needs it.
    unwrapped_intercept: f64,
}

impl AntennaObservation {
    /// Unwrapped phase of channel `j`'s observation predicted by the fitted
    /// line.
    pub fn predicted_phase(&self, frequency_hz: f64) -> f64 {
        // The stored intercept is wrapped; reconstruct the unwrapped line
        // through the first inlier channel instead.
        self.slope * frequency_hz + self.unwrapped_intercept()
    }

    /// The intercept of the actual unwrapped fit (not reduced mod 2π) —
    /// useful for residual curves; differs from [`Self::intercept`] by a
    /// multiple of 2π.
    pub fn unwrapped_intercept(&self) -> f64 {
        self.unwrapped_intercept
    }

    /// Number of usable channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// An observation carrying only a fitted line `(slope, intercept)` —
    /// no channel detail, no RSSI (`mean_rssi_dbm` is `-∞`, which
    /// disables the solver's RSSI mode penalty). Intended for synthetic
    /// observations built straight from the forward model in tests and
    /// benches; real observations come from [`extract_observation`].
    pub fn from_line(pose: AntennaPose, slope: f64, intercept: f64) -> Self {
        let mut o = Self::new_empty(pose);
        o.slope = slope;
        o.intercept = angle::wrap_tau(intercept);
        o.unwrapped_intercept = intercept;
        o
    }

    pub(crate) fn new_empty(pose: AntennaPose) -> Self {
        AntennaObservation {
            pose,
            slope: 0.0,
            intercept: 0.0,
            residual_std: 0.0,
            inlier_fraction: 0.0,
            channels: Vec::new(),
            channel_inliers: Vec::new(),
            mean_rssi_dbm: f64::NEG_INFINITY,
            unwrapped_intercept: 0.0,
        }
    }
}

/// Errors from [`extract_observation`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractError {
    /// Pre-processing could not produce any usable channel.
    Preprocess(rfp_dsp::preprocess::PreprocessError),
    /// Too few channels survived to fit a line.
    TooFewChannels {
        /// Channels available after pre-processing.
        available: usize,
    },
    /// The line fit itself failed (degenerate input).
    Fit(rfp_dsp::linfit::FitError),
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::Preprocess(e) => write!(f, "pre-processing failed: {e}"),
            ExtractError::TooFewChannels { available } => {
                write!(f, "only {available} channels available; need more to fit a line")
            }
            ExtractError::Fit(e) => write!(f, "line fit failed: {e}"),
        }
    }
}

impl std::error::Error for ExtractError {}

impl From<rfp_dsp::preprocess::PreprocessError> for ExtractError {
    fn from(e: rfp_dsp::preprocess::PreprocessError) -> Self {
        ExtractError::Preprocess(e)
    }
}

impl From<rfp_dsp::linfit::FitError> for ExtractError {
    fn from(e: rfp_dsp::linfit::FitError) -> Self {
        ExtractError::Fit(e)
    }
}

/// Extracts one antenna's [`AntennaObservation`] from its raw reads.
///
/// # Errors
///
/// Returns [`ExtractError`] if pre-processing yields no channels or fewer
/// than 5 channels survive (a line through so few channels has useless
/// slope variance for ranging).
pub fn extract_observation(
    pose: AntennaPose,
    reads: &[RawRead],
    config: &ExtractConfig,
) -> Result<AntennaObservation, ExtractError> {
    let mut ws = FrontEndWorkspace::default();
    let mut obs = AntennaObservation::new_empty(pose);
    extract_observation_into(pose, reads, config, &mut ws, &mut obs)?;
    Ok(obs)
}

/// [`extract_observation`] against caller-owned scratch: the SoA front-end
/// columns live in `ws` and the output observation is rebuilt in place in
/// `out` (its `channels` / `channel_inliers` buffers are reused), so the
/// steady-state path performs no heap allocation.
///
/// On error `out` is left in an unspecified but valid state; callers should
/// only use it after an `Ok`.
///
/// # Errors
///
/// As [`extract_observation`].
pub fn extract_observation_into(
    pose: AntennaPose,
    reads: &[RawRead],
    config: &ExtractConfig,
    ws: &mut FrontEndWorkspace,
    out: &mut AntennaObservation,
) -> Result<(), ExtractError> {
    counter_add(FRONTEND_WINDOWS, 1);
    counter_add(FRONTEND_READS, reads.len() as u64);
    let preprocessed = preprocess_reads_with(ws, reads, &config.preprocess, &mut out.channels);
    // The trig tallies are valid even on error windows.
    let [table, libm] = ws.trig_hits();
    counter_add(FRONTEND_TRIG_TABLE_READS, table);
    counter_add(FRONTEND_TRIG_LIBM_READS, libm);
    preprocessed?;
    fit_observation(pose, config, ws, out)
}

/// The fit tail of batch and streaming extraction, run once the front end
/// has filled `out.channels` and the fit columns of `ws`: the 5-channel
/// check, then the robust fit and its inlier mask when
/// `config.suppress_multipath`, the raw fit with every channel an inlier
/// otherwise, then the observation's fitted-line fields.
///
/// # Errors
///
/// [`ExtractError::TooFewChannels`] below 5 channels, [`ExtractError::Fit`]
/// when a line fit fails.
pub(crate) fn fit_observation(
    pose: AntennaPose,
    config: &ExtractConfig,
    ws: &mut FrontEndWorkspace,
    out: &mut AntennaObservation,
) -> Result<(), ExtractError> {
    let n = out.channels.len();
    if n < 5 {
        return Err(ExtractError::TooFewChannels { available: n });
    }
    counter_add(FRONTEND_CHANNELS, n as u64);

    out.channel_inliers.clear();
    let (fit, inlier_fraction) = if config.suppress_multipath {
        let (xs, ys, fit_ws) = ws.fit_columns();
        let summary = robust_line_fit_with(fit_ws, xs, ys, &config.robust)?;
        out.channel_inliers.extend_from_slice(fit_ws.inlier_mask());
        (summary.fit, summary.inlier_fraction(n))
    } else {
        out.channel_inliers.resize(n, true);
        (ws.raw_fit()?, 1.0)
    };
    finish_observation(pose, &fit, inlier_fraction, out);
    Ok(())
}

/// Fills the fitted-line fields of `out` from the accepted (robust or
/// raw) fit. `out.channels` and `out.channel_inliers` must already be
/// populated — the inlier-mean RSSI is computed from them here.
fn finish_observation(
    pose: AntennaPose,
    fit: &rfp_dsp::linfit::LineFit,
    inlier_fraction: f64,
    out: &mut AntennaObservation,
) {
    let mut rssi_sum = 0.0;
    let mut rssi_n = 0usize;
    for (c, &keep) in out.channels.iter().zip(&out.channel_inliers) {
        if keep {
            rssi_sum += c.rssi_dbm;
            rssi_n += 1;
        }
    }

    out.pose = pose;
    out.slope = fit.slope;
    out.intercept = angle::wrap_tau(fit.intercept);
    out.residual_std = fit.residual_std;
    out.inlier_fraction = inlier_fraction;
    out.mean_rssi_dbm = rssi_sum / rssi_n.max(1) as f64;
    out.unwrapped_intercept = fit.intercept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_geom::Vec2;
    use rfp_phys::propagation;
    use rfp_sim::{Motion, MultipathEnvironment, NoiseModel, ReaderConfig, Scene, SimTag};

    fn clean_scene() -> Scene {
        Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal())
    }

    #[test]
    fn extracts_slope_matching_distance() {
        let scene = clean_scene();
        let tag =
            SimTag::nominal(1).with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.0));
        let survey = scene.survey(&tag, 1);
        let obs = extract_observation(
            scene.antenna_poses()[0],
            &survey.per_antenna[0],
            &ExtractConfig::paper(),
        )
        .unwrap();
        let d = scene.antenna_poses()[0].distance_to(tag.motion().position(0.0));
        let kt = tag.electrical().linearized(&scene.reader().plan).kt;
        let expect = propagation::slope_from_distance(d) + kt;
        assert!((obs.slope - expect).abs() < 2e-10, "slope {} want {expect}", obs.slope);
        assert_eq!(obs.channel_count(), 50);
        assert_eq!(obs.inlier_fraction, 1.0);
        assert!(obs.residual_std < 0.01);
    }

    #[test]
    fn intercept_is_wrapped() {
        let scene = clean_scene();
        let tag =
            SimTag::nominal(2).with_motion(Motion::planar_static(Vec2::new(0.1, 2.0), 0.9));
        let survey = scene.survey(&tag, 2);
        let obs = extract_observation(
            scene.antenna_poses()[1],
            &survey.per_antenna[1],
            &ExtractConfig::paper(),
        )
        .unwrap();
        assert!((0.0..std::f64::consts::TAU).contains(&obs.intercept));
        // Wrapped and unwrapped intercepts agree modulo 2π.
        let diff = obs.unwrapped_intercept() - obs.intercept;
        let turns = diff / std::f64::consts::TAU;
        assert!((turns - turns.round()).abs() < 1e-9);
    }

    #[test]
    fn multipath_channels_get_rejected() {
        let scene = clean_scene().with_environment(MultipathEnvironment::cluttered(3, 5));
        let tag =
            SimTag::nominal(3).with_motion(Motion::planar_static(Vec2::new(0.8, 1.2), 0.3));
        let survey = scene.survey(&tag, 3);
        let with = extract_observation(
            scene.antenna_poses()[0],
            &survey.per_antenna[0],
            &ExtractConfig::paper(),
        )
        .unwrap();
        let without = extract_observation(
            scene.antenna_poses()[0],
            &survey.per_antenna[0],
            &ExtractConfig { suppress_multipath: false, ..ExtractConfig::paper() },
        )
        .unwrap();
        assert!(with.residual_std <= without.residual_std + 1e-12);
        assert!(without.inlier_fraction == 1.0);
    }

    #[test]
    fn too_few_reads_error() {
        let pose = clean_scene().antenna_poses()[0];
        let reads: Vec<RawRead> = (0..3)
            .map(|c| RawRead {
                channel: c,
                frequency_hz: 902.75e6 + c as f64 * 0.5e6,
                phase: 1.0,
                rssi_dbm: -50.0,
                timestamp_s: 0.0,
                phase_code: None,
            })
            .collect();
        match extract_observation(pose, &reads, &ExtractConfig::paper()) {
            Err(ExtractError::TooFewChannels { available: 3 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(
            extract_observation(pose, &[], &ExtractConfig::paper()),
            Err(ExtractError::Preprocess(_))
        ));
    }

    #[test]
    fn predicted_phase_consistent() {
        let scene = clean_scene();
        let tag =
            SimTag::nominal(4).with_motion(Motion::planar_static(Vec2::new(0.4, 1.8), 0.2));
        let survey = scene.survey(&tag, 4);
        let obs = extract_observation(
            scene.antenna_poses()[2],
            &survey.per_antenna[2],
            &ExtractConfig::paper(),
        )
        .unwrap();
        for c in &obs.channels {
            let pred = obs.predicted_phase(c.frequency_hz);
            assert!((pred - c.phase).abs() < 0.05, "channel {}", c.channel);
        }
    }
}
