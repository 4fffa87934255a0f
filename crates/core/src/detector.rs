//! The error detector (paper §V-C) and multipath triage (§V-D).
//!
//! RF-Prism assumes the tag is static while the reader hops the whole band
//! (~10 s on an R420). If the tag moved or rotated mid-round, the samples
//! on different channels correspond to different distances/orientations
//! and the phase-vs-frequency relationship stops being a line *entirely* —
//! no subset of channels fits. Multipath is different: a strong LOS keeps
//! the majority of channels on the line and only a minority deviates.
//!
//! The verdict therefore looks at the **robust** (post-rejection) fit:
//!
//! * residual still large → nothing linear to salvage → `Moving`;
//! * residual fine but channels were rejected → `MultipathSuppressed`;
//! * everything kept → `Clean`.

use crate::model::AntennaObservation;

/// Max tolerable post-rejection residual std, radians. Above this the
/// window is declared `Moving` and should be discarded.
const MAX_RESIDUAL_STD: f64 = 0.25;

/// Minimum inlier fraction: rejecting more than this means the "line" was
/// found in a minority of channels, also a mobility symptom.
const MIN_INLIER_FRACTION: f64 = 0.55;

/// Configuration of the error detector: none. Its thresholds are the
/// constants of this module. The type stays only because the frozen
/// benchmark passes `&config.detector` to [`assess`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectorConfig {}

/// The detector's verdict on one sensing window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityVerdict {
    /// Phase lines are clean on every antenna.
    Clean,
    /// A linear fit exists but some channels were rejected as
    /// multipath-corrupted outliers.
    MultipathSuppressed {
        /// Total channels rejected across antennas.
        rejected_channels: usize,
    },
    /// No antenna-consistent linear relationship: the tag moved or rotated
    /// during the hop round. Discard this window (paper §V-C).
    Moving {
        /// Worst post-rejection residual std observed, radians.
        worst_residual_std: f64,
    },
}

impl MobilityVerdict {
    /// Whether the window is usable for sensing.
    pub fn is_usable(&self) -> bool {
        !matches!(self, MobilityVerdict::Moving { .. })
    }
}

/// Total channels the robust per-antenna fits dropped as multipath
/// outliers, summed across `observations` — the count surfaced by
/// [`MobilityVerdict::MultipathSuppressed`] and the
/// `detector.channels_rejected` metric.
pub fn rejected_channels(observations: &[AntennaObservation]) -> usize {
    observations
        .iter()
        .map(|o| o.channel_inliers.iter().filter(|&&k| !k).count())
        .sum()
}

/// Assesses one window's observations.
///
/// # Panics
///
/// Panics if `observations` is empty.
pub fn assess(observations: &[AntennaObservation], _config: &DetectorConfig) -> MobilityVerdict {
    assert!(!observations.is_empty(), "need at least one observation");
    let worst_residual = observations
        .iter()
        .map(|o| o.residual_std)
        .fold(0.0f64, f64::max);
    let worst_inlier_fraction = observations
        .iter()
        .map(|o| o.inlier_fraction)
        .fold(1.0f64, f64::min);

    if worst_residual > MAX_RESIDUAL_STD || worst_inlier_fraction < MIN_INLIER_FRACTION {
        return MobilityVerdict::Moving { worst_residual_std: worst_residual };
    }
    let rejected = rejected_channels(observations);
    if rejected > 0 {
        MobilityVerdict::MultipathSuppressed { rejected_channels: rejected }
    } else {
        MobilityVerdict::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_observation, ExtractConfig};
    use rfp_geom::Vec2;
    use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};

    fn observations(scene: &Scene, tag: &SimTag, seed: u64) -> Vec<AntennaObservation> {
        let survey = scene.survey(tag, seed);
        scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect()
    }

    #[test]
    fn static_tag_is_clean() {
        let scene = Scene::standard_2d();
        let tag = SimTag::nominal(1)
            .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.3));
        let obs = observations(&scene, &tag, 1);
        let v = assess(&obs, &DetectorConfig::default());
        assert!(v.is_usable());
    }

    #[test]
    fn moving_tag_is_flagged() {
        let scene = Scene::standard_2d();
        let tag = SimTag::nominal(1).with_motion(Motion::planar_linear(
            Vec2::new(0.2, 1.0),
            Vec2::new(0.06, 0.03),
            0.0,
        ));
        let obs = observations(&scene, &tag, 2);
        let v = assess(&obs, &DetectorConfig::default());
        assert!(matches!(v, MobilityVerdict::Moving { .. }), "verdict {v:?}");
        assert!(!v.is_usable());
    }

    #[test]
    fn rotating_tag_is_flagged() {
        let scene = Scene::standard_2d();
        // Rotating changes the intercept per channel → nonlinear samples.
        let tag = SimTag::nominal(1).with_motion(Motion::planar_rotating(
            Vec2::new(0.6, 1.2),
            0.0,
            0.35, // rad/s → ~3.5 rad over the 10 s round
        ));
        let obs = observations(&scene, &tag, 3);
        assert!(matches!(
            assess(&obs, &DetectorConfig::default()),
            MobilityVerdict::Moving { .. }
        ));
    }

    #[test]
    fn multipath_is_suppressed_not_discarded() {
        let scene = Scene::standard_2d()
            .with_environment(MultipathEnvironment::cluttered(3, 21));
        let tag = SimTag::nominal(1)
            .with_motion(Motion::planar_static(Vec2::new(0.8, 1.6), 0.5));
        let obs = observations(&scene, &tag, 4);
        let v = assess(&obs, &DetectorConfig::default());
        assert!(v.is_usable(), "verdict {v:?}");
    }

    #[test]
    fn slow_drift_below_threshold_passes() {
        // Sub-millimetre total drift is indistinguishable from noise; the
        // detector must not be trigger-happy.
        let scene = Scene::standard_2d();
        let tag = SimTag::nominal(1).with_motion(Motion::planar_linear(
            Vec2::new(0.5, 1.5),
            Vec2::new(5e-5, 0.0), // 0.5 mm over the whole round
            0.2,
        ));
        let obs = observations(&scene, &tag, 5);
        assert!(assess(&obs, &DetectorConfig::default()).is_usable());
    }

    #[test]
    #[should_panic]
    fn empty_observations_panic() {
        let _ = assess(&[], &DetectorConfig::default());
    }
}
