//! Tagtag-style material identification.
//!
//! Tagtag identifies the material a tag is attached to by matching the
//! tag's phase-vs-channel curve against labelled template curves. Two
//! normalizations stand in for RF-Prism's disentangling:
//!
//! 1. **Distance**: a coarse range estimate from the RSS readings
//!    (`d⁴` backscatter law) removes the propagation slope. The estimate
//!    is biased whenever the material itself absorbs power — the paper's
//!    explanation for Tagtag's degradation at varying distance (Fig. 18).
//! 2. **Orientation**: the per-curve mean is subtracted; since the
//!    orientation term is constant across channels, de-meaning cancels it
//!    (their "channel hopping" trick, which is why rotation does not widen
//!    the gap further in Fig. 20).
//!
//! The residual curves are compared with Dynamic Time Warping and
//! classified 1-NN, as in the original.

use crate::dtw::DtwNearestNeighbor;
use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig, ExtractError};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::AntennaPose;
use rfp_ml::Classifier;
use rfp_phys::rssi::coarse_distance_from_rssi;
use rfp_phys::{propagation, Material};

/// The Tagtag baseline classifier.
#[derive(Debug, Clone)]
pub struct Tagtag {
    poses: Vec<AntennaPose>,
    templates: DtwNearestNeighbor,
    channel_count: usize,
}

/// Errors from the Tagtag pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TagtagError {
    /// No antenna produced a usable observation.
    NoUsableObservations {
        /// First extraction failure, if any.
        first_error: Option<ExtractError>,
    },
}

impl std::fmt::Display for TagtagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagtagError::NoUsableObservations { .. } => {
                write!(f, "no antenna produced a usable observation")
            }
        }
    }
}

impl std::error::Error for TagtagError {}

impl Tagtag {
    /// Creates an empty classifier for antennas at `poses` over a plan with
    /// `channel_count` channels.
    ///
    /// # Panics
    ///
    /// Panics if `poses` is empty or `channel_count` is zero.
    pub fn new(poses: Vec<AntennaPose>, channel_count: usize) -> Self {
        assert!(!poses.is_empty(), "need at least one antenna");
        assert!(channel_count > 0, "need at least one channel");
        Tagtag {
            poses,
            // A small warping window: curves are already channel-aligned.
            templates: DtwNearestNeighbor::new(Material::CLASSES.len(), Some(3)),
            channel_count,
        }
    }

    /// Extracts Tagtag's normalized residual curve from one hop round.
    ///
    /// # Errors
    ///
    /// [`TagtagError::NoUsableObservations`] if every antenna fails
    /// extraction.
    pub fn features(
        &self,
        reads_per_antenna: &[Vec<RawRead>],
    ) -> Result<Vec<f64>, TagtagError> {
        assert_eq!(
            reads_per_antenna.len(),
            self.poses.len(),
            "one read group per antenna"
        );
        let mut curves: Vec<Vec<f64>> = Vec::new();
        let mut first_error = None;
        for (pose, reads) in self.poses.iter().zip(reads_per_antenna) {
            match extract_observation(*pose, reads, &ExtractConfig::paper()) {
                Ok(obs) => curves.push(self.residual_curve(&obs)),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if curves.is_empty() {
            return Err(TagtagError::NoUsableObservations { first_error });
        }
        // Average the per-antenna residual curves channel-wise.
        let mut mean = vec![0.0f64; self.channel_count];
        let mut counts = vec![0usize; self.channel_count];
        for curve in &curves {
            for (j, v) in curve.iter().enumerate() {
                if v.is_finite() {
                    mean[j] += v;
                    counts[j] += 1;
                }
            }
        }
        for (m, &c) in mean.iter_mut().zip(&counts) {
            if c > 0 {
                *m /= c as f64;
            }
        }
        Ok(mean)
    }

    /// Residual phase curve of one antenna: measured unwrapped phase minus
    /// the RSS-ranged propagation estimate, de-meaned.
    fn residual_curve(&self, obs: &AntennaObservation) -> Vec<f64> {
        let d_hat = coarse_distance_from_rssi(obs.mean_rssi_dbm).max(0.05);
        let mut curve = vec![f64::NAN; self.channel_count];
        let mut vals = Vec::with_capacity(obs.channels.len());
        for (c, &inlier) in obs.channels.iter().zip(&obs.channel_inliers) {
            if !inlier || c.channel >= self.channel_count {
                continue;
            }
            let v = c.phase - propagation::phase(d_hat, c.frequency_hz);
            curve[c.channel] = v;
            vals.push(v);
        }
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        for v in &mut curve {
            if v.is_finite() {
                *v -= mean;
            } else {
                *v = 0.0; // missing channel: neutral value
            }
        }
        curve
    }

    /// Adds a labelled training example (already-extracted features).
    pub fn add_example(&mut self, features: Vec<f64>, material: Material) {
        let label = material.class_index().expect("training label must be a class");
        self.templates.add_template(features, label);
    }

    /// Number of stored templates.
    pub fn template_count(&self) -> usize {
        self.templates.template_count()
    }

    /// Identifies the material for an extracted feature curve.
    ///
    /// # Panics
    ///
    /// Panics if no training examples have been added.
    pub fn identify(&self, features: &[f64]) -> Material {
        Material::from_class_index(self.templates.predict(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_geom::Vec2;
    use rfp_sim::{Motion, NoiseModel, ReaderConfig, Scene, SimTag};

    fn scene() -> Scene {
        Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal())
    }

    fn survey_features(
        tagtag: &Tagtag,
        scene: &Scene,
        material: Material,
        pos: Vec2,
        seed: u64,
    ) -> Vec<f64> {
        let tag = SimTag::nominal(1)
            .attached_to(material)
            .with_motion(Motion::planar_static(pos, 0.0));
        let survey = scene.survey(&tag, seed);
        tagtag.features(&survey.per_antenna).unwrap()
    }

    #[test]
    fn distinguishes_materials_at_fixed_position() {
        let scene = scene();
        let mut tagtag = Tagtag::new(scene.antenna_poses(), 50);
        let pos = Vec2::new(0.5, 1.2);
        for (i, &m) in Material::CLASSES.iter().enumerate() {
            let f = survey_features(&tagtag, &scene, m, pos, 10 + i as u64);
            tagtag.add_example(f, m);
        }
        assert_eq!(tagtag.template_count(), 8);
        // Same position, new measurement noise seed: must classify right.
        for (i, &m) in Material::CLASSES.iter().enumerate() {
            let f = survey_features(&tagtag, &scene, m, pos, 50 + i as u64);
            assert_eq!(tagtag.identify(&f), m, "material {m}");
        }
    }

    #[test]
    fn metal_confused_more_when_distance_changes() {
        // Fig. 18's mechanism: the RSS range estimate is biased by lossy
        // materials, so training at one distance and testing at another
        // tilts the residual curve.
        let scene = scene();
        let tagtag_pos = Vec2::new(0.5, 1.0);
        let mut tagtag = Tagtag::new(scene.antenna_poses(), 50);
        for (i, &m) in Material::CLASSES.iter().enumerate() {
            let f = survey_features(&tagtag, &scene, m, tagtag_pos, 20 + i as u64);
            tagtag.add_example(f, m);
        }
        // The curve for water far away should differ from the water
        // template more than the same-position curve does.
        let near = survey_features(&tagtag, &scene, Material::Water, tagtag_pos, 77);
        let far = survey_features(&tagtag, &scene, Material::Water, Vec2::new(1.2, 2.3), 78);
        let d_near: f64 = near.iter().zip(&far).map(|(a, b)| (a - b).abs()).sum();
        assert!(d_near > 0.1, "distance change must alter the curve (Σ|Δ| = {d_near})");
    }

    #[test]
    fn features_have_fixed_length_and_zero_mean() {
        let scene = scene();
        let tagtag = Tagtag::new(scene.antenna_poses(), 50);
        let f = survey_features(&tagtag, &scene, Material::Wood, Vec2::new(0.3, 1.5), 5);
        assert_eq!(f.len(), 50);
        let mean: f64 = f.iter().sum::<f64>() / 50.0;
        assert!(mean.abs() < 0.2, "roughly de-meaned, got {mean}");
    }

    #[test]
    fn errors_without_reads() {
        let scene = scene();
        let tagtag = Tagtag::new(scene.antenna_poses(), 50);
        assert!(matches!(
            tagtag.features(&[Vec::new(), Vec::new(), Vec::new()]),
            Err(TagtagError::NoUsableObservations { .. })
        ));
    }
}
