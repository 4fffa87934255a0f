//! Material identification from the disentangled parameters (paper §V-B).
//!
//! After disentangling, `k_t` and `b_t` are determined by the target
//! material *and* the reader-tag hardware pair; the hardware part is
//! removed with the tag's one-time [`DeviceCalibration`]. To further
//! mitigate frequency-selective fading the per-channel residual
//! `θ_material(f) = θ_device(f) − θ_device0(f)` joins the feature vector
//! (paper Eq. 9), giving `F = (k_t, b_t, θ_material(f₁..f₅₀))` — 52
//! dimensions with the full FCC plan.
//!
//! [`MaterialIdentifier`] wraps feature standardization plus the paper's
//! deployed classifier, the decision tree that won its Fig. 13 comparison
//! (87.9 % against SVM 83.5 % and KNN 75.6 %), and maps predicted class
//! indices back to [`Material`]. The other classifiers of that comparison
//! live in the bench harness (`rfp-bench`'s `matid` module).
//!
//! The front end's phase-code trig tables ride upstream of this module:
//! material features only see the resulting [`AntennaObservation`]s. A
//! table lookup is bit-identical to libm, so feature vectors — and
//! therefore trained classifiers — are unchanged by the faster path
//! (pinned by a test below).

use crate::calibration::DeviceCalibration;
use crate::model::AntennaObservation;
use crate::solver::TagEstimate2D;
use rfp_geom::angle;
use rfp_ml::dataset::Dataset;
use rfp_ml::scaler::StandardScaler;
use rfp_ml::tree::{DecisionTree, TreeConfig};
use rfp_ml::Classifier;
use rfp_phys::polarization::{orientation_phase, planar_dipole};
use rfp_phys::{propagation, Material};

/// The material feature vector of one sensing pass (paper Eq. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialFeatures {
    /// Calibrated material slope `k_t − k_t0`, rad/Hz.
    pub kt_material: f64,
    /// Calibrated material intercept `wrap(b_t − b_t0)`, radians in
    /// `(-π, π]`.
    pub bt_material: f64,
    /// Per-channel *line-removed* material response, radians, indexed by
    /// channel (see [`MaterialFeatures::extract`]); channels missing from
    /// the sensing pass hold `0.0`.
    pub theta_material: Vec<f64>,
}

/// One channel's accumulator in [`MaterialFeatures::extract`]: the sum of
/// the antennas' centred curve values at the channel, their count and
/// the channel's frequency.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelSum {
    sum: f64,
    count: usize,
    freq: f64,
}

impl MaterialFeatures {
    /// Extracts features from a solved sensing pass.
    ///
    /// For every antenna and inlier channel, the estimated propagation and
    /// orientation phases plus the calibrated `θ_device0(f)` (unwrapped
    /// across channels) are subtracted from the measured unwrapped phase.
    /// The remaining per-channel curves are averaged across antennas and
    /// then **de-lined**: a straight line over frequency is fitted and
    /// removed, leaving the curvature of the material response.
    ///
    /// De-lining matters: a residual position error `δd` leaks the phase
    /// `4π·δd·f/c` — a *line* in frequency with ~38 rad per metre of error,
    /// which would drown the material signature in the raw per-channel
    /// values. The line component of the material response is already
    /// carried by `(k_t, b_t)` from the joint solve, so the per-channel
    /// features keep only the position-error-free curvature (the
    /// frequency-selective part the paper adds them for).
    ///
    /// `channel_count` fixes the feature dimensionality (the classifier
    /// needs constant-length vectors even if some channels were dropped).
    ///
    /// A call allocates only its dense columns (the unwrapped device
    /// curve, one per-channel accumulator, the de-lining line's two
    /// columns and the output): the calibration curve is unwrapped as it
    /// streams out of the calibration ([`angle::Unwrapper`]), and each
    /// antenna's arbitrary constant is its curve's mean, taken in a first
    /// pass over its inlier channels before the second accumulates.
    ///
    /// # Panics
    ///
    /// Panics if `observations` is empty or `channel_count` is zero.
    pub fn extract(
        observations: &[AntennaObservation],
        estimate: &TagEstimate2D,
        calibration: &DeviceCalibration,
        channel_count: usize,
    ) -> Self {
        assert!(!observations.is_empty(), "need at least one observation");
        assert!(channel_count > 0, "channel_count must be positive");
        let _span = crate::obs::span("material_features");
        crate::obs::counter_add(crate::obs::id::MATERIAL_FEATURES_EXTRACTED, 1);

        let kt_material = estimate.kt - calibration.kt0();
        let bt_material = angle::wrap_pi(estimate.bt - calibration.bt0());

        // Unwrap the stored (mod 2π) calibration curve across channels: the
        // device response is smooth, ~0.02 rad between adjacent channels.
        // Calibration channels come out of `iter()` in ascending order,
        // which the unwrap needs, and stream straight into a dense
        // per-channel column (indexed directly below). Every sample is
        // fed, those past `channel_count` too: a sample's unwrap depends on
        // the samples before it.
        let mut device0 = vec![f64::NAN; channel_count];
        let mut unwrapper = angle::Unwrapper::default();
        for (ch, _, phase) in calibration.iter() {
            let v = unwrapper.push(phase);
            if ch < channel_count {
                device0[ch] = v;
            }
        }

        let w = planar_dipole(estimate.orientation);
        let device0 = &device0;
        let mut channels = vec![ChannelSum::default(); channel_count];
        for obs in observations {
            let d = obs.pose.position().distance(estimate.position.with_z(0.0));
            let k_prop = propagation::slope_from_distance(d);
            let theta_orient = orientation_phase(&obs.pose, w);
            // This antenna's continuous material curve (arbitrary constant
            // offset: unwrap constants, orientation error) over its inlier
            // channels that the calibration covers, as `(channel,
            // frequency, value)`.
            let curve = || {
                obs.channels.iter().zip(&obs.channel_inliers).filter_map(move |(c, &inlier)| {
                    if !inlier || c.channel >= channel_count {
                        return None;
                    }
                    let dev0 = device0[c.channel];
                    if dev0.is_nan() {
                        return None;
                    }
                    let v = c.phase - k_prop * c.frequency_hz - theta_orient - dev0;
                    Some((c.channel, c.frequency_hz, v))
                })
            };
            // A first pass takes the curve's mean, this antenna's arbitrary
            // constant; the second removes it before accumulating.
            let mut len = 0usize;
            let sum: f64 = curve().map(|(_, _, v)| v).inspect(|_| len += 1).sum();
            if len == 0 {
                continue;
            }
            let mean = sum / len as f64;
            for (ch, f, v) in curve() {
                let slot = &mut channels[ch];
                slot.sum += v - mean;
                slot.count += 1;
                slot.freq = f;
            }
        }

        // Channel-wise average, then de-line over frequency.
        let mut xs = Vec::with_capacity(channel_count);
        let mut ys = Vec::with_capacity(channel_count);
        for slot in channels.iter().filter(|slot| slot.count > 0) {
            xs.push(slot.freq);
            ys.push(slot.sum / slot.count as f64);
        }
        let theta_material: Vec<f64> = match rfp_dsp::linfit::ols(&xs, &ys) {
            Ok(fit) => {
                let mut averaged = ys.iter();
                channels
                    .iter()
                    .map(|slot| match slot.count {
                        0 => 0.0,
                        _ => averaged.next().expect("one average per channel") - fit.predict(slot.freq),
                    })
                    .collect()
            }
            Err(_) => vec![0.0; channel_count],
        };

        MaterialFeatures { kt_material, bt_material, theta_material }
    }

    /// Flattens to the classifier input `(k_t, b_t, θ_material(f₁..fₙ))`.
    ///
    /// `k_t` is expressed in rad/MHz (×1e6) so its numeric range is not
    /// absurdly far from the angular features before standardization.
    pub fn to_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 + self.theta_material.len());
        v.push(self.kt_material * 1.0e6);
        v.push(self.bt_material);
        v.extend_from_slice(&self.theta_material);
        v
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        2 + self.theta_material.len()
    }
}

/// Which classifier backs a [`MaterialIdentifier`]: the paper's decision
/// tree (Fig. 13), with its hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierKind {
    /// CART decision tree — the paper's best performer.
    DecisionTree(TreeConfig),
}

impl ClassifierKind {
    /// The paper's deployed choice: a decision tree with default
    /// hyper-parameters.
    pub fn paper_default() -> Self {
        ClassifierKind::DecisionTree(TreeConfig::default())
    }
}

/// A trained material classifier: standardization + decision tree + class
/// mapping to [`Material`].
#[derive(Debug)]
pub struct MaterialIdentifier {
    scaler: StandardScaler,
    tree: DecisionTree,
}

impl MaterialIdentifier {
    /// Trains on a dataset whose labels are [`Material::CLASSES`] indices.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(train: &Dataset, kind: &ClassifierKind) -> Self {
        let ClassifierKind::DecisionTree(config) = kind;
        let scaler = StandardScaler::fit(train);
        let tree = DecisionTree::fit(&scaler.transform_dataset(train), config);
        MaterialIdentifier { scaler, tree }
    }

    /// Predicts a class index for a raw (unscaled) feature vector.
    pub fn predict_index(&self, features: &[f64]) -> usize {
        self.tree.predict(&self.scaler.transform(features))
    }

    /// Identifies the material for a sensing pass's features.
    pub fn identify(&self, features: &MaterialFeatures) -> Material {
        Material::from_class_index(self.predict_index(&features.to_vector()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_observation, ExtractConfig};
    use crate::solver::{solve_2d, SolverConfig};
    use rfp_dsp::preprocess::RawRead;
    use rfp_geom::Vec2;
    use rfp_sim::{Motion, NoiseModel, ReaderConfig, Scene, SimTag};

    /// `MaterialFeatures::extract` as it was written before its
    /// accumulator rework (per-call calibration copies, a per-antenna
    /// curve buffer and separate per-channel columns), kept verbatim as
    /// the reference the rework is pinned to bit for bit.
    fn extract_reference(
        observations: &[AntennaObservation],
        estimate: &TagEstimate2D,
        calibration: &DeviceCalibration,
        channel_count: usize,
    ) -> MaterialFeatures {
        let kt_material = estimate.kt - calibration.kt0();
        let bt_material = angle::wrap_pi(estimate.bt - calibration.bt0());

        // Unwrap the stored (mod 2π) calibration curve across channels: the
        // device response is smooth, ~0.02 rad between adjacent channels.
        // The unwrapped curve lands in a dense per-channel column (indexed
        // directly below — calibration channels come out of `iter()` in
        // ascending order, which the unwrap needs).
        let cal_samples: Vec<(usize, f64, f64)> = calibration.iter().collect();
        let mut cal_phases: Vec<f64> = cal_samples.iter().map(|&(_, _, v)| v).collect();
        angle::unwrap_in_place(&mut cal_phases);
        let mut device0 = vec![f64::NAN; channel_count];
        for (&(ch, _, _), &v) in cal_samples.iter().zip(&cal_phases) {
            if ch < channel_count {
                device0[ch] = v;
            }
        }

        let w = planar_dipole(estimate.orientation);
        let mut acc = vec![0.0f64; channel_count];
        let mut counts = vec![0usize; channel_count];
        let mut freqs = vec![0.0f64; channel_count];
        let mut curve = Vec::new();
        for obs in observations {
            let d = obs.pose.position().distance(estimate.position.with_z(0.0));
            let k_prop = propagation::slope_from_distance(d);
            let theta_orient = orientation_phase(&obs.pose, w);
            // This antenna's continuous material curve (arbitrary constant
            // offset: unwrap constants, orientation error).
            curve.clear();
            for (c, &inlier) in obs.channels.iter().zip(&obs.channel_inliers) {
                if !inlier || c.channel >= channel_count {
                    continue;
                }
                let dev0 = device0[c.channel];
                if dev0.is_nan() {
                    continue;
                }
                let v = c.phase - k_prop * c.frequency_hz - theta_orient - dev0;
                curve.push((c.channel, c.frequency_hz, v));
            }
            if curve.is_empty() {
                continue;
            }
            // Remove this antenna's arbitrary constant before accumulating.
            let mean = curve.iter().map(|&(_, _, v)| v).sum::<f64>() / curve.len() as f64;
            for &(ch, f, v) in &curve {
                acc[ch] += v - mean;
                counts[ch] += 1;
                freqs[ch] = f;
            }
        }

        // Channel-wise average, then de-line over frequency.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut averaged = vec![f64::NAN; channel_count];
        for ch in 0..channel_count {
            if counts[ch] > 0 {
                let v = acc[ch] / counts[ch] as f64;
                averaged[ch] = v;
                xs.push(freqs[ch]);
                ys.push(v);
            }
        }
        let theta_material: Vec<f64> = match rfp_dsp::linfit::ols(&xs, &ys) {
            Ok(fit) => (0..channel_count)
                .map(|ch| {
                    if counts[ch] > 0 {
                        averaged[ch] - fit.predict(freqs[ch])
                    } else {
                        0.0
                    }
                })
                .collect(),
            Err(_) => vec![0.0; channel_count],
        };

        MaterialFeatures { kt_material, bt_material, theta_material }
    }

    fn clean_scene() -> Scene {
        Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal())
    }

    fn observations_for(
        scene: &Scene,
        tag: &SimTag,
        seed: u64,
    ) -> Vec<AntennaObservation> {
        let survey = scene.survey(tag, seed);
        scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect()
    }

    /// Full loop: calibrate bare tag, attach material, sense, extract
    /// features — `k_t` material term must match the physics.
    #[test]
    fn features_recover_material_slope() {
        let scene = clean_scene();
        let calib_pos = Vec2::new(0.5, 1.0);
        let bare = SimTag::with_seeded_diversity(7)
            .with_motion(Motion::planar_static(calib_pos, 0.0));
        let calib = crate::calibration::DeviceCalibration::from_observations(
            &observations_for(&scene, &bare, 1),
            calib_pos,
            0.0,
        );

        let loaded = bare
            .attached_to(Material::Glass)
            .with_motion(Motion::planar_static(Vec2::new(0.8, 1.8), 0.7));
        let obs = observations_for(&scene, &loaded, 2);
        let est = solve_2d(&obs, scene.region(), &SolverConfig::default()).unwrap();
        let feats = MaterialFeatures::extract(&obs, &est, &calib, 50);

        let plan = &scene.reader().plan;
        let kt_truth = loaded.electrical().linearized(plan).kt
            - bare.electrical().linearized(plan).kt;
        assert!(
            (feats.kt_material - kt_truth).abs() < 2e-9,
            "kt_material {} vs truth {kt_truth}",
            feats.kt_material
        );
        assert_eq!(feats.dim(), 52);
        assert!(feats.theta_material.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn free_space_features_are_near_zero() {
        let scene = clean_scene();
        let calib_pos = Vec2::new(0.5, 1.0);
        let bare = SimTag::with_seeded_diversity(8)
            .with_motion(Motion::planar_static(calib_pos, 0.0));
        let calib = crate::calibration::DeviceCalibration::from_observations(
            &observations_for(&scene, &bare, 3),
            calib_pos,
            0.0,
        );
        // Sense the *same bare tag* somewhere else: material features ≈ 0.
        let moved = bare.with_motion(Motion::planar_static(Vec2::new(1.2, 2.0), 1.0));
        let obs = observations_for(&scene, &moved, 4);
        let est = solve_2d(&obs, scene.region(), &SolverConfig::default()).unwrap();
        let feats = MaterialFeatures::extract(&obs, &est, &calib, 50);
        assert!(feats.kt_material.abs() < 2e-9, "kt {}", feats.kt_material);
        let mean_theta: f64 = feats.theta_material.iter().map(|t| t.abs()).sum::<f64>()
            / feats.theta_material.len() as f64;
        assert!(mean_theta < 0.3, "mean |θ_material| {mean_theta}");
    }

    /// Quantized (R420) surveys carry phase codes, so the table lookups
    /// kick in — and must leave the material feature vector bitwise
    /// unchanged relative to the same surveys with their codes stripped
    /// (libm) all the way through calibration, solving and de-lining.
    #[test]
    fn features_are_invariant_to_phase_codes() {
        let scene = Scene::standard_2d().with_noise(NoiseModel::clean());
        let calib_pos = Vec2::new(0.5, 1.0);
        let bare = SimTag::with_seeded_diversity(7)
            .with_motion(Motion::planar_static(calib_pos, 0.0));
        let loaded = bare
            .attached_to(Material::Glass)
            .with_motion(Motion::planar_static(Vec2::new(0.8, 1.8), 0.7));

        let features_with = |strip_codes: bool| {
            let config = ExtractConfig::paper();
            let obs_for = |tag: &SimTag, seed: u64| -> Vec<AntennaObservation> {
                let survey = scene.survey(tag, seed);
                scene
                    .antenna_poses()
                    .iter()
                    .zip(&survey.per_antenna)
                    .map(|(&p, reads)| {
                        let reads: Vec<RawRead> = reads
                            .iter()
                            .map(|r| RawRead {
                                phase_code: if strip_codes { None } else { r.phase_code },
                                ..*r
                            })
                            .collect();
                        extract_observation(p, &reads, &config).unwrap()
                    })
                    .collect()
            };
            let calib = crate::calibration::DeviceCalibration::from_observations(
                &obs_for(&bare, 1),
                calib_pos,
                0.0,
            );
            let obs = obs_for(&loaded, 2);
            let est = solve_2d(&obs, scene.region(), &SolverConfig::default()).unwrap();
            MaterialFeatures::extract(&obs, &est, &calib, 50)
        };

        let coded = features_with(false);
        let stripped = features_with(true);
        assert_eq!(coded, stripped, "table lookups must not perturb features");
    }

    /// `obs` without the channels in `dropped`.
    fn without_channels(obs: &AntennaObservation, dropped: &[usize]) -> AntennaObservation {
        let kept = |c: &rfp_dsp::ChannelObservation| !dropped.contains(&c.channel);
        let mut o = obs.clone();
        o.channel_inliers =
            obs.channels.iter().zip(&obs.channel_inliers).filter(|(c, _)| kept(c)).map(|(_, &i)| i).collect();
        o.channels.retain(kept);
        o
    }

    /// The features' bits.
    fn feature_bits(f: &MaterialFeatures) -> Vec<u64> {
        [f.kt_material, f.bt_material].iter().chain(&f.theta_material).map(|v| v.to_bits()).collect()
    }

    /// Pin: `extract` reproduces the pre-rework body bit for bit on
    /// calibrated tags of four materials, in a clean room, with the
    /// default read noise and in a cluttered room (robust fits that reject
    /// channels); with channels missing from the calibration, missing from
    /// the sensing pass (different ones per antenna) or both; and at a
    /// `channel_count` below, equal to and above the plan's 50, down to a
    /// single channel (too few to de-line).
    #[test]
    fn extract_matches_the_reference_bit_for_bit() {
        use rfp_sim::MultipathEnvironment;
        let scenes = [
            ("clean", clean_scene()),
            ("noisy", Scene::standard_2d()),
            ("cluttered", Scene::standard_2d().with_environment(MultipathEnvironment::cluttered(3, 5))),
        ];
        let materials = [Material::Glass, Material::Water, Material::Wood, Material::Plastic];
        let calib_pos = Vec2::new(0.5, 1.0);
        let mut pinned = 0;
        for (label, scene) in &scenes {
            for (k, &material) in materials.iter().enumerate() {
                let seed = 20 + k as u64;
                let bare = SimTag::with_seeded_diversity(seed)
                    .with_motion(Motion::planar_static(calib_pos, 0.0));
                let calib_obs = observations_for(scene, &bare, seed);
                let loaded = bare.attached_to(material).with_motion(Motion::planar_static(
                    Vec2::new(-0.6 + 0.4 * k as f64, 1.3 + 0.2 * k as f64),
                    0.4 * k as f64,
                ));
                let obs = observations_for(scene, &loaded, seed + 100);
                let est = solve_2d(&obs, scene.region(), &SolverConfig::default()).unwrap();

                let gappy_calib: Vec<AntennaObservation> =
                    calib_obs.iter().map(|o| without_channels(o, &[0, 3, 4, 20, 41])).collect();
                let gappy_pass: Vec<AntennaObservation> = obs
                    .iter()
                    .enumerate()
                    .map(|(a, o)| without_channels(o, &[7 + a, 8, 30 + 5 * a, 49]))
                    .collect();
                let full = DeviceCalibration::from_observations(&calib_obs, calib_pos, 0.0);
                let gappy = DeviceCalibration::from_observations(&gappy_calib, calib_pos, 0.0);
                let cases = [
                    ("full", &full, &obs),
                    ("calibration gaps", &gappy, &obs),
                    ("pass gaps", &full, &gappy_pass),
                    ("both gaps", &gappy, &gappy_pass),
                ];
                for (case, calibration, pass) in cases {
                    for channel_count in [50, 64, 40, 7, 1] {
                        let actual = MaterialFeatures::extract(pass, &est, calibration, channel_count);
                        let expected = extract_reference(pass, &est, calibration, channel_count);
                        let what = format!("{label} {material:?}, {case}, {channel_count} channels");
                        assert_eq!(feature_bits(&actual), feature_bits(&expected), "{what}");
                        pinned += 1;
                    }
                }
            }
        }
        assert_eq!(pinned, 3 * 4 * 4 * 5);
        // The cluttered room rejects channels, so inlier masks are exercised.
        let cluttered = observations_for(&scenes[2].1, &SimTag::with_seeded_diversity(20), 20);
        assert!(cluttered.iter().any(|o| o.channel_inliers.iter().any(|&i| !i)));
    }

    #[test]
    fn to_vector_layout() {
        let f = MaterialFeatures {
            kt_material: 2.0e-8,
            bt_material: -0.5,
            theta_material: vec![0.1, 0.2],
        };
        let v = f.to_vector();
        assert_eq!(v.len(), 4);
        assert!((v[0] - 0.02).abs() < 1e-12); // rad/MHz scaling
        assert_eq!(v[1], -0.5);
        assert_eq!(&v[2..], &[0.1, 0.2]);
    }
}
