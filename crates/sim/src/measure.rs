//! The measurement engine: runs a hop round and produces raw reads.
//!
//! For every dwell the reader time-multiplexes its antenna ports and
//! inventories the tag several times per port (the R420 reads a lone tag
//! tens of times per 200 ms dwell; we default to 8 per antenna). Each read
//! is assembled from the shared forward models plus the scene's corruption:
//!
//! ```text
//! θ = θ_prop(d(t), f) + θ_orient(A, w(t)) + θ_tag(f) + θ_reader(A)
//!     + multipath_deviation(A, f) + N(0, σ²) + π·Bernoulli(p)
//! ```
//!
//! then quantized and wrapped exactly like an LLRP phase report. The tag's
//! position/dipole are evaluated at the read's true timestamp, so a tag
//! that moves mid-round smears its phase line — which is what the paper's
//! error detector looks for.

use crate::scene::Scene;
use crate::tag::SimTag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::angle;
use rfp_phys::polarization::{orientation_phase, projection_magnitude};
use rfp_phys::rssi::{rssi_dbm, SENSITIVITY_FLOOR_DBM};
use rfp_phys::{propagation, Material};

/// The raw reads of one full hop round, grouped per antenna.
#[derive(Debug, Clone, PartialEq)]
pub struct HopSurvey {
    /// `per_antenna[i]` holds antenna *i*'s reads in time order.
    pub per_antenna: Vec<Vec<RawRead>>,
    /// The channel visit order used by this round.
    pub hop_order: Vec<usize>,
    /// Ground-truth material of the surveyed tag (experiment bookkeeping;
    /// never shown to the sensing pipeline).
    pub truth_material: Material,
}

impl HopSurvey {
    /// Number of antennas surveyed.
    pub fn antenna_count(&self) -> usize {
        self.per_antenna.len()
    }

    /// Total number of reads across antennas.
    pub fn total_reads(&self) -> usize {
        self.per_antenna.iter().map(Vec::len).sum()
    }
}

/// Runs one hop round (see [`Scene::survey`]).
pub(crate) fn run_survey(scene: &Scene, tag: &SimTag, seed: u64) -> HopSurvey {
    let reader = scene.reader();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag.id());
    let hop_order = reader.hop_order(seed);
    let n_ant = scene.antennas().len();
    let noise = scene.noise();
    let electrical = tag.electrical();
    let motion = tag.motion();

    let mut per_antenna: Vec<Vec<RawRead>> = vec![Vec::new(); n_ant];
    let reads_total_per_dwell = reader.reads_per_channel * n_ant;
    let interference_pattern =
        scene.interference().dwell_pattern(hop_order.len(), seed);

    for (slot, &channel) in hop_order.iter().enumerate() {
        let f = reader.plan.frequency_hz(channel);
        let t0 = slot as f64 * reader.dwell_s;
        for r in 0..reader.reads_per_channel {
            for (ai, antenna) in scene.antennas().iter().enumerate() {
                let within = (r * n_ant + ai) as f64 + 0.5;
                let t = t0 + reader.dwell_s * within / reads_total_per_dwell as f64;

                if rng.gen::<f64>() < noise.drop_probability {
                    continue;
                }

                let position = motion.position(t);
                let dipole = motion.dipole(t);
                let d = antenna.pose.distance_to(position);
                let projection = projection_magnitude(&antenna.pose, dipole);
                let (mp_phase, mp_mag) =
                    scene.environment().deviation(antenna.pose.position(), position, f);

                let interfered = interference_pattern[slot];
                let mut rssi_clean = rssi_dbm(d, f, electrical, projection)
                    + 20.0 * mp_mag.max(1e-6).log10();
                if interfered {
                    rssi_clean -= scene.interference().rssi_drop_db;
                }
                let rssi = rssi_clean + crate::noise::NoiseModel::gaussian(&mut rng, noise.rssi_std_db);
                if rssi < SENSITIVITY_FLOOR_DBM {
                    continue; // tag not inventoried on this attempt
                }

                let mut phase_std = noise.phase_std_at(rssi_clean);
                if interfered {
                    phase_std = phase_std.hypot(scene.interference().phase_std_rad);
                }
                let mut phase = propagation::phase(d, f)
                    + orientation_phase(&antenna.pose, dipole)
                    + electrical.device_phase(f)
                    + antenna.hardware_phase_offset
                    + mp_phase
                    + crate::noise::NoiseModel::gaussian(&mut rng, phase_std);
                if rng.gen::<f64>() < noise.pi_jump_probability {
                    phase += std::f64::consts::PI;
                }
                let phase = angle::wrap_tau(reader.quantized_phase(angle::wrap_tau(phase)));

                per_antenna[ai].push(RawRead {
                    channel,
                    frequency_hz: f,
                    phase,
                    rssi_dbm: reader.quantized_rssi(rssi),
                    timestamp_s: t,
                    // Exactly on the 12-bit grid whenever the reader
                    // quantizes (the quantized-then-wrapped phase is a
                    // grid point bitwise), None on ideal readers — this
                    // is what engages the front end's table trig path.
                    phase_code: rfp_dsp::trig::code_for_phase(phase),
                });
            }
        }
    }

    HopSurvey { per_antenna, hop_order, truth_material: tag.material() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::Motion;
    use crate::multipath::MultipathEnvironment;
    use crate::noise::NoiseModel;
    use crate::reader::ReaderConfig;
    use rfp_dsp::preprocess::{preprocess_reads, PreprocessConfig};
    use rfp_dsp::linfit::ols;
    use rfp_geom::Vec2;
    use rfp_phys::FrequencyPlan;

    fn clean_scene() -> Scene {
        Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal())
    }

    fn static_tag(x: f64, y: f64, alpha: f64) -> SimTag {
        SimTag::nominal(1).with_motion(Motion::planar_static(Vec2::new(x, y), alpha))
    }

    #[test]
    fn read_counts_match_schedule() {
        let scene = clean_scene();
        let survey = scene.survey(&static_tag(0.5, 1.5, 0.3), 1);
        assert_eq!(survey.antenna_count(), 3);
        for reads in &survey.per_antenna {
            assert_eq!(reads.len(), 50 * 8);
        }
        assert_eq!(survey.total_reads(), 3 * 50 * 8);
    }

    #[test]
    fn clean_reads_match_forward_model_exactly() {
        let scene = clean_scene();
        let tag = static_tag(0.2, 1.2, 0.5);
        let survey = scene.survey(&tag, 2);
        let pos = tag.motion().position(0.0);
        let dip = tag.motion().dipole(0.0);
        for (ai, reads) in survey.per_antenna.iter().enumerate() {
            let pose = scene.antennas()[ai].pose;
            for read in reads {
                let expect = angle::wrap_tau(
                    propagation::phase(pose.distance_to(pos), read.frequency_hz)
                        + orientation_phase(&pose, dip)
                        + tag.electrical().device_phase(read.frequency_hz),
                );
                assert!(
                    angle::distance(read.phase, expect) < 1e-9,
                    "antenna {ai} channel {}: got {} want {expect}",
                    read.channel,
                    read.phase
                );
            }
        }
    }

    #[test]
    fn fitted_slope_recovers_distance_plus_material_term() {
        let scene = clean_scene();
        let tag = SimTag::nominal(3)
            .attached_to(Material::Glass)
            .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.0));
        let survey = scene.survey(&tag, 3);
        let obs =
            preprocess_reads(&survey.per_antenna[0], &PreprocessConfig::default()).unwrap();
        let xs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
        let ys: Vec<f64> = obs.iter().map(|o| o.phase).collect();
        let fit = ols(&xs, &ys).unwrap();
        let d = scene.antennas()[0].pose.distance_to(tag.motion().position(0.0));
        let expected_k = propagation::slope_from_distance(d)
            + tag.electrical().linearized(&scene.reader().plan).kt;
        assert!(
            (fit.slope - expected_k).abs() < 2e-10,
            "slope {} vs expected {expected_k}",
            fit.slope
        );
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn survey_is_deterministic_per_seed() {
        let scene = Scene::standard_2d();
        let tag = static_tag(0.7, 2.0, 1.0);
        assert_eq!(scene.survey(&tag, 9), scene.survey(&tag, 9));
        assert_ne!(scene.survey(&tag, 9), scene.survey(&tag, 10));
    }

    /// rfp-dsp's table grid must be the reader's LLRP grid: the two
    /// crates define the LSB independently (rfp-dsp does not depend on
    /// rfp-phys), so pin them bit-equal here where both are visible.
    #[test]
    fn dsp_phase_grid_matches_reader_lsb() {
        assert_eq!(
            rfp_dsp::trig::PHASE_LSB_RAD.to_bits(),
            rfp_phys::constants::IMPINJ_PHASE_LSB_RAD.to_bits()
        );
        assert_eq!(rfp_dsp::trig::PHASE_CODES, 4096);
    }

    /// A quantizing reader's survey carries a phase code on every read
    /// (so the front end's table path engages end to end), and every code
    /// reproduces its phase exactly; an ideal reader's continuous phases
    /// carry none.
    #[test]
    fn quantized_surveys_carry_phase_codes() {
        let tag = static_tag(0.6, 1.7, 0.4);
        let quantized = Scene::standard_2d().survey(&tag, 11);
        let mut reads = 0usize;
        for r in quantized.per_antenna.iter().flatten() {
            reads += 1;
            let code = r.phase_code.expect("R420 reads are on the 12-bit grid");
            assert_eq!(
                (code as f64 * rfp_dsp::trig::PHASE_LSB_RAD).to_bits(),
                r.phase.to_bits(),
                "code {code} does not reproduce phase {:e}",
                r.phase
            );
        }
        assert!(reads > 100, "survey too small to be meaningful: {reads}");

        let ideal = Scene::standard_2d().with_reader(ReaderConfig::ideal()).survey(&tag, 11);
        assert!(
            ideal.per_antenna.iter().flatten().all(|r| r.phase_code.is_none()),
            "continuous phases must not claim grid codes"
        );
    }

    /// Reader noise spreads the reads of a channel and a clean scene does
    /// not. The spread is the mean, over antenna 0's channels, of the
    /// circular std of a channel's doubled phases (doubling folds the π
    /// jumps away), halved back to phase radians.
    #[test]
    fn noise_widens_phase_spread() {
        let tag = static_tag(0.5, 1.5, 0.0);
        let clean = clean_scene().survey(&tag, 4);
        let noisy = Scene::standard_2d()
            .with_reader(ReaderConfig::ideal())
            .survey(&tag, 4);
        let spread = |s: &HopSurvey| {
            let reads = &s.per_antenna[0];
            let mut channels: Vec<usize> = reads.iter().map(|r| r.channel).collect();
            channels.sort_unstable();
            channels.dedup();
            let total: f64 = channels
                .iter()
                .map(|&c| {
                    let doubled = reads.iter().filter(|r| r.channel == c).map(|r| 2.0 * r.phase);
                    angle::circular_std(doubled).expect("a channel holds reads") / 2.0
                })
                .sum();
            total / channels.len() as f64
        };
        assert!(spread(&clean) < 1e-6);
        let sp = spread(&noisy);
        assert!(sp > 0.003 && sp < 0.3, "spread {sp}");
    }

    #[test]
    fn pi_jumps_survive_round_trip_correction() {
        // With π jumps on, pre-processing must still recover the clean line.
        let scene = Scene::standard_2d().with_reader(ReaderConfig::ideal()).with_noise(
            NoiseModel { phase_std_rad: 0.05, pi_jump_probability: 0.25, ..NoiseModel::clean() },
        );
        let tag = static_tag(0.4, 1.1, 0.2);
        let survey = scene.survey(&tag, 5);
        let obs =
            preprocess_reads(&survey.per_antenna[1], &PreprocessConfig::default()).unwrap();
        let xs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
        let ys: Vec<f64> = obs.iter().map(|o| o.phase).collect();
        let fit = ols(&xs, &ys).unwrap();
        assert!(fit.residual_std < 0.1, "residual {}", fit.residual_std);
    }

    #[test]
    fn moving_tag_breaks_linearity() {
        // With the real reader's *random* hop order, motion scatters the
        // phase-vs-frequency samples; a sequential order would alias
        // constant velocity into a slope bias instead.
        let scene = clean_scene().with_reader(ReaderConfig {
            randomize_hop_order: true,
            ..ReaderConfig::ideal()
        });
        let still = scene.survey(&static_tag(0.2, 1.0, 0.0), 6);
        let moving = scene.survey(
            &SimTag::nominal(1).with_motion(Motion::planar_linear(
                Vec2::new(0.2, 1.0),
                Vec2::new(0.05, 0.02), // 5 cm/s drift during the 10 s round
                0.0,
            )),
            6,
        );
        let resid = |s: &HopSurvey| {
            let obs =
                preprocess_reads(&s.per_antenna[0], &PreprocessConfig::default()).unwrap();
            let xs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
            let ys: Vec<f64> = obs.iter().map(|o| o.phase).collect();
            ols(&xs, &ys).unwrap().residual_std
        };
        assert!(resid(&still) < 0.01, "still residual {}", resid(&still));
        assert!(resid(&moving) > 0.3, "moving residual {}", resid(&moving));
    }

    #[test]
    fn multipath_corrupts_a_minority_of_channels() {
        let scene = clean_scene();
        let cluttered = clean_scene()
            .with_environment(MultipathEnvironment::cluttered(3, 11));
        let tag = static_tag(0.9, 1.8, 0.4);
        let base = scene.survey(&tag, 7);
        let mp = cluttered.survey(&tag, 7);
        let line_resid = |s: &HopSurvey| {
            let obs =
                preprocess_reads(&s.per_antenna[2], &PreprocessConfig::default()).unwrap();
            let xs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
            let ys: Vec<f64> = obs.iter().map(|o| o.phase).collect();
            ols(&xs, &ys).unwrap().residual_std
        };
        assert!(line_resid(&mp) > 3.0 * line_resid(&base).max(1e-6));
    }

    #[test]
    fn subsampled_plan_yields_fewer_channels() {
        let scene = clean_scene().with_reader(
            ReaderConfig::ideal().with_plan(FrequencyPlan::fcc_us_subsampled(10)),
        );
        let survey = scene.survey(&static_tag(0.5, 1.5, 0.0), 8);
        let channels: std::collections::BTreeSet<usize> =
            survey.per_antenna[0].iter().map(|r| r.channel).collect();
        assert_eq!(channels.len(), 10);
    }

    #[test]
    fn truth_material_recorded() {
        let tag = SimTag::nominal(2)
            .attached_to(Material::Alcohol)
            .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.0));
        let survey = clean_scene().survey(&tag, 12);
        assert_eq!(survey.truth_material, Material::Alcohol);
    }
}

#[cfg(test)]
mod interference_tests {
    use super::*;
    use crate::interference::InterferenceModel;
    use crate::motion::Motion;
    use crate::noise::NoiseModel;
    use crate::reader::ReaderConfig;
    use rfp_dsp::preprocess::{preprocess_reads, PreprocessConfig};
    use rfp_dsp::robust::{robust_line_fit, RobustFitConfig};
    use rfp_geom::Vec2;

    #[test]
    fn bursts_corrupt_a_minority_of_channels_and_get_rejected() {
        // Transient interference behaves like the paper says: it hits whole
        // dwells (= channels), and the robust fit rejects them like
        // multipath outliers.
        let scene = Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal())
            .with_interference(InterferenceModel::occasional());
        let tag = SimTag::nominal(1)
            .with_motion(Motion::planar_static(Vec2::new(0.5, 1.4), 0.3));
        let survey = scene.survey(&tag, 11);
        let obs =
            preprocess_reads(&survey.per_antenna[0], &PreprocessConfig::default()).unwrap();
        let xs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
        let ys: Vec<f64> = obs.iter().map(|o| o.phase).collect();
        let r = robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap();
        let rejected = r.inliers.iter().filter(|&&k| !k).count();
        assert!(rejected >= 1, "some interfered channels must be rejected");
        assert!(
            rejected <= 20,
            "interference must stay a minority ({rejected} rejected)"
        );
        assert!(r.fit.residual_std < 0.05, "clean after rejection: {}", r.fit.residual_std);
    }

    #[test]
    fn interference_costs_little_after_suppression() {
        use rfp_phys::propagation;
        let base = Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let noisy = base.clone().with_interference(InterferenceModel::occasional());
        let tag = SimTag::nominal(1)
            .with_motion(Motion::planar_static(Vec2::new(0.7, 1.7), 0.2));
        let d = base.antennas()[1].pose.distance_to(tag.motion().position(0.0));
        let kt = tag.electrical().linearized(&base.reader().plan).kt;
        let k_true = propagation::slope_from_distance(d) + kt;

        let slope_of = |scene: &Scene, seed: u64| {
            let survey = scene.survey(&tag, seed);
            let obs =
                preprocess_reads(&survey.per_antenna[1], &PreprocessConfig::default())
                    .unwrap();
            let xs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
            let ys: Vec<f64> = obs.iter().map(|o| o.phase).collect();
            robust_line_fit(&xs, &ys, &RobustFitConfig::default()).unwrap().fit.slope
        };
        let mut worst_bias_cm = 0.0f64;
        for seed in 0..6u64 {
            let bias =
                (slope_of(&noisy, seed) - k_true).abs() * 3.0e8 / (4.0 * std::f64::consts::PI);
            worst_bias_cm = worst_bias_cm.max(bias * 100.0);
        }
        assert!(
            worst_bias_cm < 3.0,
            "post-suppression slope bias {worst_bias_cm} cm too large"
        );
    }
}
