//! Property-based integration tests: invariants of the forward model and
//! the disentangler over randomized physical configurations, and the
//! public entry points' contract on hostile reads.

use proptest::prelude::*;
use rf_prism::core::material::ClassifierKind;
use rf_prism::core::model::{extract_observation, ExtractConfig};
use rf_prism::core::solver::{solve_2d, SolverConfig};
use rf_prism::core::{InventorySensor, ItemOutcome, RfPrism3D, TagEstimate3D};
use rf_prism::dsp::preprocess::RawRead;
use rf_prism::geom::angle;
use rf_prism::ml::dataset::Dataset;
use rf_prism::prelude::*;
use std::sync::OnceLock;

fn clean_scene() -> Scene {
    Scene::standard_2d()
        .with_noise(NoiseModel::clean())
        .with_reader(ReaderConfig::ideal())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Noise-free forward → inverse round trip: for any tag placement,
    /// orientation and material, the solver recovers the position to
    /// centimetres (only the arctangent curvature of the device phase is
    /// unmodelled) and the orientation modulo π.
    #[test]
    fn forward_inverse_round_trip(
        x in -0.45f64..1.45,
        y in 0.55f64..2.45,
        alpha in 0.0f64..std::f64::consts::PI,
        material_idx in 0usize..8,
        tag_seed in 0u64..50,
    ) {
        let scene = clean_scene();
        let material = Material::from_class_index(material_idx);
        let tag = SimTag::with_seeded_diversity(tag_seed)
            .attached_to(material)
            .with_motion(Motion::planar_static(Vec2::new(x, y), alpha));
        let survey = scene.survey(&tag, 1);
        let observations: Vec<_> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .filter_map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
            .collect();
        // Heavy loading at the region's far corners can push the RSSI below
        // the reader's sensitivity floor — a physically unreadable
        // configuration, not a solver failure. Skip those draws.
        prop_assume!(observations.len() >= 3);
        let est = solve_2d(&observations, scene.region(), &SolverConfig::default()).unwrap();
        let pos_err = est.position.distance(Vec2::new(x, y));
        prop_assert!(pos_err < 0.10, "position error {pos_err} m at ({x},{y}) on {material}");
        let orient_err = angle::dipole_distance(est.orientation, alpha);
        // The only unmodelled term in a noise-free scene is the device
        // phase's arctangent curvature; the robust fit may reject slightly
        // different channel subsets per antenna, which perturbs the
        // intercept differences by up to ~0.15 rad for the heavy-loading
        // materials.
        prop_assert!(
            orient_err < 0.16,
            "orientation error {}° at alpha {}°",
            orient_err.to_degrees(),
            alpha.to_degrees()
        );
    }

    /// Eq. (1) round trip at full depth: entangle a random pose in the
    /// simulator, disentangle, and recover *all five* unknowns —
    /// `(x, y, α, k_t, b_t)` — not just the pose. Ground truth for the
    /// device-phase line is the least-squares linearization of
    /// `θ_tag(f)` over the hop plan's channels
    /// ([`TagElectrical::linearized`]), which is exactly the `(k_t, b_t)`
    /// of Eq. (5) the solver models. In a noise-free scene the recovery
    /// is limited only by floating point (observed errors are
    /// ~1e-20 rad/Hz in `k_t`, ~1e-12 rad in `b_t`); the tolerances
    /// below leave several orders of magnitude of slack.
    #[test]
    fn eq1_round_trip_recovers_all_five_parameters(
        x in -0.45f64..1.45,
        y in 0.55f64..2.45,
        alpha in 0.0f64..std::f64::consts::PI,
        material_idx in 0usize..8,
        tag_seed in 0u64..50,
    ) {
        let scene = clean_scene();
        let material = Material::from_class_index(material_idx);
        let tag = SimTag::with_seeded_diversity(tag_seed)
            .attached_to(material)
            .with_motion(Motion::planar_static(Vec2::new(x, y), alpha));
        let survey = scene.survey(&tag, tag_seed.wrapping_mul(41));
        let observations: Vec<_> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .filter_map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
            .collect();
        prop_assume!(observations.len() >= 3);
        let est = solve_2d(&observations, scene.region(), &SolverConfig::default()).unwrap();
        let truth = tag.electrical().linearized(&scene.reader().plan);

        let pos_err = est.position.distance(Vec2::new(x, y));
        prop_assert!(pos_err < 1e-5, "position error {pos_err} m");
        let orient_err = angle::dipole_distance(est.orientation, alpha);
        prop_assert!(orient_err < 1e-5, "orientation error {orient_err} rad");
        let kt_err = (est.kt - truth.kt).abs();
        prop_assert!(
            kt_err < 1e-14,
            "k_t error {kt_err} rad/Hz (est {}, truth {})",
            est.kt,
            truth.kt
        );
        let bt_err = angle::distance(est.bt, angle::wrap_tau(truth.bt));
        prop_assert!(
            bt_err < 1e-5,
            "b_t error {bt_err} rad (est {}, truth {})",
            est.bt,
            truth.bt
        );
    }

    /// The measured phase of every read is the forward model exactly
    /// (mod 2π) in a noise-free scene — the simulator adds nothing else.
    #[test]
    fn simulator_is_the_forward_model(
        x in -0.4f64..1.4,
        y in 0.6f64..2.4,
        alpha in 0.0f64..std::f64::consts::PI,
    ) {
        use rf_prism::phys::{polarization, propagation};
        let scene = clean_scene();
        let tag = SimTag::nominal(1).with_motion(Motion::planar_static(Vec2::new(x, y), alpha));
        let survey = scene.survey(&tag, 2);
        let pos = Vec2::new(x, y).with_z(0.0);
        let dip = polarization::planar_dipole(alpha);
        for (pose, reads) in scene.antenna_poses().iter().zip(&survey.per_antenna) {
            for read in reads.iter().step_by(37) {
                let expect = propagation::phase(pose.distance_to(pos), read.frequency_hz)
                    + polarization::orientation_phase(pose, dip)
                    + tag.electrical().device_phase(read.frequency_hz);
                prop_assert!(angle::distance(read.phase, angle::wrap_tau(expect)) < 1e-9);
            }
        }
    }

    /// π-jump injection never changes the extracted line parameters
    /// (pre-processing must remove the jumps entirely).
    #[test]
    fn pi_jumps_are_invisible_after_preprocessing(
        x in -0.4f64..1.4,
        y in 0.6f64..2.4,
        jump_p in 0.05f64..0.35,
    ) {
        let base = clean_scene();
        let jumpy = clean_scene().with_noise(NoiseModel {
            pi_jump_probability: jump_p,
            ..NoiseModel::clean()
        });
        let tag = SimTag::nominal(1).with_motion(Motion::planar_static(Vec2::new(x, y), 0.3));
        let survey_a = base.survey(&tag, 3);
        let survey_b = jumpy.survey(&tag, 3);
        for ((pose, ra), rb) in base
            .antenna_poses()
            .iter()
            .zip(&survey_a.per_antenna)
            .zip(&survey_b.per_antenna)
        {
            let oa = extract_observation(*pose, ra, &ExtractConfig::paper()).unwrap();
            let ob = extract_observation(*pose, rb, &ExtractConfig::paper()).unwrap();
            prop_assert!((oa.slope - ob.slope).abs() < 1e-12, "slope changed");
            prop_assert!(
                angle::distance(oa.intercept, ob.intercept) < 1e-9,
                "intercept changed"
            );
        }
    }

    /// The estimate is invariant to the hop order (a different reader
    /// schedule must not change what a static tag looks like).
    #[test]
    fn hop_order_is_irrelevant_for_static_tags(seed in 0u64..200) {
        let ascending = clean_scene();
        let random_order = clean_scene().with_reader(ReaderConfig {
            randomize_hop_order: true,
            ..ReaderConfig::ideal()
        });
        let tag = SimTag::nominal(1)
            .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.7));
        let sa = ascending.survey(&tag, seed);
        let sb = random_order.survey(&tag, seed);
        let pose = ascending.antenna_poses()[0];
        let oa = extract_observation(pose, &sa.per_antenna[0], &ExtractConfig::paper()).unwrap();
        let ob = extract_observation(pose, &sb.per_antenna[0], &ExtractConfig::paper()).unwrap();
        prop_assert!((oa.slope - ob.slope).abs() < 1e-12);
        prop_assert!(angle::distance(oa.intercept, ob.intercept) < 1e-9);
    }
}

/// Pinned regression (see `properties.proptest-regressions`): this exact
/// draw used to fail `forward_inverse_round_trip` by locking onto a
/// spurious twin-α mode whose phase residuals beat the truth's. The RSSI
/// mode penalty (DESIGN.md §4) now rules the impostor out; this keeps the
/// case running deterministically on every build.
#[test]
fn pinned_regression_twin_alpha_mode() {
    let (x, y, alpha) = (0.0, 2.386_972_515_964_244_3, 1.677_101_627_970_423_2);
    let scene = clean_scene();
    let tag = SimTag::with_seeded_diversity(0)
        .attached_to(Material::from_class_index(3))
        .with_motion(Motion::planar_static(Vec2::new(x, y), alpha));
    let survey = scene.survey(&tag, 1);
    let observations: Vec<_> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .filter_map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
        .collect();
    assert!(observations.len() >= 3, "regression scene must stay readable");
    let est = solve_2d(&observations, scene.region(), &SolverConfig::default()).unwrap();
    let pos_err = est.position.distance(Vec2::new(x, y));
    assert!(pos_err < 0.10, "position error {pos_err} m");
    let orient_err = angle::dipole_distance(est.orientation, alpha);
    assert!(
        orient_err < 0.16,
        "orientation error {}° — twin-α mode resurfaced?",
        orient_err.to_degrees()
    );
}

/// The values a hostile read's phase, frequency, RSSI or timestamp takes.
const HOSTILE_VALUES: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300, -0.0];

/// The channels a hostile read claims: past the 50-channel plan, at the
/// front end's last slot, past it, and the largest index.
const HOSTILE_CHANNELS: [usize; 4] = [50, 65_535, 65_536, usize::MAX];

/// The number of ways [`corrupt`] can break a read.
const HOSTILE_KINDS: usize = 4 * HOSTILE_VALUES.len() + HOSTILE_CHANNELS.len() + 1;

/// Breaks `read` in way `kind`: its phase, frequency, RSSI or timestamp
/// takes a hostile value, its channel a hostile index, or (the last kind)
/// its phase moves a radian while its phase code stays behind.
fn corrupt(read: &mut RawRead, kind: usize) {
    let fields = 4 * HOSTILE_VALUES.len();
    if kind < fields {
        let value = HOSTILE_VALUES[kind % HOSTILE_VALUES.len()];
        match kind / HOSTILE_VALUES.len() {
            0 => read.phase = value,
            1 => read.frequency_hz = value,
            2 => read.rssi_dbm = value,
            _ => read.timestamp_s = value,
        }
    } else if kind < fields + HOSTILE_CHANNELS.len() {
        read.channel = HOSTILE_CHANNELS[kind - fields];
    } else {
        read.phase = (read.phase + 1.0) % std::f64::consts::TAU;
    }
}

/// Breaks one read of antenna `antenna % reads.len()` (the
/// `read % len`-th), or every read of it when `whole_antenna` is set.
fn corrupt_survey(
    reads: &mut [Vec<RawRead>],
    kind: usize,
    antenna: usize,
    read: usize,
    whole_antenna: bool,
) {
    let group = &mut reads[antenna % reads.len()];
    if whole_antenna {
        group.iter_mut().for_each(|r| corrupt(r, kind));
    } else if !group.is_empty() {
        let at = read % group.len();
        corrupt(&mut group[at], kind);
    }
}

fn finite_2d(e: &TagEstimate2D) -> bool {
    [e.position.x, e.position.y, e.orientation, e.kt, e.bt, e.residual_rms]
        .into_iter()
        .all(f64::is_finite)
}

fn finite_3d(e: &TagEstimate3D) -> bool {
    [e.position, e.dipole]
        .iter()
        .flat_map(|v| [v.x, v.y, v.z])
        .chain([e.kt, e.bt, e.residual_rms])
        .all(f64::is_finite)
}

/// The tag device every hostile case surveys, and its id in the sensor's
/// calibration database.
const HOSTILE_DEVICE: u64 = 5;

/// What the hostile-input property senses with, built once: the 2-D
/// prism, a warm prior, an inventory sensor with a trained identifier and
/// the surveyed device's calibration installed, and the 3-D prism.
struct HostileFixture {
    scene: Scene,
    prism: RfPrism,
    warm: WarmStart,
    sensor: InventorySensor,
    scene_3d: Scene,
    prism_3d: RfPrism3D,
}

fn hostile_fixture() -> &'static HostileFixture {
    static FIXTURE: OnceLock<HostileFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scene = Scene::standard_2d();
        let prism =
            RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());
        let survey = |material: Material, at: Vec2, seed: u64| {
            let tag = SimTag::with_seeded_diversity(HOSTILE_DEVICE)
                .attached_to(material)
                .with_motion(Motion::planar_static(at, 0.0));
            scene.survey(&tag, seed).per_antenna
        };
        let calib_pos = Vec2::new(0.5, 1.0);
        let bare =
            prism.sense(&survey(Material::FreeSpace, calib_pos, 1)).expect("calibration survey");
        let calibration = DeviceCalibration::from_observations(&bare.observations, calib_pos, 0.0);
        let channel_count = scene.reader().plan.channel_count();
        let mut train = Dataset::new(Material::CLASSES.len());
        for (i, material) in [Material::Wood, Material::Water].into_iter().enumerate() {
            for rep in 0..3 {
                let result = prism
                    .sense(&survey(material, Vec2::new(0.2, 1.3), 10 + 3 * i as u64 + rep))
                    .expect("training survey");
                train.push(
                    result.material_features(&calibration, channel_count).to_vector(),
                    material.class_index().expect("a class"),
                );
            }
        }
        let identifier = MaterialIdentifier::train(&train, &ClassifierKind::paper_default());
        let mut calibrations = CalibrationDb::new();
        calibrations.insert(HOSTILE_DEVICE, calibration);
        let sensor = InventorySensor::new(prism.clone())
            .with_calibrations(calibrations)
            .with_identifier(identifier);
        let scene_3d = Scene::six_antenna_3d();
        let prism_3d = RfPrism3D::new(
            scene_3d.antenna_poses(),
            scene_3d.reader().plan,
            scene_3d.region(),
            (0.0, 1.5),
        );
        HostileFixture {
            warm: WarmStart::from_estimate(&bare.estimate),
            scene,
            prism,
            sensor,
            scene_3d,
            prism_3d,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile input at every public entry point: one read, or every read
    /// of one antenna, of a seeded survey gets a non-finite or ±1e300
    /// phase, frequency, RSSI or timestamp, a −0.0 in one of them, an
    /// out-of-range channel or a stale phase code. `sense`, `sense_warm`,
    /// `take_stock` (identifier and calibration installed, so the material
    /// path runs), a fresh streaming session's `push` and `advance`, and
    /// `RfPrism3D::sense` must not panic, and every estimate they return
    /// must be finite.
    #[test]
    fn hostile_reads_never_panic_or_yield_non_finite_estimates(
        seed in 0u64..10_000,
        u in 0.05f64..0.95,
        v in 0.05f64..0.95,
        w in 0.05f64..0.95,
        alpha in 0.0f64..std::f64::consts::PI,
        tilt in -0.6f64..0.6,
        material_idx in 0usize..8,
        kind in 0usize..HOSTILE_KINDS,
        antenna in 0usize..6,
        read in 0usize..10_000,
        whole_antenna in proptest::bool::ANY,
    ) {
        let fx = hostile_fixture();
        let material = Material::from_class_index(material_idx);
        let device = SimTag::with_seeded_diversity(HOSTILE_DEVICE).attached_to(material);

        let (lo, hi) = (fx.scene.region().min(), fx.scene.region().max());
        let at = Vec2::new(lo.x + u * (hi.x - lo.x), lo.y + v * (hi.y - lo.y));
        let tag = device.clone().with_motion(Motion::planar_static(at, alpha));
        let mut reads = fx.scene.survey(&tag, seed).per_antenna;
        let now = reads.iter().flatten().map(|r| r.timestamp_s).fold(0.0, f64::max);
        corrupt_survey(&mut reads, kind, antenna, read, whole_antenna);

        for (entry, outcome) in [
            ("sense", fx.prism.sense(&reads)),
            ("sense_warm", fx.prism.sense_warm(&reads, Some(&fx.warm))),
        ] {
            if let Ok(result) = outcome {
                prop_assert!(finite_2d(&result.estimate), "{entry}: {:?}", result.estimate);
            }
        }
        for outcome in fx.sensor.take_stock(&[(HOSTILE_DEVICE, reads.clone())]) {
            if let ItemOutcome::Report(report) = outcome {
                prop_assert!(finite_2d(&report.estimate), "take_stock: {:?}", report.estimate);
                prop_assert!(report.material.is_some(), "take_stock skipped the material path");
            }
        }
        let mut session = fx.prism.sense_streaming(fx.scene.reader().round_duration_s());
        for (a, group) in reads.iter().enumerate() {
            group.iter().for_each(|r| session.push(a, r));
        }
        if let Ok(result) = session.advance(now) {
            prop_assert!(finite_2d(&result.estimate), "advance: {:?}", result.estimate);
        }

        let (lo, hi) = (fx.scene_3d.region().min(), fx.scene_3d.region().max());
        let position = Vec3::new(lo.x + u * (hi.x - lo.x), lo.y + v * (hi.y - lo.y), 1.5 * w);
        let dipole = Vec3::new(alpha.cos(), tilt, alpha.sin()).normalized();
        let tag = device.with_motion(Motion::Static { position, dipole });
        let mut reads = fx.scene_3d.survey(&tag, seed).per_antenna;
        corrupt_survey(&mut reads, kind, antenna, read, whole_antenna);
        if let Ok(result) = fx.prism_3d.sense(&reads) {
            prop_assert!(finite_3d(&result.estimate), "3-D sense: {:?}", result.estimate);
        }
    }
}
