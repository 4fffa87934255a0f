//! A read with a non-finite phase, frequency or RSSI, or an out-of-range
//! channel, costs that read, not the window: batch 2-D, batch 3-D and
//! streaming sensing each return, bit for bit, the estimate of the same
//! reads with the bad one removed by hand. A channel's first read at
//! 1e300 Hz overflows its antenna's line fit, and costs that antenna only.
//! A window whose frequencies leave no line to fit fails its extraction
//! with a pinned error variant.

use rfp_core::model::{extract_observation, ExtractConfig, ExtractError};
use rfp_core::{RfPrism, RfPrism3D, SenseError, SensingResult, TagEstimate2D, TagEstimate3D};
use rfp_dsp::linfit::FitError;
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{Vec2, Vec3};
use rfp_sim::{Motion, Scene, SimTag};

/// The ways a read can be unusable, each a copy of `read`.
fn unusable(read: &RawRead) -> [RawRead; 7] {
    [
        RawRead {
            phase: f64::NAN,
            phase_code: None,
            ..*read
        },
        RawRead {
            phase: f64::INFINITY,
            phase_code: None,
            ..*read
        },
        RawRead {
            frequency_hz: f64::NAN,
            ..*read
        },
        RawRead {
            channel: 1 << 40,
            ..*read
        },
        RawRead {
            rssi_dbm: f64::NAN,
            ..*read
        },
        RawRead {
            rssi_dbm: f64::INFINITY,
            ..*read
        },
        RawRead {
            rssi_dbm: f64::NEG_INFINITY,
            ..*read
        },
    ]
}

/// `reads` with antenna `antenna`'s first read moved to 1e300 Hz, and
/// `reads` with that antenna's reads emptied.
fn far_first_read(reads: &[Vec<RawRead>], antenna: usize) -> [Vec<Vec<RawRead>>; 2] {
    let (mut far, mut emptied) = (reads.to_vec(), reads.to_vec());
    far[antenna][0].frequency_hz = 1e300;
    emptied[antenna].clear();
    [far, emptied]
}

/// The usable-antenna count of a window that had too few.
fn usable(outcome: Result<SensingResult, SenseError>) -> usize {
    let Err(SenseError::TooFewObservations { usable, .. }) = outcome else { panic!("{outcome:?}") };
    usable
}

/// `reads` with `bad` inserted into antenna `antenna`'s group at `at`.
fn with_bad(reads: &[Vec<RawRead>], antenna: usize, at: usize, bad: RawRead) -> Vec<Vec<RawRead>> {
    let mut out = reads.to_vec();
    out[antenna].insert(at, bad);
    out
}

fn bits_2d(e: &TagEstimate2D) -> Vec<u64> {
    [
        e.position.x,
        e.position.y,
        e.orientation,
        e.kt,
        e.bt,
        e.cost,
        e.position_std_m,
    ]
    .map(f64::to_bits)
    .to_vec()
}

fn bits_3d(e: &TagEstimate3D) -> Vec<u64> {
    let (p, d) = (e.position, e.dipole);
    [p.x, p.y, p.z, d.x, d.y, d.z, e.kt, e.bt, e.cost]
        .map(f64::to_bits)
        .to_vec()
}

#[test]
fn unusable_read_costs_only_itself_2d() {
    let scene = Scene::standard_2d();
    let tag = SimTag::with_seeded_diversity(5)
        .with_motion(Motion::planar_static(Vec2::new(0.3, 1.4), 0.4));
    let reads = scene.survey(&tag, 1).per_antenna;
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());
    let clean = prism.sense(&reads).expect("clean round senses");
    for bad in unusable(&reads[1][7]) {
        let dirty = prism
            .sense(&with_bad(&reads, 1, 7, bad))
            .expect("bad read skipped");
        assert_eq!(
            bits_2d(&dirty.estimate),
            bits_2d(&clean.estimate),
            "{bad:?}"
        );
        assert_eq!(dirty.verdict, clean.verdict);
    }
    let [far, emptied] = far_first_read(&reads, 1);
    assert_eq!(usable(prism.sense(&far)), usable(prism.sense(&emptied)));
}

#[test]
fn unusable_read_costs_only_itself_3d() {
    let scene = Scene::six_antenna_3d();
    let tag = SimTag::with_seeded_diversity(3).with_motion(Motion::Static {
        position: Vec3::new(0.8, 1.6, 0.7),
        dipole: Vec3::new(0.9, 0.1, 0.5).normalized(),
    });
    let reads = scene.survey(&tag, 8).per_antenna;
    let prism = RfPrism3D::new(
        scene.antenna_poses(),
        scene.reader().plan,
        scene.region(),
        (0.0, 1.5),
    );
    let clean = prism.sense(&reads).expect("clean round senses");
    for bad in unusable(&reads[4][0]) {
        let dirty = prism
            .sense(&with_bad(&reads, 4, 0, bad))
            .expect("bad read skipped");
        assert_eq!(
            bits_3d(&dirty.estimate),
            bits_3d(&clean.estimate),
            "{bad:?}"
        );
    }
    let [far, emptied] = far_first_read(&reads, 4);
    assert_eq!(
        bits_3d(&prism.sense(&far).expect("five antennas left").estimate),
        bits_3d(&prism.sense(&emptied).expect("five antennas left").estimate)
    );
}

#[test]
fn unusable_read_costs_only_itself_streaming() {
    let scene = Scene::standard_2d();
    let tag = SimTag::with_seeded_diversity(7)
        .with_motion(Motion::planar_static(Vec2::new(0.4, 1.3), 0.6));
    let rounds = rfp_sim::stream_rounds(&scene, &tag, 3, 11);
    let span = scene.reader().round_duration_s();
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());
    for bad_kind in 0..unusable(&rounds[0].per_antenna[0][0]).len() {
        let mut clean = prism.sense_streaming(span);
        let mut dirty = prism.sense_streaming(span);
        for (r, round) in rounds.iter().enumerate() {
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                for (k, read) in reads.iter().enumerate() {
                    if antenna == 2 && k == 3 * r + 1 {
                        dirty.push(antenna, &unusable(read)[bad_kind]);
                    }
                    clean.push(antenna, read);
                    dirty.push(antenna, read);
                }
            }
            let a = clean.advance(round.end_time_s).expect("clean advance");
            let b = dirty.advance(round.end_time_s).expect("bad read skipped");
            assert_eq!(
                bits_2d(&b.estimate),
                bits_2d(&a.estimate),
                "round {r}, kind {bad_kind}"
            );
        }
        assert_eq!(clean.retained_reads(), dirty.retained_reads());
    }
    let advance = |reads: &[Vec<RawRead>]| {
        let mut session = prism.sense_streaming(span);
        for (antenna, reads) in reads.iter().enumerate() {
            reads.iter().for_each(|read| session.push(antenna, read));
        }
        usable(session.advance(rounds[0].end_time_s))
    };
    let [far, emptied] = far_first_read(&rounds[0].per_antenna, 2);
    assert_eq!(advance(&far), advance(&emptied));
}

/// `reads` with every read of its `k` lowest channel ids moved to `hz`.
fn channels_at(reads: &[RawRead], k: usize, hz: f64) -> Vec<RawRead> {
    let mut ids: Vec<usize> = reads.iter().map(|r| r.channel).collect();
    ids.sort_unstable();
    ids.dedup();
    let moved = &ids[..k];
    reads
        .iter()
        .map(|r| RawRead {
            frequency_hz: if moved.contains(&r.channel) { hz } else { r.frequency_hz },
            ..*r
        })
        .collect()
}

/// Pin: at the paper configuration, a 50-channel window with no line to
/// fit fails with `Fit(DegenerateX)` when every channel reads at one
/// frequency or when 1 or 3 channels read at 1e150 Hz, and with
/// `Fit(NonFinite)` when 1, 3 or 30 channels read at 1e200 or 1e300 Hz
/// (their squared offsets overflow).
#[test]
fn unfittable_windows_fail_with_a_pinned_variant() {
    let scene = Scene::standard_2d();
    let tag = SimTag::with_seeded_diversity(5)
        .with_motion(Motion::planar_static(Vec2::new(0.3, 1.4), 0.4));
    let reads = scene.survey(&tag, 1).per_antenna.swap_remove(1);
    let pose = scene.antenna_poses()[1];
    let error = |reads: &[RawRead]| {
        extract_observation(pose, reads, &ExtractConfig::paper()).map(|_| ()).unwrap_err()
    };
    let one_frequency: Vec<RawRead> =
        reads.iter().map(|r| RawRead { frequency_hz: 915.25e6, ..*r }).collect();
    assert_eq!(error(&one_frequency), ExtractError::Fit(FitError::DegenerateX));
    for k in [1, 3] {
        let degenerate = error(&channels_at(&reads, k, 1e150));
        assert_eq!(degenerate, ExtractError::Fit(FitError::DegenerateX), "{k} at 1e150 Hz");
    }
    for k in [1, 3, 30] {
        for hz in [1e200, 1e300] {
            let overflowed = error(&channels_at(&reads, k, hz));
            assert_eq!(overflowed, ExtractError::Fit(FitError::NonFinite), "{k} at {hz:e} Hz");
        }
    }
}
