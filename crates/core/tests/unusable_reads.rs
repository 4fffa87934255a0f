//! A read with a non-finite phase or frequency, or an out-of-range
//! channel, costs that read, not the window: batch 2-D, batch 3-D and
//! streaming sensing each return, bit for bit, the estimate of the same
//! reads with the bad one removed by hand. A channel's first read at
//! 1e300 Hz overflows its antenna's line fit, and costs that antenna only.

use rfp_core::{RfPrism, RfPrism3D, SenseError, SensingResult, TagEstimate2D, TagEstimate3D};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{Vec2, Vec3};
use rfp_sim::{Motion, Scene, SimTag};

/// The four ways a read can be unusable, each a copy of `read`.
fn unusable(read: &RawRead) -> [RawRead; 4] {
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
    for bad_kind in 0..4 {
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
