//! The pipelines own their solver seeds: whatever order its builders ran
//! in, every entry point of a prism returns, bit for bit, the estimate of
//! a layered re-drive — extract each antenna, then solve against seeds
//! built independently from the prism's scene, at the paper's
//! configuration.

use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig};
use rfp_core::solver::{solve_2d_seeded_warm, SolveSeeds, SolverConfig, SolverWorkspace};
use rfp_core::solver3d::{solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace};
use rfp_core::{InventorySensor, ItemOutcome, RfPrism, RfPrism3D, RfPrism3DConfig, RfPrismConfig};
use rfp_core::{TagEstimate2D, TagEstimate3D, WarmStart, WarmStart3D};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{Vec2, Vec3};
use rfp_sim::{Motion, Scene, SimTag};

fn bits_2d(e: &TagEstimate2D) -> Vec<u64> {
    let p = e.position;
    [p.x, p.y, e.orientation, e.kt, e.bt, e.cost, e.position_std_m].map(f64::to_bits).to_vec()
}

fn bits_3d(e: &TagEstimate3D) -> Vec<u64> {
    let (p, d) = (e.position, e.dipole);
    [p.x, p.y, p.z, d.x, d.y, d.z, e.kt, e.bt, e.cost].map(f64::to_bits).to_vec()
}

/// Each antenna's observation, extracted on its own.
fn observations(scene: &Scene, reads: &[Vec<RawRead>]) -> Vec<AntennaObservation> {
    let config = ExtractConfig::paper();
    let poses = scene.antenna_poses().into_iter();
    poses.zip(reads).map(|(p, r)| extract_observation(p, r, &config).unwrap()).collect()
}

#[test]
fn prism_seeds_follow_both_builder_orders_2d() {
    let scene = Scene::standard_2d();
    let (poses, plan, region) = (scene.antenna_poses(), scene.reader().plan, scene.region());
    let solver = SolverConfig::default();
    let config = RfPrismConfig::paper();
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.7, 1.8), 0.9));
    let reads = scene.survey(&tag, 4).per_antenna;

    let seeds = SolveSeeds::for_scene(region, &solver, &poses);
    let obs = observations(&scene, &reads);
    let layered = |warm: Option<&WarmStart>| {
        solve_2d_seeded_warm(&obs, &seeds, &solver, &mut SolverWorkspace::default(), warm).unwrap()
    };
    let prior = WarmStart::from_estimate(&layered(None)).with_position(Vec2::new(0.6, 1.7));
    let (cold, warm) = (bits_2d(&layered(None)), bits_2d(&layered(Some(&prior))));

    for prism in [
        RfPrism::new(poses.clone(), plan).with_region(region).with_config(config),
        RfPrism::new(poses.clone(), plan).with_config(config).with_region(region),
    ] {
        assert_eq!(bits_2d(&prism.sense(&reads).unwrap().estimate), cold, "sense");
        let warmed = prism.sense_warm(&reads, Some(&prior)).unwrap();
        assert_eq!(bits_2d(&warmed.estimate), warm, "sense_warm");
        let batch = prism.sense_batch(std::slice::from_ref(&reads), 1);
        assert_eq!(bits_2d(&batch[0].as_ref().unwrap().estimate), cold, "sense_batch");
        let stock = InventorySensor::new(prism.clone()).take_stock(&[(1, reads.clone())]);
        let ItemOutcome::Report(report) = &stock[0] else { panic!("take_stock: {stock:?}") };
        assert_eq!(bits_2d(&report.estimate), cold, "take_stock");
        // An append-only window extracts exactly what batch does.
        let mut session = prism.sense_streaming(f64::INFINITY);
        for (antenna, reads) in reads.iter().enumerate() {
            reads.iter().for_each(|read| session.push(antenna, read));
        }
        assert_eq!(bits_2d(&session.advance(0.0).unwrap().estimate), cold, "advance");
    }
}

#[test]
fn prism_seeds_follow_the_config_3d() {
    let scene = Scene::six_antenna_3d();
    let (poses, region, z_range) = (scene.antenna_poses(), scene.region(), (0.0, 1.5));
    let solver = SolverConfig::default();
    let config = RfPrism3DConfig::paper();
    let tag = SimTag::with_seeded_diversity(3).with_motion(Motion::Static {
        position: Vec3::new(0.8, 1.6, 0.7),
        dipole: Vec3::new(0.9, 0.1, 0.5).normalized(),
    });
    let reads = scene.survey(&tag, 8).per_antenna;

    let seeds = Solve3DSeeds::for_scene(region, z_range, &solver, &poses);
    let obs = observations(&scene, &reads);
    let layered = |warm: Option<&WarmStart3D>| {
        let mut ws = Solver3DWorkspace::default();
        solve_3d_seeded_warm(&obs, &seeds, &solver, &mut ws, warm).unwrap()
    };
    let prior = WarmStart3D::from_estimate(&layered(None)).with_position(Vec3::new(0.7, 1.5, 0.6));
    let (cold, warm) = (bits_3d(&layered(None)), bits_3d(&layered(Some(&prior))));

    let prism = RfPrism3D::new(poses, scene.reader().plan, region, z_range).with_config(config);
    assert_eq!(bits_3d(&prism.sense(&reads).unwrap().estimate), cold, "sense");
    let warmed = prism.sense_warm(&reads, Some(&prior)).unwrap();
    assert_eq!(bits_3d(&warmed.estimate), warm, "sense_warm");
    let batch = prism.sense_batch(std::slice::from_ref(&reads), 1);
    assert_eq!(bits_3d(&batch[0].as_ref().unwrap().estimate), cold, "sense_batch");
}
