//! `cluttered_3d`: the 3-D facade (`LmCore<7>`) in a cluttered room.
//!
//! The six-antenna 3-D deployment in a cluttered room, 512 static tags in
//! a fixed stratified layout of 3-D positions and dipole axes, two noise
//! rounds of each cycled. One request is a cold
//! [`RfPrism3D::sense_reusing`] for one tag. Clutter makes the
//! robust fit reject channels here, which clean scenes never do.

use crate::run::{self, Accuracy, Floors, Measured, Run, Size};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfp_core::batch::{BatchCache3D, TagReads};
use rfp_core::solver3d::{solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace, TagEstimate3D};
use rfp_core::{MobilityVerdict, RfPrism3D, RfPrism3DConfig, Sense3DError, Sense3DWorkspace};
use rfp_geom::{AntennaPose, Vec3};
use rfp_phys::Material;
use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};
use std::hint::black_box;
use std::time::Instant;

/// Height range the solver searches and tags are placed in, metres.
const Z_RANGE: (f64, f64) = (0.0, 1.5);
/// The clutter of the room, fixed like the rest of the deployment (see
/// [`run::LAYOUT`]).
const ROOM: u64 = 6;

pub const FLOORS: Floors = Floors {
    pos_err_p50_cm: 10.0,
    orient_err_p50_deg: 30.0,
    min_yield: 0.9,
    material_acc: None,
};

/// The full-size run.
pub fn size(seconds: f64) -> Size {
    Size {
        tags: 512,
        rounds: 2,
        seconds,
        setup_builds: 5,
        setup_seconds: 1.0,
    }
}

pub struct Inputs {
    scene: Scene,
    /// `(position, dipole axis)` per tag.
    truth: Vec<(Vec3, Vec3)>,
    /// Request `i` senses `reads[i % reads.len()]`; rounds are tag-major.
    reads: Vec<TagReads>,
}

pub fn generate(seed: u64, size: &Size) -> Inputs {
    let scene = Scene::six_antenna_3d().with_environment(MultipathEnvironment::cluttered(6, ROOM));
    let mut rng = StdRng::seed_from_u64(run::mix(run::LAYOUT, 4));
    let (lo, hi) = (scene.region().min(), scene.region().max());
    // Placement box: 10 cm inside the region and the height range.
    let (lo, span) = (
        Vec3::new(lo.x + 0.1, lo.y + 0.1, Z_RANGE.0 + 0.1),
        Vec3::new(
            hi.x - lo.x - 0.2,
            hi.y - lo.y - 0.2,
            Z_RANGE.1 - Z_RANGE.0 - 0.2,
        ),
    );
    let id_base = run::mix(run::LAYOUT, 5) << 20;
    let positions = run::stratified::<3>(&mut rng, size.tags);
    let axes = run::stratified::<2>(&mut rng, size.tags);
    let mut truth = Vec::with_capacity(size.tags);
    let mut reads = Vec::with_capacity(size.tags * size.rounds);
    for (i, ([u, v, w], [c, p])) in positions.into_iter().zip(axes).enumerate() {
        let position = Vec3::new(lo.x + u * span.x, lo.y + v * span.y, lo.z + w * span.z);
        // Uniform on the sphere: cos θ uniform in [-1, 1), φ in [0, 2π).
        let (cos_theta, phi) = (2.0 * c - 1.0, p * std::f64::consts::TAU);
        let sin_theta = (1.0 - cos_theta * cos_theta).sqrt();
        let dipole = Vec3::new(sin_theta * phi.cos(), sin_theta * phi.sin(), cos_theta);
        let tag = SimTag::with_seeded_diversity(id_base + i as u64)
            .attached_to(Material::CLASSES[i % Material::CLASSES.len()])
            .with_motion(Motion::Static { position, dipole });
        truth.push((position, dipole));
        for round in 0..size.rounds as u64 {
            reads.push(
                scene
                    .survey(&tag, run::mix(seed, (round << 32) | i as u64))
                    .per_antenna,
            );
        }
    }
    Inputs {
        scene,
        truth,
        reads,
    }
}

/// The installation: the 3-D pipeline, its seed tables and the reusable
/// sensing workspace.
struct Installation {
    prism: RfPrism3D,
    cache: BatchCache3D,
    workspace: Sense3DWorkspace,
}

impl Installation {
    fn build(scene: &Scene) -> Self {
        let prism = RfPrism3D::new(
            scene.antenna_poses(),
            scene.reader().plan,
            scene.region(),
            Z_RANGE,
        );
        let cache = prism.batch_cache();
        Installation {
            prism,
            cache,
            workspace: Sense3DWorkspace::default(),
        }
    }
}

fn record(inputs: &Inputs, acc: &mut Accuracy, i: usize, estimate: Option<&TagEstimate3D>) {
    let j = i % inputs.reads.len();
    let (position, dipole) = inputs.truth[j * inputs.truth.len() / inputs.reads.len()];
    match estimate {
        Some(e) => acc.sensed(
            e.position.distance(position) * 100.0,
            e.dipole_axis_error(dipole).to_degrees(),
        ),
        None => acc.rejected(),
    }
}

fn measure(inputs: &Inputs, inst: &mut Installation, seconds: f64, measured: &mut Measured) {
    let n = inputs.reads.len();
    let accuracy = &mut measured.accuracy;
    let failed = &mut measured.failed;
    measured.heap_peak = run::closed_loop(seconds, n, &mut measured.samples, |i| {
        let t0 = Instant::now();
        let result = black_box(inst.prism.sense_reusing(
            &inst.cache,
            black_box(&inputs.reads[i % n]),
            None,
            &mut inst.workspace,
        ));
        let secs = t0.elapsed().as_secs_f64();
        *failed += u64::from(result.as_ref().is_err_and(|e| !run::rejected_3d(e)));
        if i < n {
            record(
                inputs,
                accuracy,
                i,
                result.as_ref().ok().map(|r| &r.estimate),
            );
        }
        if let Ok(result) = result {
            inst.workspace.recycle(result);
        }
        (secs, 1)
    });
}

/// The layered re-drive of one tag: `RfPrism3D::sense` through its public
/// parts, on benchmark-owned scratch.
fn sense_layered(
    poses: &[AntennaPose],
    config: &RfPrism3DConfig,
    seeds: &Solve3DSeeds,
    solver: &mut Solver3DWorkspace,
    tracer: &mut Tracer,
    reads: &TagReads,
) -> Result<(TagEstimate3D, MobilityVerdict), Sense3DError> {
    tracer.layers.tags += 1;
    let first_error = tracer.extract(poses, reads, &config.extract);
    if tracer.observations.len() < 4 {
        return Err(Sense3DError::TooFewObservations {
            usable: tracer.observations.len(),
            first_error,
        });
    }
    let verdict = tracer.assess(&config.detector);
    if let (true, MobilityVerdict::Moving { worst_residual_std }) = (config.reject_moving, verdict)
    {
        return Err(Sense3DError::TagMoving { worst_residual_std });
    }
    let estimate = tracer.solve(solver, |observations, ws| {
        solve_3d_seeded_warm(observations, seeds, &config.solver, ws, None)
    })?;
    Ok((estimate, verdict))
}

fn bits(e: &TagEstimate3D) -> [u64; 10] {
    let (p, d) = (e.position, e.dipole);
    [
        p.x,
        p.y,
        p.z,
        d.x,
        d.y,
        d.z,
        e.kt,
        e.bt,
        e.cost,
        e.residual_rms,
    ]
    .map(f64::to_bits)
}

pub fn run(seed: u64, size: &Size, traced: bool) -> Run {
    let inputs = generate(seed, size);
    let mut measured = Measured::start(inputs.reads.len(), inputs.reads.len());
    if !traced {
        let mut inst = measured.set_up(size, || Installation::build(&inputs.scene));
        measure(&inputs, &mut inst, size.seconds, &mut measured);
        let mut run = measured.run(&FLOORS);
        measured.end_to_end(&mut run, &measured.latencies_us());
        return run;
    }
    let mut inst = Installation::build(&inputs.scene);
    measure(&inputs, &mut inst, size.seconds / 2.0, &mut measured);
    let mut run = measured.run(&FLOORS);

    let config = RfPrism3DConfig::paper();
    let poses = inputs.scene.antenna_poses();
    let seeds = Solve3DSeeds::for_scene(
        inst.prism.region(),
        inst.prism.z_range(),
        &config.solver,
        &poses,
    );
    let mut solver = Solver3DWorkspace::default();
    let mut tracer = Tracer::default();
    let mut mismatches = 0u64;
    let n = inputs.reads.len();
    run::closed_loop(size.seconds / 2.0, n, &mut Vec::new(), |i| {
        let reads = &inputs.reads[i % n];
        let entry = inst
            .prism
            .sense_reusing(&inst.cache, reads, None, &mut inst.workspace);
        let layered = sense_layered(&poses, &config, &seeds, &mut solver, &mut tracer, reads);
        let same = match (&entry, &layered) {
            (Ok(a), Ok((b, verdict))) => bits(&a.estimate) == bits(b) && a.verdict == *verdict,
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        mismatches += u64::from(!same);
        if let Ok(result) = entry {
            inst.workspace.recycle(result);
        }
        (0.0, 1)
    });
    tracer.report(&mut run, measured.secs_per_op(), mismatches);
    run
}
