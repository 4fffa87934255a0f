//! Stock-taking on the paper's 2-D deployment (`inventory_cold`,
//! `inventory_warm`).
//!
//! 512 static tags in a fixed stratified layout of positions and
//! orientations, the eight materials round-robin, each tag with its
//! one-time device calibration. Two noise rounds of every tag are generated
//! and cycled; one request senses one 16-tag shelf of a round, and every
//! cycle regroups the tags onto shelves, so request costs are sums over
//! fresh tag mixes.
//!
//! * `inventory_cold` is the paper's stock-taking application through its
//!   one-call API, [`InventorySensor::take_stock`]: a cold multi-start
//!   solve per tag, then material identification.
//! * `inventory_warm` is the steady state of re-reading the same tags:
//!   [`RfPrism::sense_batch_warm`] on one thread, seeded from each tag's
//!   previous estimate, then material features and `identify` per tag.
//!   The solve shrinks to a warm-gate hit, so the front end dominates.

use crate::run::{self, Accuracy, Floors, Measured, Run, Size};
use crate::trace::{self, Tracer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rfp_bench::setup;
use rfp_core::batch::{BatchCache, TagReads};
use rfp_core::material::{ClassifierKind, MaterialFeatures, MaterialIdentifier};
use rfp_core::solver::{solve_2d_seeded_warm, SolveSeeds, SolverWorkspace, TagEstimate2D};
use rfp_core::{
    CalibrationDb, DeviceCalibration, InventorySensor, ItemOutcome, MobilityVerdict, RfPrism,
    SenseError, SenseWorkspace, SensingResult, WarmStart,
};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{angle, Vec2};
use rfp_ml::dataset::Dataset;
use rfp_obs::JsonValue;
use rfp_phys::Material;
use rfp_sim::{HopSurvey, Motion, NoiseModel, ReaderConfig, Scene, SimTag};
use std::hint::black_box;
use std::time::Instant;

/// Tags per shelf: one request's worth. Small enough that a run holds
/// thousands of requests, so every latency quantile rests on several
/// chunks.
const SHELF: usize = 16;
/// Training tags for the identifier, each measured once on every material
/// and each with its own device calibration. The identifier generalizes
/// across devices only when it is trained on many of them.
const TRAINING_TAGS: u64 = 40;
/// Where the calibration booth holds a bare tag, at orientation 0.
const BOOTH: Vec2 = Vec2::new(0.5, 1.0);

pub const FLOORS: Floors = Floors {
    pos_err_p50_cm: 10.0,
    orient_err_p50_deg: 30.0,
    min_yield: 0.99,
    material_acc: Some(0.8),
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

/// One tag's reads in one noise round, as `take_stock` takes them.
type Item = (u64, TagReads);

struct Truth {
    position: Vec2,
    alpha: f64,
    material: Material,
}

/// Everything generated from the seed before any timing starts.
pub struct Inputs {
    scene: Scene,
    /// Tag `i` has id `id_base + i`.
    id_base: u64,
    truth: Vec<Truth>,
    shelf: usize,
    /// `rounds[r]`: every tag's reads in noise round `r`, in shelf order.
    rounds: Vec<Vec<Item>>,
    /// Regroups the tags onto shelves at each new cycle.
    regroup: StdRng,
    /// Bare-tag calibration-booth surveys: inventory and training tags.
    booth: Vec<(u64, HopSurvey)>,
    /// `(tag id, material class, reads)` measurements for the identifier.
    training: Vec<(u64, usize, TagReads)>,
}

fn booth_scene() -> Scene {
    Scene::standard_2d()
        .with_noise(NoiseModel::clean())
        .with_reader(ReaderConfig::ideal())
}

/// `n` stratified `(position, orientation)` placements in the scene's
/// working region.
fn placements(rng: &mut StdRng, scene: &Scene, n: usize) -> Vec<(Vec2, f64)> {
    let (lo, hi) = (scene.region().min(), scene.region().max());
    let positions = run::stratified::<2>(rng, n);
    let alphas = run::stratified::<1>(rng, n);
    positions
        .iter()
        .zip(&alphas)
        .map(|([u, v], [a])| {
            (
                Vec2::new(lo.x + u * (hi.x - lo.x), lo.y + v * (hi.y - lo.y)),
                a * std::f64::consts::PI,
            )
        })
        .collect()
}

pub fn generate(seed: u64, size: &Size) -> Inputs {
    let scene = Scene::standard_2d();
    let mut rng = StdRng::seed_from_u64(run::mix(run::LAYOUT, 1));
    let id_base = run::mix(run::LAYOUT, 2) << 20;
    let mut truth = Vec::with_capacity(size.tags);
    let tags: Vec<SimTag> = placements(&mut rng, &scene, size.tags)
        .into_iter()
        .enumerate()
        .map(|(i, (position, alpha))| {
            let material = Material::CLASSES[i % Material::CLASSES.len()];
            truth.push(Truth {
                position,
                alpha,
                material,
            });
            setup::place_tag(id_base + i as u64, material, position, alpha)
        })
        .collect();
    let shelf = SHELF.min(size.tags);
    assert_eq!(size.tags % shelf, 0, "whole shelves only");
    let rounds = (0..size.rounds as u64)
        .map(|round| {
            let survey = |t: &SimTag| scene.survey(t, run::mix(seed, (round << 32) | t.id()));
            tags.iter()
                .map(|t| (t.id(), survey(t).per_antenna))
                .collect()
        })
        .collect();

    let training_ids: Vec<u64> = (0..TRAINING_TAGS)
        .map(|k| id_base + (1 << 19) + k)
        .collect();
    let booth = booth_scene();
    let booth_surveys = tags
        .iter()
        .map(SimTag::id)
        .chain(training_ids.iter().copied())
        .map(|id| {
            let bare =
                SimTag::with_seeded_diversity(id).with_motion(Motion::planar_static(BOOTH, 0.0));
            (id, booth.survey(&bare, run::mix(seed, id ^ 0xB007)))
        })
        .collect();
    let classes = Material::CLASSES.len();
    let training = placements(&mut rng, &scene, training_ids.len() * classes)
        .into_iter()
        .enumerate()
        .map(|(j, (position, alpha))| {
            let (id, class) = (training_ids[j / classes], j % classes);
            let tag = setup::place_tag(id, Material::CLASSES[class], position, alpha);
            (
                id,
                class,
                scene
                    .survey(&tag, run::mix(seed, 0x7EA1 + j as u64))
                    .per_antenna,
            )
        })
        .collect();
    let regroup = StdRng::seed_from_u64(run::mix(seed, 8));
    Inputs {
        scene,
        id_base,
        truth,
        shelf,
        rounds,
        regroup,
        booth: booth_surveys,
        training,
    }
}

impl Inputs {
    fn shelves(&self) -> usize {
        self.truth.len() / self.shelf
    }

    /// Requests per cycle: every shelf of every round once.
    fn cycle(&self) -> usize {
        self.rounds.len() * self.shelves()
    }

    /// Request `j` of the sequence: shelf `j % shelves` of round
    /// `j / shelves`, cyclically. Call [`Inputs::regroup`] first.
    fn request(&self, j: usize) -> &[Item] {
        let round = j / self.shelves() % self.rounds.len();
        &self.rounds[round][(j % self.shelves()) * self.shelf..][..self.shelf]
    }

    /// Regroups the tags onto shelves when request `j` opens a new cycle.
    fn regroup(&mut self, j: usize) {
        if j > 0 && j.is_multiple_of(self.cycle()) {
            for round in &mut self.rounds {
                round.shuffle(&mut self.regroup);
            }
        }
    }

    fn index(&self, id: u64) -> usize {
        (id - self.id_base) as usize
    }

    fn record(
        &self,
        acc: &mut Accuracy,
        id: u64,
        sensed: Option<(&TagEstimate2D, Option<Material>)>,
    ) {
        let truth = &self.truth[self.index(id)];
        match sensed {
            Some((estimate, material)) => {
                acc.sensed(
                    estimate.position.distance(truth.position) * 100.0,
                    angle::dipole_distance(estimate.orientation, truth.alpha).to_degrees(),
                );
                acc.material(material == Some(truth.material));
            }
            None => acc.rejected(),
        }
    }
}

/// A deployed installation: the pipeline with its seed tables, the
/// calibration database and a trained material identifier.
struct Installation {
    prism: RfPrism,
    cache: BatchCache,
    calibrations: CalibrationDb,
    identifier: MaterialIdentifier,
    channels: usize,
}

impl Installation {
    fn build(inputs: &Inputs) -> Self {
        let prism = setup::prism_for(&inputs.scene);
        let booth = booth_scene();
        let mut calibrations = CalibrationDb::new();
        for (id, survey) in &inputs.booth {
            let observations = setup::observations(&booth, survey);
            calibrations.insert(
                *id,
                DeviceCalibration::from_observations(&observations, BOOTH, 0.0),
            );
        }
        let cache = prism.batch_cache();
        let channels = prism.plan().channel_count();
        let mut workspace = SenseWorkspace::default();
        let mut dataset = Dataset::new(Material::CLASSES.len());
        for (id, class, reads) in &inputs.training {
            if let Ok(result) = prism.sense_reusing(&cache, reads, None, &mut workspace) {
                let calibration = calibrations.get(*id).expect("training tags are calibrated");
                dataset.push(
                    result.material_features(calibration, channels).to_vector(),
                    *class,
                );
                workspace.recycle(result);
            }
        }
        let identifier = MaterialIdentifier::train(&dataset, &ClassifierKind::paper_default());
        Installation {
            prism,
            cache,
            calibrations,
            identifier,
            channels,
        }
    }

    fn calibration(&self, id: u64) -> &DeviceCalibration {
        self.calibrations
            .get(id)
            .expect("every inventory tag is calibrated")
    }

    fn into_sensor(self) -> InventorySensor {
        InventorySensor::new(self.prism)
            .with_calibrations(self.calibrations)
            .with_identifier(self.identifier)
    }
}

/// The layered re-drive of one tag: `RfPrism::sense` through its public
/// parts, on benchmark-owned scratch.
fn sense_layered(
    prism: &RfPrism,
    seeds: &SolveSeeds,
    solver: &mut SolverWorkspace,
    tracer: &mut Tracer,
    reads: &[Vec<RawRead>],
    warm: Option<&WarmStart>,
) -> Result<(TagEstimate2D, MobilityVerdict), SenseError> {
    let config = prism.config();
    tracer.layers.tags += 1;
    let first_error = tracer.extract(prism.poses(), reads, &config.extract);
    if tracer.observations.len() < 3 {
        return Err(SenseError::TooFewObservations {
            usable: tracer.observations.len(),
            first_error,
        });
    }
    let verdict = tracer.assess(&config.detector);
    if let (true, MobilityVerdict::Moving { worst_residual_std }) = (config.reject_moving, verdict)
    {
        return Err(SenseError::TagMoving { worst_residual_std });
    }
    let estimate = tracer.solve(solver, |observations, ws| {
        solve_2d_seeded_warm(observations, seeds, &config.solver, ws, warm)
    })?;
    Ok((estimate, verdict))
}

/// Material identification of the tag `sense_layered` just solved,
/// tallied against the truth.
fn identify_layered(
    tracer: &mut Tracer,
    inst: &Installation,
    id: u64,
    estimate: &TagEstimate2D,
    truth: Material,
) -> Material {
    let layers = &mut tracer.layers;
    let observations = &tracer.observations;
    let features = trace::timed(&mut layers.features_s, &mut layers.spans, || {
        MaterialFeatures::extract(observations, estimate, inst.calibration(id), inst.channels)
    });
    let material = trace::timed(&mut layers.identify_s, &mut layers.spans, || {
        inst.identifier.identify(&features)
    });
    layers.identified += 1;
    layers.material_correct += u64::from(material == truth);
    material
}

fn bits(e: &TagEstimate2D) -> [u64; 13] {
    let c = e.position_cov;
    [
        e.position.x,
        e.position.y,
        e.orientation,
        e.kt,
        e.bt,
        e.cost,
        e.residual_rms,
        e.position_std_m,
        e.orientation_std_rad,
        c[0][0],
        c[0][1],
        c[1][0],
        c[1][1],
    ]
    .map(f64::to_bits)
}

type Outcome<'a> = Result<(&'a TagEstimate2D, MobilityVerdict, Option<Material>), &'a SenseError>;

/// Whether the layered outcome reproduces the entry point's bit for bit.
fn same(
    entry: Outcome<'_>,
    layered: &Result<(TagEstimate2D, MobilityVerdict), SenseError>,
    layered_material: Option<Material>,
) -> bool {
    match (entry, layered) {
        (Ok((a, va, ma)), Ok((b, vb))) => bits(a) == bits(b) && va == *vb && ma == layered_material,
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

fn outcome(item: &ItemOutcome) -> Outcome<'_> {
    match item {
        ItemOutcome::Report(r) => Ok((&r.estimate, r.verdict, r.material)),
        ItemOutcome::Failed { error, .. } => Err(error),
    }
}

/// A record for the first cycle of requests; see [`Measured::start`].
fn start(inputs: &Inputs) -> Measured {
    Measured::start(inputs.cycle(), inputs.cycle() * inputs.shelf)
}

fn measure_cold(
    inputs: &mut Inputs,
    sensor: &InventorySensor,
    seconds: f64,
    measured: &mut Measured,
) {
    let cycle = inputs.cycle();
    let accuracy = &mut measured.accuracy;
    let failed = &mut measured.failed;
    measured.heap_peak = run::closed_loop(seconds, cycle, &mut measured.samples, |i| {
        inputs.regroup(i);
        let request = inputs.request(i);
        let t0 = Instant::now();
        let outcomes = black_box(sensor.take_stock(black_box(request)));
        let secs = t0.elapsed().as_secs_f64();
        for ((id, _), item) in request.iter().zip(&outcomes) {
            let sensed = outcome(item);
            *failed += u64::from(sensed.is_err_and(|e| !run::rejected_2d(e)));
            if i < cycle {
                inputs.record(accuracy, *id, sensed.ok().map(|(e, _, m)| (e, m)));
            }
        }
        (secs, outcomes.len() as u32)
    });
}

/// Per-tag warm starts, indexed like `Inputs::truth`.
type Warms = Vec<Option<WarmStart>>;

/// One warm request: the batch solve seeded from each tag's previous
/// estimate, then features and `identify` per tag.
fn warm_request(
    inst: &Installation,
    request: &[Item],
    reads: &[&TagReads],
    warms: &[Option<WarmStart>],
) -> (
    Vec<Result<SensingResult, SenseError>>,
    Vec<Option<Material>>,
) {
    let results = inst.prism.sense_batch_warm(&inst.cache, reads, warms, 1);
    let materials = results
        .iter()
        .zip(request)
        .map(|(result, (id, _))| {
            let result = result.as_ref().ok()?;
            Some(
                inst.identifier
                    .identify(&result.material_features(inst.calibration(*id), inst.channels)),
            )
        })
        .collect();
    (results, materials)
}

/// A request's reads and its tags' warm starts, gathered outside the timer.
fn gather<'a>(
    inputs: &'a Inputs,
    request: &'a [Item],
    warms: &Warms,
) -> (Vec<&'a TagReads>, Warms) {
    let reads = request.iter().map(|(_, r)| r).collect();
    (
        reads,
        request
            .iter()
            .map(|(id, _)| warms[inputs.index(*id)])
            .collect(),
    )
}

fn update(
    inputs: &Inputs,
    warms: &mut Warms,
    request: &[Item],
    estimates: impl Iterator<Item = Option<TagEstimate2D>>,
) {
    for ((id, _), estimate) in request.iter().zip(estimates) {
        if let Some(e) = estimate {
            warms[inputs.index(*id)] = Some(WarmStart::from_estimate(&e));
        }
    }
}

/// Warm starts for every tag from an untimed cold pass over the first
/// noise round: the state a deployment re-reading its shelves is in.
fn warm_up(inputs: &Inputs, inst: &Installation) -> Warms {
    let mut warms = vec![None; inputs.truth.len()];
    for j in 0..inputs.shelves() {
        let request = inputs.request(j);
        // Every tag is on one shelf of the round, so its prior is still None.
        let (reads, cold) = gather(inputs, request, &warms);
        let results = inst.prism.sense_batch_warm(&inst.cache, &reads, &cold, 1);
        update(
            inputs,
            &mut warms,
            request,
            results.iter().map(|r| r.as_ref().ok().map(|r| r.estimate)),
        );
    }
    warms
}

fn measure_warm(inputs: &mut Inputs, inst: &Installation, seconds: f64, measured: &mut Measured) {
    let cycle = inputs.cycle();
    let shelves = inputs.shelves();
    let mut warms = warm_up(inputs, inst);
    let accuracy = &mut measured.accuracy;
    let failed = &mut measured.failed;
    measured.heap_peak = run::closed_loop(seconds, cycle, &mut measured.samples, |i| {
        // The warm-up served the first round's shelves.
        let j = shelves + i;
        inputs.regroup(j);
        let request = inputs.request(j);
        let (reads, prior) = gather(inputs, request, &warms);
        let t0 = Instant::now();
        let (results, materials) =
            black_box(warm_request(inst, request, black_box(&reads), &prior));
        let secs = t0.elapsed().as_secs_f64();
        for (((id, _), result), material) in request.iter().zip(&results).zip(&materials) {
            *failed += u64::from(result.as_ref().is_err_and(|e| !run::rejected_2d(e)));
            if i < cycle {
                inputs.record(
                    accuracy,
                    *id,
                    result.as_ref().ok().map(|r| (&r.estimate, *material)),
                );
            }
        }
        update(
            inputs,
            &mut warms,
            request,
            results.iter().map(|r| r.as_ref().ok().map(|r| r.estimate)),
        );
        (secs, results.len() as u32)
    });
}

/// The record of an untraced loop; with `end_to_end`, the end-to-end
/// metrics too.
fn finish(measured: &Measured, end_to_end: bool) -> Run {
    let mut run = measured.run(&FLOORS);
    run.diagnostics.push((
        "material_acc",
        JsonValue::Num(measured.accuracy.material_acc()),
    ));
    if end_to_end {
        measured.end_to_end(&mut run, &measured.latencies_us());
    }
    run
}

fn layered_seeds(prism: &RfPrism) -> SolveSeeds {
    SolveSeeds::for_scene(prism.region(), &prism.config().solver, prism.poses())
}

pub fn cold(seed: u64, size: &Size, traced: bool) -> Run {
    let mut inputs = generate(seed, size);
    let mut measured = start(&inputs);
    if !traced {
        let sensor = measured.set_up(size, || Installation::build(&inputs).into_sensor());
        measure_cold(&mut inputs, &sensor, size.seconds, &mut measured);
        return finish(&measured, true);
    }
    // Training is deterministic, so this second build holds the same
    // identifier the sensor does.
    let sensor = Installation::build(&inputs).into_sensor();
    let inst = Installation::build(&inputs);
    measure_cold(&mut inputs, &sensor, size.seconds / 2.0, &mut measured);
    let mut run = finish(&measured, false);

    let seeds = layered_seeds(&inst.prism);
    let mut solver = SolverWorkspace::default();
    let mut tracer = Tracer::default();
    let mut mismatches = 0u64;
    let cycle = inputs.cycle();
    run::closed_loop(size.seconds / 2.0, cycle, &mut Vec::new(), |i| {
        inputs.regroup(i);
        let request = inputs.request(i);
        let entry = sensor.take_stock(request);
        for ((id, reads), item) in request.iter().zip(&entry) {
            let layered = sense_layered(&inst.prism, &seeds, &mut solver, &mut tracer, reads, None);
            let truth = inputs.truth[inputs.index(*id)].material;
            let material = layered
                .as_ref()
                .ok()
                .map(|(e, _)| identify_layered(&mut tracer, &inst, *id, e, truth));
            mismatches += u64::from(!same(outcome(item), &layered, material));
        }
        (0.0, entry.len() as u32)
    });
    tracer.report(&mut run, measured.secs_per_op(), mismatches);
    run
}

pub fn warm(seed: u64, size: &Size, traced: bool) -> Run {
    let mut inputs = generate(seed, size);
    let mut measured = start(&inputs);
    if !traced {
        let inst = measured.set_up(size, || Installation::build(&inputs));
        measure_warm(&mut inputs, &inst, size.seconds, &mut measured);
        return finish(&measured, true);
    }
    let inst = Installation::build(&inputs);
    measure_warm(&mut inputs, &inst, size.seconds / 2.0, &mut measured);
    let mut run = finish(&measured, false);

    let seeds = layered_seeds(&inst.prism);
    let mut solver = SolverWorkspace::default();
    let mut tracer = Tracer::default();
    let mut mismatches = 0u64;
    let mut entry_warms = warm_up(&inputs, &inst);
    let mut layered_warms = entry_warms.clone();
    let (cycle, shelves) = (inputs.cycle(), inputs.shelves());
    run::closed_loop(size.seconds / 2.0, cycle, &mut Vec::new(), |i| {
        let j = shelves + i;
        inputs.regroup(j);
        let request = inputs.request(j);
        let (reads, prior) = gather(&inputs, request, &entry_warms);
        let (results, materials) = warm_request(&inst, request, &reads, &prior);
        let mut estimates = Vec::with_capacity(results.len());
        for (k, (id, reads)) in request.iter().enumerate() {
            let warm = layered_warms[inputs.index(*id)];
            let layered = sense_layered(
                &inst.prism,
                &seeds,
                &mut solver,
                &mut tracer,
                reads,
                warm.as_ref(),
            );
            let truth = inputs.truth[inputs.index(*id)].material;
            let material = layered
                .as_ref()
                .ok()
                .map(|(e, _)| identify_layered(&mut tracer, &inst, *id, e, truth));
            let entry = results[k]
                .as_ref()
                .map(|r| (&r.estimate, r.verdict, materials[k]));
            mismatches += u64::from(!same(entry, &layered, material));
            estimates.push(layered.ok().map(|(e, _)| e));
        }
        update(
            &inputs,
            &mut entry_warms,
            request,
            results.iter().map(|r| r.as_ref().ok().map(|r| r.estimate)),
        );
        update(&inputs, &mut layered_warms, request, estimates.into_iter());
        (0.0, results.len() as u32)
    });
    tracer.report(&mut run, measured.secs_per_op(), mismatches);
    run
}
