//! `tracking_stream`: live tracking at the reader's dwell cadence.
//!
//! 128 [`StreamingSession`]s with a 40 s window; every 8th tag creeps at
//! 0.5 cm/s like goods on a conveyor, the rest are static. Each tag
//! advances 50 times per 10 s hop round (once per dwell), staggered evenly
//! across tags, over pre-generated rounds. The first four rounds only fill
//! the windows (one advance per tag per round) and are not measured.
//!
//! Phase A replays the advances closed-loop on fresh sessions and gives
//! the throughput. Phase B replays them open-loop in real time, each
//! advance due at its own time on the stream clock, and gives the
//! latency, timed from each advance's due time. The rate is the one the
//! deployment produces, tags × advances per round ÷ round duration: 640
//! advances/s for 128 tags.
//! The stream runs the incremental `StreamingWindow`, the tracker and the
//! warm gate, and never calls the batch front end.

use crate::loadgen::{self, Clock, Timed, WallClock};
use crate::pace;
use crate::run::{self, Accuracy, Floors, Latencies, Measured, Run, Size};
use crate::stats::{self, Sample};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfp_bench::setup;
use rfp_core::{RfPrism, SenseError, SensingResult, StreamingSession};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{angle, Vec2};
use rfp_obs::JsonValue;
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};
use std::hint::black_box;
use std::time::Instant;

/// Sliding-window span, in hop rounds.
const WINDOW_ROUNDS: f64 = 4.0;
/// Advances per tag per hop round: one per dwell.
const ADVANCES_PER_ROUND: usize = 50;
/// Rounds that fill the windows before measurement starts: a full window,
/// so that every measured advance sees steady-state window sizes.
const WARMUP_ROUNDS: usize = 4;
/// One tag in this many creeps.
const CREEPER_EVERY: usize = 8;
/// Creep speed, m/s.
const CREEP_SPEED: f64 = 0.005;
/// Lateness growth, in mean request intervals, beyond which the open loop
/// reports a growing backlog.
const BACKLOG_SLACK_INTERVALS: f64 = 5.0;
/// Share of an untraced run that goes to phase B. At the deployment's
/// rate phase B gathers samples twenty times slower than phase A, and its
/// p90 falls where the creeping tags' slow advances begin, so its
/// sampling noise, not phase A's, limits the run-to-run spread.
const PHASE_B_SHARE: f64 = 0.75;

pub const FLOORS: Floors = Floors {
    pos_err_p50_cm: 10.0,
    orient_err_p50_deg: 30.0,
    min_yield: 0.8,
    material_acc: None,
};

/// The full-size run.
pub fn size(seconds: f64) -> Size {
    Size {
        tags: 128,
        rounds: 12,
        seconds,
        setup_builds: 5,
        setup_seconds: 1.0,
    }
}

struct Track {
    start: Vec2,
    velocity: Vec2,
    alpha: f64,
}

impl Track {
    fn position(&self, t: f64) -> Vec2 {
        self.start + self.velocity * t
    }
}

pub struct Inputs {
    scene: Scene,
    tracks: Vec<Track>,
    /// `reads[tag][antenna]`: every round's reads on the stream clock.
    reads: Vec<Vec<Vec<RawRead>>>,
    /// `(due stream time, tag)` of every advance, in time order.
    events: Vec<(f64, usize)>,
    /// Events of the warm-up rounds, which lead `events`.
    warmup: usize,
}

pub fn generate(seed: u64, size: &Size) -> Inputs {
    let scene = Scene::standard_2d();
    let mut rng = StdRng::seed_from_u64(run::mix(run::LAYOUT, 6));
    let (lo, hi) = (scene.region().min(), scene.region().max());
    let round_s = scene.reader().round_duration_s();
    let id_base = run::mix(run::LAYOUT, 7) << 20;
    let starts = run::stratified::<2>(&mut rng, size.tags);
    let alphas = run::stratified::<1>(&mut rng, size.tags);
    let mut tracks = Vec::with_capacity(size.tags);
    let mut reads = Vec::with_capacity(size.tags);
    for (j, ([u, v], [a])) in starts.into_iter().zip(alphas).enumerate() {
        let start = Vec2::new(lo.x + u * (hi.x - lo.x), lo.y + v * (hi.y - lo.y));
        let alpha = a * std::f64::consts::PI;
        let velocity = if j % CREEPER_EVERY == CREEPER_EVERY - 1 {
            (scene.region().center() - start).normalized() * CREEP_SPEED
        } else {
            Vec2::ZERO
        };
        let track = Track {
            start,
            velocity,
            alpha,
        };
        let tag = SimTag::with_seeded_diversity(id_base + j as u64)
            .attached_to(Material::CLASSES[j % Material::CLASSES.len()]);
        let mut per_antenna = vec![Vec::new(); scene.antennas().len()];
        for round in 0..size.rounds {
            let t0 = round as f64 * round_s;
            let motion = Motion::planar_linear(track.position(t0), velocity, alpha);
            let survey = scene.survey(
                &tag.with_motion(motion),
                run::mix(seed, ((round as u64) << 32) | j as u64),
            );
            for (all, round_reads) in per_antenna.iter_mut().zip(survey.per_antenna) {
                all.extend(round_reads.into_iter().map(|r| RawRead {
                    timestamp_s: r.timestamp_s + t0,
                    ..r
                }));
            }
        }
        tracks.push(track);
        reads.push(per_antenna);
    }
    let dwell_s = round_s / ADVANCES_PER_ROUND as f64;
    let events = (0..size.rounds * ADVANCES_PER_ROUND)
        .flat_map(|k| {
            (0..size.tags).map(move |j| {
                (
                    k as f64 * dwell_s + (j + 1) as f64 * dwell_s / size.tags as f64,
                    j,
                )
            })
        })
        .collect();
    let warmup = WARMUP_ROUNDS.min(size.rounds) * ADVANCES_PER_ROUND * size.tags;
    Inputs {
        scene,
        tracks,
        reads,
        events,
        warmup,
    }
}

/// One replay of the stream: a session per tag and how far each tag's
/// reads have been pushed.
struct Replay<'p> {
    sessions: Vec<StreamingSession<'p>>,
    cursors: Vec<Vec<usize>>,
}

impl<'p> Replay<'p> {
    /// Opens the sessions: the stream's set-up.
    fn open(prism: &'p RfPrism, inputs: &Inputs) -> Self {
        let span = WINDOW_ROUNDS * inputs.scene.reader().round_duration_s();
        Replay {
            sessions: inputs
                .reads
                .iter()
                .map(|_| prism.sense_streaming(span))
                .collect(),
            cursors: inputs.reads.iter().map(|r| vec![0; r.len()]).collect(),
        }
    }

    /// Pushes the reads that arrived before event `e` for its tag.
    fn push(&mut self, inputs: &Inputs, e: usize) {
        let (t, j) = inputs.events[e];
        for (antenna, reads) in inputs.reads[j].iter().enumerate() {
            let cursor = &mut self.cursors[j][antenna];
            while *cursor < reads.len() && reads[*cursor].timestamp_s < t {
                self.sessions[j].push(antenna, &reads[*cursor]);
                *cursor += 1;
            }
        }
    }

    fn advance(&mut self, inputs: &Inputs, e: usize) -> Result<SensingResult, SenseError> {
        let (t, j) = inputs.events[e];
        self.sessions[j].advance(t)
    }

    fn recycle(&mut self, inputs: &Inputs, e: usize, result: Result<SensingResult, SenseError>) {
        if let Ok(result) = result {
            self.sessions[inputs.events[e].1].recycle(result);
        }
    }

    /// Fills the windows with the warm-up rounds' reads, advancing each
    /// session once per round: the state of a session that has tracked its
    /// tag for a whole window, at a fraction of the cost of every dwell.
    fn warm_up(&mut self, inputs: &Inputs) {
        let per_dwell = inputs.tracks.len();
        let round_ends = (0..inputs.warmup)
            .filter(|e| (e / per_dwell) % ADVANCES_PER_ROUND == ADVANCES_PER_ROUND - 1);
        for e in round_ends {
            self.push(inputs, e);
            let result = self.advance(inputs, e);
            self.recycle(inputs, e, result);
        }
    }
}

fn failure(result: &Result<SensingResult, SenseError>) -> u64 {
    u64::from(result.as_ref().is_err_and(|e| !run::rejected_2d(e)))
}

impl Inputs {
    /// Advances per second of stream time: every tag advances once per
    /// dwell.
    fn rate_per_s(&self) -> f64 {
        (self.tracks.len() * ADVANCES_PER_ROUND) as f64 / self.scene.reader().round_duration_s()
    }

    fn record(&self, acc: &mut Accuracy, e: usize, result: &Result<SensingResult, SenseError>) {
        let (t, j) = self.events[e];
        match result {
            Ok(r) => acc.sensed(
                r.estimate.position.distance(self.tracks[j].position(t)) * 100.0,
                angle::dipole_distance(r.estimate.orientation, self.tracks[j].alpha).to_degrees(),
            ),
            Err(_) => acc.rejected(),
        }
    }
}

/// Replays the stream closed-loop, a fresh set of sessions per pass,
/// until `seconds` have gone into measured events and the first pass is
/// complete; warm-up events run unmeasured and uncounted,
/// `measured(replay, event, pass)` serves the rest. Returns the heap peak
/// (see [`crate::mem`]) at the end of the first pass.
fn replay_closed<'p>(
    prism: &'p RfPrism,
    inputs: &Inputs,
    first: Replay<'p>,
    seconds: f64,
    mut measured: impl FnMut(&mut Replay<'p>, usize, usize),
) -> usize {
    let mut spent = 0.0;
    let mut replay = first;
    let mut heap_peak = 0;
    for pass in 0.. {
        if pass > 0 {
            replay = Replay::open(prism, inputs);
        }
        replay.warm_up(inputs);
        let t0 = Instant::now();
        for e in inputs.warmup..inputs.events.len() {
            if pass > 0 && spent + t0.elapsed().as_secs_f64() >= seconds {
                return heap_peak;
            }
            measured(&mut replay, e, pass);
        }
        spent += t0.elapsed().as_secs_f64();
        if pass == 0 {
            heap_peak = crate::mem::peak();
        }
        if spent >= seconds {
            break;
        }
    }
    heap_peak
}

/// Phase A: closed-loop throughput; accuracy covers the first pass.
fn phase_a<'p>(
    prism: &'p RfPrism,
    inputs: &Inputs,
    first: Replay<'p>,
    seconds: f64,
    measured: &mut Measured,
) {
    let (samples, accuracy) = (&mut measured.samples, &mut measured.accuracy);
    let failed = &mut measured.failed;
    measured.heap_peak = replay_closed(prism, inputs, first, seconds, |replay, e, pass| {
        let t0 = Instant::now();
        replay.push(inputs, black_box(e));
        let result = black_box(replay.advance(inputs, e));
        let wall = t0.elapsed().as_secs_f64();
        samples.push(Sample {
            secs: wall * pace::scale(),
            wall,
            ops: 1,
        });
        *failed += failure(&result);
        if pass == 0 {
            inputs.record(accuracy, e, &result);
        }
        replay.recycle(inputs, e, result);
    });
}

/// Phase B: `seconds` of the open loop, each advance due at its stream
/// time. Each pass's warm-up runs closed-loop outside that time, then the
/// schedule restarts.
fn phase_b(prism: &RfPrism, inputs: &Inputs, seconds: f64) -> (Vec<Timed>, u64) {
    let clock = WallClock::new();
    let mut timed = Vec::new();
    let mut failed = 0;
    let mut left = seconds;
    let stream_start = inputs.events[inputs.warmup].0;
    let due = |i: usize| inputs.events[inputs.warmup + i].0 - stream_start;
    loop {
        let mut replay = Replay::open(prism, inputs);
        replay.warm_up(inputs);
        let measured = inputs.events.len() - inputs.warmup;
        let start = clock.now();
        let pass = loadgen::run(&clock, measured, due, start + left, |i| {
            let e = inputs.warmup + i;
            replay.push(inputs, e);
            let result = black_box(replay.advance(inputs, e));
            failed += failure(&result);
            replay.recycle(inputs, e, result);
        });
        let cut_short = pass.len() < measured;
        timed.extend(pass);
        left -= clock.now() - start;
        if cut_short || left <= 0.0 {
            return (timed, failed);
        }
    }
}

pub fn run(seed: u64, size: &Size, traced: bool) -> Run {
    let inputs = generate(seed, size);
    let prism = setup::prism_for(&inputs.scene);
    let per_pass = inputs.events.len() - inputs.warmup;
    let mut measured = Measured::start(per_pass, per_pass);
    let first = if traced {
        Replay::open(&prism, &inputs)
    } else {
        measured.set_up(size, || Replay::open(&prism, &inputs))
    };
    // What follows phase A: phase B, or in a traced run the traced pass,
    // which takes half the run as on the other workloads.
    let after_a_s = size.seconds * if traced { 0.5 } else { PHASE_B_SHARE };
    phase_a(&prism, &inputs, first, size.seconds - after_a_s, &mut measured);
    let mut run = measured.run(&FLOORS);
    if traced {
        let tracer = trace_pass(&prism, &inputs, after_a_s);
        tracer.report(&mut run, measured.secs_per_op(), 0);
        return run;
    }

    let (timed, failed) = phase_b(&prism, &inputs, after_a_s);
    run.attempted += timed.len() as u64;
    run.failed += failed;
    let latencies = Latencies {
        reference: timed.iter().map(|t| t.latency() * 1e6).collect(),
        wall: timed.iter().map(|t| t.wall_latency() * 1e6).collect(),
    };
    measured.end_to_end(&mut run, &latencies);
    let lateness_max = timed.iter().map(Timed::lateness).fold(0.0, f64::max);
    let rate = inputs.rate_per_s();
    run.diagnostics.extend([
        (
            "phase_a_samples",
            JsonValue::Num(measured.samples.len() as f64),
        ),
        ("loadgen.rate_per_s", JsonValue::Num(rate)),
        (
            "loadgen.lat_p99_us",
            JsonValue::Num(stats::raw_quantile(&latencies.reference, 0.99)),
        ),
        ("loadgen.late_max_ms", JsonValue::Num(lateness_max * 1e3)),
        (
            "loadgen.backlog_growing",
            JsonValue::Bool(loadgen::backlog_growing(
                &timed,
                BACKLOG_SLACK_INTERVALS / rate,
            )),
        ),
    ]);
    run
}

/// The traced pass: pushes and the advance timed apart, the sessions'
/// engine counters and detector outcomes tallied per advance.
fn trace_pass(prism: &RfPrism, inputs: &Inputs, seconds: f64) -> Tracer {
    let mut tracer = Tracer::default();
    let antennas = inputs.scene.antennas().len() as u64;
    let first = Replay::open(prism, inputs);
    replay_closed(prism, inputs, first, seconds, |replay, e, _| {
        let layers = &mut tracer.layers;
        let before = replay.sessions[inputs.events[e].1].stats();
        crate::trace::timed(&mut layers.push_s, &mut layers.spans, || {
            replay.push(inputs, e)
        });
        let result = crate::trace::timed(&mut layers.advance_s, &mut layers.spans, || {
            replay.advance(inputs, e)
        });
        let after = replay.sessions[inputs.events[e].1].stats();
        layers.tags += 1;
        layers.antenna_windows += antennas;
        layers.updates += after.updates - before.updates;
        layers.downdates += after.downdates - before.downdates;
        layers.fallbacks += after.refit_fallbacks - before.refit_fallbacks;
        layers.rebuilds += after.rebuilds - before.rebuilds;
        match &result {
            Ok(r) => layers.verdict(&r.verdict),
            Err(SenseError::TagMoving { worst_residual_std }) => {
                layers.verdict(&rfp_core::MobilityVerdict::Moving {
                    worst_residual_std: *worst_residual_std,
                })
            }
            Err(_) => {}
        }
        replay.recycle(inputs, e, result);
    });
    tracer
}
