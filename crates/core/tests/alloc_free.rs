//! Steady-state allocation contract of the LM linear-algebra kernel
//! (DESIGN.md §6): once an [`LmWorkspace`]'s buffers have been sized by a
//! first solve, further solves against that workspace perform **zero**
//! heap allocations — the normal equations, factorization, step and trial
//! point all live in flat caller-owned buffers.
//!
//! Measured with a counting `#[global_allocator]`; this lives in an
//! integration test because the library itself forbids `unsafe` (tests
//! are a separate crate, so the crate-level `forbid` does not apply). The
//! same allocator keeps a per-thread tally of live bytes, which pins what
//! a tracked tag's streaming session holds.

use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig};
use rfp_dsp::preprocess::{preprocess_reads_with, PreprocessConfig};
use rfp_dsp::FrontEndWorkspace;
use rfp_core::solver::{residuals_2d, residuals_and_jacobian_2d, SolverConfig};
use rfp_core::{RfPrism, SenseWorkspace, WarmStart};
use rfp_geom::Vec2;
use rfp_oracle::solver::{levenberg_marquardt_analytic_with, levenberg_marquardt_with, LmWorkspace};
use rfp_sim::{Motion, Scene, SimTag};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through allocator that counts alloc/realloc events while armed
/// and tallies live bytes always.
struct CountingAlloc;

thread_local! {
    /// `(armed, events)` of the calling thread. Per-thread, so tests that
    /// run in parallel never count (or reset) each other's allocations.
    static COUNTER: Cell<(bool, u64)> = const { Cell::new((false, 0)) };
    /// Bytes allocated minus bytes freed on the calling thread.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Counts one alloc/realloc event when the calling thread is armed.
fn count_event() {
    // `try_with` instead of `with`: the allocator must never panic, even
    // while thread-local storage is being torn down.
    let _ = COUNTER.try_with(|c| {
        let (armed, events) = c.get();
        if armed {
            c.set((true, events + 1));
        }
    });
}

/// Adds `delta` to the calling thread's live-byte tally.
fn tally(delta: isize) {
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            tally(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        tally(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            tally(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by `f` on the calling thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTER.with(|c| c.set((true, 0)));
    let out = f();
    let (_, events) = COUNTER.with(|c| c.replace((false, 0)));
    (out, events)
}

/// Bytes the calling thread has allocated and not yet freed.
fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// Real solver observations so the kernels run against the production
/// residual/Jacobian closures, not a toy model.
fn scene_observations() -> Vec<AntennaObservation> {
    let scene = Scene::standard_2d();
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let survey = scene.survey(&tag, 17);
    scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).expect("usable"))
        .collect()
}

const P0: [f64; 5] = [0.4, 1.4, 0.6, 5.0e-9, 1.0];

#[test]
fn analytic_core_is_allocation_free_in_steady_state() {
    let obs = scene_observations();
    let resjac = |p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
        residuals_and_jacobian_2d(&obs, p, r, jac);
    };
    let mut ws = LmWorkspace::default();
    // First solve sizes every buffer.
    levenberg_marquardt_analytic_with(&mut ws, &resjac, P0.to_vec(), 60, 1e-12);
    // The parameter vector is handed in from outside the window; the core
    // itself must not touch the heap again.
    let p = P0.to_vec();
    let ((_, cost), allocs) = allocations_during(|| {
        levenberg_marquardt_analytic_with(&mut ws, &resjac, p, 60, 1e-12)
    });
    assert!(cost.is_finite());
    assert_eq!(allocs, 0, "analytic LM core allocated {allocs} times in steady state");
}

#[test]
fn numeric_core_is_allocation_free_in_steady_state() {
    let obs = scene_observations();
    let residual =
        |p: &[f64], out: &mut Vec<f64>| residuals_2d(&obs, p, out);
    let steps = [1e-4, 1e-4, 1e-4, 1e-12, 1e-4];
    let mut ws = LmWorkspace::default();
    levenberg_marquardt_with(&mut ws, &residual, P0.to_vec(), &steps, 60, 1e-12);
    let p = P0.to_vec();
    let ((_, cost), allocs) = allocations_during(|| {
        levenberg_marquardt_with(&mut ws, &residual, p, &steps, 60, 1e-12)
    });
    assert!(cost.is_finite());
    assert_eq!(allocs, 0, "numeric LM core allocated {allocs} times in steady state");
}

/// The full `sense()` pipeline — preprocessing, line fits, mobility
/// assessment, the multi-start solve and uncertainty propagation — is
/// allocation-free in steady state when driven through
/// [`RfPrism::sense_reusing`] with results recycled back into the
/// [`SenseWorkspace`] pools.
#[test]
fn full_sense_is_allocation_free_in_steady_state() {
    let scene = Scene::standard_2d();
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let survey = scene.survey(&tag, 17);
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());
    let cache = prism.batch_cache();
    let mut ws = SenseWorkspace::default();

    // Warm-up passes size every pool: front-end columns, observation
    // slots, solver candidate vectors, uncertainty scratch.
    for _ in 0..3 {
        let r = prism
            .sense_reusing(&cache, &survey.per_antenna, None, &mut ws)
            .expect("usable window");
        ws.recycle(r);
    }

    let (result, allocs) =
        allocations_during(|| prism.sense_reusing(&cache, &survey.per_antenna, None, &mut ws));
    let result = result.expect("usable window");
    assert!(result.estimate.position.distance(Vec2::new(0.5, 1.5)) < 0.5);
    assert_eq!(allocs, 0, "full sense() allocated {allocs} times in steady state");
    ws.recycle(result);

    // The warm-start fast path must hold the same contract (it is the
    // tracking loop's steady state).
    let warm = WarmStart {
        position: Vec2::new(0.5, 1.5),
        orientation: 0.8,
        kt: 0.0,
        bt: 0.0,
    };
    for _ in 0..3 {
        let r = prism
            .sense_reusing(&cache, &survey.per_antenna, Some(&warm), &mut ws)
            .expect("usable window");
        ws.recycle(r);
    }
    let (result, allocs) = allocations_during(|| {
        prism.sense_reusing(&cache, &survey.per_antenna, Some(&warm), &mut ws)
    });
    let result = result.expect("usable window");
    assert_eq!(allocs, 0, "warm sense() allocated {allocs} times in steady state");
    ws.recycle(result);
}

/// One full streaming advance — pushing a round of reads into the
/// per-antenna sliding windows, expiring the old round, the incremental
/// extracts, mobility assessment and the warm-started solve — allocates
/// nothing once the session pools are sized, as long as results are
/// recycled.
///
/// Clean noise keeps the per-round read counts constant so the steady
/// state is exact; with dropouts the per-channel FIFOs still amortize
/// (a reallocation only when a channel exceeds its high-water mark).
#[test]
fn streaming_advance_is_allocation_free_in_steady_state() {
    let scene = Scene::standard_2d().with_noise(rfp_sim::NoiseModel::clean());
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let rounds = rfp_sim::stream_rounds(&scene, &tag, 6, 17);
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());
    let mut session = prism.sense_streaming(scene.reader().round_duration_s());

    // Warm-up advances size the window FIFOs (including the transient
    // two-rounds-deep state between push and expiry), observation slots
    // and solver pools.
    for round in &rounds[..5] {
        for (antenna, reads) in round.per_antenna.iter().enumerate() {
            for read in reads {
                session.push(antenna, read);
            }
        }
        let r = session.advance(round.end_time_s).expect("usable window");
        session.recycle(r);
    }

    let round = &rounds[5];
    let (result, allocs) = allocations_during(|| {
        for (antenna, reads) in round.per_antenna.iter().enumerate() {
            for read in reads {
                session.push(antenna, read);
            }
        }
        session.advance(round.end_time_s)
    });
    let result = result.expect("usable window");
    assert!(result.estimate.position.distance(Vec2::new(0.5, 1.5)) < 0.5);
    assert_eq!(allocs, 0, "streaming advance allocated {allocs} times in steady state");
    session.recycle(result);
}

/// What one tracked tag costs: a `standard_2d` session with a 40 s
/// window, fed at the reader's dwell cadence (50 advances per hop round)
/// for 1.5 window spans with every result recycled, holds at most
/// 285,000 bytes of heap (251,880 measured) — its windows' retained reads
/// and channel state, one front-end workspace, and the solver and
/// observation pools. A window keeps no Theil–Sen state.
#[test]
fn tracked_tag_session_holds_at_most_285_kb() {
    const SPAN_S: f64 = 40.0;
    const ADVANCES_PER_ROUND: usize = 50;
    let scene = Scene::standard_2d();
    let round_s = scene.reader().round_duration_s();
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let rounds = rfp_sim::stream_rounds(&scene, &tag, (1.5 * SPAN_S / round_s).ceil() as usize, 17);
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());

    let before = live_bytes();
    let mut session = prism.sense_streaming(SPAN_S);
    let mut cursors = vec![0usize; scene.antenna_poses().len()];
    let mut estimates = 0usize;
    for round in &rounds {
        cursors.iter_mut().for_each(|c| *c = 0);
        let dwell_s = (round.end_time_s - round.start_time_s) / ADVANCES_PER_ROUND as f64;
        for slice in 1..=ADVANCES_PER_ROUND {
            let now = round.start_time_s + slice as f64 * dwell_s;
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                let cursor = &mut cursors[antenna];
                while *cursor < reads.len()
                    && (reads[*cursor].timestamp_s < now || slice == ADVANCES_PER_ROUND)
                {
                    session.push(antenna, &reads[*cursor]);
                    *cursor += 1;
                }
            }
            if let Ok(result) = session.advance(now) {
                estimates += 1;
                session.recycle(result);
            }
        }
    }
    let held = live_bytes() - before;
    assert!(estimates > rounds.len() * ADVANCES_PER_ROUND / 2, "{estimates} estimates");
    assert!(held <= 285_000, "a tracked tag's session holds {held} bytes");
    drop(session);
}

/// The allocation contract survives instrumentation: with the `obs`
/// probes live — a recorder installed, latency histograms timing every
/// advance, counters draining per window — the steady-state streaming
/// advance still touches the heap zero times. This pins the "continuous
/// telemetry is free" claim: histograms are fixed-bucket arrays and span
/// nodes are reused after the first pass.
#[test]
#[cfg(feature = "obs")]
fn streaming_advance_with_obs_is_allocation_free_in_steady_state() {
    let scene = Scene::standard_2d().with_noise(rfp_sim::NoiseModel::clean());
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let rounds = rfp_sim::stream_rounds(&scene, &tag, 6, 17);
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());

    let ((), _rec) = rfp_obs::recorder::observe(rfp_core::obs::METRICS, || {
        let mut session = prism.sense_streaming(scene.reader().round_duration_s());
        for round in &rounds[..5] {
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                for read in reads {
                    session.push(antenna, read);
                }
            }
            let r = session.advance(round.end_time_s).expect("usable window");
            session.recycle(r);
        }

        let round = &rounds[5];
        let (result, allocs) = allocations_during(|| {
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                for read in reads {
                    session.push(antenna, read);
                }
            }
            session.advance(round.end_time_s)
        });
        let result = result.expect("usable window");
        assert_eq!(
            allocs, 0,
            "instrumented streaming advance allocated {allocs} times in steady state"
        );
        session.recycle(result);
    });
}

/// The lane-parallel facades hold the same contract as the old twin
/// solvers: once a [`rfp_core::solver::SolverWorkspace`]'s pools are
/// sized by a first pass, a full **cold** multi-seed solve — coarse
/// 4-wide seed ranking over the geometry tables, α scan, LM refinement
/// in 4-wide row lanes, uncertainty propagation — runs with zero heap
/// allocations, and so does the warm-start fast path.
#[test]
fn lane_solve_2d_is_allocation_free_cold_and_warm() {
    let scene = Scene::standard_2d();
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let survey = scene.survey(&tag, 17);
    let obs: Vec<AntennaObservation> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).expect("usable"))
        .collect();
    let config = SolverConfig::default();
    let seeds =
        rfp_core::solver::SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = rfp_core::solver::SolverWorkspace::default();

    // Sizing pass.
    rfp_core::solver::solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None)
        .expect("solvable");

    let (cold, allocs) = allocations_during(|| {
        rfp_core::solver::solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None)
    });
    let cold = cold.expect("solvable");
    assert_eq!(allocs, 0, "cold 2-D lane solve allocated {allocs} times in steady state");

    let warm = WarmStart::from_estimate(&cold);
    rfp_core::solver::solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&warm))
        .expect("solvable");
    let (result, allocs) = allocations_during(|| {
        rfp_core::solver::solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&warm))
    });
    result.expect("solvable");
    assert_eq!(allocs, 0, "warm 2-D lane solve allocated {allocs} times in steady state");
}

/// Same contract for the 7-parameter 3-D facade (`LmCore<7>`): cold
/// dipole-ranked scans, warm re-solves and a solve over a subset of the
/// seeds' antennas are zero-alloc once the
/// [`rfp_core::solver3d::Solver3DWorkspace`] pools are sized.
#[test]
fn lane_solve_3d_is_allocation_free_cold_and_warm() {
    use rfp_core::solver3d::{
        solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace, WarmStart3D,
    };
    let scene = Scene::six_antenna_3d();
    let tag = SimTag::nominal(1).with_motion(Motion::Static {
        position: rfp_geom::Vec3::new(0.7, 1.1, 0.5),
        dipole: rfp_geom::Vec3::new(0.4, 0.6, 0.9).normalized(),
    });
    let survey = scene.survey(&tag, 21);
    let obs: Vec<AntennaObservation> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).expect("usable"))
        .collect();
    let config = SolverConfig::default();
    let seeds =
        Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &scene.antenna_poses());
    let mut ws = Solver3DWorkspace::default();

    solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
    let (cold, allocs) =
        allocations_during(|| solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None));
    let cold = cold.expect("solvable");
    assert_eq!(allocs, 0, "cold 3-D lane solve allocated {allocs} times in steady state");

    let warm = WarmStart3D::from_estimate(&cold);
    solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&warm)).expect("solvable");
    let (result, allocs) = allocations_during(|| {
        solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&warm))
    });
    result.expect("solvable");
    assert_eq!(allocs, 0, "warm 3-D lane solve allocated {allocs} times in steady state");

    // An antenna dropped by extraction: the solve reads five of the six
    // antennas' table columns, mapped into the same workspace.
    let mut five = obs.clone();
    five.remove(2);
    let (result, allocs) =
        allocations_during(|| solve_3d_seeded_warm(&five, &seeds, &config, &mut ws, None));
    result.expect("solvable");
    assert_eq!(allocs, 0, "3-D lane solve of 5 of 6 antennas allocated {allocs} times");
}

/// What a warmed 3-D solver workspace holds: in the benchmark's
/// six-antenna cluttered room, after cold, warm and five-antenna solves of
/// eight tags, at most 6,500 bytes of heap (6,256 measured) — its two LM
/// cores' residual and Jacobian buffers, the seed ranking, the stage-1 and
/// joint candidate lists and the orientation scan's state. The scan keeps
/// two numbers per direction (72 in 3-D, 1,152 bytes) and a selection of
/// four `(direction, b_t seed, cost)` entries; when it kept that entry for
/// every direction (1,728 bytes), the workspace held 6,688 bytes.
#[test]
fn warmed_3d_solver_workspace_holds_at_most_6_500_bytes() {
    use rfp_core::solver3d::{
        solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace, WarmStart3D,
    };
    let scene = Scene::six_antenna_3d()
        .with_environment(rfp_sim::MultipathEnvironment::cluttered(6, 6));
    let config = SolverConfig::default();
    let seeds =
        Solve3DSeeds::for_scene(scene.region(), (0.0, 1.5), &config, &scene.antenna_poses());
    let tags: Vec<Vec<AntennaObservation>> = (0..8u64)
        .filter_map(|i| {
            let t = i as f64;
            let position = rfp_geom::Vec3::new(0.3 + 0.2 * t, 0.8 + 0.15 * t, 0.2 + 0.15 * t);
            let dipole = rfp_geom::Vec3::new(0.4 - 0.1 * t, 0.6, 0.3 + 0.1 * t);
            let tag = SimTag::with_seeded_diversity(70 + i)
                .with_motion(Motion::Static { position, dipole: dipole.normalized() });
            let survey = scene.survey(&tag, 100 + i);
            scene
                .antenna_poses()
                .iter()
                .zip(&survey.per_antenna)
                .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
                .collect()
        })
        .collect();
    assert!(tags.len() >= 6, "{} tags extracted", tags.len());
    let fives: Vec<Vec<AntennaObservation>> = tags
        .iter()
        .enumerate()
        .map(|(i, obs)| {
            let mut five = obs.clone();
            five.remove(i % obs.len());
            five
        })
        .collect();

    let before = live_bytes();
    let mut ws = Solver3DWorkspace::default();
    for (obs, five) in tags.iter().zip(&fives) {
        let cold = solve_3d_seeded_warm(obs, &seeds, &config, &mut ws, None).expect("solvable");
        let warm = WarmStart3D::from_estimate(&cold);
        solve_3d_seeded_warm(obs, &seeds, &config, &mut ws, Some(&warm)).expect("solvable");
        solve_3d_seeded_warm(five, &seeds, &config, &mut ws, None).expect("solvable");
    }
    let held = live_bytes() - before;
    assert!(held <= 6_500, "a warmed 3-D solver workspace holds {held} bytes");
    drop(ws);
}

/// The quantized-code trig tables live inline in a static (`OnceLock`
/// with in-place storage): building them touches the heap zero times, so
/// "construction is one-time" holds trivially — there is nothing to free
/// or grow afterwards either.
#[test]
fn trig_table_construction_never_allocates() {
    let ((), allocs) = allocations_during(rfp_dsp::trig::warm_tables);
    assert_eq!(allocs, 0, "table build allocated {allocs} times");
}

/// Steady-state allocation contract of the front end's trig path: after
/// a sizing pass, `preprocess_reads_with` is zero-alloc through the table
/// lookups (quantized, code-carrying R420 reads) and through libm
/// (continuous, codeless ideal-reader reads) alike.
#[test]
fn table_preprocess_is_allocation_free_in_steady_state() {
    assert_preprocess_steady_state_zero_alloc(Scene::standard_2d(), "coded");
    let ideal = Scene::standard_2d().with_reader(rfp_sim::ReaderConfig::ideal());
    assert_preprocess_steady_state_zero_alloc(ideal, "codeless");
}

fn assert_preprocess_steady_state_zero_alloc(scene: Scene, label: &str) {
    let tag = SimTag::with_seeded_diversity(9)
        .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.8));
    let survey = scene.survey(&tag, 17);
    let reads = &survey.per_antenna[0];
    let config = PreprocessConfig::default();
    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    // Sizing passes: workspace columns, output buffer, trig tables.
    for _ in 0..2 {
        preprocess_reads_with(&mut ws, reads, &config, &mut out).expect("usable window");
    }
    let (result, allocs) =
        allocations_during(|| preprocess_reads_with(&mut ws, reads, &config, &mut out));
    result.expect("usable window");
    assert!(!out.is_empty());
    assert_eq!(
        allocs, 0,
        "{label} preprocess allocated {allocs} times in steady state"
    );
}
