//! The joint disentangling solver (paper §IV-C, §V-A).
//!
//! Given N ≥ 3 antenna observations `(kᵢ, bᵢ)`, solve the 2N equations
//!
//! ```text
//! kᵢ = 4π · dist(Aᵢ, (x, y)) / c + k_t
//! bᵢ = θ_orient(Aᵢ, α) + b_t        (mod 2π)
//! ```
//!
//! for the 5 unknowns `(x, y, α, k_t, b_t)` by weighted nonlinear least
//! squares. The intercept residuals are *angular* (wrapped into
//! `(-π, π]`), which makes the cost surface multimodal in `α`; a coarse
//! multi-start over the working region × orientation grid followed by
//! Levenberg–Marquardt refinement finds the global optimum reliably.
//!
//! One LM engine, [`LmCore`], refines every start through
//! [`LmCore::refine`]. The residuals of Eq. 6 are closed-form
//! differentiable, so each iteration evaluates the residuals *and* the
//! exact Jacobian in one fused pass (DESIGN.md §6 derives ∂r/∂p) and
//! solves the SPD normal equations `(JᵀJ + λD)δ = −Jᵀr` by Cholesky,
//! re-damping only the diagonal across the λ-adaptation retries of an
//! iteration. The 2-D estimate's Gauss–Newton covariance `(JᵀJ)⁻¹` comes
//! from the joint core too: the same assembly and Cholesky, evaluated once
//! at the solution.
//!
//! [`SolveSeeds`] precomputes the per-scene geometry of an antenna
//! deployment (per-seed per-antenna slopes, per-α-seed orientation and
//! projection tables) once, so the stage-1/stage-2 seeding of every tag
//! against the same scene reads `dist(Aᵢ, seed)` and `θ_orient(Aᵢ, α₀)`
//! from tables instead of recomputing them. A solve maps its observations
//! to table columns by pose, so one that lacks an antenna (dropped by
//! extraction) reads only the columns of the antennas present.
//!
//! The multi-start is **coarse-to-fine**: every position seed is ranked
//! by its cheap unrefined slope cost (an O(N) table lookup per seed) and
//! only the best few (the scene dimension's beam) receive LM refinement,
//! with a cost-plateau early exit across both the seed beam and the
//! stage-3 joint short-list. The solver has one configuration, the
//! paper's: its values are constants of this module and of each scene
//! dimension, and the refine-everything scan survives only in the frozen
//! oracle the pruned one is checked against. Consecutive sensing rounds
//! can also hand the previous round's state back in as a [`WarmStart`]:
//! the solver refines the prior first and skips the multi-start scan
//! whenever the result passes a validation gate against the coarse-scan
//! floor, falling back to the full scan otherwise so a stale prior never
//! captures the solve (see [`solve_2d_seeded_warm`]).
//!
//! This module also holds the one solver facade the 2-D solve and the
//! 3-D solve of [`crate::solver3d`] share: multi-start seeds
//! ([`Seeds`]), the workspace ([`Workspace`]), the coarse seed ranking,
//! the warm-start gate, the stage-1 slope solve, the orientation scan and
//! the joint short-list. It is generic over a crate-private
//! scene-dimension trait whose two implementations ([`Planar`] here,
//! [`Spatial`](crate::solver3d::Spatial) in 3-D) supply only the residual
//! kernels, the scan directions, the admissibility test and the estimate
//! assembly. Every refinement runs on [`LmCore`] (`LmCore<5>`/`LmCore<3>`
//! in 2-D, `LmCore<7>`/`LmCore<4>` in 3-D) through a [`ResidualModel`];
//! the pre-refactor solvers are frozen verbatim in the dev-only
//! `rfp-oracle` crate (`rfp_oracle::solver`) as the bit-exact oracle the
//! facade is pinned against (see DESIGN.md §6).

use crate::lm::{LmCore, ResidualModel, StepStats};
use crate::model::AntennaObservation;
use crate::obs;
use rfp_geom::{angle, AntennaPose, Region2, Vec2, Vec3};
use rfp_phys::polarization::{orientation_phase, planar_dipole, projection_magnitude};
use rfp_phys::propagation;
use std::marker::PhantomData;

/// Expected slope noise σ_k (rad/Hz); weights the slope residuals.
pub(crate) const SLOPE_SIGMA: f64 = 1.0e-10;
/// Expected intercept noise σ_b (rad); weights the intercept residuals.
pub(crate) const INTERCEPT_SIGMA: f64 = 0.08;
/// Relative cost-decrease tolerance for LM convergence.
const TOLERANCE: f64 = 1e-10;
/// Expected RSSI noise (dB) of the mode penalty (see [`rssi_mode_penalty`]).
const RSSI_SIGMA_DB: f64 = 1.0;
/// Cost-plateau early exit of the coarse-to-fine scan: once two
/// candidates of a stage are refined, the remaining candidates whose
/// *pre-refinement* cost already exceeds the best refined cost by this
/// relative margin are skipped, in the stage-1 seed beam and the stage-3
/// joint short-list alike.
const PLATEAU_REL_TOL: f64 = 0.5;
/// Warm-start validation gate: a warm-started refinement is accepted only
/// when its ranking cost stays within this relative margin of the
/// coarse-scan floor (the cost of the best coarse seed after stage-1
/// refinement and an orientation scan — a value the scan itself could
/// reach). Teleporting tags fail the gate and fall back to the full scan.
const WARM_GATE_REL_TOL: f64 = 0.25;
/// Stage-1 candidates closer than this (metres) to a kept one are
/// duplicates of its basin: they get no orientation scan and no joint
/// refinements.
const STAGE1_DEDUP_M: f64 = 0.10;

/// Work counters of the LM cores, for profiling (see the `solver_profile`
/// bench). Counters accumulate monotonically per workspace; snapshot them
/// with [`LmCore::stats`] (or the workspace-level `stats`) before and
/// after a solve and diff with [`SolveStats::since`] for per-solve counts.
///
/// The oracle's numeric core (`rfp-oracle`) charges each
/// finite-difference sweep as one residual evaluation — exactly the cost
/// the analytic path removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Residual-vector evaluations (each is a full pass over the
    /// residuals). [`LmCore`] evaluates each point it visits once: the
    /// starting point and every trial whose step does not round away.
    pub residual_evals: u64,
    /// Jacobian evaluations. Analytic: fused with a residual pass, and in
    /// [`LmCore`] every evaluation is fused, so this equals
    /// `residual_evals`. Numeric (oracle only): assembled from
    /// `2·n_params` sweeps, charged to `residual_evals`.
    pub jacobian_evals: u64,
    /// LM iterations across all starts.
    pub iterations: u64,
}

impl SolveStats {
    /// The work performed since `earlier` was snapshotted.
    #[must_use]
    pub fn since(self, earlier: SolveStats) -> SolveStats {
        SolveStats {
            residual_evals: self.residual_evals - earlier.residual_evals,
            jacobian_evals: self.jacobian_evals - earlier.jacobian_evals,
            iterations: self.iterations - earlier.iterations,
        }
    }
}

/// Seed-pruning and warm-start effectiveness counters, accumulated
/// monotonically per workspace (snapshot with [`Workspace::prune_stats`]
/// and diff with [`PruneStats::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Multi-start position seeds considered across all solves.
    pub seeds_total: u64,
    /// Seeds that actually received a stage-1 LM refinement (includes the
    /// warm-start gate's floor refinement).
    pub seeds_refined: u64,
    /// Warm-started refinements accepted by the validation gate (the
    /// multi-start scan was skipped).
    pub warm_start_hits: u64,
    /// Warm-start attempts rejected by the gate (fell back to the scan).
    pub warm_start_misses: u64,
    /// Admissible stage-1 candidates skipped as duplicates: within the
    /// dedup radius (10 cm) of a candidate already kept for the scan.
    pub stage1_duplicates: u64,
}

impl PruneStats {
    /// Seeds skipped by the coarse ranking / early exit — the stage-1 work
    /// the coarse-to-fine scan avoided.
    pub fn seeds_pruned(&self) -> u64 {
        self.seeds_total.saturating_sub(self.seeds_refined)
    }

    /// The counters accumulated since `earlier` was snapshotted.
    #[must_use]
    pub fn since(self, earlier: PruneStats) -> PruneStats {
        PruneStats {
            seeds_total: self.seeds_total - earlier.seeds_total,
            seeds_refined: self.seeds_refined - earlier.seeds_refined,
            warm_start_hits: self.warm_start_hits - earlier.warm_start_hits,
            warm_start_misses: self.warm_start_misses - earlier.warm_start_misses,
            stage1_duplicates: self.stage1_duplicates - earlier.stage1_duplicates,
        }
    }
}

/// One scene dimension of the disentangling solve: everything that differs
/// between the 2-D ([`Planar`]) and 3-D
/// ([`Spatial`](crate::solver3d::Spatial)) problems, as seen by the shared
/// facade. `J` is the joint parameter count and `S` the stage-1 count;
/// stage-1 parameters are the position coordinates followed by `k_t`, and
/// joint parameters lead with the same coordinates. The implementing type
/// is the scene's scan description, stored in its [`Seeds`].
pub(crate) trait SceneDim<const J: usize, const S: usize> {
    /// The cross-round warm-start prior.
    type Warm;
    /// The disentangled tag state.
    type Estimate;
    /// The error of a solve that cannot run.
    type Error;
    /// Fewest antennas whose 2N equations over-determine the J unknowns.
    const MIN_ANTENNAS: usize;
    /// The multi-start position grid: `nx × ny` points over the region,
    /// each at `nz` evenly spaced heights.
    const GRID: [usize; 3];
    /// Orientation-scan resolution: the α steps over `[0, π)` in 2-D, the
    /// polar rings of the dipole half-sphere (each scanned at `2·rings`
    /// azimuths) in 3-D.
    const SCAN: usize;
    /// Maximum LM iterations per refinement.
    const MAX_ITERATIONS: usize;
    /// Stage-1 beam: at most this many coarse-ranked position seeds
    /// receive LM refinement.
    const BEAM: usize;
    /// How many distinct admissible stage-1 candidates reach the scan;
    /// candidates within the module's dedup radius of a kept one are not
    /// distinct.
    const STAGE1_KEEP: usize;
    /// Scan directions per stage-1 candidate that receive a joint
    /// refinement.
    const SHORTLIST: usize;
    /// Span names of the solve and of its orientation scan.
    const SPANS: (&'static str, &'static str);
    /// Obs counter ids of (solves, iterations, residual evals, Jacobian
    /// evals).
    const COUNTERS: [usize; 4];

    /// The error for a solve given `provided` observations.
    fn too_few(provided: usize) -> Self::Error;
    /// The error for an observation whose antenna is not in the seeds'
    /// deployment.
    fn unknown_antenna() -> Self::Error;
    /// The 2N joint residuals at `p` and, when `jac` is given, their
    /// row-major `2N × J` analytic Jacobian.
    fn joint_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    );
    /// The N stage-1 slope residuals at `p` and their `N × S` Jacobian.
    fn slope_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    );
    /// Number of orientation-scan directions.
    fn scan_len(&self) -> usize;
    /// The unit dipole of scan direction `dir`.
    fn scan_dipole(&self, dir: usize) -> Vec3;
    /// The joint seed from stage-1 candidate `c`, scan direction `dir` and
    /// its closed-form `b_t` seed.
    fn joint_seed(&self, c: &[f64; S], dir: usize, bt0: f64) -> [f64; J];
    /// Whether `position` lies in the admissible scene around `region`.
    fn admissible(&self, region: Region2, position: Vec3) -> bool;
    /// The dipole axis of joint parameters `p`.
    fn dipole(p: &[f64; J]) -> Vec3;
    /// The joint parameters of a warm-start prior.
    fn warm_params(warm: &Self::Warm) -> [f64; J];
    /// The estimate of refined joint parameters `p` with weighted `cost`;
    /// `core` is the joint LM engine, free for a covariance evaluation.
    fn estimate(
        observations: &[AntennaObservation],
        p: &[f64; J],
        cost: f64,
        core: &mut LmCore<J>,
    ) -> Self::Estimate;
}

/// Per-scene constants of a solve, computed once and shared read-only by
/// every solve against the same scene — each pipeline builds its own when
/// its scene is set, and every entry point, batch worker and streaming
/// session shares it (see `crate::batch`). `D` is the scene dimension:
/// [`Planar`] for [`SolveSeeds`], [`Spatial`](crate::solver3d::Spatial)
/// for [`Solve3DSeeds`](crate::solver3d::Solve3DSeeds).
///
/// Seeds are built for a known antenna deployment (`for_scene`), with the
/// per-seed per-antenna slope table and the scan's orientation/projection
/// tables precomputed, which hoists that geometry out of the per-tag loop
/// entirely. A solve may use any subset of the deployment's antennas, in
/// any order (extraction can drop an antenna): each solve maps its
/// observations to table columns by pose and reads only those columns. An
/// observation from an antenna outside the deployment is an
/// `UnknownAntenna` error.
#[derive(Debug, Clone)]
pub struct Seeds<D> {
    /// Multi-start positions over the working region (`z = 0` in 2-D, so
    /// every distance matches the planar expression bit for bit).
    pub(crate) position_starts: Vec<Vec3>,
    /// Horizontal region candidates must refine into to be preferred.
    pub(crate) admissible: Region2,
    /// The scene dimension's scan description.
    pub(crate) dim: D,
    /// The per-antenna geometry tables of the deployment.
    pub(crate) geometry: SeedGeometry,
}

/// The 2-D solver's multi-start seeds (see [`Seeds`]).
pub type SolveSeeds = Seeds<Planar>;

/// The hoisted per-scene geometry: everything in the stage-1/stage-2
/// seeding that depends only on `(antenna poses, seed grids)`, not on the
/// tag, with one column per deployed antenna. Entries are computed by the
/// same expressions as a direct evaluation at the observation's pose, so a
/// lookup is bit-identical to it.
#[derive(Debug, Clone)]
pub(crate) struct SeedGeometry {
    /// The deployment the tables were built for, in column order.
    pub(crate) poses: Vec<AntennaPose>,
    /// `seed_slopes[s·n + i]` = `4π·dist(Aᵢ, seedₛ)/c` — the model slope
    /// of antenna *i* for grid seed *s*.
    pub(crate) seed_slopes: Vec<f64>,
    /// `orient[dir·n + i]` = `θ_orient(Aᵢ, w(dir))` for scan direction
    /// `dir`.
    pub(crate) orient: Vec<f64>,
    /// `proj[dir·n + i]` = dipole projection magnitude at antenna *i* for
    /// scan direction `dir` (feeds the RSSI mode penalty).
    pub(crate) proj: Vec<f64>,
    /// `proj_db[dir·n + i]` = `20·log10(proj[dir·n + i])` — the RSSI
    /// penalty's projection term, hoisted so the scan stops paying a
    /// `log10` per antenna per direction. `proj` stays alongside it
    /// because the penalty's readability guard tests the *linear*
    /// projection.
    pub(crate) proj_db: Vec<f64>,
}

impl SeedGeometry {
    /// Row `r` of `table` (one entry per deployed antenna).
    fn row<'a>(&self, table: &'a [f64], r: usize) -> &'a [f64] {
        let n = self.poses.len();
        &table[r * n..(r + 1) * n]
    }

    /// Fills `columns` with each observation's table column, found by its
    /// antenna pose; `false` when a pose is not in the deployment.
    fn map_columns(&self, observations: &[AntennaObservation], columns: &mut Vec<usize>) -> bool {
        columns.clear();
        for o in observations {
            let Some(col) = self.poses.iter().position(|p| *p == o.pose) else {
                return false;
            };
            columns.push(col);
        }
        true
    }
}

/// The seeds of dimension `D`'s grid over the `region × z_range` box with
/// scan `dim`, and the geometry tables of deployment `poses`.
pub(crate) fn seeds_for_scene<D: SceneDim<J, S>, const J: usize, const S: usize>(
    region: Region2,
    z_range: (f64, f64),
    dim: D,
    poses: &[AntennaPose],
) -> Seeds<D> {
    let [nx, ny, nz] = D::GRID;
    let (z_lo, z_hi) = z_range;
    let mut position_starts = Vec::with_capacity(nx * ny * nz);
    for seed_pos in region.grid(nx, ny) {
        for zi in 0..nz {
            let z = z_lo + (z_hi - z_lo) * (zi as f64 + 0.5) / nz as f64;
            position_starts.push(seed_pos.with_z(z));
        }
    }
    let n = poses.len();
    let mut seed_slopes = Vec::with_capacity(position_starts.len() * n);
    for &seed in &position_starts {
        for pose in poses {
            let d = pose.position().distance(seed);
            seed_slopes.push(propagation::slope_from_distance(d));
        }
    }
    let dirs = dim.scan_len();
    let mut orient = Vec::with_capacity(dirs * n);
    let mut proj = Vec::with_capacity(dirs * n);
    let mut proj_db = Vec::with_capacity(dirs * n);
    for dir in 0..dirs {
        let w = dim.scan_dipole(dir);
        for pose in poses {
            orient.push(orientation_phase(pose, w));
            let p = projection_magnitude(pose, w);
            proj.push(p);
            proj_db.push(20.0 * p.log10());
        }
    }
    let geometry = SeedGeometry { poses: poses.to_vec(), seed_slopes, orient, proj, proj_db };
    Seeds { position_starts, admissible: region.expanded(0.3), dim, geometry }
}

/// The 2-D scene dimension: the tag on the plane `z = 0`, its dipole an
/// orientation `α` in that plane, scanned over `[0, π)`.
#[derive(Debug, Clone, Copy)]
pub struct Planar;

impl Planar {
    /// Orientation seed `α₀` of scan direction `dir`.
    fn alpha(dir: usize) -> f64 {
        std::f64::consts::PI * dir as f64 / Self::SCAN as f64
    }
}

impl SolveSeeds {
    /// Precomputes the multi-start seeds for `region`, with the
    /// per-antenna geometry tables of deployment `poses` — the per-scene
    /// precomputation the pipelines own. The grid sits on `z = 0`, so
    /// every distance matches the planar expression bit for bit.
    pub fn for_scene(region: Region2, _config: &SolverConfig, poses: &[AntennaPose]) -> Self {
        seeds_for_scene(region, (0.0, 0.0), Planar, poses)
    }
}

/// Reusable scratch buffers for repeated solves, with `J` joint and `S`
/// stage-1 parameters. All contents are overwritten by each solve; reusing
/// one workspace across calls only avoids reallocation, it never changes
/// results.
///
/// The parameter vectors are fixed-size arrays living inline in the
/// candidate lists, so no per-candidate heap storage exists at all: cold
/// and warm solves are allocation-free once the buffers are sized (pinned
/// by the counting-allocator suite).
#[derive(Debug, Default)]
pub struct Workspace<const J: usize, const S: usize> {
    /// The joint LM engine.
    joint: LmCore<J>,
    /// The stage-1 slope-only LM engine.
    slope: LmCore<S>,
    /// Stage-1 refined candidates `(params, cost, seed index)`.
    position_candidates: Vec<([f64; S], f64, usize)>,
    /// `(coarse cost, seed index, k_t seed)` ranking of the coarse-to-fine
    /// scan; only its beam prefix is sorted.
    coarse: Vec<(f64, usize, f64)>,
    /// The orientation scan's state.
    scan: ScanState,
    /// Stage-3 refined candidates; the winner is extracted by index.
    refined: Vec<([f64; J], f64)>,
    /// Each observation's column in the seeds' geometry tables, mapped by
    /// pose at the start of every solve.
    columns: Vec<usize>,
    /// Pruning / warm-start effectiveness tallies.
    prune: PruneStats,
}

/// The 2-D solver's workspace (see [`Workspace`]).
pub type SolverWorkspace = Workspace<5, 3>;

/// The orientation scan's buffers (see [`scan`]). Every column is sized
/// exactly: one entry per antenna, per scan direction, or per short-list
/// slot (plus the one the selection needs).
#[derive(Debug, Default)]
struct ScanState {
    /// Distances from each antenna to the current candidate.
    dists: Vec<f64>,
    /// `rssiᵢ + 40·log10(dᵢ)` — the direction-independent half of the RSSI
    /// penalty, hoisted out of the scan.
    rssi_base: Vec<f64>,
    /// Per antenna, `bᵢ − θ_orient` of the direction whose intercept bound
    /// is being computed, wrapped into `[0, 2π)`.
    offsets: Vec<f64>,
    /// Per scan direction, its intercept bound and its `b_t` seed. Both
    /// depend on the observations and the direction only, so the first
    /// scan of a solve fills the column and later scans of the same solve
    /// keep it.
    dirs: Vec<ScanDir>,
    /// The scan's best `(direction index, b_t seed, cost)` entries,
    /// best-first: the short-list the joint refinements start from.
    ranked: Vec<(usize, f64, f64)>,
    /// `b_t` seeds computed in the current solve.
    seeds: u64,
    /// Directions whose cost was evaluated exactly in the current solve.
    exact: u64,
}

impl ScanState {
    /// Forgets the previous solve: its bounds and seeds belong to its
    /// observations.
    fn reset(&mut self) {
        self.dirs.clear();
        self.seeds = 0;
        self.exact = 0;
    }
}

/// One scan direction's per-solve state.
#[derive(Debug, Clone, Copy)]
struct ScanDir {
    /// Lower bound on the direction's intercept cost over every `b_t`
    /// (see [`intercept_bound`]).
    lb: f64,
    /// The direction's closed-form `b_t` seed; NaN until the direction is
    /// first evaluated exactly.
    bt: f64,
}

impl<const J: usize, const S: usize> Workspace<J, S> {
    /// Snapshot of the LM work counters accumulated by solves run against
    /// this workspace (diff two snapshots with [`SolveStats::since`] for
    /// per-solve counts). Sums the joint and slope cores, so totals match
    /// the single-workspace accounting of the pre-refactor solver.
    pub fn stats(&self) -> SolveStats {
        let j = self.joint.stats();
        let s = self.slope.stats();
        SolveStats {
            residual_evals: j.residual_evals + s.residual_evals,
            jacobian_evals: j.jacobian_evals + s.jacobian_evals,
            iterations: j.iterations + s.iterations,
        }
    }

    /// Snapshot of the seed-pruning / warm-start effectiveness counters
    /// (diff with [`PruneStats::since`]).
    pub fn prune_stats(&self) -> PruneStats {
        self.prune
    }

    /// Snapshot of the damped-step tallies — λ retries and factorization
    /// failures — summed over both LM cores (diff with
    /// [`StepStats::since`]).
    pub fn step_stats(&self) -> StepStats {
        self.joint.step_stats().merged(self.slope.step_stats())
    }
}

/// Configuration of the disentangling solver, 2-D and 3-D: none. The
/// solver has one configuration, the paper's: σ_k, σ_b, the RSSI σ and
/// the scan's tolerances are constants of this module, and the grid, the
/// orientation scan, the LM iteration cap and the beam are constants of
/// each scene dimension. The type stays only because the frozen benchmark
/// passes `&config.solver` to [`solve_2d_seeded_warm`],
/// [`solve_3d_seeded_warm`](crate::solver3d::solve_3d_seeded_warm),
/// [`SolveSeeds::for_scene`] and
/// [`Solve3DSeeds::for_scene`](crate::solver3d::Solve3DSeeds::for_scene).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverConfig {}

/// A cross-round warm-start prior for the 2-D solve: the previous round's
/// disentangled state `(x, y, α, k_t, b_t)`, optionally with the position
/// advanced by a motion model (see
/// [`TagTracker::extrapolate`](crate::tracking::TagTracker::extrapolate)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStart {
    /// Predicted tag position, metres.
    pub position: Vec2,
    /// Previous dipole orientation, radians.
    pub orientation: f64,
    /// Previous material/device slope term `k_t`, rad/Hz.
    pub kt: f64,
    /// Previous material/device intercept term `b_t`, radians.
    pub bt: f64,
}

impl WarmStart {
    /// The warm start implied by a previous round's estimate.
    pub fn from_estimate(estimate: &TagEstimate2D) -> Self {
        WarmStart {
            position: estimate.position,
            orientation: estimate.orientation,
            kt: estimate.kt,
            bt: estimate.bt,
        }
    }

    /// Replaces the position prediction (e.g. with a tracker's
    /// velocity-extrapolated position) while keeping the slow-moving
    /// material terms.
    #[must_use]
    pub fn with_position(mut self, position: Vec2) -> Self {
        self.position = position;
        self
    }
}

/// Cross-solve warm-gate state for tracking callers
/// ([`solve_2d_tracking_warm`]): caches the coarse-scan cost floor the
/// warm-start gate compares against, so steady-state advances skip the
/// per-solve stage-1 refinement + α scan that anchors it.
///
/// At tracking cadence consecutive windows overlap almost entirely, so
/// the floor drifts far more slowly than the gate's relative tolerance
/// (25%); re-anchoring it with a full recomputation every
/// [`reanchor period`](Self::with_period) bounds the staleness. The
/// cached floor can only *accept* a prior early: a miss
/// against it triggers an immediate re-anchor and a definitive retest
/// against the fresh floor — exactly the comparison
/// [`solve_2d_seeded_warm`] makes — before the multi-start scan is paid
/// for, and a confirmed miss (the scan path runs) invalidates the cache.
/// A teleporting tag therefore still fails the gate exactly as in the
/// ungated solve: its cost sits orders of magnitude above any floor,
/// stale or fresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmGate {
    /// Cached coarse-scan floor; infinite when invalid.
    floor: f64,
    /// Warm solves gated against the cached floor since the last anchor.
    age: u32,
    /// Full re-anchors happen every this many warm solves.
    period: u32,
}

impl WarmGate {
    /// A gate that re-anchors its cached floor every `period` warm solves
    /// (clamped to ≥ 1; `1` re-anchors every solve, matching
    /// [`solve_2d_seeded_warm`] exactly).
    pub fn with_period(period: u32) -> Self {
        WarmGate { floor: f64::INFINITY, age: 0, period: period.max(1) }
    }

    /// The cached floor when it is fresh enough to gate against.
    fn cached(&self) -> Option<f64> {
        (self.floor.is_finite() && self.age < self.period).then_some(self.floor)
    }

    fn anchor(&mut self, floor: f64) {
        self.floor = floor;
        self.age = 0;
    }

    fn invalidate(&mut self) {
        self.floor = f64::INFINITY;
        self.age = 0;
    }
}

impl Default for WarmGate {
    /// Re-anchor every 16 warm solves: at the streaming dwell cadence
    /// (50 advances per hop round, 4-round windows) that is ≲ 1 % window
    /// turnover per gated solve, far inside the gate tolerance.
    fn default() -> Self {
        WarmGate::with_period(16)
    }
}

/// The disentangled physical state of one tag in 2-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagEstimate2D {
    /// Tag coordinates on the surveillance plane, metres.
    pub position: Vec2,
    /// Tag dipole orientation, radians in `[0, π)` (dipoles are
    /// π-symmetric).
    pub orientation: f64,
    /// Material/device slope term `k_t`, rad/Hz.
    pub kt: f64,
    /// Material/device intercept term `b_t`, radians in `[0, 2π)`.
    pub bt: f64,
    /// Final weighted cost (sum of squared sigma-normalized residuals).
    pub cost: f64,
    /// RMS of the sigma-normalized residuals (≈1 when the noise model is
    /// well calibrated, ≫1 when the linear model is violated).
    pub residual_rms: f64,
    /// 1-σ position uncertainty from the local curvature of the cost
    /// surface (Gauss–Newton covariance), metres. A *statistical* bound —
    /// model violations (multipath bias) are not included.
    pub position_std_m: f64,
    /// 1-σ orientation uncertainty, radians (same caveat).
    pub orientation_std_rad: f64,
    /// Full 2×2 position covariance `[[σxx², σxy], [σxy, σyy²]]`, m².
    pub position_cov: [[f64; 2]; 2],
}

impl TagEstimate2D {
    /// The 1-σ uncertainty ellipse of the position estimate, if the
    /// covariance is well-formed.
    pub fn uncertainty_ellipse(&self) -> Option<rfp_geom::CovarianceEllipse> {
        rfp_geom::CovarianceEllipse::from_covariance(self.position_cov)
    }
}

/// Errors from [`solve_2d`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Fewer than three antennas: 2N < 5 unknowns.
    TooFewAntennas {
        /// Number of observations provided.
        provided: usize,
    },
    /// An observation's antenna pose is not in the seeds' deployment.
    UnknownAntenna,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::TooFewAntennas { provided } => write!(
                f,
                "2-D disentangling needs at least 3 antennas, got {provided}"
            ),
            SolveError::UnknownAntenna => {
                write!(f, "an observation's antenna is not in the seeds' deployment")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves the 2-D disentangling problem.
///
/// `region` bounds the multi-start grid (the paper's known working region);
/// the refined position may land slightly outside it — it is a seed
/// region, not a hard constraint.
///
/// # Errors
///
/// [`SolveError::TooFewAntennas`] when fewer than 3 observations are given.
pub fn solve_2d(
    observations: &[AntennaObservation],
    region: Region2,
    config: &SolverConfig,
) -> Result<TagEstimate2D, SolveError> {
    let poses: Vec<AntennaPose> = observations.iter().map(|o| o.pose).collect();
    let seeds = SolveSeeds::for_scene(region, config, &poses);
    solve_2d_seeded_warm(observations, &seeds, config, &mut SolverWorkspace::default(), None)
}

/// [`solve_2d`] against precomputed [`SolveSeeds`] and a reusable
/// [`SolverWorkspace`], with an optional cross-round [`WarmStart`] prior —
/// the hot-path entry of the pipelines. With `warm = None` it produces
/// bit-identical results to [`solve_2d`] with the same inputs.
///
/// When `warm` is given the solver refines the prior *first* and, if the
/// refined result passes the validation gate (in the admissible region and
/// its ranking cost within 25% of the coarse-scan floor), returns it
/// without running the multi-start scan at all — the steady-state
/// tracking fast path. A prior in a stale basin
/// (the tag teleported, the scene changed) fails the gate and the solver
/// falls back to the normal scan, so warm starts never change *which*
/// optimum wins, only how fast it is found.
///
/// # Errors
///
/// [`SolveError::TooFewAntennas`] when fewer than 3 observations are given;
/// [`SolveError::UnknownAntenna`] when an observation's pose is not in
/// `seeds`' deployment.
pub fn solve_2d_seeded_warm(
    observations: &[AntennaObservation],
    seeds: &SolveSeeds,
    _config: &SolverConfig,
    workspace: &mut SolverWorkspace,
    warm: Option<&WarmStart>,
) -> Result<TagEstimate2D, SolveError> {
    solve(observations, seeds, workspace, warm, None)
}

/// [`solve_2d_seeded_warm`] for tracking callers that solve the same
/// slowly sliding window many times per round: the warm-start gate reuses
/// the [`WarmGate`]'s cached coarse-scan floor instead of re-anchoring it
/// (stage-1 refinement + α scan of the best coarse seed) on every solve.
/// Cold solves, gate misses and periodic re-anchors are unchanged from
/// [`solve_2d_seeded_warm`]; only the floor's freshness differs, bounded
/// by the gate's re-anchor period.
///
/// # Errors
///
/// As [`solve_2d_seeded_warm`].
pub fn solve_2d_tracking_warm(
    observations: &[AntennaObservation],
    seeds: &SolveSeeds,
    _config: &SolverConfig,
    workspace: &mut SolverWorkspace,
    warm: Option<&WarmStart>,
    gate: &mut WarmGate,
) -> Result<TagEstimate2D, SolveError> {
    solve(observations, seeds, workspace, warm, Some(gate))
}

/// The facade both scene dimensions solve through. Warm solves refine the
/// prior first and return it when it passes the gate; everything else runs
/// the staged multi-start of [`search`]. `gate` caches the gate's floor
/// across solves (2-D tracking only).
pub(crate) fn solve<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    seeds: &Seeds<D>,
    workspace: &mut Workspace<J, S>,
    warm: Option<&D::Warm>,
    gate: Option<&mut WarmGate>,
) -> Result<D::Estimate, D::Error> {
    if observations.len() < D::MIN_ANTENNAS {
        return Err(D::too_few(observations.len()));
    }
    if !seeds.geometry.map_columns(observations, &mut workspace.columns) {
        return Err(D::unknown_antenna());
    }
    let _solve_span = obs::timed_span(D::SPANS.0, &[obs::id::SOLVE_LATENCY_US]);
    let before = obs::active().then(|| (workspace.stats(), workspace.step_stats()));
    let (p, cost, seeds_refined, duplicates, warm_hit) =
        search(observations, seeds, workspace, warm, gate);
    let seeds_total = seeds.position_starts.len() as u64;
    let warm_miss = warm.is_some() && !warm_hit;
    let prune = &mut workspace.prune;
    prune.seeds_total += seeds_total;
    prune.seeds_refined += seeds_refined;
    prune.warm_start_hits += u64::from(warm_hit);
    prune.warm_start_misses += u64::from(warm_miss);
    prune.stage1_duplicates += duplicates;
    if let Some((stats, steps)) = before {
        let work = workspace.stats().since(stats);
        let step_work = workspace.step_stats().since(steps);
        let [solves, iterations, residual_evals, jacobian_evals] = D::COUNTERS;
        obs::counters_add(&[
            (solves, 1),
            (iterations, work.iterations),
            (residual_evals, work.residual_evals),
            (jacobian_evals, work.jacobian_evals),
            (obs::id::SOLVER_SEEDS_TOTAL, seeds_total),
            (obs::id::SOLVER_SEEDS_REFINED, seeds_refined),
            (obs::id::SOLVER_SEEDS_PRUNED, seeds_total.saturating_sub(seeds_refined)),
            (obs::id::SOLVER_LAMBDA_RETRIES, step_work.lambda_retries),
            (obs::id::SOLVER_CHOL_FAILURES, step_work.chol_failures),
            (obs::id::SOLVER_WARM_HITS, u64::from(warm_hit)),
            (obs::id::SOLVER_WARM_MISSES, u64::from(warm_miss)),
            (obs::id::SOLVER_SCAN_SEEDS, workspace.scan.seeds),
            (obs::id::SOLVER_SCAN_EXACT, workspace.scan.exact),
            (obs::id::SOLVER_STAGE1_DUPLICATES, duplicates),
        ]);
    }
    Ok(D::estimate(observations, &p, cost, &mut workspace.joint))
}

/// The warm-start gate and the staged multi-start behind [`solve`]:
/// returns the winning joint parameters, their cost, the number of seeds
/// stage 1 refined, the number of stage-1 candidates it dropped as
/// duplicates and whether the warm-start gate accepted the prior.
fn search<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    seeds: &Seeds<D>,
    workspace: &mut Workspace<J, S>,
    warm: Option<&D::Warm>,
    mut gate: Option<&mut WarmGate>,
) -> ([f64; J], f64, u64, u64, bool) {
    let Workspace {
        joint,
        slope,
        position_candidates,
        coarse,
        scan: scan_state,
        refined,
        columns,
        ..
    } = workspace;
    let columns = &columns[..];
    position_candidates.clear();
    refined.clear();
    // The scan's bounds and b_t seeds are keyed by the observations of
    // *this* solve.
    scan_state.reset();
    let joint_model = JointRows::<D, J, S> { observations, dim: PhantomData };
    let slope_model = SlopeRows::<D, J, S> { observations, dim: PhantomData };

    // The problem separates naturally, which both speeds the solve up and
    // avoids local minima:
    //
    // 1. Position + k_t depend only on the slope equations — a smooth
    //    least-squares problem seeded from a coarse grid.
    // 2. Given a position candidate, the dipole is found by scanning the
    //    scene's directions with the closed-form circular-mean b_t — the
    //    wrapped intercept residuals are multimodal in the dipole angles,
    //    so a scan is the robust way in.
    // 3. A full joint refinement from the combined seeds lets the two
    //    halves inform each other.
    //
    // Candidates refining to a point outside the (slightly expanded)
    // working region are physically impossible deployments — when the
    // per-antenna observations are inconsistent (multipath bias), the
    // near-degenerate range direction otherwise lets the unconstrained
    // optimum drift metres away (in 3-D, distances are also
    // mirror-symmetric about the antenna plane). Prefer in-region
    // candidates; fall back to the overall best only if no start stayed
    // inside.
    let admissible = |p: &[f64]| seeds.dim.admissible(seeds.admissible, position::<S>(p));
    let mut seeds_refined: u64 = 0;

    // Coarse ranking (see `rank_coarse`), shared by the stage-1 beam and
    // the warm-start floor. A tracking caller with a fresh cached floor
    // defers it: when the warm gate accepts — the steady state — the
    // ranking is never needed at all, and a gate miss ranks lazily below.
    let cached_floor = match (&gate, warm) {
        (Some(g), Some(_)) => g.cached(),
        _ => None,
    };
    let mut coarse_ready = cached_floor.is_none();
    if coarse_ready {
        rank_coarse(observations, seeds, columns, D::BEAM, coarse);
    }

    // Warm start: refine the prior first and gate the result against the
    // coarse-scan floor — the cost the scan itself would reach from its
    // best coarse seed (stage-1 refined, best direction at it). A prior
    // still in the true basin refines to a key at or below that floor; a
    // stale basin's key is far above it and falls through to the scan.
    if let Some(w) = warm {
        let _warm_span = obs::span("warm_start");
        let (p, cost) =
            joint.refine(&joint_model, D::warm_params(w), D::MAX_ITERATIONS, TOLERANCE);
        let key = cost + mode_penalty::<D, J, S>(observations, &p);
        let in_region = admissible(&p);
        let gate_ok = |floor: f64| key <= floor * (1.0 + WARM_GATE_REL_TOL) + 1e-9;
        // Fast pre-test against the cached floor, then — only when that
        // rejects — a fresh re-anchor and the definitive retest. A cached
        // miss is therefore always confirmed against exactly the floor the
        // ungated path would have used before the full scan is paid for.
        let mut accept = match cached_floor {
            Some(floor) if in_region && gate_ok(floor) => {
                if let Some(g) = gate.as_deref_mut() {
                    g.age += 1;
                }
                true
            }
            _ => false,
        };
        if !accept {
            if !coarse_ready {
                rank_coarse(observations, seeds, columns, D::BEAM, coarse);
                coarse_ready = true;
            }
            let (_, best_seed, best_kt) = coarse[0];
            let p0 = slope_seed(seeds.position_starts[best_seed], best_kt);
            let (sp, _) = slope.refine(&slope_model, p0, D::MAX_ITERATIONS, TOLERANCE);
            seeds_refined += 1;
            scan(observations, seeds, columns, &sp, scan_state);
            let floor = scan_state.ranked.first().map_or(f64::INFINITY, |&(_, _, c)| c);
            if let Some(g) = gate.as_deref_mut() {
                g.anchor(floor);
            }
            accept = in_region && gate_ok(floor);
        }
        if accept {
            return (p, cost, seeds_refined, 0, true);
        }
        // Confirmed gate miss: the scan below recomputes the optimum from
        // scratch, so drop the cached floor and re-anchor next warm solve.
        if let Some(g) = gate {
            g.invalidate();
        }
    }

    // A deferred coarse ranking is needed after all (warm gate missed, or
    // the prior was absent) for the stage-1 beam.
    if !coarse_ready {
        rank_coarse(observations, seeds, columns, D::BEAM, coarse);
    }

    // Stage 1: slope-only position solve of the beam of coarse-ranked
    // seeds, with a cost-plateau early exit.
    let stage1_span = obs::span("stage1_slope");
    let mut best_refined = f64::INFINITY;
    for (rank, &(coarse_cost, s, kt0)) in coarse.iter().take(D::BEAM).enumerate() {
        // Plateau exit: once two seeds are refined, a seed whose
        // *unrefined* cost already exceeds the best refined cost by the
        // margin cannot plausibly overtake it.
        if rank >= 2 && coarse_cost > best_refined * (1.0 + PLATEAU_REL_TOL) {
            break;
        }
        let p0 = slope_seed(seeds.position_starts[s], kt0);
        let (p, cost) = slope.refine(&slope_model, p0, D::MAX_ITERATIONS, TOLERANCE);
        best_refined = best_refined.min(cost);
        position_candidates.push((p, cost, s));
    }
    // Ties on cost keep grid order via the explicit seed-index key, so the
    // candidate order does not depend on the order the seeds were refined
    // in.
    position_candidates.sort_unstable_by(|a, b| {
        a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
    });
    seeds_refined += position_candidates.len() as u64;
    #[allow(clippy::drop_non_drop)] // ends the span early; inert unit guard without `obs`
    drop(stage1_span);
    // Move the best distinct admissible candidates to the front, in cost
    // order. Beam seeds mostly refine into one basin (on every measured
    // 2-D solve the refined seeds landed under 1e-9 m apart), and a
    // duplicate's scan and joint refinements would only re-derive the
    // kept candidate's answer. With exactly 4 antennas in 3-D the slope
    // system is exactly determined, so several zero-cost candidates can
    // exist (mirror images, spurious intersections) that only the
    // intercept equations tell apart — hence a wider keep there. The
    // overall best, still at index 0 when nothing was kept, is the backup.
    let (mut kept, mut duplicates) = (0usize, 0u64);
    for i in 0..position_candidates.len() {
        let p = position_candidates[i].0;
        if !admissible(&p) {
            continue;
        }
        let pos = position::<S>(&p);
        let duplicate = position_candidates[..kept]
            .iter()
            .any(|(q, _, _)| position::<S>(q).distance(pos) < STAGE1_DEDUP_M);
        if duplicate {
            duplicates += 1;
        } else {
            position_candidates.swap(kept, i);
            kept += 1;
            if kept == D::STAGE1_KEEP {
                break;
            }
        }
    }

    // Stages 2 + 3: orientation scan then joint refinement. Final
    // candidates are ranked by phase cost *plus* the RSSI mode penalty:
    // the wrapped intercept system admits near-twin dipole solutions, and
    // the per-antenna polarization-mismatch pattern in the RSSI is the
    // physical tie-breaker.
    let mut best_inside: Option<(usize, f64)> = None;
    let mut best_any: Option<(usize, f64)> = None;
    for &(c, _, _) in &position_candidates[..kept.max(1)] {
        scan(observations, seeds, columns, &c, scan_state);
        let _refine_span = obs::span("joint_refine");
        for (rank, &(dir, bt0, scan_cost)) in scan_state.ranked.iter().enumerate() {
            // Plateau exit across the joint short-list — but always refine
            // at least two directions per candidate, so the twin-mode
            // disambiguation (truth vs its RSSI-implausible mirror) never
            // degenerates to a single basin.
            if rank >= 2 && best_any.is_some_and(|(_, k)| scan_cost > k * (1.0 + PLATEAU_REL_TOL)) {
                break;
            }
            let p0 = seeds.dim.joint_seed(&c, dir, bt0);
            let (p, cost) = joint.refine(&joint_model, p0, D::MAX_ITERATIONS, TOLERANCE);
            let key = cost + mode_penalty::<D, J, S>(observations, &p);
            let idx = refined.len();
            if admissible(&p) && best_inside.is_none_or(|(_, k)| key < k) {
                best_inside = Some((idx, key));
            }
            if best_any.is_none_or(|(_, k)| key < k) {
                best_any = Some((idx, key));
            }
            refined.push((p, cost));
        }
    }

    let (best_idx, _) = best_inside.or(best_any).expect("at least one start");
    let (p, cost) = refined.swap_remove(best_idx);
    (p, cost, seeds_refined, duplicates, false)
}

/// The position coordinates leading a parameter vector whose dimension
/// has `S` stage-1 parameters (`S − 1` coordinates, then `k_t`); a 2-D
/// position sits on `z = 0`.
fn position<const S: usize>(p: &[f64]) -> Vec3 {
    let mut c = [0.0; 3];
    c[..S - 1].copy_from_slice(&p[..S - 1]);
    Vec3::new(c[0], c[1], c[2])
}

/// The stage-1 parameters at grid seed `seed` with `k_t` seed `kt`.
fn slope_seed<const S: usize>(seed: Vec3, kt: f64) -> [f64; S] {
    let mut p = [0.0; S];
    p[..S - 1].copy_from_slice(&[seed.x, seed.y, seed.z][..S - 1]);
    p[S - 1] = kt;
    p
}

/// Coarse ranking shared by the stage-1 beam and the warm-start floor:
/// every position seed scored by its *unrefined* slope cost — an O(N)
/// table lookup per seed, over the table columns of the antennas present.
/// Ties break towards grid order; the explicit (cost, index) key makes
/// the ordering total, so the unstable (allocation-free) selection and
/// sort are deterministic. Only the first `beam` entries are read (the
/// floor reads the first), so only that prefix is selected and sorted;
/// it holds exactly what a full sort puts there.
///
/// The ranking evaluates 4 seeds per pass over the slope table: the two
/// per-seed accumulations (`k_t` seed mean, then the cost) run in 4
/// independent lanes whose per-seed operation order over the antennas is
/// exactly the scalar loop's, so the lane path is bit-identical to
/// [`coarse_seed_cost`], which scores the remainder seeds.
fn rank_coarse<D>(
    observations: &[AntennaObservation],
    seeds: &Seeds<D>,
    columns: &[usize],
    beam: usize,
    coarse: &mut Vec<(f64, usize, f64)>,
) {
    let _rank_span = obs::span("seed_rank");
    coarse.clear();
    let g = &seeds.geometry;
    let (n_seeds, n_obs) = (seeds.position_starts.len(), observations.len() as f64);
    let mut s = 0usize;
    while s + 4 <= n_seeds {
        let rows = [0, 1, 2, 3].map(|l| g.row(&g.seed_slopes, s + l));
        let mut sum = [0.0f64; 4];
        for (o, &c) in observations.iter().zip(columns) {
            for l in 0..4 {
                sum[l] += o.slope - rows[l][c];
            }
        }
        let kt0 = sum.map(|v| v / n_obs);
        let mut cost = [0.0f64; 4];
        for (o, &c) in observations.iter().zip(columns) {
            for l in 0..4 {
                let rs = (o.slope - rows[l][c] - kt0[l]) / SLOPE_SIGMA;
                cost[l] += rs * rs;
            }
        }
        for l in 0..4 {
            coarse.push((cost[l], s + l, kt0[l]));
        }
        s += 4;
    }
    for idx in s..n_seeds {
        let (kt0, cost) = coarse_seed_cost(observations, g, columns, idx);
        coarse.push((cost, idx, kt0));
    }
    let by_key = |a: &(f64, usize, f64), b: &(f64, usize, f64)| {
        a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
    };
    if coarse.len() > beam {
        coarse.select_nth_unstable_by(beam, by_key);
    }
    let prefix = beam.min(coarse.len());
    coarse[..prefix].sort_unstable_by(by_key);
}

/// The cheap stage-1 score of grid seed `s`: the closed-form `k_t` seed,
/// the mean `kᵢ − 4π·dist(Aᵢ, seed)/c` over antennas, and the unrefined
/// slope cost at the seed position, from the slope table's columns of the
/// antennas present — the scalar remainder of [`rank_coarse`]'s lanes.
fn coarse_seed_cost(
    observations: &[AntennaObservation],
    geometry: &SeedGeometry,
    columns: &[usize],
    s: usize,
) -> (f64, f64) {
    let row = geometry.row(&geometry.seed_slopes, s);
    let sum: f64 = observations.iter().zip(columns).map(|(o, &c)| o.slope - row[c]).sum();
    let kt0 = sum / observations.len() as f64;
    let mut cost = 0.0;
    for (o, &c) in observations.iter().zip(columns) {
        let rs = (o.slope - row[c] - kt0) / SLOPE_SIGMA;
        cost += rs * rs;
    }
    (kt0, cost)
}

/// Relative and absolute slack the scan takes off each direction's bound
/// (see [`scan`]): orders of magnitude above the rounding of either sum
/// (about 1e-15 relative, 1e-11 absolute), so a bound computed in floating
/// point stays at or below the exact cost computed in floating point.
const BOUND_SLACK: f64 = 1e-9;

/// Stage 2 at one stage-1 candidate `c` (position + `k_t`): leaves in
/// `state.ranked` the `SHORTLIST` scan directions of least full cost
/// (slope + wrapped intercept + RSSI mode penalty) at their closed-form
/// `b_t` seeds, best-first by `(cost, direction index)` — exactly the
/// first entries a full sort of every direction would give, bit for bit,
/// while seeding and costing only a few directions exactly.
///
/// Everything direction-independent — the per-antenna distances, the
/// slope half of the cost and the RSSI penalty's `rssiᵢ + 40·log10(dᵢ)`
/// base — is hoisted out of the scan, and the orientation/projection rows
/// are read from the geometry tables' columns of the antennas present.
/// Each direction has a lower bound on its cost that needs no trig: the
/// slope cost, plus the direction's intercept bound (valid for every
/// `b_t`, [`intercept_bound`]), plus its RSSI penalty, less
/// [`BOUND_SLACK`]. The scan
///
/// 1. bounds every direction and evaluates exactly the `SHORTLIST`
///    directions with the smallest `(bound, direction)` keys;
/// 2. then evaluates exactly any other direction whose bound does not
///    strictly exceed the current `SHORTLIST`-th `(cost, direction)` key,
///    keeping the best `SHORTLIST`. A direction it skips has a cost above
///    that key, so it could not have entered. When even the next-smallest
///    bound exceeds the key — nearly every scan — no other direction is
///    looked at again.
///
/// A NaN bound is taken as −∞, so it falls through to exact evaluation.
/// The first scan of a solve computes every direction's intercept bound;
/// a direction's `b_t` seed (the circular mean of `bᵢ − θ_orient`) is
/// computed the first time the direction is evaluated exactly. Both depend
/// on the observations and the direction only, so later scans of the same
/// solve keep them. Each cost is computed independently, by the
/// expressions a full scan uses, so the short-list does not depend on
/// which directions were evaluated or in what order.
fn scan<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    seeds: &Seeds<D>,
    columns: &[usize],
    c: &[f64; S],
    state: &mut ScanState,
) {
    let ScanState { dists, rssi_base, offsets, dirs, ranked, seeds: seeded, exact } = state;
    let at = ScanAt::new(observations, &seeds.geometry, columns, c, dists, rssi_base);
    // Rank directions by full cost at this position; spurious twin-mode
    // basins often fit the phases *better* than the true mode under noise,
    // so the RSSI mode penalty is applied already in the ranking —
    // otherwise they crowd truth out of the refinement short-list entirely.
    let _scan_span = obs::span(D::SPANS.1);
    let g = &seeds.geometry;
    let n_dirs = seeds.dim.scan_len();
    if dirs.is_empty() {
        dirs.reserve_exact(n_dirs);
        for dir in 0..n_dirs {
            let lb = intercept_bound(observations, columns, g.row(&g.orient, dir), offsets);
            dirs.push(ScanDir { lb, bt: f64::NAN });
        }
    }
    let mut evaluate = |dir: usize, state: &mut ScanDir, bound: f64| {
        if state.bt.is_nan() {
            state.bt = at.bt_seed(dir);
            *seeded += 1;
        }
        let cost = at.cost(dir, state.bt);
        *exact += 1;
        debug_assert!(
            cost >= bound || cost.is_nan(),
            "direction {dir}: cost {cost} below its bound {bound}"
        );
        (dir, state.bt, cost)
    };
    let k = D::SHORTLIST;
    // 1. The k smallest bound keys, evaluated exactly, and the next one.
    ranked.clear();
    ranked.reserve_exact(k + 1);
    for (dir, d) in dirs.iter().enumerate() {
        keep_least(ranked, (dir, f64::NAN, at.bound(dir, d.lb)), k + 1);
    }
    let next = if ranked.len() > k { ranked.pop() } else { None };
    let selected = ranked.last().map(|&(dir, _, b)| (b, dir));
    for entry in ranked.iter_mut() {
        *entry = evaluate(entry.0, &mut dirs[entry.0], entry.2);
    }
    ranked.sort_unstable_by(|a, b| key_order((a.2, a.0), (b.2, b.0)));
    // 2. Any other direction whose bound does not exceed the k-th key. No
    //    unselected direction's bound key is below the next one's.
    let (Some((next_dir, _, next_bound)), Some(selected)) = (next, selected) else { return };
    let kth = |ranked: &[(usize, f64, f64)]| {
        let &(dir, _, cost) = ranked.last().expect("a full short-list");
        (cost, dir)
    };
    if key_order((next_bound, next_dir), kth(ranked)).is_gt() {
        return;
    }
    for (dir, d) in dirs.iter_mut().enumerate() {
        let b = (at.bound(dir, d.lb), dir);
        if key_order(b, selected).is_gt() && key_order(b, kth(ranked)).is_le() {
            let entry = evaluate(dir, d, b.0);
            keep_least(ranked, entry, k);
        }
    }
}

/// The scan's total order on `(cost, direction index)` keys; ties on
/// cost break towards the lower index, as a stable sort of the directions
/// in index order would.
fn key_order(a: (f64, usize), b: (f64, usize)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
}

/// Inserts `entry` into `list` — kept sorted by its `(cost, direction)`
/// key ([`key_order`]) and at most `cap` long — unless `cap` entries
/// already precede it.
fn keep_least(list: &mut Vec<(usize, f64, f64)>, entry: (usize, f64, f64), cap: usize) {
    let key = (entry.2, entry.0);
    if list.len() == cap {
        match list.last() {
            Some(&(dir, _, c)) if key_order(key, (c, dir)).is_lt() => {
                list.pop();
            }
            _ => return,
        }
    }
    let at = list.partition_point(|&(dir, _, c)| key_order((c, dir), key).is_lt());
    list.insert(at, entry);
}

/// A lower bound, for every `b_t`, on the intercept cost
/// `Σᵢ wrap_pi(xᵢ − b_t)²/σ_b²` of the scan direction whose
/// `θ_orient(Aᵢ, w)` row is `orow`, with `xᵢ = bᵢ − θ_orient(Aᵢ, w)`:
/// `(1/n)·Σᵢ<ⱼ d(xᵢ, xⱼ)²/σ_b²`, where `d` is the distance on the circle.
/// It needs no trig: each `xᵢ` is wrapped into `[0, 2π)` once (in
/// `offsets`), and `d = min(|xᵢ − xⱼ|, 2π − |xᵢ − xⱼ|)` per pair.
///
/// Proof: cut the circle opposite `b_t` and let `zᵢ` be the representative
/// of `xᵢ` in `(b_t − π, b_t + π]`, so that `wrap_pi(xᵢ − b_t) = zᵢ − b_t`.
/// Then `Σ(zᵢ − b_t)² ≥ Σ(zᵢ − z̄)² = (1/n)·Σᵢ<ⱼ(zᵢ − zⱼ)² ≥
/// (1/n)·Σᵢ<ⱼ d(xᵢ, xⱼ)²`: the mean minimizes the sum of squares, and two
/// representatives are never closer than the shortest way round the
/// circle. The period is the floating-point `τ` the wraps use, so only
/// rounding separates the two sides, and [`BOUND_SLACK`] covers it.
fn intercept_bound(
    observations: &[AntennaObservation],
    columns: &[usize],
    orow: &[f64],
    offsets: &mut Vec<f64>,
) -> f64 {
    use std::f64::consts::TAU;
    offsets.clear();
    let x = observations.iter().zip(columns).map(|(o, &c)| angle::wrap_tau(o.intercept - orow[c]));
    offsets.extend(x);
    let mut sum = 0.0;
    for (i, &xi) in offsets.iter().enumerate() {
        for &xj in &offsets[i + 1..] {
            let a = (xi - xj).abs();
            let d = a.min(TAU - a);
            sum += d * d;
        }
    }
    sum / (observations.len() as f64 * INTERCEPT_SIGMA * INTERCEPT_SIGMA)
}

/// The direction-independent terms of one scan candidate: its slope cost
/// and the hoisted per-antenna rows of the RSSI penalty.
struct ScanAt<'a> {
    observations: &'a [AntennaObservation],
    geometry: &'a SeedGeometry,
    columns: &'a [usize],
    dists: &'a [f64],
    rssi_base: &'a [f64],
    slope_cost: f64,
}

impl<'a> ScanAt<'a> {
    /// The candidate `c` (position + `k_t`), filling the hoisted rows into
    /// `dists` and `rssi_base`.
    fn new<const S: usize>(
        observations: &'a [AntennaObservation],
        geometry: &'a SeedGeometry,
        columns: &'a [usize],
        c: &[f64; S],
        dists: &'a mut Vec<f64>,
        rssi_base: &'a mut Vec<f64>,
    ) -> Self {
        let (pos, kt) = (position::<S>(c), c[S - 1]);
        dists.clear();
        let mut slope_cost = 0.0;
        for o in observations {
            let d = o.pose.position().distance(pos);
            let rs = (o.slope - propagation::slope_from_distance(d) - kt) / SLOPE_SIGMA;
            slope_cost += rs * rs;
            dists.push(d);
        }
        // The direction-independent half of the RSSI penalty. Entries for
        // unreadable distances may be NaN/−∞, but the penalty's guards
        // return before reading them — exactly as the unhoisted kernel
        // returned before computing the term at all.
        rssi_base.clear();
        for (o, &d) in observations.iter().zip(dists.iter()) {
            rssi_base.push(o.mean_rssi_dbm + 40.0 * d.log10());
        }
        ScanAt { observations, geometry, columns, dists, rssi_base, slope_cost }
    }

    /// The RSSI mode penalty of direction `dir`.
    fn penalty(&self, dir: usize) -> f64 {
        let g = self.geometry;
        let (prow, pdbrow) = (g.row(&g.proj, dir), g.row(&g.proj_db, dir));
        let (observations, columns) = (self.observations, self.columns);
        rssi_penalty_hoisted(observations, columns, self.rssi_base, self.dists, prow, pdbrow)
    }

    /// The lower bound on direction `dir`'s cost at any `b_t`, given its
    /// intercept bound `lb`, with [`BOUND_SLACK`] taken off; −∞ for NaN.
    fn bound(&self, dir: usize, lb: f64) -> f64 {
        let b = (self.slope_cost + lb + self.penalty(dir)) * (1.0 - BOUND_SLACK) - BOUND_SLACK;
        if b.is_nan() {
            f64::NEG_INFINITY
        } else {
            b
        }
    }

    /// Direction `dir`'s closed-form `b_t` seed: the circular mean of
    /// `bᵢ − θ_orient`.
    fn bt_seed(&self, dir: usize) -> f64 {
        let orow = self.geometry.row(&self.geometry.orient, dir);
        angle::circular_mean(
            self.observations.iter().zip(self.columns).map(|(o, &c)| o.intercept - orow[c]),
        )
        .unwrap_or(0.0)
    }

    /// Direction `dir`'s full cost at `b_t` seed `bt0`.
    fn cost(&self, dir: usize, bt0: f64) -> f64 {
        let orow = self.geometry.row(&self.geometry.orient, dir);
        let mut cost = self.slope_cost;
        for (o, &c) in self.observations.iter().zip(self.columns) {
            let rb = angle::wrap_pi(o.intercept - orow[c] - bt0) / INTERCEPT_SIGMA;
            cost += rb * rb;
        }
        cost + self.penalty(dir)
    }
}

/// The joint disentangling problem of scene dimension `D` as a
/// [`ResidualModel`].
struct JointRows<'a, D: SceneDim<J, S>, const J: usize, const S: usize> {
    observations: &'a [AntennaObservation],
    dim: PhantomData<D>,
}

impl<D: SceneDim<J, S>, const J: usize, const S: usize> ResidualModel<J>
    for JointRows<'_, D, J, S>
{
    fn eval(&self, p: &[f64; J], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        D::joint_rows(self.observations, p, r, jac);
    }
}

/// The stage-1 slope-only problem of scene dimension `D` as a
/// [`ResidualModel`].
struct SlopeRows<'a, D: SceneDim<J, S>, const J: usize, const S: usize> {
    observations: &'a [AntennaObservation],
    dim: PhantomData<D>,
}

impl<D: SceneDim<J, S>, const J: usize, const S: usize> ResidualModel<S>
    for SlopeRows<'_, D, J, S>
{
    fn eval(&self, p: &[f64; S], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        D::slope_rows(self.observations, p, r, jac);
    }
}

/// The RSSI mode penalty of joint parameters `p` (see
/// [`rssi_mode_penalty`]).
fn mode_penalty<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    p: &[f64; J],
) -> f64 {
    rssi_mode_penalty(observations, position::<S>(p), D::dipole(p))
}

/// RSSI-consistency penalty of a candidate mode (position `pos`, dipole
/// `w`): the weighted variance of `rssiᵢ + 40·log10(dᵢ) − 20·log10(pᵢ)`
/// across antennas, with `dᵢ` the distance to `pos` and `pᵢ` the dipole's
/// projection magnitude at antenna *i*.
///
/// The backscatter link budget (`rfp_phys::rssi`) says that quantity is a
/// per-tag constant (transmit power + material loss) plus noise, so modes
/// whose predicted polarization projections `pᵢ` disagree with the
/// measured RSSI pattern score high. The wrapped intercept equations
/// admit near-twin `α` solutions with 3 antennas; this penalty breaks the
/// tie. Returns 0 when any observation lacks a finite RSSI.
fn rssi_mode_penalty(observations: &[AntennaObservation], pos: Vec3, w: Vec3) -> f64 {
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for o in observations {
        if !o.mean_rssi_dbm.is_finite() {
            return 0.0;
        }
        let d = o.pose.position().distance(pos);
        let proj = projection_magnitude(&o.pose, w);
        if proj < 1e-3 || d <= 0.0 {
            // The mode predicts an unreadable antenna that in fact read the
            // tag: strongly implausible.
            return 1e6;
        }
        let m = o.mean_rssi_dbm + 40.0 * d.log10() - 20.0 * proj.log10();
        sum += m;
        sum_sq += m * m;
    }
    let variance = (sum_sq - sum * sum / observations.len() as f64).max(0.0);
    variance / (RSSI_SIGMA_DB * RSSI_SIGMA_DB)
}

/// The RSSI mode penalty with both dB terms precomputed: `rssi_base[i]` =
/// `rssiᵢ + 40·log10(dᵢ)` (hoisted out of the scan) and `proj_dbs[c]` =
/// `20·log10(projs[c])` (a geometry-table row, read at observation *i*'s
/// column `c = columns[i]`). Guard order and the grouping
/// of the dB sum match [`rssi_mode_penalty`]'s left-associative
/// `rssi + 40·log10(d) − 20·log10(proj)` exactly, so the hoisted form is
/// bit-identical — `rssi_base`/`proj_dbs` entries behind a triggered
/// guard are never read.
fn rssi_penalty_hoisted(
    observations: &[AntennaObservation],
    columns: &[usize],
    rssi_base: &[f64],
    dists: &[f64],
    projs: &[f64],
    proj_dbs: &[f64],
) -> f64 {
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for (i, (o, &c)) in observations.iter().zip(columns).enumerate() {
        if !o.mean_rssi_dbm.is_finite() {
            return 0.0;
        }
        if projs[c] < 1e-3 || dists[i] <= 0.0 {
            return 1e6;
        }
        let m = rssi_base[i] - proj_dbs[c];
        sum += m;
        sum_sq += m * m;
    }
    let variance = (sum_sq - sum * sum / observations.len() as f64).max(0.0);
    variance / (RSSI_SIGMA_DB * RSSI_SIGMA_DB)
}

impl SceneDim<5, 3> for Planar {
    type Warm = WarmStart;
    type Estimate = TagEstimate2D;
    type Error = SolveError;
    const MIN_ANTENNAS: usize = 3;
    const GRID: [usize; 3] = [6, 6, 1];
    const SCAN: usize = 48;
    const MAX_ITERATIONS: usize = 60;
    const BEAM: usize = 8;
    const STAGE1_KEEP: usize = 2;
    const SHORTLIST: usize = 4;
    const SPANS: (&'static str, &'static str) = ("solve_2d", "alpha_scan");
    const COUNTERS: [usize; 4] = [
        obs::id::SOLVER2D_SOLVES,
        obs::id::SOLVER2D_ITERATIONS,
        obs::id::SOLVER2D_RESIDUAL_EVALS,
        obs::id::SOLVER2D_JACOBIAN_EVALS,
    ];

    fn too_few(provided: usize) -> SolveError {
        SolveError::TooFewAntennas { provided }
    }

    fn unknown_antenna() -> SolveError {
        SolveError::UnknownAntenna
    }

    fn joint_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    ) {
        residuals_and_jacobian_2d(observations, p, r, jac);
    }

    fn slope_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    ) {
        slope_residuals_and_jacobian_2d(observations, p, r, jac);
    }

    fn scan_len(&self) -> usize {
        Self::SCAN
    }

    fn scan_dipole(&self, dir: usize) -> Vec3 {
        planar_dipole(Planar::alpha(dir))
    }

    fn joint_seed(&self, c: &[f64; 3], dir: usize, bt0: f64) -> [f64; 5] {
        [c[0], c[1], Planar::alpha(dir), c[2], bt0]
    }

    fn admissible(&self, region: Region2, position: Vec3) -> bool {
        region.contains(position.xy())
    }

    fn dipole(p: &[f64; 5]) -> Vec3 {
        planar_dipole(p[2])
    }

    fn warm_params(w: &WarmStart) -> [f64; 5] {
        [w.position.x, w.position.y, w.orientation, w.kt, w.bt]
    }

    /// Gauss–Newton uncertainty from the joint core's covariance
    /// ([`LmCore::covariance`]; infinities when the curvature is singular)
    /// plus canonical wrapping of the angular parameters.
    fn estimate(
        observations: &[AntennaObservation],
        p: &[f64; 5],
        cost: f64,
        core: &mut LmCore<5>,
    ) -> TagEstimate2D {
        let n_res = 2 * observations.len();
        let model = JointRows::<Planar, 5, 3> { observations, dim: PhantomData };
        let (position_std_m, orientation_std_rad, position_cov) = match core.covariance(&model, p) {
            Some(c) => (
                (c[0][0] + c[1][1]).sqrt(),
                c[2][2].sqrt(),
                [[c[0][0], c[0][1]], [c[1][0], c[1][1]]],
            ),
            None => (f64::INFINITY, f64::INFINITY, [[f64::INFINITY; 2]; 2]),
        };
        TagEstimate2D {
            position: Vec2::new(p[0], p[1]),
            orientation: p[2].rem_euclid(std::f64::consts::PI),
            kt: p[3],
            bt: angle::wrap_tau(p[4]),
            cost,
            residual_rms: (cost / n_res as f64).sqrt(),
            position_std_m,
            orientation_std_rad,
            position_cov,
        }
    }
}

/// Circular mean of `bᵢ − θ_orient(Aᵢ, α₀)` — the closed-form `b_t` seed
/// for a hypothesised orientation.
#[cfg(test)]
fn seed_bt(observations: &[AntennaObservation], alpha0: f64) -> f64 {
    let w = planar_dipole(alpha0);
    angle::circular_mean(
        observations
            .iter()
            .map(|o| o.intercept - orientation_phase(&o.pose, w)),
    )
    .unwrap_or(0.0)
}

/// Fills `out` with the 2N sigma-normalized residuals at parameters
/// `p = (x, y, α, k_t, b_t)` — residual `2i` is antenna *i*'s slope
/// equation, `2i+1` its wrapped intercept equation.
pub fn residuals_2d(observations: &[AntennaObservation], p: &[f64], out: &mut Vec<f64>) {
    residuals_and_jacobian_2d(observations, p, out, None);
}

/// [`residuals_2d`] plus, when `jac` is given, the row-major `2N × 5`
/// analytic Jacobian `∂r/∂p` (DESIGN.md §6 derives it):
///
/// * slope rows: `∂r/∂(x,y) = −(4π/c)·(pos − Aᵢ)_{x,y}/(dᵢ σ_k)`,
///   `∂r/∂k_t = −1/σ_k`;
/// * intercept rows: `∂r/∂α = −θ′_orient/σ_b` with
///   `θ′_orient = 2(u·w · v·w′ − v·w · u·w′)/((u·w)² + (v·w)²)` and
///   `w′ = dw/dα`, and `∂r/∂b_t = −1/σ_b` (the `wrap_pi` is a
///   locally-constant offset, so it differentiates through).
///
/// The residual values are identical to calling [`residuals_2d`]; the
/// fused evaluation exists so the analytic LM core pays one pass for
/// both.
pub fn residuals_and_jacobian_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec2::new(p[0], p[1]).with_z(0.0);
    let alpha = p[2];
    let w = planar_dipole(alpha);
    // d/dα of the planar dipole (a rotation in the x–z plane): the same
    // sine/cosine pair as `w`, so the derivative costs no further trig —
    // `-w.z` and `w.x` are bit-identical to `-alpha.sin()` / `alpha.cos()`.
    let dw = Vec3::new(-w.z, 0.0, w.x);
    let (kt, bt) = (p[3], p[4]);
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 2 * 5, 0.0);
    }
    let mut jac: Option<&mut [f64]> = jac.map(Vec::as_mut_slice);
    let k1 = propagation::slope_from_distance(1.0); // 4π/c
    // Four independent antenna rows per pass. Each lane writes its own
    // residual/Jacobian rows and rows are emitted in antenna order, so the
    // unrolled path is bit-identical to a scalar loop — there is no
    // cross-lane reduction to reorder.
    let mut chunks = observations.chunks_exact(4);
    let mut i = 0usize;
    for c in chunks.by_ref() {
        joint_row_2d(&c[0], i, pos, w, dw, kt, bt, k1, r, jac.as_deref_mut());
        joint_row_2d(&c[1], i + 1, pos, w, dw, kt, bt, k1, r, jac.as_deref_mut());
        joint_row_2d(&c[2], i + 2, pos, w, dw, kt, bt, k1, r, jac.as_deref_mut());
        joint_row_2d(&c[3], i + 3, pos, w, dw, kt, bt, k1, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        joint_row_2d(o, i, pos, w, dw, kt, bt, k1, r, jac.as_deref_mut());
        i += 1;
    }
}

/// One antenna's slope + wrapped-intercept rows (and, when `jac` is given,
/// their Jacobian rows) of the joint 2-D problem — the body shared by the
/// 4-wide lanes and the remainder loop of [`residuals_and_jacobian_2d`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn joint_row_2d(
    o: &AntennaObservation,
    i: usize,
    pos: Vec3,
    w: Vec3,
    dw: Vec3,
    kt: f64,
    bt: f64,
    k1: f64,
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    let k_model = propagation::slope_from_distance(d) + kt;
    r.push((o.slope - k_model) / SLOPE_SIGMA);
    let uw = o.pose.u().dot(w);
    let vw = o.pose.v().dot(w);
    let denom = uw * uw + vw * vw;
    // Same expression (and guard) as `orientation_phase`, inlined so the
    // Jacobian reuses the dot products.
    let theta = if denom < 1e-24 {
        0.0
    } else {
        (2.0 * uw * vw).atan2(uw * uw - vw * vw)
    };
    let b_model = theta + bt;
    r.push(angle::wrap_pi(o.intercept - b_model) / INTERCEPT_SIGMA);
    if let Some(j) = jac {
        let rs = 2 * i * 5;
        let g = if d > 1e-12 { -k1 / (d * SLOPE_SIGMA) } else { 0.0 };
        j[rs] = g * (pos.x - ap.x);
        j[rs + 1] = g * (pos.y - ap.y);
        j[rs + 3] = -1.0 / SLOPE_SIGMA;
        let rb = rs + 5;
        let dtheta = if denom < 1e-24 {
            0.0
        } else {
            let uwp = o.pose.u().dot(dw);
            let vwp = o.pose.v().dot(dw);
            2.0 * (uw * vwp - vw * uwp) / denom
        };
        j[rb + 2] = -dtheta / INTERCEPT_SIGMA;
        j[rb + 4] = -1.0 / INTERCEPT_SIGMA;
    }
}

/// The N sigma-normalized slope residuals at `p = (x, y, k_t)` and,
/// when `jac` is given, their row-major `N × 3` analytic Jacobian — the
/// stage-1 seeding problem.
fn slope_residuals_and_jacobian_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec2::new(p[0], p[1]).with_z(0.0);
    let kt = p[2];
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 3, 0.0);
    }
    let mut jac: Option<&mut [f64]> = jac.map(Vec::as_mut_slice);
    let k1 = propagation::slope_from_distance(1.0);
    // See `residuals_and_jacobian_2d`: independent rows in antenna order,
    // bit-identical to a scalar loop.
    let mut chunks = observations.chunks_exact(4);
    let mut i = 0usize;
    for c in chunks.by_ref() {
        slope_row_2d(&c[0], i, pos, kt, k1, r, jac.as_deref_mut());
        slope_row_2d(&c[1], i + 1, pos, kt, k1, r, jac.as_deref_mut());
        slope_row_2d(&c[2], i + 2, pos, kt, k1, r, jac.as_deref_mut());
        slope_row_2d(&c[3], i + 3, pos, kt, k1, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        slope_row_2d(o, i, pos, kt, k1, r, jac.as_deref_mut());
        i += 1;
    }
}

/// One antenna's slope row (and Jacobian row) of the stage-1 problem —
/// the body shared by the 4-wide lanes and the remainder loop of
/// [`slope_residuals_and_jacobian_2d`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn slope_row_2d(
    o: &AntennaObservation,
    i: usize,
    pos: Vec3,
    kt: f64,
    k1: f64,
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    r.push((o.slope - propagation::slope_from_distance(d) - kt) / SLOPE_SIGMA);
    if let Some(j) = jac {
        let g = if d > 1e-12 { -k1 / (d * SLOPE_SIGMA) } else { 0.0 };
        j[i * 3] = g * (pos.x - ap.x);
        j[i * 3 + 1] = g * (pos.y - ap.y);
        j[i * 3 + 2] = -1.0 / SLOPE_SIGMA;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_observation, ExtractConfig};
    use rfp_geom::AntennaPose;
    use rfp_sim::{Motion, NoiseModel, ReaderConfig, Scene, SimTag};

    /// Builds exact (noise-free) observations straight from the forward
    /// model, bypassing the simulator.
    fn synthetic_observations(
        poses: &[AntennaPose],
        truth: (Vec2, f64, f64, f64),
    ) -> Vec<AntennaObservation> {
        let (pos, alpha, kt, bt) = truth;
        let scene = Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        // Use the simulator only to obtain correctly-shaped observations;
        // then overwrite slope/intercept with exact values.
        let tag = SimTag::nominal(0).with_motion(Motion::planar_static(pos, alpha));
        let survey = scene.survey(&tag, 0);
        poses
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&pose, reads)| {
                let mut o =
                    extract_observation(pose, reads, &ExtractConfig::paper()).unwrap();
                let d = pose.position().distance(pos.with_z(0.0));
                o.slope = propagation::slope_from_distance(d) + kt;
                o.intercept = angle::wrap_tau(
                    orientation_phase(&pose, planar_dipole(alpha)) + bt,
                );
                o
            })
            .collect()
    }

    fn region() -> Region2 {
        Scene::standard_2d().region()
    }

    #[test]
    fn recovers_exact_truth() {
        let poses = Scene::standard_2d().antenna_poses();
        let truth_pos = Vec2::new(0.3, 1.7);
        let obs = synthetic_observations(&poses, (truth_pos, 0.8, -2.5e-8, 1.3));
        let est = solve_2d(&obs, region(), &SolverConfig::default()).unwrap();
        assert!(est.position.distance(truth_pos) < 1e-4, "pos {}", est.position);
        assert!(angle::dipole_distance(est.orientation, 0.8) < 1e-4);
        assert!((est.kt + 2.5e-8).abs() < 1e-12);
        assert!(angle::distance(est.bt, 1.3) < 1e-4);
        assert!(est.residual_rms < 1e-3);
    }

    #[test]
    fn orientation_recovered_mod_pi() {
        let poses = Scene::standard_2d().antenna_poses();
        // Truth orientation 0.4 + π must come back as 0.4.
        let obs = synthetic_observations(
            &poses,
            (Vec2::new(0.9, 1.1), 0.4 + std::f64::consts::PI, 0.0, 0.2),
        );
        let est = solve_2d(&obs, region(), &SolverConfig::default()).unwrap();
        assert!(angle::dipole_distance(est.orientation, 0.4) < 1e-4);
        assert!((0.0..std::f64::consts::PI).contains(&est.orientation));
    }

    #[test]
    fn corners_of_region_solvable() {
        let poses = Scene::standard_2d().antenna_poses();
        for &(x, y) in &[(-0.4, 0.6), (1.4, 0.6), (-0.4, 2.4), (1.4, 2.4)] {
            let truth = Vec2::new(x, y);
            let obs = synthetic_observations(&poses, (truth, 1.2, -1e-8, 4.0));
            let est = solve_2d(&obs, region(), &SolverConfig::default()).unwrap();
            assert!(
                est.position.distance(truth) < 1e-3,
                "corner ({x},{y}): got {}",
                est.position
            );
        }
    }

    #[test]
    fn end_to_end_with_noise_lands_near_truth() {
        let scene = Scene::standard_2d();
        let truth = Vec2::new(0.6, 1.3);
        let tag = SimTag::with_seeded_diversity(3)
            .with_motion(Motion::planar_static(truth, 0.5));
        let survey = scene.survey(&tag, 11);
        let obs: Vec<AntennaObservation> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect();
        let est = solve_2d(&obs, region(), &SolverConfig::default()).unwrap();
        let err_cm = est.position.distance(truth) * 100.0;
        assert!(err_cm < 30.0, "error {err_cm} cm");
        let orient_err = angle::dipole_distance(est.orientation, 0.5).to_degrees();
        assert!(orient_err < 30.0, "orientation error {orient_err}°");
    }

    #[test]
    fn too_few_antennas_rejected() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.5, 1.5), 0.0, 0.0, 0.0));
        assert_eq!(
            solve_2d(&obs[..2], region(), &SolverConfig::default()).unwrap_err(),
            SolveError::TooFewAntennas { provided: 2 }
        );
    }

    #[test]
    fn antenna_outside_the_deployment_is_unknown() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.5, 1.5), 0.6, -1e-8, 1.0));
        let config = SolverConfig::default();
        let seeds = SolveSeeds::for_scene(region(), &config, &poses);
        let mut stray = obs.clone();
        stray[1].pose =
            AntennaPose::looking_at(Vec3::new(2.0, 0.0, 0.5), Vec3::new(0.5, 1.5, 0.0), 0.3);
        let mut ws = SolverWorkspace::default();
        let prior = WarmStart { position: Vec2::new(0.5, 1.5), orientation: 0.6, kt: 0.0, bt: 1.0 };
        for warm in [None, Some(&prior)] {
            let err = solve_2d_seeded_warm(&stray, &seeds, &config, &mut ws, warm);
            assert_eq!(err.unwrap_err(), SolveError::UnknownAntenna);
        }
        // The rejected solve leaves the workspace as good as fresh.
        let reused = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
        let fresh =
            solve_2d_seeded_warm(&obs, &seeds, &config, &mut SolverWorkspace::default(), None);
        assert_eq!(reused, fresh.unwrap());
        assert_eq!(ws.prune_stats().seeds_total, 36, "only the accepted solve counts");
    }

    #[test]
    fn uncertainty_reported_and_meaningful() {
        let scene = Scene::standard_2d();
        let truth = Vec2::new(0.5, 1.4);
        let tag = SimTag::with_seeded_diversity(4)
            .with_motion(Motion::planar_static(truth, 0.7));
        let survey = scene.survey(&tag, 21);
        let obs: Vec<AntennaObservation> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect();
        let est = solve_2d(&obs, region(), &SolverConfig::default()).unwrap();
        assert!(est.position_std_m.is_finite() && est.position_std_m > 0.0);
        assert!(est.orientation_std_rad.is_finite() && est.orientation_std_rad > 0.0);
        // The reported σ should be in the same decade as the actual error
        // regime (centimetres / ~0.2 rad).
        assert!(est.position_std_m < 0.5, "σ_pos {}", est.position_std_m);
        assert!(est.orientation_std_rad < 1.0, "σ_α {}", est.orientation_std_rad);
        // The ellipse is well-formed and elongated along the weakly
        // constrained (range) direction — its major axis exceeds its minor.
        let e = est.uncertainty_ellipse().expect("well-formed covariance");
        assert!(e.semi_major >= e.semi_minor);
        assert!(e.semi_major > 0.0 && e.semi_major < 0.5);
        // Consistency with the scalar summary.
        let trace = (e.semi_major * e.semi_major + e.semi_minor * e.semi_minor).sqrt();
        assert!((trace - est.position_std_m).abs() < 1e-9);
    }

    #[test]
    fn analytic_jacobian_matches_central_differences() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.45, 1.62), 0.9, -1.5e-8, 0.7));
        // Slightly off truth, where all residuals are small and far from
        // the wrap_pi discontinuity.
        let p = [0.46, 1.60, 0.93, -1.52e-8, 0.72];
        let mut r = Vec::new();
        let mut jac = Vec::new();
        residuals_and_jacobian_2d(&obs, &p, &mut r, Some(&mut jac));
        // Central-difference steps: x, y (m), α (rad), k_t (rad/Hz), b_t (rad).
        let steps = [1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
        let n = 5;
        let m = r.len();
        let mut r_plus = Vec::new();
        let mut r_minus = Vec::new();
        let mut work = p.to_vec();
        for j in 0..n {
            let h = steps[j];
            work[j] = p[j] + h;
            residuals_2d(&obs, &work, &mut r_plus);
            work[j] = p[j] - h;
            residuals_2d(&obs, &work, &mut r_minus);
            work[j] = p[j];
            for i in 0..m {
                let num = (r_plus[i] - r_minus[i]) / (2.0 * h);
                let ana = jac[i * n + j];
                let tol = 1e-6 * (1.0 + ana.abs().max(num.abs()));
                assert!(
                    (ana - num).abs() <= tol,
                    "entry ({i},{j}): analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn stage2_tables_match_seed_bt() {
        // The α-scan's closed-form b_t, read from the seed tables' orient
        // row through the solve's column map, must equal the classic per-α
        // `seed_bt` — with the observations in pose order and permuted.
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.4, 1.8), 0.35, 0.0, 1.9));
        let permuted = [obs[2].clone(), obs[0].clone(), obs[1].clone()];
        let seeds = SolveSeeds::for_scene(region(), &SolverConfig::default(), &poses);
        let g = &seeds.geometry;
        let mut columns = Vec::new();
        for obs in [&obs[..], &permuted[..]] {
            assert!(g.map_columns(obs, &mut columns));
            for dir in 0..seeds.dim.scan_len() {
                let orow = g.row(&g.orient, dir);
                let bt_row = angle::circular_mean(
                    obs.iter().zip(&columns).map(|(o, &c)| o.intercept - orow[c]),
                )
                .unwrap_or(0.0);
                assert_eq!(bt_row.to_bits(), seed_bt(obs, Planar::alpha(dir)).to_bits());
            }
        }
    }

    #[test]
    fn default_pruning_refines_a_fraction() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.5, 1.5), 0.6, -1e-8, 1.0));
        let config = SolverConfig::default();
        let seeds = SolveSeeds::for_scene(region(), &config, &poses);
        let mut ws = SolverWorkspace::default();
        let pruned = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
        let ps = ws.prune_stats();
        assert_eq!(ps.seeds_total, 36);
        assert!(ps.seeds_refined <= 8, "refined {}", ps.seeds_refined);
        assert!(ps.seeds_pruned() >= 28);
        assert_eq!(ps.warm_start_hits + ps.warm_start_misses, 0);
        assert!(pruned.position.distance(Vec2::new(0.5, 1.5)) < 1e-4);
    }

    #[test]
    fn warm_start_hit_skips_the_scan() {
        let poses = Scene::standard_2d().antenna_poses();
        let truth = Vec2::new(0.7, 1.4);
        let obs = synthetic_observations(&poses, (truth, 0.9, -2e-8, 0.8));
        let config = SolverConfig::default();
        let seeds = SolveSeeds::for_scene(region(), &config, &poses);
        let mut ws = SolverWorkspace::default();
        let cold = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
        let before = ws.prune_stats();
        let warm = WarmStart::from_estimate(&cold);
        let warm_est =
            solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&warm)).unwrap();
        let ps = ws.prune_stats().since(before);
        assert_eq!(ps.warm_start_hits, 1, "gate should accept the prior");
        assert_eq!(ps.warm_start_misses, 0);
        // Only the floor refinement ran stage 1.
        assert_eq!(ps.seeds_refined, 1);
        assert!(warm_est.position.distance(cold.position) < 1e-6);
        assert!((warm_est.cost - cold.cost).abs() <= 1e-6 * (1.0 + cold.cost));
    }

    #[test]
    fn warm_start_gate_rejects_teleported_prior() {
        let poses = Scene::standard_2d().antenna_poses();
        let truth = Vec2::new(0.3, 1.1);
        let tag = SimTag::with_seeded_diversity(9)
            .with_motion(Motion::planar_static(truth, 0.4));
        let survey = Scene::standard_2d().survey(&tag, 31);
        let obs: Vec<AntennaObservation> = poses
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect();
        let config = SolverConfig::default();
        let seeds = SolveSeeds::for_scene(region(), &config, &poses);
        let mut ws = SolverWorkspace::default();
        let cold = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
        // A prior parked in the far corner with wrong material terms: the
        // joint refinement from it lands in a stale basin whose cost fails
        // the gate, and the solver falls back to the scan.
        let stale = WarmStart {
            position: Vec2::new(-0.4, 2.4),
            orientation: 2.6,
            kt: 5e-8,
            bt: 3.0,
        };
        let before = ws.prune_stats();
        let est =
            solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&stale)).unwrap();
        let ps = ws.prune_stats().since(before);
        if ps.warm_start_misses == 1 {
            // Fallback must agree with the cold solve exactly (the scan is
            // deterministic and warm attempts never perturb it).
            assert_eq!(ps.warm_start_hits, 0);
            assert_eq!(est.position.x.to_bits(), cold.position.x.to_bits());
            assert_eq!(est.position.y.to_bits(), cold.position.y.to_bits());
            assert_eq!(est.cost.to_bits(), cold.cost.to_bits());
        } else {
            // If the stale prior happened to refine back into the true
            // basin, accepting it is correct — but then it must match.
            assert_eq!(ps.warm_start_hits, 1);
            assert!((est.cost - cold.cost).abs() <= 1e-6 * (1.0 + cold.cost));
        }
        assert!(est.position.distance(cold.position) < 1e-3);
    }
}

/// Pins of the orientation scan's exact top-k against the full sort it
/// replaced, which survives here only: every direction seeded, costed and
/// sorted. Each pin scans every grid seed (at its closed-form `k_t`) and
/// the stage-1 candidates of a full solve, all through one solve's scan
/// state, so later scans reuse the bounds and seeds of earlier ones.
#[cfg(test)]
mod scan_pin {
    use super::*;
    use crate::model::{extract_observation, ExtractConfig};
    use crate::solver3d::Solve3DSeeds;
    use proptest::prelude::*;
    use rfp_phys::Material;
    use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};

    /// The scan before the exact top-k, with fresh `b_t` seeds: every
    /// direction's `(direction, b_t seed, cost)`, sorted by
    /// `(cost, direction)`.
    fn full_sort_scan<D: SceneDim<J, S>, const J: usize, const S: usize>(
        observations: &[AntennaObservation],
        seeds: &Seeds<D>,
        columns: &[usize],
        c: &[f64; S],
    ) -> Vec<(usize, f64, f64)> {
        let g = &seeds.geometry;
        let (pos, kt) = (position::<S>(c), c[S - 1]);
        let mut dists = Vec::new();
        let mut slope_cost = 0.0;
        for o in observations {
            let d = o.pose.position().distance(pos);
            let rs = (o.slope - propagation::slope_from_distance(d) - kt) / SLOPE_SIGMA;
            slope_cost += rs * rs;
            dists.push(d);
        }
        let rssi_base: Vec<f64> = observations
            .iter()
            .zip(&dists)
            .map(|(o, &d)| o.mean_rssi_dbm + 40.0 * d.log10())
            .collect();
        let mut ranked: Vec<(usize, f64, f64)> = (0..seeds.dim.scan_len())
            .map(|dir| {
                let orow = g.row(&g.orient, dir);
                let bt0 = angle::circular_mean(
                    observations.iter().zip(columns).map(|(o, &c)| o.intercept - orow[c]),
                )
                .unwrap_or(0.0);
                let mut cost = slope_cost;
                for (o, &c) in observations.iter().zip(columns) {
                    let rb = angle::wrap_pi(o.intercept - orow[c] - bt0) / INTERCEPT_SIGMA;
                    cost += rb * rb;
                }
                let (prow, pdbrow) = (g.row(&g.proj, dir), g.row(&g.proj_db, dir));
                cost +=
                    rssi_penalty_hoisted(observations, columns, &rssi_base, &dists, prow, pdbrow);
                (dir, bt0, cost)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| {
            a.2.partial_cmp(&b.2).expect("finite costs").then_with(|| a.0.cmp(&b.0))
        });
        ranked
    }

    /// What one scene's pin saw.
    #[derive(Debug, Default)]
    struct Seen {
        scans: usize,
        /// Scans that evaluated more directions than the short-list holds.
        widened: usize,
    }

    /// Scans every grid seed and every stage-1 candidate of a cold solve
    /// of `observations` in one solve's state, and pins each short-list
    /// to the full sort's first `SHORTLIST` entries bit for bit, and
    /// every direction's bound at or below its exact cost.
    fn pin<D: SceneDim<J, S>, const J: usize, const S: usize>(
        observations: &[AntennaObservation],
        seeds: &Seeds<D>,
        what: &str,
    ) -> Seen {
        let mut ws = Workspace::<J, S>::default();
        assert!(solve(observations, seeds, &mut ws, None, None).is_ok(), "{what}: solvable");
        let mut candidates: Vec<[f64; S]> = ws.position_candidates.iter().map(|c| c.0).collect();
        let mut columns = Vec::new();
        assert!(seeds.geometry.map_columns(observations, &mut columns));
        for (s, &start) in seeds.position_starts.iter().enumerate() {
            let (kt0, _) = coarse_seed_cost(observations, &seeds.geometry, &columns, s);
            candidates.push(slope_seed(start, kt0));
        }
        let mut state = ScanState::default();
        state.reset();
        let (mut dists, mut rssi_base) = (Vec::new(), Vec::new());
        let mut seen = Seen::default();
        for c in &candidates {
            let exact_before = state.exact;
            scan(observations, seeds, &columns, c, &mut state);
            let full = full_sort_scan(observations, seeds, &columns, c);
            let k = D::SHORTLIST.min(full.len());
            assert_eq!(state.ranked.len(), k, "{what}");
            for (got, want) in state.ranked.iter().zip(&full) {
                assert_eq!(got.0, want.0, "{what}: direction at {c:?}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: b_t seed at {c:?}");
                assert_eq!(got.2.to_bits(), want.2.to_bits(), "{what}: cost at {c:?}");
            }
            let at = ScanAt::new(
                observations,
                &seeds.geometry,
                &columns,
                c,
                &mut dists,
                &mut rssi_base,
            );
            for &(dir, _, cost) in &full {
                let bound = at.bound(dir, state.dirs[dir].lb);
                assert!(bound <= cost, "{what}: direction {dir} bound {bound} above cost {cost}");
            }
            seen.scans += 1;
            seen.widened += usize::from(state.exact - exact_before > k as u64);
        }
        seen
    }

    fn observations(scene: &Scene, tag: &SimTag, seed: u64) -> Option<Vec<AntennaObservation>> {
        let survey = scene.survey(tag, seed);
        scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
            .collect()
    }

    /// `observations` with their intercepts spread round the circle, far
    /// from any dipole's pattern: the bounds loosen, and scans evaluate
    /// past their short-lists.
    fn scattered(observations: &[AntennaObservation], seed: u64) -> Vec<AntennaObservation> {
        let mut out = observations.to_vec();
        for (i, o) in out.iter_mut().enumerate() {
            o.intercept = angle::wrap_tau(2.3 * i as f64 + 0.7 * seed as f64);
        }
        out
    }

    fn tag_2d(x: f64, y: f64, alpha: f64, seed: u64) -> SimTag {
        SimTag::with_seeded_diversity(seed)
            .attached_to(Material::CLASSES[seed as usize % Material::CLASSES.len()])
            .with_motion(Motion::planar_static(Vec2::new(x, y), alpha))
    }

    fn seeds_2d(scene: &Scene) -> SolveSeeds {
        SolveSeeds::for_scene(scene.region(), &SolverConfig::default(), &scene.antenna_poses())
    }

    const TAGS_2D: [(f64, f64, f64); 4] =
        [(0.3, 1.7, 0.8), (-0.4, 0.9, 2.6), (1.1, 2.2, 1.4), (0.5, 1.5, 0.1)];

    #[test]
    fn pruned_scan_matches_the_full_sort_2d() {
        let clean = Scene::standard_2d();
        // A fourth antenna the observations lack, as if extraction had
        // dropped it: the solve reads three of the tables' four columns.
        let mut poses = clean.antenna_poses();
        let target = clean.region().center().with_z(0.0);
        poses.push(AntennaPose::looking_at(Vec3::new(1.5, 0.0, 0.6), target, 1.2));
        let dropped = SolveSeeds::for_scene(clean.region(), &SolverConfig::default(), &poses);
        let mut seen = Seen::default();
        let mut tally = |s: Seen| {
            seen.scans += s.scans;
            seen.widened += s.widened;
        };
        for (i, &(x, y, alpha)) in TAGS_2D.iter().enumerate() {
            let seed = 40 + i as u64;
            let cluttered = clean
                .clone()
                .with_environment(MultipathEnvironment::cluttered(3, seed ^ 0x5d));
            for (scene, what) in [(&clean, "standard_2d"), (&cluttered, "cluttered")] {
                let obs = observations(scene, &tag_2d(x, y, alpha, seed), seed * 7)
                    .expect("every antenna extracts");
                tally(pin(&obs, &seeds_2d(scene), what));
                let permuted = [obs[2].clone(), obs[0].clone(), obs[1].clone()];
                tally(pin(&obs, &dropped, &format!("{what}, 3 of 4 antennas")));
                tally(pin(&permuted, &dropped, &format!("{what}, 3 of 4 antennas permuted")));
                // A non-finite RSSI: every penalty is then 0.
                let mut blind = obs.clone();
                blind[i % obs.len()].mean_rssi_dbm = f64::NAN;
                tally(pin(&blind, &seeds_2d(scene), &format!("{what}, NaN RSSI")));
                tally(pin(&scattered(&obs, seed), &seeds_2d(scene), &format!("{what}, scattered")));
            }
        }
        assert!(seen.scans > 1000, "{} 2-D scans", seen.scans);
        assert!(seen.widened > 0, "no 2-D scan evaluated past its short-list");
    }

    #[test]
    fn pruned_scan_matches_the_full_sort_3d() {
        let config = SolverConfig::default();
        let room = Scene::six_antenna_3d().with_environment(MultipathEnvironment::cluttered(6, 6));
        let four = Scene::four_antenna_3d();
        let tags = [
            (Vec3::new(0.8, 1.2, 0.4), Vec3::new(0.2, 0.5, 1.0)),
            (Vec3::new(1.5, 2.0, 1.1), Vec3::new(1.0, -0.3, 0.2)),
            (Vec3::new(0.4, 0.9, 0.7), Vec3::new(-0.6, 0.6, 0.5)),
        ];
        let mut widened = 0;
        for (i, &(position, dipole)) in tags.iter().enumerate() {
            let tag = SimTag::with_seeded_diversity(60 + i as u64)
                .attached_to(Material::CLASSES[i])
                .with_motion(Motion::Static { position, dipole: dipole.normalized() });
            for (scene, what) in [(&room, "six-antenna cluttered room"), (&four, "four antennas")] {
                let obs = observations(scene, &tag, 90 + i as u64).expect("every antenna extracts");
                let poses = scene.antenna_poses();
                let seeds = Solve3DSeeds::for_scene(scene.region(), (0.0, 1.5), &config, &poses);
                widened += pin(&obs, &seeds, what).widened;
                let what = format!("{what}, scattered");
                widened += pin(&scattered(&obs, i as u64), &seeds, &what).widened;
            }
        }
        assert!(widened > 0, "no 3-D scan evaluated past its short-list");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random 2-D tags, clean and cluttered: the same pin.
        #[test]
        fn pruned_scan_matches_the_full_sort_on_random_2d_tags(
            x in -1.2f64..1.2,
            y in 0.8f64..2.4,
            alpha in 0.0f64..3.1,
            seed in 0u64..1000,
            clutter in proptest::bool::ANY,
        ) {
            let mut scene = Scene::standard_2d();
            if clutter {
                scene = scene.with_environment(MultipathEnvironment::cluttered(3, seed ^ 0x5d));
            }
            if let Some(obs) = observations(&scene, &tag_2d(x, y, alpha, seed), seed) {
                pin(&obs, &seeds_2d(&scene), "random tag");
            }
        }
    }
}
