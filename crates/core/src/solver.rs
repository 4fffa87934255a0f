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
//! By default the multi-start is **coarse-to-fine**: every position seed
//! is ranked by its cheap unrefined slope cost (an O(N) table lookup per
//! seed) and only the [`SolverConfig::refine_top_k`] best receive LM
//! refinement, with a cost-plateau early exit across both the seed beam
//! and the stage-3 joint short-list. [`SolverConfig::exhaustive`] restores
//! the refine-everything behaviour bit-for-bit. Consecutive sensing rounds
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

use crate::lm::{LaneStats, LmCore, ResidualModel, StepStats};
use crate::model::AntennaObservation;
use crate::obs;
use rfp_geom::{angle, AntennaPose, Region2, Vec2, Vec3};
use rfp_phys::polarization::{orientation_phase, planar_dipole, projection_magnitude};
use rfp_phys::propagation;

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
    /// residuals).
    pub residual_evals: u64,
    /// Jacobian evaluations. Analytic: fused with one residual pass.
    /// Numeric (oracle only): assembled from `2·n_params` sweeps, charged
    /// to `residual_evals`.
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
    /// The solver configuration of this dimension.
    type Config;
    /// The cross-round warm-start prior.
    type Warm;
    /// The disentangled tag state.
    type Estimate;
    /// The error of a solve that cannot run.
    type Error;
    /// Fewest antennas whose 2N equations over-determine the J unknowns.
    const MIN_ANTENNAS: usize;
    /// How many distinct admissible stage-1 candidates reach the scan.
    const STAGE1_KEEP: usize;
    /// Stage-1 candidates closer than this (metres) to a kept one are
    /// duplicates; `0` keeps every candidate, as distances are never
    /// negative.
    const STAGE1_DEDUP_M: f64;
    /// Scan directions per stage-1 candidate that receive a joint
    /// refinement.
    const SHORTLIST: usize;
    /// Span names of the solve and of its orientation scan.
    const SPANS: (&'static str, &'static str);
    /// Obs counter ids of (solves, iterations, residual evals, Jacobian
    /// evals).
    const COUNTERS: [usize; 4];

    /// The knobs of `config` the facade reads.
    fn knobs(config: &Self::Config) -> Knobs;
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
        config: &Self::Config,
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    );
    /// The N stage-1 slope residuals at `p` and their `N × S` Jacobian.
    fn slope_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        config: &Self::Config,
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
        config: &Self::Config,
        core: &mut LmCore<J>,
    ) -> Self::Estimate;
}

/// The configuration knobs both scene dimensions share, copied out of
/// [`SolverConfig`] or [`Solver3DConfig`](crate::solver3d::Solver3DConfig)
/// once per solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Knobs {
    pub(crate) slope_sigma: f64,
    pub(crate) intercept_sigma: f64,
    pub(crate) max_iterations: usize,
    pub(crate) tolerance: f64,
    pub(crate) rssi_sigma_db: f64,
    pub(crate) refine_top_k: Option<usize>,
    pub(crate) early_exit_rel_tol: f64,
    pub(crate) warm_gate_rel_tol: f64,
}

impl Knobs {
    fn rssi_active(&self) -> bool {
        self.rssi_sigma_db.is_finite() && self.rssi_sigma_db > 0.0
    }
}

/// Per-scene constants of a solve, computed once and shared read-only by
/// every solve against the same scene and configuration — each pipeline
/// builds its own when its scene or configuration is set, and every entry
/// point, batch worker and streaming session shares it (see
/// `crate::batch`). `D` is the scene dimension: [`Planar`] for
/// [`SolveSeeds`], [`Spatial`](crate::solver3d::Spatial) for
/// [`Solve3DSeeds`](crate::solver3d::Solve3DSeeds).
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

impl<D> Seeds<D> {
    /// Number of position seeds in the multi-start grid — the beam width
    /// (`refine_top_k`) at which pruning degenerates to the full scan.
    pub fn seed_count(&self) -> usize {
        self.position_starts.len()
    }
}

/// The seeds at `position_starts` around `region` with scan `dim`, and the
/// geometry tables of deployment `poses`.
pub(crate) fn seeds_for_scene<D: SceneDim<J, S>, const J: usize, const S: usize>(
    position_starts: Vec<Vec3>,
    region: Region2,
    dim: D,
    poses: &[AntennaPose],
) -> Seeds<D> {
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
pub struct Planar {
    /// Number of α seeds scanned per position candidate.
    pub(crate) alpha_steps: usize,
}

impl Planar {
    /// Orientation seed `α₀` of scan direction `dir`.
    fn alpha(&self, dir: usize) -> f64 {
        std::f64::consts::PI * dir as f64 / self.alpha_steps as f64
    }
}

impl SolveSeeds {
    /// Precomputes the multi-start seeds for `region` under `config`, with
    /// the per-antenna geometry tables of deployment `poses` — the
    /// per-scene precomputation the pipelines own.
    pub fn for_scene(region: Region2, config: &SolverConfig, poses: &[AntennaPose]) -> Self {
        let (nx, ny) = config.position_starts;
        let starts = region.grid(nx.max(1), ny.max(1)).map(|p| p.with_z(0.0)).collect();
        let dim = Planar { alpha_steps: (config.orientation_starts.max(1) * 8).max(24) };
        seeds_for_scene(starts, region, dim, poses)
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
    /// scan.
    coarse: Vec<(f64, usize, f64)>,
    /// `(direction index, b_t seed, ranking cost)` per scan direction,
    /// sorted best-first. The `b_t` seeds depend only on the observations
    /// and the direction, so the first scan of a solve computes them and
    /// later scans of the same solve keep them; emptied at every solve
    /// entry.
    ranked: Vec<(usize, f64, f64)>,
    /// Per-antenna rows of the current scan candidate.
    rows: ScanRows,
    /// Stage-3 refined candidates; the winner is extracted by index.
    refined: Vec<([f64; J], f64)>,
    /// Each observation's column in the seeds' geometry tables, mapped by
    /// pose at the start of every solve.
    columns: Vec<usize>,
    /// Pruning / warm-start effectiveness tallies.
    prune: PruneStats,
    /// Lane tallies of the coarse seed ranking (the LM cores keep their
    /// own row tallies).
    lanes: LaneStats,
}

/// The 2-D solver's workspace (see [`Workspace`]).
pub type SolverWorkspace = Workspace<5, 3>;

/// Per-antenna rows of the orientation scan at one candidate.
#[derive(Debug, Default)]
struct ScanRows {
    /// Distances to the candidate position.
    dists: Vec<f64>,
    /// `rssiᵢ + 40·log10(dᵢ)` — the direction-independent half of the RSSI
    /// penalty, hoisted out of the scan.
    rssi_base: Vec<f64>,
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

    /// Snapshot of the 4-wide lane tallies: the coarse seed-ranking blocks
    /// plus both LM cores' residual-row blocks (diff with
    /// [`LaneStats::since`]).
    pub fn lane_stats(&self) -> LaneStats {
        self.lanes
            .merged(self.joint.lane_stats())
            .merged(self.slope.lane_stats())
    }

    /// Snapshot of the damped-step tallies — λ retries and factorization
    /// failures — summed over both LM cores (diff with
    /// [`StepStats::since`]).
    pub fn step_stats(&self) -> StepStats {
        self.joint.step_stats().merged(self.slope.step_stats())
    }
}

/// Configuration of the 2-D disentangling solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Expected slope noise (rad/Hz); weights the slope residuals.
    pub slope_sigma: f64,
    /// Expected intercept noise (rad); weights the intercept residuals.
    pub intercept_sigma: f64,
    /// Multi-start position grid (nx, ny) over the working region.
    pub position_starts: (usize, usize),
    /// Sets the orientation scan: each position candidate is scanned over
    /// `max(8 · orientation_starts, 24)` evenly spaced α seeds in
    /// `[0, π)` — 48 at the default of 6.
    pub orientation_starts: usize,
    /// Maximum LM iterations per start.
    pub max_iterations: usize,
    /// Relative cost-decrease tolerance for LM convergence.
    pub tolerance: f64,
    /// Expected RSSI noise (dB) used when ranking candidate modes by
    /// polarization-mismatch consistency. The wrapped intercept equations
    /// admit near-twin `α` solutions with 3 antennas; the per-antenna RSSI
    /// pattern (`20·log10` of the dipole projection) breaks the tie. Set to
    /// `f64::INFINITY` to disable and rank by phase cost alone.
    pub rssi_sigma_db: f64,
    /// Stage-1 beam width of the coarse-to-fine scan: only the
    /// `refine_top_k` position seeds with the lowest *unrefined* slope
    /// cost receive LM refinement. `None` refines every seed; combined
    /// with `early_exit_rel_tol = 0` that reproduces the exhaustive
    /// multi-start bit-for-bit (see [`SolverConfig::exhaustive`]).
    pub refine_top_k: Option<usize>,
    /// Cost-plateau early exit of the coarse-to-fine scan: once at least
    /// two candidates of a stage are refined, the remaining candidates
    /// whose *pre-refinement* cost already exceeds the best refined cost
    /// by this relative margin are skipped. Applies to the stage-1 seed
    /// beam and the stage-3 joint short-list; `0` disables the exit.
    pub early_exit_rel_tol: f64,
    /// Warm-start validation gate: a warm-started refinement is accepted
    /// only when its ranking cost stays within this relative margin of the
    /// coarse-scan floor (the cost of the best coarse seed after stage-1
    /// refinement and an α scan — a value the scan itself could reach).
    /// Teleporting tags fail the gate and fall back to the full scan.
    pub warm_gate_rel_tol: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            slope_sigma: 1.0e-10,
            intercept_sigma: 0.08,
            position_starts: (6, 6),
            orientation_starts: 6,
            max_iterations: 60,
            tolerance: 1e-10,
            rssi_sigma_db: 1.0,
            refine_top_k: Some(8),
            early_exit_rel_tol: 0.5,
            warm_gate_rel_tol: 0.25,
        }
    }
}

impl SolverConfig {
    /// The exhaustive escape hatch: refine every multi-start seed with no
    /// early exit, reproducing the pre-pruning solver bit-for-bit.
    #[must_use]
    pub fn exhaustive() -> Self {
        SolverConfig {
            refine_top_k: None,
            early_exit_rel_tol: 0.0,
            ..SolverConfig::default()
        }
    }
}

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
/// ([`SolverConfig::warm_gate_rel_tol`]); re-anchoring it with a full
/// recomputation every [`reanchor period`](Self::with_period) bounds the
/// staleness. The cached floor can only *accept* a prior early: a miss
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
/// its ranking cost within [`SolverConfig::warm_gate_rel_tol`] of the
/// coarse-scan floor), returns it without running the multi-start scan at
/// all — the steady-state tracking fast path. A prior in a stale basin
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
    config: &SolverConfig,
    workspace: &mut SolverWorkspace,
    warm: Option<&WarmStart>,
) -> Result<TagEstimate2D, SolveError> {
    solve(observations, seeds, config, workspace, warm, None)
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
    config: &SolverConfig,
    workspace: &mut SolverWorkspace,
    warm: Option<&WarmStart>,
    gate: &mut WarmGate,
) -> Result<TagEstimate2D, SolveError> {
    solve(observations, seeds, config, workspace, warm, Some(gate))
}

/// The facade both scene dimensions solve through. Warm solves refine the
/// prior first and return it when it passes the gate; everything else runs
/// the staged multi-start of [`search`]. `gate` caches the gate's floor
/// across solves (2-D tracking only).
pub(crate) fn solve<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    seeds: &Seeds<D>,
    config: &D::Config,
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
    let before = obs::active()
        .then(|| (workspace.stats(), workspace.lane_stats(), workspace.step_stats()));
    let (p, cost, seeds_refined, warm_hit) =
        search(observations, seeds, config, workspace, warm, gate);
    let seeds_total = seeds.position_starts.len() as u64;
    let warm_miss = warm.is_some() && !warm_hit;
    let prune = &mut workspace.prune;
    prune.seeds_total += seeds_total;
    prune.seeds_refined += seeds_refined;
    prune.warm_start_hits += u64::from(warm_hit);
    prune.warm_start_misses += u64::from(warm_miss);
    if let Some((stats, lanes, steps)) = before {
        let work = workspace.stats().since(stats);
        let lane_work = workspace.lane_stats().since(lanes);
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
            (obs::id::SOLVER_LANE_SEED_BLOCKS, lane_work.seed_blocks),
            (obs::id::SOLVER_LANE_ROW_BLOCKS, lane_work.row_blocks),
            (obs::id::SOLVER_LANE_SCALAR_ROWS, lane_work.scalar_rows),
            (obs::id::SOLVER_LAMBDA_RETRIES, step_work.lambda_retries),
            (obs::id::SOLVER_CHOL_FAILURES, step_work.chol_failures),
            (obs::id::SOLVER_WARM_HITS, u64::from(warm_hit)),
            (obs::id::SOLVER_WARM_MISSES, u64::from(warm_miss)),
        ]);
    }
    Ok(D::estimate(observations, &p, cost, config, &mut workspace.joint))
}

/// The warm-start gate and the staged multi-start behind [`solve`]:
/// returns the winning joint parameters, their cost, the number of seeds
/// stage 1 refined and whether the warm-start gate accepted the prior.
fn search<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    seeds: &Seeds<D>,
    config: &D::Config,
    workspace: &mut Workspace<J, S>,
    warm: Option<&D::Warm>,
    mut gate: Option<&mut WarmGate>,
) -> ([f64; J], f64, u64, bool) {
    let knobs = D::knobs(config);
    let Workspace {
        joint,
        slope,
        position_candidates,
        coarse,
        ranked,
        rows,
        refined,
        columns,
        lanes,
        ..
    } = workspace;
    let columns = &columns[..];
    position_candidates.clear();
    refined.clear();
    // The scan's b_t seeds are keyed by the observations of *this* solve.
    ranked.clear();
    let joint_model = JointRows::<D, J, S> { observations, config };
    let slope_model = SlopeRows::<D, J, S> { observations, config };

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
        rank_coarse(observations, seeds, columns, &knobs, coarse, lanes);
    }

    // Warm start: refine the prior first and gate the result against the
    // coarse-scan floor — the cost the scan itself would reach from its
    // best coarse seed (stage-1 refined, best direction at it). A prior
    // still in the true basin refines to a key at or below that floor; a
    // stale basin's key is far above it and falls through to the scan.
    if let Some(w) = warm {
        let _warm_span = obs::span("warm_start");
        let (p, cost) =
            joint.refine(&joint_model, D::warm_params(w), knobs.max_iterations, knobs.tolerance);
        let key = cost + mode_penalty::<D, J, S>(observations, &p, knobs.rssi_sigma_db);
        let in_region = admissible(&p);
        let gate_ok = |floor: f64| key <= floor * (1.0 + knobs.warm_gate_rel_tol) + 1e-9;
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
                rank_coarse(observations, seeds, columns, &knobs, coarse, lanes);
                coarse_ready = true;
            }
            let (_, best_seed, best_kt) = coarse[0];
            let p0 = slope_seed(seeds.position_starts[best_seed], best_kt);
            let (sp, _) = slope.refine(&slope_model, p0, knobs.max_iterations, knobs.tolerance);
            seeds_refined += 1;
            scan(observations, seeds, columns, &knobs, &sp, rows, ranked);
            let floor = ranked.first().map_or(f64::INFINITY, |&(_, _, c)| c);
            if let Some(g) = gate.as_deref_mut() {
                g.anchor(floor);
            }
            accept = in_region && gate_ok(floor);
        }
        if accept {
            return (p, cost, seeds_refined, true);
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
        rank_coarse(observations, seeds, columns, &knobs, coarse, lanes);
    }

    // Stage 1: slope-only position solve of the top-K coarse-ranked seeds,
    // with a cost-plateau early exit. Exhaustive mode (no K, no early exit)
    // refines every seed.
    let stage1_span = obs::span("stage1_slope");
    let beam = knobs.refine_top_k.unwrap_or(usize::MAX).max(1);
    let mut best_refined = f64::INFINITY;
    for (rank, &(coarse_cost, s, kt0)) in coarse.iter().enumerate() {
        if rank >= beam {
            break;
        }
        // Plateau exit: once two seeds are refined, a seed whose
        // *unrefined* cost already exceeds the best refined cost by the
        // margin cannot plausibly overtake it.
        if knobs.early_exit_rel_tol > 0.0
            && rank >= 2
            && coarse_cost > best_refined * (1.0 + knobs.early_exit_rel_tol)
        {
            break;
        }
        let p0 = slope_seed(seeds.position_starts[s], kt0);
        let (p, cost) = slope.refine(&slope_model, p0, knobs.max_iterations, knobs.tolerance);
        best_refined = best_refined.min(cost);
        position_candidates.push((p, cost, s));
    }
    // Ties on cost keep grid order via the explicit seed-index key, so the
    // candidate order does not depend on the order the seeds were refined
    // in: with a full beam it equals a stable cost sort of grid-order
    // refinements.
    position_candidates.sort_unstable_by(|a, b| {
        a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
    });
    seeds_refined += position_candidates.len() as u64;
    #[allow(clippy::drop_non_drop)] // ends the span early; inert unit guard without `obs`
    drop(stage1_span);
    // Move the best distinct admissible candidates to the front, in cost
    // order. With exactly 4 antennas in 3-D the slope system is exactly
    // determined, so several zero-cost candidates can exist (mirror
    // images, spurious intersections) that only the intercept equations
    // tell apart — hence a wide, deduplicated keep there. The overall
    // best, still at index 0 when nothing was kept, is the backup.
    let mut kept = 0usize;
    for i in 0..position_candidates.len() {
        let p = position_candidates[i].0;
        if !admissible(&p) {
            continue;
        }
        let pos = position::<S>(&p);
        let duplicate = position_candidates[..kept]
            .iter()
            .any(|(q, _, _)| position::<S>(q).distance(pos) < D::STAGE1_DEDUP_M);
        if !duplicate {
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
        scan(observations, seeds, columns, &knobs, &c, rows, ranked);
        let _refine_span = obs::span("joint_refine");
        for (rank, &(dir, bt0, scan_cost)) in ranked.iter().take(D::SHORTLIST).enumerate() {
            // Plateau exit across the joint short-list — but always refine
            // at least two directions per candidate, so the twin-mode
            // disambiguation (truth vs its RSSI-implausible mirror) never
            // degenerates to a single basin.
            if knobs.early_exit_rel_tol > 0.0 && rank >= 2 {
                if let Some((_, k)) = best_any {
                    if scan_cost > k * (1.0 + knobs.early_exit_rel_tol) {
                        break;
                    }
                }
            }
            let p0 = seeds.dim.joint_seed(&c, dir, bt0);
            let (p, cost) = joint.refine(&joint_model, p0, knobs.max_iterations, knobs.tolerance);
            let key = cost + mode_penalty::<D, J, S>(observations, &p, knobs.rssi_sigma_db);
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
    (p, cost, seeds_refined, false)
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
/// the ordering total, so the unstable (allocation-free) sort is
/// deterministic.
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
    knobs: &Knobs,
    coarse: &mut Vec<(f64, usize, f64)>,
    lanes: &mut LaneStats,
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
                let rs = (o.slope - rows[l][c] - kt0[l]) / knobs.slope_sigma;
                cost[l] += rs * rs;
            }
        }
        for l in 0..4 {
            coarse.push((cost[l], s + l, kt0[l]));
        }
        lanes.seed_blocks += 1;
        s += 4;
    }
    for idx in s..n_seeds {
        let (kt0, cost) = coarse_seed_cost(observations, g, columns, idx, knobs.slope_sigma);
        coarse.push((cost, idx, kt0));
    }
    lanes.scalar_rows += (n_seeds - s) as u64;
    coarse.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
    });
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
    slope_sigma: f64,
) -> (f64, f64) {
    let row = geometry.row(&geometry.seed_slopes, s);
    let sum: f64 = observations.iter().zip(columns).map(|(o, &c)| o.slope - row[c]).sum();
    let kt0 = sum / observations.len() as f64;
    let mut cost = 0.0;
    for (o, &c) in observations.iter().zip(columns) {
        let rs = (o.slope - row[c] - kt0) / slope_sigma;
        cost += rs * rs;
    }
    (kt0, cost)
}

/// Stage 2 at one stage-1 candidate `c` (position + `k_t`): ranks every
/// scan direction by the full cost (slope + wrapped intercept + RSSI mode
/// penalty) and leaves `ranked` sorted best-first. Everything
/// direction-independent — the per-antenna distances, the slope half of
/// the cost and the RSSI penalty's `rssiᵢ + 40·log10(dᵢ)` base — is
/// hoisted out of the scan, and the orientation/projection rows are read
/// from the geometry tables' columns of the antennas present.
///
/// The first scan of a solve (`ranked` empty) computes each direction's
/// closed-form `b_t` seed, the circular mean of `bᵢ − θ_orient`; it
/// depends on the observations and the direction only, so later scans of
/// the same solve keep the seeds already in `ranked` and only re-cost
/// them. Each cost is computed independently and the (cost, direction)
/// sort key is a total order, so a re-costed scan ranks exactly as a fresh
/// one would, bit for bit.
fn scan<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    seeds: &Seeds<D>,
    columns: &[usize],
    knobs: &Knobs,
    c: &[f64; S],
    rows: &mut ScanRows,
    ranked: &mut Vec<(usize, f64, f64)>,
) {
    let g = &seeds.geometry;
    let (pos, kt) = (position::<S>(c), c[S - 1]);
    let ScanRows { dists, rssi_base } = rows;
    dists.clear();
    let mut slope_cost = 0.0;
    for o in observations {
        let d = o.pose.position().distance(pos);
        let rs = (o.slope - propagation::slope_from_distance(d) - kt) / knobs.slope_sigma;
        slope_cost += rs * rs;
        dists.push(d);
    }
    // The direction-independent half of the RSSI penalty. Entries for
    // unreadable distances may be NaN/−∞, but the penalty's guards return
    // before reading them — exactly as the unhoisted kernel returned
    // before computing the term at all.
    let rssi_active = knobs.rssi_active();
    rssi_base.clear();
    if rssi_active {
        for (o, &d) in observations.iter().zip(dists.iter()) {
            rssi_base.push(o.mean_rssi_dbm + 40.0 * d.log10());
        }
    }
    // Rank directions by full cost at this position; spurious twin-mode
    // basins often fit the phases *better* than the true mode under noise,
    // so the RSSI mode penalty is applied already in the ranking —
    // otherwise they crowd truth out of the refinement short-list entirely.
    let _scan_span = obs::span(D::SPANS.1);
    let seeded = !ranked.is_empty();
    if !seeded {
        ranked.extend((0..seeds.dim.scan_len()).map(|dir| (dir, 0.0, 0.0)));
    }
    for entry in ranked.iter_mut() {
        let dir = entry.0;
        let orow = g.row(&g.orient, dir);
        if !seeded {
            entry.1 = angle::circular_mean(
                observations.iter().zip(columns).map(|(o, &c)| o.intercept - orow[c]),
            )
            .unwrap_or(0.0);
        }
        let bt0 = entry.1;
        let mut cost = slope_cost;
        for (o, &c) in observations.iter().zip(columns) {
            let rb = angle::wrap_pi(o.intercept - orow[c] - bt0) / knobs.intercept_sigma;
            cost += rb * rb;
        }
        if rssi_active {
            let (prow, pdbrow) = (g.row(&g.proj, dir), g.row(&g.proj_db, dir));
            let penalty = rssi_penalty_hoisted(
                observations,
                columns,
                rssi_base,
                dists,
                prow,
                pdbrow,
                knobs.rssi_sigma_db,
            );
            cost += penalty;
        }
        entry.2 = cost;
    }
    // Directions were first pushed in ascending index order, so breaking
    // cost ties on the index reproduces a stable sort of a fresh scan
    // while keeping the unstable sort allocation-free.
    ranked.sort_unstable_by(|a, b| {
        a.2.partial_cmp(&b.2).expect("finite costs").then_with(|| a.0.cmp(&b.0))
    });
}

/// The joint disentangling problem of scene dimension `D` as a
/// [`ResidualModel`].
struct JointRows<'a, D: SceneDim<J, S>, const J: usize, const S: usize> {
    observations: &'a [AntennaObservation],
    config: &'a D::Config,
}

impl<D: SceneDim<J, S>, const J: usize, const S: usize> ResidualModel<J>
    for JointRows<'_, D, J, S>
{
    fn eval(&self, p: &[f64; J], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        D::joint_rows(self.observations, p, self.config, r, jac);
    }
}

/// The stage-1 slope-only problem of scene dimension `D` as a
/// [`ResidualModel`].
struct SlopeRows<'a, D: SceneDim<J, S>, const J: usize, const S: usize> {
    observations: &'a [AntennaObservation],
    config: &'a D::Config,
}

impl<D: SceneDim<J, S>, const J: usize, const S: usize> ResidualModel<S>
    for SlopeRows<'_, D, J, S>
{
    fn eval(&self, p: &[f64; S], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        D::slope_rows(self.observations, p, self.config, r, jac);
    }
}

/// The RSSI mode penalty of joint parameters `p` (see
/// [`rssi_mode_penalty`]).
fn mode_penalty<D: SceneDim<J, S>, const J: usize, const S: usize>(
    observations: &[AntennaObservation],
    p: &[f64; J],
    sigma_db: f64,
) -> f64 {
    rssi_mode_penalty(observations, position::<S>(p), D::dipole(p), sigma_db)
}

/// RSSI-consistency penalty of a candidate mode (position `pos`, dipole
/// `w`): the weighted variance of `rssiᵢ + 40·log10(dᵢ) − 20·log10(pᵢ)`
/// across antennas, with `dᵢ` the distance to `pos` and `pᵢ` the dipole's
/// projection magnitude at antenna *i*.
///
/// The backscatter link budget (`rfp_phys::rssi`) says that quantity is a
/// per-tag constant (transmit power + material loss) plus noise, so modes
/// whose predicted polarization projections `pᵢ` disagree with the
/// measured RSSI pattern score high. Returns 0 when disabled
/// (`sigma_db = ∞`) or when any observation lacks a finite RSSI.
fn rssi_mode_penalty(
    observations: &[AntennaObservation],
    pos: Vec3,
    w: Vec3,
    sigma_db: f64,
) -> f64 {
    if !sigma_db.is_finite() || sigma_db <= 0.0 || observations.is_empty() {
        return 0.0;
    }
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
    variance / (sigma_db * sigma_db)
}

/// The RSSI mode penalty with both dB terms precomputed: `rssi_base[i]` =
/// `rssiᵢ + 40·log10(dᵢ)` (hoisted out of the scan) and `proj_dbs[c]` =
/// `20·log10(projs[c])` (a geometry-table row, read at observation *i*'s
/// column `c = columns[i]`). The caller has already checked `sigma_db` is
/// active and that there are observations. Guard order and the grouping
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
    sigma_db: f64,
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
    variance / (sigma_db * sigma_db)
}

impl SceneDim<5, 3> for Planar {
    type Config = SolverConfig;
    type Warm = WarmStart;
    type Estimate = TagEstimate2D;
    type Error = SolveError;
    const MIN_ANTENNAS: usize = 3;
    const STAGE1_KEEP: usize = 2;
    const STAGE1_DEDUP_M: f64 = 0.0;
    const SHORTLIST: usize = 4;
    const SPANS: (&'static str, &'static str) = ("solve_2d", "alpha_scan");
    const COUNTERS: [usize; 4] = [
        obs::id::SOLVER2D_SOLVES,
        obs::id::SOLVER2D_ITERATIONS,
        obs::id::SOLVER2D_RESIDUAL_EVALS,
        obs::id::SOLVER2D_JACOBIAN_EVALS,
    ];

    fn knobs(c: &SolverConfig) -> Knobs {
        Knobs {
            slope_sigma: c.slope_sigma,
            intercept_sigma: c.intercept_sigma,
            max_iterations: c.max_iterations,
            tolerance: c.tolerance,
            rssi_sigma_db: c.rssi_sigma_db,
            refine_top_k: c.refine_top_k,
            early_exit_rel_tol: c.early_exit_rel_tol,
            warm_gate_rel_tol: c.warm_gate_rel_tol,
        }
    }

    fn too_few(provided: usize) -> SolveError {
        SolveError::TooFewAntennas { provided }
    }

    fn unknown_antenna() -> SolveError {
        SolveError::UnknownAntenna
    }

    fn joint_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        config: &SolverConfig,
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    ) {
        residuals_and_jacobian_2d(observations, p, config, r, jac);
    }

    fn slope_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        config: &SolverConfig,
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    ) {
        slope_residuals_and_jacobian_2d(observations, p, config, r, jac);
    }

    fn scan_len(&self) -> usize {
        self.alpha_steps
    }

    fn scan_dipole(&self, dir: usize) -> Vec3 {
        planar_dipole(self.alpha(dir))
    }

    fn joint_seed(&self, c: &[f64; 3], dir: usize, bt0: f64) -> [f64; 5] {
        [c[0], c[1], self.alpha(dir), c[2], bt0]
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
        config: &SolverConfig,
        core: &mut LmCore<5>,
    ) -> TagEstimate2D {
        let n_res = 2 * observations.len();
        let model = JointRows::<Planar, 5, 3> { observations, config };
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
pub fn residuals_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &SolverConfig,
    out: &mut Vec<f64>,
) {
    residuals_and_jacobian_2d(observations, p, config, out, None);
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
    config: &SolverConfig,
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
        joint_row_2d(&c[0], i, pos, w, dw, kt, bt, k1, config, r, jac.as_deref_mut());
        joint_row_2d(&c[1], i + 1, pos, w, dw, kt, bt, k1, config, r, jac.as_deref_mut());
        joint_row_2d(&c[2], i + 2, pos, w, dw, kt, bt, k1, config, r, jac.as_deref_mut());
        joint_row_2d(&c[3], i + 3, pos, w, dw, kt, bt, k1, config, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        joint_row_2d(o, i, pos, w, dw, kt, bt, k1, config, r, jac.as_deref_mut());
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
    config: &SolverConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    let k_model = propagation::slope_from_distance(d) + kt;
    r.push((o.slope - k_model) / config.slope_sigma);
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
    r.push(angle::wrap_pi(o.intercept - b_model) / config.intercept_sigma);
    if let Some(j) = jac {
        let rs = 2 * i * 5;
        let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
        j[rs] = g * (pos.x - ap.x);
        j[rs + 1] = g * (pos.y - ap.y);
        j[rs + 3] = -1.0 / config.slope_sigma;
        let rb = rs + 5;
        let dtheta = if denom < 1e-24 {
            0.0
        } else {
            let uwp = o.pose.u().dot(dw);
            let vwp = o.pose.v().dot(dw);
            2.0 * (uw * vwp - vw * uwp) / denom
        };
        j[rb + 2] = -dtheta / config.intercept_sigma;
        j[rb + 4] = -1.0 / config.intercept_sigma;
    }
}

/// The N sigma-normalized slope residuals at `p = (x, y, k_t)` and,
/// when `jac` is given, their row-major `N × 3` analytic Jacobian — the
/// stage-1 seeding problem.
fn slope_residuals_and_jacobian_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &SolverConfig,
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
        slope_row_2d(&c[0], i, pos, kt, k1, config, r, jac.as_deref_mut());
        slope_row_2d(&c[1], i + 1, pos, kt, k1, config, r, jac.as_deref_mut());
        slope_row_2d(&c[2], i + 2, pos, kt, k1, config, r, jac.as_deref_mut());
        slope_row_2d(&c[3], i + 3, pos, kt, k1, config, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        slope_row_2d(o, i, pos, kt, k1, config, r, jac.as_deref_mut());
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
    config: &SolverConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
    if let Some(j) = jac {
        let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
        j[i * 3] = g * (pos.x - ap.x);
        j[i * 3 + 1] = g * (pos.y - ap.y);
        j[i * 3 + 2] = -1.0 / config.slope_sigma;
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
        let config = SolverConfig::default();
        // Slightly off truth, where all residuals are small and far from
        // the wrap_pi discontinuity.
        let p = [0.46, 1.60, 0.93, -1.52e-8, 0.72];
        let mut r = Vec::new();
        let mut jac = Vec::new();
        residuals_and_jacobian_2d(&obs, &p, &config, &mut r, Some(&mut jac));
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
            residuals_2d(&obs, &work, &config, &mut r_plus);
            work[j] = p[j] - h;
            residuals_2d(&obs, &work, &config, &mut r_minus);
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
                assert_eq!(bt_row.to_bits(), seed_bt(obs, seeds.dim.alpha(dir)).to_bits());
            }
        }
    }

    #[test]
    fn exhaustive_config_refines_every_seed() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.5, 1.5), 0.6, -1e-8, 1.0));
        let config = SolverConfig::exhaustive();
        let seeds = SolveSeeds::for_scene(region(), &config, &poses);
        let mut ws = SolverWorkspace::default();
        solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
        let ps = ws.prune_stats();
        assert_eq!(ps.seeds_total, 36);
        assert_eq!(ps.seeds_refined, 36);
        assert_eq!(ps.seeds_pruned(), 0);
        assert_eq!(ps.warm_start_hits + ps.warm_start_misses, 0);
    }

    #[test]
    fn default_pruning_refines_a_fraction_and_matches_exhaustive() {
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
        let exhaustive =
            solve_2d(&obs, region(), &SolverConfig::exhaustive()).unwrap();
        assert!(pruned.position.distance(exhaustive.position) < 1e-6);
        assert!((pruned.cost - exhaustive.cost).abs() <= 1e-6 * (1.0 + exhaustive.cost));
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
