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
//! One LM engine, [`LmCore`], refines every start, along one of two
//! Jacobian paths that share its damping/retry policy:
//!
//! * [`LmCore::refine`] — the default hot path. The residuals of Eq. 6
//!   are closed-form differentiable, so each iteration evaluates the
//!   residuals *and* the exact Jacobian in one fused pass (DESIGN.md §6
//!   derives ∂r/∂p) and solves the SPD normal equations
//!   `(JᵀJ + λD)δ = −Jᵀr` by Cholesky, re-damping only the diagonal across
//!   the λ-adaptation retries of an iteration.
//! * [`LmCore::refine_numeric`] — the numeric fallback and test oracle:
//!   central-difference Jacobian (2 residual sweeps per parameter per
//!   iteration) with per-parameter step scales, MINPACK style, selected
//!   with [`JacobianMode::Numeric`]. Parameter magnitudes differ wildly
//!   (`k_t` ~1e-8 rad/Hz vs `x` ~1 m), hence the per-parameter steps.
//!
//! [`SolveSeeds`] additionally precomputes per-scene geometry (per-seed
//! per-antenna slopes, per-α-seed orientation/projection tables) once, so
//! the stage-1/stage-2 seeding of every tag against the same scene stops
//! recomputing `dist(Aᵢ, seed)` and `θ_orient(Aᵢ, α₀)` from scratch.
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
//! Since the lane-core refactor this module is a thin *facade*: the LM
//! refinement engine lives in the dimension-generic
//! [`LmCore`] (`LmCore<5>` for the joint problem,
//! `LmCore<3>` for stage 1), the problem physics sits behind
//! [`ResidualModel`] implementations, and the
//! residual/seed-ranking hot loops run in explicit 4-wide lanes. The
//! pre-refactor solver is frozen verbatim in [`crate::reference`] as the
//! bit-exact oracle the facade is pinned against (see DESIGN.md §6).

use crate::lm::{LaneStats, LmCore, ResidualModel, StepStats};
use crate::model::AntennaObservation;
use crate::obs;
use rfp_geom::{angle, AntennaPose, Region2, Vec2, Vec3};
use rfp_phys::polarization::{orientation_phase, planar_dipole, projection_magnitude};
use rfp_phys::propagation;

/// How the LM refinements obtain the Jacobian of the residuals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JacobianMode {
    /// Closed-form ∂r/∂p (DESIGN.md §6), evaluated fused with the
    /// residuals, normal equations solved by Cholesky — the default.
    #[default]
    Analytic,
    /// Central-difference Jacobian through [`LmCore::refine_numeric`] —
    /// the config-selectable fallback and the oracle the analytic path is
    /// verified against in tests.
    Numeric,
}

/// Work counters of the LM cores, for profiling (see the `solver_profile`
/// bench). Counters accumulate monotonically per workspace; snapshot them
/// with [`LmCore::stats`] (or the workspace-level `stats`) before and
/// after a solve and diff with [`SolveStats::since`] for per-solve counts.
///
/// The numeric core charges each finite-difference sweep as one residual
/// evaluation — exactly the cost the analytic path removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Residual-vector evaluations (each is a full pass over the
    /// residuals).
    pub residual_evals: u64,
    /// Jacobian evaluations. Analytic: fused with one residual pass.
    /// Numeric: assembled from `2·n_params` sweeps, charged to
    /// `residual_evals`.
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
/// monotonically per workspace (snapshot with
/// [`SolverWorkspace::prune_stats`] and diff with [`PruneStats::since`]).
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

/// Per-scene constants of the 2-D solve, computed once and shared
/// read-only by every solve against the same `(region, config)` pair —
/// the batch engine builds one of these per scene and hands it to all
/// workers (see `crate::batch`).
///
/// [`SolveSeeds::for_scene`] additionally precomputes the per-seed
/// per-antenna slope table and the α-seed orientation/projection tables
/// for a known antenna deployment, hoisting that geometry out of the
/// per-tag loop entirely. Solves against observations whose poses differ
/// from the cached deployment (an antenna dropped by extraction, say)
/// transparently fall back to direct evaluation with bit-identical
/// results.
#[derive(Debug, Clone)]
pub struct SolveSeeds {
    /// Multi-start position grid over the working region.
    pub(crate) position_starts: Vec<Vec2>,
    /// Number of α seeds scanned per position candidate.
    pub(crate) alpha_steps: usize,
    /// Region candidates must refine into to be preferred.
    pub(crate) admissible: Region2,
    /// Precomputed per-antenna geometry tables (only with
    /// [`SolveSeeds::for_scene`]).
    pub(crate) geometry: Option<SeedGeometry>,
}

/// The hoisted per-scene geometry: everything in the stage-1/stage-2
/// seeding that depends only on `(antenna poses, seed grids)`, not on the
/// tag. Entries are computed by exactly the expressions the fallback path
/// uses, so table lookups are bit-identical to direct evaluation.
#[derive(Debug, Clone)]
pub(crate) struct SeedGeometry {
    /// The deployment the tables were built for; tables are valid only
    /// when the observations' poses match these exactly.
    pub(crate) poses: Vec<AntennaPose>,
    /// `seed_slopes[s·n + i]` = `4π·dist(Aᵢ, seedₛ)/c` — the model slope
    /// of antenna *i* for grid seed *s*.
    pub(crate) seed_slopes: Vec<f64>,
    /// `orient[a·n + i]` = `θ_orient(Aᵢ, α₀(a))` for α-seed index *a*.
    pub(crate) orient: Vec<f64>,
    /// `proj[a·n + i]` = dipole projection magnitude at antenna *i* for
    /// α-seed index *a* (feeds the RSSI mode penalty).
    pub(crate) proj: Vec<f64>,
    /// `proj_db[a·n + i]` = `20·log10(proj[a·n + i])` — the RSSI penalty's
    /// projection term, hoisted so the α scan stops paying a `log10` per
    /// antenna per α step. `proj` stays alongside it because the penalty's
    /// readability guard tests the *linear* projection.
    pub(crate) proj_db: Vec<f64>,
}

impl SeedGeometry {
    /// The tables describe `observations` only if the poses agree exactly
    /// (same antennas, same order) — extraction can drop antennas.
    pub(crate) fn matches(&self, observations: &[AntennaObservation]) -> bool {
        self.poses.len() == observations.len()
            && self.poses.iter().zip(observations).all(|(p, o)| *p == o.pose)
    }
}

impl SolveSeeds {
    /// Precomputes the multi-start seeds for `region` under `config`
    /// without geometry tables (no antenna deployment known yet); the
    /// solver evaluates seed geometry directly.
    pub fn new(region: Region2, config: &SolverConfig) -> Self {
        let (nx, ny) = config.position_starts;
        SolveSeeds {
            position_starts: region.grid(nx.max(1), ny.max(1)).collect(),
            alpha_steps: (config.orientation_starts.max(1) * 8).max(24),
            admissible: region.expanded(0.3),
            geometry: None,
        }
    }

    /// [`SolveSeeds::new`] plus the per-antenna geometry tables for a known
    /// deployment `poses` — the per-scene precomputation the pipelines and
    /// the batch engine use. Results are bit-identical to the table-free
    /// seeds; only the per-tag seeding cost changes.
    pub fn for_scene(region: Region2, config: &SolverConfig, poses: &[AntennaPose]) -> Self {
        let mut seeds = Self::new(region, config);
        let n = poses.len();
        let mut seed_slopes = Vec::with_capacity(seeds.position_starts.len() * n);
        for &seed in &seeds.position_starts {
            for pose in poses {
                let d = pose.position().distance(seed.with_z(0.0));
                seed_slopes.push(propagation::slope_from_distance(d));
            }
        }
        let mut orient = Vec::with_capacity(seeds.alpha_steps * n);
        let mut proj = Vec::with_capacity(seeds.alpha_steps * n);
        let mut proj_db = Vec::with_capacity(seeds.alpha_steps * n);
        for a in 0..seeds.alpha_steps {
            let alpha0 = std::f64::consts::PI * a as f64 / seeds.alpha_steps as f64;
            let w = planar_dipole(alpha0);
            for pose in poses {
                orient.push(orientation_phase(pose, w));
                let p = projection_magnitude(pose, w);
                proj.push(p);
                proj_db.push(20.0 * p.log10());
            }
        }
        seeds.geometry = Some(SeedGeometry {
            poses: poses.to_vec(),
            seed_slopes,
            orient,
            proj,
            proj_db,
        });
        seeds
    }

    /// Number of position seeds in the multi-start grid — the beam width
    /// (`refine_top_k`) at which pruning degenerates to the full scan.
    pub fn seed_count(&self) -> usize {
        self.position_starts.len()
    }
}

/// Reusable scratch buffers for repeated 2-D solves. All contents are
/// overwritten by each solve; reusing one workspace across calls only
/// avoids reallocation, it never changes results.
///
/// Since the lane-core refactor the parameter vectors are fixed-size
/// arrays (`[f64; 5]` joint, `[f64; 3]` slope-only) living inline in the
/// candidate lists, so no per-candidate heap storage (and no recycling
/// pool) exists at all: cold and warm solves are allocation-free once the
/// buffers are sized (pinned by the counting-allocator suite).
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// The joint 5-parameter LM engine.
    joint: LmCore<5>,
    /// The stage-1 slope-only 3-parameter LM engine.
    slope: LmCore<3>,
    /// Stage-1 refined candidates `(params, cost, seed index)`.
    position_candidates: Vec<([f64; 3], f64, usize)>,
    /// `(coarse cost, seed index, k_t seed)` ranking of the coarse-to-fine
    /// scan.
    coarse: Vec<(f64, usize, f64)>,
    /// `(α₀, b_t seed, ranking cost)` per α scan step.
    alpha_ranked: Vec<(f64, f64, f64)>,
    /// Per-antenna distances of the current stage-2 candidate.
    dists: Vec<f64>,
    /// Per-antenna `rssiᵢ + 40·log10(dᵢ)` of the current stage-2
    /// candidate — the α-independent half of the RSSI penalty, hoisted
    /// out of the α scan.
    rssi_base: Vec<f64>,
    /// Per-antenna `θ_orient` / projection rows when no geometry table
    /// applies.
    orient_row: Vec<f64>,
    proj_row: Vec<f64>,
    proj_db_row: Vec<f64>,
    /// Per-α closed-form `b_t` seeds and squared intercept residuals,
    /// cached by the first α scan of a solve. Both depend only on the
    /// observations and the α geometry — not on the position candidate —
    /// so the second and later scans of the same solve replay them
    /// instead of recomputing the circular means. Cleared at every solve
    /// entry (`alpha_bt0.is_empty()` marks the cache cold).
    alpha_bt0: Vec<f64>,
    alpha_rb2: Vec<f64>,
    /// Stage-3 refined candidates; the winner is extracted by index.
    refined: Vec<([f64; 5], f64)>,
    /// Scratch of the Gauss–Newton covariance propagation.
    uncert: UncertScratch,
    /// Pruning / warm-start effectiveness tallies.
    prune: PruneStats,
    /// Lane tallies of the coarse seed ranking (the LM cores keep their
    /// own row tallies).
    lanes: LaneStats,
}

/// Scratch buffers of [`estimate_uncertainty`]: residuals, Jacobian and
/// the normal-equation/covariance matrices, reused across solves.
#[derive(Debug, Default)]
struct UncertScratch {
    r: Vec<f64>,
    r_minus: Vec<f64>,
    work: Vec<f64>,
    jac: Vec<f64>,
    jtj: Vec<f64>,
    cov: Vec<f64>,
    e: Vec<f64>,
}

impl SolverWorkspace {
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

    /// Snapshot of the damped-step tallies — λ retries, factorization
    /// failures, cached λ-resolves — summed over both LM cores (diff with
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
    /// Multi-start orientation count over `[0, π)`.
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
    /// Jacobian mode of the LM refinements: closed-form (default) or the
    /// central-difference fallback (see [`JacobianMode`]).
    pub jacobian: JacobianMode,
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
            jacobian: JacobianMode::Analytic,
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

    /// True when the multi-start scan runs the legacy exhaustive loop
    /// (every seed refined, grid order, no early exit).
    pub(crate) fn is_exhaustive(&self) -> bool {
        self.refine_top_k.is_none() && self.early_exit_rel_tol <= 0.0
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

    pub(crate) fn params(&self) -> [f64; 5] {
        [self.position.x, self.position.y, self.orientation, self.kt, self.bt]
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
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::TooFewAntennas { provided } => write!(
                f,
                "2-D disentangling needs at least 3 antennas, got {provided}"
            ),
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
    let mut workspace = SolverWorkspace::default();
    solve_2d_seeded(observations, &seeds, config, &mut workspace)
}

/// [`solve_2d`] against precomputed [`SolveSeeds`] and a reusable
/// [`SolverWorkspace`] — the hot-path entry used by the batch engine.
/// Produces bit-identical results to [`solve_2d`] with the same inputs.
///
/// # Errors
///
/// [`SolveError::TooFewAntennas`] when fewer than 3 observations are given.
pub fn solve_2d_seeded(
    observations: &[AntennaObservation],
    seeds: &SolveSeeds,
    config: &SolverConfig,
    workspace: &mut SolverWorkspace,
) -> Result<TagEstimate2D, SolveError> {
    solve_2d_seeded_warm(observations, seeds, config, workspace, None)
}

/// [`solve_2d_seeded`] with an optional cross-round [`WarmStart`] prior.
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
/// [`SolveError::TooFewAntennas`] when fewer than 3 observations are given.
pub fn solve_2d_seeded_warm(
    observations: &[AntennaObservation],
    seeds: &SolveSeeds,
    config: &SolverConfig,
    workspace: &mut SolverWorkspace,
    warm: Option<&WarmStart>,
) -> Result<TagEstimate2D, SolveError> {
    solve_2d_gated(observations, seeds, config, workspace, warm, None)
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
/// [`SolveError::TooFewAntennas`] when fewer than 3 observations are given.
pub fn solve_2d_tracking_warm(
    observations: &[AntennaObservation],
    seeds: &SolveSeeds,
    config: &SolverConfig,
    workspace: &mut SolverWorkspace,
    warm: Option<&WarmStart>,
    gate: &mut WarmGate,
) -> Result<TagEstimate2D, SolveError> {
    solve_2d_gated(observations, seeds, config, workspace, warm, Some(gate))
}

/// Coarse ranking shared by the pruned stage-1 beam and the warm-start
/// floor: every position seed scored by its *unrefined* slope cost — an
/// O(N) table lookup per seed. Ties break towards grid order, which is
/// exactly how the exhaustive path's cost sort breaks them; the explicit
/// (cost, index) key makes the ordering total, so the unstable
/// (allocation-free) sort is deterministic.
///
/// With geometry tables the ranking evaluates 4 seeds per pass over the
/// slope table: the two per-seed accumulations (`k_t` seed mean, then the
/// cost) run in 4 independent lanes whose per-seed operation order over
/// the antennas is exactly the scalar loop's, so the lane path is
/// bit-identical to [`coarse_seed_cost_2d`]. Without tables every seed
/// takes the scalar loop.
fn rank_coarse_2d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    seeds: &SolveSeeds,
    config: &SolverConfig,
    coarse: &mut Vec<(f64, usize, f64)>,
    lanes: &mut LaneStats,
) {
    let _rank_span = obs::span("seed_rank");
    coarse.clear();
    match geometry {
        Some(g) => {
            let n = observations.len();
            let total = seeds.position_starts.len();
            let mut s = 0usize;
            while s + 4 <= total {
                let bases = [s * n, (s + 1) * n, (s + 2) * n, (s + 3) * n];
                let mut sum = [0.0f64; 4];
                for (i, o) in observations.iter().enumerate() {
                    for l in 0..4 {
                        sum[l] += o.slope - g.seed_slopes[bases[l] + i];
                    }
                }
                let kt0 = sum.map(|v| v / n as f64);
                let mut cost = [0.0f64; 4];
                for (i, o) in observations.iter().enumerate() {
                    for l in 0..4 {
                        let rs =
                            (o.slope - g.seed_slopes[bases[l] + i] - kt0[l]) / config.slope_sigma;
                        cost[l] += rs * rs;
                    }
                }
                for l in 0..4 {
                    coarse.push((cost[l], s + l, kt0[l]));
                }
                lanes.seed_blocks += 1;
                s += 4;
            }
            for (idx, &seed_pos) in seeds.position_starts.iter().enumerate().skip(s) {
                let (kt0, cost) =
                    coarse_seed_cost_2d(observations, geometry, idx, seed_pos, config);
                coarse.push((cost, idx, kt0));
                lanes.scalar_rows += 1;
            }
        }
        None => {
            for (s, &seed_pos) in seeds.position_starts.iter().enumerate() {
                let (kt0, cost) =
                    coarse_seed_cost_2d(observations, geometry, s, seed_pos, config);
                coarse.push((cost, s, kt0));
            }
            lanes.scalar_rows += seeds.position_starts.len() as u64;
        }
    }
    coarse.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
    });
}

fn solve_2d_gated(
    observations: &[AntennaObservation],
    seeds: &SolveSeeds,
    config: &SolverConfig,
    workspace: &mut SolverWorkspace,
    warm: Option<&WarmStart>,
    mut gate: Option<&mut WarmGate>,
) -> Result<TagEstimate2D, SolveError> {
    if observations.len() < 3 {
        return Err(SolveError::TooFewAntennas { provided: observations.len() });
    }
    let _solve_span = obs::span("solve_2d");
    let _solve_timer = obs::time_histogram(obs::id::SOLVE_LATENCY_US);
    let before = if obs::active() {
        Some((workspace.stats(), workspace.lane_stats(), workspace.step_stats()))
    } else {
        None
    };
    let n_obs = observations.len();
    let geometry = seeds.geometry.as_ref().filter(|g| g.matches(observations));
    let SolverWorkspace {
        joint,
        slope,
        position_candidates,
        coarse,
        alpha_ranked,
        dists,
        rssi_base,
        orient_row,
        proj_row,
        proj_db_row,
        alpha_bt0,
        alpha_rb2,
        refined,
        uncert,
        prune,
        lanes,
    } = workspace;
    position_candidates.clear();
    refined.clear();
    // The α-scan cache is keyed by the observations of *this* solve.
    alpha_bt0.clear();
    alpha_rb2.clear();

    // The problem separates naturally, which both speeds the solve up and
    // avoids local minima:
    //
    // 1. Position + k_t depend only on the slope equations — a smooth
    //    3-parameter least-squares problem seeded from a coarse grid.
    // 2. Given a position candidate, orientation is found by scanning α
    //    over [0, π) with the closed-form circular-mean b_t — the wrapped
    //    intercept residuals are multimodal in α, so a scan is the robust
    //    way in.
    // 3. A full joint 5-parameter LM refinement from the combined seeds
    //    lets the two halves inform each other.
    //
    // Candidates refining to a point outside the (slightly expanded)
    // working region are physically impossible deployments — when the
    // per-antenna observations are inconsistent (multipath bias), the
    // near-degenerate range direction otherwise lets the unconstrained
    // optimum drift metres away. Prefer in-region candidates; fall back to
    // the overall best only if no start stayed inside.
    let admissible = seeds.admissible;
    let total_seeds = seeds.position_starts.len() as u64;
    let mut seeds_refined: u64 = 0;

    // Coarse ranking (see `rank_coarse_2d`), shared by the pruned stage-1
    // beam and the warm-start floor. A tracking caller with a fresh cached
    // floor defers it: when the warm gate accepts — the steady state — the
    // ranking is never needed at all, and a gate miss ranks lazily below.
    let cached_floor = match (&gate, warm) {
        (Some(g), Some(_)) => g.cached(),
        _ => None,
    };
    coarse.clear();
    let mut coarse_ready = false;
    if cached_floor.is_none() && (warm.is_some() || !config.is_exhaustive()) {
        rank_coarse_2d(observations, geometry, seeds, config, coarse, lanes);
        coarse_ready = true;
    }

    // Warm start: refine the prior first and gate the result against the
    // coarse-scan floor — the cost the scan itself would reach from its
    // best coarse seed (stage-1 refined, best α at it). A prior still in
    // the true basin refines to a key at or below that floor; a stale
    // basin's key is far above it and falls through to the scan.
    let warm_attempted = warm.is_some();
    if let Some(w) = warm {
        let _warm_span = obs::span("warm_start");
        let (p, cost) = refine_joint_2d(joint, observations, config, w.params());
        let key = cost
            + rssi_mode_penalty(
                observations,
                Vec2::new(p[0], p[1]),
                p[2],
                config.rssi_sigma_db,
            );
        let in_region = admissible.contains(Vec2::new(p[0], p[1]));
        let gate_ok = |floor: f64| key <= floor * (1.0 + config.warm_gate_rel_tol) + 1e-9;
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
                rank_coarse_2d(observations, geometry, seeds, config, coarse, lanes);
                coarse_ready = true;
            }
            let (_, best_seed, best_kt) = coarse[0];
            let seed_pos = seeds.position_starts[best_seed];
            let (sp, _) =
                refine_slope_2d(slope, observations, config, [seed_pos.x, seed_pos.y, best_kt]);
            seeds_refined += 1;
            scan_alphas_2d(
                observations,
                geometry,
                config,
                seeds.alpha_steps,
                (sp[0], sp[1], sp[2]),
                dists,
                rssi_base,
                orient_row,
                proj_row,
                proj_db_row,
                alpha_bt0,
                alpha_rb2,
                alpha_ranked,
            );
            let floor = alpha_ranked.first().map_or(f64::INFINITY, |&(_, _, c)| c);
            if let Some(g) = gate.as_deref_mut() {
                g.anchor(floor);
            }
            accept = in_region && gate_ok(floor);
        }
        if accept {
            prune.seeds_total += total_seeds;
            prune.seeds_refined += seeds_refined;
            prune.warm_start_hits += 1;
            flush_obs_2d(joint, slope, *lanes, before, total_seeds, seeds_refined, true, false);
            let estimate = build_estimate_2d(observations, &p, cost, config, uncert);
            return Ok(estimate);
        }
        // Confirmed gate miss: the scan below recomputes the optimum from
        // scratch, so drop the cached floor and re-anchor next warm solve.
        if let Some(g) = gate {
            g.invalidate();
        }
    }

    // A deferred coarse ranking is needed after all (warm gate missed, or
    // the prior was absent) for the pruned stage-1 beam.
    if !coarse_ready && !config.is_exhaustive() {
        rank_coarse_2d(observations, geometry, seeds, config, coarse, lanes);
    }

    // Stage 1: slope-only position solve. Exhaustive mode refines every
    // grid seed (the pre-pruning behaviour, bit-for-bit); the default
    // coarse-to-fine mode refines only the top-K coarse-ranked seeds with
    // a cost-plateau early exit.
    let stage1_span = obs::span("stage1_slope");
    if config.is_exhaustive() {
        for (s, &seed_pos) in seeds.position_starts.iter().enumerate() {
            let kt0 = match geometry {
                Some(g) => {
                    let base = s * n_obs;
                    let sum: f64 = observations
                        .iter()
                        .enumerate()
                        .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                        .sum();
                    sum / n_obs as f64
                }
                None => seed_kt(observations, seed_pos),
            };
            let (p, cost) =
                refine_slope_2d(slope, observations, config, [seed_pos.x, seed_pos.y, kt0]);
            position_candidates.push((p, cost, s));
        }
        // Ties on cost keep grid (push) order via the explicit seed-index
        // key — candidates were pushed in ascending `s`, so this matches
        // what a stable cost-only sort would produce, while the unstable
        // sort stays allocation-free.
        position_candidates.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
        });
    } else {
        let beam = config.refine_top_k.unwrap_or(usize::MAX).max(1);
        let mut best_refined = f64::INFINITY;
        for (rank, &(coarse_cost, s, kt0)) in coarse.iter().enumerate() {
            if rank >= beam {
                break;
            }
            // Plateau exit: once two seeds are refined, a seed whose
            // *unrefined* cost already exceeds the best refined cost by
            // the margin cannot plausibly overtake it.
            if config.early_exit_rel_tol > 0.0
                && rank >= 2
                && coarse_cost > best_refined * (1.0 + config.early_exit_rel_tol)
            {
                break;
            }
            let seed_pos = seeds.position_starts[s];
            let (p, cost) =
                refine_slope_2d(slope, observations, config, [seed_pos.x, seed_pos.y, kt0]);
            best_refined = best_refined.min(cost);
            position_candidates.push((p, cost, s));
        }
        position_candidates.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
        });
    }
    seeds_refined += position_candidates.len() as u64;
    #[allow(clippy::drop_non_drop)] // ends the span early; inert unit guard without `obs`
    drop(stage1_span);
    // Keep the best in-region candidates by index (the overall best, at
    // index 0 after the sort, is the backup if none stayed inside).
    let mut stage1 = [0usize; 2];
    let mut stage1_len = 0usize;
    for (i, (p, _, _)) in position_candidates.iter().enumerate() {
        if admissible.contains(Vec2::new(p[0], p[1])) {
            stage1[stage1_len] = i;
            stage1_len += 1;
            if stage1_len == stage1.len() {
                break;
            }
        }
    }
    if stage1_len == 0 {
        stage1_len = 1;
    }

    // Stages 2 + 3: α scan then joint refinement. Final candidates are
    // ranked by phase cost *plus* the RSSI mode penalty: the wrapped
    // intercept system admits near-twin α solutions (3 antennas, 2
    // intercept unknowns), and the per-antenna polarization-mismatch
    // pattern in the RSSI is the physical tie-breaker.
    let mut best_inside: Option<(usize, f64)> = None;
    let mut best_any: Option<(usize, f64)> = None;
    for &ci in &stage1[..stage1_len] {
        let (cx, cy, ckt) = {
            let p = &position_candidates[ci].0;
            (p[0], p[1], p[2])
        };
        scan_alphas_2d(
            observations,
            geometry,
            config,
            seeds.alpha_steps,
            (cx, cy, ckt),
            dists,
            rssi_base,
            orient_row,
            proj_row,
            proj_db_row,
            alpha_bt0,
            alpha_rb2,
            alpha_ranked,
        );
        let _refine_span = obs::span("joint_refine");
        for (rank, &(alpha0, bt0, scan_cost)) in alpha_ranked.iter().take(4).enumerate() {
            // Plateau exit across the joint short-list — but always refine
            // at least two α modes per candidate, so the twin-α
            // disambiguation (truth vs its RSSI-implausible mirror) never
            // degenerates to a single basin.
            if config.early_exit_rel_tol > 0.0 && rank >= 2 {
                if let Some((_, k)) = best_any {
                    if scan_cost > k * (1.0 + config.early_exit_rel_tol) {
                        break;
                    }
                }
            }
            let (p, cost) =
                refine_joint_2d(joint, observations, config, [cx, cy, alpha0, ckt, bt0]);
            let key = cost
                + rssi_mode_penalty(
                    observations,
                    Vec2::new(p[0], p[1]),
                    p[2],
                    config.rssi_sigma_db,
                );
            let idx = refined.len();
            if admissible.contains(Vec2::new(p[0], p[1]))
                && best_inside.is_none_or(|(_, k)| key < k)
            {
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
    prune.seeds_total += total_seeds;
    prune.seeds_refined += seeds_refined;
    if warm_attempted {
        prune.warm_start_misses += 1;
    }
    flush_obs_2d(
        joint,
        slope,
        *lanes,
        before,
        total_seeds,
        seeds_refined,
        false,
        warm_attempted,
    );
    let estimate = build_estimate_2d(observations, &p, cost, config, uncert);
    Ok(estimate)
}

/// The cheap stage-1 score of one grid seed: the closed-form `k_t` seed
/// and the unrefined slope cost at the seed position — computed from the
/// geometry table when one applies, by exactly the expressions the
/// refinement path uses (so pruned-with-full-beam stays bit-identical to
/// exhaustive).
fn coarse_seed_cost_2d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    s: usize,
    seed_pos: Vec2,
    config: &SolverConfig,
) -> (f64, f64) {
    let n_obs = observations.len();
    let mut cost = 0.0;
    let kt0 = match geometry {
        Some(g) => {
            let base = s * n_obs;
            let sum: f64 = observations
                .iter()
                .enumerate()
                .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                .sum();
            let kt0 = sum / n_obs as f64;
            for (i, o) in observations.iter().enumerate() {
                let rs = (o.slope - g.seed_slopes[base + i] - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
        None => {
            let kt0 = seed_kt(observations, seed_pos);
            let p3 = seed_pos.with_z(0.0);
            for o in observations {
                let d = o.pose.position().distance(p3);
                let rs =
                    (o.slope - propagation::slope_from_distance(d) - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
    };
    (kt0, cost)
}

/// Stage 2 at one position candidate `(x, y, k_t)`: ranks every α seed by
/// the full cost (slope + wrapped intercept + RSSI mode penalty) and
/// leaves `alpha_ranked` sorted best-first. Everything α-independent — the
/// per-antenna distances, the slope half of the cost and the RSSI
/// penalty's `rssiᵢ + 40·log10(dᵢ)` base — is hoisted out of the scan,
/// and the projection `log10` comes from the geometry table
/// ([`SeedGeometry::proj_db`]) when one applies. Everything
/// *candidate*-independent — the per-α circular-mean `b_t` seed and the
/// squared intercept residuals — is computed once per solve and replayed
/// from `bt0_cache`/`rb2_cache` on later scans. The hoisted penalty
/// groups the dB terms exactly as the original left-associative
/// expression and the replayed residuals re-sum in push order, so the
/// scan stays bit-identical to the frozen reference.
#[allow(clippy::too_many_arguments)]
fn scan_alphas_2d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    config: &SolverConfig,
    alpha_steps: usize,
    candidate: (f64, f64, f64),
    dists: &mut Vec<f64>,
    rssi_base: &mut Vec<f64>,
    orient_row: &mut Vec<f64>,
    proj_row: &mut Vec<f64>,
    proj_db_row: &mut Vec<f64>,
    bt0_cache: &mut Vec<f64>,
    rb2_cache: &mut Vec<f64>,
    alpha_ranked: &mut Vec<(f64, f64, f64)>,
) {
    let n_obs = observations.len();
    let (cx, cy, ckt) = candidate;
    let cand_pos = Vec2::new(cx, cy).with_z(0.0);
    dists.clear();
    let mut slope_cost = 0.0;
    for o in observations {
        let d = o.pose.position().distance(cand_pos);
        let rs = (o.slope - propagation::slope_from_distance(d) - ckt) / config.slope_sigma;
        slope_cost += rs * rs;
        dists.push(d);
    }
    // The α-independent half of the RSSI penalty. Entries for unreadable
    // distances may be NaN/−∞, but the penalty's guards return before
    // reading them — exactly as the unhoisted kernel returned before
    // computing the term at all.
    let rssi_active = config.rssi_sigma_db.is_finite() && config.rssi_sigma_db > 0.0;
    rssi_base.clear();
    if rssi_active {
        for (o, &d) in observations.iter().zip(dists.iter()) {
            rssi_base.push(o.mean_rssi_dbm + 40.0 * d.log10());
        }
    }
    // Rank α seeds by full cost at this position; spurious twin-α basins
    // often fit the phases *better* than the true mode under noise, so the
    // RSSI mode penalty is applied already in the ranking — otherwise they
    // crowd truth out of the refinement short-list entirely.
    alpha_ranked.clear();
    let _alpha_span = obs::span("alpha_scan");
    let cached = !bt0_cache.is_empty();
    for a in 0..alpha_steps {
        let alpha0 = std::f64::consts::PI * a as f64 / alpha_steps as f64;
        if !cached {
            // First scan of the solve: compute the closed-form b_t seed
            // (circular mean of `bᵢ − θ_orient`) and the squared
            // intercept residuals, and stash both for replay.
            let orow: &[f64] = match geometry {
                Some(g) => &g.orient[a * n_obs..(a + 1) * n_obs],
                None => {
                    let w = planar_dipole(alpha0);
                    orient_row.clear();
                    for o in observations {
                        orient_row.push(orientation_phase(&o.pose, w));
                    }
                    orient_row.as_slice()
                }
            };
            let bt0 = angle::circular_mean(
                observations.iter().zip(orow).map(|(o, &th)| o.intercept - th),
            )
            .unwrap_or(0.0);
            bt0_cache.push(bt0);
            for (o, &th) in observations.iter().zip(orow) {
                let rb = angle::wrap_pi(o.intercept - th - bt0) / config.intercept_sigma;
                rb2_cache.push(rb * rb);
            }
        }
        let bt0 = bt0_cache[a];
        // Replaying the squared residuals in push order re-associates the
        // sum exactly as the uncached expression did — bit-identical on
        // the first scan and every replay.
        let mut cost = slope_cost;
        for &rb2 in &rb2_cache[a * n_obs..(a + 1) * n_obs] {
            cost += rb2;
        }
        if rssi_active {
            let (prow, pdbrow): (&[f64], &[f64]) = match geometry {
                Some(g) => (
                    &g.proj[a * n_obs..(a + 1) * n_obs],
                    &g.proj_db[a * n_obs..(a + 1) * n_obs],
                ),
                None => {
                    let w = planar_dipole(alpha0);
                    proj_row.clear();
                    proj_db_row.clear();
                    for o in observations {
                        let p = projection_magnitude(&o.pose, w);
                        proj_row.push(p);
                        proj_db_row.push(20.0 * p.log10());
                    }
                    (proj_row.as_slice(), proj_db_row.as_slice())
                }
            };
            cost += rssi_penalty_hoisted(
                observations,
                rssi_base,
                dists,
                prow,
                pdbrow,
                config.rssi_sigma_db,
            );
        }
        alpha_ranked.push((alpha0, bt0, cost));
    }
    // α seeds were pushed in strictly ascending α, so breaking cost ties
    // on α reproduces the stable push order while keeping the unstable
    // sort allocation-free.
    alpha_ranked.sort_unstable_by(|a, b| {
        a.2.partial_cmp(&b.2).expect("finite costs").then_with(|| {
            a.0.partial_cmp(&b.0).expect("finite alphas")
        })
    });
}

/// Final-estimate assembly shared by the warm-start fast path and the
/// full scan: uncertainty propagation plus canonical wrapping of the
/// angular parameters.
fn build_estimate_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    cost: f64,
    config: &SolverConfig,
    scratch: &mut UncertScratch,
) -> TagEstimate2D {
    let n_res = 2 * observations.len();
    let (position_std_m, orientation_std_rad, position_cov) =
        estimate_uncertainty(observations, p, config, scratch);
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

/// Per-solve counter flush of the 2-D solve (active only when the obs
/// layer is recording; `before` is `None` otherwise).
#[allow(clippy::too_many_arguments)]
fn flush_obs_2d(
    joint: &LmCore<5>,
    slope: &LmCore<3>,
    rank_lanes: LaneStats,
    before: Option<(SolveStats, LaneStats, StepStats)>,
    seeds_total: u64,
    seeds_refined: u64,
    warm_hit: bool,
    warm_miss: bool,
) {
    let Some((stats_before, lanes_before, steps_before)) = before else { return };
    let j = joint.stats();
    let s = slope.stats();
    let work = SolveStats {
        residual_evals: j.residual_evals + s.residual_evals,
        jacobian_evals: j.jacobian_evals + s.jacobian_evals,
        iterations: j.iterations + s.iterations,
    }
    .since(stats_before);
    let lane_work = rank_lanes
        .merged(joint.lane_stats())
        .merged(slope.lane_stats())
        .since(lanes_before);
    let step_work = joint.step_stats().merged(slope.step_stats()).since(steps_before);
    obs::counter_add(obs::id::SOLVER2D_SOLVES, 1);
    obs::counter_add(obs::id::SOLVER2D_ITERATIONS, work.iterations);
    obs::counter_add(obs::id::SOLVER2D_RESIDUAL_EVALS, work.residual_evals);
    obs::counter_add(obs::id::SOLVER2D_JACOBIAN_EVALS, work.jacobian_evals);
    obs::counter_add(obs::id::SOLVER_SEEDS_TOTAL, seeds_total);
    obs::counter_add(obs::id::SOLVER_SEEDS_REFINED, seeds_refined);
    obs::counter_add(
        obs::id::SOLVER_SEEDS_PRUNED,
        seeds_total.saturating_sub(seeds_refined),
    );
    obs::counter_add(obs::id::SOLVER_LANE_SEED_BLOCKS, lane_work.seed_blocks);
    obs::counter_add(obs::id::SOLVER_LANE_ROW_BLOCKS, lane_work.row_blocks);
    obs::counter_add(obs::id::SOLVER_LANE_SCALAR_ROWS, lane_work.scalar_rows);
    obs::counter_add(obs::id::SOLVER_LAMBDA_RETRIES, step_work.lambda_retries);
    obs::counter_add(obs::id::SOLVER_CHOL_FAILURES, step_work.chol_failures);
    if warm_hit {
        obs::counter_add(obs::id::SOLVER_WARM_HITS, 1);
    }
    if warm_miss {
        obs::counter_add(obs::id::SOLVER_WARM_MISSES, 1);
    }
}

/// Finite-difference steps of the numeric-fallback joint solve:
/// x (m), y (m), α (rad), k_t (rad/Hz), b_t (rad).
const JOINT_STEPS_2D: [f64; 5] = [1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
/// Steps of the numeric-fallback slope-only (stage-1) solve: x, y, k_t.
const SLOPE_STEPS_2D: [f64; 3] = [1e-4, 1e-4, 1e-13];

/// The joint 5-parameter disentangling problem as a [`ResidualModel`]:
/// Eq. 6's slope + wrapped-intercept residuals with the fused analytic
/// Jacobian of [`residuals_and_jacobian_2d`].
struct Joint2<'a> {
    observations: &'a [AntennaObservation],
    config: &'a SolverConfig,
}

impl ResidualModel<5> for Joint2<'_> {
    fn eval(&self, p: &[f64; 5], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        residuals_and_jacobian_2d(self.observations, p, self.config, r, jac);
    }
}

/// The stage-1 slope-only `(x, y, k_t)` problem as a [`ResidualModel`].
struct Slope2<'a> {
    observations: &'a [AntennaObservation],
    config: &'a SolverConfig,
}

impl ResidualModel<3> for Slope2<'_> {
    fn eval(&self, p: &[f64; 3], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        slope_residuals_and_jacobian_2d(self.observations, p, self.config, r, jac);
    }
}

/// Joint 5-parameter LM refinement through the dimension-generic core,
/// dispatched on the configured [`JacobianMode`].
fn refine_joint_2d(
    core: &mut LmCore<5>,
    observations: &[AntennaObservation],
    config: &SolverConfig,
    p0: [f64; 5],
) -> ([f64; 5], f64) {
    let model = Joint2 { observations, config };
    match config.jacobian {
        JacobianMode::Analytic => {
            core.refine(&model, p0, config.max_iterations, config.tolerance)
        }
        JacobianMode::Numeric => core.refine_numeric(
            &model,
            p0,
            &JOINT_STEPS_2D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Stage-1 slope-only LM refinement over `(x, y, k_t)` through the
/// dimension-generic core, dispatched on the configured [`JacobianMode`].
fn refine_slope_2d(
    core: &mut LmCore<3>,
    observations: &[AntennaObservation],
    config: &SolverConfig,
    p0: [f64; 3],
) -> ([f64; 3], f64) {
    let model = Slope2 { observations, config };
    match config.jacobian {
        JacobianMode::Analytic => {
            core.refine(&model, p0, config.max_iterations, config.tolerance)
        }
        JacobianMode::Numeric => core.refine_numeric(
            &model,
            p0,
            &SLOPE_STEPS_2D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Gauss–Newton covariance at the solution: `(JᵀJ)⁻¹` of the
/// sigma-normalized residuals, with the Jacobian evaluated per the
/// configured [`JacobianMode`]. `JᵀJ` is factored by Cholesky **once**
/// and each covariance column obtained by back-substituting one unit
/// right-hand side. Returns `(position σ, orientation σ, position 2×2
/// covariance)`; infinities when the curvature is singular.
// Index loops mirror the matrix math; iterator forms obscure the kernels.
#[allow(clippy::needless_range_loop)]
fn estimate_uncertainty(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &SolverConfig,
    scratch: &mut UncertScratch,
) -> (f64, f64, [[f64; 2]; 2]) {
    let n = p.len();
    let UncertScratch { r, r_minus, work, jac, jtj, cov, e } = scratch;
    jac.clear();
    match config.jacobian {
        JacobianMode::Analytic => {
            residuals_and_jacobian_2d(observations, p, config, r, Some(jac));
        }
        JacobianMode::Numeric => {
            // Central differences with the same steps as the numeric core.
            residuals_2d(observations, p, config, r);
            let m = r.len();
            jac.resize(m * n, 0.0);
            work.clear();
            work.extend_from_slice(p);
            for j in 0..n {
                let h = JOINT_STEPS_2D[j];
                work[j] = p[j] + h;
                residuals_2d(observations, work, config, r);
                work[j] = p[j] - h;
                residuals_2d(observations, work, config, r_minus);
                work[j] = p[j];
                for i in 0..m {
                    jac[i * n + j] = (r[i] - r_minus[i]) / (2.0 * h);
                }
            }
        }
    }
    let m = jac.len() / n;
    jtj.clear();
    jtj.resize(n * n, 0.0);
    for i in 0..m {
        let row = &jac[i * n..(i + 1) * n];
        for a in 0..n {
            for b in a..n {
                jtj[a * n + b] += row[a] * row[b];
            }
        }
    }
    for a in 0..n {
        for b in 0..a {
            jtj[a * n + b] = jtj[b * n + a];
        }
    }
    let singular = (f64::INFINITY, f64::INFINITY, [[f64::INFINITY; 2]; 2]);
    // Factor once; every covariance column is one pair of triangular
    // substitutions against a unit right-hand side.
    if !cholesky_factor(jtj, n) {
        return singular;
    }
    cov.clear();
    cov.resize(n * n, 0.0);
    e.clear();
    e.resize(n, 0.0);
    for col in 0..n {
        e.fill(0.0);
        e[col] = 1.0;
        cholesky_solve(jtj, n, e);
        if !(e[col].is_finite() && e[col] >= 0.0) {
            return singular;
        }
        cov[col * n..(col + 1) * n].copy_from_slice(e);
    }
    let position_cov = [[cov[0], cov[n]], [cov[1], cov[n + 1]]];
    let position_std = (cov[0] + cov[n + 1]).sqrt();
    let orientation_std = cov[2 * n + 2].sqrt();
    (position_std, orientation_std, position_cov)
}

/// Mean `kᵢ − 4π dᵢ(pos)/c` over antennas — the closed-form `k_t` seed for
/// a hypothesised position.
fn seed_kt(observations: &[AntennaObservation], pos: Vec2) -> f64 {
    let sum: f64 = observations
        .iter()
        .map(|o| {
            let d = o.pose.position().distance(pos.with_z(0.0));
            o.slope - propagation::slope_from_distance(d)
        })
        .sum();
    sum / observations.len() as f64
}

/// RSSI-consistency penalty of a candidate mode `(pos, α)`: the weighted
/// variance of `rssiᵢ + 40·log10(dᵢ) − 20·log10(pᵢ(α))` across antennas.
///
/// The backscatter link budget (`rfp_phys::rssi`) says that quantity is a
/// per-tag constant (transmit power + material loss) plus noise, so modes
/// whose predicted polarization projections `pᵢ(α)` disagree with the
/// measured RSSI pattern score high. Returns 0 when disabled
/// (`sigma_db = ∞`) or when any observation lacks a finite RSSI.
pub(crate) fn rssi_mode_penalty(
    observations: &[AntennaObservation],
    pos: Vec2,
    alpha: f64,
    sigma_db: f64,
) -> f64 {
    if !sigma_db.is_finite() || sigma_db <= 0.0 {
        return 0.0;
    }
    let w = planar_dipole(alpha);
    rssi_pattern_penalty(
        observations,
        |o| {
            let d = o.pose.position().distance(pos.with_z(0.0));
            (d, projection_magnitude(&o.pose, w))
        },
        sigma_db,
    )
}

/// Shared core of the 2-D and 3-D RSSI mode penalties: `predict` returns
/// each observation's `(distance, projection magnitude)` under the
/// candidate mode.
pub(crate) fn rssi_pattern_penalty<F>(
    observations: &[AntennaObservation],
    predict: F,
    sigma_db: f64,
) -> f64
where
    F: Fn(&AntennaObservation) -> (f64, f64),
{
    rssi_penalty_core(
        observations.iter().map(|o| {
            let (d, proj) = predict(o);
            (o.mean_rssi_dbm, d, proj)
        }),
        sigma_db,
    )
}

/// The RSSI mode penalty with both dB terms precomputed: `rssi_base[i]` =
/// `rssiᵢ + 40·log10(dᵢ)` (hoisted out of the α scan) and `proj_dbs[i]` =
/// `20·log10(projs[i])` (a geometry-table lookup). The caller has already
/// checked `sigma_db` is active. Guard order and the grouping of the dB
/// sum match [`rssi_penalty_core`]'s left-associative
/// `rssi + 40·log10(d) − 20·log10(proj)` exactly, so the hoisted form is
/// bit-identical — `rssi_base`/`proj_dbs` entries behind a triggered
/// guard are never read.
pub(crate) fn rssi_penalty_hoisted(
    observations: &[AntennaObservation],
    rssi_base: &[f64],
    dists: &[f64],
    projs: &[f64],
    proj_dbs: &[f64],
    sigma_db: f64,
) -> f64 {
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut n = 0usize;
    for (i, o) in observations.iter().enumerate() {
        if !o.mean_rssi_dbm.is_finite() {
            return 0.0;
        }
        if projs[i] < 1e-3 || dists[i] <= 0.0 {
            // The mode predicts an unreadable antenna that in fact read the
            // tag: strongly implausible.
            return 1e6;
        }
        let m = rssi_base[i] - proj_dbs[i];
        sum += m;
        sum_sq += m * m;
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    let variance = (sum_sq - sum * sum / n as f64).max(0.0);
    variance / (sigma_db * sigma_db)
}

/// The penalty kernel over `(rssi dBm, distance, projection)` triples; see
/// [`rssi_mode_penalty`] for the physics.
fn rssi_penalty_core<I>(items: I, sigma_db: f64) -> f64
where
    I: Iterator<Item = (f64, f64, f64)>,
{
    if !sigma_db.is_finite() || sigma_db <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut n = 0usize;
    for (rssi, d, proj) in items {
        if !rssi.is_finite() {
            return 0.0;
        }
        if proj < 1e-3 || d <= 0.0 {
            // The mode predicts an unreadable antenna that in fact read the
            // tag: strongly implausible.
            return 1e6;
        }
        let m = rssi + 40.0 * d.log10() - 20.0 * proj.log10();
        sum += m;
        sum_sq += m * m;
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    let variance = (sum_sq - sum * sum / n as f64).max(0.0);
    variance / (sigma_db * sigma_db)
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

/// In-place Cholesky factorization `A = LLᵀ` of the flat row-major `n × n`
/// symmetric matrix in `a`; on success the lower triangle holds `L` (the
/// strict upper triangle is left untouched). Returns `false` when the
/// matrix is not (numerically) positive definite.
#[allow(clippy::needless_range_loop)]
fn cholesky_factor(a: &mut [f64], n: usize) -> bool {
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if !s.is_finite() || s < 1e-300 {
                    return false;
                }
                a[i * n + i] = s.sqrt();
            } else {
                a[i * n + j] = s / a[j * n + j];
            }
        }
    }
    true
}

/// Solves `LLᵀ x = b` in place (forward then back substitution) against a
/// factor produced by [`cholesky_factor`].
fn cholesky_solve(l: &[f64], n: usize, b: &mut [f64]) {
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * b[k];
        }
        b[i] = s / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * b[k];
        }
        b[i] = s / l[i * n + i];
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
    fn cholesky_round_trip() {
        // SPD 3×3: factor, solve, and check A·x = b.
        let a = [4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0];
        let b = [1.0, -2.0, 0.5];
        let mut l = a;
        assert!(cholesky_factor(&mut l, 3));
        let mut x = b;
        cholesky_solve(&l, 3, &mut x);
        for i in 0..3 {
            let ax: f64 = (0..3).map(|j| a[i * 3 + j] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-12, "row {i}: {ax} vs {}", b[i]);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = [1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, −1
        assert!(!cholesky_factor(&mut a, 2));
        let mut z = [0.0, 0.0, 0.0, 0.0]; // singular
        assert!(!cholesky_factor(&mut z, 2));
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
        let n = 5;
        let m = r.len();
        let mut r_plus = Vec::new();
        let mut r_minus = Vec::new();
        let mut work = p.to_vec();
        for j in 0..n {
            let h = JOINT_STEPS_2D[j];
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
    fn numeric_fallback_converges_to_analytic_result() {
        let poses = Scene::standard_2d().antenna_poses();
        let truth_pos = Vec2::new(0.7, 1.9);
        let obs = synthetic_observations(&poses, (truth_pos, 1.1, -2.0e-8, 2.4));
        let analytic = solve_2d(&obs, region(), &SolverConfig::default()).unwrap();
        let numeric_cfg =
            SolverConfig { jacobian: JacobianMode::Numeric, ..SolverConfig::default() };
        let numeric = solve_2d(&obs, region(), &numeric_cfg).unwrap();
        // On a clean synthetic scene both modes must land on the same
        // optimum — the exact truth — to well below a nanometre.
        assert!(analytic.position.distance(numeric.position) < 1e-9);
        assert!((analytic.orientation - numeric.orientation).abs() < 1e-9);
        assert!((analytic.kt - numeric.kt).abs() < 1e-15);
        assert!(angle::distance(analytic.bt, numeric.bt) < 1e-9);
        assert!(analytic.position.distance(truth_pos) < 1e-9);
        assert!(numeric.position.distance(truth_pos) < 1e-9);
    }

    #[test]
    fn analytic_path_needs_far_fewer_residual_evaluations() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.5, 1.5), 0.6, -1e-8, 1.0));
        let config = SolverConfig::default();
        let seeds = SolveSeeds::for_scene(region(), &config, &poses);
        let mut ws = SolverWorkspace::default();
        solve_2d_seeded(&obs, &seeds, &config, &mut ws).unwrap();
        let analytic = ws.stats();
        let numeric_cfg =
            SolverConfig { jacobian: JacobianMode::Numeric, ..SolverConfig::default() };
        solve_2d_seeded(&obs, &seeds, &numeric_cfg, &mut ws).unwrap();
        let numeric = ws.stats().since(analytic);
        assert!(analytic.residual_evals > 0 && numeric.residual_evals > 0);
        assert!(
            analytic.residual_evals * 2 <= numeric.residual_evals,
            "analytic {} evals vs numeric {}",
            analytic.residual_evals,
            numeric.residual_evals
        );
    }

    #[test]
    fn seed_geometry_is_bit_identical_to_direct_evaluation() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.8, 1.2), 1.3, -3e-8, 0.4));
        let config = SolverConfig::default();
        let plain = SolveSeeds::new(region(), &config);
        let with_geo = SolveSeeds::for_scene(region(), &config, &poses);
        let mut ws_a = SolverWorkspace::default();
        let mut ws_b = SolverWorkspace::default();
        let a = solve_2d_seeded(&obs, &plain, &config, &mut ws_a).unwrap();
        let b = solve_2d_seeded(&obs, &with_geo, &config, &mut ws_b).unwrap();
        assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
        assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
        assert_eq!(a.orientation.to_bits(), b.orientation.to_bits());
        assert_eq!(a.kt.to_bits(), b.kt.to_bits());
        assert_eq!(a.bt.to_bits(), b.bt.to_bits());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn stage2_tables_match_seed_bt() {
        // The hoisted α-scan's closed-form b_t (computed from the orient
        // row) must equal the classic per-α `seed_bt`.
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.4, 1.8), 0.35, 0.0, 1.9));
        for a in 0..24 {
            let alpha0 = std::f64::consts::PI * a as f64 / 24.0;
            let w = planar_dipole(alpha0);
            let row: Vec<f64> =
                obs.iter().map(|o| orientation_phase(&o.pose, w)).collect();
            let bt_row = angle::circular_mean(
                obs.iter().zip(&row).map(|(o, &th)| o.intercept - th),
            )
            .unwrap_or(0.0);
            assert_eq!(bt_row.to_bits(), seed_bt(&obs, alpha0).to_bits());
        }
    }

    #[test]
    fn exhaustive_config_refines_every_seed() {
        let poses = Scene::standard_2d().antenna_poses();
        let obs = synthetic_observations(&poses, (Vec2::new(0.5, 1.5), 0.6, -1e-8, 1.0));
        let config = SolverConfig::exhaustive();
        let seeds = SolveSeeds::for_scene(region(), &config, &poses);
        let mut ws = SolverWorkspace::default();
        solve_2d_seeded(&obs, &seeds, &config, &mut ws).unwrap();
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
        let pruned = solve_2d_seeded(&obs, &seeds, &config, &mut ws).unwrap();
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
        let cold = solve_2d_seeded(&obs, &seeds, &config, &mut ws).unwrap();
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
        let cold = solve_2d_seeded(&obs, &seeds, &config, &mut ws).unwrap();
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
