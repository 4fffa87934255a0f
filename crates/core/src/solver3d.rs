//! 3-D disentangling (paper §VII future work).
//!
//! "One of them is to perform the system in 3D space, which is totally
//! feasible as long as increasing the number of antenna to 4." — with four
//! antennas there are 8 fitted parameters against 7 unknowns: position
//! `(x, y, z)`, the dipole direction (two angles — a dipole is an axis, so
//! a point on the half-sphere), and the material terms `(k_t, b_t)`.
//!
//! The machinery is the 2-D solver's: sigma-weighted residuals, wrapped
//! intercepts, multi-start + Levenberg–Marquardt with the analytic
//! Jacobian of DESIGN.md §6 (spherical-angle dipole parameterization) and
//! the same numeric fallback knob.
//!
//! Like the 2-D solver, this module is a thin facade over the
//! dimension-generic [`LmCore`]: the joint 7-parameter
//! and stage-1 4-parameter problems are [`ResidualModel`] implementations
//! refined by `LmCore<7>` / `LmCore<4>`, the residual kernels run 4-wide
//! antenna-row lanes, and the pre-refactor solver is frozen verbatim in
//! [`crate::reference`] as the bit-identity oracle.

use crate::lm::{LaneStats, LmCore, ResidualModel, StepStats};
use crate::model::AntennaObservation;
use crate::obs;
use crate::solver::{
    rssi_pattern_penalty, rssi_penalty_hoisted, JacobianMode, PruneStats, SolveStats,
};
use rfp_geom::{angle, AntennaPose, Region2, Vec3};
use rfp_phys::polarization::{orientation_phase, projection_magnitude};
use rfp_phys::propagation;

/// Configuration for [`solve_3d`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Solver3DConfig {
    /// Expected slope noise (rad/Hz).
    pub slope_sigma: f64,
    /// Expected intercept noise (rad).
    pub intercept_sigma: f64,
    /// Multi-start grid over (x, y).
    pub position_starts: (usize, usize),
    /// Multi-start levels over z within `z_range`.
    pub z_starts: usize,
    /// Multi-start dipole directions.
    pub dipole_starts: usize,
    /// Maximum LM iterations per start.
    pub max_iterations: usize,
    /// Relative cost tolerance.
    pub tolerance: f64,
    /// Expected RSSI noise (dB) for ranking candidate modes by
    /// polarization-mismatch consistency (see
    /// [`SolverConfig::rssi_sigma_db`](crate::solver::SolverConfig)).
    /// `f64::INFINITY` disables the penalty.
    pub rssi_sigma_db: f64,
    /// Jacobian mode of the LM refinements: closed-form (default) or the
    /// central-difference fallback (see [`JacobianMode`]).
    pub jacobian: JacobianMode,
    /// Stage-1 beam width of the coarse-to-fine scan (see
    /// [`SolverConfig::refine_top_k`](crate::solver::SolverConfig)); `None`
    /// refines every `(x, y, z)` seed.
    pub refine_top_k: Option<usize>,
    /// Cost-plateau early exit across the seed beam and the joint
    /// short-list; `0` disables it (see
    /// [`SolverConfig::early_exit_rel_tol`](crate::solver::SolverConfig)).
    pub early_exit_rel_tol: f64,
    /// Warm-start validation gate tolerance against the coarse-scan floor
    /// (see
    /// [`SolverConfig::warm_gate_rel_tol`](crate::solver::SolverConfig)).
    pub warm_gate_rel_tol: f64,
}

impl Default for Solver3DConfig {
    fn default() -> Self {
        Solver3DConfig {
            slope_sigma: 1.0e-10,
            intercept_sigma: 0.08,
            position_starts: (5, 5),
            z_starts: 3,
            dipole_starts: 6,
            max_iterations: 80,
            tolerance: 1e-10,
            rssi_sigma_db: 1.0,
            jacobian: JacobianMode::Analytic,
            refine_top_k: Some(16),
            early_exit_rel_tol: 0.5,
            warm_gate_rel_tol: 0.25,
        }
    }
}

impl Solver3DConfig {
    /// The exhaustive escape hatch: refine every multi-start seed with no
    /// early exit, reproducing the pre-pruning solver bit-for-bit.
    #[must_use]
    pub fn exhaustive() -> Self {
        Solver3DConfig {
            refine_top_k: None,
            early_exit_rel_tol: 0.0,
            ..Solver3DConfig::default()
        }
    }

    /// True when the multi-start scan runs the legacy exhaustive loop.
    pub(crate) fn is_exhaustive(&self) -> bool {
        self.refine_top_k.is_none() && self.early_exit_rel_tol <= 0.0
    }
}

/// A cross-round warm-start prior for the 3-D solve: the previous round's
/// disentangled 7-parameter state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStart3D {
    /// Predicted tag position, metres.
    pub position: Vec3,
    /// Previous dipole axis (need not be normalized; `z ≥ 0` canonical
    /// form is fine — dipoles are π-symmetric).
    pub dipole: Vec3,
    /// Previous material slope term `k_t`, rad/Hz.
    pub kt: f64,
    /// Previous material intercept term `b_t`, radians.
    pub bt: f64,
}

impl WarmStart3D {
    /// The warm start implied by a previous round's estimate.
    pub fn from_estimate(estimate: &TagEstimate3D) -> Self {
        WarmStart3D {
            position: estimate.position,
            dipole: estimate.dipole,
            kt: estimate.kt,
            bt: estimate.bt,
        }
    }

    /// Replaces the position prediction while keeping the slow-moving
    /// dipole axis and material terms.
    #[must_use]
    pub fn with_position(mut self, position: Vec3) -> Self {
        self.position = position;
        self
    }

    pub(crate) fn params(&self) -> [f64; 7] {
        let w = self.dipole.normalized();
        let theta = w.z.clamp(-1.0, 1.0).acos();
        let phi = w.y.atan2(w.x);
        [self.position.x, self.position.y, self.position.z, theta, phi, self.kt, self.bt]
    }
}

/// Per-scene constants of the 3-D solve (multi-start seeds + admissible
/// volume), computed once per `(region, z_range, config)` and shared
/// read-only across solves — the 3-D analogue of
/// [`SolveSeeds`](crate::solver::SolveSeeds).
///
/// [`Solve3DSeeds::for_scene`] additionally hoists the per-seed
/// per-antenna slope table and the dipole-scan orientation/projection
/// tables for a known antenna deployment out of the per-tag loop; solves
/// against observations whose poses differ fall back transparently with
/// bit-identical results.
#[derive(Debug, Clone)]
pub struct Solve3DSeeds {
    /// Multi-start positions: (x, y) grid × z levels, in grid-major order.
    pub(crate) position_starts: Vec<Vec3>,
    /// Polar ring count of the dipole half-sphere scan.
    pub(crate) rings: usize,
    /// Horizontal region candidates must refine into to be preferred.
    pub(crate) admissible_xy: Region2,
    /// Expanded vertical bounds of the admissible volume.
    pub(crate) z_bounds: (f64, f64),
    /// Precomputed per-antenna geometry tables (only with
    /// [`Solve3DSeeds::for_scene`]).
    pub(crate) geometry: Option<SeedGeometry3D>,
}

/// The hoisted per-scene geometry of the 3-D seeding, built with exactly
/// the expressions the fallback path uses (bit-identical lookups).
#[derive(Debug, Clone)]
pub(crate) struct SeedGeometry3D {
    /// The deployment the tables were built for.
    pub(crate) poses: Vec<AntennaPose>,
    /// `seed_slopes[s·n + i]` = model slope of antenna *i* at grid seed *s*.
    pub(crate) seed_slopes: Vec<f64>,
    /// `orient[dir·n + i]` = `θ_orient(Aᵢ, w(θ, φ))` for dipole-scan
    /// direction index `dir = ti·2·rings + pi`.
    pub(crate) orient: Vec<f64>,
    /// `proj[dir·n + i]` = dipole projection magnitude (RSSI penalty).
    pub(crate) proj: Vec<f64>,
    /// `proj_db[dir·n + i]` = `20·log10(proj[dir·n + i])` — the hoisted dB
    /// half of the RSSI penalty.
    pub(crate) proj_db: Vec<f64>,
}

impl SeedGeometry3D {
    pub(crate) fn matches(&self, observations: &[AntennaObservation]) -> bool {
        self.poses.len() == observations.len()
            && self.poses.iter().zip(observations).all(|(p, o)| *p == o.pose)
    }
}

impl Solve3DSeeds {
    /// Precomputes the multi-start seeds for the `region × z_range` box
    /// without geometry tables (no antenna deployment known yet).
    pub fn new(region: Region2, z_range: (f64, f64), config: &Solver3DConfig) -> Self {
        let (nx, ny) = config.position_starts;
        let (z_lo, z_hi) = z_range;
        let z_starts = config.z_starts.max(1);
        let mut position_starts =
            Vec::with_capacity(nx.max(1) * ny.max(1) * z_starts);
        for seed_pos in region.grid(nx.max(1), ny.max(1)) {
            for zi in 0..z_starts {
                let z = z_lo + (z_hi - z_lo) * (zi as f64 + 0.5) / z_starts as f64;
                position_starts.push(seed_pos.with_z(z));
            }
        }
        Solve3DSeeds {
            position_starts,
            rings: config.dipole_starts.max(3),
            admissible_xy: region.expanded(0.3),
            z_bounds: (z_lo - 0.3, z_hi + 0.3),
            geometry: None,
        }
    }

    /// [`Solve3DSeeds::new`] plus the per-antenna geometry tables for a
    /// known deployment `poses` — the per-scene precomputation the 3-D
    /// pipeline and the batch engine use.
    pub fn for_scene(
        region: Region2,
        z_range: (f64, f64),
        config: &Solver3DConfig,
        poses: &[AntennaPose],
    ) -> Self {
        let mut seeds = Self::new(region, z_range, config);
        let n = poses.len();
        let mut seed_slopes = Vec::with_capacity(seeds.position_starts.len() * n);
        for &seed in &seeds.position_starts {
            for pose in poses {
                let d = pose.position().distance(seed);
                seed_slopes.push(propagation::slope_from_distance(d));
            }
        }
        let rings = seeds.rings;
        let mut orient = Vec::with_capacity(rings * 2 * rings * n);
        let mut proj = Vec::with_capacity(rings * 2 * rings * n);
        let mut proj_db = Vec::with_capacity(rings * 2 * rings * n);
        for ti in 0..rings {
            let theta = std::f64::consts::FRAC_PI_2 * (ti as f64 + 0.5) / rings as f64;
            for pi in 0..(2 * rings) {
                let phi = std::f64::consts::TAU * pi as f64 / (2 * rings) as f64;
                let w = dipole_from_angles(theta, phi);
                for pose in poses {
                    orient.push(orientation_phase(pose, w));
                    let p = projection_magnitude(pose, w);
                    proj.push(p);
                    proj_db.push(20.0 * p.log10());
                }
            }
        }
        seeds.geometry = Some(SeedGeometry3D {
            poses: poses.to_vec(),
            seed_slopes,
            orient,
            proj,
            proj_db,
        });
        seeds
    }
}

/// Reusable scratch buffers for repeated 3-D solves; contents are fully
/// overwritten by each solve, so reuse never changes results.
#[derive(Debug, Default)]
pub struct Solver3DWorkspace {
    /// Joint 7-parameter LM core.
    joint: LmCore<7>,
    /// Stage-1 slope-only 4-parameter LM core.
    slope: LmCore<4>,
    /// Stage-1 refined candidates `(params, cost, seed index)`.
    position_candidates: Vec<([f64; 4], f64, usize)>,
    /// `(coarse cost, seed index, k_t seed)` ranking of the coarse-to-fine
    /// scan.
    coarse: Vec<(f64, usize, f64)>,
    /// `(θ, φ, b_t seed, ranking cost)` per dipole scan direction.
    dipole_ranked: Vec<(f64, f64, f64, f64)>,
    /// Per-antenna distances of the current stage-2 candidate.
    dists: Vec<f64>,
    /// Per-antenna `rssiᵢ + 40·log10(dᵢ)` — the direction-independent half
    /// of the RSSI penalty, hoisted out of the dipole scan.
    rssi_base: Vec<f64>,
    /// Per-antenna `θ_orient` / projection rows when no geometry table
    /// applies.
    orient_row: Vec<f64>,
    proj_row: Vec<f64>,
    proj_db_row: Vec<f64>,
    /// Stage-3 refined candidates; the winner is extracted by index.
    refined: Vec<([f64; 7], f64)>,
    /// Pruning / warm-start effectiveness tallies.
    prune: PruneStats,
    /// Lane tallies of the coarse seed ranking (the LM cores keep their
    /// own row tallies).
    lanes: LaneStats,
}

impl Solver3DWorkspace {
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

/// The disentangled 3-D tag state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagEstimate3D {
    /// Tag position, metres.
    pub position: Vec3,
    /// Unit dipole axis, canonicalized to `z ≥ 0` (dipoles are
    /// π-symmetric).
    pub dipole: Vec3,
    /// Material slope term, rad/Hz.
    pub kt: f64,
    /// Material intercept term, radians in `[0, 2π)`.
    pub bt: f64,
    /// Final weighted cost.
    pub cost: f64,
    /// RMS of sigma-normalized residuals.
    pub residual_rms: f64,
}

impl TagEstimate3D {
    /// Angular distance between this estimate's dipole axis and another
    /// axis, in `[0, π/2]`.
    pub fn dipole_axis_error(&self, other: Vec3) -> f64 {
        let dot = self.dipole.dot(other.normalized()).abs().clamp(0.0, 1.0);
        dot.acos()
    }
}

/// Errors from [`solve_3d`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solve3DError {
    /// Fewer than four antennas: 2N < 7 unknowns.
    TooFewAntennas {
        /// Number of observations provided.
        provided: usize,
    },
}

impl std::fmt::Display for Solve3DError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Solve3DError::TooFewAntennas { provided } => {
                write!(f, "3-D disentangling needs at least 4 antennas, got {provided}")
            }
        }
    }
}

impl std::error::Error for Solve3DError {}

fn dipole_from_angles(theta: f64, phi: f64) -> Vec3 {
    let (st, ct) = theta.sin_cos();
    let (sp, cp) = phi.sin_cos();
    Vec3::new(st * cp, st * sp, ct)
}

/// Fills `out` with the 2N sigma-normalized residuals at parameters
/// `p = (x, y, z, θ, φ, k_t, b_t)` (dipole `w = (sinθ cosφ, sinθ sinφ,
/// cosθ)`) — residual `2i` is antenna *i*'s slope equation, `2i+1` its
/// wrapped intercept equation.
pub fn residuals_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Solver3DConfig,
    out: &mut Vec<f64>,
) {
    residuals_and_jacobian_3d(observations, p, config, out, None);
}

/// [`residuals_3d`] plus, when `jac` is given, the row-major `2N × 7`
/// analytic Jacobian (DESIGN.md §6): the slope rows differentiate the
/// distance through all three position coordinates, and the intercept
/// rows apply the `θ′_orient` chain rule against `∂w/∂θ = (cosθ cosφ,
/// cosθ sinφ, −sinθ)` and `∂w/∂φ = (−sinθ sinφ, sinθ cosφ, 0)`.
pub fn residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Solver3DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec3::new(p[0], p[1], p[2]);
    let (st, ct) = p[3].sin_cos();
    let (sp, cp) = p[4].sin_cos();
    // Same expression as `dipole_from_angles`, inlined so the Jacobian
    // shares the sin/cos evaluations.
    let w = Vec3::new(st * cp, st * sp, ct);
    let wt = Vec3::new(ct * cp, ct * sp, -st);
    let wp = Vec3::new(-st * sp, st * cp, 0.0);
    let (kt, bt) = (p[5], p[6]);
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 2 * 7, 0.0);
    }
    let mut jac: Option<&mut [f64]> = jac.map(Vec::as_mut_slice);
    let k1 = propagation::slope_from_distance(1.0); // 4π/c
    // Four independent antenna rows per pass; rows are emitted in antenna
    // order with no cross-lane reduction, so the unrolled path is
    // bit-identical to a scalar loop.
    let mut chunks = observations.chunks_exact(4);
    let mut i = 0usize;
    for c in chunks.by_ref() {
        joint_row_3d(&c[0], i, pos, w, wt, wp, kt, bt, k1, config, r, jac.as_deref_mut());
        joint_row_3d(&c[1], i + 1, pos, w, wt, wp, kt, bt, k1, config, r, jac.as_deref_mut());
        joint_row_3d(&c[2], i + 2, pos, w, wt, wp, kt, bt, k1, config, r, jac.as_deref_mut());
        joint_row_3d(&c[3], i + 3, pos, w, wt, wp, kt, bt, k1, config, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        joint_row_3d(o, i, pos, w, wt, wp, kt, bt, k1, config, r, jac.as_deref_mut());
        i += 1;
    }
}

/// One antenna's slope + wrapped-intercept rows (and, when `jac` is given,
/// their Jacobian rows) of the joint 3-D problem — the body shared by the
/// 4-wide lanes and the remainder loop of [`residuals_and_jacobian_3d`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn joint_row_3d(
    o: &AntennaObservation,
    i: usize,
    pos: Vec3,
    w: Vec3,
    wt: Vec3,
    wp: Vec3,
    kt: f64,
    bt: f64,
    k1: f64,
    config: &Solver3DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
    let uw = o.pose.u().dot(w);
    let vw = o.pose.v().dot(w);
    let denom = uw * uw + vw * vw;
    // Same expression (and guard) as `orientation_phase`.
    let theta = if denom < 1e-24 {
        0.0
    } else {
        (2.0 * uw * vw).atan2(uw * uw - vw * vw)
    };
    r.push(angle::wrap_pi(o.intercept - theta - bt) / config.intercept_sigma);
    if let Some(j) = jac {
        let rs = 2 * i * 7;
        let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
        j[rs] = g * (pos.x - ap.x);
        j[rs + 1] = g * (pos.y - ap.y);
        j[rs + 2] = g * (pos.z - ap.z);
        j[rs + 5] = -1.0 / config.slope_sigma;
        let rb = rs + 7;
        let (dtheta_t, dtheta_p) = if denom < 1e-24 {
            (0.0, 0.0)
        } else {
            let uwt = o.pose.u().dot(wt);
            let vwt = o.pose.v().dot(wt);
            let uwp = o.pose.u().dot(wp);
            let vwp = o.pose.v().dot(wp);
            (
                2.0 * (uw * vwt - vw * uwt) / denom,
                2.0 * (uw * vwp - vw * uwp) / denom,
            )
        };
        j[rb + 3] = -dtheta_t / config.intercept_sigma;
        j[rb + 4] = -dtheta_p / config.intercept_sigma;
        j[rb + 6] = -1.0 / config.intercept_sigma;
    }
}

/// The N sigma-normalized slope residuals at `p = (x, y, z, k_t)` and,
/// when `jac` is given, their row-major `N × 4` analytic Jacobian — the
/// stage-1 seeding problem.
fn slope_residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Solver3DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec3::new(p[0], p[1], p[2]);
    let kt = p[3];
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 4, 0.0);
    }
    let mut jac: Option<&mut [f64]> = jac.map(Vec::as_mut_slice);
    let k1 = propagation::slope_from_distance(1.0);
    // See `residuals_and_jacobian_3d`: independent rows in antenna order,
    // bit-identical to a scalar loop.
    let mut chunks = observations.chunks_exact(4);
    let mut i = 0usize;
    for c in chunks.by_ref() {
        slope_row_3d(&c[0], i, pos, kt, k1, config, r, jac.as_deref_mut());
        slope_row_3d(&c[1], i + 1, pos, kt, k1, config, r, jac.as_deref_mut());
        slope_row_3d(&c[2], i + 2, pos, kt, k1, config, r, jac.as_deref_mut());
        slope_row_3d(&c[3], i + 3, pos, kt, k1, config, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        slope_row_3d(o, i, pos, kt, k1, config, r, jac.as_deref_mut());
        i += 1;
    }
}

/// One antenna's slope row (and Jacobian row) of the 3-D stage-1 problem —
/// the body shared by the 4-wide lanes and the remainder loop of
/// [`slope_residuals_and_jacobian_3d`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn slope_row_3d(
    o: &AntennaObservation,
    i: usize,
    pos: Vec3,
    kt: f64,
    k1: f64,
    config: &Solver3DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
    if let Some(j) = jac {
        let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
        j[i * 4] = g * (pos.x - ap.x);
        j[i * 4 + 1] = g * (pos.y - ap.y);
        j[i * 4 + 2] = g * (pos.z - ap.z);
        j[i * 4 + 3] = -1.0 / config.slope_sigma;
    }
}

/// Finite-difference steps of the numeric-fallback joint solve:
/// x, y, z (m), θ, φ (rad), k_t (rad/Hz), b_t (rad).
const JOINT_STEPS_3D: [f64; 7] = [1e-4, 1e-4, 1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
/// Steps of the numeric-fallback slope-only (stage-1) solve: x, y, z, k_t.
const SLOPE_STEPS_3D: [f64; 4] = [1e-4, 1e-4, 1e-4, 1e-13];

/// The joint 7-parameter disentangling problem as a [`ResidualModel`]:
/// slope + wrapped-intercept residuals with the fused analytic Jacobian of
/// [`residuals_and_jacobian_3d`].
struct Joint3<'a> {
    observations: &'a [AntennaObservation],
    config: &'a Solver3DConfig,
}

impl ResidualModel<7> for Joint3<'_> {
    fn eval(&self, p: &[f64; 7], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        residuals_and_jacobian_3d(self.observations, p, self.config, r, jac);
    }
}

/// The stage-1 slope-only `(x, y, z, k_t)` problem as a [`ResidualModel`].
struct Slope3<'a> {
    observations: &'a [AntennaObservation],
    config: &'a Solver3DConfig,
}

impl ResidualModel<4> for Slope3<'_> {
    fn eval(&self, p: &[f64; 4], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        slope_residuals_and_jacobian_3d(self.observations, p, self.config, r, jac);
    }
}

/// Joint 7-parameter LM refinement through the dimension-generic core,
/// dispatched on the configured [`JacobianMode`].
fn refine_joint_3d(
    core: &mut LmCore<7>,
    observations: &[AntennaObservation],
    config: &Solver3DConfig,
    p0: [f64; 7],
) -> ([f64; 7], f64) {
    let model = Joint3 { observations, config };
    match config.jacobian {
        JacobianMode::Analytic => {
            core.refine(&model, p0, config.max_iterations, config.tolerance)
        }
        JacobianMode::Numeric => core.refine_numeric(
            &model,
            p0,
            &JOINT_STEPS_3D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Stage-1 slope-only LM refinement over `(x, y, z, k_t)` through the
/// dimension-generic core, dispatched on the configured [`JacobianMode`].
fn refine_slope_3d(
    core: &mut LmCore<4>,
    observations: &[AntennaObservation],
    config: &Solver3DConfig,
    p0: [f64; 4],
) -> ([f64; 4], f64) {
    let model = Slope3 { observations, config };
    match config.jacobian {
        JacobianMode::Analytic => {
            core.refine(&model, p0, config.max_iterations, config.tolerance)
        }
        JacobianMode::Numeric => core.refine_numeric(
            &model,
            p0,
            &SLOPE_STEPS_3D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Solves the 3-D disentangling problem over the `region × z_range` box.
///
/// # Errors
///
/// [`Solve3DError::TooFewAntennas`] with fewer than 4 observations.
pub fn solve_3d(
    observations: &[AntennaObservation],
    region: Region2,
    z_range: (f64, f64),
    config: &Solver3DConfig,
) -> Result<TagEstimate3D, Solve3DError> {
    let poses: Vec<AntennaPose> = observations.iter().map(|o| o.pose).collect();
    let seeds = Solve3DSeeds::for_scene(region, z_range, config, &poses);
    let mut workspace = Solver3DWorkspace::default();
    solve_3d_seeded(observations, &seeds, config, &mut workspace)
}

/// [`solve_3d`] against precomputed [`Solve3DSeeds`] and a reusable
/// [`Solver3DWorkspace`] — the hot-path entry used by the batch engine.
/// Produces bit-identical results to [`solve_3d`] with the same inputs.
///
/// # Errors
///
/// [`Solve3DError::TooFewAntennas`] with fewer than 4 observations.
pub fn solve_3d_seeded(
    observations: &[AntennaObservation],
    seeds: &Solve3DSeeds,
    config: &Solver3DConfig,
    workspace: &mut Solver3DWorkspace,
) -> Result<TagEstimate3D, Solve3DError> {
    solve_3d_seeded_warm(observations, seeds, config, workspace, None)
}

/// [`solve_3d_seeded`] with an optional cross-round [`WarmStart3D`] prior,
/// refined first and validated against the coarse-scan floor exactly as in
/// [`solve_2d_seeded_warm`](crate::solver::solve_2d_seeded_warm) — a
/// teleported tag fails the gate and falls back to the full scan.
///
/// # Errors
///
/// [`Solve3DError::TooFewAntennas`] with fewer than 4 observations.
pub fn solve_3d_seeded_warm(
    observations: &[AntennaObservation],
    seeds: &Solve3DSeeds,
    config: &Solver3DConfig,
    workspace: &mut Solver3DWorkspace,
    warm: Option<&WarmStart3D>,
) -> Result<TagEstimate3D, Solve3DError> {
    if observations.len() < 4 {
        return Err(Solve3DError::TooFewAntennas { provided: observations.len() });
    }
    let _solve_span = obs::span("solve_3d");
    let _solve_timer = obs::time_histogram(obs::id::SOLVE_LATENCY_US);
    let before = if obs::active() {
        Some((workspace.stats(), workspace.lane_stats(), workspace.step_stats()))
    } else {
        None
    };
    let n_obs = observations.len();
    let geometry = seeds.geometry.as_ref().filter(|g| g.matches(observations));
    let Solver3DWorkspace {
        joint,
        slope,
        position_candidates,
        coarse,
        dipole_ranked,
        dists,
        rssi_base,
        orient_row,
        proj_row,
        proj_db_row,
        refined,
        prune,
        lanes,
    } = workspace;

    // Prefer candidates inside the known deployment volume: distances are
    // mirror-symmetric about the antenna plane and the range direction is
    // near-degenerate, so unconstrained optima can drift metres away (see
    // the 2-D solver for the same rule).
    let admissible_xy = seeds.admissible_xy;
    let (z_lo_adm, z_hi_adm) = seeds.z_bounds;
    let inside = |p: &[f64]| {
        admissible_xy.contains(rfp_geom::Vec2::new(p[0], p[1]))
            && p[2] >= z_lo_adm
            && p[2] <= z_hi_adm
    };
    // RSSI-consistency penalty of a candidate 3-D mode, shared with the
    // 2-D solver (see `solver::rssi_pattern_penalty`).
    let mode_penalty = |pos: Vec3, w: Vec3| {
        rssi_pattern_penalty(
            observations,
            |o| (o.pose.position().distance(pos), projection_magnitude(&o.pose, w)),
            config.rssi_sigma_db,
        )
    };
    let total_seeds = seeds.position_starts.len() as u64;
    let mut seeds_refined: u64 = 0;

    // Coarse ranking of every (x, y, z) seed by its unrefined slope cost —
    // shared by the pruned stage-1 beam and the warm-start floor.
    coarse.clear();
    if warm.is_some() || !config.is_exhaustive() {
        rank_coarse_3d(observations, geometry, seeds, config, coarse, lanes);
    }

    // Warm start: refine the prior first and gate against the coarse-scan
    // floor (best coarse seed stage-1 refined + best dipole-scan cost at
    // it). See `solve_2d_seeded_warm` for the reasoning.
    let warm_attempted = warm.is_some();
    if let Some(w) = warm {
        let _warm_span = obs::span("warm_start");
        let (p, cost) = refine_joint_3d(joint, observations, config, w.params());
        let key = cost
            + mode_penalty(Vec3::new(p[0], p[1], p[2]), dipole_from_angles(p[3], p[4]));
        let (_, best_seed, best_kt) = coarse[0];
        let pos = seeds.position_starts[best_seed];
        let (sp, _) = refine_slope_3d(
            slope,
            observations,
            config,
            [pos.x, pos.y, pos.z, best_kt],
        );
        seeds_refined += 1;
        scan_dipoles_3d(
            observations,
            geometry,
            config,
            seeds.rings,
            (sp[0], sp[1], sp[2], sp[3]),
            dists,
            rssi_base,
            orient_row,
            proj_row,
            proj_db_row,
            dipole_ranked,
        );
        let floor = dipole_ranked.first().map_or(f64::INFINITY, |&(_, _, _, c)| c);
        if inside(&p) && key <= floor * (1.0 + config.warm_gate_rel_tol) + 1e-9 {
            prune.seeds_total += total_seeds;
            prune.seeds_refined += seeds_refined;
            prune.warm_start_hits += 1;
            flush_obs_3d(joint, slope, *lanes, before, total_seeds, seeds_refined, true, false);
            return Ok(build_estimate_3d(observations, &p, cost));
        }
    }

    // Stage 1: slope-only position solve over (x, y, z, k_t) — smooth and
    // exactly determined with 4 antennas, over-determined with more.
    // Exhaustive mode refines every grid seed (the pre-pruning behaviour,
    // bit-for-bit); the default coarse-to-fine mode refines only the
    // top-K coarse-ranked seeds with a cost-plateau early exit.
    position_candidates.clear();
    let stage1_span = obs::span("stage1_slope");
    if config.is_exhaustive() {
        for (s, &pos) in seeds.position_starts.iter().enumerate() {
            let kt0 = match geometry {
                Some(g) => {
                    let base = s * n_obs;
                    observations
                        .iter()
                        .enumerate()
                        .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                        .sum::<f64>()
                        / n_obs as f64
                }
                None => {
                    observations
                        .iter()
                        .map(|o| {
                            o.slope
                                - propagation::slope_from_distance(
                                    o.pose.position().distance(pos),
                                )
                        })
                        .sum::<f64>()
                        / n_obs as f64
                }
            };
            let (p, cost) =
                refine_slope_3d(slope, observations, config, [pos.x, pos.y, pos.z, kt0]);
            position_candidates.push((p, cost, s));
        }
        // Seeds were pushed in grid order, so breaking cost ties on the
        // seed index reproduces the frozen stable sort's order while
        // keeping the unstable sort allocation-free.
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
            if config.early_exit_rel_tol > 0.0
                && rank >= 2
                && coarse_cost > best_refined * (1.0 + config.early_exit_rel_tol)
            {
                break;
            }
            let pos = seeds.position_starts[s];
            let (p, cost) =
                refine_slope_3d(slope, observations, config, [pos.x, pos.y, pos.z, kt0]);
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
    // With exactly 4 antennas the slope system is exactly determined, so
    // several zero-cost position candidates can exist (mirror images,
    // spurious intersections) — only the intercept equations can tell them
    // apart. Keep every distinct in-volume candidate (deduplicated to
    // 10 cm, by index — no cloning) and let the joint stage pick.
    let mut stage1 = [0usize; 6];
    let mut stage1_len = 0usize;
    for (i, (p, _, _)) in position_candidates.iter().enumerate() {
        if !inside(p) {
            continue;
        }
        let pos = Vec3::new(p[0], p[1], p[2]);
        let duplicate = stage1[..stage1_len].iter().any(|&j| {
            let q = &position_candidates[j].0;
            Vec3::new(q[0], q[1], q[2]).distance(pos) < 0.10
        });
        if !duplicate {
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

    // Stage 2: dipole scan over the half-sphere with closed-form b_t, then
    // stage 3: joint 7-parameter refinement from the best seeds. As in the
    // 2-D solver, candidates are ranked by phase cost *plus* the RSSI mode
    // penalty so spurious twin-dipole modes neither crowd truth out of the
    // refinement short-list nor win the final selection.
    refined.clear();
    let mut best_inside: Option<(usize, f64)> = None;
    let mut best_any: Option<(usize, f64)> = None;
    for &ci in &stage1[..stage1_len] {
        let (cx, cy, cz, ckt) = {
            let p = &position_candidates[ci].0;
            (p[0], p[1], p[2], p[3])
        };
        scan_dipoles_3d(
            observations,
            geometry,
            config,
            seeds.rings,
            (cx, cy, cz, ckt),
            dists,
            rssi_base,
            orient_row,
            proj_row,
            proj_db_row,
            dipole_ranked,
        );
        let _refine_span = obs::span("joint_refine");
        for (rank, &(theta, phi, bt0, scan_cost)) in
            dipole_ranked.iter().take(3).enumerate()
        {
            // Plateau exit across the joint short-list — but always refine
            // at least two dipole modes per candidate so the twin-mode
            // disambiguation never degenerates to a single basin.
            if config.early_exit_rel_tol > 0.0 && rank >= 2 {
                if let Some((_, k)) = best_any {
                    if scan_cost > k * (1.0 + config.early_exit_rel_tol) {
                        break;
                    }
                }
            }
            let p0 = [cx, cy, cz, theta, phi, ckt, bt0];
            let (p, cost) = refine_joint_3d(joint, observations, config, p0);
            let key = cost
                + mode_penalty(
                    Vec3::new(p[0], p[1], p[2]),
                    dipole_from_angles(p[3], p[4]),
                );
            let idx = refined.len();
            if inside(&p) && best_inside.is_none_or(|(_, k)| key < k) {
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
    flush_obs_3d(joint, slope, *lanes, before, total_seeds, seeds_refined, false, warm_attempted);
    Ok(build_estimate_3d(observations, &p, cost))
}

/// Coarse ranking of every `(x, y, z)` seed by its unrefined slope cost —
/// the 3-D analogue of the 2-D solver's coarse rank, with the same 4-wide
/// lane layout: with geometry tables, 4 seeds are scored per pass over the
/// slope table with the per-seed accumulation order of
/// [`coarse_seed_cost_3d`] preserved exactly (bit-identical).
/// Ties break towards grid order via the explicit (cost, index) key, which
/// makes the allocation-free unstable sort deterministic and equal to the
/// frozen stable sort.
fn rank_coarse_3d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry3D>,
    seeds: &Solve3DSeeds,
    config: &Solver3DConfig,
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
                    coarse_seed_cost_3d(observations, geometry, idx, seed_pos, config);
                coarse.push((cost, idx, kt0));
                lanes.scalar_rows += 1;
            }
        }
        None => {
            for (s, &seed_pos) in seeds.position_starts.iter().enumerate() {
                let (kt0, cost) =
                    coarse_seed_cost_3d(observations, geometry, s, seed_pos, config);
                coarse.push((cost, s, kt0));
            }
            lanes.scalar_rows += seeds.position_starts.len() as u64;
        }
    }
    coarse.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
    });
}

/// The cheap stage-1 score of one 3-D grid seed: closed-form `k_t` and the
/// unrefined slope cost, from the geometry table when one applies — the
/// exact expressions of the refinement path.
fn coarse_seed_cost_3d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry3D>,
    s: usize,
    pos: Vec3,
    config: &Solver3DConfig,
) -> (f64, f64) {
    let n_obs = observations.len();
    let mut cost = 0.0;
    let kt0 = match geometry {
        Some(g) => {
            let base = s * n_obs;
            let kt0 = observations
                .iter()
                .enumerate()
                .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                .sum::<f64>()
                / n_obs as f64;
            for (i, o) in observations.iter().enumerate() {
                let rs = (o.slope - g.seed_slopes[base + i] - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
        None => {
            let kt0 = observations
                .iter()
                .map(|o| {
                    o.slope
                        - propagation::slope_from_distance(o.pose.position().distance(pos))
                })
                .sum::<f64>()
                / n_obs as f64;
            for o in observations {
                let d = o.pose.position().distance(pos);
                let rs =
                    (o.slope - propagation::slope_from_distance(d) - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
    };
    (kt0, cost)
}

/// Stage 2 at one position candidate `(x, y, z, k_t)`: ranks every
/// half-sphere scan direction by the full cost and leaves `dipole_ranked`
/// sorted best-first. Everything direction-independent — the per-antenna
/// distances, the slope half of the cost and the `rssiᵢ + 40·log10(dᵢ)`
/// half of the RSSI penalty — is hoisted out of the scan.
#[allow(clippy::too_many_arguments)]
fn scan_dipoles_3d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry3D>,
    config: &Solver3DConfig,
    rings: usize,
    candidate: (f64, f64, f64, f64),
    dists: &mut Vec<f64>,
    rssi_base: &mut Vec<f64>,
    orient_row: &mut Vec<f64>,
    proj_row: &mut Vec<f64>,
    proj_db_row: &mut Vec<f64>,
    dipole_ranked: &mut Vec<(f64, f64, f64, f64)>,
) {
    let n_obs = observations.len();
    let (cx, cy, cz, ckt) = candidate;
    let cand_pos = Vec3::new(cx, cy, cz);
    dists.clear();
    let mut slope_cost = 0.0;
    for o in observations {
        let d = o.pose.position().distance(cand_pos);
        let rs = (o.slope - propagation::slope_from_distance(d) - ckt) / config.slope_sigma;
        slope_cost += rs * rs;
        dists.push(d);
    }
    // The direction-independent half of the RSSI penalty. Entries for
    // unreadable distances may be NaN/−∞, but the penalty's guards return
    // before reading them — exactly as the unhoisted kernel returned
    // before computing the term at all.
    let rssi_active = config.rssi_sigma_db.is_finite() && config.rssi_sigma_db > 0.0;
    rssi_base.clear();
    if rssi_active {
        for (o, &d) in observations.iter().zip(dists.iter()) {
            rssi_base.push(o.mean_rssi_dbm + 40.0 * d.log10());
        }
    }
    dipole_ranked.clear();
    let _dipole_span = obs::span("dipole_scan");
    for ti in 0..rings {
        // Polar rings from near-pole to equator.
        let theta = std::f64::consts::FRAC_PI_2 * (ti as f64 + 0.5) / rings as f64;
        for pi in 0..(2 * rings) {
            let phi = std::f64::consts::TAU * pi as f64 / (2 * rings) as f64;
            let dir = ti * 2 * rings + pi;
            let (orow, prow, pdbrow): (&[f64], &[f64], &[f64]) = match geometry {
                Some(g) => (
                    &g.orient[dir * n_obs..(dir + 1) * n_obs],
                    &g.proj[dir * n_obs..(dir + 1) * n_obs],
                    &g.proj_db[dir * n_obs..(dir + 1) * n_obs],
                ),
                None => {
                    let w0 = dipole_from_angles(theta, phi);
                    orient_row.clear();
                    proj_row.clear();
                    proj_db_row.clear();
                    for o in observations {
                        orient_row.push(orientation_phase(&o.pose, w0));
                        let p = projection_magnitude(&o.pose, w0);
                        proj_row.push(p);
                        proj_db_row.push(20.0 * p.log10());
                    }
                    (orient_row.as_slice(), proj_row.as_slice(), proj_db_row.as_slice())
                }
            };
            let bt0 = angle::circular_mean(
                observations.iter().zip(orow).map(|(o, &th)| o.intercept - th),
            )
            .unwrap_or(0.0);
            let mut cost = slope_cost;
            for (o, &th) in observations.iter().zip(orow) {
                let rb = angle::wrap_pi(o.intercept - th - bt0) / config.intercept_sigma;
                cost += rb * rb;
            }
            if rssi_active {
                cost += rssi_penalty_hoisted(
                    observations,
                    rssi_base,
                    dists,
                    prow,
                    pdbrow,
                    config.rssi_sigma_db,
                );
            }
            dipole_ranked.push((theta, phi, bt0, cost));
        }
    }
    // Directions were pushed in (θ ring, φ) lexicographic ascending order,
    // so breaking cost ties on (θ, φ) reproduces the frozen stable sort's
    // push order while keeping the unstable sort allocation-free.
    dipole_ranked.sort_unstable_by(|a, b| {
        a.3.partial_cmp(&b.3)
            .expect("finite costs")
            .then_with(|| a.0.partial_cmp(&b.0).expect("finite angles"))
            .then_with(|| a.1.partial_cmp(&b.1).expect("finite angles"))
    });
}

/// Final-estimate assembly shared by the warm-start fast path and the full
/// scan: dipole canonicalization (`z ≥ 0`) plus wrapping of `b_t`.
fn build_estimate_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    cost: f64,
) -> TagEstimate3D {
    let mut dipole = dipole_from_angles(p[3], p[4]);
    if dipole.z < 0.0 {
        dipole = -dipole;
    }
    let n_res = 2 * observations.len();
    TagEstimate3D {
        position: Vec3::new(p[0], p[1], p[2]),
        dipole,
        kt: p[5],
        bt: angle::wrap_tau(p[6]),
        cost,
        residual_rms: (cost / n_res as f64).sqrt(),
    }
}

/// Per-solve counter flush of the 3-D solve (active only when the obs
/// layer is recording; `before` is `None` otherwise).
#[allow(clippy::too_many_arguments)]
fn flush_obs_3d(
    joint: &LmCore<7>,
    slope: &LmCore<4>,
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
    obs::counter_add(obs::id::SOLVER3D_SOLVES, 1);
    obs::counter_add(obs::id::SOLVER3D_ITERATIONS, work.iterations);
    obs::counter_add(obs::id::SOLVER3D_RESIDUAL_EVALS, work.residual_evals);
    obs::counter_add(obs::id::SOLVER3D_JACOBIAN_EVALS, work.jacobian_evals);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_observation, ExtractConfig};
    use rfp_geom::Vec2;
    use rfp_sim::{Motion, NoiseModel, ReaderConfig, Scene, SimTag};

    fn observations_3d(
        scene: &Scene,
        position: Vec3,
        dipole: Vec3,
        seed: u64,
    ) -> Vec<AntennaObservation> {
        let tag = SimTag::nominal(1)
            .with_motion(Motion::Static { position, dipole: dipole.normalized() });
        let survey = scene.survey(&tag, seed);
        scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect()
    }

    #[test]
    fn recovers_3d_position_clean() {
        let scene = Scene::four_antenna_3d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec3::new(0.3, 1.6, 0.7);
        let dipole = Vec3::new(1.0, 0.2, 0.4).normalized();
        let obs = observations_3d(&scene, truth, dipole, 1);
        let est =
            solve_3d(&obs, scene.region(), (0.0, 1.0), &Solver3DConfig::default()).unwrap();
        let err_cm = est.position.distance(truth) * 100.0;
        assert!(err_cm < 5.0, "3-D position error {err_cm} cm");
        let axis_err = est.dipole_axis_error(dipole).to_degrees();
        assert!(axis_err < 8.0, "dipole axis error {axis_err}°");
    }

    #[test]
    fn recovers_3d_with_noise() {
        // Four antennas are identifiable but have zero slope redundancy;
        // the noisy evaluation uses the six-antenna deployment.
        let scene = Scene::six_antenna_3d();
        let truth = Vec3::new(0.8, 1.2, 0.4);
        let dipole = Vec3::new(0.2, 0.5, 1.0).normalized();
        let obs = observations_3d(&scene, truth, dipole, 2);
        let est =
            solve_3d(&obs, scene.region(), (0.0, 1.5), &Solver3DConfig::default()).unwrap();
        let err_cm = est.position.distance(truth) * 100.0;
        assert!(err_cm < 40.0, "noisy 3-D position error {err_cm} cm");
    }

    #[test]
    fn dipole_canonicalized_upward() {
        let scene = Scene::four_antenna_3d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec3::new(0.5, 1.5, 0.5);
        let dipole = Vec3::new(0.3, 0.1, -0.9).normalized(); // points down
        let obs = observations_3d(&scene, truth, dipole, 3);
        let est =
            solve_3d(&obs, scene.region(), (0.0, 1.0), &Solver3DConfig::default()).unwrap();
        assert!(est.dipole.z >= 0.0);
        assert!(est.dipole_axis_error(dipole).to_degrees() < 10.0);
    }

    #[test]
    fn three_antennas_insufficient() {
        let scene = Scene::four_antenna_3d();
        let obs = observations_3d(&scene, Vec3::new(0.5, 1.5, 0.5), Vec3::X, 4);
        assert_eq!(
            solve_3d(&obs[..3], scene.region(), (0.0, 1.0), &Solver3DConfig::default())
                .unwrap_err(),
            Solve3DError::TooFewAntennas { provided: 3 }
        );
    }

    #[test]
    fn region2_used_for_xy_box() {
        let r = Region2::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0));
        assert!(r.contains(Vec2::new(0.5, 0.5)));
    }

    #[test]
    fn analytic_jacobian_3d_matches_central_differences() {
        let scene = Scene::four_antenna_3d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec3::new(0.6, 1.4, 0.5);
        let dipole = Vec3::new(0.7, 0.3, 0.6).normalized();
        let obs = observations_3d(&scene, truth, dipole, 9);
        let config = Solver3DConfig::default();
        let p = [0.61, 1.39, 0.52, 0.65, 0.42, -1.1e-8, 0.5];
        let mut r = Vec::new();
        let mut jac = Vec::new();
        residuals_and_jacobian_3d(&obs, &p, &config, &mut r, Some(&mut jac));
        let n = 7;
        let m = r.len();
        let mut r_plus = Vec::new();
        let mut r_minus = Vec::new();
        let mut work = p.to_vec();
        for j in 0..n {
            let h = JOINT_STEPS_3D[j];
            work[j] = p[j] + h;
            residuals_3d(&obs, &work, &config, &mut r_plus);
            work[j] = p[j] - h;
            residuals_3d(&obs, &work, &config, &mut r_minus);
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
    fn numeric_fallback_3d_converges_to_analytic_result() {
        let scene = Scene::four_antenna_3d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec3::new(0.4, 1.7, 0.6);
        let dipole = Vec3::new(0.5, 0.6, 0.8).normalized();
        let obs = observations_3d(&scene, truth, dipole, 5);
        let analytic =
            solve_3d(&obs, scene.region(), (0.0, 1.0), &Solver3DConfig::default()).unwrap();
        let numeric_cfg =
            Solver3DConfig { jacobian: JacobianMode::Numeric, ..Solver3DConfig::default() };
        let numeric = solve_3d(&obs, scene.region(), (0.0, 1.0), &numeric_cfg).unwrap();
        assert!(analytic.position.distance(numeric.position) < 1e-6);
        assert!(analytic.dipole_axis_error(numeric.dipole) < 1e-6);
        assert!((analytic.kt - numeric.kt).abs() < 1e-13);
        assert!(angle::distance(analytic.bt, numeric.bt) < 1e-6);
    }

    #[test]
    fn seed_geometry_3d_is_bit_identical_to_direct_evaluation() {
        let scene = Scene::four_antenna_3d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let poses = scene.antenna_poses();
        let obs = observations_3d(
            &scene,
            Vec3::new(0.7, 1.3, 0.6),
            Vec3::new(0.9, 0.1, 0.5).normalized(),
            7,
        );
        let config = Solver3DConfig::default();
        let plain = Solve3DSeeds::new(scene.region(), (0.0, 1.0), &config);
        let with_geo = Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &poses);
        let mut ws_a = Solver3DWorkspace::default();
        let mut ws_b = Solver3DWorkspace::default();
        let a = solve_3d_seeded(&obs, &plain, &config, &mut ws_a).unwrap();
        let b = solve_3d_seeded(&obs, &with_geo, &config, &mut ws_b).unwrap();
        assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
        assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
        assert_eq!(a.position.z.to_bits(), b.position.z.to_bits());
        assert_eq!(a.dipole.x.to_bits(), b.dipole.x.to_bits());
        assert_eq!(a.kt.to_bits(), b.kt.to_bits());
        assert_eq!(a.bt.to_bits(), b.bt.to_bits());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn exhaustive_3d_refines_every_seed_and_pruned_matches() {
        let scene = Scene::six_antenna_3d();
        let truth = Vec3::new(0.8, 1.2, 0.4);
        let dipole = Vec3::new(0.2, 0.5, 1.0).normalized();
        let obs = observations_3d(&scene, truth, dipole, 2);
        let exhaustive_cfg = Solver3DConfig::exhaustive();
        let mut ws = Solver3DWorkspace::default();
        let seeds =
            Solve3DSeeds::for_scene(scene.region(), (0.0, 1.5), &exhaustive_cfg, &scene.antenna_poses());
        let exhaustive = solve_3d_seeded(&obs, &seeds, &exhaustive_cfg, &mut ws).unwrap();
        let ps = ws.prune_stats();
        assert_eq!(ps.seeds_total, 75);
        assert_eq!(ps.seeds_refined, 75);

        let pruned_cfg = Solver3DConfig::default();
        let mut ws2 = Solver3DWorkspace::default();
        let pruned = solve_3d_seeded(&obs, &seeds, &pruned_cfg, &mut ws2).unwrap();
        let ps2 = ws2.prune_stats();
        assert_eq!(ps2.seeds_total, 75);
        assert!(ps2.seeds_refined <= 16, "refined {}", ps2.seeds_refined);
        assert!(pruned.position.distance(exhaustive.position) < 1e-6);
        assert!((pruned.cost - exhaustive.cost).abs() <= 1e-6 * (1.0 + exhaustive.cost));
    }

    #[test]
    fn warm_start_3d_hit_skips_the_scan() {
        let scene = Scene::four_antenna_3d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec3::new(0.5, 1.4, 0.6);
        let dipole = Vec3::new(0.6, 0.3, 0.7).normalized();
        let obs = observations_3d(&scene, truth, dipole, 13);
        let config = Solver3DConfig::default();
        let seeds =
            Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &scene.antenna_poses());
        let mut ws = Solver3DWorkspace::default();
        let cold = solve_3d_seeded(&obs, &seeds, &config, &mut ws).unwrap();
        let before = ws.prune_stats();
        let warm = WarmStart3D::from_estimate(&cold);
        let warm_est =
            solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, Some(&warm)).unwrap();
        let ps = ws.prune_stats().since(before);
        assert_eq!(ps.warm_start_hits, 1, "gate should accept the prior");
        assert_eq!(ps.seeds_refined, 1);
        assert!(warm_est.position.distance(cold.position) < 1e-6);
        assert!((warm_est.cost - cold.cost).abs() <= 1e-6 * (1.0 + cold.cost));
    }

    #[test]
    fn warm_start_3d_params_round_trip_dipole() {
        // θ/φ parameterization must reproduce the dipole axis.
        let w = Vec3::new(0.3, -0.4, 0.85).normalized();
        let warm = WarmStart3D {
            position: Vec3::new(0.5, 1.0, 0.5),
            dipole: w,
            kt: 0.0,
            bt: 0.0,
        };
        let p = warm.params();
        let back = dipole_from_angles(p[3], p[4]);
        assert!(back.dot(w).abs() > 1.0 - 1e-12);
    }
}
