//! Frozen pre-lane-core solver implementations.
//!
//! These are the 2-D and 3-D disentangling solvers exactly as they stood
//! before the [`LmCore`](rfp_core::lm::LmCore) refactor: dynamically-sized
//! parameter vectors recycled through a free-list, the shared dynamic
//! [`LmWorkspace`] cores ([`levenberg_marquardt_analytic_with`],
//! [`levenberg_marquardt_with`]), scalar residual loops and non-hoisted
//! `log10` RSSI penalties. They are kept for two reasons:
//!
//! * the `solver_profile` bench measures the lane-parallel facades against
//!   this baseline, so the speedup claim is reproducible on any machine;
//! * the `lm_equivalence` suite uses them as an independent bit-exact
//!   oracle for the const-generic facades, and the LM-core pins compare
//!   [`LmCore`](rfp_core::lm::LmCore) against the dynamic cores directly.
//!
//! The only deliberate differences from the historical entry points are
//! that the observability spans/counters and the pruning tallies are
//! stripped (the oracle must not perturb the measured path's telemetry),
//! that the [`WarmGate`](rfp_core::solver::WarmGate) cached-floor fast
//! path is omitted — the gate only skips work, it never changes which
//! optimum wins, so the un-cached flow here is the semantic ground truth —
//! that the oracle builds its own seeds ([`Reference2DSeeds`],
//! [`Reference3DSeeds`]) and takes its [`Jacobian`] mode as a parameter,
//! since the shipped configurations carry no Jacobian choice, and that it
//! keeps its own copies of the solver configurations
//! ([`Reference2DConfig`], [`Reference3DConfig`]: the fields, defaults
//! and `exhaustive()` the facade's `SolverConfig` and `Solver3DConfig`
//! had before the facade's values became constants), so the tests can
//! still reach the refine-everything scan, and that the 2-D keep loop
//! skips an admissible stage-1 candidate within
//! [`Reference2DConfig::stage1_dedup_m`] of a kept one, as the 3-D keep
//! loop always has and the facade's 2-D solve does (a radius of 0 keeps
//! the earlier 2-D solve, which kept every candidate). The arithmetic is
//! unchanged.
//!
//! Do not "improve" this module — its value is that it does not change.

use rfp_core::model::AntennaObservation;
use rfp_core::solver::{SolveError, SolveStats, TagEstimate2D, WarmStart};
use rfp_core::solver3d::{Solve3DError, TagEstimate3D, WarmStart3D};
use rfp_geom::{angle, AntennaPose, Region2, Vec2, Vec3};
use rfp_phys::polarization::{orientation_phase, planar_dipole, projection_magnitude};
use rfp_phys::propagation;

// ---------------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------------

/// Configuration of the 2-D oracle: a frozen copy of the facade's former
/// 2-D `SolverConfig`, whose default is the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference2DConfig {
    /// Expected slope noise (rad/Hz); weights the slope residuals.
    pub slope_sigma: f64,
    /// Expected intercept noise (rad); weights the intercept residuals.
    pub intercept_sigma: f64,
    /// Multi-start position grid (nx, ny) over the working region.
    pub position_starts: (usize, usize),
    /// Sets the orientation scan: `max(8 · orientation_starts, 24)`
    /// evenly spaced α seeds in `[0, π)`.
    pub orientation_starts: usize,
    /// Maximum LM iterations per start.
    pub max_iterations: usize,
    /// Relative cost-decrease tolerance for LM convergence.
    pub tolerance: f64,
    /// Expected RSSI noise (dB) of the mode penalty; `f64::INFINITY`
    /// disables the penalty.
    pub rssi_sigma_db: f64,
    /// Stage-1 beam width; `None` refines every seed.
    pub refine_top_k: Option<usize>,
    /// Cost-plateau early exit; `0` disables it.
    pub early_exit_rel_tol: f64,
    /// Warm-start validation gate tolerance against the coarse-scan floor.
    pub warm_gate_rel_tol: f64,
    /// Stage-1 candidates closer than this (metres) to a kept one are
    /// duplicates and reach neither the scan nor the joint refinements;
    /// `0` keeps every candidate, as distances are never negative.
    pub stage1_dedup_m: f64,
}

impl Default for Reference2DConfig {
    fn default() -> Self {
        Reference2DConfig {
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
            stage1_dedup_m: 0.10,
        }
    }
}

impl Reference2DConfig {
    /// Refine every multi-start seed with no early exit: the pre-pruning
    /// scan. It widens the beam, not the keep: the dedup radius stays the
    /// default.
    #[must_use]
    pub fn exhaustive() -> Self {
        Reference2DConfig {
            refine_top_k: None,
            early_exit_rel_tol: 0.0,
            ..Reference2DConfig::default()
        }
    }
}

/// Configuration of the 3-D oracle: a frozen copy of the facade's former
/// `Solver3DConfig`, whose default is the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference3DConfig {
    /// Expected slope noise (rad/Hz).
    pub slope_sigma: f64,
    /// Expected intercept noise (rad).
    pub intercept_sigma: f64,
    /// Multi-start grid over (x, y).
    pub position_starts: (usize, usize),
    /// Multi-start levels over z within `z_range`.
    pub z_starts: usize,
    /// Polar ring count of the dipole scan (clamped to ≥ 3), each ring
    /// scanned at `2 · rings` azimuths.
    pub dipole_starts: usize,
    /// Maximum LM iterations per start.
    pub max_iterations: usize,
    /// Relative cost tolerance.
    pub tolerance: f64,
    /// Expected RSSI noise (dB); `f64::INFINITY` disables the penalty.
    pub rssi_sigma_db: f64,
    /// Stage-1 beam width; `None` refines every `(x, y, z)` seed.
    pub refine_top_k: Option<usize>,
    /// Cost-plateau early exit; `0` disables it.
    pub early_exit_rel_tol: f64,
    /// Warm-start validation gate tolerance against the coarse-scan floor.
    pub warm_gate_rel_tol: f64,
}

impl Default for Reference3DConfig {
    fn default() -> Self {
        Reference3DConfig {
            slope_sigma: 1.0e-10,
            intercept_sigma: 0.08,
            position_starts: (5, 5),
            z_starts: 3,
            dipole_starts: 6,
            max_iterations: 80,
            tolerance: 1e-10,
            rssi_sigma_db: 1.0,
            refine_top_k: Some(16),
            early_exit_rel_tol: 0.5,
            warm_gate_rel_tol: 0.25,
        }
    }
}

impl Reference3DConfig {
    /// Refine every multi-start seed with no early exit: the pre-pruning
    /// scan.
    #[must_use]
    pub fn exhaustive() -> Self {
        Reference3DConfig {
            refine_top_k: None,
            early_exit_rel_tol: 0.0,
            ..Reference3DConfig::default()
        }
    }
}

/// How the oracle's LM refinements obtain the Jacobian of the residuals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jacobian {
    /// Closed-form ∂r/∂p evaluated fused with the residuals, normal
    /// equations solved by Cholesky ([`levenberg_marquardt_analytic_with`]).
    Analytic,
    /// Central differences with per-parameter steps, normal equations
    /// solved by pivoted elimination ([`levenberg_marquardt_with`]).
    Numeric,
}

// ---------------------------------------------------------------------------
// Multi-start seeds
// ---------------------------------------------------------------------------

/// The 2-D oracle's multi-start seeds: a frozen copy of the facade's
/// `SolveSeeds` construction, geometry tables included, built by the same
/// expressions so the oracle's arithmetic matches the facade's bit for bit.
#[derive(Debug, Clone)]
pub struct Reference2DSeeds {
    position_starts: Vec<Vec3>,
    admissible: Region2,
    alpha_steps: usize,
    geometry: Option<SeedGeometry>,
}

/// The 3-D oracle's multi-start seeds: a frozen copy of the facade's
/// `Solve3DSeeds` construction (see [`Reference2DSeeds`]).
#[derive(Debug, Clone)]
pub struct Reference3DSeeds {
    position_starts: Vec<Vec3>,
    admissible: Region2,
    rings: usize,
    z_bounds: (f64, f64),
    geometry: Option<SeedGeometry>,
}

/// Per-seed per-antenna model slopes and per-scan-direction orientation
/// and projection rows of one antenna deployment.
#[derive(Debug, Clone)]
struct SeedGeometry {
    poses: Vec<AntennaPose>,
    seed_slopes: Vec<f64>,
    orient: Vec<f64>,
    proj: Vec<f64>,
}

impl SeedGeometry {
    /// The tables of deployment `poses` for grid `starts` and the scan's
    /// `dipoles`, in scan-direction order.
    fn new(poses: &[AntennaPose], starts: &[Vec3], dipoles: impl Iterator<Item = Vec3>) -> Self {
        let mut seed_slopes = Vec::with_capacity(starts.len() * poses.len());
        for &seed in starts {
            for pose in poses {
                seed_slopes.push(propagation::slope_from_distance(pose.position().distance(seed)));
            }
        }
        let (mut orient, mut proj) = (Vec::new(), Vec::new());
        for w in dipoles {
            orient.extend(poses.iter().map(|pose| orientation_phase(pose, w)));
            proj.extend(poses.iter().map(|pose| projection_magnitude(pose, w)));
        }
        SeedGeometry { poses: poses.to_vec(), seed_slopes, orient, proj }
    }

    /// The tables describe `observations` only if the poses agree exactly.
    fn matches(&self, observations: &[AntennaObservation]) -> bool {
        self.poses.len() == observations.len()
            && self.poses.iter().zip(observations).all(|(p, o)| *p == o.pose)
    }
}

impl Reference2DSeeds {
    /// The seeds for `region` under `config`, without geometry tables.
    pub fn new(region: Region2, config: &Reference2DConfig) -> Self {
        let (nx, ny) = config.position_starts;
        Reference2DSeeds {
            position_starts: region.grid(nx.max(1), ny.max(1)).map(|p| p.with_z(0.0)).collect(),
            admissible: region.expanded(0.3),
            alpha_steps: (config.orientation_starts.max(1) * 8).max(24),
            geometry: None,
        }
    }

    /// [`Reference2DSeeds::new`] plus the geometry tables of `poses`.
    pub fn for_scene(region: Region2, config: &Reference2DConfig, poses: &[AntennaPose]) -> Self {
        let mut seeds = Self::new(region, config);
        let n = seeds.alpha_steps;
        let dipoles = (0..n).map(|a| planar_dipole(std::f64::consts::PI * a as f64 / n as f64));
        seeds.geometry = Some(SeedGeometry::new(poses, &seeds.position_starts, dipoles));
        seeds
    }
}

impl Reference3DSeeds {
    /// The seeds for the `region × z_range` box, without geometry tables.
    pub fn new(region: Region2, z_range: (f64, f64), config: &Reference3DConfig) -> Self {
        let (nx, ny) = config.position_starts;
        let (z_lo, z_hi) = z_range;
        let z_starts = config.z_starts.max(1);
        let mut position_starts = Vec::with_capacity(nx.max(1) * ny.max(1) * z_starts);
        for seed_pos in region.grid(nx.max(1), ny.max(1)) {
            for zi in 0..z_starts {
                let z = z_lo + (z_hi - z_lo) * (zi as f64 + 0.5) / z_starts as f64;
                position_starts.push(seed_pos.with_z(z));
            }
        }
        Reference3DSeeds {
            position_starts,
            admissible: region.expanded(0.3),
            rings: config.dipole_starts.max(3),
            z_bounds: (z_lo - 0.3, z_hi + 0.3),
            geometry: None,
        }
    }

    /// [`Reference3DSeeds::new`] plus the geometry tables of `poses`.
    pub fn for_scene(
        region: Region2,
        z_range: (f64, f64),
        config: &Reference3DConfig,
        poses: &[AntennaPose],
    ) -> Self {
        let mut seeds = Self::new(region, z_range, config);
        let rings = seeds.rings;
        let dipoles = (0..rings).flat_map(|ti| {
            (0..2 * rings).map(move |pi| {
                let theta = std::f64::consts::FRAC_PI_2 * (ti as f64 + 0.5) / rings as f64;
                let phi = std::f64::consts::TAU * pi as f64 / (2 * rings) as f64;
                dipole_from_angles(theta, phi)
            })
        });
        seeds.geometry = Some(SeedGeometry::new(poses, &seeds.position_starts, dipoles));
        seeds
    }
}

// ---------------------------------------------------------------------------
// Dynamic LM cores
// ---------------------------------------------------------------------------

/// Reusable buffers for the dynamic LM cores: the residual, Jacobian and
/// normal-equation storage whose allocation otherwise dominates small
/// repeated solves. Contents are fully overwritten by every call — after
/// the first solve sized the buffers, the steady state performs **zero**
/// heap allocations in either core. The [`SolveStats`] counters accumulate
/// monotonically; snapshot with [`LmWorkspace::stats`] and diff with
/// [`SolveStats::since`].
#[derive(Debug, Default)]
pub struct LmWorkspace {
    r: Vec<f64>,
    r_plus: Vec<f64>,
    r_minus: Vec<f64>,
    /// Row-major `m × n` Jacobian.
    jac: Vec<f64>,
    /// Flat `n × n` normal matrix `JᵀJ`.
    jtj: Vec<f64>,
    /// Gradient `Jᵀr`.
    jtr: Vec<f64>,
    /// Damped-matrix / factorization buffer (Cholesky in the analytic
    /// core, Gaussian elimination in the numeric core), recycled across
    /// the λ retries of one iteration.
    chol: Vec<f64>,
    /// Step and trial-point buffers.
    delta: Vec<f64>,
    candidate: Vec<f64>,
    stats: SolveStats,
}

impl LmWorkspace {
    /// Snapshot of the work counters accumulated by every solve run
    /// against this workspace; diff two snapshots with
    /// [`SolveStats::since`] for per-solve counts.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

/// Small dense Levenberg–Marquardt with numeric Jacobian and per-parameter
/// step scales (MINPACK-style diagonal damping), over caller-owned
/// scratch buffers. Returns the refined parameters and the final cost
/// (sum of squared residuals).
///
/// `residual` fills its output vector with the residuals at the supplied
/// parameters; `steps` gives the finite-difference step per parameter and
/// must have the same length as `p`. This is the frozen numeric core the
/// reference solvers run under [`Jacobian::Numeric`]; the shipped crates
/// keep no finite-difference LM.
#[allow(clippy::needless_range_loop)]
pub fn levenberg_marquardt_with<F>(
    workspace: &mut LmWorkspace,
    residual: &F,
    mut p: Vec<f64>,
    steps: &[f64],
    max_iterations: usize,
    tolerance: f64,
) -> (Vec<f64>, f64)
where
    F: Fn(&[f64], &mut Vec<f64>),
{
    let n = p.len();
    debug_assert_eq!(steps.len(), n);
    let LmWorkspace { r, r_plus, r_minus, jac, jtj, jtr, chol, delta, candidate, stats } =
        workspace;
    residual(&p, r);
    stats.residual_evals += 1;
    let mut cost: f64 = r.iter().map(|v| v * v).sum();
    let m = r.len();

    let mut lambda = 1e-3;
    jac.clear();
    jac.resize(m * n, 0.0);
    jtj.clear();
    jtj.resize(n * n, 0.0);
    jtr.clear();
    jtr.resize(n, 0.0);
    chol.clear();
    chol.resize(n * n, 0.0);
    delta.clear();
    delta.resize(n, 0.0);
    candidate.clear();
    candidate.resize(n, 0.0);

    for _ in 0..max_iterations {
        stats.iterations += 1;
        // Numeric Jacobian (central differences with per-parameter steps).
        for j in 0..n {
            let h = steps[j];
            let saved = p[j];
            p[j] = saved + h;
            residual(&p, r_plus);
            p[j] = saved - h;
            residual(&p, r_minus);
            p[j] = saved;
            for i in 0..m {
                jac[i * n + j] = (r_plus[i] - r_minus[i]) / (2.0 * h);
            }
        }
        stats.residual_evals += 2 * n as u64;
        stats.jacobian_evals += 1;
        // Normal equations (flat row-major, same accumulation order as the
        // historical nested-Vec form — bit-identical results).
        jtj.fill(0.0);
        jtr.fill(0.0);
        for i in 0..m {
            for a in 0..n {
                jtr[a] += jac[i * n + a] * r[i];
                for b in a..n {
                    jtj[a * n + b] += jac[i * n + a] * jac[i * n + b];
                }
            }
        }
        for a in 0..n {
            for b in 0..a {
                jtj[a * n + b] = jtj[b * n + a];
            }
        }

        // Damped solve with retry on cost increase.
        let mut improved = false;
        for _ in 0..8 {
            chol.copy_from_slice(jtj);
            for d in 0..n {
                chol[d * n + d] += lambda * jtj[d * n + d].max(1e-12);
            }
            for a in 0..n {
                delta[a] = -jtr[a];
            }
            if !solve_linear_in_place(chol, n, delta) {
                lambda *= 10.0;
                continue;
            }
            for a in 0..n {
                candidate[a] = p[a] + delta[a];
            }
            residual(candidate, r_plus);
            stats.residual_evals += 1;
            let new_cost: f64 = r_plus.iter().map(|v| v * v).sum();
            if new_cost < cost {
                let rel_drop = (cost - new_cost) / cost.max(1e-300);
                p.copy_from_slice(candidate);
                std::mem::swap(r, r_plus);
                cost = new_cost;
                lambda = (lambda / 3.0).max(1e-12);
                improved = true;
                if rel_drop < tolerance {
                    return (p, cost);
                }
                break;
            }
            lambda *= 4.0;
        }
        if !improved {
            break;
        }
    }
    (p, cost)
}

/// Levenberg–Marquardt with an analytic Jacobian, over caller-owned
/// scratch buffers — the frozen analytic core.
///
/// `resjac(p, r, jac)` fills `r` with the residuals at `p` and, when
/// `jac` is `Some`, the row-major `m × n` Jacobian `∂r/∂p` in the same
/// pass (the fused evaluation is why this core needs roughly one residual
/// sweep per iteration where the numeric core needs `2n + 1`). The damping
/// and retry policy matches [`levenberg_marquardt_with`]; the normal
/// equations `(JᵀJ + λ·diag(JᵀJ))δ = −Jᵀr` are assembled once per
/// iteration and solved by Cholesky, with only the damped diagonal
/// rewritten across the λ-adaptation retries. The oracle
/// [`LmCore::refine`](rfp_core::lm::LmCore::refine) is pinned against.
#[allow(clippy::needless_range_loop)]
pub fn levenberg_marquardt_analytic_with<F>(
    workspace: &mut LmWorkspace,
    resjac: &F,
    mut p: Vec<f64>,
    max_iterations: usize,
    tolerance: f64,
) -> (Vec<f64>, f64)
where
    F: Fn(&[f64], &mut Vec<f64>, Option<&mut Vec<f64>>),
{
    let n = p.len();
    let LmWorkspace { r, r_plus, jac, jtj, jtr, chol, delta, candidate, stats, .. } =
        workspace;
    resjac(&p, r, Some(jac));
    stats.residual_evals += 1;
    stats.jacobian_evals += 1;
    let mut cost: f64 = r.iter().map(|v| v * v).sum();
    let m = r.len();
    debug_assert_eq!(jac.len(), m * n);

    jtj.clear();
    jtj.resize(n * n, 0.0);
    jtr.clear();
    jtr.resize(n, 0.0);
    chol.clear();
    chol.resize(n * n, 0.0);
    delta.clear();
    delta.resize(n, 0.0);
    candidate.clear();
    candidate.resize(n, 0.0);

    let mut lambda = 1e-3;
    // The Jacobian from the initial fused evaluation is current; after an
    // accepted step it goes stale and the next iteration re-fuses.
    let mut jac_fresh = true;

    for _ in 0..max_iterations {
        stats.iterations += 1;
        if !jac_fresh {
            resjac(&p, r, Some(jac));
            stats.residual_evals += 1;
            stats.jacobian_evals += 1;
            jac_fresh = true;
        }
        // Assemble the normal equations once; the λ retries below reuse
        // them and only re-damp the diagonal.
        jtj.fill(0.0);
        jtr.fill(0.0);
        for i in 0..m {
            let row = &jac[i * n..(i + 1) * n];
            for a in 0..n {
                jtr[a] += row[a] * r[i];
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

        let mut improved = false;
        for _ in 0..8 {
            chol.copy_from_slice(jtj);
            for d in 0..n {
                chol[d * n + d] += lambda * jtj[d * n + d].max(1e-12);
            }
            if !cholesky_factor(chol, n) {
                lambda *= 10.0;
                continue;
            }
            for a in 0..n {
                delta[a] = -jtr[a];
            }
            cholesky_solve(chol, n, delta);
            for a in 0..n {
                candidate[a] = p[a] + delta[a];
            }
            resjac(candidate, r_plus, None);
            stats.residual_evals += 1;
            let new_cost: f64 = r_plus.iter().map(|v| v * v).sum();
            if new_cost < cost {
                let rel_drop = (cost - new_cost) / cost.max(1e-300);
                p.copy_from_slice(candidate);
                std::mem::swap(r, r_plus);
                cost = new_cost;
                lambda = (lambda / 3.0).max(1e-12);
                improved = true;
                jac_fresh = false;
                if rel_drop < tolerance {
                    return (p, cost);
                }
                break;
            }
            lambda *= 4.0;
        }
        if !improved {
            break;
        }
    }
    (p, cost)
}

/// In-place Gaussian elimination with partial pivoting over a flat
/// row-major `n × n` matrix; on success the solution overwrites `b`.
/// Returns `false` when singular (contents of `a`/`b` are then
/// unspecified). Allocation-free — the numeric LM core calls this once
/// per λ retry against workspace scratch. Pivot selection, elimination
/// order and back-substitution match the historical nested-`Vec` routine
/// exactly, so the numeric core stays the bit-exact oracle it was.
#[allow(clippy::needless_range_loop)]
fn solve_linear_in_place(a: &mut [f64], n: usize, b: &mut [f64]) -> bool {
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if a[pivot * n + col].abs() < 1e-300 {
            return false;
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = a[row * n + col] / a[col * n + col];
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution, in place: step `col` only reads `b[k]` for
    // `k > col`, which already hold solution entries.
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in (col + 1)..n {
            s -= a[col * n + k] * b[k];
        }
        b[col] = s / a[col * n + col];
    }
    true
}

// ---------------------------------------------------------------------------
// 2-D reference solver
// ---------------------------------------------------------------------------

/// Scratch buffers of the frozen 2-D solver — the pre-refactor
/// `SolverWorkspace` shape, parameter free-list included.
#[derive(Debug, Default)]
pub struct Reference2DWorkspace {
    lm: LmWorkspace,
    position_candidates: Vec<(Vec<f64>, f64, usize)>,
    coarse: Vec<(f64, usize, f64)>,
    alpha_ranked: Vec<(f64, f64, f64)>,
    dists: Vec<f64>,
    orient_row: Vec<f64>,
    proj_row: Vec<f64>,
    refined: Vec<(Vec<f64>, f64)>,
    params_pool: Vec<Vec<f64>>,
    uncert: UncertScratch,
}

impl Reference2DWorkspace {
    /// The LM work counters accumulated by every solve run against this
    /// workspace (see [`LmWorkspace::stats`]).
    pub fn stats(&self) -> SolveStats {
        self.lm.stats()
    }
}

/// Scratch buffers of [`estimate_uncertainty`].
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

/// Pops a recycled parameter vector off the free-list (or makes an empty
/// one), cleared and ready to be filled with a new seed.
fn pooled(pool: &mut Vec<Vec<f64>>) -> Vec<f64> {
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v
}

/// True when the multi-start scan runs the legacy exhaustive loop.
fn is_exhaustive_2d(config: &Reference2DConfig) -> bool {
    config.refine_top_k.is_none() && config.early_exit_rel_tol <= 0.0
}

/// The frozen pre-lane-core
/// [`solve_2d_seeded_warm`](rfp_core::solver::solve_2d_seeded_warm):
/// bit-exact oracle of the facade for identical inputs, refining with the
/// given `jacobian`.
///
/// # Errors
///
/// [`SolveError::TooFewAntennas`] when fewer than 3 observations are given.
pub fn solve_2d_reference(
    observations: &[AntennaObservation],
    seeds: &Reference2DSeeds,
    config: &Reference2DConfig,
    jacobian: Jacobian,
    workspace: &mut Reference2DWorkspace,
    warm: Option<&WarmStart>,
) -> Result<TagEstimate2D, SolveError> {
    if observations.len() < 3 {
        return Err(SolveError::TooFewAntennas { provided: observations.len() });
    }
    let n_obs = observations.len();
    let geometry = seeds.geometry.as_ref().filter(|g| g.matches(observations));
    let Reference2DWorkspace {
        lm,
        position_candidates,
        coarse,
        alpha_ranked,
        dists,
        orient_row,
        proj_row,
        refined,
        params_pool,
        uncert,
    } = workspace;

    // Recycle the previous solve's candidate parameter vectors before
    // anything claims a seed from the pool.
    params_pool.extend(position_candidates.drain(..).map(|(v, _, _)| v));
    params_pool.extend(refined.drain(..).map(|(v, _)| v));

    let admissible = seeds.admissible;

    // Coarse ranking shared by the pruned stage-1 beam and the warm-start
    // floor.
    coarse.clear();
    if warm.is_some() || !is_exhaustive_2d(config) {
        for (s, seed_pos) in seeds.position_starts.iter().map(|p| p.xy()).enumerate() {
            let (kt0, cost) = coarse_seed_cost_2d(observations, geometry, s, seed_pos, config);
            coarse.push((cost, s, kt0));
        }
        coarse.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
        });
    }

    // Warm start: refine the prior first and gate the result against the
    // coarse-scan floor.
    if let Some(w) = warm {
        let mut wp0 = pooled(params_pool);
        wp0.extend_from_slice(&[w.position.x, w.position.y, w.orientation, w.kt, w.bt]);
        let (p, cost) = refine_joint_2d(lm, observations, config, jacobian, wp0);
        let key = cost
            + rssi_mode_penalty(
                observations,
                Vec2::new(p[0], p[1]),
                p[2],
                config.rssi_sigma_db,
            );
        let in_region = admissible.contains(Vec2::new(p[0], p[1]));
        let (_, best_seed, best_kt) = coarse[0];
        let seed_pos = seeds.position_starts[best_seed].xy();
        let mut sp0 = pooled(params_pool);
        sp0.extend_from_slice(&[seed_pos.x, seed_pos.y, best_kt]);
        let (sp, _) = refine_slope_2d(lm, observations, config, jacobian, sp0);
        scan_alphas_2d(
            observations,
            geometry,
            config,
            seeds.alpha_steps,
            (sp[0], sp[1], sp[2]),
            dists,
            orient_row,
            proj_row,
            alpha_ranked,
        );
        params_pool.push(sp);
        let floor = alpha_ranked.first().map_or(f64::INFINITY, |&(_, _, c)| c);
        if in_region && key <= floor * (1.0 + config.warm_gate_rel_tol) + 1e-9 {
            let estimate = build_estimate_2d(observations, &p, cost, config, jacobian, uncert);
            params_pool.push(p);
            return Ok(estimate);
        }
        params_pool.push(p);
    }

    // Stage 1: slope-only position solve.
    if is_exhaustive_2d(config) {
        for (s, seed_pos) in seeds.position_starts.iter().map(|p| p.xy()).enumerate() {
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
            let mut p0 = pooled(params_pool);
            p0.extend_from_slice(&[seed_pos.x, seed_pos.y, kt0]);
            let (p, cost) = refine_slope_2d(lm, observations, config, jacobian, p0);
            position_candidates.push((p, cost, s));
        }
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
            let seed_pos = seeds.position_starts[s].xy();
            let mut p0 = pooled(params_pool);
            p0.extend_from_slice(&[seed_pos.x, seed_pos.y, kt0]);
            let (p, cost) = refine_slope_2d(lm, observations, config, jacobian, p0);
            best_refined = best_refined.min(cost);
            position_candidates.push((p, cost, s));
        }
        position_candidates.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
        });
    }
    // Keep the best distinct in-region candidates by index (the overall
    // best, at index 0 after the sort, is the backup if none stayed
    // inside).
    let mut stage1 = [0usize; 2];
    let mut stage1_len = 0usize;
    for (i, (p, _, _)) in position_candidates.iter().enumerate() {
        let pos = Vec2::new(p[0], p[1]);
        if !admissible.contains(pos) {
            continue;
        }
        let duplicate = stage1[..stage1_len].iter().any(|&j| {
            let q = &position_candidates[j].0;
            Vec2::new(q[0], q[1]).distance(pos) < config.stage1_dedup_m
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

    // Stages 2 + 3: α scan then joint refinement, ranked by phase cost
    // plus the RSSI mode penalty.
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
            orient_row,
            proj_row,
            alpha_ranked,
        );
        for (rank, &(alpha0, bt0, scan_cost)) in alpha_ranked.iter().take(4).enumerate() {
            if config.early_exit_rel_tol > 0.0 && rank >= 2 {
                if let Some((_, k)) = best_any {
                    if scan_cost > k * (1.0 + config.early_exit_rel_tol) {
                        break;
                    }
                }
            }
            let mut p0 = pooled(params_pool);
            p0.extend_from_slice(&[cx, cy, alpha0, ckt, bt0]);
            let (p, cost) = refine_joint_2d(lm, observations, config, jacobian, p0);
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
    let estimate = build_estimate_2d(observations, &p, cost, config, jacobian, uncert);
    params_pool.push(p);
    Ok(estimate)
}

/// The cheap stage-1 score of one grid seed: the closed-form `k_t` seed
/// and the unrefined slope cost at the seed position.
fn coarse_seed_cost_2d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    s: usize,
    seed_pos: Vec2,
    config: &Reference2DConfig,
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
/// the full cost and leaves `alpha_ranked` sorted best-first.
#[allow(clippy::too_many_arguments)]
fn scan_alphas_2d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    config: &Reference2DConfig,
    alpha_steps: usize,
    candidate: (f64, f64, f64),
    dists: &mut Vec<f64>,
    orient_row: &mut Vec<f64>,
    proj_row: &mut Vec<f64>,
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
    alpha_ranked.clear();
    for a in 0..alpha_steps {
        let alpha0 = std::f64::consts::PI * a as f64 / alpha_steps as f64;
        let (orow, prow): (&[f64], &[f64]) = match geometry {
            Some(g) => (
                &g.orient[a * n_obs..(a + 1) * n_obs],
                &g.proj[a * n_obs..(a + 1) * n_obs],
            ),
            None => {
                let w = planar_dipole(alpha0);
                orient_row.clear();
                proj_row.clear();
                for o in observations {
                    orient_row.push(orientation_phase(&o.pose, w));
                    proj_row.push(projection_magnitude(&o.pose, w));
                }
                (orient_row.as_slice(), proj_row.as_slice())
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
        cost += rssi_penalty_precomputed(observations, dists, prow, config.rssi_sigma_db);
        alpha_ranked.push((alpha0, bt0, cost));
    }
    alpha_ranked.sort_unstable_by(|a, b| {
        a.2.partial_cmp(&b.2).expect("finite costs").then_with(|| {
            a.0.partial_cmp(&b.0).expect("finite alphas")
        })
    });
}

/// Final-estimate assembly: uncertainty propagation plus canonical
/// wrapping of the angular parameters.
fn build_estimate_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    cost: f64,
    config: &Reference2DConfig,
    jacobian: Jacobian,
    scratch: &mut UncertScratch,
) -> TagEstimate2D {
    let n_res = 2 * observations.len();
    let (position_std_m, orientation_std_rad, position_cov) =
        estimate_uncertainty(observations, p, config, jacobian, scratch);
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

/// Finite-difference steps of the numeric-fallback joint solve:
/// x (m), y (m), α (rad), k_t (rad/Hz), b_t (rad).
const JOINT_STEPS_2D: [f64; 5] = [1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
/// Steps of the numeric-fallback slope-only (stage-1) solve: x, y, k_t.
const SLOPE_STEPS_2D: [f64; 3] = [1e-4, 1e-4, 1e-13];

/// Joint 5-parameter LM refinement, dispatched on `jacobian`.
fn refine_joint_2d(
    lm: &mut LmWorkspace,
    observations: &[AntennaObservation],
    config: &Reference2DConfig,
    jacobian: Jacobian,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match jacobian {
        Jacobian::Analytic => levenberg_marquardt_analytic_with(
            lm,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                residuals_and_jacobian_2d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        Jacobian::Numeric => levenberg_marquardt_with(
            lm,
            &|p: &[f64], out: &mut Vec<f64>| {
                residuals_and_jacobian_2d(observations, p, config, out, None)
            },
            p0,
            &JOINT_STEPS_2D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Stage-1 slope-only LM refinement over `(x, y, k_t)`, dispatched on
/// `jacobian`.
fn refine_slope_2d(
    lm: &mut LmWorkspace,
    observations: &[AntennaObservation],
    config: &Reference2DConfig,
    jacobian: Jacobian,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match jacobian {
        Jacobian::Analytic => levenberg_marquardt_analytic_with(
            lm,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                slope_residuals_and_jacobian_2d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        Jacobian::Numeric => levenberg_marquardt_with(
            lm,
            &|p: &[f64], out: &mut Vec<f64>| {
                slope_residuals_and_jacobian_2d(observations, p, config, out, None)
            },
            p0,
            &SLOPE_STEPS_2D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Gauss–Newton covariance at the solution — the frozen copy of the
/// facade's uncertainty propagation, with the Jacobian evaluated per
/// `jacobian` (pinned here so the oracle stays closed under future
/// changes).
#[allow(clippy::needless_range_loop)]
fn estimate_uncertainty(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Reference2DConfig,
    jacobian: Jacobian,
    scratch: &mut UncertScratch,
) -> (f64, f64, [[f64; 2]; 2]) {
    let n = p.len();
    let UncertScratch { r, r_minus, work, jac, jtj, cov, e } = scratch;
    jac.clear();
    match jacobian {
        Jacobian::Analytic => {
            residuals_and_jacobian_2d(observations, p, config, r, Some(jac));
        }
        Jacobian::Numeric => {
            residuals_and_jacobian_2d(observations, p, config, r, None);
            let m = r.len();
            jac.resize(m * n, 0.0);
            work.clear();
            work.extend_from_slice(p);
            for j in 0..n {
                let h = JOINT_STEPS_2D[j];
                work[j] = p[j] + h;
                residuals_and_jacobian_2d(observations, work, config, r, None);
                work[j] = p[j] - h;
                residuals_and_jacobian_2d(observations, work, config, r_minus, None);
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

/// RSSI-consistency penalty of a candidate 2-D mode `(pos, α)`.
fn rssi_mode_penalty(
    observations: &[AntennaObservation],
    pos: Vec2,
    alpha: f64,
    sigma_db: f64,
) -> f64 {
    if !sigma_db.is_finite() || sigma_db <= 0.0 {
        return 0.0;
    }
    let w = planar_dipole(alpha);
    rssi_penalty_core(
        observations.iter().map(|o| {
            let d = o.pose.position().distance(pos.with_z(0.0));
            (o.mean_rssi_dbm, d, projection_magnitude(&o.pose, w))
        }),
        sigma_db,
    )
}

/// RSSI penalty over distances and projections already in hand.
fn rssi_penalty_precomputed(
    observations: &[AntennaObservation],
    dists: &[f64],
    projs: &[f64],
    sigma_db: f64,
) -> f64 {
    rssi_penalty_core(
        observations
            .iter()
            .zip(dists)
            .zip(projs)
            .map(|((o, &d), &proj)| (o.mean_rssi_dbm, d, proj)),
        sigma_db,
    )
}

/// The penalty kernel over `(rssi dBm, distance, projection)` triples.
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

/// The 2N sigma-normalized residuals at `p = (x, y, α, k_t, b_t)` plus,
/// when `jac` is given, their row-major `2N × 5` analytic Jacobian — the
/// scalar pre-lane loop.
fn residuals_and_jacobian_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Reference2DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec2::new(p[0], p[1]).with_z(0.0);
    let alpha = p[2];
    let w = planar_dipole(alpha);
    let dw = Vec3::new(-alpha.sin(), 0.0, alpha.cos());
    let (kt, bt) = (p[3], p[4]);
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 2 * 5, 0.0);
    }
    let k1 = propagation::slope_from_distance(1.0); // 4π/c
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        let k_model = propagation::slope_from_distance(d) + kt;
        r.push((o.slope - k_model) / config.slope_sigma);
        let uw = o.pose.u().dot(w);
        let vw = o.pose.v().dot(w);
        let denom = uw * uw + vw * vw;
        let theta = if denom < 1e-24 {
            0.0
        } else {
            (2.0 * uw * vw).atan2(uw * uw - vw * vw)
        };
        let b_model = theta + bt;
        r.push(angle::wrap_pi(o.intercept - b_model) / config.intercept_sigma);
        if let Some(j) = jac.as_deref_mut() {
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
}

/// The N sigma-normalized slope residuals at `p = (x, y, k_t)` and their
/// optional `N × 3` analytic Jacobian — the scalar pre-lane loop.
fn slope_residuals_and_jacobian_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Reference2DConfig,
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
    let k1 = propagation::slope_from_distance(1.0);
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
        if let Some(j) = jac.as_deref_mut() {
            let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
            j[i * 3] = g * (pos.x - ap.x);
            j[i * 3 + 1] = g * (pos.y - ap.y);
            j[i * 3 + 2] = -1.0 / config.slope_sigma;
        }
    }
}

/// In-place Cholesky factorization `A = LLᵀ` (frozen copy; see the solver
/// module's version for the contract).
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

/// Solves `LLᵀ x = b` in place against a [`cholesky_factor`] factor.
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

// ---------------------------------------------------------------------------
// 3-D reference solver
// ---------------------------------------------------------------------------

/// Scratch buffers of the frozen 3-D solver — the pre-refactor
/// `Solver3DWorkspace` shape.
#[derive(Debug, Default)]
pub struct Reference3DWorkspace {
    lm: LmWorkspace,
    position_candidates: Vec<(Vec<f64>, f64, usize)>,
    coarse: Vec<(f64, usize, f64)>,
    dipole_ranked: Vec<(f64, f64, f64, f64)>,
    dists: Vec<f64>,
    orient_row: Vec<f64>,
    proj_row: Vec<f64>,
    refined: Vec<(Vec<f64>, f64)>,
}

impl Reference3DWorkspace {
    /// The LM work counters accumulated by every solve run against this
    /// workspace (see [`LmWorkspace::stats`]).
    pub fn stats(&self) -> SolveStats {
        self.lm.stats()
    }
}

/// True when the multi-start scan runs the legacy exhaustive loop.
fn is_exhaustive_3d(config: &Reference3DConfig) -> bool {
    config.refine_top_k.is_none() && config.early_exit_rel_tol <= 0.0
}

fn dipole_from_angles(theta: f64, phi: f64) -> Vec3 {
    let (st, ct) = theta.sin_cos();
    let (sp, cp) = phi.sin_cos();
    Vec3::new(st * cp, st * sp, ct)
}

/// The frozen pre-lane-core
/// [`solve_3d_seeded_warm`](rfp_core::solver3d::solve_3d_seeded_warm):
/// bit-exact oracle of the facade for identical inputs, refining with the
/// given `jacobian`.
///
/// # Errors
///
/// [`Solve3DError::TooFewAntennas`] with fewer than 4 observations.
pub fn solve_3d_reference(
    observations: &[AntennaObservation],
    seeds: &Reference3DSeeds,
    config: &Reference3DConfig,
    jacobian: Jacobian,
    workspace: &mut Reference3DWorkspace,
    warm: Option<&WarmStart3D>,
) -> Result<TagEstimate3D, Solve3DError> {
    if observations.len() < 4 {
        return Err(Solve3DError::TooFewAntennas { provided: observations.len() });
    }
    let n_obs = observations.len();
    let geometry = seeds.geometry.as_ref().filter(|g| g.matches(observations));
    let Reference3DWorkspace {
        lm,
        position_candidates,
        coarse,
        dipole_ranked,
        dists,
        orient_row,
        proj_row,
        refined,
    } = workspace;

    let admissible_xy = seeds.admissible;
    let (z_lo_adm, z_hi_adm) = seeds.z_bounds;
    let inside = |p: &[f64]| {
        admissible_xy.contains(Vec2::new(p[0], p[1]))
            && p[2] >= z_lo_adm
            && p[2] <= z_hi_adm
    };
    let mode_penalty = |pos: Vec3, w: Vec3| {
        if !config.rssi_sigma_db.is_finite() || config.rssi_sigma_db <= 0.0 {
            return 0.0;
        }
        rssi_penalty_core(
            observations.iter().map(|o| {
                (
                    o.mean_rssi_dbm,
                    o.pose.position().distance(pos),
                    projection_magnitude(&o.pose, w),
                )
            }),
            config.rssi_sigma_db,
        )
    };

    // Coarse ranking of every (x, y, z) seed by its unrefined slope cost.
    coarse.clear();
    if warm.is_some() || !is_exhaustive_3d(config) {
        for (s, &pos) in seeds.position_starts.iter().enumerate() {
            let (kt0, cost) = coarse_seed_cost_3d(observations, geometry, s, pos, config);
            coarse.push((cost, s, kt0));
        }
        coarse.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
        });
    }

    // Warm start: refine the prior first and gate against the coarse-scan
    // floor.
    if let Some(w) = warm {
        let wd = w.dipole.normalized();
        let theta = wd.z.clamp(-1.0, 1.0).acos();
        let phi = wd.y.atan2(wd.x);
        let wp0 =
            vec![w.position.x, w.position.y, w.position.z, theta, phi, w.kt, w.bt];
        let (p, cost) = refine_joint_3d(lm, observations, config, jacobian, wp0);
        let key = cost
            + mode_penalty(Vec3::new(p[0], p[1], p[2]), dipole_from_angles(p[3], p[4]));
        let (_, best_seed, best_kt) = coarse[0];
        let pos = seeds.position_starts[best_seed];
        let (sp, _) = refine_slope_3d(
            lm,
            observations,
            config,
            jacobian,
            vec![pos.x, pos.y, pos.z, best_kt],
        );
        scan_dipoles_3d(
            observations,
            geometry,
            config,
            seeds.rings,
            (sp[0], sp[1], sp[2], sp[3]),
            dists,
            orient_row,
            proj_row,
            dipole_ranked,
        );
        let floor = dipole_ranked.first().map_or(f64::INFINITY, |&(_, _, _, c)| c);
        if inside(&p) && key <= floor * (1.0 + config.warm_gate_rel_tol) + 1e-9 {
            return Ok(build_estimate_3d(observations, &p, cost));
        }
    }

    // Stage 1: slope-only position solve over (x, y, z, k_t).
    position_candidates.clear();
    if is_exhaustive_3d(config) {
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
            let p0 = vec![pos.x, pos.y, pos.z, kt0];
            let (p, cost) = refine_slope_3d(lm, observations, config, jacobian, p0);
            position_candidates.push((p, cost, s));
        }
        // Stable sort on cost alone: ties keep grid (push) order.
        position_candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
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
            let p0 = vec![pos.x, pos.y, pos.z, kt0];
            let (p, cost) = refine_slope_3d(lm, observations, config, jacobian, p0);
            best_refined = best_refined.min(cost);
            position_candidates.push((p, cost, s));
        }
        position_candidates.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
        });
    }
    // Keep every distinct in-volume candidate (deduplicated to 10 cm, by
    // index) and let the joint stage pick.
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

    // Stage 2: dipole scan with closed-form b_t, then stage 3: joint
    // 7-parameter refinement from the best seeds.
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
            orient_row,
            proj_row,
            dipole_ranked,
        );
        for (rank, &(theta, phi, bt0, scan_cost)) in
            dipole_ranked.iter().take(3).enumerate()
        {
            if config.early_exit_rel_tol > 0.0 && rank >= 2 {
                if let Some((_, k)) = best_any {
                    if scan_cost > k * (1.0 + config.early_exit_rel_tol) {
                        break;
                    }
                }
            }
            let p0 = vec![cx, cy, cz, theta, phi, ckt, bt0];
            let (p, cost) = refine_joint_3d(lm, observations, config, jacobian, p0);
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
    Ok(build_estimate_3d(observations, &p, cost))
}

/// The cheap stage-1 score of one 3-D grid seed: closed-form `k_t` and the
/// unrefined slope cost.
fn coarse_seed_cost_3d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    s: usize,
    pos: Vec3,
    config: &Reference3DConfig,
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
/// sorted best-first.
#[allow(clippy::too_many_arguments)]
fn scan_dipoles_3d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    config: &Reference3DConfig,
    rings: usize,
    candidate: (f64, f64, f64, f64),
    dists: &mut Vec<f64>,
    orient_row: &mut Vec<f64>,
    proj_row: &mut Vec<f64>,
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
    dipole_ranked.clear();
    for ti in 0..rings {
        // Polar rings from near-pole to equator.
        let theta = std::f64::consts::FRAC_PI_2 * (ti as f64 + 0.5) / rings as f64;
        for pi in 0..(2 * rings) {
            let phi = std::f64::consts::TAU * pi as f64 / (2 * rings) as f64;
            let dir = ti * 2 * rings + pi;
            let (orow, prow): (&[f64], &[f64]) = match geometry {
                Some(g) => (
                    &g.orient[dir * n_obs..(dir + 1) * n_obs],
                    &g.proj[dir * n_obs..(dir + 1) * n_obs],
                ),
                None => {
                    let w0 = dipole_from_angles(theta, phi);
                    orient_row.clear();
                    proj_row.clear();
                    for o in observations {
                        orient_row.push(orientation_phase(&o.pose, w0));
                        proj_row.push(projection_magnitude(&o.pose, w0));
                    }
                    (orient_row.as_slice(), proj_row.as_slice())
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
            cost += rssi_penalty_precomputed(observations, dists, prow, config.rssi_sigma_db);
            dipole_ranked.push((theta, phi, bt0, cost));
        }
    }
    dipole_ranked.sort_by(|a, b| a.3.partial_cmp(&b.3).expect("finite costs"));
}

/// Final-estimate assembly: dipole canonicalization (`z ≥ 0`) plus
/// wrapping of `b_t`.
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

/// Finite-difference steps of the numeric-fallback joint solve:
/// x, y, z (m), θ, φ (rad), k_t (rad/Hz), b_t (rad).
const JOINT_STEPS_3D: [f64; 7] = [1e-4, 1e-4, 1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
/// Steps of the numeric-fallback slope-only (stage-1) solve: x, y, z, k_t.
const SLOPE_STEPS_3D: [f64; 4] = [1e-4, 1e-4, 1e-4, 1e-13];

/// Joint 7-parameter LM refinement, dispatched on `jacobian`.
fn refine_joint_3d(
    lm: &mut LmWorkspace,
    observations: &[AntennaObservation],
    config: &Reference3DConfig,
    jacobian: Jacobian,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match jacobian {
        Jacobian::Analytic => levenberg_marquardt_analytic_with(
            lm,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                residuals_and_jacobian_3d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        Jacobian::Numeric => levenberg_marquardt_with(
            lm,
            &|p: &[f64], out: &mut Vec<f64>| {
                residuals_and_jacobian_3d(observations, p, config, out, None)
            },
            p0,
            &JOINT_STEPS_3D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Stage-1 slope-only LM refinement over `(x, y, z, k_t)`, dispatched on
/// `jacobian`.
fn refine_slope_3d(
    lm: &mut LmWorkspace,
    observations: &[AntennaObservation],
    config: &Reference3DConfig,
    jacobian: Jacobian,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match jacobian {
        Jacobian::Analytic => levenberg_marquardt_analytic_with(
            lm,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                slope_residuals_and_jacobian_3d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        Jacobian::Numeric => levenberg_marquardt_with(
            lm,
            &|p: &[f64], out: &mut Vec<f64>| {
                slope_residuals_and_jacobian_3d(observations, p, config, out, None)
            },
            p0,
            &SLOPE_STEPS_3D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// The 2N sigma-normalized residuals at `p = (x, y, z, θ, φ, k_t, b_t)`
/// plus, when `jac` is given, their row-major `2N × 7` analytic Jacobian —
/// the scalar pre-lane loop.
fn residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Reference3DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec3::new(p[0], p[1], p[2]);
    let (st, ct) = p[3].sin_cos();
    let (sp, cp) = p[4].sin_cos();
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
    let k1 = propagation::slope_from_distance(1.0); // 4π/c
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
        let uw = o.pose.u().dot(w);
        let vw = o.pose.v().dot(w);
        let denom = uw * uw + vw * vw;
        let theta = if denom < 1e-24 {
            0.0
        } else {
            (2.0 * uw * vw).atan2(uw * uw - vw * vw)
        };
        r.push(angle::wrap_pi(o.intercept - theta - bt) / config.intercept_sigma);
        if let Some(j) = jac.as_deref_mut() {
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
}

/// The N sigma-normalized slope residuals at `p = (x, y, z, k_t)` and
/// their optional `N × 4` analytic Jacobian — the scalar pre-lane loop.
fn slope_residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Reference3DConfig,
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
    let k1 = propagation::slope_from_distance(1.0);
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
        if let Some(j) = jac.as_deref_mut() {
            let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
            j[i * 4] = g * (pos.x - ap.x);
            j[i * 4 + 1] = g * (pos.y - ap.y);
            j[i * 4 + 2] = g * (pos.z - ap.z);
            j[i * 4 + 3] = -1.0 / config.slope_sigma;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_core::model::{extract_observation, ExtractConfig};
    use rfp_sim::{Motion, Scene, SimTag};

    fn region() -> Region2 {
        Scene::standard_2d().region()
    }

    #[test]
    fn lm_minimizes_quadratic() {
        // Sanity-check the numeric LM core on a known problem:
        // fit y = a·x + b.
        let data: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 - 3.0)).collect();
        let residual = |p: &[f64], out: &mut Vec<f64>| {
            out.clear();
            for (x, y) in &data {
                out.push(y - (p[0] * x + p[1]));
            }
        };
        let mut ws = LmWorkspace::default();
        let (p, cost) =
            levenberg_marquardt_with(&mut ws, &residual, vec![0.0, 0.0], &[1e-5, 1e-5], 100, 1e-14);
        assert!((p[0] - 2.0).abs() < 1e-6);
        assert!((p[1] + 3.0).abs() < 1e-6);
        assert!(cost < 1e-10);
    }

    #[test]
    fn analytic_lm_minimizes_quadratic() {
        // Same fit through the analytic core: r = y − (a·x + b),
        // ∂r/∂a = −x, ∂r/∂b = −1.
        let data: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 - 3.0)).collect();
        let resjac = |p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
            r.clear();
            let mut jac = jac;
            if let Some(j) = jac.as_deref_mut() {
                j.clear();
            }
            for (x, y) in &data {
                r.push(y - (p[0] * x + p[1]));
                if let Some(j) = jac.as_deref_mut() {
                    j.push(-x);
                    j.push(-1.0);
                }
            }
        };
        let mut ws = LmWorkspace::default();
        let (p, cost) =
            levenberg_marquardt_analytic_with(&mut ws, &resjac, vec![0.0, 0.0], 100, 1e-14);
        assert!((p[0] - 2.0).abs() < 1e-6);
        assert!((p[1] + 3.0).abs() < 1e-6);
        assert!(cost < 1e-10);
    }

    #[test]
    fn solve_linear_rejects_singular() {
        let mut a = [1.0, 2.0, 2.0, 4.0];
        let mut b = [1.0, 2.0];
        assert!(!solve_linear_in_place(&mut a, 2, &mut b));
        let mut a = [2.0, 0.0, 0.0, 0.5];
        let mut x = [4.0, 1.0];
        assert!(solve_linear_in_place(&mut a, 2, &mut x));
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_pivots_correctly() {
        // Requires a row swap (zero leading pivot); check A·x = b.
        let a0 = [0.0, 2.0, 1.0, 1.0, 1.0, 0.5, 3.0, 0.1, 2.0];
        let b0 = [1.0, 2.0, 3.0];
        let mut a = a0;
        let mut x = b0;
        assert!(solve_linear_in_place(&mut a, 3, &mut x));
        for i in 0..3 {
            let ax: f64 = (0..3).map(|j| a0[i * 3 + j] * x[j]).sum();
            assert!((ax - b0[i]).abs() < 1e-10, "row {i}: {ax} vs {}", b0[i]);
        }
    }

    #[test]
    fn reference_2d_recovers_noisy_truth() {
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
        let config = Reference2DConfig::default();
        let seeds = Reference2DSeeds::for_scene(region(), &config, &scene.antenna_poses());
        let mut ws = Reference2DWorkspace::default();
        let est =
            solve_2d_reference(&obs, &seeds, &config, Jacobian::Analytic, &mut ws, None).unwrap();
        let err_cm = est.position.distance(truth) * 100.0;
        assert!(err_cm < 30.0, "error {err_cm} cm");
    }

    #[test]
    fn reference_3d_recovers_noisy_truth() {
        let scene = Scene::six_antenna_3d();
        let truth = Vec3::new(0.7, 1.1, 0.5);
        let dipole = Vec3::new(0.4, 0.6, 0.9).normalized();
        let tag = SimTag::nominal(1)
            .with_motion(Motion::Static { position: truth, dipole });
        let survey = scene.survey(&tag, 7);
        let obs: Vec<AntennaObservation> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect();
        let config = Reference3DConfig::default();
        let seeds = Reference3DSeeds::for_scene(
            scene.region(),
            (0.0, 1.0),
            &config,
            &scene.antenna_poses(),
        );
        let mut ws = Reference3DWorkspace::default();
        let est =
            solve_3d_reference(&obs, &seeds, &config, Jacobian::Analytic, &mut ws, None).unwrap();
        assert!(est.position.distance(truth) < 0.35, "pos {}", est.position);
    }
}
