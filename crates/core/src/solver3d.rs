//! 3-D disentangling (paper §VII future work).
//!
//! "One of them is to perform the system in 3D space, which is totally
//! feasible as long as increasing the number of antenna to 4." — with four
//! antennas there are 8 fitted parameters against 7 unknowns: position
//! `(x, y, z)`, the dipole direction (two angles — a dipole is an axis, so
//! a point on the half-sphere), and the material terms `(k_t, b_t)`.
//!
//! The 3-D solve runs through the same facade as the 2-D one
//! ([`crate::solver`]): multi-start seeds with their geometry tables,
//! coarse seed ranking, warm-start gate, stage-1 slope solve, orientation
//! scan and joint short-list are shared, with `LmCore<7>` / `LmCore<4>`
//! refining the joint and stage-1 problems. This module supplies only the
//! 3-D scene dimension ([`Spatial`]): the residual kernels with the
//! analytic Jacobian of DESIGN.md §6 (spherical-angle dipole
//! parameterization), the θ/φ ring scan over the dipole half-sphere, the
//! admissible volume and the estimate assembly. The pre-refactor solver is
//! frozen verbatim in the dev-only `rfp-oracle` crate as the bit-identity
//! oracle.

use crate::lm::LmCore;
use crate::model::AntennaObservation;
use crate::obs;
use crate::solver::{
    seeds_for_scene, solve, SceneDim, Seeds, SolverConfig, Workspace, INTERCEPT_SIGMA,
    SLOPE_SIGMA,
};
use rfp_geom::{angle, AntennaPose, Region2, Vec3};
use rfp_phys::propagation;

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
}

/// The 3-D solver's multi-start seeds: an (x, y) grid × z levels over the
/// `region × z_range` box (see [`Seeds`]).
pub type Solve3DSeeds = Seeds<Spatial>;

/// The 3-D scene dimension: the tag anywhere in a `region × z_range` box,
/// its dipole an axis on the half-sphere, scanned in polar rings.
#[derive(Debug, Clone, Copy)]
pub struct Spatial {
    /// Expanded vertical bounds of the admissible volume.
    pub(crate) z_bounds: (f64, f64),
}

impl Spatial {
    /// Polar and azimuth angles `(θ, φ)` of scan direction
    /// `dir = ring·2·rings + azimuth`: rings from near-pole to equator.
    fn angles(dir: usize) -> (f64, f64) {
        let rings = Self::SCAN;
        let (ti, pi) = (dir / (2 * rings), dir % (2 * rings));
        let theta = std::f64::consts::FRAC_PI_2 * (ti as f64 + 0.5) / rings as f64;
        let phi = std::f64::consts::TAU * pi as f64 / (2 * rings) as f64;
        (theta, phi)
    }
}

impl Solve3DSeeds {
    /// Precomputes the multi-start seeds for the `region × z_range` box,
    /// with the per-antenna geometry tables of deployment `poses` — the
    /// per-scene precomputation the 3-D pipeline and the batch engine use.
    pub fn for_scene(
        region: Region2,
        z_range: (f64, f64),
        _config: &SolverConfig,
        poses: &[AntennaPose],
    ) -> Self {
        let (z_lo, z_hi) = z_range;
        let dim = Spatial { z_bounds: (z_lo - 0.3, z_hi + 0.3) };
        seeds_for_scene(region, z_range, dim, poses)
    }
}

/// The 3-D solver's workspace (see [`Workspace`]).
pub type Solver3DWorkspace = Workspace<7, 4>;

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
    /// An observation's antenna pose is not in the seeds' deployment.
    UnknownAntenna,
}

impl std::fmt::Display for Solve3DError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Solve3DError::TooFewAntennas { provided } => {
                write!(f, "3-D disentangling needs at least 4 antennas, got {provided}")
            }
            Solve3DError::UnknownAntenna => {
                write!(f, "an observation's antenna is not in the seeds' deployment")
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
pub fn residuals_3d(observations: &[AntennaObservation], p: &[f64], out: &mut Vec<f64>) {
    residuals_and_jacobian_3d(observations, p, out, None);
}

/// [`residuals_3d`] plus, when `jac` is given, the row-major `2N × 7`
/// analytic Jacobian (DESIGN.md §6): the slope rows differentiate the
/// distance through all three position coordinates, and the intercept
/// rows apply the `θ′_orient` chain rule against `∂w/∂θ = (cosθ cosφ,
/// cosθ sinφ, −sinθ)` and `∂w/∂φ = (−sinθ sinφ, sinθ cosφ, 0)`.
pub fn residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
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
        joint_row_3d(&c[0], i, pos, w, wt, wp, kt, bt, k1, r, jac.as_deref_mut());
        joint_row_3d(&c[1], i + 1, pos, w, wt, wp, kt, bt, k1, r, jac.as_deref_mut());
        joint_row_3d(&c[2], i + 2, pos, w, wt, wp, kt, bt, k1, r, jac.as_deref_mut());
        joint_row_3d(&c[3], i + 3, pos, w, wt, wp, kt, bt, k1, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        joint_row_3d(o, i, pos, w, wt, wp, kt, bt, k1, r, jac.as_deref_mut());
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
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    r.push((o.slope - propagation::slope_from_distance(d) - kt) / SLOPE_SIGMA);
    let uw = o.pose.u().dot(w);
    let vw = o.pose.v().dot(w);
    let denom = uw * uw + vw * vw;
    // Same expression (and guard) as `orientation_phase`.
    let theta = if denom < 1e-24 {
        0.0
    } else {
        (2.0 * uw * vw).atan2(uw * uw - vw * vw)
    };
    r.push(angle::wrap_pi(o.intercept - theta - bt) / INTERCEPT_SIGMA);
    if let Some(j) = jac {
        let rs = 2 * i * 7;
        let g = if d > 1e-12 { -k1 / (d * SLOPE_SIGMA) } else { 0.0 };
        j[rs] = g * (pos.x - ap.x);
        j[rs + 1] = g * (pos.y - ap.y);
        j[rs + 2] = g * (pos.z - ap.z);
        j[rs + 5] = -1.0 / SLOPE_SIGMA;
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
        j[rb + 3] = -dtheta_t / INTERCEPT_SIGMA;
        j[rb + 4] = -dtheta_p / INTERCEPT_SIGMA;
        j[rb + 6] = -1.0 / INTERCEPT_SIGMA;
    }
}

/// The N sigma-normalized slope residuals at `p = (x, y, z, k_t)` and,
/// when `jac` is given, their row-major `N × 4` analytic Jacobian — the
/// stage-1 seeding problem.
fn slope_residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
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
        slope_row_3d(&c[0], i, pos, kt, k1, r, jac.as_deref_mut());
        slope_row_3d(&c[1], i + 1, pos, kt, k1, r, jac.as_deref_mut());
        slope_row_3d(&c[2], i + 2, pos, kt, k1, r, jac.as_deref_mut());
        slope_row_3d(&c[3], i + 3, pos, kt, k1, r, jac.as_deref_mut());
        i += 4;
    }
    for o in chunks.remainder() {
        slope_row_3d(o, i, pos, kt, k1, r, jac.as_deref_mut());
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
    r: &mut Vec<f64>,
    jac: Option<&mut [f64]>,
) {
    let ap = o.pose.position();
    let d = ap.distance(pos);
    r.push((o.slope - propagation::slope_from_distance(d) - kt) / SLOPE_SIGMA);
    if let Some(j) = jac {
        let g = if d > 1e-12 { -k1 / (d * SLOPE_SIGMA) } else { 0.0 };
        j[i * 4] = g * (pos.x - ap.x);
        j[i * 4 + 1] = g * (pos.y - ap.y);
        j[i * 4 + 2] = g * (pos.z - ap.z);
        j[i * 4 + 3] = -1.0 / SLOPE_SIGMA;
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
    config: &SolverConfig,
) -> Result<TagEstimate3D, Solve3DError> {
    let poses: Vec<AntennaPose> = observations.iter().map(|o| o.pose).collect();
    let seeds = Solve3DSeeds::for_scene(region, z_range, config, &poses);
    let mut workspace = Solver3DWorkspace::default();
    solve_3d_seeded_warm(observations, &seeds, config, &mut workspace, None)
}

/// [`solve_3d`] against precomputed [`Solve3DSeeds`] and a reusable
/// [`Solver3DWorkspace`], with an optional cross-round [`WarmStart3D`]
/// prior refined first and validated against the coarse-scan floor exactly
/// as in [`solve_2d_seeded_warm`](crate::solver::solve_2d_seeded_warm) — a
/// teleported tag fails the gate and falls back to the full scan. With
/// `warm = None` it produces bit-identical results to [`solve_3d`].
///
/// # Errors
///
/// [`Solve3DError::TooFewAntennas`] with fewer than 4 observations;
/// [`Solve3DError::UnknownAntenna`] when an observation's pose is not in
/// `seeds`' deployment.
pub fn solve_3d_seeded_warm(
    observations: &[AntennaObservation],
    seeds: &Solve3DSeeds,
    _config: &SolverConfig,
    workspace: &mut Solver3DWorkspace,
    warm: Option<&WarmStart3D>,
) -> Result<TagEstimate3D, Solve3DError> {
    solve(observations, seeds, workspace, warm, None)
}

impl SceneDim<7, 4> for Spatial {
    type Warm = WarmStart3D;
    type Estimate = TagEstimate3D;
    type Error = Solve3DError;
    const MIN_ANTENNAS: usize = 4;
    const GRID: [usize; 3] = [5, 5, 3];
    const SCAN: usize = 6;
    const MAX_ITERATIONS: usize = 80;
    const BEAM: usize = 16;
    const STAGE1_KEEP: usize = 6;
    const STAGE1_DEDUP_M: f64 = 0.10;
    const SHORTLIST: usize = 3;
    const SPANS: (&'static str, &'static str) = ("solve_3d", "dipole_scan");
    const COUNTERS: [usize; 4] = [
        obs::id::SOLVER3D_SOLVES,
        obs::id::SOLVER3D_ITERATIONS,
        obs::id::SOLVER3D_RESIDUAL_EVALS,
        obs::id::SOLVER3D_JACOBIAN_EVALS,
    ];

    fn too_few(provided: usize) -> Solve3DError {
        Solve3DError::TooFewAntennas { provided }
    }

    fn unknown_antenna() -> Solve3DError {
        Solve3DError::UnknownAntenna
    }

    fn joint_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    ) {
        residuals_and_jacobian_3d(observations, p, r, jac);
    }

    fn slope_rows(
        observations: &[AntennaObservation],
        p: &[f64],
        r: &mut Vec<f64>,
        jac: Option<&mut Vec<f64>>,
    ) {
        slope_residuals_and_jacobian_3d(observations, p, r, jac);
    }

    fn scan_len(&self) -> usize {
        Self::SCAN * 2 * Self::SCAN
    }

    fn scan_dipole(&self, dir: usize) -> Vec3 {
        let (theta, phi) = Spatial::angles(dir);
        dipole_from_angles(theta, phi)
    }

    fn joint_seed(&self, c: &[f64; 4], dir: usize, bt0: f64) -> [f64; 7] {
        let (theta, phi) = Spatial::angles(dir);
        [c[0], c[1], c[2], theta, phi, c[3], bt0]
    }

    fn admissible(&self, region: Region2, position: Vec3) -> bool {
        let (z_lo, z_hi) = self.z_bounds;
        region.contains(position.xy()) && position.z >= z_lo && position.z <= z_hi
    }

    fn dipole(p: &[f64; 7]) -> Vec3 {
        dipole_from_angles(p[3], p[4])
    }

    fn warm_params(w: &WarmStart3D) -> [f64; 7] {
        let d = w.dipole.normalized();
        let theta = d.z.clamp(-1.0, 1.0).acos();
        let phi = d.y.atan2(d.x);
        [w.position.x, w.position.y, w.position.z, theta, phi, w.kt, w.bt]
    }

    /// Dipole canonicalization (`z ≥ 0`) plus wrapping of `b_t`.
    fn estimate(
        observations: &[AntennaObservation],
        p: &[f64; 7],
        cost: f64,
        _core: &mut LmCore<7>,
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
            solve_3d(&obs, scene.region(), (0.0, 1.0), &SolverConfig::default()).unwrap();
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
            solve_3d(&obs, scene.region(), (0.0, 1.5), &SolverConfig::default()).unwrap();
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
            solve_3d(&obs, scene.region(), (0.0, 1.0), &SolverConfig::default()).unwrap();
        assert!(est.dipole.z >= 0.0);
        assert!(est.dipole_axis_error(dipole).to_degrees() < 10.0);
    }

    #[test]
    fn three_antennas_insufficient() {
        let scene = Scene::four_antenna_3d();
        let obs = observations_3d(&scene, Vec3::new(0.5, 1.5, 0.5), Vec3::X, 4);
        assert_eq!(
            solve_3d(&obs[..3], scene.region(), (0.0, 1.0), &SolverConfig::default())
                .unwrap_err(),
            Solve3DError::TooFewAntennas { provided: 3 }
        );
    }

    #[test]
    fn antenna_outside_the_deployment_is_unknown() {
        let scene = Scene::six_antenna_3d();
        let config = SolverConfig::default();
        let seeds =
            Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &scene.antenna_poses());
        let mut obs = observations_3d(&scene, Vec3::new(0.5, 1.5, 0.5), Vec3::X, 4);
        obs[4].pose = Scene::four_antenna_3d().antenna_poses()[0];
        let mut ws = Solver3DWorkspace::default();
        let err = solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None);
        assert_eq!(err.unwrap_err(), Solve3DError::UnknownAntenna);
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
        let p = [0.61, 1.39, 0.52, 0.65, 0.42, -1.1e-8, 0.5];
        let mut r = Vec::new();
        let mut jac = Vec::new();
        residuals_and_jacobian_3d(&obs, &p, &mut r, Some(&mut jac));
        // Central-difference steps: x, y, z (m), θ, φ (rad), k_t (rad/Hz),
        // b_t (rad).
        let steps = [1e-4, 1e-4, 1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
        let n = 7;
        let m = r.len();
        let mut r_plus = Vec::new();
        let mut r_minus = Vec::new();
        let mut work = p.to_vec();
        for j in 0..n {
            let h = steps[j];
            work[j] = p[j] + h;
            residuals_3d(&obs, &work, &mut r_plus);
            work[j] = p[j] - h;
            residuals_3d(&obs, &work, &mut r_minus);
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
    fn warm_start_3d_hit_skips_the_scan() {
        let scene = Scene::four_antenna_3d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec3::new(0.5, 1.4, 0.6);
        let dipole = Vec3::new(0.6, 0.3, 0.7).normalized();
        let obs = observations_3d(&scene, truth, dipole, 13);
        let config = SolverConfig::default();
        let seeds =
            Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &scene.antenna_poses());
        let mut ws = Solver3DWorkspace::default();
        let cold = solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None).unwrap();
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
        let p = Spatial::warm_params(&warm);
        let back = dipole_from_angles(p[3], p[4]);
        assert!(back.dot(w).abs() > 1.0 - 1e-12);
    }
}
