//! BackPos-style hyperbolic positioning (extra baseline).
//!
//! BackPos (Liu et al., IEEE TMC'15) positions a tag from *differences* of
//! phase observations between antenna pairs, which cancels every
//! tag-common term — including, in the multi-frequency form implemented
//! here, the material slope `k_t`. Each pair constrains the tag to a
//! hyperbola `d_i − d_j = Δ_ij`; the intersection is found by nonlinear
//! least squares.
//!
//! This makes BackPos immune to material/orientation by construction, but
//! it throws away the common-mode information RF-Prism keeps: it estimates
//! position only (no orientation, no material parameters), and each
//! difference carries √2 of the per-antenna ranging noise.

use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig, ExtractError};
use rfp_core::{LmCore, ResidualModel};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{AntennaPose, Region2, Vec2, Vec3};
use rfp_phys::propagation;

/// LM iteration cap per seed.
const MAX_ITERATIONS: usize = 60;
/// Relative cost-decrease tolerance of the LM refinement.
const TOLERANCE: f64 = 1e-12;

/// Errors from [`BackPos::localize`].
#[derive(Debug, Clone, PartialEq)]
pub enum BackPosError {
    /// Fewer than three antennas yielded observations (two hyperbolas are
    /// needed for a 2-D fix).
    TooFewObservations {
        /// Usable antennas.
        usable: usize,
        /// First extraction failure, if any.
        first_error: Option<ExtractError>,
    },
}

impl std::fmt::Display for BackPosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackPosError::TooFewObservations { usable, .. } => {
                write!(f, "only {usable} usable antennas; BackPos needs at least 3")
            }
        }
    }
}

impl std::error::Error for BackPosError {}

/// The BackPos baseline localizer.
#[derive(Debug, Clone)]
pub struct BackPos {
    poses: Vec<AntennaPose>,
    region: Region2,
}

impl BackPos {
    /// Creates a localizer for antennas at `poses`, seeding its search over
    /// `region`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 poses are supplied.
    pub fn new(poses: Vec<AntennaPose>, region: Region2) -> Self {
        assert!(poses.len() >= 3, "BackPos needs at least three antennas");
        BackPos { poses, region }
    }

    /// Localizes a tag from one hop round of raw reads.
    ///
    /// # Errors
    ///
    /// [`BackPosError::TooFewObservations`] when fewer than 3 antennas
    /// yield usable observations.
    ///
    /// # Panics
    ///
    /// Panics if `reads_per_antenna.len()` differs from the pose count.
    pub fn localize(&self, reads_per_antenna: &[Vec<RawRead>]) -> Result<Vec2, BackPosError> {
        let model = self.hyperbolas(reads_per_antenna)?;
        let mut core = LmCore::<2>::default();
        Ok(self.best_fix(|seed| core.refine(&model, seed, MAX_ITERATIONS, TOLERANCE)))
    }

    /// Extracts one observation per antenna and forms the pairwise range
    /// differences from slope differences (`k_t` cancels).
    fn hyperbolas(
        &self,
        reads_per_antenna: &[Vec<RawRead>],
    ) -> Result<PairHyperbolas, BackPosError> {
        assert_eq!(
            reads_per_antenna.len(),
            self.poses.len(),
            "one read group per antenna"
        );
        let mut observations = Vec::new();
        let mut first_error = None;
        for (pose, reads) in self.poses.iter().zip(reads_per_antenna) {
            match extract_observation(*pose, reads, &ExtractConfig::paper()) {
                Ok(o) => observations.push(o),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if observations.len() < 3 {
            return Err(BackPosError::TooFewObservations {
                usable: observations.len(),
                first_error,
            });
        }
        let mut pairs = Vec::new();
        for i in 0..observations.len() {
            for j in (i + 1)..observations.len() {
                let delta = propagation::distance_from_slope(
                    observations[i].slope - observations[j].slope,
                );
                pairs.push((i, j, delta));
            }
        }
        Ok(PairHyperbolas { observations, pairs })
    }

    /// Refines every seed of a 5×5 grid over the region with `refine` and
    /// keeps the lowest-cost fix inside the (slightly expanded) region;
    /// the region centre when none lands inside.
    fn best_fix(&self, mut refine: impl FnMut([f64; 2]) -> ([f64; 2], f64)) -> Vec2 {
        let mut best: Option<([f64; 2], f64)> = None;
        for seed in self.region.grid(5, 5) {
            let (p, cost) = refine([seed.x, seed.y]);
            let inside = self.region.expanded(0.3).contains(Vec2::new(p[0], p[1]));
            if inside && best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((p, cost));
            }
        }
        let (p, _) = best.unwrap_or_else(|| {
            let c = self.region.center();
            ([c.x, c.y], f64::INFINITY)
        });
        Vec2::new(p[0], p[1])
    }
}

/// The pair hyperbolas `d_i − d_j = Δ_ij` as a 2-parameter least-squares
/// model over the tag position `(x, y)`, one residual per antenna pair
/// scaled by a 1 cm ranging σ.
struct PairHyperbolas {
    observations: Vec<AntennaObservation>,
    /// `(i, j, Δ_ij)` over every antenna pair `i < j`.
    pairs: Vec<(usize, usize, f64)>,
}

impl ResidualModel<2> for PairHyperbolas {
    /// The pair residuals and, when asked, their analytic Jacobian: the
    /// gradient of a distance is the unit vector from the antenna to the
    /// tag, so row `(i, j)` is `(uᵢ − uⱼ) / 0.01` over `(x, y)`.
    fn eval(&self, p: &[f64; 2], r: &mut Vec<f64>, mut jac: Option<&mut Vec<f64>>) {
        r.clear();
        if let Some(rows) = jac.as_deref_mut() {
            rows.clear();
        }
        let pos = Vec2::new(p[0], p[1]).with_z(0.0);
        for &(i, j, delta) in &self.pairs {
            let (di, ui) = range(self.observations[i].pose.position(), pos);
            let (dj, uj) = range(self.observations[j].pose.position(), pos);
            r.push((di - dj - delta) / 0.01);
            if let Some(rows) = jac.as_deref_mut() {
                rows.push((ui.x - uj.x) / 0.01);
                rows.push((ui.y - uj.y) / 0.01);
            }
        }
    }
}

/// The distance from an antenna at `a` to the tag at `pos`, and its
/// gradient in the tag position: the unit vector from the antenna to the
/// tag, zero when the tag sits on the antenna.
fn range(a: Vec3, pos: Vec3) -> (f64, Vec3) {
    let d = a.distance(pos);
    let u = if d > 1e-12 { (pos - a) / d } else { Vec3::ZERO };
    (d, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfp_oracle::solver::{levenberg_marquardt_analytic_with, LmWorkspace};
    use rfp_phys::Material;
    use rfp_sim::{HopSurvey, Motion, NoiseModel, ReaderConfig, Scene, SimTag};

    /// The clean scene of `localizes_and_ignores_material`: one survey per
    /// material, all at the same truth.
    fn clean_surveys() -> (Scene, Vec2, Vec<(Material, HopSurvey)>) {
        let scene = Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec2::new(0.8, 1.3);
        let surveys = [Material::Plastic, Material::Metal, Material::Water]
            .into_iter()
            .map(|m| {
                let tag = SimTag::nominal(1)
                    .attached_to(m)
                    .with_motion(Motion::planar_static(truth, 0.4));
                (m, scene.survey(&tag, 9))
            })
            .collect();
        (scene, truth, surveys)
    }

    /// The noisy scene of `noisy_localization_reasonable`.
    fn noisy_survey() -> (Scene, Vec2, HopSurvey) {
        let scene = Scene::standard_2d();
        let truth = Vec2::new(0.2, 1.9);
        let tag = SimTag::with_seeded_diversity(4)
            .with_motion(Motion::planar_static(truth, 1.2));
        let survey = scene.survey(&tag, 10);
        (scene, truth, survey)
    }

    #[test]
    fn localizes_and_ignores_material() {
        let (scene, truth, surveys) = clean_surveys();
        let bp = BackPos::new(scene.antenna_poses(), scene.region());
        for (m, survey) in &surveys {
            let est = bp.localize(&survey.per_antenna).unwrap();
            let err_cm = est.distance(truth) * 100.0;
            assert!(err_cm < 15.0, "{m}: error {err_cm} cm");
        }
    }

    #[test]
    fn noisy_localization_reasonable() {
        let (scene, truth, survey) = noisy_survey();
        let bp = BackPos::new(scene.antenna_poses(), scene.region());
        let est = bp.localize(&survey.per_antenna).unwrap();
        assert!(est.distance(truth) < 0.5, "error {}", est.distance(truth));
    }

    /// The same 5×5 seed loop on the frozen dynamic analytic core.
    fn localize_on_dynamic_core(bp: &BackPos, reads: &[Vec<RawRead>]) -> Vec2 {
        let model = bp.hyperbolas(reads).unwrap();
        let resjac = |p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
            model.eval(&[p[0], p[1]], r, jac);
        };
        let mut ws = LmWorkspace::default();
        bp.best_fix(|seed| {
            let (p, cost) = levenberg_marquardt_analytic_with(
                &mut ws,
                &resjac,
                seed.to_vec(),
                MAX_ITERATIONS,
                TOLERANCE,
            );
            ([p[0], p[1]], cost)
        })
    }

    #[test]
    fn lm_core_port_is_bit_identical_to_dynamic_core() {
        let (scene, _, surveys) = clean_surveys();
        let (_, _, noisy) = noisy_survey();
        let bp = BackPos::new(scene.antenna_poses(), scene.region());
        let rounds = surveys.iter().map(|(_, s)| s).chain(std::iter::once(&noisy));
        for survey in rounds {
            let ported = bp.localize(&survey.per_antenna).unwrap();
            let dynamic = localize_on_dynamic_core(&bp, &survey.per_antenna);
            assert_eq!(ported.x.to_bits(), dynamic.x.to_bits());
            assert_eq!(ported.y.to_bits(), dynamic.y.to_bits());
        }
    }

    /// Asserts every analytic Jacobian entry of `model` at `p` matches
    /// central differences (1e-5 m steps) to 1e-6.
    fn assert_jacobian_matches(model: &PairHyperbolas, p: [f64; 2]) {
        let (mut r, mut jac, mut r_plus, mut r_minus) = (vec![], vec![], vec![], vec![]);
        model.eval(&p, &mut r, Some(&mut jac));
        assert_eq!(jac.len(), 2 * r.len());
        let h = 1e-5;
        for k in 0..2 {
            let (mut plus, mut minus) = (p, p);
            plus[k] += h;
            minus[k] -= h;
            model.eval(&plus, &mut r_plus, None);
            model.eval(&minus, &mut r_minus, None);
            for row in 0..r.len() {
                let num = (r_plus[row] - r_minus[row]) / (2.0 * h);
                let ana = jac[row * 2 + k];
                assert!(
                    (ana - num).abs() <= 1e-6 * (1.0 + ana.abs().max(num.abs())),
                    "at {p:?}, entry ({row}, {k}): analytic {ana} vs central-diff {num}"
                );
            }
        }
    }

    #[test]
    fn jacobian_matches_central_differences() {
        let (scene, _, surveys) = clean_surveys();
        let bp = BackPos::new(scene.antenna_poses(), scene.region());
        let model = bp.hyperbolas(&surveys[0].1.per_antenna).unwrap();
        let around = scene.region().expanded(0.5);
        let (lo, hi) = (around.min(), around.max());
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let p = [rng.gen_range(lo.x..hi.x), rng.gen_range(lo.y..hi.y)];
            assert_jacobian_matches(&model, p);
        }
        // A tag on an antenna (one moved onto the tag plane): that
        // antenna's distance has no gradient, and every row stays finite.
        let mut on_plane = model;
        let target = scene.region().center();
        on_plane.observations[0].pose = AntennaPose::planar(Vec2::ZERO, target, 0.0);
        let (mut r, mut jac) = (Vec::new(), Vec::new());
        on_plane.eval(&[0.0, 0.0], &mut r, Some(&mut jac));
        assert!(r.iter().chain(&jac).all(|v| v.is_finite()), "rows {r:?}, Jacobian {jac:?}");
        assert_jacobian_matches(&on_plane, [0.4, 1.1]);
    }

    #[test]
    fn too_few_antennas() {
        let scene = Scene::standard_2d();
        let bp = BackPos::new(scene.antenna_poses(), scene.region());
        assert!(matches!(
            bp.localize(&[Vec::new(), Vec::new(), Vec::new()]),
            Err(BackPosError::TooFewObservations { usable: 0, .. })
        ));
    }
}
