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
use rfp_geom::{AntennaPose, Region2, Vec2};
use rfp_phys::propagation;

/// Finite-difference steps of the hyperbola fit: x, y (m).
const STEPS: [f64; 2] = [1e-4, 1e-4];
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
        Ok(self.best_fix(|seed| {
            core.refine_numeric(&model, seed, &STEPS, MAX_ITERATIONS, TOLERANCE)
        }))
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
    /// Residuals only: BackPos refines through
    /// [`LmCore::refine_numeric`], which never requests a Jacobian.
    fn eval(&self, p: &[f64; 2], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
        debug_assert!(jac.is_none(), "BackPos uses the numeric Jacobian");
        r.clear();
        let pos = Vec2::new(p[0], p[1]).with_z(0.0);
        for &(i, j, delta) in &self.pairs {
            let di = self.observations[i].pose.position().distance(pos);
            let dj = self.observations[j].pose.position().distance(pos);
            r.push((di - dj - delta) / 0.01);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_oracle::solver::{levenberg_marquardt_with, LmWorkspace};
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

    /// The same 5×5 seed loop on the frozen dynamic numeric core.
    fn localize_on_dynamic_core(bp: &BackPos, reads: &[Vec<RawRead>]) -> Vec2 {
        let model = bp.hyperbolas(reads).unwrap();
        let residual = |p: &[f64], out: &mut Vec<f64>| model.eval(&[p[0], p[1]], out, None);
        let mut ws = LmWorkspace::default();
        bp.best_fix(|seed| {
            let (p, cost) = levenberg_marquardt_with(
                &mut ws,
                &residual,
                seed.to_vec(),
                &STEPS,
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
