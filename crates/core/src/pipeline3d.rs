//! The 3-D sensing pipeline (paper §VII future work, packaged like the 2-D
//! [`crate::RfPrism`]).
//!
//! With four antennas the 8 fitted line parameters over-determine the 7
//! unknowns `(x, y, z, dipole axis, k_t, b_t)`. Everything but the solve
//! is the 2-D pipeline's own code: raw-read pre-processing, multipath
//! suppression, the error detector, the sensing sequence and its
//! observation pools ([`SensingWorkspace`]), with [`solve_3d_seeded_warm`]
//! plugged in — the one solver facade of [`crate::solver`] on
//! [`LmCore<7>`](crate::LmCore).

use crate::batch::BatchCache3D;
use crate::model::extract_observation_into;
use crate::obs;
use crate::pipeline::{PipelineConfig, Sensing, SensingError, SensingWorkspace};
use crate::solver3d::{
    solve_3d_seeded_warm, Solve3DError, Solve3DSeeds, Solver3DWorkspace, TagEstimate3D,
    WarmStart3D,
};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{AntennaPose, Region2};
use rfp_phys::FrequencyPlan;
use std::sync::Arc;

/// Configuration of the 3-D pipeline: the 2-D one's type (see
/// [`PipelineConfig`]).
pub type RfPrism3DConfig = PipelineConfig;

/// Result of one 3-D sensing pass (see [`Sensing`]).
pub type Sensing3DResult = Sensing<TagEstimate3D>;

/// Errors from [`RfPrism3D::sense`] (see [`SensingError`]); at least 4
/// usable observations are needed.
pub type Sense3DError = SensingError<Solve3DError>;

impl std::fmt::Display for Sense3DError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sense3DError::AntennaCountMismatch { expected, got } => {
                write!(f, "expected reads for {expected} antennas, got {got}")
            }
            Sense3DError::TooFewObservations { usable, .. } => {
                write!(f, "only {usable} usable antenna observations; 3-D needs at least 4")
            }
            Sense3DError::TagMoving { worst_residual_std } => write!(
                f,
                "tag moved during the hop round (residual {worst_residual_std:.3} rad)"
            ),
            Sense3DError::Solve(e) => write!(f, "3-D solver failed: {e}"),
        }
    }
}

/// Reusable scratch for a full 3-D sensing pass (see
/// [`SensingWorkspace`]): DSP front-end columns, 3-D solver scratch and
/// recycled observation buffers, one per worker thread.
pub type Sense3DWorkspace = SensingWorkspace<Solver3DWorkspace>;

/// The 3-D RF-Prism pipeline.
#[derive(Debug, Clone)]
pub struct RfPrism3D {
    poses: Vec<AntennaPose>,
    plan: FrequencyPlan,
    region: Region2,
    z_range: (f64, f64),
    config: RfPrism3DConfig,
    /// The multi-start solver seeds of the scene (see [`crate::RfPrism`]).
    pub(crate) seeds: Arc<Solve3DSeeds>,
}

impl RfPrism3D {
    /// Creates a 3-D pipeline; `region` bounds (x, y) and `z_range` bounds
    /// the height search.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 poses are supplied or `z_range` is empty.
    pub fn new(
        poses: Vec<AntennaPose>,
        plan: FrequencyPlan,
        region: Region2,
        z_range: (f64, f64),
    ) -> Self {
        assert!(poses.len() >= 4, "3-D disentangling needs at least 4 antennas");
        assert!(z_range.1 > z_range.0, "empty z range");
        let config = RfPrism3DConfig::paper();
        let seeds = Arc::new(Solve3DSeeds::for_scene(region, z_range, &config.solver, &poses));
        RfPrism3D { poses, plan, region, z_range, config, seeds }
    }

    /// Overrides the configuration (builder style); the seeds depend on
    /// the scene alone, so they are kept.
    pub fn with_config(self, config: RfPrism3DConfig) -> Self {
        RfPrism3D { config, ..self }
    }

    /// The configured channel plan.
    pub fn plan(&self) -> &FrequencyPlan {
        &self.plan
    }

    /// Runs the pipeline on one hop round.
    ///
    /// # Errors
    ///
    /// See [`Sense3DError`].
    pub fn sense(
        &self,
        reads_per_antenna: &[Vec<RawRead>],
    ) -> Result<Sensing3DResult, Sense3DError> {
        self.sense_warm(reads_per_antenna, None)
    }

    /// [`RfPrism3D::sense`] with a warm-start prior — typically the
    /// previous round's estimate (via [`WarmStart3D::from_estimate`]). The
    /// prior is refined first; when it passes the solver's validation gate
    /// the multi-start scan is skipped, otherwise the solver falls back to
    /// the full (pruned) scan.
    pub fn sense_warm(
        &self,
        reads_per_antenna: &[Vec<RawRead>],
        warm: Option<&WarmStart3D>,
    ) -> Result<Sensing3DResult, Sense3DError> {
        self.sense_with(reads_per_antenna, &self.seeds, &mut Sense3DWorkspace::default(), warm)
    }

    /// [`RfPrism3D::sense_warm`] against the seeds of a [`BatchCache3D`] and a
    /// reusable [`Sense3DWorkspace`] — the allocation-free steady-state
    /// entry point (see [`crate::RfPrism::sense_reusing`]).
    ///
    /// # Errors
    ///
    /// As [`RfPrism3D::sense`], plus
    /// [`Sense3DError::Solve`]`(`[`Solve3DError::UnknownAntenna`]`)` when
    /// `cache` comes from a prism whose deployment lacks one of this
    /// prism's antennas.
    pub fn sense_reusing(
        &self,
        cache: &BatchCache3D,
        reads_per_antenna: &[Vec<RawRead>],
        warm: Option<&WarmStart3D>,
        workspace: &mut Sense3DWorkspace,
    ) -> Result<Sensing3DResult, Sense3DError> {
        self.sense_with(reads_per_antenna, &cache.seeds, workspace, warm)
    }

    /// [`RfPrism3D::sense_warm`] against `seeds` and a reusable workspace.
    pub(crate) fn sense_with(
        &self,
        reads_per_antenna: &[Vec<RawRead>],
        seeds: &Solve3DSeeds,
        workspace: &mut Sense3DWorkspace,
        warm: Option<&WarmStart3D>,
    ) -> Result<Sensing3DResult, Sense3DError> {
        let _sense_span = obs::timed_span("sense_3d", &[obs::id::SENSE_LATENCY_US]);
        let extract = &self.config.extract;
        workspace.sense(
            &self.poses,
            &self.config,
            4,
            reads_per_antenna.iter(),
            |pose, reads, fe, slot| extract_observation_into(pose, reads, extract, fe, slot),
            |o, ws| solve_3d_seeded_warm(o, seeds, &self.config.solver, ws, warm),
        )
    }

    /// The (x, y) search region.
    pub fn region(&self) -> Region2 {
        self.region
    }

    /// The z search range.
    pub fn z_range(&self) -> (f64, f64) {
        self.z_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_geom::Vec3;
    use rfp_phys::Material;
    use rfp_sim::{Motion, Scene, SimTag};

    fn prism_for(scene: &Scene) -> RfPrism3D {
        RfPrism3D::new(
            scene.antenna_poses(),
            scene.reader().plan,
            scene.region(),
            (0.0, 1.5),
        )
    }

    #[test]
    fn senses_static_tag_in_3d() {
        let scene = Scene::six_antenna_3d();
        let truth = Vec3::new(0.8, 1.6, 0.7);
        let dipole = Vec3::new(0.9, 0.1, 0.5).normalized();
        let tag = SimTag::with_seeded_diversity(3)
            .attached_to(Material::Wood)
            .with_motion(Motion::Static { position: truth, dipole });
        let survey = scene.survey(&tag, 8);
        let result = prism_for(&scene).sense(&survey.per_antenna).unwrap();
        let err = result.estimate.position.distance(truth);
        assert!(err < 0.35, "3-D error {err} m");
        assert!(result.verdict.is_usable());
    }

    #[test]
    fn moving_tag_rejected() {
        let scene = Scene::six_antenna_3d();
        let tag = SimTag::with_seeded_diversity(1).with_motion(Motion::Linear {
            start: Vec3::new(0.2, 1.0, 0.5),
            velocity: Vec3::new(0.05, 0.03, 0.0),
            dipole: Vec3::X,
        });
        let survey = scene.survey(&tag, 9);
        assert!(matches!(
            prism_for(&scene).sense(&survey.per_antenna),
            Err(Sense3DError::TagMoving { .. })
        ));
    }

    #[test]
    fn antenna_count_checked() {
        let scene = Scene::six_antenna_3d();
        let prism = prism_for(&scene);
        assert!(matches!(
            prism.sense(&[Vec::new(), Vec::new()]),
            Err(Sense3DError::AntennaCountMismatch { expected: 6, got: 2 })
        ));
        let err = prism
            .sense(&vec![Vec::new(); 6])
            .unwrap_err();
        assert!(matches!(err, Sense3DError::TooFewObservations { usable: 0, .. }));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    #[should_panic]
    fn three_poses_panic() {
        let scene = Scene::standard_2d();
        let _ = RfPrism3D::new(
            scene.antenna_poses(),
            scene.reader().plan,
            scene.region(),
            (0.0, 1.0),
        );
    }
}
