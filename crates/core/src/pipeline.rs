//! The end-to-end RF-Prism pipeline (paper Fig. 2).
//!
//! [`RfPrism`] owns everything the sensing side legitimately knows: the
//! antenna poses (measured at deployment), the reader's channel plan, and
//! the algorithm configuration. One call to [`RfPrism::sense`] runs
//! pre-processing → per-antenna line fitting (with multipath suppression) →
//! error detection → the joint disentangling solve, and returns the tag's
//! position, orientation and material parameters simultaneously.
//!
//! The prism builds its solver seeds ([`SolveSeeds`]) when its region is
//! set; every entry point, batch and streaming included, solves against
//! them. The sensing sequence ([`SensingWorkspace`]) is
//! generic over the solver and over where each antenna's observation comes
//! from, so the 3-D pipeline ([`crate::pipeline3d`]) runs the same code
//! with the 3-D solve plugged in, and a streaming session with its sliding
//! windows in place of raw reads. Both solves run through the one solver
//! facade of [`crate::solver`] on the dimension-generic lane core
//! (`rfp_core::lm`), so pipeline, batch and streaming share one LM engine.

use crate::batch::BatchCache;
use crate::detector::{assess, DetectorConfig, MobilityVerdict};
use crate::material::MaterialFeatures;
use crate::obs;
use crate::model::{extract_observation_into, AntennaObservation, ExtractConfig, ExtractError};
use crate::solver::{
    solve_2d_seeded_warm, SolveError, SolveSeeds, SolverConfig, SolverWorkspace, TagEstimate2D,
    WarmStart,
};
use crate::DeviceCalibration;
use rfp_dsp::preprocess::RawRead;
use rfp_dsp::workspace::FrontEndWorkspace;
use rfp_geom::{AntennaPose, Region2, Vec2};
use rfp_phys::FrequencyPlan;
use std::sync::Arc;

/// Algorithm configuration of a sensing pipeline, 2-D
/// ([`RfPrismConfig`]) and 3-D ([`RfPrism3DConfig`](crate::RfPrism3DConfig))
/// alike. Build it from [`PipelineConfig::paper`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Pre-processing + robust fitting options.
    pub extract: ExtractConfig,
    /// Joint solver options: none (see [`SolverConfig`]).
    pub solver: SolverConfig,
    /// Error-detector thresholds.
    pub detector: DetectorConfig,
    /// When true (default), a `Moving` verdict aborts the solve and
    /// sensing returns a `TagMoving` error — the paper filters such
    /// windows out. Set false to solve anyway (used by the ablation that
    /// quantifies how much the detector saves).
    pub reject_moving: bool,
}

/// Algorithm configuration for the 2-D pipeline.
pub type RfPrismConfig = PipelineConfig;

impl PipelineConfig {
    /// Paper defaults.
    pub fn paper() -> Self {
        PipelineConfig {
            extract: ExtractConfig::paper(),
            solver: SolverConfig::default(),
            detector: DetectorConfig::default(),
            reject_moving: true,
        }
    }
}

/// The result of one sensing pass; `E` is the disentangled tag state.
#[derive(Debug, Clone)]
pub struct Sensing<E> {
    /// Disentangled tag state (position, orientation, `k_t`, `b_t`).
    pub estimate: E,
    /// The per-antenna observations that produced it.
    pub observations: Vec<AntennaObservation>,
    /// Error-detector verdict for this window.
    pub verdict: MobilityVerdict,
}

/// The result of one 2-D sensing pass.
pub type SensingResult = Sensing<TagEstimate2D>;

impl SensingResult {
    /// Extracts the material feature vector, given the tag's one-time
    /// device calibration (paper §V-B).
    pub fn material_features(
        &self,
        calibration: &DeviceCalibration,
        channel_count: usize,
    ) -> MaterialFeatures {
        MaterialFeatures::extract(&self.observations, &self.estimate, calibration, channel_count)
    }
}

/// Errors from a sensing pass; `S` is the solver's error.
#[derive(Debug, Clone, PartialEq)]
pub enum SensingError<S> {
    /// The reads slice length differs from the configured antenna count.
    AntennaCountMismatch {
        /// Antennas the pipeline was built with.
        expected: usize,
        /// Read groups supplied.
        got: usize,
    },
    /// Too few antennas produced usable observations.
    TooFewObservations {
        /// Usable observations.
        usable: usize,
        /// First extraction error encountered, if any.
        first_error: Option<ExtractError>,
    },
    /// The error detector flagged tag motion during the hop round.
    TagMoving {
        /// Worst post-rejection residual std, radians.
        worst_residual_std: f64,
    },
    /// The joint solver failed.
    Solve(S),
}

/// Errors from [`RfPrism::sense`].
pub type SenseError = SensingError<SolveError>;

impl std::fmt::Display for SenseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SenseError::AntennaCountMismatch { expected, got } => {
                write!(f, "expected reads for {expected} antennas, got {got}")
            }
            SenseError::TooFewObservations { usable, .. } => {
                write!(f, "only {usable} usable antenna observations; need at least 3")
            }
            SenseError::TagMoving { worst_residual_std } => write!(
                f,
                "tag moved during the hop round (residual {worst_residual_std:.3} rad); window discarded"
            ),
            SenseError::Solve(e) => write!(f, "solver failed: {e}"),
        }
    }
}

impl<S: std::fmt::Debug> std::error::Error for SensingError<S> where Self: std::fmt::Display {}

impl<S> From<S> for SensingError<S> {
    fn from(e: S) -> Self {
        SensingError::Solve(e)
    }
}

/// Reusable scratch for a full sensing pass: the DSP front-end columns
/// ([`FrontEndWorkspace`]), the solver scratch `W` ([`SolverWorkspace`] in
/// 2-D) and free-lists of recycled [`AntennaObservation`]s and observation
/// vectors.
///
/// One workspace per worker thread makes the whole raw-reads → estimate
/// path allocation-free in steady state: feed results back with
/// [`SensingWorkspace::recycle`] once you are done with them and every
/// buffer — channel columns, inlier masks, observation vectors, solver
/// candidates — is reused on the next call. Reuse never changes results;
/// `tests/alloc_free.rs` pins both properties.
#[derive(Debug, Default)]
pub struct SensingWorkspace<W> {
    solver: W,
    frontend: FrontEndWorkspace,
    obs_free: Vec<AntennaObservation>,
    vec_free: Vec<Vec<AntennaObservation>>,
}

/// Reusable scratch for a full 2-D sensing pass (see [`SensingWorkspace`]).
pub type SenseWorkspace = SensingWorkspace<SolverWorkspace>;

impl<W> SensingWorkspace<W> {
    /// Returns a result's buffers to the workspace pools so the next
    /// sensing call can reuse them instead of allocating. Purely an
    /// optimization — dropping the result instead is always correct.
    pub fn recycle<E>(&mut self, result: Sensing<E>) {
        self.recycle_observations(result.observations);
    }

    fn take_observations(&mut self) -> Vec<AntennaObservation> {
        let mut v = self.vec_free.pop().unwrap_or_default();
        v.clear();
        v
    }

    fn take_slot(&mut self, pose: AntennaPose) -> AntennaObservation {
        self.obs_free.pop().unwrap_or_else(|| AntennaObservation::new_empty(pose))
    }

    fn recycle_slot(&mut self, slot: AntennaObservation) {
        self.obs_free.push(slot);
    }

    fn recycle_observations(&mut self, mut v: Vec<AntennaObservation>) {
        self.obs_free.append(&mut v);
        self.vec_free.push(v);
    }

    /// One sensing pass with antennas at `poses`, shared by batch and
    /// streaming: the [`extract_and_detect`](Self::extract_and_detect)
    /// step, then `solve` (with the solver scratch) on the observations it
    /// keeps. The caller opens the pass's span, which times
    /// `sense.latency_us` too.
    pub(crate) fn sense<E, S, I>(
        &mut self,
        poses: &[AntennaPose],
        config: &PipelineConfig,
        min_antennas: usize,
        inputs: impl ExactSizeIterator<Item = I>,
        extract: impl FnMut(
            AntennaPose,
            I,
            &mut FrontEndWorkspace,
            &mut AntennaObservation,
        ) -> Result<(), ExtractError>,
        solve: impl FnOnce(&[AntennaObservation], &mut W) -> Result<E, S>,
    ) -> Result<Sensing<E>, SensingError<S>> {
        obs::counter_add(obs::id::PIPELINE_WINDOWS_TOTAL, 1);
        let (observations, verdict) =
            self.extract_and_detect(poses, config, min_antennas, inputs, extract)?;
        match solve(&observations, &mut self.solver) {
            Ok(estimate) => {
                obs::counter_add(obs::id::PIPELINE_WINDOWS_OK, 1);
                Ok(Sensing { estimate, observations, verdict })
            }
            Err(e) => {
                self.recycle_observations(observations);
                Err(SensingError::Solve(e))
            }
        }
    }

    /// The sensing pass up to the solve: `extract` each antenna's
    /// observation from its entry of `inputs` (raw reads, or a sliding
    /// window), require `min_antennas` usable ones, and run the error
    /// detector. Returns the observations with the detector's verdict, or
    /// the error that ends the pass (never [`SensingError::Solve`]).
    fn extract_and_detect<S, I>(
        &mut self,
        poses: &[AntennaPose],
        config: &PipelineConfig,
        min_antennas: usize,
        inputs: impl ExactSizeIterator<Item = I>,
        mut extract: impl FnMut(
            AntennaPose,
            I,
            &mut FrontEndWorkspace,
            &mut AntennaObservation,
        ) -> Result<(), ExtractError>,
    ) -> Result<(Vec<AntennaObservation>, MobilityVerdict), SensingError<S>> {
        if inputs.len() != poses.len() {
            return Err(SensingError::AntennaCountMismatch {
                expected: poses.len(),
                got: inputs.len(),
            });
        }
        let mut observations = self.take_observations();
        let mut first_error = None;
        {
            let _extract_span = obs::span("extract");
            for (pose, input) in poses.iter().zip(inputs) {
                let mut slot = self.take_slot(*pose);
                match extract(*pose, input, &mut self.frontend, &mut slot) {
                    Ok(()) => observations.push(slot),
                    Err(e) => {
                        self.recycle_slot(slot);
                        obs::counter_add(obs::id::PIPELINE_EXTRACT_FAILURES, 1);
                        if first_error.is_none() {
                            first_error = Some(e);
                        }
                    }
                }
            }
        }
        if observations.len() < min_antennas {
            obs::counter_add(obs::id::PIPELINE_WINDOWS_TOO_FEW_OBS, 1);
            let usable = observations.len();
            self.recycle_observations(observations);
            return Err(SensingError::TooFewObservations { usable, first_error });
        }

        let verdict = assess(&observations, &config.detector);
        obs::verdict(&verdict);
        if config.reject_moving {
            if let MobilityVerdict::Moving { worst_residual_std } = verdict {
                obs::counter_add(obs::id::PIPELINE_WINDOWS_MOVING_REJECTED, 1);
                self.recycle_observations(observations);
                return Err(SensingError::TagMoving { worst_residual_std });
            }
        }
        Ok((observations, verdict))
    }
}

/// The RF-Prism sensing pipeline.
///
/// See the crate-level docs for a full example.
#[derive(Debug, Clone)]
pub struct RfPrism {
    poses: Vec<AntennaPose>,
    plan: FrequencyPlan,
    region: Region2,
    config: RfPrismConfig,
    /// The multi-start solver seeds of `(region, poses)`, built whenever
    /// the region is set and shared by every entry point, [`BatchCache`]
    /// and streaming session.
    pub(crate) seeds: Arc<SolveSeeds>,
}

impl RfPrism {
    /// Creates a pipeline for antennas at `poses` hopping over `plan`.
    ///
    /// The multi-start search region defaults to the antennas' bounding box
    /// expanded by 3 m; narrow it with [`RfPrism::with_region`] when the
    /// working region is known (it always is in a real deployment — the
    /// paper measures it at installation time).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 poses are supplied.
    pub fn new(poses: Vec<AntennaPose>, plan: FrequencyPlan) -> Self {
        assert!(poses.len() >= 3, "RF-Prism needs at least 3 antennas in 2-D");
        let xs: Vec<f64> = poses.iter().map(|p| p.position().x).collect();
        let ys: Vec<f64> = poses.iter().map(|p| p.position().y).collect();
        let mut min = Vec2::new(
            xs.iter().cloned().fold(f64::INFINITY, f64::min),
            ys.iter().cloned().fold(f64::INFINITY, f64::min),
        );
        let mut max = Vec2::new(
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
        let centroid = (min + max) / 2.0;
        // Degenerate (collinear) antenna layouts still need an area.
        min -= Vec2::new(0.1, 0.1);
        max += Vec2::new(0.1, 0.1);
        min -= Vec2::new(3.0, 3.0);
        max += Vec2::new(3.0, 3.0);
        // Distances are mirror-symmetric about the antenna plane, so a tag
        // behind the rack is indistinguishable from one in front — real
        // deployments break the tie by knowing which side the working
        // region is on. Clip the default region to the hemisphere the
        // antennas face (dominant axis of the mean boresight).
        let mean_dir: Vec2 = poses
            .iter()
            .fold(Vec2::ZERO, |acc, p| acc + p.boresight().xy());
        if mean_dir.norm() > 1e-6 {
            let margin = 0.05;
            if mean_dir.x.abs() >= mean_dir.y.abs() {
                if mean_dir.x > 0.0 {
                    min.x = centroid.x - margin;
                } else {
                    max.x = centroid.x + margin;
                }
            } else if mean_dir.y > 0.0 {
                min.y = centroid.y - margin;
            } else {
                max.y = centroid.y + margin;
            }
        }
        Self::build(poses, plan, Region2::new(min, max), RfPrismConfig::paper())
    }

    /// The pipeline of this scene, with its solver seeds built.
    fn build(
        poses: Vec<AntennaPose>,
        plan: FrequencyPlan,
        region: Region2,
        config: RfPrismConfig,
    ) -> Self {
        let seeds = Arc::new(SolveSeeds::for_scene(region, &config.solver, &poses));
        RfPrism { poses, plan, region, config, seeds }
    }

    /// Restricts the multi-start search region (builder style).
    pub fn with_region(self, region: Region2) -> Self {
        Self::build(self.poses, self.plan, region, self.config)
    }

    /// Overrides the algorithm configuration (builder style); the seeds
    /// depend on the scene alone, so they are kept.
    pub fn with_config(self, config: RfPrismConfig) -> Self {
        RfPrism { config, ..self }
    }

    /// The configured antenna poses.
    pub fn poses(&self) -> &[AntennaPose] {
        &self.poses
    }

    /// The configured channel plan.
    pub fn plan(&self) -> &FrequencyPlan {
        &self.plan
    }

    /// The multi-start search region.
    pub fn region(&self) -> Region2 {
        self.region
    }

    /// The algorithm configuration.
    pub fn config(&self) -> &RfPrismConfig {
        &self.config
    }

    /// Runs the full pipeline on one hop round of raw reads
    /// (`reads_per_antenna[i]` = antenna *i*'s reads).
    ///
    /// # Errors
    ///
    /// * [`SenseError::AntennaCountMismatch`] — wrong number of read groups;
    /// * [`SenseError::TooFewObservations`] — fewer than 3 antennas yielded
    ///   a fit (e.g. the tag was unreadable from some vantage points);
    /// * [`SenseError::TagMoving`] — the error detector rejected the window
    ///   (only when `reject_moving` is set);
    /// * [`SenseError::Solve`] — the joint solve failed.
    pub fn sense(&self, reads_per_antenna: &[Vec<RawRead>]) -> Result<SensingResult, SenseError> {
        self.sense_warm(reads_per_antenna, None)
    }

    /// [`RfPrism::sense`] with a warm-start prior — typically the previous
    /// round's estimate (via [`WarmStart::from_estimate`]), optionally
    /// velocity-extrapolated by [`crate::TagTracker::extrapolate`]. The
    /// prior is refined first; when it passes the solver's validation gate
    /// the multi-start scan is skipped entirely, otherwise the solver falls
    /// back to the full (pruned) scan, so a stale prior can degrade speed
    /// but never accuracy.
    pub fn sense_warm(
        &self,
        reads_per_antenna: &[Vec<RawRead>],
        warm: Option<&WarmStart>,
    ) -> Result<SensingResult, SenseError> {
        self.sense_with(reads_per_antenna, &self.seeds, &mut SenseWorkspace::default(), warm)
    }

    /// [`RfPrism::sense_warm`] against the seeds of a [`BatchCache`] and a
    /// reusable [`SenseWorkspace`] — the allocation-free steady-state entry
    /// point. Results are bit-identical to [`RfPrism::sense`] /
    /// [`RfPrism::sense_warm`]; pass results back via
    /// [`SenseWorkspace::recycle`] to keep the buffer pools primed.
    ///
    /// # Errors
    ///
    /// As [`RfPrism::sense`], plus
    /// [`SenseError::Solve`]`(`[`SolveError::UnknownAntenna`]`)` when
    /// `cache` comes from a prism whose deployment lacks one of this
    /// prism's antennas.
    pub fn sense_reusing(
        &self,
        cache: &BatchCache,
        reads_per_antenna: &[Vec<RawRead>],
        warm: Option<&WarmStart>,
        workspace: &mut SenseWorkspace,
    ) -> Result<SensingResult, SenseError> {
        self.sense_with(reads_per_antenna, &cache.seeds, workspace, warm)
    }

    /// [`RfPrism::sense_warm`] against `seeds` and a reusable workspace.
    pub(crate) fn sense_with(
        &self,
        reads_per_antenna: &[Vec<RawRead>],
        seeds: &SolveSeeds,
        workspace: &mut SenseWorkspace,
        warm: Option<&WarmStart>,
    ) -> Result<SensingResult, SenseError> {
        let _sense_span = obs::timed_span("sense", &[obs::id::SENSE_LATENCY_US]);
        let extract = &self.config.extract;
        workspace.sense(
            &self.poses,
            &self.config,
            3,
            reads_per_antenna.iter(),
            |pose, reads, fe, slot| extract_observation_into(pose, reads, extract, fe, slot),
            |o, ws| solve_2d_seeded_warm(o, seeds, &self.config.solver, ws, warm),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_geom::angle;
    use rfp_phys::Material;
    use rfp_sim::{Motion, MultipathEnvironment, NoiseModel, ReaderConfig, Scene, SimTag};

    fn prism_for(scene: &Scene) -> RfPrism {
        RfPrism::new(scene.antenna_poses(), scene.reader().plan)
            .with_region(scene.region())
    }

    #[test]
    fn senses_static_tag_accurately() {
        let scene = Scene::standard_2d();
        let truth = Vec2::new(0.4, 1.6);
        let alpha = 1.1;
        let tag = SimTag::with_seeded_diversity(10)
            .attached_to(Material::Wood)
            .with_motion(Motion::planar_static(truth, alpha));
        let survey = scene.survey(&tag, 31);
        let result = prism_for(&scene).sense(&survey.per_antenna).unwrap();
        let err_cm = result.estimate.position.distance(truth) * 100.0;
        assert!(err_cm < 30.0, "position error {err_cm} cm");
        let orient_err = angle::dipole_distance(result.estimate.orientation, alpha).to_degrees();
        assert!(orient_err < 30.0, "orientation error {orient_err}°");
        assert!(result.verdict.is_usable());
    }

    #[test]
    fn clean_conditions_give_millimetre_accuracy() {
        let scene = Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let truth = Vec2::new(1.1, 2.1);
        let tag = SimTag::nominal(1).with_motion(Motion::planar_static(truth, 0.3));
        let survey = scene.survey(&tag, 1);
        let result = prism_for(&scene).sense(&survey.per_antenna).unwrap();
        let err_mm = result.estimate.position.distance(truth) * 1000.0;
        // Only the arctangent curvature of the device phase remains.
        assert!(err_mm < 40.0, "position error {err_mm} mm");
    }

    #[test]
    fn moving_tag_rejected_by_default_allowed_when_configured() {
        let scene = Scene::standard_2d();
        let tag = SimTag::nominal(2).with_motion(Motion::planar_linear(
            Vec2::new(0.3, 1.0),
            Vec2::new(0.05, 0.05),
            0.0,
        ));
        let survey = scene.survey(&tag, 2);
        let prism = prism_for(&scene);
        assert!(matches!(
            prism.sense(&survey.per_antenna),
            Err(SenseError::TagMoving { .. })
        ));

        let permissive = prism
            .clone()
            .with_config(RfPrismConfig { reject_moving: false, ..RfPrismConfig::paper() });
        let r = permissive.sense(&survey.per_antenna).unwrap();
        assert!(!r.verdict.is_usable());
    }

    #[test]
    fn antenna_count_mismatch() {
        let scene = Scene::standard_2d();
        let prism = prism_for(&scene);
        assert!(matches!(
            prism.sense(&[Vec::new(), Vec::new()]),
            Err(SenseError::AntennaCountMismatch { expected: 3, got: 2 })
        ));
    }

    /// A cache holds the seeds of its own prism's deployment: sensing
    /// against another prism's cache is an explicit error, not a solve
    /// against the wrong tables.
    #[test]
    fn cache_of_a_prism_with_other_poses_is_unknown_antenna() {
        let scene = Scene::standard_2d();
        let tag =
            SimTag::nominal(3).with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.4));
        let survey = scene.survey(&tag, 4);
        let prism = prism_for(&scene);
        let other = RfPrism::new(Scene::four_antenna_3d().antenna_poses(), scene.reader().plan);
        let mut ws = SenseWorkspace::default();
        let err = prism
            .sense_reusing(&other.batch_cache(), &survey.per_antenna, None, &mut ws)
            .unwrap_err();
        assert_eq!(err, SenseError::Solve(SolveError::UnknownAntenna));
        let own = prism.sense_reusing(&prism.batch_cache(), &survey.per_antenna, None, &mut ws);
        assert!(own.is_ok());
    }

    #[test]
    fn empty_reads_yield_too_few_observations() {
        let scene = Scene::standard_2d();
        let prism = prism_for(&scene);
        let err = prism
            .sense(&[Vec::new(), Vec::new(), Vec::new()])
            .unwrap_err();
        assert!(matches!(err, SenseError::TooFewObservations { usable: 0, .. }));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn multipath_survey_still_senses() {
        let scene =
            Scene::standard_2d().with_environment(MultipathEnvironment::cluttered(3, 17));
        let truth = Vec2::new(0.7, 1.4);
        let tag = SimTag::with_seeded_diversity(11)
            .with_motion(Motion::planar_static(truth, 0.6));
        let survey = scene.survey(&tag, 3);
        let result = prism_for(&scene).sense(&survey.per_antenna).unwrap();
        let err_cm = result.estimate.position.distance(truth) * 100.0;
        assert!(err_cm < 60.0, "position error {err_cm} cm under multipath");
    }

    #[test]
    fn default_region_covers_standard_deployment() {
        let scene = Scene::standard_2d();
        // No with_region: the auto region must still contain the tag.
        let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan);
        assert!(prism.region().contains(Vec2::new(0.5, 1.5)));
        let tag = SimTag::nominal(4)
            .with_motion(Motion::planar_static(Vec2::new(0.5, 1.5), 0.2));
        let survey = scene.survey(&tag, 4);
        let result = prism.sense(&survey.per_antenna).unwrap();
        let err_cm = result.estimate.position.distance(Vec2::new(0.5, 1.5)) * 100.0;
        assert!(err_cm < 40.0, "auto-region error {err_cm} cm");
    }
}

impl RfPrism {
    /// Senses from several hop rounds jointly: per-antenna observations are
    /// extracted per round, rounds the error detector rejects are skipped,
    /// and the remaining line parameters are averaged (slopes
    /// arithmetically, intercepts circularly) before one joint solve.
    ///
    /// Phase noise averages down roughly as `1/√K` over `K` usable rounds;
    /// systematic errors (multipath bias) do not — see the
    /// `ablation_rounds` bench.
    ///
    /// # Errors
    ///
    /// As [`RfPrism::sense`]; additionally returns
    /// [`SenseError::TooFewObservations`] if *no* round was usable.
    pub fn sense_rounds(&self, rounds: &[Vec<Vec<RawRead>>]) -> Result<SensingResult, SenseError> {
        use rfp_geom::angle;
        let workspace = &mut SenseWorkspace::default();
        let _sense_span = obs::timed_span("sense_rounds", &[obs::id::SENSE_LATENCY_US]);
        obs::counter_add(obs::id::PIPELINE_WINDOWS_TOTAL, 1);
        let extract = &self.config.extract;
        let mut per_round: Vec<Vec<AntennaObservation>> = Vec::new();
        let mut last_moving: Option<f64> = None;
        for reads in rounds {
            // A round is usable only when every antenna extracts.
            match workspace.extract_and_detect(
                &self.poses,
                &self.config,
                self.poses.len(),
                reads.iter(),
                |pose, reads, fe, slot| extract_observation_into(pose, reads, extract, fe, slot),
            ) {
                Ok((observations, _)) => per_round.push(observations),
                Err(SenseError::TooFewObservations { .. }) => {
                    obs::counter_add(obs::id::PIPELINE_ROUNDS_SKIPPED, 1);
                }
                Err(SenseError::TagMoving { worst_residual_std }) => {
                    obs::counter_add(obs::id::PIPELINE_ROUNDS_SKIPPED, 1);
                    last_moving = Some(worst_residual_std);
                }
                Err(e) => return Err(e),
            }
        }
        if per_round.is_empty() {
            return Err(match last_moving {
                Some(worst_residual_std) => SenseError::TagMoving { worst_residual_std },
                None => SenseError::TooFewObservations { usable: 0, first_error: None },
            });
        }

        // Merge per antenna across rounds, in place in round 0's
        // observations (which then *become* the merged set — no clone).
        let k = per_round.len();
        for ai in 0..per_round[0].len() {
            let slope = per_round.iter().map(|r| r[ai].slope).sum::<f64>() / k as f64;
            let intercept = angle::wrap_tau(
                angle::circular_mean(per_round.iter().map(|r| r[ai].intercept))
                    .unwrap_or(per_round[0][ai].intercept),
            );
            let obs = &mut per_round[0][ai];
            obs.slope = slope;
            obs.intercept = intercept;
        }
        let merged = per_round.swap_remove(0);
        let verdict = assess(&merged, &self.config.detector);
        let estimate = solve_2d_seeded_warm(
            &merged,
            &self.seeds,
            &self.config.solver,
            &mut workspace.solver,
            None,
        )?;
        obs::counter_add(obs::id::PIPELINE_WINDOWS_OK, 1);
        Ok(SensingResult { estimate, observations: merged, verdict })
    }
}

#[cfg(test)]
mod multi_round_tests {
    use super::*;
    use rfp_geom::Vec2;
    use rfp_sim::{Motion, Scene, SimTag};

    #[test]
    fn more_rounds_reduce_error() {
        let scene = Scene::standard_2d();
        let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
            .with_region(scene.region());
        let truth = Vec2::new(0.8, 1.9);
        let tag = SimTag::with_seeded_diversity(6)
            .with_motion(Motion::planar_static(truth, 0.6));
        let mut one_round = Vec::new();
        let mut five_rounds = Vec::new();
        for trial in 0..8u64 {
            let rounds: Vec<_> = (0..5)
                .map(|r| scene.survey(&tag, 10_000 + trial * 10 + r).per_antenna)
                .collect();
            let e1 = prism
                .sense_rounds(&rounds[..1])
                .unwrap()
                .estimate
                .position
                .distance(truth);
            let e5 = prism
                .sense_rounds(&rounds)
                .unwrap()
                .estimate
                .position
                .distance(truth);
            one_round.push(e1);
            five_rounds.push(e5);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&five_rounds) < mean(&one_round),
            "5 rounds {} m should beat 1 round {} m",
            mean(&five_rounds),
            mean(&one_round)
        );
    }

    #[test]
    fn moving_rounds_are_skipped() {
        let scene = Scene::standard_2d();
        let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
            .with_region(scene.region());
        let truth = Vec2::new(0.4, 1.3);
        let parked = SimTag::with_seeded_diversity(7)
            .with_motion(Motion::planar_static(truth, 0.2));
        let moving = SimTag::with_seeded_diversity(7).with_motion(Motion::planar_linear(
            truth,
            Vec2::new(0.05, 0.03),
            0.2,
        ));
        let rounds = vec![
            scene.survey(&moving, 1).per_antenna,
            scene.survey(&parked, 2).per_antenna,
            scene.survey(&moving, 3).per_antenna,
        ];
        let result = prism.sense_rounds(&rounds).unwrap();
        assert!(result.estimate.position.distance(truth) < 0.3);

        // All-moving input surfaces the detector verdict.
        let all_moving = vec![scene.survey(&moving, 4).per_antenna];
        assert!(matches!(
            prism.sense_rounds(&all_moving),
            Err(SenseError::TagMoving { .. })
        ));
        // Empty input errors cleanly.
        assert!(matches!(
            prism.sense_rounds(&[]),
            Err(SenseError::TooFewObservations { usable: 0, .. })
        ));
    }
}
