//! Multi-tag inventory sensing: the paper's application scenarios (Fig. 1)
//! are shelves and lines full of tags, each of which must be located,
//! oriented and identified.
//!
//! [`InventorySensor`] bundles the pieces a deployed installation holds:
//! the sensing pipeline, the per-tag device calibration database (§V-B)
//! and a trained material identifier. One call turns a round's raw reads
//! into a stock report.

use crate::calibration::CalibrationDb;
use crate::material::MaterialIdentifier;
use crate::pipeline::{RfPrism, SenseError, SenseWorkspace};
use crate::solver::TagEstimate2D;
use crate::MobilityVerdict;
use rfp_dsp::preprocess::RawRead;
use rfp_phys::Material;

/// One item's entry in a stock report.
#[derive(Debug, Clone)]
pub struct ItemReport {
    /// Tag id (EPC stand-in).
    pub tag_id: u64,
    /// Disentangled physical state.
    pub estimate: TagEstimate2D,
    /// Identified material, if the tag has a device calibration and the
    /// sensor has an identifier.
    pub material: Option<Material>,
    /// Window quality verdict.
    pub verdict: MobilityVerdict,
}

/// Outcome of sensing one tag of the round.
#[derive(Debug, Clone)]
pub enum ItemOutcome {
    /// Sensed successfully.
    Report(ItemReport),
    /// Window rejected or unusable.
    Failed {
        /// Tag id.
        tag_id: u64,
        /// Why.
        error: SenseError,
    },
}

/// A deployed multi-tag sensing installation.
#[derive(Debug)]
pub struct InventorySensor {
    prism: RfPrism,
    calibrations: CalibrationDb,
    identifier: Option<MaterialIdentifier>,
    channel_count: usize,
}

impl InventorySensor {
    /// Creates a sensor from a configured pipeline.
    pub fn new(prism: RfPrism) -> Self {
        let channel_count = prism.plan().channel_count();
        InventorySensor { prism, calibrations: CalibrationDb::new(), identifier: None, channel_count }
    }

    /// Installs the per-tag device calibration database (needed for
    /// material identification only).
    pub fn with_calibrations(mut self, calibrations: CalibrationDb) -> Self {
        self.calibrations = calibrations;
        self
    }

    /// Installs a trained material identifier.
    pub fn with_identifier(mut self, identifier: MaterialIdentifier) -> Self {
        self.identifier = Some(identifier);
        self
    }

    /// The underlying pipeline.
    pub fn prism(&self) -> &RfPrism {
        &self.prism
    }

    /// Senses every tag of an inventory round.
    ///
    /// `round` holds `(tag_id, reads_per_antenna)` pairs, as produced by
    /// `rfp_sim::Scene::survey_inventory` (via each survey's
    /// `per_antenna`). Each tag's outcome is exactly what
    /// [`RfPrism::sense`] gives for its reads; the tags of one call share
    /// one sensing workspace.
    pub fn take_stock(&self, round: &[(u64, Vec<Vec<RawRead>>)]) -> Vec<ItemOutcome> {
        let seeds = &self.prism.seeds;
        let mut workspace = SenseWorkspace::default();
        round
            .iter()
            .map(|(tag_id, reads)| match self.prism.sense_with(reads, seeds, &mut workspace, None) {
                Ok(result) => {
                    let material = match (&self.identifier, self.calibrations.get(*tag_id)) {
                        (Some(identifier), Some(calibration)) => Some(identifier.identify(
                            &result.material_features(calibration, self.channel_count),
                        )),
                        _ => None,
                    };
                    let report = ItemReport {
                        tag_id: *tag_id,
                        estimate: result.estimate,
                        material,
                        verdict: result.verdict,
                    };
                    workspace.recycle(result);
                    ItemOutcome::Report(report)
                }
                Err(error) => ItemOutcome::Failed { tag_id: *tag_id, error },
            })
            .collect()
    }

    /// Convenience: the successful reports of [`InventorySensor::take_stock`].
    pub fn reports(&self, round: &[(u64, Vec<Vec<RawRead>>)]) -> Vec<ItemReport> {
        self.take_stock(round)
            .into_iter()
            .filter_map(|o| match o {
                ItemOutcome::Report(r) => Some(r),
                ItemOutcome::Failed { .. } => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_geom::Vec2;
    use rfp_sim::{Motion, Scene, SimTag};

    fn round_from_scene(
        scene: &Scene,
        tags: &[SimTag],
        seed: u64,
    ) -> Vec<(u64, Vec<Vec<RawRead>>)> {
        scene
            .survey_inventory(tags, seed)
            .surveys
            .into_iter()
            .map(|(id, s)| (id, s.per_antenna))
            .collect()
    }

    #[test]
    fn stock_report_localizes_every_static_tag() {
        let scene = Scene::standard_2d();
        let positions = [Vec2::new(0.0, 1.0), Vec2::new(0.6, 1.6), Vec2::new(1.1, 2.1)];
        let tags: Vec<SimTag> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                SimTag::with_seeded_diversity(i as u64 + 1)
                    .with_motion(Motion::planar_static(p, 0.3))
            })
            .collect();
        let sensor = InventorySensor::new(
            RfPrism::new(scene.antenna_poses(), scene.reader().plan)
                .with_region(scene.region()),
        );
        let round = round_from_scene(&scene, &tags, 5);
        let reports = sensor.reports(&round);
        assert_eq!(reports.len(), 3);
        for (report, truth) in reports.iter().zip(&positions) {
            let err = report.estimate.position.distance(*truth);
            assert!(err < 0.35, "tag {}: {err} m", report.tag_id);
            assert!(report.material.is_none(), "no identifier installed");
        }
    }

    #[test]
    fn moving_tags_reported_as_failed() {
        let scene = Scene::standard_2d();
        let tags = vec![
            SimTag::with_seeded_diversity(1)
                .with_motion(Motion::planar_static(Vec2::new(0.4, 1.2), 0.0)),
            SimTag::with_seeded_diversity(2).with_motion(Motion::planar_linear(
                Vec2::new(0.0, 1.8),
                Vec2::new(0.05, 0.02),
                0.0,
            )),
        ];
        let sensor = InventorySensor::new(
            RfPrism::new(scene.antenna_poses(), scene.reader().plan)
                .with_region(scene.region()),
        );
        let outcomes = sensor.take_stock(&round_from_scene(&scene, &tags, 6));
        assert!(matches!(outcomes[0], ItemOutcome::Report(_)));
        assert!(matches!(
            outcomes[1],
            ItemOutcome::Failed { tag_id: 2, error: SenseError::TagMoving { .. } }
        ));
    }
}
