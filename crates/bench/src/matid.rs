//! Material-identification dataset builder and evaluation
//! (Figs. 10, 11, 13, 17–20).
//!
//! Follows the paper's methodology (§VI-B): per material, 150 measurements
//! at varied positions — 100 at 0° and 50 at 90° orientation; half of the
//! 0° trials train the classifier, everything else validates. Each
//! measurement runs the *full* RF-Prism pipeline (survey → disentangle →
//! calibrated features), so classification quality reflects the quality of
//! the disentangling, exactly as in the paper.
//!
//! The library's [`MaterialIdentifier`] ships only the paper's decision
//! tree; [`Model`] adds the other classifiers of Fig. 13 and the §VII
//! extension, trained on the same standardized features.

use crate::forest::{ForestConfig, RandomForest};
use crate::knn::KnnClassifier;
use crate::metrics::ConfusionMatrix;
use crate::mlp::{MlpClassifier, MlpConfig};
use crate::setup;
use crate::svm::{SvmClassifier, SvmConfig};
use rfp_core::calibration::DeviceCalibration;
use rfp_core::material::{ClassifierKind, MaterialIdentifier};
use rfp_geom::Vec2;
use rfp_ml::dataset::Dataset;
use rfp_ml::scaler::StandardScaler;
use rfp_ml::Classifier;
use rfp_phys::Material;
use rfp_sim::Scene;

/// A trained classifier: raw (unscaled) feature vector → class index.
pub type Predictor = Box<dyn Fn(&[f64]) -> usize>;

/// A material classifier to evaluate: the paper's three (Fig. 13) plus
/// the §VII extensions.
#[derive(Debug, Clone)]
pub enum Model {
    /// The paper's deployed classifier: [`MaterialIdentifier`]'s CART
    /// decision tree with default hyper-parameters.
    Tree,
    /// K-nearest-neighbour with `k` neighbours.
    Knn {
        /// Number of neighbours.
        k: usize,
    },
    /// One-vs-one SVM.
    Svm(SvmConfig),
    /// Random forest (bagged CART).
    RandomForest(ForestConfig),
    /// Multi-layer perceptron.
    Mlp(MlpConfig),
}

impl Model {
    /// Trains on `train`.
    pub fn train(&self, train: &Dataset) -> Predictor {
        match self {
            Model::Tree => {
                let identifier = MaterialIdentifier::train(train, &ClassifierKind::paper_default());
                Box::new(move |features| identifier.predict_index(features))
            }
            Model::Knn { k } => standardized(train, |d| KnnClassifier::fit(d, *k)),
            Model::Svm(config) => standardized(train, |d| SvmClassifier::fit(d, config)),
            Model::RandomForest(config) => standardized(train, |d| RandomForest::fit(d, config)),
            Model::Mlp(config) => standardized(train, |d| MlpClassifier::fit(d, config)),
        }
    }
}

/// Fits a classifier on the standardized `train`, exactly as
/// [`MaterialIdentifier`] fits its tree.
fn standardized<C: Classifier + 'static>(
    train: &Dataset,
    fit: impl FnOnce(&Dataset) -> C,
) -> Predictor {
    let scaler = StandardScaler::fit(train);
    let classifier = fit(&scaler.transform_dataset(train));
    Box::new(move |features| classifier.predict(&scaler.transform(features)))
}

/// One labelled measurement: features plus bookkeeping for slicing.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Flattened feature vector (paper Eq. 9).
    pub features: Vec<f64>,
    /// True class index into [`Material::CLASSES`].
    pub label: usize,
    /// True position of the measurement.
    pub position: Vec2,
    /// Tag orientation, radians.
    pub alpha: f64,
    /// Distance region index.
    pub region: usize,
}

/// The evaluation corpus: training samples (0° only) and validation
/// samples (0° + 90°).
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Training samples.
    pub train: Vec<Sample>,
    /// Validation samples.
    pub validation: Vec<Sample>,
}

/// Builds the paper's measurement corpus on `scene`.
///
/// `per_material_0deg` measurements at 0° (half train / half validate) and
/// `per_material_90deg` at 90° (all validate). Positions cycle through the
/// 25-point grid; five tag identities (each with its one-time device
/// calibration) are used in rotation.
pub fn build_corpus(
    scene: &Scene,
    per_material_0deg: usize,
    per_material_90deg: usize,
) -> Corpus {
    let grid = setup::evaluation_grid(scene);
    let tags: Vec<(u64, DeviceCalibration)> =
        (1..=5).map(|s| (s, setup::calibrate_tag(s, 900 + s))).collect();
    let prism = setup::prism_for(scene);
    let channel_count = scene.reader().plan.channel_count();

    let mut corpus = Corpus::default();
    let mut seed = 0u64;
    for (class, &material) in Material::CLASSES.iter().enumerate() {
        for (count, alpha, split_train) in [
            (per_material_0deg, 0.0f64, true),
            (per_material_90deg, 90.0f64.to_radians(), false),
        ] {
            for i in 0..count {
                seed += 1;
                let position = grid[(seed as usize * 7 + i) % grid.len()];
                let (tag_seed, calibration) = &tags[seed as usize % tags.len()];
                let tag = setup::place_tag(*tag_seed, material, position, alpha);
                let survey = scene.survey(&tag, 200_000 + seed * 13);
                let result = match prism.sense(&survey.per_antenna) {
                    Ok(r) => r,
                    Err(_) => continue, // rejected window; paper drops it too
                };
                let features =
                    result.material_features(calibration, channel_count).to_vector();
                let sample = Sample {
                    features,
                    label: class,
                    position,
                    alpha,
                    region: setup::distance_region(scene, position),
                };
                if split_train && i % 2 == 0 {
                    corpus.train.push(sample);
                } else {
                    corpus.validation.push(sample);
                }
            }
        }
    }
    corpus
}

/// Turns samples into an `rfp-ml` dataset.
pub fn to_dataset(samples: &[Sample]) -> Dataset {
    let mut ds = Dataset::new(Material::CLASSES.len());
    for s in samples {
        ds.push(s.features.clone(), s.label);
    }
    ds
}

/// Trains `model` on the corpus and evaluates on a validation subset
/// selected by `pred`, returning the confusion matrix.
pub fn evaluate(
    corpus: &Corpus,
    model: &Model,
    mut pred: impl FnMut(&Sample) -> bool,
) -> ConfusionMatrix {
    let predict = model.train(&to_dataset(&corpus.train));
    let mut cm = ConfusionMatrix::new(Material::CLASSES.len());
    for s in corpus.validation.iter().filter(|s| pred(s)) {
        cm.record(s.label, predict(&s.features));
    }
    cm
}

/// Evaluates on the full validation set.
pub fn evaluate_all(corpus: &Corpus, model: &Model) -> ConfusionMatrix {
    evaluate(corpus, model, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        // Reduced counts to keep the unit test quick.
        build_corpus(&Scene::standard_2d(), 8, 4)
    }

    #[test]
    fn corpus_split_follows_paper() {
        let c = small_corpus();
        // 8 materials × 4 training samples (half of 8 at 0°).
        assert!(c.train.len() >= 8 * 3, "train {}", c.train.len());
        assert!(c.validation.len() >= 8 * 6, "validation {}", c.validation.len());
        assert!(c.train.iter().all(|s| s.alpha == 0.0));
        assert!(c.validation.iter().any(|s| s.alpha > 0.0));
        // 52-dimensional features (paper: k_t, b_t + 50 channels).
        assert_eq!(c.train[0].features.len(), 52);
    }

    #[test]
    fn decision_tree_beats_chance_easily() {
        let c = small_corpus();
        let cm = evaluate_all(&c, &Model::Tree);
        assert!(cm.accuracy() > 0.5, "accuracy {}", cm.accuracy());
        assert_eq!(cm.n_classes(), 8);
    }

    #[test]
    fn identifier_trains_and_predicts_each_kind() {
        // Tiny synthetic two-class problem in 3-D feature space: class 0
        // ("wood") and class 3 ("metal").
        let mut ds = Dataset::new(8);
        for i in 0..30 {
            let x = i as f64 / 30.0;
            ds.push(vec![x, 1.0, 0.0], 0);
            ds.push(vec![x + 5.0, -1.0, 0.5], 3);
        }
        for model in [
            Model::Tree,
            Model::Knn { k: 3 },
            Model::Svm(SvmConfig::default()),
            Model::RandomForest(ForestConfig { trees: 9, ..Default::default() }),
            Model::Mlp(MlpConfig { epochs: 50, ..Default::default() }),
        ] {
            let predict = model.train(&ds);
            assert_eq!(predict(&[0.1, 1.0, 0.0]), 0, "{model:?}");
            assert_eq!(predict(&[5.2, -1.0, 0.5]), 3, "{model:?}");
        }
    }
}
