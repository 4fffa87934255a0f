//! Model selection: cross-validated scoring and small grid searches.
//!
//! The paper hand-picks its classifier hyper-parameters; a production
//! system would tune them on the training split. This module provides the
//! two primitives that need: a k-fold cross-validation scorer generic over
//! any `fit` closure, and a convenience grid search that returns the best
//! candidate by mean CV accuracy.

use crate::metrics;
use rfp_ml::dataset::Dataset;
use rfp_ml::Classifier;

/// Mean k-fold cross-validation accuracy of a classifier family.
///
/// `fit` trains a classifier on each fold's training split; accuracy is
/// measured on the held-out split and averaged.
///
/// # Panics
///
/// Panics if `k < 2` or `k > dataset.len()` (propagated from
/// [`Dataset::k_folds`]).
///
/// # Example
///
/// ```
/// use rfp_ml::dataset::Dataset;
/// use rfp_bench::modsel::cross_val_accuracy;
/// use rfp_bench::knn::KnnClassifier;
///
/// let mut ds = Dataset::new(2);
/// for i in 0..20 {
///     ds.push(vec![i as f64], usize::from(i >= 10));
/// }
/// let acc = cross_val_accuracy(&ds, 4, 7, |train| KnnClassifier::fit(train, 1));
/// assert!(acc > 0.8);
/// ```
pub fn cross_val_accuracy<C, F>(dataset: &Dataset, k: usize, seed: u64, mut fit: F) -> f64
where
    C: Classifier,
    F: FnMut(&Dataset) -> C,
{
    let folds = dataset.k_folds(k, seed);
    let mut total = 0.0;
    for (train, val) in &folds {
        let model = fit(train);
        let preds = model.predict_batch(val.features());
        total += metrics::accuracy(val.labels(), &preds);
    }
    total / folds.len() as f64
}

/// Result of a grid search: the winning candidate, its CV accuracy, and
/// the per-candidate scores (same order as the input grid).
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult<P> {
    /// The best candidate's parameters.
    pub best: P,
    /// Its mean cross-validation accuracy.
    pub best_accuracy: f64,
    /// Accuracy of every candidate, in input order.
    pub scores: Vec<f64>,
}

/// Evaluates every candidate in `grid` by k-fold CV accuracy and returns
/// the best (ties go to the earlier candidate).
///
/// # Panics
///
/// Panics if `grid` is empty or the fold parameters are invalid.
///
/// # Example
///
/// ```
/// use rfp_ml::dataset::Dataset;
/// use rfp_bench::modsel::grid_search;
/// use rfp_bench::knn::KnnClassifier;
///
/// let mut ds = Dataset::new(2);
/// for i in 0..30 {
///     ds.push(vec![i as f64], usize::from(i >= 15));
/// }
/// let result = grid_search(&ds, 3, 1, &[1usize, 5, 15], |train, &k| {
///     KnnClassifier::fit(train, k)
/// });
/// assert_eq!(result.scores.len(), 3);
/// assert!(result.best_accuracy > 0.8);
/// ```
pub fn grid_search<P: Clone, C, F>(
    dataset: &Dataset,
    k_folds: usize,
    seed: u64,
    grid: &[P],
    mut fit: F,
) -> GridSearchResult<P>
where
    C: Classifier,
    F: FnMut(&Dataset, &P) -> C,
{
    assert!(!grid.is_empty(), "grid must hold at least one candidate");
    let scores: Vec<f64> = grid
        .iter()
        .map(|p| cross_val_accuracy(dataset, k_folds, seed, |train| fit(train, p)))
        .collect();
    let (best_idx, &best_accuracy) = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite accuracies"))
        .expect("nonempty grid");
    GridSearchResult { best: grid[best_idx].clone(), best_accuracy, scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnClassifier;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfp_ml::tree::{DecisionTree, TreeConfig};

    fn blobs(n: usize, spread: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ds = Dataset::new(2);
        for _ in 0..n {
            ds.push(vec![rng.gen_range(-spread..spread)], 0);
            ds.push(vec![3.0 + rng.gen_range(-spread..spread)], 1);
        }
        ds
    }

    #[test]
    fn cv_accuracy_high_on_separable_data() {
        let ds = blobs(30, 0.8);
        let acc = cross_val_accuracy(&ds, 5, 1, |train| {
            DecisionTree::fit(train, &TreeConfig::default())
        });
        assert!(acc > 0.95, "cv accuracy {acc}");
    }

    #[test]
    fn cv_accuracy_near_chance_on_shuffled_labels() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ds = Dataset::new(2);
        for _ in 0..60 {
            ds.push(vec![rng.gen_range(-1.0..1.0)], rng.gen_range(0..2));
        }
        let acc = cross_val_accuracy(&ds, 5, 2, |train| KnnClassifier::fit(train, 3));
        assert!((0.2..0.8).contains(&acc), "shuffled-label accuracy {acc}");
    }

    #[test]
    fn grid_search_prefers_sane_k() {
        // Overlapping blobs: k = 1 overfits; a larger k should win or tie.
        let ds = blobs(40, 1.8);
        let result =
            grid_search(&ds, 4, 3, &[1usize, 9], |train, &k| KnnClassifier::fit(train, k));
        assert_eq!(result.scores.len(), 2);
        assert!(result.best_accuracy >= result.scores[0]);
        assert!(result.best_accuracy >= result.scores[1]);
    }

    #[test]
    fn grid_search_reports_all_scores() {
        let ds = blobs(20, 0.5);
        let grid = [TreeConfig { max_depth: 1, ..Default::default() }, TreeConfig::default()];
        let result = grid_search(&ds, 4, 4, &grid, DecisionTree::fit);
        assert_eq!(result.scores.len(), 2);
        assert!(result.scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    #[should_panic]
    fn empty_grid_panics() {
        let ds = blobs(10, 0.5);
        let _: GridSearchResult<usize> =
            grid_search(&ds, 3, 1, &[], |train, &k| KnnClassifier::fit(train, k));
    }
}
