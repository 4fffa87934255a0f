//! K-Nearest-Neighbour classification.
//!
//! One of the paper's three evaluated classifiers (Fig. 13). The paper finds
//! KNN performs worst (75.6 %) on the 52-dimensional feature vector —
//! distance concentration in high dimensions — and our reproduction should
//! exhibit the same ordering.

use rfp_ml::dataset::Dataset;
use rfp_ml::Classifier;

/// A fitted KNN classifier (stores the training set).
///
/// # Example
///
/// ```
/// use rfp_bench::knn::KnnClassifier;
/// use rfp_ml::{Classifier, Dataset};
/// let mut ds = Dataset::new(2);
/// ds.push(vec![0.0], 0);
/// ds.push(vec![0.1], 0);
/// ds.push(vec![1.0], 1);
/// ds.push(vec![1.1], 1);
/// let knn = KnnClassifier::fit(&ds, 3);
/// assert_eq!(knn.predict(&[0.05]), 0);
/// assert_eq!(knn.predict(&[0.95]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    train: Dataset,
}

impl KnnClassifier {
    /// Stores the training data; `k` neighbours vote at prediction time.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `k == 0`.
    pub fn fit(train: &Dataset, k: usize) -> Self {
        assert!(!train.is_empty(), "empty training set");
        assert!(k > 0, "k must be positive");
        KnnClassifier { k: k.min(train.len()), train: train.clone() }
    }

    /// The effective number of neighbours (clamped to the training size).
    pub fn k(&self) -> usize {
        self.k
    }

    fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl Classifier for KnnClassifier {
    fn predict(&self, features: &[f64]) -> usize {
        assert_eq!(
            Some(features.len()),
            self.train.feature_dim(),
            "feature dimension mismatch"
        );
        // Collect (distance, label), partial-select the k smallest.
        let mut dist: Vec<(f64, usize)> = self
            .train
            .features()
            .iter()
            .zip(self.train.labels())
            .map(|(f, &l)| (Self::squared_distance(features, f), l))
            .collect();
        dist.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let mut votes = vec![0usize; self.train.n_classes()];
        for &(_, l) in dist.iter().take(self.k) {
            votes[l] += 1;
        }
        // Ties break toward the nearest class among the tied ones.
        let max_votes = *votes.iter().max().expect("nonempty");
        dist.iter()
            .take(self.k)
            .find(|&&(_, l)| votes[l] == max_votes)
            .map(|&(_, l)| l)
            .expect("k >= 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> Dataset {
        let mut ds = Dataset::new(3);
        for i in 0..10 {
            let j = i as f64 * 0.01;
            ds.push(vec![0.0 + j, 0.0], 0);
            ds.push(vec![5.0 + j, 5.0], 1);
            ds.push(vec![0.0 + j, 5.0], 2);
        }
        ds
    }

    #[test]
    fn classifies_cluster_centres() {
        let knn = KnnClassifier::fit(&clusters(), 5);
        assert_eq!(knn.predict(&[0.0, 0.2]), 0);
        assert_eq!(knn.predict(&[5.0, 4.9]), 1);
        assert_eq!(knn.predict(&[0.1, 5.1]), 2);
    }

    #[test]
    fn k_clamped_to_training_size() {
        let mut ds = Dataset::new(2);
        ds.push(vec![0.0], 0);
        ds.push(vec![1.0], 1);
        let knn = KnnClassifier::fit(&ds, 100);
        assert_eq!(knn.k(), 2);
        // Tied vote: break toward the nearest sample.
        assert_eq!(knn.predict(&[0.1]), 0);
        assert_eq!(knn.predict(&[0.9]), 1);
    }

    #[test]
    fn k_one_memorizes_training_set() {
        let ds = clusters();
        let knn = KnnClassifier::fit(&ds, 1);
        for i in 0..ds.len() {
            let (f, l) = ds.sample(i);
            assert_eq!(knn.predict(f), l);
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let ds = clusters();
        let knn = KnnClassifier::fit(&ds, 3);
        let queries = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        assert_eq!(knn.predict_batch(&queries), vec![0, 1]);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let _ = KnnClassifier::fit(&clusters(), 0);
    }

    #[test]
    #[should_panic]
    fn empty_train_panics() {
        let _ = KnnClassifier::fit(&Dataset::new(1), 1);
    }

    #[test]
    #[should_panic]
    fn dim_mismatch_panics() {
        let knn = KnnClassifier::fit(&clusters(), 1);
        let _ = knn.predict(&[1.0]);
    }
}
