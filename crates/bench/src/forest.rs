//! Random forest: bagged CART trees with per-split feature subsampling.
//!
//! An extension beyond the paper's three classifiers: the decision tree
//! already wins Fig. 13, and a forest is the standard variance-reduction
//! on top of it — each tree trains on a bootstrap resample and only sees a
//! random subset of features at each split, so the ensemble smooths the
//! single tree's axis-aligned brittleness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_ml::dataset::Dataset;
use rfp_ml::tree::{DecisionTree, TreeConfig};
use rfp_ml::Classifier;

/// Hyper-parameters for [`RandomForest::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub trees: usize,
    /// Per-tree hyper-parameters.
    pub tree: TreeConfig,
    /// Features sampled per tree (0 = √d, the usual default).
    pub features_per_tree: usize,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            trees: 25,
            tree: TreeConfig::default(),
            features_per_tree: 0,
            sample_fraction: 1.0,
            seed: 0xf0_4e57,
        }
    }
}

/// A fitted random forest.
///
/// # Example
///
/// ```
/// use rfp_bench::forest::{ForestConfig, RandomForest};
/// use rfp_ml::{Classifier, Dataset};
/// let mut ds = Dataset::new(2);
/// for i in 0..40 {
///     let x = i as f64 / 20.0 - 1.0;
///     ds.push(vec![x, -x], usize::from(x > 0.0));
/// }
/// let rf = RandomForest::fit(&ds, &ForestConfig::default());
/// assert_eq!(rf.predict(&[-0.7, 0.7]), 0);
/// assert_eq!(rf.predict(&[0.7, -0.7]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// `(feature_indices, tree)` per member: each tree sees a projected
    /// feature space.
    members: Vec<(Vec<usize>, DecisionTree)>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Trains `config.trees` bagged trees.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `config.trees == 0`.
    pub fn fit(train: &Dataset, config: &ForestConfig) -> Self {
        assert!(!train.is_empty(), "empty training set");
        assert!(config.trees > 0, "need at least one tree");
        let n = train.len();
        let d = train.feature_dim().expect("nonempty");
        let per_tree = if config.features_per_tree == 0 {
            ((d as f64).sqrt().round() as usize).clamp(1, d)
        } else {
            config.features_per_tree.min(d)
        };
        let sample_n = ((n as f64 * config.sample_fraction).round() as usize).max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut members = Vec::with_capacity(config.trees);
        for _ in 0..config.trees {
            // Feature subset for this tree.
            let mut features: Vec<usize> = (0..d).collect();
            for i in (1..d).rev() {
                features.swap(i, rng.gen_range(0..=i));
            }
            features.truncate(per_tree);
            features.sort_unstable();

            // Bootstrap resample projected onto the feature subset.
            let mut boot = Dataset::new(train.n_classes());
            for _ in 0..sample_n {
                let (f, l) = train.sample(rng.gen_range(0..n));
                boot.push(features.iter().map(|&j| f[j]).collect(), l);
            }
            // A bootstrap can be single-class; the tree handles that (one
            // leaf).
            members.push((features, DecisionTree::fit(&boot, &config.tree)));
        }
        RandomForest { members, n_classes: train.n_classes(), n_features: d }
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.members.len()
    }

    /// Per-class vote fractions for one feature vector.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(features.len(), self.n_features, "feature dimension mismatch");
        let mut votes = vec![0.0f64; self.n_classes];
        for (idx, tree) in &self.members {
            let projected: Vec<f64> = idx.iter().map(|&j| features[j]).collect();
            votes[tree.predict(&projected)] += 1.0;
        }
        let total: f64 = votes.iter().sum();
        for v in &mut votes {
            *v /= total;
        }
        votes
    }
}

impl Classifier for RandomForest {
    fn predict(&self, features: &[f64]) -> usize {
        let p = self.predict_proba(features);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite votes"))
            .map(|(i, _)| i)
            .expect("at least one class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, spread: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(3);
        let centres = [(0.0, 0.0, 0.0), (3.0, 0.0, 1.0), (0.0, 3.0, -1.0)];
        for (c, &(cx, cy, cz)) in centres.iter().enumerate() {
            for _ in 0..n {
                ds.push(
                    vec![
                        cx + rng.gen_range(-spread..spread),
                        cy + rng.gen_range(-spread..spread),
                        cz + rng.gen_range(-spread..spread),
                    ],
                    c,
                );
            }
        }
        ds
    }

    #[test]
    fn separates_blobs() {
        let ds = blobs(40, 0.8, 1);
        let rf = RandomForest::fit(&ds, &ForestConfig::default());
        assert_eq!(rf.tree_count(), 25);
        assert_eq!(rf.predict(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(rf.predict(&[3.0, 0.0, 1.0]), 1);
        assert_eq!(rf.predict(&[0.0, 3.0, -1.0]), 2);
    }

    #[test]
    fn beats_or_matches_single_tree_on_noisy_data() {
        let ds = blobs(60, 1.6, 2); // heavy overlap
        let (train, test) = ds.stratified_split(0.5, 3);
        let tree = DecisionTree::fit(&train, &TreeConfig::default());
        let rf = RandomForest::fit(&train, &ForestConfig::default());
        let acc = |preds: Vec<usize>| crate::metrics::accuracy(test.labels(), &preds);
        let tree_acc = acc(tree.predict_batch(test.features()));
        let rf_acc = acc(rf.predict_batch(test.features()));
        assert!(
            rf_acc + 0.05 >= tree_acc,
            "forest {rf_acc} should not lose badly to tree {tree_acc}"
        );
    }

    #[test]
    fn probabilities_sum_to_one() {
        let ds = blobs(20, 0.5, 4);
        let rf = RandomForest::fit(&ds, &ForestConfig { trees: 7, ..Default::default() });
        let p = rf.predict_proba(&[1.0, 1.0, 0.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = blobs(20, 1.0, 5);
        let a = RandomForest::fit(&ds, &ForestConfig::default());
        let b = RandomForest::fit(&ds, &ForestConfig::default());
        let q = vec![vec![1.5, 1.5, 0.2], vec![0.2, 2.4, -0.6]];
        assert_eq!(a.predict_batch(&q), b.predict_batch(&q));
    }

    #[test]
    fn feature_subsampling_respected() {
        let ds = blobs(15, 0.5, 6);
        let rf = RandomForest::fit(
            &ds,
            &ForestConfig { features_per_tree: 1, trees: 5, ..Default::default() },
        );
        // Still functional with single-feature trees.
        let p = rf.predict_proba(&[0.0, 0.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_trees_panics() {
        let ds = blobs(5, 0.5, 7);
        let _ = RandomForest::fit(&ds, &ForestConfig { trees: 0, ..Default::default() });
    }
}
