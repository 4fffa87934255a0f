//! CART decision tree with Gini impurity.
//!
//! The paper's winning classifier (87.9 % on the 8-material task, Fig. 13).
//! Axis-aligned splits suit the RF-Prism features well: `k_t` alone nearly
//! separates the material classes, so a tree finds compact, robust rules
//! where KNN drowns in the 52-dimensional noise.

use crate::dataset::Dataset;
use crate::Classifier;

/// Hyper-parameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum Gini impurity decrease for a split to be accepted.
    pub min_impurity_decrease: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 16, min_samples_leaf: 2, min_impurity_decrease: 1e-9 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { class: usize },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A fitted CART decision tree.
///
/// # Example
///
/// ```
/// use rfp_ml::{Dataset, tree::DecisionTree, Classifier};
/// let mut ds = Dataset::new(2);
/// for i in 0..10 { ds.push(vec![i as f64], usize::from(i >= 5)); }
/// let t = DecisionTree::fit(&ds, &Default::default());
/// assert_eq!(t.predict(&[2.0]), 0);
/// assert_eq!(t.predict(&[7.0]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
}

impl DecisionTree {
    /// Grows a tree on `train` with the given hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(train: &Dataset, config: &TreeConfig) -> Self {
        assert!(!train.is_empty(), "empty training set");
        let indices: Vec<usize> = (0..train.len()).collect();
        let root = grow(train, &indices, config, 0);
        DecisionTree { root, n_features: train.feature_dim().expect("nonempty") }
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Total number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + c(left) + c(right),
            }
        }
        c(&self.root)
    }
}

impl Classifier for DecisionTree {
    fn predict(&self, features: &[f64]) -> usize {
        assert_eq!(features.len(), self.n_features, "feature dimension mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn majority_class(train: &Dataset, indices: &[usize]) -> usize {
    let mut counts = vec![0usize; train.n_classes()];
    for &i in indices {
        counts[train.labels()[i]] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(cls, _)| cls)
        .expect("at least one class")
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    impurity_decrease: f64,
    left: Vec<usize>,
    right: Vec<usize>,
}

fn find_best_split(
    train: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
) -> Option<BestSplit> {
    let n = indices.len();
    let n_classes = train.n_classes();
    let dim = train.feature_dim().expect("nonempty");

    let mut parent_counts = vec![0usize; n_classes];
    for &i in indices {
        parent_counts[train.labels()[i]] += 1;
    }
    let parent_gini = gini(&parent_counts, n);
    if parent_gini == 0.0 {
        return None; // pure node
    }

    let mut best: Option<(usize, f64, f64, usize)> = None; // (feature, threshold, decrease, left_count)
    let mut sorted = indices.to_vec();
    for feature in 0..dim {
        sorted.sort_by(|&a, &b| {
            train.features()[a][feature]
                .partial_cmp(&train.features()[b][feature])
                .expect("finite features")
        });
        let mut left_counts = vec![0usize; n_classes];
        for split in 1..n {
            let prev = sorted[split - 1];
            left_counts[train.labels()[prev]] += 1;
            let x_prev = train.features()[prev][feature];
            let x_next = train.features()[sorted[split]][feature];
            if x_prev == x_next {
                continue; // cannot split between equal values
            }
            if split < config.min_samples_leaf || n - split < config.min_samples_leaf {
                continue;
            }
            let right_counts: Vec<usize> = parent_counts
                .iter()
                .zip(&left_counts)
                .map(|(p, l)| p - l)
                .collect();
            let g_left = gini(&left_counts, split);
            let g_right = gini(&right_counts, n - split);
            let weighted =
                (split as f64 * g_left + (n - split) as f64 * g_right) / n as f64;
            let decrease = parent_gini - weighted;
            if best.is_none_or(|(_, _, d, _)| decrease > d) {
                best = Some((feature, (x_prev + x_next) / 2.0, decrease, split));
            }
        }
    }

    let (feature, threshold, decrease, _) = best?;
    if decrease < config.min_impurity_decrease {
        return None;
    }
    let (left, right): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| train.features()[i][feature] <= threshold);
    if left.is_empty() || right.is_empty() {
        return None;
    }
    Some(BestSplit { feature, threshold, impurity_decrease: decrease, left, right })
}

fn grow(train: &Dataset, indices: &[usize], config: &TreeConfig, depth: usize) -> Node {
    if depth >= config.max_depth || indices.len() < 2 * config.min_samples_leaf {
        return Node::Leaf { class: majority_class(train, indices) };
    }
    match find_best_split(train, indices, config) {
        Some(split) if split.impurity_decrease >= config.min_impurity_decrease => {
            Node::Split {
                feature: split.feature,
                threshold: split.threshold,
                left: Box::new(grow(train, &split.left, config, depth + 1)),
                right: Box::new(grow(train, &split.right, config, depth + 1)),
            }
        }
        _ => Node::Leaf { class: majority_class(train, indices) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn splits_one_dimensional_classes() {
        let mut ds = Dataset::new(2);
        for i in 0..20 {
            ds.push(vec![i as f64], usize::from(i >= 10));
        }
        let cfg = TreeConfig { min_samples_leaf: 1, ..Default::default() };
        let t = DecisionTree::fit(&ds, &cfg);
        assert_eq!(t.predict(&[3.0]), 0);
        assert_eq!(t.predict(&[15.0]), 1);
        assert_eq!(t.depth(), 1, "a single threshold suffices");
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut ds = Dataset::new(2);
        // Unequal corner counts: perfectly symmetric XOR has zero Gini gain
        // for every first split, so break the symmetry like real data would.
        for &(x, y, l, n) in
            &[(0.0, 0.0, 0, 3), (1.0, 1.0, 0, 1), (0.0, 1.0, 1, 2), (1.0, 0.0, 1, 2)]
        {
            for j in 0..n {
                ds.push(vec![x + 0.01 * j as f64, y + 0.01 * j as f64], l);
            }
        }
        let cfg = TreeConfig { min_samples_leaf: 1, ..Default::default() };
        let t = DecisionTree::fit(&ds, &cfg);
        assert_eq!(t.predict(&[0.0, 0.0]), 0);
        assert_eq!(t.predict(&[1.0, 1.0]), 0);
        assert_eq!(t.predict(&[0.0, 1.0]), 1);
        assert_eq!(t.predict(&[1.0, 0.0]), 1);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let mut ds = Dataset::new(2);
        for i in 0..5 {
            ds.push(vec![i as f64], 1);
        }
        let t = DecisionTree::fit(&ds, &Default::default());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[100.0]), 1);
    }

    #[test]
    fn max_depth_zero_gives_majority_vote() {
        let mut ds = Dataset::new(2);
        ds.push(vec![0.0], 0);
        ds.push(vec![1.0], 1);
        ds.push(vec![2.0], 1);
        let cfg = TreeConfig { max_depth: 0, ..Default::default() };
        let t = DecisionTree::fit(&ds, &cfg);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[0.0]), 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut ds = Dataset::new(2);
        // 9 samples of class 0, 1 of class 1: a leaf of 1 would isolate it.
        for i in 0..9 {
            ds.push(vec![i as f64], 0);
        }
        ds.push(vec![9.0], 1);
        let cfg = TreeConfig { min_samples_leaf: 3, ..Default::default() };
        let t = DecisionTree::fit(&ds, &cfg);
        // The lone class-1 sample cannot get its own leaf.
        assert_eq!(t.predict(&[9.0]), 0);
    }

    #[test]
    fn separable_gaussian_blobs_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ds = Dataset::new(3);
        let centres = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)];
        for (c, &(cx, cy)) in centres.iter().enumerate() {
            for _ in 0..60 {
                ds.push(
                    vec![cx + rng.gen_range(-0.8..0.8), cy + rng.gen_range(-0.8..0.8)],
                    c,
                );
            }
        }
        let (train, test) = ds.stratified_split(0.5, 1);
        let t = DecisionTree::fit(&train, &Default::default());
        let preds = t.predict_batch(test.features());
        let hits = preds.iter().zip(test.labels()).filter(|(p, l)| p == l).count();
        let acc = hits as f64 / test.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn handles_constant_features() {
        let mut ds = Dataset::new(2);
        ds.push(vec![1.0, 0.0], 0);
        ds.push(vec![1.0, 1.0], 1);
        ds.push(vec![1.0, 0.1], 0);
        ds.push(vec![1.0, 0.9], 1);
        let cfg = TreeConfig { min_samples_leaf: 1, ..Default::default() };
        let t = DecisionTree::fit(&ds, &cfg);
        assert_eq!(t.predict(&[1.0, 0.05]), 0);
        assert_eq!(t.predict(&[1.0, 0.95]), 1);
    }

    #[test]
    #[should_panic]
    fn empty_training_panics() {
        let _ = DecisionTree::fit(&Dataset::new(1), &Default::default());
    }
}
