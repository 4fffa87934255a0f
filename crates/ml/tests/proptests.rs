//! Property-based tests for the ML primitives.

use proptest::prelude::*;
use rfp_ml::dataset::Dataset;
use rfp_ml::scaler::StandardScaler;
use rfp_ml::tree::{DecisionTree, TreeConfig};
use rfp_ml::Classifier;

fn labelled_points() -> impl Strategy<Value = Vec<(Vec<f64>, usize)>> {
    proptest::collection::vec(
        (proptest::collection::vec(-10.0f64..10.0, 3), 0usize..3),
        6..40,
    )
}

proptest! {
    #[test]
    fn stratified_split_partitions_exactly(points in labelled_points(), seed in 0u64..100) {
        let mut ds = Dataset::new(3);
        for (f, l) in &points {
            ds.push(f.clone(), *l);
        }
        let (train, test) = ds.stratified_split(0.6, seed);
        prop_assert_eq!(train.len() + test.len(), ds.len());
        // Per-class conservation.
        let total = ds.class_counts();
        let t1 = train.class_counts();
        let t2 = test.class_counts();
        for c in 0..3 {
            prop_assert_eq!(t1[c] + t2[c], total[c]);
        }
    }

    #[test]
    fn scaler_inverse_consistency(points in labelled_points()) {
        let mut ds = Dataset::new(3);
        for (f, l) in &points {
            ds.push(f.clone(), *l);
        }
        let s = StandardScaler::fit(&ds);
        let t = s.transform_dataset(&ds);
        // Column means ≈ 0 after transform.
        for d in 0..3 {
            let col: Vec<f64> = t.features().iter().map(|f| f[d]).collect();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            prop_assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn tree_consistent_on_training_data_when_separable(
        gap in 1.0f64..10.0,
        n in 4usize..30,
    ) {
        // Two classes separated by `gap` along one axis: the tree must fit
        // the training set perfectly.
        let mut ds = Dataset::new(2);
        for i in 0..n {
            let x = i as f64 * 0.1;
            ds.push(vec![x], 0);
            ds.push(vec![x + gap + n as f64 * 0.1], 1);
        }
        let cfg = TreeConfig { min_samples_leaf: 1, ..Default::default() };
        let t = DecisionTree::fit(&ds, &cfg);
        for i in 0..ds.len() {
            let (f, l) = ds.sample(i);
            prop_assert_eq!(t.predict(f), l);
        }
    }
}
