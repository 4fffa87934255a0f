//! Property-based tests for the compared classifiers and the metrics.

use proptest::prelude::*;
use rfp_bench::knn::KnnClassifier;
use rfp_bench::metrics::ConfusionMatrix;
use rfp_ml::dataset::Dataset;
use rfp_ml::Classifier;

fn labelled_points() -> impl Strategy<Value = Vec<(Vec<f64>, usize)>> {
    proptest::collection::vec(
        (proptest::collection::vec(-10.0f64..10.0, 3), 0usize..3),
        6..40,
    )
}

proptest! {
    #[test]
    fn knn_k1_memorizes(points in labelled_points()) {
        // Deduplicate identical feature vectors (they may carry conflicting
        // labels, which 1-NN cannot memorize).
        let mut seen: Vec<Vec<f64>> = Vec::new();
        let mut ds = Dataset::new(3);
        for (f, l) in &points {
            if !seen.iter().any(|s| s == f) {
                seen.push(f.clone());
                ds.push(f.clone(), *l);
            }
        }
        let knn = KnnClassifier::fit(&ds, 1);
        for i in 0..ds.len() {
            let (f, l) = ds.sample(i);
            prop_assert_eq!(knn.predict(f), l);
        }
    }

    #[test]
    fn confusion_matrix_accuracy_bounds(
        truth in proptest::collection::vec(0usize..4, 1..50),
        seed in 0usize..4,
    ) {
        let predicted: Vec<usize> = truth.iter().map(|&t| (t + seed) % 4).collect();
        let cm = ConfusionMatrix::from_predictions(4, &truth, &predicted);
        let acc = cm.accuracy();
        prop_assert!((0.0..=1.0).contains(&acc));
        if seed == 0 {
            prop_assert!((acc - 1.0).abs() < 1e-12);
        } else {
            prop_assert!(acc < 1e-12);
        }
        prop_assert_eq!(cm.total(), truth.len());
    }
}
