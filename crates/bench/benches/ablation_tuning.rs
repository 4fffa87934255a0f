//! Ablation: hyper-parameter tuning of the material classifier by
//! cross-validation on the *training* split only.
//!
//! The paper hand-picks its decision tree; here a small grid search over
//! tree depth / leaf size (and KNN's k) shows how much headroom tuning
//! has — and that the defaults sit near the plateau.

use rfp_bench::knn::KnnClassifier;
use rfp_bench::modsel::grid_search;
use rfp_bench::{matid, report};
use rfp_core::material::{ClassifierKind, MaterialIdentifier};
use rfp_ml::scaler::StandardScaler;
use rfp_ml::tree::{DecisionTree, TreeConfig};
use rfp_sim::Scene;

fn main() {
    report::header("Ablation", "classifier tuning by cross-validation (training split)");
    let scene = Scene::standard_2d();
    let corpus = matid::build_corpus(&scene, 100, 50);
    let train = matid::to_dataset(&corpus.train);
    // Standardize once (as MaterialIdentifier::train would).
    let scaler = StandardScaler::fit(&train);
    let scaled = scaler.transform_dataset(&train);

    report::section("decision tree grid (max_depth, min_samples_leaf)");
    let tree_grid: Vec<TreeConfig> = [(4usize, 2usize), (8, 2), (16, 2), (16, 8), (24, 1)]
        .iter()
        .map(|&(depth, leaf)| TreeConfig {
            max_depth: depth,
            min_samples_leaf: leaf,
            ..Default::default()
        })
        .collect();
    let tree_result = grid_search(&scaled, 5, 11, &tree_grid, |t, cfg| {
        DecisionTree::fit(t, cfg)
    });
    for (cfg, score) in tree_grid.iter().zip(&tree_result.scores) {
        println!(
            "  depth {:>2}, leaf {:>2}: CV accuracy {}",
            cfg.max_depth,
            cfg.min_samples_leaf,
            report::pct(*score)
        );
    }

    report::section("KNN grid (k)");
    let knn_grid = [1usize, 3, 9, 21];
    let knn_result =
        grid_search(&scaled, 5, 11, &knn_grid, |t, &k| KnnClassifier::fit(t, k));
    for (k, score) in knn_grid.iter().zip(&knn_result.scores) {
        println!("  k = {k:>2}: CV accuracy {}", report::pct(*score));
    }

    // Validate the CV-chosen tree on the held-out set.
    let tuned = MaterialIdentifier::train(
        &train,
        &ClassifierKind::DecisionTree(tree_result.best),
    );
    let mut hits = 0usize;
    for s in &corpus.validation {
        if tuned.predict_index(&s.features) == s.label {
            hits += 1;
        }
    }
    let tuned_acc = hits as f64 / corpus.validation.len() as f64;
    println!();
    report::row("tuned tree (held-out)", "≈ default", &report::pct(tuned_acc));
    assert!(tuned_acc > 0.8, "tuned accuracy {tuned_acc}");
    assert!(
        tree_result.best_accuracy >= tree_result.scores[0],
        "grid search must not pick a worse candidate"
    );
}
