//! Fig. 13: material identification accuracy of KNN / SVM / Decision Tree.
fn main() {
    use rfp_bench::matid::{self, Model};
    use rfp_bench::report;
    use rfp_bench::svm::SvmConfig;
    use rfp_sim::Scene;

    report::header("Fig. 13", "classifier comparison on the 8-material task");
    let scene = Scene::standard_2d();
    let corpus = matid::build_corpus(&scene, 100, 50);
    println!(
        "corpus: {} training / {} validation samples",
        corpus.train.len(),
        corpus.validation.len()
    );
    use rfp_bench::svm::Kernel;
    let mut accuracies = Vec::new();
    for (name, paper, kind) in [
        ("KNN (k=9)", "75.6 %", Model::Knn { k: 9 }),
        (
            "SVM (RBF)",
            "83.5 %",
            Model::Svm(SvmConfig {
                c: 10.0,
                kernel: Kernel::Rbf { gamma: 0.005 },
                ..Default::default()
            }),
        ),
        ("Decision Tree", "87.9 %", Model::Tree),
    ] {
        let cm = matid::evaluate_all(&corpus, &kind);
        report::row(name, paper, &report::pct(cm.accuracy()));
        accuracies.push(cm.accuracy());
    }
    println!();
    println!("paper's ordering: Decision Tree > SVM > KNN (KNN suffers most from the");
    println!("52-dimensional feature space; the tree finds the low-dimensional k_t /");
    println!("curvature splits). The ordering must hold here too:");
    assert!(accuracies[2] > accuracies[1] && accuracies[1] > accuracies[0]);
    assert!(accuracies[2] > 0.8, "decision tree accuracy {}", accuracies[2]);
}
