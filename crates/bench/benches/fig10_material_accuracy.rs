//! Fig. 10: material identification accuracy by distance region and by
//! tag orientation.
//!
//! Paper: 88.6 % / 87.5 % / 87.5 % near/medium/far; 88.0 % at 0° vs
//! 87.8 % at 90° with training data from 0° only.

use rfp_bench::matid::{self, Model};
use rfp_bench::{report, setup};
use rfp_sim::Scene;

fn main() {
    let scene = Scene::standard_2d();
    let corpus = matid::build_corpus(&scene, 100, 50);
    let kind = Model::Tree;

    report::header("Fig. 10 (top)", "material accuracy by distance region");
    let paper = ["88.6 %", "87.5 %", "87.5 %"];
    let mut region_acc = Vec::new();
    for (r, paper_row) in paper.iter().enumerate() {
        let cm = matid::evaluate(&corpus, &kind, |s| s.region == r);
        report::row(setup::REGION_NAMES[r], paper_row, &report::pct(cm.accuracy()));
        region_acc.push(cm.accuracy());
    }

    report::header("Fig. 10 (bottom)", "material accuracy by tag orientation");
    let cm0 = matid::evaluate(&corpus, &kind, |s| s.alpha == 0.0);
    let cm90 = matid::evaluate(&corpus, &kind, |s| s.alpha > 0.0);
    report::row("0° (training orientation)", "88.0 %", &report::pct(cm0.accuracy()));
    report::row("90° (unseen orientation)", "87.8 %", &report::pct(cm90.accuracy()));

    // Shape: all conditions in the same band — neither distance nor
    // orientation should matter much (that is the point of disentangling).
    for (name, acc) in [("near", region_acc[0]), ("far", region_acc[2])] {
        assert!(acc > 0.7, "{name} accuracy {acc}");
    }
    assert!(
        (cm0.accuracy() - cm90.accuracy()).abs() < 0.12,
        "orientation must not matter: {} vs {}",
        cm0.accuracy(),
        cm90.accuracy()
    );
}
