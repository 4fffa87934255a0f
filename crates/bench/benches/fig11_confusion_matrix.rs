//! Fig. 11: the 8×8 confusion matrix of the material identifier.
//!
//! Paper: every diagonal ≥ 0.85; the dominant confusion is water ↔
//! skim milk (6 %), explained by their similar permittivity.

use rfp_bench::matid::{self, Model};
use rfp_bench::report;
use rfp_phys::Material;
use rfp_sim::Scene;

fn main() {
    report::header("Fig. 11", "confusion matrix of the 8-material decision tree");
    let scene = Scene::standard_2d();
    let corpus = matid::build_corpus(&scene, 100, 50);
    let cm = matid::evaluate_all(&corpus, &Model::Tree);

    report::confusion_matrix(&cm);
    println!();
    report::row("overall accuracy", "87.9 %", &report::pct(cm.accuracy()));

    let norm = cm.normalized();
    let water = Material::Water.class_index().unwrap();
    let milk = Material::SkimMilk.class_index().unwrap();
    report::row("water→milk confusion", "6 %", &report::pct(norm[water][milk]));
    report::row("milk→water confusion", "6 %", &report::pct(norm[milk][water]));

    // Shape: strong diagonal, water/milk the worst pair.
    assert!(cm.accuracy() > 0.8, "overall accuracy {}", cm.accuracy());
    let mut worst_offdiag = 0.0f64;
    let mut worst_pair = (0usize, 0usize);
    for (t, row) in norm.iter().enumerate() {
        for (p, &v) in row.iter().enumerate() {
            if t != p && v > worst_offdiag {
                worst_offdiag = v;
                worst_pair = (t, p);
            }
        }
    }
    println!(
        "largest confusion: {} → {} ({:.1} %)",
        Material::from_class_index(worst_pair.0),
        Material::from_class_index(worst_pair.1),
        worst_offdiag * 100.0
    );
    let water_milk_pair = (worst_pair == (water, milk)) || (worst_pair == (milk, water));
    assert!(
        water_milk_pair || worst_offdiag < 0.12,
        "the dominant confusion should be water/milk (got {worst_pair:?})"
    );
}
