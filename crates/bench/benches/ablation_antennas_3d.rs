//! Extension (paper §VII): 3-D localization — and what "4 antennas are
//! sufficient" really buys.
//!
//! With four antennas the 3-D problem is *identifiable* (8 equations, 7
//! unknowns) exactly as the paper says — but the slope subsystem has zero
//! redundancy, so millimetre-level ranging noise dilutes into metre-level
//! position error. Two extra antennas restore redundancy and bring 3-D
//! into the tens-of-centimetres regime. A reproduction finding worth
//! recording.

use rfp_bench::report;
use rfp_core::model::{extract_observation, ExtractConfig};
use rfp_core::solver3d::solve_3d;
use rfp_core::SolverConfig;
use rfp_geom::Vec3;
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};

fn run(scene: &Scene, z_hi: f64, label: &str) -> (f64, f64) {
    let mut pos_err = Vec::new();
    let mut axis_err = Vec::new();
    let mut seed = 0u64;
    let targets = [
        (0.6, 1.0, 0.4),
        (1.2, 1.4, 0.8),
        (1.6, 2.0, 0.3),
        (0.4, 1.8, 1.0),
        (1.0, 1.2, 0.6),
        (1.4, 2.2, 0.5),
    ];
    for &(x, y, z) in &targets {
        for &dipole in &[Vec3::new(1.0, 0.0, 0.3), Vec3::new(0.2, 0.4, 1.0)] {
            seed += 1;
            let truth = scene.region().clamp(rfp_geom::Vec2::new(x, y)).with_z(z);
            let tag = SimTag::with_seeded_diversity(seed)
                .attached_to(Material::Glass)
                .with_motion(Motion::Static { position: truth, dipole: dipole.normalized() });
            let survey = scene.survey(&tag, 80_000 + seed);
            let obs: Vec<_> = scene
                .antenna_poses()
                .iter()
                .zip(&survey.per_antenna)
                .map(|(&p, r)| {
                    extract_observation(p, r, &ExtractConfig::paper()).expect("usable")
                })
                .collect();
            let est = solve_3d(&obs, scene.region(), (0.0, z_hi), &SolverConfig::default())
                .expect("solvable");
            pos_err.push(est.position.distance(truth) * 100.0);
            axis_err.push(est.dipole_axis_error(dipole).to_degrees());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "  {label:<12} position {:>9}   dipole axis {:>8}",
        report::cm(mean(&pos_err)),
        report::deg(mean(&axis_err))
    );
    (mean(&pos_err), mean(&axis_err))
}

fn main() {
    report::header(
        "Extension",
        "3-D localization: 4 antennas (identifiable) vs 6 (redundant)",
    );
    let four = run(&Scene::four_antenna_3d(), 1.0, "4 antennas");
    let six = run(&Scene::six_antenna_3d(), 1.5, "6 antennas");
    println!();
    println!("the paper's §VII claim (3-D \"totally feasible\" with 4 antennas) holds");
    println!("for identifiability, but the slope subsystem then has zero redundancy:");
    println!("noise dilutes brutally. Six antennas restore the centimetre regime.");
    assert!(six.0 < four.0, "redundancy must help: {six:?} vs {four:?}");
    assert!(six.0 < 40.0, "6-antenna 3-D error {} cm", six.0);
}
