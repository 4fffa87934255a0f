//! Fig. 4: θ_prop vs frequency — the unwrapped phase is linear in `f` and
//! the slope encodes the antenna–tag distance (0.5 / 1.5 / 2.5 m, glass).

use rfp_bench::report;
use rfp_core::model::{extract_observation, ExtractConfig};
use rfp_dsp::preprocess::preprocess_reads_with;
use rfp_dsp::FrontEndWorkspace;
use rfp_geom::Vec2;
use rfp_phys::{propagation, Material};
use rfp_sim::{Motion, Scene, SimTag};

fn main() {
    report::header(
        "Fig. 4",
        "phase vs frequency at 0.5 / 1.5 / 2.5 m (tag on glass)",
    );
    let scene = Scene::standard_2d();
    // Antenna 0 sits at (0, 0, 0.4); place the tag along its boresight at
    // controlled distances (projected into the plane).
    let antenna = scene.antenna_poses()[0];
    let config = ExtractConfig::paper();
    let (mut ws, mut channels) = (FrontEndWorkspace::default(), Vec::new());
    println!("{:>8} {:>14} {:>14} {:>14} {:>10}", "d (m)", "slope (rad/Hz)", "d̂ from slope", "R²", "sweep(rad)");
    for &d_xy in &[0.5f64, 1.5, 2.5] {
        // Tag straight ahead of the rack at ground level.
        let pos = Vec2::new(0.0, d_xy);
        let true_d = antenna.distance_to(pos.with_z(0.0));
        let tag = SimTag::with_seeded_diversity(1)
            .attached_to(Material::Glass)
            .with_motion(Motion::planar_static(pos, 0.0));
        let survey = scene.survey(&tag, 4);
        let reads = &survey.per_antenna[0];
        let obs = extract_observation(antenna, reads, &config).expect("survey usable");
        // R² of the raw (pre-rejection) line through every channel.
        preprocess_reads_with(&mut ws, reads, &config.preprocess, &mut channels)
            .expect("survey usable");
        let raw_r_squared = ws.raw_fit().expect("raw line").r_squared;
        // Remove the (calibratable) device slope to isolate θ_prop.
        let kt = tag.electrical().linearized(&scene.reader().plan).kt;
        let prop_slope = obs.slope - kt;
        let d_hat = propagation::distance_from_slope(prop_slope);
        let sweep = obs.slope * scene.reader().plan.span_hz();
        println!(
            "{true_d:>8.3} {:>14.4e} {d_hat:>14.3} {:>14.6} {sweep:>10.2}",
            obs.slope,
            raw_r_squared,
        );
        assert!(
            (d_hat - true_d).abs() < 0.05,
            "slope-ranged distance {d_hat} vs truth {true_d}"
        );
    }
    println!();
    println!("paper: three clearly linear curves whose slopes grow with distance;");
    println!("measured: linear fits with R² ≈ 1 and slope-ranged distances within 5 cm.");
}
