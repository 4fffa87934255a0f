//! Concurrency stress: a 512-tag batch, solved repeatedly at a high worker
//! count, must produce byte-identical output every run (and not panic).
//! Any data race, scheduling-dependent accumulation order or leaked
//! worker-local state would show up as a digest mismatch here long before
//! it showed up as a visibly wrong estimate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_core::{RfPrism, SenseError, SensingResult};
use rfp_geom::Vec2;
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};

/// FNV-1a over every output bit of a batch, errors included.
fn digest(results: &[Result<SensingResult, SenseError>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in results {
        match r {
            Ok(s) => {
                let e = &s.estimate;
                for v in [
                    e.position.x,
                    e.position.y,
                    e.orientation,
                    e.kt,
                    e.bt,
                    e.cost,
                    e.residual_rms,
                ] {
                    eat(v.to_bits());
                }
                for o in &s.observations {
                    eat(o.slope.to_bits());
                    eat(o.intercept.to_bits());
                }
            }
            Err(e) => eat(format!("{e:?}").len() as u64),
        }
    }
    h
}

#[test]
fn stress_512_tags_byte_identical_across_runs() {
    let scene = Scene::standard_2d();
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region());
    let materials = [Material::FreeSpace, Material::Wood, Material::Glass, Material::Water];
    let mut rng = StdRng::seed_from_u64(0x5157_5052_4953_4d21);
    let region = scene.region();
    let tags: Vec<_> = (0..512u64)
        .map(|i| {
            let pos = Vec2::new(
                rng.gen_range(region.min().x..region.max().x),
                rng.gen_range(region.min().y..region.max().y),
            );
            let alpha = rng.gen_range(0.0..std::f64::consts::PI);
            let tag = SimTag::with_seeded_diversity(i)
                .attached_to(materials[(i % 4) as usize])
                .with_motion(Motion::planar_static(pos, alpha));
            scene.survey(&tag, i.wrapping_mul(0x9e37_79b9)).per_antenna
        })
        .collect();

    let reference = digest(&prism.sense_batch(&tags, 1));
    // Repeated high-concurrency runs: same bytes every time, at every
    // worker count, including `0` (= all available CPUs).
    for jobs in [8, 8, 8, 2, 0] {
        let d = digest(&prism.sense_batch(&tags, jobs));
        assert_eq!(d, reference, "digest diverged at jobs={jobs}");
    }
}
