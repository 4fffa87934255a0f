//! Batch sensing throughput: tags/second on a 256-tag scene at 1, 2, 4
//! and 8 workers.
//!
//! The per-tag disentangling solves are independent, so throughput should
//! scale with the worker count up to the machine's core count; the `jobs=1`
//! row doubles as the sequential baseline (it runs inline, no pool). On a
//! single-core container every row collapses to the same rate — the
//! speedup column is only meaningful on multicore hardware.
//!
//! Writes a `BENCH_batch.json` snapshot at the repo root through the
//! shared versioned report writer, so the throughput trajectory is
//! recorded PR over PR in the same schema as every other snapshot.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_bench::{report, setup};
use rfp_core::WarmStart;
use rfp_geom::Vec2;
use rfp_obs::JsonValue;
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};
use std::hint::black_box;
use std::time::Instant;

const TAGS: usize = 256;
const REPEATS: usize = 3;
const JOB_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// `BATCH_THROUGHPUT_QUICK=1` trims the population and repeats so the CI
/// perf gate finishes fast; speedup ratios stay representative.
fn quick_mode() -> bool {
    std::env::var("BATCH_THROUGHPUT_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

fn main() {
    report::header("batch_throughput", "parallel batch sensing, 256 tags");
    let (tags_n, repeats) = if quick_mode() { (64, 2) } else { (TAGS, REPEATS) };
    if quick_mode() {
        println!("(quick mode: {tags_n} tags, {repeats} repeats)");
    }
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let scene = Scene::standard_2d();
    let prism = setup::prism_for(&scene);
    let materials = [Material::FreeSpace, Material::Wood, Material::Glass, Material::Water];
    let region = scene.region();
    let mut rng = StdRng::seed_from_u64(256);
    let tags: Vec<_> = (0..tags_n as u64)
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

    // One unrecorded pass to warm caches and fault in the seed tables.
    black_box(prism.sense_batch(&tags, 1));

    report::section("tags/second (best of 3 passes)");
    let mut rows: Vec<JsonValue> = Vec::new();
    let mut base_rate = 0.0f64;
    for jobs in JOB_LEVELS {
        let mut best_secs = f64::INFINITY;
        for _ in 0..repeats {
            let t0 = Instant::now();
            black_box(prism.sense_batch(&tags, jobs));
            best_secs = best_secs.min(t0.elapsed().as_secs_f64());
        }
        let rate = tags_n as f64 / best_secs;
        if jobs == 1 {
            base_rate = rate;
        }
        println!(
            "  jobs {jobs}   {rate:>8.1} tags/s   {:>8.2} ms/batch   speedup ×{:.2}",
            best_secs * 1e3,
            rate / base_rate
        );
        let round1 = |x: f64| (x * 10.0).round() / 10.0;
        rows.push(JsonValue::obj(vec![
            ("jobs", JsonValue::Num(jobs as f64)),
            ("tags_per_sec", JsonValue::Num(round1(rate))),
            ("batch_ms", JsonValue::Num(round1(best_secs * 1e3))),
            ("speedup", JsonValue::Num((rate / base_rate * 100.0).round() / 100.0)),
        ]));
    }

    // Steady state: every tag warm-started from its previous estimate —
    // the regime of a deployment re-reading the same inventory each round.
    report::section("warm-started steady state (tags/second, best of 3 passes)");
    let warms: Vec<Option<WarmStart>> = prism
        .sense_batch(&tags, 1)
        .iter()
        .map(|r| r.as_ref().ok().map(|res| WarmStart::from_estimate(&res.estimate)))
        .collect();
    let cache = prism.batch_cache();
    let mut warm_rows: Vec<JsonValue> = Vec::new();
    for jobs in JOB_LEVELS {
        let mut best_secs = f64::INFINITY;
        for _ in 0..repeats {
            let t0 = Instant::now();
            black_box(prism.sense_batch_warm(&cache, &tags, &warms, jobs));
            best_secs = best_secs.min(t0.elapsed().as_secs_f64());
        }
        let rate = tags_n as f64 / best_secs;
        println!(
            "  jobs {jobs}   {rate:>8.1} tags/s   {:>8.2} ms/batch   vs cold ×{:.2}",
            best_secs * 1e3,
            rate / base_rate
        );
        let round1 = |x: f64| (x * 10.0).round() / 10.0;
        warm_rows.push(JsonValue::obj(vec![
            ("jobs", JsonValue::Num(jobs as f64)),
            ("tags_per_sec", JsonValue::Num(round1(rate))),
            ("batch_ms", JsonValue::Num(round1(best_secs * 1e3))),
        ]));
    }

    let value = rfp_obs::report::snapshot(
        "batch_throughput",
        vec![
            ("tags", JsonValue::Num(tags_n as f64)),
            ("repeats", JsonValue::Num(repeats as f64)),
            // The scaling rows are only meaningful relative to the cores
            // the machine actually has — the perf gate keys off this.
            ("hardware_threads", JsonValue::Num(hardware_threads as f64)),
            (
                "units",
                JsonValue::obj(vec![(
                    "throughput",
                    JsonValue::Str("tags per second, best of repeats".into()),
                )]),
            ),
            ("levels", JsonValue::Arr(rows)),
            ("warm_levels", JsonValue::Arr(warm_rows)),
        ],
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    let path =
        std::env::var("BATCH_THROUGHPUT_OUT").unwrap_or_else(|_| default_path.to_string());
    match rfp_obs::report::write_json(std::path::Path::new(&path), &value) {
        Ok(()) => println!("\nsnapshot written to {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
