//! Instrumentation-layer integration tests (compiled only with the `obs`
//! feature): the observability contract is that (a) the probes never
//! change *what* the pipeline computes — pinned by running the ordinary
//! equivalence suites under `--features obs` — and (b) every count-type
//! metric recorded by the parallel batch engine merges to exactly the
//! value a sequential run records, at any worker count, because workers
//! are merged in index order and counter addition is commutative.

#![cfg(feature = "obs")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_core::obs;
use rfp_core::RfPrism;
use rfp_geom::Vec2;
use rfp_obs::{JsonValue, MetricKind, Recorder, RunReport};
use rfp_sim::{Motion, Scene, SimTag};

/// Raw reads for `n` seeded random tags (a few moving, so the rejection
/// counters are exercised too).
fn random_tag_reads(
    scene: &Scene,
    n: usize,
    seed: u64,
) -> Vec<Vec<Vec<rfp_dsp::preprocess::RawRead>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let region = scene.region();
            let pos = Vec2::new(
                rng.gen_range(region.min().x..region.max().x),
                rng.gen_range(region.min().y..region.max().y),
            );
            let alpha = rng.gen_range(0.0..std::f64::consts::PI);
            let motion = if i % 5 == 3 {
                Motion::planar_linear(pos, Vec2::new(0.05, 0.04), alpha)
            } else {
                Motion::planar_static(pos, alpha)
            };
            let tag = SimTag::with_seeded_diversity(i as u64)
                .with_motion(motion);
            scene.survey(&tag, seed ^ (i as u64).wrapping_mul(0x9e37)).per_antenna
        })
        .collect()
}

fn standard_prism(scene: &Scene) -> RfPrism {
    RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region())
}

/// Every counter's `(name, value)`, in table order.
fn counters(rec: &Recorder) -> Vec<(&'static str, u64)> {
    rec.metrics
        .defs()
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind == MetricKind::Counter)
        .map(|(i, d)| (d.name, rec.metrics.counter(i)))
        .collect()
}

/// Every histogram's `(name, observation count)`: counts are deterministic
/// across worker counts even though the timed values are wall-clock.
fn histogram_counts(rec: &Recorder) -> Vec<(&'static str, u64)> {
    rec.metrics
        .defs()
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind == MetricKind::Histogram)
        .map(|(i, d)| (d.name, rec.metrics.histogram(i).unwrap().count()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Count-type metrics from a parallel batch equal the sequential
    /// (`jobs = 1`) run's, for any tag count and worker count.
    #[test]
    fn merged_batch_counters_equal_sequential(
        n in 1usize..6,
        seed in 0u64..512,
        jobs in 2usize..9,
    ) {
        let scene = Scene::standard_2d();
        let prism = standard_prism(&scene);
        let tags = random_tag_reads(&scene, n, seed);

        let (_, seq) = rfp_obs::recorder::observe(obs::METRICS, || {
            prism.sense_batch(&tags, 1)
        });
        let (_, par) = rfp_obs::recorder::observe(obs::METRICS, || {
            prism.sense_batch(&tags, jobs)
        });

        prop_assert_eq!(counters(&seq), counters(&par));
        prop_assert_eq!(histogram_counts(&seq), histogram_counts(&par));
    }

    /// Histogram merges are partition-invariant: round-robin the same
    /// observation stream across any number of worker registries, merge
    /// them back in index order, and the result is bucket-for-bucket the
    /// single-registry histogram. This is the property that makes the
    /// latency histograms in a merged run report independent of `--jobs`
    /// (the observed *values* are wall-clock, but for a fixed value
    /// stream the merged counts are a pure function of the stream; the
    /// float `sum` is exact only up to addition-order rounding).
    #[test]
    fn histogram_merges_are_partition_invariant(
        values in proptest::collection::vec(0.0f64..20_000.0, 1..120),
        workers in 1usize..8,
    ) {
        use rfp_obs::Registry;
        let idx = obs::id::STREAMING_ADVANCE_LATENCY_US;

        let mut single = Registry::new(obs::METRICS);
        for &v in &values {
            single.observe(idx, v);
        }

        let mut shards: Vec<Registry> =
            (0..workers).map(|_| Registry::new(obs::METRICS)).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % workers].observe(idx, v);
        }
        let mut merged = Registry::new(obs::METRICS);
        for shard in &shards {
            merged.merge(shard);
        }

        let m = merged.histogram(idx).unwrap();
        let s = single.histogram(idx).unwrap();
        prop_assert_eq!(m.bucket_counts(), s.bucket_counts());
        prop_assert_eq!(m.count(), s.count());
        // The sum is a float fold, so partitioning may shuffle the
        // addition order; it must still agree to machine precision.
        prop_assert!((m.sum() - s.sum()).abs() <= 1e-9 * s.sum().abs().max(1.0));
    }
}

/// The span forest of an observed batch run has the documented taxonomy:
/// one `sense_batch` root with the per-tag `sense` → `solve_2d` stages
/// grafted beneath it, with per-tag counts.
#[test]
fn batch_span_tree_has_the_documented_shape() {
    let scene = Scene::standard_2d();
    let prism = standard_prism(&scene);
    let mut rng = StdRng::seed_from_u64(77);
    let tags: Vec<_> = (0..4)
        .map(|i| {
            let pos = Vec2::new(rng.gen_range(0.0..1.0), rng.gen_range(1.0..2.0));
            let tag = SimTag::with_seeded_diversity(40 + i)
                .with_motion(Motion::planar_static(pos, 0.4));
            scene.survey(&tag, 500 + i).per_antenna
        })
        .collect();

    let (results, rec) = rfp_obs::recorder::observe(obs::METRICS, || {
        prism.sense_batch(&tags, 2)
    });
    let solved = results.iter().filter(|r| r.is_ok()).count() as u64;
    assert!(solved > 0, "fixture must solve at least one tag");

    let report = RunReport::from_recorder("test", &rec);
    let count_of = |path: &str| {
        report
            .spans
            .iter()
            .find(|s| s.path == path)
            .map(|s| s.count)
            .unwrap_or(0)
    };
    assert_eq!(count_of("sense_batch"), 1);
    assert_eq!(count_of("sense_batch/sense"), tags.len() as u64);
    assert_eq!(count_of("sense_batch/sense/extract"), tags.len() as u64);
    assert_eq!(count_of("sense_batch/sense/solve_2d"), solved);
    assert!(count_of("sense_batch/sense/solve_2d/stage1_slope") >= solved);
    for s in &report.spans {
        assert!(s.total_ns > 0, "span {} recorded no time", s.path);
    }
}

/// Detector verdict counters partition the assessed windows, and the
/// solver counter matches the number of successful solves.
#[test]
fn counters_are_consistent_with_results() {
    let scene = Scene::standard_2d();
    let prism = standard_prism(&scene);
    let tags = random_tag_reads(&scene, 8, 3);

    let (results, rec) = rfp_obs::recorder::observe(obs::METRICS, || {
        prism.sense_batch(&tags, 4)
    });
    let ok = results.iter().filter(|r| r.is_ok()).count() as u64;

    let m = &rec.metrics;
    assert_eq!(m.counter(obs::id::PIPELINE_WINDOWS_TOTAL), tags.len() as u64);
    assert_eq!(m.counter(obs::id::PIPELINE_WINDOWS_OK), ok);
    assert_eq!(m.counter(obs::id::SOLVER2D_SOLVES), ok);
    assert_eq!(m.counter(obs::id::BATCH_TAGS), tags.len() as u64);
    // Clean + multipath + moving == every window that reached the detector.
    let assessed = m.counter(obs::id::DETECTOR_WINDOWS_CLEAN)
        + m.counter(obs::id::DETECTOR_WINDOWS_MULTIPATH)
        + m.counter(obs::id::DETECTOR_WINDOWS_MOVING);
    let rejected = m.counter(obs::id::PIPELINE_WINDOWS_MOVING_REJECTED);
    assert_eq!(assessed, ok + rejected);
    // Solver work counters are nonzero whenever anything solved.
    if ok > 0 {
        assert!(m.counter(obs::id::SOLVER2D_ITERATIONS) > 0);
        assert!(m.counter(obs::id::SOLVER2D_RESIDUAL_EVALS) > 0);
    }
    // Every cold solve scans at least once, and a scan evaluates at least
    // its short-list (4 of the 48 directions in 2-D) exactly, seeding each
    // direction at most once per solve.
    let (seeds, exact) =
        (m.counter(obs::id::SOLVER_SCAN_SEEDS), m.counter(obs::id::SOLVER_SCAN_EXACT));
    assert!(exact >= 4 * ok, "{exact} exact scan evaluations in {ok} solves");
    assert!((4 * ok..=exact.min(48 * ok)).contains(&seeds), "{seeds} seeds in {ok} solves");
}

/// A cold 2-D solve refines two beam seeds into one basin, keeps the
/// first and counts the second as a stage-1 duplicate.
#[test]
fn cold_solve_counts_its_stage1_duplicate() {
    let scene = Scene::standard_2d();
    let prism = standard_prism(&scene);
    let tag = SimTag::with_seeded_diversity(5)
        .with_motion(Motion::planar_static(Vec2::new(0.4, 1.6), 1.1));
    let reads = scene.survey(&tag, 17).per_antenna;
    let (result, rec) = rfp_obs::recorder::observe(obs::METRICS, || prism.sense(&reads));
    assert!(result.is_ok(), "{result:?}");
    assert_eq!(rec.metrics.counter(obs::id::SOLVER_SEEDS_REFINED), 2);
    assert_eq!(rec.metrics.counter(obs::id::SOLVER_STAGE1_DUPLICATES), 1);
}

/// A run report produced from a real observed run survives a JSON
/// round-trip byte-exactly (the current schema, v2): the parsed document
/// is the one written, and holds the report's name, meta, spans and
/// counters.
#[test]
fn run_report_round_trips_through_json() {
    let scene = Scene::standard_2d();
    let prism = standard_prism(&scene);
    let tags = random_tag_reads(&scene, 3, 9);
    let (_, rec) = rfp_obs::recorder::observe(obs::METRICS, || {
        prism.sense_batch(&tags, 2)
    });
    let report = RunReport::from_recorder("round-trip", &rec)
        .with_meta("jobs", "2");
    let text = report.to_json().to_pretty();
    let back = JsonValue::parse(&text).expect("valid schema v2 report");
    assert_eq!(back, report.to_json());
    assert_eq!(back.to_pretty(), text, "serialisation is canonical");
    assert_eq!(back.get("schema_version").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(back.get("name").and_then(JsonValue::as_str), Some("round-trip"));
    let meta = back.get("meta").and_then(|m| m.get("jobs")).and_then(JsonValue::as_str);
    assert_eq!(meta, Some("2"));
    let spans = back.get("spans").and_then(JsonValue::as_arr).expect("spans");
    assert_eq!(spans.len(), report.spans.len());
    for (s, entry) in spans.iter().zip(&report.spans) {
        assert_eq!(s.get("path").and_then(JsonValue::as_str), Some(entry.path.as_str()));
        assert_eq!(s.get("count").and_then(JsonValue::as_u64), Some(entry.count));
        assert_eq!(s.get("total_ns").and_then(JsonValue::as_u64), Some(entry.total_ns));
    }
    let counters = back.get("counters").and_then(JsonValue::as_obj).expect("counters");
    let read: Vec<(String, u64)> =
        counters.iter().map(|(k, v)| (k.clone(), v.as_u64().expect("integer"))).collect();
    assert_eq!(read, report.counters);
}
