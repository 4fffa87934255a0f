//! The RF-Prism benchmark.
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! ```
//!
//! Each workload generates its inputs from the seed with `rfp-sim` before
//! any timing starts (the code under test sees only the generated reads),
//! runs on one thread for `--seconds`, checks its outputs, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (each `{value, unit}`). Untraced runs report the end-to-end
//! metrics; `--trace` runs report the per-layer metrics. `all` runs every
//! workload in a child process of its own. See README.md.

mod cluttered;
mod inventory;
mod loadgen;
mod mem;
mod pace;
mod run;
mod stats;
mod trace;
mod tracking;

use rfp_obs::JsonValue;
use run::{Run, Size};
use std::process::ExitCode;

/// A workload: its name, full-size run and entry point.
struct Workload {
    name: &'static str,
    size: fn(f64) -> Size,
    run: fn(u64, &Size, bool) -> Run,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inventory_cold",
        size: inventory::size,
        run: inventory::cold,
    },
    Workload {
        name: "inventory_warm",
        size: inventory::size,
        run: inventory::warm,
    },
    Workload {
        name: "tracking_stream",
        size: tracking::size,
        run: tracking::run,
    },
    Workload {
        name: "cluttered_3d",
        size: cluttered::size,
        run: cluttered::run,
    },
];

/// Every metric a run can report, with its unit.
const UNITS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "estimates/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("yield_ratio", "ratio"),
    ("pos_err_p50_cm", "cm"),
    ("pos_err_p90_cm", "cm"),
    ("orient_err_p50_deg", "deg"),
    ("heap_peak_mb", "MB"),
    ("dsp.preprocess.us", "us"),
    ("dsp.linfit.us", "us"),
    ("dsp.robust.us", "us"),
    ("dsp.robust.inlier_frac", "ratio"),
    ("dsp.preprocess.reads_per_window", "count"),
    ("model.extract.us", "us"),
    ("model.extract.self_us", "us"),
    ("model.extract.fail_ratio", "ratio"),
    ("detector.us", "us"),
    ("detector.moving_ratio", "ratio"),
    ("detector.multipath_ratio", "ratio"),
    ("solver.us", "us"),
    ("solver.iterations", "count"),
    ("solver.residual_evals", "count"),
    ("solver.seeds_refined", "count"),
    ("solver.seed_refine_ratio", "ratio"),
    ("solver.warm_hit_ratio", "ratio"),
    ("solver.lambda_retries", "count"),
    ("material.features_us", "us"),
    ("material.identify_us", "us"),
    ("material.acc", "ratio"),
    ("streaming.push_us", "us"),
    ("streaming.advance_us", "us"),
    ("streaming.updates", "count"),
    ("streaming.downdates", "count"),
    ("streaming.refit_fallback_ratio", "ratio"),
    ("streaming.rebuilds", "count"),
    ("unattributed_us", "us"),
    ("trace_overhead_ratio", "ratio"),
];

fn unit(name: &str) -> &'static str {
    UNITS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every metric has a unit")
}

/// Adds the violations the record itself shows: a metric that is missing
/// a value.
fn check_finite(run: &mut Run) {
    for (name, value) in &run.metrics {
        if !value.is_finite() {
            run.violations
                .push(format!("{name} is not finite ({value})"));
        }
    }
}

/// The result line.
fn result_json(run: &Run) -> JsonValue {
    let metrics = run
        .metrics
        .iter()
        .map(|&(name, value)| {
            let metric = JsonValue::obj(vec![
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::Str(unit(name).into())),
            ]);
            (name.to_string(), metric)
        })
        .collect();
    JsonValue::obj(vec![
        ("correct", JsonValue::Bool(run.violations.is_empty())),
        ("attempted", JsonValue::Num(run.attempted as f64)),
        ("failed", JsonValue::Num(run.failed as f64)),
        ("metrics", JsonValue::Obj(metrics)),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => parsed.workload = value(i)?.clone(),
            "--seed" => parsed.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => parsed.trace = false,
                Some("1") => parsed.trace = true,
                _ => {
                    parsed.trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Runs every workload in a child process of its own, one after another,
/// and prints one line whose metrics are named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in &WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let result =
            JsonValue::parse(last).map_err(|e| format!("{}: no result line: {e}", w.name))?;
        correct &= output.status.success() && result.get("correct") == Some(&JsonValue::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        failed += result
            .get("failed")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        for (name, metric) in result
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .unwrap_or_default()
        {
            metrics.push((format!("{}.{name}", w.name), metric.clone()));
        }
    }
    let line = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(attempted)),
        ("failed", JsonValue::Num(failed)),
        ("metrics", JsonValue::Obj(metrics)),
    ]);
    println!("{}", line.to_compact());
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: benchmark --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]]");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let mut run = (workload.run)(args.seed, &(workload.size)(args.seconds), args.trace);
    check_finite(&mut run);
    let mut diagnostics = vec![
        ("workload", JsonValue::Str(workload.name.into())),
        ("seed", JsonValue::Num(args.seed as f64)),
        ("trace", JsonValue::Bool(args.trace)),
        (
            "violations",
            JsonValue::Arr(
                run.violations
                    .iter()
                    .map(|v| JsonValue::Str(v.clone()))
                    .collect(),
            ),
        ),
    ];
    diagnostics.extend(run.diagnostics.iter().map(|(k, v)| (*k, v.clone())));
    let (scale, probes) = pace::summary();
    diagnostics.extend([
        ("pace.scale_p50", JsonValue::Num(scale)),
        ("pace.probes", JsonValue::Num(probes as f64)),
    ]);
    println!("{}", JsonValue::obj(diagnostics).to_compact());
    println!("{}", result_json(&run).to_compact());
    if run.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declaration at the repository root.
    fn declaration() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(decl: &JsonValue, key: &str) -> Vec<(String, String)> {
        decl.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        for (name, unit) in UNITS {
            assert!(ok(name), "metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "unit {unit}");
        }
        for w in &WORKLOADS {
            assert!(ok(w.name), "workload name {}", w.name);
        }
    }

    #[test]
    fn declaration_matches_the_metric_table_and_workloads() {
        let decl = declaration();
        for key in ["end_to_end", "per_layer"] {
            for (name, declared_unit) in declared(&decl, key) {
                assert_eq!(unit(&name), declared_unit, "{key} metric {name}");
            }
        }
        let names: Vec<&str> = decl
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn trace_flag_forms() {
        let args = |v: &[&str]| parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--workload", "x", "--trace"]).unwrap().trace);
        assert!(
            args(&["--workload", "x", "--trace", "1", "--seed", "3"])
                .unwrap()
                .trace
        );
        let a = args(&["--trace", "0", "--workload", "x", "--seconds", "2"]).unwrap();
        assert!(!a.trace);
        assert_eq!(a.seconds, 2.0);
        assert!(args(&["--seed", "3"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--bogus"]).is_err());
    }

    /// A miniature of every workload, traced and untraced, emits every
    /// metric the declaration lists, each finite.
    #[test]
    fn miniatures_emit_every_declared_metric() {
        let decl = declaration();
        let mini = Size {
            tags: 8,
            rounds: 5,
            seconds: 0.2,
            setup_builds: 1,
            setup_seconds: 0.0,
        };
        for w in &WORKLOADS {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let mut run = (w.run)(7, &mini, traced);
                check_finite(&mut run);
                for (name, _) in declared(&decl, key) {
                    let value = run
                        .metrics
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| *v);
                    let value = value
                        .unwrap_or_else(|| panic!("{} (traced {traced}) lacks {name}", w.name));
                    assert!(value.is_finite(), "{} {name} = {value}", w.name);
                }
                assert!(run.attempted >= 1, "{} attempted nothing", w.name);
                let line = result_json(&run).to_compact();
                assert!(JsonValue::parse(&line).is_ok(), "result line parses");
            }
        }
    }
}
