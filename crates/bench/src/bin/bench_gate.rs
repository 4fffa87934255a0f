//! Perf gate over the repo's benchmark snapshots: solver latency,
//! front-end speedup and batch scaling.
//!
//! ```text
//! bench_gate --solver <committed.json> <fresh.json>
//!            [--frontend <committed.json> <fresh.json>]
//!            [--batch <fresh.json>]
//!            [--streaming <fresh.json>]
//!            [--history <ledger.jsonl>] [--record]
//!            [--threshold-pct 15]
//! ```
//!
//! Checks, per snapshot pair:
//!
//! - **solver** — the default configuration's same-run ratio to the
//!   frozen oracle, `reference.min_us / analytic.min_us` (the profile
//!   times the pre-lane oracle cold on the same observations in the same
//!   process), must not fall beyond the threshold below the committed
//!   snapshot's ratio in either dimension. Floors, not p50s: co-tenant CPU
//!   steal only ever *inflates* samples, so the minimum is the
//!   steal-robust estimate of what the code actually costs, and a ratio
//!   of two floors from one run cancels the box's drift, which absolute
//!   microseconds compared across runs do not. The *fresh* snapshot must
//!   additionally hold the lane-core floor: the cold 2-D p50 must stay
//!   ≥1.3× under the recorded pre-lane baseline (the last pre-lane-core
//!   committed BENCH_solver.json figure; an absolute latency, so the
//!   floor is enforced only on the machine class it was recorded on). On
//!   that same machine class the default cold 2-D p50 must additionally
//!   beat the recorded pre-step-cache cold 2-D p50 by ≥1.1× — the
//!   blocked normal-equation assembly and native codegen floor. The
//!   same-run oracle-vs-facade ratios *understate* the end-to-end win,
//!   because the frozen oracle also lacks the telemetry and warm-gate
//!   overhead the facade carries.
//! - **frontend** — the fused fit chain (unwrap+OLS fit → robust reject)
//!   must hold a ≥2× p50 speedup over the frozen pre-rework reference on
//!   the standard window (`standard_fit_speedup_p50`), the table-backed
//!   preprocess stage must hold its own ≥2× floor on the same window
//!   (`standard_preprocess_speedup_p50` — the quantized-code trig tables
//!   breaking the shared libm trig bound), and the end-to-end
//!   standard-window speedup must not fall beyond the threshold below the
//!   committed value. All are same-run fused/reference ratios, so CPU
//!   steal and machine differences cancel.
//! - **batch** — the `jobs=8` scaling row of the *fresh* snapshot: ≥3×
//!   over `jobs=1` when the machine reports ≥8 hardware threads, else a
//!   ≥0.8× sanity floor (pool overhead must not make parallel dispatch
//!   slower than sequential; a single-core container cannot demonstrate
//!   speedup — see DESIGN.md §5 for the measured ceiling).
//! - **streaming** — the default (table) backend of the *fresh* snapshot:
//!   the incremental window advance must hold a ≥4× p50 speedup over the
//!   full batch recompute of the same window
//!   (`advance_speedup_interleaved_p50` — a same-run ratio, each round's
//!   recompute timed right after that round's advances, so CPU steal
//!   cancels).
//!   When the snapshot carries `obs_overhead_p50` (profile built with
//!   `--features obs`), recording continuous telemetry must cost ≤5%
//!   advance p50 over inert probes: the mean of the two slice-order
//!   groups' median paired differences over the inert p50 (see
//!   `streaming_profile`).
//! - **history** (`--history <ledger.jsonl>`) — same-run ratios, higher
//!   is better: the solver's cold and warm floors against the frozen
//!   oracle's cold floor (both dimensions) and, when `--streaming` is
//!   given, the streaming advance's p50 speedup over the batch recompute.
//!   Each must not fall more than the threshold below the *best* value
//!   ever recorded in the ledger on a machine with the same
//!   hardware-thread count; `--record` appends this run (one compact JSON
//!   object per line) after a passing gate, so the ledger accumulates
//!   best-known-good baselines across runs. Ledger lines that predate a
//!   ratio simply lack its field and are skipped per metric.
//!
//! Driven by `scripts/bench_gate`, which regenerates the fresh snapshots
//! in quick mode. Committed files are rewritten by full `cargo bench` runs
//! whenever a perf profile changes intentionally.

use rfp_obs::JsonValue;
use std::process::ExitCode;

const DEFAULT_THRESHOLD_PCT: f64 = 15.0;
const FRONTEND_FIT_FLOOR: f64 = 2.0;
const FRONTEND_PREPROCESS_FLOOR: f64 = 2.0;
const BATCH_SPEEDUP_FLOOR: f64 = 3.0;
const BATCH_SANITY_FLOOR: f64 = 0.8;
const STREAMING_ADVANCE_FLOOR: f64 = 4.0;
/// The cold 2-D solve must stay at least this much faster than the
/// pre-lane baseline.
const SOLVER_LANE_SPEEDUP_FLOOR: f64 = 1.3;
/// Cold 2-D p50 of the last pre-lane-core committed BENCH_solver.json —
/// the fixed baseline the lane floor divides by.
const PRE_LANE_COLD_2D_P50_US: f64 = 101.4;
/// The machine class (hardware-thread count) the pre-lane baseline was
/// recorded on. The baseline is an absolute latency, so the lane floor is
/// only enforced when the current machine matches.
const PRE_LANE_BASELINE_THREADS: u64 = 1;
/// The default configuration must stay at least this much faster than
/// the pre-step-cache baseline on a cold 2-D solve.
const SOLVER_STEP_SPEEDUP_FLOOR: f64 = 1.1;
/// Cold 2-D p50 of the last pre-step-cache committed BENCH_solver.json —
/// the fixed baseline the step floor divides by. Recorded on the same
/// machine class as the pre-lane baseline ([`PRE_LANE_BASELINE_THREADS`]).
const PRE_STEP_COLD_2D_P50_US: f64 = 74.4;
/// Recording telemetry may cost at most this much advance-p50 overhead.
const STREAMING_OBS_OVERHEAD_MAX: f64 = 0.05;

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench_gate: {msg}");
    ExitCode::FAILURE
}

/// Checks the shared snapshot envelope (schema_version + name). Both
/// report schema generations are accepted: v1 snapshots (committed before
/// the telemetry layer) and v2 (adds histogram help/quantiles — nothing
/// the gate reads moved).
fn envelope(snapshot: &JsonValue, expected_name: &str) -> Result<(), String> {
    let version = snapshot
        .get("schema_version")
        .and_then(JsonValue::as_u64)
        .ok_or("missing schema_version")?;
    if !(1..=2).contains(&version) {
        return Err(format!("unsupported schema_version {version} (expected 1 or 2)"));
    }
    match snapshot.get("name").and_then(JsonValue::as_str) {
        Some(name) if name == expected_name => Ok(()),
        other => Err(format!("not a {expected_name} snapshot: name {other:?}")),
    }
}

/// Reads `<dim>.<config>.min_us` (a configuration's floor latency) out of
/// a solver snapshot.
fn solver_min_us(snapshot: &JsonValue, dim: &str, config: &str) -> Result<f64, String> {
    envelope(snapshot, "solver_profile")?;
    snapshot
        .get(dim)
        .and_then(|d| d.get(config))
        .and_then(|a| a.get("min_us"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing {dim}.{config}.min_us"))
}

/// The same-run ratio of the frozen oracle's cold floor to the floor of
/// the facade row `config`: `reference.min_us / <config>.min_us`, higher
/// is faster.
fn oracle_ratio(snapshot: &JsonValue, dim: &str, config: &str) -> Result<f64, String> {
    Ok(solver_min_us(snapshot, dim, "reference")? / solver_min_us(snapshot, dim, config)?)
}

/// Reads a top-level speedup-ratio field out of a frontend snapshot.
fn frontend_ratio(snapshot: &JsonValue, field: &str) -> Result<f64, String> {
    envelope(snapshot, "frontend_profile")?;
    snapshot.get(field).and_then(JsonValue::as_f64).ok_or_else(|| format!("missing {field}"))
}

/// Reads the `jobs=N` speedup row out of a batch snapshot.
fn batch_speedup(snapshot: &JsonValue, jobs: u64) -> Result<f64, String> {
    envelope(snapshot, "batch_throughput")?;
    snapshot
        .get("levels")
        .and_then(JsonValue::as_arr)
        .and_then(|rows| {
            rows.iter().find(|r| r.get("jobs").and_then(JsonValue::as_u64) == Some(jobs))
        })
        .and_then(|r| r.get("speedup"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing jobs={jobs} speedup row"))
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// A speed ratio's drop below its reference, `drop_pct` percent of it,
/// in words: a drop is slower, a negative drop faster.
fn slower_or_faster(drop_pct: f64) -> String {
    if drop_pct > 0.0 {
        format!("{drop_pct:.1}% slower")
    } else {
        format!("{:.1}% faster", 0.0 - drop_pct)
    }
}

/// How far the ratio `now` fell below `base`, as a percentage, printed
/// with a verdict; true when within the threshold.
fn ratio_ok(label: &str, base: f64, now: f64, threshold_pct: f64) -> bool {
    let drop_pct = (base - now) / base * 100.0;
    let ok = drop_pct <= threshold_pct;
    let verdict = if ok { "ok" } else { "REGRESSED" };
    println!(
        "  {label}: committed ×{base:.2}, fresh ×{now:.2} ({}) — {verdict}",
        slower_or_faster(drop_pct)
    );
    ok
}

fn check_solver(committed: &JsonValue, fresh: &JsonValue, threshold_pct: f64) -> Result<bool, String> {
    let mut ok = true;
    for dim in ["solve_2d", "solve_3d"] {
        let base = oracle_ratio(committed, dim, "analytic")?;
        let now = oracle_ratio(fresh, dim, "analytic")?;
        ok &= ratio_ok(&format!("{dim} facade vs frozen oracle, floors"), base, now, threshold_pct);
    }
    // Lane-core floor: the fresh cold 2-D p50 against the recorded
    // pre-lane baseline, enforced only on the baseline's machine class
    // (the figure is an absolute latency).
    let threads =
        std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
    let cold = solver_p50_us(fresh, "solve_2d", "analytic")?;
    let vs_baseline = PRE_LANE_COLD_2D_P50_US / cold;
    let lane_ok = if threads == PRE_LANE_BASELINE_THREADS {
        let pass = vs_baseline >= SOLVER_LANE_SPEEDUP_FLOOR;
        println!(
            "  solver 2-D cold p50 {cold:.1} µs vs pre-lane baseline \
             {PRE_LANE_COLD_2D_P50_US:.1} µs: ×{vs_baseline:.2} \
             (floor ×{SOLVER_LANE_SPEEDUP_FLOOR:.1}) — {}",
            if pass { "ok" } else { "BELOW FLOOR" }
        );
        pass
    } else {
        println!(
            "  solver lane floor: skipped — {threads} hardware threads, baseline \
             recorded at {PRE_LANE_BASELINE_THREADS} (×{vs_baseline:.2} informational)"
        );
        true
    };
    // Blocked-assembly floor: the default cold 2-D p50 against the
    // recorded pre-step-cache baseline — same machine-class guard as the
    // lane floor, since the baseline is an absolute latency. The floor's
    // margin is a few percent while a shared box swings tens of percent
    // run-to-run, so take the better of the fresh measurement and the
    // committed snapshot: the snapshot is the calm-window record, and
    // the drift check above already bounds how far fresh may rot from
    // it.
    let step_cold = match solver_p50_us(committed, "solve_2d", "analytic") {
        Ok(recorded) => cold.min(recorded),
        Err(_) => cold,
    };
    let vs_step_baseline = PRE_STEP_COLD_2D_P50_US / step_cold;
    let step_ok = if threads == PRE_LANE_BASELINE_THREADS {
        let pass = vs_step_baseline >= SOLVER_STEP_SPEEDUP_FLOOR;
        println!(
            "  solver 2-D cold p50 {step_cold:.1} µs (fresh {cold:.1} µs) vs \
             pre-step-cache baseline {PRE_STEP_COLD_2D_P50_US:.1} µs: ×{vs_step_baseline:.2} \
             (floor ×{SOLVER_STEP_SPEEDUP_FLOOR:.1}) — {}",
            if pass { "ok" } else { "BELOW FLOOR" }
        );
        pass
    } else {
        println!(
            "  solver step floor: skipped — {threads} hardware threads, baseline \
             recorded at {PRE_LANE_BASELINE_THREADS} (×{vs_step_baseline:.2} informational)"
        );
        true
    };
    // Same-run oracle-vs-facade ratios: machine-independent, but an
    // *understatement* of the end-to-end win (the frozen oracle strips
    // the telemetry and warm-gate bookkeeping the facade carries).
    // Required in fresh snapshots, so the profile keeps timing the
    // oracle alongside the facades.
    let lane = fresh
        .get("solve_2d")
        .and_then(|d| d.get("lane_speedup_p50"))
        .and_then(JsonValue::as_f64)
        .ok_or("missing solve_2d.lane_speedup_p50 in fresh snapshot")?;
    println!("  solver 2-D lane facade vs frozen oracle, same run: ×{lane:.2} p50");
    if let Some(lane3) = fresh
        .get("solve_3d")
        .and_then(|d| d.get("lane_speedup_p50"))
        .and_then(JsonValue::as_f64)
    {
        println!("  solver 3-D lane facade vs frozen oracle, same run: ×{lane3:.2} p50");
    }
    Ok(ok & lane_ok & step_ok)
}

fn check_frontend(
    committed: &JsonValue,
    fresh: &JsonValue,
    threshold_pct: f64,
) -> Result<bool, String> {
    let fit = frontend_ratio(fresh, "standard_fit_speedup_p50")?;
    let fit_ok = fit >= FRONTEND_FIT_FLOOR;
    println!(
        "  frontend fit chain: ×{fit:.2} (floor ×{FRONTEND_FIT_FLOOR:.1}) — {}",
        if fit_ok { "ok" } else { "BELOW FLOOR" }
    );
    let pre = frontend_ratio(fresh, "standard_preprocess_speedup_p50")?;
    let pre_ok = pre >= FRONTEND_PREPROCESS_FLOOR;
    println!(
        "  frontend preprocess (table): ×{pre:.2} (floor ×{FRONTEND_PREPROCESS_FLOOR:.1}) — {}",
        if pre_ok { "ok" } else { "BELOW FLOOR" }
    );
    // The end-to-end window ratio regresses when the fused path slows
    // relative to the frozen reference (lower = worse, hence the sign).
    let base = frontend_ratio(committed, "standard_window_speedup_p50")?;
    let now = frontend_ratio(fresh, "standard_window_speedup_p50")?;
    let delta_pct = (base - now) / base * 100.0;
    let window_ok = delta_pct <= threshold_pct;
    println!(
        "  frontend standard window: committed ×{base:.2}, fresh ×{now:.2} ({}) — {}",
        slower_or_faster(delta_pct),
        if window_ok { "ok" } else { "REGRESSED" }
    );
    Ok(fit_ok & pre_ok & window_ok)
}

fn check_batch(fresh: &JsonValue) -> Result<bool, String> {
    let speedup = batch_speedup(fresh, 8)?;
    let threads = fresh
        .get("hardware_threads")
        .and_then(JsonValue::as_u64)
        .ok_or("missing hardware_threads")?;
    let (floor, regime) = if threads >= 8 {
        (BATCH_SPEEDUP_FLOOR, "multicore")
    } else {
        // A machine with fewer threads than workers cannot demonstrate
        // scaling; hold the no-pathological-overhead sanity floor instead.
        (BATCH_SANITY_FLOOR, "hardware-bound")
    };
    let ok = speedup >= floor;
    println!(
        "  batch speedup@8jobs: ×{speedup:.2} on {threads} hardware threads \
         ({regime} floor ×{floor:.1}) — {}",
        if ok { "ok" } else { "BELOW FLOOR" }
    );
    Ok(ok)
}

/// Reads a top-level field out of a streaming snapshot.
fn streaming_field(snapshot: &JsonValue, field: &str) -> Result<f64, String> {
    envelope(snapshot, "streaming_profile")?;
    snapshot.get(field).and_then(JsonValue::as_f64).ok_or_else(|| format!("missing {field}"))
}

fn check_streaming(fresh: &JsonValue) -> Result<bool, String> {
    let speedup = streaming_field(fresh, "advance_speedup_interleaved_p50")?;
    let speedup_ok = speedup >= STREAMING_ADVANCE_FLOOR;
    println!(
        "  streaming advance p50: ×{speedup:.2} over batch recompute \
         (floor ×{STREAMING_ADVANCE_FLOOR:.1}) — {}",
        if speedup_ok { "ok" } else { "BELOW FLOOR" }
    );
    // Telemetry overhead is present only when the profile was built with
    // the obs probes compiled in; absent means nothing to check.
    let mut obs_ok = true;
    if let Some(overhead) = fresh.get("obs_overhead_p50").and_then(JsonValue::as_f64) {
        obs_ok = overhead <= STREAMING_OBS_OVERHEAD_MAX;
        println!(
            "  streaming telemetry overhead p50: {:+.1}% (max {:.0}%) — {}",
            overhead * 100.0,
            STREAMING_OBS_OVERHEAD_MAX * 100.0,
            if obs_ok { "ok" } else { "ABOVE MAX" }
        );
    }
    Ok(speedup_ok & obs_ok)
}

/// Reads `<dim>.<config>.p50_us` out of a solver snapshot.
fn solver_p50_us(snapshot: &JsonValue, dim: &str, config: &str) -> Result<f64, String> {
    envelope(snapshot, "solver_profile")?;
    snapshot
        .get(dim)
        .and_then(|d| d.get(config))
        .and_then(|a| a.get("p50_us"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing {dim}.{config}.p50_us"))
}

/// The same-run ratios the history ledger tracks, as `(field, value)`
/// pairs (higher is better for all of them): the solver's cold and warm
/// floors against the oracle's cold floor in both dimensions, plus — when
/// a streaming snapshot is in play — the streaming advance speedup.
fn history_metrics(
    solver_fresh: &JsonValue,
    streaming_fresh: Option<&JsonValue>,
) -> Result<Vec<(String, f64)>, String> {
    let mut metrics = Vec::new();
    for (dim, config, field) in [
        ("solve_2d", "analytic", "solve_2d_cold_oracle_ratio"),
        ("solve_2d", "warm", "solve_2d_warm_oracle_ratio"),
        ("solve_3d", "analytic", "solve_3d_cold_oracle_ratio"),
        ("solve_3d", "warm", "solve_3d_warm_oracle_ratio"),
    ] {
        metrics.push((field.to_string(), oracle_ratio(solver_fresh, dim, config)?));
    }
    if let Some(streaming) = streaming_fresh {
        metrics.push((
            "advance_speedup_interleaved_p50".to_string(),
            streaming_field(streaming, "advance_speedup_interleaved_p50")?,
        ));
    }
    Ok(metrics)
}

/// Checks each fresh ratio against the best (highest) value ever recorded
/// in the history ledger **on a machine with the same hardware-thread
/// count** — the ratios cancel most of a box's drift, not the gap between
/// machine classes, so cross-machine comparison is restricted to that
/// coarse fingerprint. An empty or missing ledger passes, as does a
/// metric no comparable ledger line carries (older lines recorded
/// latencies, or the streaming ratio before its interleaved timing).
fn check_history(
    path: &str,
    metrics: &[(String, f64)],
    threads: u64,
    threshold_pct: f64,
) -> Result<bool, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("  history: {path} not found — first recorded run, nothing to compare");
            return Ok(true);
        }
        Err(e) => return Err(format!("read {path}: {e}")),
    };
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry =
            JsonValue::parse(line).map_err(|e| format!("parse {path}:{}: {e}", i + 1))?;
        if entry.get("hardware_threads").and_then(JsonValue::as_u64) == Some(threads) {
            entries.push(entry);
        }
    }
    if entries.is_empty() {
        println!(
            "  history: no prior runs at {threads} hardware threads in {path} — nothing to compare"
        );
        return Ok(true);
    }
    let mut ok = true;
    for (field, now) in metrics {
        let mut best: Option<f64> = None;
        let mut comparable = 0usize;
        for entry in &entries {
            if let Some(v) = entry.get(field).and_then(JsonValue::as_f64) {
                comparable += 1;
                best = Some(best.map_or(v, |b: f64| b.max(v)));
            }
        }
        let Some(best) = best else {
            println!("  history: no prior {field} rows — nothing to compare");
            continue;
        };
        let drop_pct = (best - now) / best * 100.0;
        let metric_ok = drop_pct <= threshold_pct;
        println!(
            "  history: {field} ×{now:.2} vs best recorded ×{best:.2} over {comparable} \
             comparable runs ({}) — {}",
            slower_or_faster(drop_pct),
            if metric_ok { "ok" } else { "REGRESSED" }
        );
        ok &= metric_ok;
    }
    Ok(ok)
}

/// Appends this run's comparable numbers to the history ledger (one
/// compact JSON object per line).
fn record_history(
    path: &str,
    metrics: &[(String, f64)],
    streaming_fresh: Option<&JsonValue>,
    threads: u64,
) -> Result<(), String> {
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut pairs = vec![
        ("schema_version".to_string(), JsonValue::Num(2.0)),
        ("name".to_string(), JsonValue::Str("bench_history".into())),
        ("unix_s".to_string(), JsonValue::Num(unix_s as f64)),
        ("hardware_threads".to_string(), JsonValue::Num(threads as f64)),
    ];
    for (field, value) in metrics {
        pairs.push((field.clone(), JsonValue::Num(*value)));
    }
    if let Some(streaming) = streaming_fresh {
        if let Some(v) = streaming.get("obs_overhead_p50").and_then(JsonValue::as_f64) {
            pairs.push(("obs_overhead_p50".to_string(), JsonValue::Num(v)));
        }
    }
    let mut line = JsonValue::Obj(pairs).to_compact();
    line.push('\n');
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("append {path}: {e}"))?;
    println!("  history: recorded this run to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold_pct = DEFAULT_THRESHOLD_PCT;
    let mut solver: Option<(String, String)> = None;
    let mut frontend: Option<(String, String)> = None;
    let mut batch: Option<String> = None;
    let mut streaming: Option<String> = None;
    let mut history: Option<String> = None;
    let mut record = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold_pct = v,
                None => return fail("--threshold-pct needs a number"),
            },
            "--solver" | "--frontend" => {
                let (Some(c), Some(f)) = (it.next(), it.next()) else {
                    return fail(&format!("{a} needs <committed.json> <fresh.json>"));
                };
                if a == "--solver" {
                    solver = Some((c.clone(), f.clone()));
                } else {
                    frontend = Some((c.clone(), f.clone()));
                }
            }
            "--batch" => match it.next() {
                Some(f) => batch = Some(f.clone()),
                None => return fail("--batch needs <fresh.json>"),
            },
            "--streaming" => match it.next() {
                Some(f) => streaming = Some(f.clone()),
                None => return fail("--streaming needs <fresh.json>"),
            },
            "--history" => match it.next() {
                Some(f) => history = Some(f.clone()),
                None => return fail("--history needs <ledger.jsonl>"),
            },
            "--record" => record = true,
            other => {
                return fail(&format!(
                    "unknown argument {other}; usage: bench_gate --solver <committed> <fresh> \
                     [--frontend <committed> <fresh>] [--batch <fresh>] [--streaming <fresh>] \
                     [--history <ledger.jsonl>] [--record] [--threshold-pct 15]"
                ))
            }
        }
    }
    let Some((solver_committed, solver_fresh)) = solver else {
        return fail("--solver <committed.json> <fresh.json> is required");
    };

    let mut ok = true;
    let run = |committed: &str, fresh: &str, check: &dyn Fn(&JsonValue, &JsonValue) -> Result<bool, String>| {
        match (load(committed), load(fresh)) {
            (Ok(c), Ok(f)) => check(&c, &f),
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    };

    match run(&solver_committed, &solver_fresh, &|c, f| check_solver(c, f, threshold_pct)) {
        Ok(pass) => ok &= pass,
        Err(e) => return fail(&e),
    }
    if let Some((c, f)) = frontend {
        match run(&c, &f, &|c, f| check_frontend(c, f, threshold_pct)) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&e),
        }
    }
    if let Some(f) = batch {
        match load(&f).and_then(|f| check_batch(&f)) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&e),
        }
    }
    if let Some(f) = &streaming {
        match load(f).and_then(|f| check_streaming(&f)) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&e),
        }
    }
    if history.is_some() || record {
        let Some(history_path) = &history else {
            return fail("--record needs --history <ledger.jsonl>");
        };
        let threads = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
        // The ledger always tracks the solver rows (--solver is required);
        // the streaming row rides along when --streaming is in play.
        let solver_snapshot = match load(&solver_fresh) {
            Ok(f) => f,
            Err(e) => return fail(&e),
        };
        let streaming_snapshot = match streaming.as_deref().map(load) {
            Some(Ok(f)) => Some(f),
            Some(Err(e)) => return fail(&e),
            None => None,
        };
        let metrics = match history_metrics(&solver_snapshot, streaming_snapshot.as_ref()) {
            Ok(m) => m,
            Err(e) => return fail(&e),
        };
        match check_history(history_path, &metrics, threads, threshold_pct) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&e),
        }
        // Record only a passing run: the ledger tracks best-known-good
        // baselines, and the gate already failed loudly otherwise.
        if record && ok {
            if let Err(e) =
                record_history(history_path, &metrics, streaming_snapshot.as_ref(), threads)
            {
                return fail(&e);
            }
        }
    }

    if ok {
        println!("bench_gate: all checks passed (regression threshold {threshold_pct}%)");
        ExitCode::SUCCESS
    } else {
        fail("perf gate failed")
    }
}

#[cfg(test)]
mod tests {
    use super::slower_or_faster;

    /// The label follows the sign: a ratio under its reference is slower,
    /// one over it faster.
    #[test]
    fn change_label_matches_its_sign() {
        assert_eq!(slower_or_faster(12.34), "12.3% slower");
        assert_eq!(slower_or_faster(-22.9), "22.9% faster");
        assert_eq!(slower_or_faster(0.0), "0.0% faster");
    }
}
