//! The CLI subcommands, written as library functions so they are testable
//! without spawning the binary.

use crate::log::{SurveyLog, TagTruth};
use rfp_core::calibration::{CalibrationDb, DeviceCalibration};
use rfp_core::model::{extract_observation, ExtractConfig};
use rfp_core::{RfPrism, SenseError, WarmStart};
use rfp_geom::{angle, Vec2};
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};
use std::fmt::Write as _;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CommandError {
    /// Bad command-line usage; the string is the usage text to print.
    Usage(String),
    /// A file could not be read/written.
    Io(std::io::Error),
    /// A survey log failed to parse.
    Log(crate::log::LogError),
    /// A calibration database failed to parse.
    Calibration(rfp_core::calibration::DbParseError),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Usage(u) => write!(f, "{u}"),
            CommandError::Io(e) => write!(f, "io error: {e}"),
            CommandError::Log(e) => write!(f, "survey log: {e}"),
            CommandError::Calibration(e) => write!(f, "calibration db: {e}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<crate::log::LogError> for CommandError {
    fn from(e: crate::log::LogError) -> Self {
        CommandError::Log(e)
    }
}

/// Tiny flag parser: `--key value` pairs after the subcommand. `accepted`
/// lists the keys the subcommand reads; any other key is a usage error
/// naming it, so a misspelled flag never silently falls back to a default.
pub fn parse_flags(
    args: &[String],
    accepted: &[&str],
) -> Result<Vec<(String, String)>, CommandError> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(CommandError::Usage(format!("unexpected argument `{k}`")));
        };
        if !accepted.contains(&key) {
            let known: Vec<String> = accepted.iter().map(|a| format!("--{a}")).collect();
            return Err(CommandError::Usage(format!(
                "unknown flag `--{key}` (accepted: {})",
                known.join(", ")
            )));
        }
        let Some(v) = it.next() else {
            return Err(CommandError::Usage(format!("flag `--{key}` needs a value")));
        };
        out.push((key.to_string(), v.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], key: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// `simulate`: run an inventory round in the standard scene and return the
/// survey-log text.
///
/// Flags: `--tags N` (default 3), `--seed S` (default 1),
/// `--material <label|mixed>` (default mixed), `--clutter <seed>`
/// (default: clean room).
pub fn simulate(args: &[String]) -> Result<String, CommandError> {
    let flags = parse_flags(args, &["tags", "seed", "material", "clutter"])?;
    let n_tags: usize = flag(&flags, "tags").unwrap_or("3").parse().map_err(|_| {
        CommandError::Usage("--tags expects an integer".into())
    })?;
    let seed: u64 = flag(&flags, "seed").unwrap_or("1").parse().map_err(|_| {
        CommandError::Usage("--seed expects an integer".into())
    })?;
    let material_arg = flag(&flags, "material").unwrap_or("mixed");
    if n_tags == 0 {
        return Err(CommandError::Usage("--tags must be at least 1".into()));
    }

    let mut scene = Scene::standard_2d();
    if let Some(clutter) = flag(&flags, "clutter") {
        let cseed: u64 = clutter
            .parse()
            .map_err(|_| CommandError::Usage("--clutter expects an integer seed".into()))?;
        scene = scene.with_environment(rfp_sim::MultipathEnvironment::cluttered(3, cseed));
    }

    let material_for = |i: usize| -> Result<Material, CommandError> {
        if material_arg == "mixed" {
            Ok(Material::CLASSES[i % Material::CLASSES.len()])
        } else {
            Material::CLASSES
                .iter()
                .copied()
                .find(|m| m.label() == material_arg)
                .ok_or_else(|| {
                    CommandError::Usage(format!(
                        "unknown material `{material_arg}` (try: wood plastic glass metal water milk oil alcohol mixed)"
                    ))
                })
        }
    };

    let grid: Vec<Vec2> = scene.region().grid(4, 4).collect();
    let tags: Vec<(SimTag, TagTruth)> = (0..n_tags)
        .map(|i| {
            let position = grid[(seed as usize + i * 5) % grid.len()];
            let alpha = (i as f64 * 0.5) % std::f64::consts::PI;
            let material = material_for(i)?;
            let tag = SimTag::with_seeded_diversity(i as u64 + 1)
                .attached_to(material)
                .with_motion(Motion::planar_static(position, alpha));
            Ok((tag, TagTruth { position, alpha, material }))
        })
        .collect::<Result<_, CommandError>>()?;

    let sim_tags: Vec<SimTag> = tags.iter().map(|(t, _)| t.clone()).collect();
    let round = scene.survey_inventory(&sim_tags, seed);
    let mut log = SurveyLog::new(scene.reader().plan, scene.antenna_poses());
    for ((tag, truth), (id, survey)) in tags.iter().zip(round.surveys) {
        debug_assert_eq!(tag.id(), id);
        log.add_tag(id, survey.per_antenna, Some(*truth));
    }
    Ok(log.to_text())
}

/// The parsed command line of `sense`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenseArgs {
    /// `--log FILE`: the survey log to replay.
    pub log: String,
    /// `--calib FILE`: optional calibration database.
    pub calib: Option<String>,
    /// `--jobs N`: worker threads for the batched solve (0 = all CPUs).
    pub jobs: usize,
    /// `--metrics FILE`: where to write the JSON run report.
    pub metrics: Option<String>,
    /// Bare `--trace`: span/counter summary on stderr.
    pub trace: bool,
    /// Bare `--warm`: sense twice, warm-starting the second pass.
    pub warm: bool,
}

/// Parses the flags of `sense` (everything after the subcommand).
///
/// # Errors
///
/// [`CommandError::Usage`] on a missing `--log`, a bad `--jobs` value or
/// any flag `sense` does not know.
pub fn parse_sense_args(args: &[String]) -> Result<SenseArgs, CommandError> {
    // `--trace` and `--warm` are bare switches; split them out before the
    // strict `--key value` parser sees the remainder.
    let trace = args.iter().any(|a| a == "--trace");
    let warm = args.iter().any(|a| a == "--warm");
    let rest: Vec<String> =
        args.iter().filter(|a| *a != "--trace" && *a != "--warm").cloned().collect();
    let flags = parse_flags(&rest, &["log", "calib", "jobs", "metrics"])?;
    let log = flag(&flags, "log")
        .ok_or_else(|| CommandError::Usage("sense needs --log <file>".into()))?
        .to_string();
    let jobs: usize = match flag(&flags, "jobs") {
        Some(v) => v.parse().map_err(|_| {
            CommandError::Usage("--jobs expects a worker count (0 = all CPUs)".into())
        })?,
        None => 1,
    };
    Ok(SenseArgs {
        log,
        calib: flag(&flags, "calib").map(str::to_string),
        jobs,
        metrics: flag(&flags, "metrics").map(str::to_string),
        trace,
        warm,
    })
}

/// `sense`: replay a survey log through the pipeline; returns the report
/// text.
///
/// `jobs` is the worker-thread count for the batched solve (`0` = one per
/// CPU, `1` = sequential); tags are solved in parallel but reported in log
/// order, and the report is identical at every `jobs` value — the appended
/// run-counter summary too, because count-type metrics merge
/// deterministically across workers.
///
/// With `warm` set the log is sensed twice: a cold pass, then a second
/// pass seeded per tag from the first pass's estimates
/// ([`RfPrism::sense_batch_warm`]) — the steady-state regime of a live
/// deployment re-reading the same tags every round. The reported table
/// comes from the warm pass; the run counters show the warm-start
/// hit/miss split.
pub fn sense(
    log_text: &str,
    calibration_db: Option<&str>,
    jobs: usize,
    warm: bool,
) -> Result<String, CommandError> {
    sense_observed(log_text, calibration_db, jobs, warm).map(|(text, _)| text)
}

/// [`sense`] plus the machine-readable run report it was recorded under —
/// the entry the binary uses for `--metrics` / `--trace`. The sensing work
/// runs under a fresh recorder over [`rfp_core::obs::METRICS`]; the
/// returned [`rfp_obs::RunReport`] carries the per-stage span timings and
/// every solver/detector/pipeline counter of this invocation.
pub fn sense_observed(
    log_text: &str,
    calibration_db: Option<&str>,
    jobs: usize,
    warm: bool,
) -> Result<(String, rfp_obs::RunReport), CommandError> {
    let (result, rec) = rfp_obs::recorder::observe(rfp_core::obs::METRICS, || {
        sense_table(log_text, calibration_db, jobs, warm)
    });
    let table = result?;
    let run = rfp_obs::RunReport::from_recorder("sense", &rec)
        .with_meta("jobs", &jobs.to_string())
        .with_meta("warm", if warm { "true" } else { "false" });
    let text = format!("{table}{}", counters_footer(&run));
    Ok((text, run))
}

/// Renders one counter line of the run summary, resolving names against
/// the report (missing names read as 0, so the footer never panics).
fn counters_footer(run: &rfp_obs::RunReport) -> String {
    let c = |name: &str| {
        run.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let mut out = String::new();
    let _ = writeln!(out, "-- run counters --");
    let _ = writeln!(
        out,
        "  pipeline: {} windows, {} ok, {} moving-rejected, {} too-few-obs",
        c("pipeline.windows_total"),
        c("pipeline.windows_ok"),
        c("pipeline.windows_moving_rejected"),
        c("pipeline.windows_too_few_obs"),
    );
    let _ = writeln!(
        out,
        "  detector: {} clean, {} multipath ({} channels rejected), {} moving",
        c("detector.windows_clean"),
        c("detector.windows_multipath"),
        c("detector.channels_rejected"),
        c("detector.windows_moving"),
    );
    let _ = writeln!(
        out,
        "  solver2d: {} solves, {} iterations, {} residual evals, {} jacobian evals",
        c("solver2d.solves"),
        c("solver2d.iterations"),
        c("solver2d.residual_evals"),
        c("solver2d.jacobian_evals"),
    );
    if c("solver3d.solves") > 0 {
        let _ = writeln!(
            out,
            "  solver3d: {} solves, {} iterations, {} residual evals, {} jacobian evals",
            c("solver3d.solves"),
            c("solver3d.iterations"),
            c("solver3d.residual_evals"),
            c("solver3d.jacobian_evals"),
        );
    }
    let _ = writeln!(
        out,
        "  seeds: {} ranked, {} refined, {} pruned",
        c("solver.seeds_total"),
        c("solver.seeds_refined"),
        c("solver.seeds_pruned"),
    );
    let (hits, misses) = (c("solver.warm_start_hits"), c("solver.warm_start_misses"));
    if hits + misses > 0 {
        let _ = writeln!(out, "  warm starts: {hits} hits, {misses} misses");
    }
    let _ = writeln!(
        out,
        "  lm steps: {} lambda retries, {} chol failures",
        c("solver.lambda_retries"),
        c("solver.chol_failures"),
    );
    let (updates, downdates) = (c("streaming.updates"), c("streaming.downdates"));
    if updates + downdates > 0 {
        let _ = writeln!(
            out,
            "  streaming: {updates} updates, {downdates} downdates, {} refit fallbacks",
            c("streaming.refit_fallbacks"),
        );
    }
    out
}

/// `stream`: drive the incremental sliding-window pipeline
/// ([`RfPrism::sense_streaming`]) over a simulated multi-round read
/// stream and report one estimate per window advance.
///
/// Every round's reads are pushed into the per-antenna sliding windows as
/// they "arrive"; each advance pays only for the reads that entered or
/// expired since the last one, and the solver is warm-started from the
/// tracker's extrapolated position. The footer shows the incremental
/// engine's update/downdate/fallback counters.
///
/// Flags: `--rounds N` (default 5), `--seed S` (default 1),
/// `--tag SEED` (default 1).
///
/// With `--log FILE` the command switches to **telemetry replay mode**
/// ([`crate::telemetry::replay`]): the recorded round is streamed through
/// one session per tag, a [`rfp_obs::TelemetryFrame`] is emitted every
/// `--every` reads per tag (default 64), and the frames are byte-identical
/// at any `--jobs`. `--telemetry FILE` writes the JSONL frames, `--prom
/// FILE` writes the merged Prometheus exposition, the bare `--health`
/// switch folds the streaming health rules into each frame, and
/// `--window SECONDS` bounds the sliding window (0 = keep every read).
pub fn stream(args: &[String]) -> Result<String, CommandError> {
    // `--health` is a bare switch; split it out before pair parsing.
    let health = args.iter().any(|a| a == "--health");
    let args: Vec<String> = args.iter().filter(|a| *a != "--health").cloned().collect();
    let flags = parse_flags(
        &args,
        &["rounds", "seed", "tag", "log", "jobs", "every", "window", "telemetry", "prom"],
    )?;
    if flag(&flags, "log").is_some() {
        return stream_telemetry(&flags, health);
    }
    for key in ["telemetry", "prom", "every", "window", "jobs"] {
        if flag(&flags, key).is_some() {
            return Err(CommandError::Usage(format!("--{key} requires --log FILE")));
        }
    }
    if health {
        return Err(CommandError::Usage("--health requires --log FILE".into()));
    }
    let rounds: usize = flag(&flags, "rounds").unwrap_or("5").parse().map_err(|_| {
        CommandError::Usage("--rounds expects an integer".into())
    })?;
    let seed: u64 = flag(&flags, "seed").unwrap_or("1").parse().map_err(|_| {
        CommandError::Usage("--seed expects an integer".into())
    })?;
    let tag_seed: u64 = flag(&flags, "tag").unwrap_or("1").parse().map_err(|_| {
        CommandError::Usage("--tag expects an integer seed".into())
    })?;
    if rounds == 0 {
        return Err(CommandError::Usage("--rounds must be at least 1".into()));
    }

    let scene = Scene::standard_2d();
    let grid: Vec<Vec2> = scene.region().grid(4, 4).collect();
    let position = grid[seed as usize % grid.len()];
    let alpha = (tag_seed as f64 * 0.5) % std::f64::consts::PI;
    let tag = SimTag::with_seeded_diversity(tag_seed)
        .with_motion(Motion::planar_static(position, alpha));
    let stream = rfp_sim::stream_rounds(&scene, &tag, rounds, seed);
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());

    let (table, rec) = rfp_obs::recorder::observe(rfp_core::obs::METRICS, || {
        let mut session = prism.sense_streaming(scene.reader().round_duration_s());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>18} {:>9} {:>10} {:>10} {:>10}",
            "round", "position (m)", "α (deg)", "verdict", "truth err", "reads"
        );
        for (r, round) in stream.iter().enumerate() {
            for (antenna, reads) in round.per_antenna.iter().enumerate() {
                for read in reads {
                    session.push(antenna, read);
                }
            }
            match session.advance(round.end_time_s) {
                Ok(result) => {
                    let e = &result.estimate;
                    let verdict = match result.verdict {
                        rfp_core::MobilityVerdict::Clean => "clean",
                        rfp_core::MobilityVerdict::MultipathSuppressed { .. } => "multipath",
                        rfp_core::MobilityVerdict::Moving { .. } => "moving",
                    };
                    let _ = writeln!(
                        out,
                        "{r:>6} ({:+7.3}, {:6.3}) {:>9.1} {verdict:>10} {:>7.1} cm {:>10}",
                        e.position.x,
                        e.position.y,
                        e.orientation.to_degrees(),
                        e.position.distance(position) * 100.0,
                        session.retained_reads(),
                    );
                    session.recycle(result);
                }
                Err(SenseError::TagMoving { worst_residual_std }) => {
                    let _ = writeln!(
                        out,
                        "{r:>6} window rejected: tag moved (residual {worst_residual_std:.2} rad)"
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{r:>6} failed: {e}");
                }
            }
        }
        out
    });
    let run = rfp_obs::RunReport::from_recorder("stream", &rec)
        .with_meta("rounds", &rounds.to_string());
    Ok(format!("{table}{}", counters_footer(&run)))
}

/// The `--log` arm of [`stream`]: telemetry replay plus its file sinks.
fn stream_telemetry(flags: &[(String, String)], health: bool) -> Result<String, CommandError> {
    let log_path = flag(flags, "log").expect("checked by caller");
    let jobs: usize = flag(flags, "jobs").unwrap_or("1").parse().map_err(|_| {
        CommandError::Usage("--jobs expects an integer (0 = all CPUs)".into())
    })?;
    let every: usize = flag(flags, "every").unwrap_or("64").parse().map_err(|_| {
        CommandError::Usage("--every expects an integer read count".into())
    })?;
    let window_s: f64 = flag(flags, "window").unwrap_or("0").parse().map_err(|_| {
        CommandError::Usage("--window expects seconds (0 = unbounded)".into())
    })?;
    let opts = crate::telemetry::TelemetryOptions { jobs, every, window_s, health };

    let log_text = std::fs::read_to_string(log_path)?;
    let run = crate::telemetry::replay(&log_text, &opts)?;
    if let Some(path) = flag(flags, "telemetry") {
        let jsonl = if run.frames.is_empty() {
            String::new()
        } else {
            let mut text = run.frames.join("\n");
            text.push('\n');
            text
        };
        std::fs::write(path, jsonl)?;
    }
    if let Some(path) = flag(flags, "prom") {
        std::fs::write(path, run.report.prometheus())?;
    }
    Ok(format!("{}{}", run.summary, counters_footer(&run.report)))
}

/// The tag table of [`sense`] (no counter footer); runs under whatever
/// recorder the caller installed.
fn sense_table(
    log_text: &str,
    calibration_db: Option<&str>,
    jobs: usize,
    warm: bool,
) -> Result<String, CommandError> {
    let log = SurveyLog::from_text(log_text)?;
    let db = match calibration_db {
        Some(text) => Some(CalibrationDb::from_text(text).map_err(CommandError::Calibration)?),
        None => None,
    };
    let prism = RfPrism::new(log.poses.clone(), log.plan);

    // Fan the per-tag solves across the worker pool; results come back in
    // log order, so the report below is byte-identical at any `jobs`.
    let reads: Vec<&Vec<Vec<rfp_dsp::preprocess::RawRead>>> =
        log.tags.values().map(|record| &record.per_antenna).collect();
    let mut results = prism.sense_batch(&reads, jobs);
    if warm {
        // Two passes: cold, then re-sense seeded from the cold estimates —
        // the steady-state regime of a deployment re-reading its tags.
        let warms: Vec<Option<WarmStart>> = results
            .iter()
            .map(|r| r.as_ref().ok().map(|res| WarmStart::from_estimate(&res.estimate)))
            .collect();
        results = prism.sense_batch_warm(&prism.batch_cache(), &reads, &warms, jobs);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>18} {:>9} {:>13} {:>10} {:>12}",
        "tag", "position (m)", "α (deg)", "k_t (rad/Hz)", "verdict", "truth err"
    );
    for ((id, record), result) in log.tags.iter().zip(results) {
        match result {
            Ok(result) => {
                let e = &result.estimate;
                let truth_err = record
                    .truth
                    .map(|t| format!("{:.1} cm", e.position.distance(t.position) * 100.0))
                    .unwrap_or_else(|| "-".into());
                let verdict = match result.verdict {
                    rfp_core::MobilityVerdict::Clean => "clean",
                    rfp_core::MobilityVerdict::MultipathSuppressed { .. } => "multipath",
                    rfp_core::MobilityVerdict::Moving { .. } => "moving",
                };
                let _ = writeln!(
                    out,
                    "{id:>6} ({:+7.3}, {:6.3}) {:>9.1} {:>13.3e} {verdict:>10} {truth_err:>12}",
                    e.position.x,
                    e.position.y,
                    e.orientation.to_degrees(),
                    e.kt,
                );
                if let (Some(db), Some(truth)) = (&db, record.truth) {
                    if let Some(cal) = db.get(*id) {
                        let feats = result
                            .material_features(cal, log.plan.channel_count());
                        let _ = writeln!(
                            out,
                            "{:>6} calibrated material features: k_t_mat {:.3e}, truth {}",
                            "", feats.kt_material, truth.material
                        );
                    }
                }
            }
            Err(SenseError::TagMoving { worst_residual_std }) => {
                let _ = writeln!(
                    out,
                    "{id:>6} window rejected: tag moved (residual {worst_residual_std:.2} rad)"
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{id:>6} failed: {e}");
            }
        }
    }
    Ok(out)
}

/// `calibrate`: simulate the §V-B bare-tag calibration for `tag_seed` and
/// return the calibration-database text.
pub fn calibrate(args: &[String]) -> Result<String, CommandError> {
    let flags = parse_flags(args, &["tag"])?;
    let tag_seed: u64 = flag(&flags, "tag").unwrap_or("1").parse().map_err(|_| {
        CommandError::Usage("--tag expects an integer id".into())
    })?;
    let scene = Scene::standard_2d()
        .with_noise(rfp_sim::NoiseModel::clean())
        .with_reader(rfp_sim::ReaderConfig::ideal());
    let position = Vec2::new(0.5, 1.0);
    let alpha = 0.0;
    let bare = SimTag::with_seeded_diversity(tag_seed)
        .with_motion(Motion::planar_static(position, alpha));
    let survey = scene.survey(&bare, 1000 + tag_seed);
    let observations: Vec<_> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).expect("clean"))
        .collect();
    let cal = DeviceCalibration::from_observations(&observations, position, alpha);
    let mut db = CalibrationDb::new();
    db.insert(tag_seed, cal);
    Ok(db.to_text())
}

/// Top-level usage text.
pub fn usage() -> String {
    "rf-prism — RFID phase-disentangling sensing (RF-Prism reproduction)\n\
     \n\
     USAGE:\n\
     \x20 rf-prism simulate [--tags N] [--seed S] [--material LABEL|mixed] [--clutter SEED] > round.log\n\
     \x20 rf-prism sense --log round.log [--calib tags.cal] [--jobs N] [--metrics out.json] [--trace] [--warm]\n\
     \x20     (--jobs: worker threads for the batched solve; 0 = all CPUs, default 1)\n\
     \x20     (--metrics: write the versioned JSON run report; --trace: span/counter summary on stderr)\n\
     \x20     (--warm: sense twice, warm-starting the second pass from the first — steady-state timing)\n\
     \x20 rf-prism stream [--rounds N] [--seed S] [--tag SEED]\n\
     \x20     (incremental sliding-window mode: one warm estimate per round, O(new reads) per advance)\n\
     \x20 rf-prism stream --log round.log [--jobs N] [--every READS] [--window SECS]\n\
     \x20     [--telemetry frames.jsonl] [--prom metrics.prom] [--health]\n\
     \x20     (telemetry replay: one JSONL frame per --every reads per tag, byte-identical at any --jobs;\n\
     \x20      --health adds watchdog verdicts to each frame; --prom writes the merged exposition)\n\
     \x20 rf-prism calibrate --tag ID > tags.cal\n\
     \x20 rf-prism help\n"
        .to_string()
}

/// Angle helper re-exported for the binary's error messages.
pub fn wrap_deg(rad: f64) -> f64 {
    angle::wrap_pi(rad).to_degrees()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn simulate_then_sense_round_trip() {
        let log_text = simulate(&args(&["--tags", "2", "--seed", "3"])).unwrap();
        let report = sense(&log_text, None, 1, false).unwrap();
        // Two tag rows with truth errors present.
        assert_eq!(report.matches(" cm").count(), 2, "report:\n{report}");
        assert!(report.contains("clean") || report.contains("multipath"));
    }

    #[test]
    fn simulate_respects_material_flag() {
        let log_text = simulate(&args(&["--tags", "2", "--material", "water"])).unwrap();
        assert!(log_text.contains(" water\n"));
        assert!(!log_text.contains(" wood\n"));
    }

    #[test]
    fn simulate_rejects_bad_flags() {
        assert!(matches!(
            simulate(&args(&["--tags", "zero"])),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(
            simulate(&args(&["--material", "kryptonite"])),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(simulate(&args(&["stray"])), Err(CommandError::Usage(_))));
        assert!(matches!(
            simulate(&args(&["--tags"])),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn calibrate_emits_db_text() {
        let text = calibrate(&args(&["--tag", "7"])).unwrap();
        let db = CalibrationDb::from_text(&text).unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.get(7).is_some());
    }

    #[test]
    fn sense_with_calibration_prints_material_features() {
        let log_text = simulate(&args(&["--tags", "1", "--seed", "5"])).unwrap();
        let cal_text = calibrate(&args(&["--tag", "1"])).unwrap();
        let report = sense(&log_text, Some(&cal_text), 1, false).unwrap();
        assert!(report.contains("k_t_mat"), "report:\n{report}");
    }

    #[test]
    fn sense_report_identical_at_any_jobs() {
        let log_text = simulate(&args(&["--tags", "3", "--seed", "2"])).unwrap();
        let sequential = sense(&log_text, None, 1, false).unwrap();
        assert_eq!(sequential, sense(&log_text, None, 2, false).unwrap());
        assert_eq!(sequential, sense(&log_text, None, 0, false).unwrap());
    }

    #[test]
    fn sense_args_parse_switches_and_values() {
        let parsed = parse_sense_args(&args(&[
            "--warm", "--log", "round.log", "--jobs", "4", "--trace", "--metrics", "m.json",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            SenseArgs {
                log: "round.log".into(),
                calib: None,
                jobs: 4,
                metrics: Some("m.json".into()),
                trace: true,
                warm: true,
            }
        );
        assert!(matches!(parse_sense_args(&args(&["--jobs", "2"])), Err(CommandError::Usage(_))));
        assert!(matches!(
            parse_sense_args(&args(&["--log", "round.log", "--jobs", "many"])),
            Err(CommandError::Usage(_))
        ));
    }

    /// Asserts `result` is the usage error that names the flag `--{key}`.
    fn assert_rejects_flag<T: std::fmt::Debug>(result: Result<T, CommandError>, key: &str) {
        match result {
            Err(CommandError::Usage(msg)) => {
                assert!(msg.contains(&format!("unknown flag `--{key}`")), "message: {msg}");
            }
            other => panic!("`--{key}` was not rejected: {other:?}"),
        }
    }

    #[test]
    fn misspelled_flags_are_rejected_by_name() {
        assert_rejects_flag(simulate(&args(&["--tags", "2", "--sede", "7"])), "sede");
        assert_rejects_flag(
            parse_sense_args(&args(&["--log", "round.log", "--jbos", "2"])),
            "jbos",
        );
        assert_rejects_flag(stream(&args(&["--rounds", "1", "--sed", "7"])), "sed");
        assert_rejects_flag(calibrate(&args(&["--tga", "7"])), "tga");
    }

    #[test]
    fn retired_tuned_switch_is_rejected() {
        assert_rejects_flag(parse_sense_args(&args(&["--log", "round.log", "--tuned"])), "tuned");
        assert_rejects_flag(stream(&args(&["--rounds", "1", "--tuned"])), "tuned");
        assert_rejects_flag(stream(&args(&["--log", "round.log", "--tuned"])), "tuned");
    }

    #[test]
    fn warm_sense_matches_cold_table_at_any_jobs() {
        let log_text = simulate(&args(&["--tags", "3", "--seed", "4"])).unwrap();
        let cold = sense(&log_text, None, 1, false).unwrap();
        let warm = sense(&log_text, None, 1, true).unwrap();
        // A static log re-sensed warm must land on the same estimates: the
        // tag table (everything before the counter footer) is identical.
        let table = |s: &str| s.split("-- run counters --").next().unwrap().to_string();
        assert_eq!(table(&cold), table(&warm), "warm pass changed estimates");
        // And the warm report itself is deterministic across worker counts.
        assert_eq!(warm, sense(&log_text, None, 2, true).unwrap());
        assert_eq!(warm, sense(&log_text, None, 0, true).unwrap());
    }

    #[test]
    fn stream_reports_per_round_estimates() {
        let report = stream(&args(&["--rounds", "3", "--seed", "2"])).unwrap();
        // One estimate row per round, plus the streaming counter line.
        assert_eq!(report.matches(" cm").count(), 3, "report:\n{report}");
        assert!(report.contains("streaming:"), "report:\n{report}");
        assert!(report.contains("updates"), "report:\n{report}");
        // Deterministic replay.
        assert_eq!(report, stream(&args(&["--rounds", "3", "--seed", "2"])).unwrap());
    }

    #[test]
    fn stream_rejects_bad_flags() {
        assert!(matches!(stream(&args(&["--rounds", "0"])), Err(CommandError::Usage(_))));
        assert!(matches!(stream(&args(&["--rounds", "x"])), Err(CommandError::Usage(_))));
        // Telemetry flags demand a log to replay.
        assert!(matches!(stream(&args(&["--health"])), Err(CommandError::Usage(_))));
        assert!(matches!(
            stream(&args(&["--telemetry", "out.jsonl"])),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(stream(&args(&["--jobs", "2"])), Err(CommandError::Usage(_))));
    }

    #[test]
    fn stream_telemetry_writes_identical_frames_at_any_jobs() {
        let log_text = simulate(&args(&["--tags", "2", "--seed", "6"])).unwrap();
        let dir = std::env::temp_dir().join("rfp-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("round.log");
        std::fs::write(&log_path, &log_text).unwrap();

        let run = |jobs: &str, frames: &std::path::Path| {
            stream(&args(&[
                "--log",
                log_path.to_str().unwrap(),
                "--jobs",
                jobs,
                "--every",
                "32",
                "--health",
                "--telemetry",
                frames.to_str().unwrap(),
            ]))
            .unwrap()
        };
        let frames1 = dir.join("frames1.jsonl");
        let frames2 = dir.join("frames2.jsonl");
        let summary1 = run("1", &frames1);
        let summary2 = run("2", &frames2);
        assert_eq!(summary1, summary2, "summary must not depend on --jobs");
        let jsonl1 = std::fs::read_to_string(&frames1).unwrap();
        let jsonl2 = std::fs::read_to_string(&frames2).unwrap();
        assert_eq!(jsonl1, jsonl2, "frames must be byte-identical across --jobs");
        assert!(jsonl1.lines().count() > 0);
        assert!(jsonl1.contains("\"health\""));
        assert!(summary1.contains("-- telemetry:"), "summary:\n{summary1}");
        assert!(summary1.contains("health: worst verdict"), "summary:\n{summary1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_telemetry_prom_sink_has_histogram_exposition() {
        let log_text = simulate(&args(&["--tags", "1", "--seed", "3"])).unwrap();
        let dir = std::env::temp_dir().join("rfp-cli-telemetry-prom-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("round.log");
        std::fs::write(&log_path, &log_text).unwrap();
        let prom_path = dir.join("metrics.prom");
        stream(&args(&[
            "--log",
            log_path.to_str().unwrap(),
            "--prom",
            prom_path.to_str().unwrap(),
        ]))
        .unwrap();
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE streaming_advance_latency_us histogram"), "{prom}");
        assert!(prom.contains("streaming_advance_latency_us_bucket{le=\"+Inf\"}"), "{prom}");
        assert!(prom.contains("pipeline_windows_total"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sense_propagates_log_errors() {
        assert!(matches!(sense("garbage", None, 1, false), Err(CommandError::Log(_))));
    }

    /// A non-finite number in one `read` line, or a frequency off its
    /// channel's centre (one channel over, or 1e300 Hz), is a malformed
    /// record for `sense` and `stream --log` alike — never a panic in the
    /// pipeline or a silently shifted channel.
    #[test]
    fn non_finite_read_is_a_malformed_record() {
        let log_text = simulate(&args(&["--tags", "2", "--seed", "3"])).unwrap();
        let log = crate::log::SurveyLog::from_text(&log_text).unwrap();
        let (line, read) = log_text
            .lines()
            .enumerate()
            .find(|(_, l)| l.starts_with("read "))
            .expect("a read line");
        let fields: Vec<&str> = read.split_whitespace().collect();
        let channel: usize = fields[3].parse().unwrap();
        let next_channel = format!("{:e}", log.plan.frequency_hz(channel) + log.plan.spacing_hz());
        let path = std::env::temp_dir().join("rfp-cli-non-finite-test.log");
        // Columns: read <tag> <antenna> <channel> <freq> <phase> <rssi> <t>.
        for (column, value) in [(5, "NaN"), (4, "inf"), (4, next_channel.as_str()), (4, "1e300")] {
            let mut bad = fields.clone();
            bad[column] = value;
            let text = log_text.replace(read, &bad.join(" "));
            let expected = crate::log::LogError::Malformed { line: line + 1 };
            match sense(&text, None, 1, false) {
                Err(CommandError::Log(e)) => assert_eq!(e, expected),
                other => panic!("`{value}` in column {column}: {other:?}"),
            }
            std::fs::write(&path, &text).unwrap();
            match stream(&args(&["--log", path.to_str().unwrap()])) {
                Err(CommandError::Log(e)) => assert_eq!(e, expected),
                other => panic!("stream, `{value}` in column {column}: {other:?}"),
            }
        }
    }

    /// A log with fewer antennas than 2-D sensing needs is a log error for
    /// `sense` and `stream --log` alike — never a panic in the pipeline.
    #[test]
    fn two_antenna_log_is_a_log_error() {
        let log_text = simulate(&args(&["--tags", "2", "--seed", "3"])).unwrap();
        let text: String = log_text
            .lines()
            .filter(|l| {
                // Drop antenna 2 and every read on it.
                let f: Vec<&str> = l.split_whitespace().collect();
                !matches!(f.as_slice(), ["antenna", "2", ..] | ["read", _, "2", ..])
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let expected = crate::log::LogError::TooFewAntennas { found: 2 };
        match sense(&text, None, 1, false) {
            Err(CommandError::Log(e)) => assert_eq!(e, expected),
            other => panic!("sense: {other:?}"),
        }
        let path = std::env::temp_dir().join("rfp-cli-two-antenna-test.log");
        std::fs::write(&path, &text).unwrap();
        match stream(&args(&["--log", path.to_str().unwrap()])) {
            Err(CommandError::Log(e)) => assert_eq!(e, expected),
            other => panic!("stream: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn usage_mentions_all_subcommands() {
        let u = usage();
        for cmd in ["simulate", "sense", "stream", "calibrate"] {
            assert!(u.contains(cmd));
        }
        assert!((wrap_deg(std::f64::consts::PI * 2.5) - 90.0).abs() < 1e-9);
    }
}
