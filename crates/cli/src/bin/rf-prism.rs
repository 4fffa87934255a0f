//! The `rf-prism` command-line entry point. All logic lives in
//! `rfp_cli::commands` so it is unit-testable; this file only routes.

use rfp_cli::commands;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => commands::simulate(&args[1..]).map(Output::Stdout),
        Some("sense") => run_sense(&args[1..]),
        Some("stream") => commands::stream(&args[1..]).map(Output::Stdout),
        Some("calibrate") => commands::calibrate(&args[1..]).map(Output::Stdout),
        Some("help") | None => Ok(Output::Stdout(commands::usage())),
        Some(other) => Err(commands::CommandError::Usage(format!(
            "unknown subcommand `{other}`\n\n{}",
            commands::usage()
        ))),
    };
    match result {
        Ok(Output::Stdout(text)) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

enum Output {
    Stdout(String),
}

fn run_sense(args: &[String]) -> Result<Output, commands::CommandError> {
    let opts = commands::parse_sense_args(args)?;
    let log_text = std::fs::read_to_string(&opts.log)?;
    let calib_text = match &opts.calib {
        Some(path) => Some(std::fs::read_to_string(path)?),
        None => None,
    };
    let (text, run) =
        commands::sense_observed(&log_text, calib_text.as_deref(), opts.jobs, opts.warm)?;
    let run = run.with_meta("log", &opts.log);
    if let Some(path) = &opts.metrics {
        rfp_obs::report::write_json(std::path::Path::new(path), &run.to_json())?;
    }
    if opts.trace {
        eprint!("{}", run.summary());
    }
    Ok(Output::Stdout(text))
}
