//! A hostile calibration database is a one-line error, never an abort: a
//! `tag` header whose sample count could not be allocated makes `sense`
//! return `CommandError::Calibration`, and the binary exit 1.

use rfp_cli::commands::{self, CommandError};
use std::process::Command;

/// Two lines: a header claiming 10¹⁴ samples, then one sample.
const BAD_DB: &str = "tag 1 0 0 100000000000000\n0 9e8 1.0\n";

#[test]
fn huge_sample_count_is_a_calibration_error() {
    let args: Vec<String> = ["--tags", "1", "--seed", "5"].map(String::from).to_vec();
    let log = commands::simulate(&args).unwrap();
    match commands::sense(&log, Some(BAD_DB), 1, false) {
        Err(CommandError::Calibration(_)) => {}
        other => panic!("sense: {other:?}"),
    }

    let stem = std::env::temp_dir().join(format!("rfp-cli-bad-calib-{}", std::process::id()));
    let (log_path, db_path) = (stem.with_extension("log"), stem.with_extension("cal"));
    std::fs::write(&log_path, &log).unwrap();
    std::fs::write(&db_path, BAD_DB).unwrap();
    let paths = [log_path.to_str().unwrap(), db_path.to_str().unwrap()];
    let out = Command::new(env!("CARGO_BIN_EXE_rf-prism"))
        .args(["sense", "--log", paths[0], "--calib", paths[1]])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(&db_path);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("error: calibration db:"), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
}
