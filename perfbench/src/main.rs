//! `perfbench` — run one benchmark workload and print its record.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --sxed <path> [--out <dir>]
//! perfbench --write-reference <file>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics` (every metric with value, unit, sample count and
//! a note), `notes` (the first failures) and `trace_file`. Normally
//! driven by `perfbench/run.py`, which builds the binaries and adds the
//! run's provenance.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inputs::{self, Workload};
use perfbench::run::{self, Config};
use sxe_telemetry::json::quote;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: Workload::KernelsExec,
        seed: 0,
        seconds: 10.0,
        trace: false,
        sxed: PathBuf::new(),
        out: PathBuf::from("perfbench/out"),
        reference: String::new(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => config.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => config.trace = value == "1",
            "--sxed" => config.sxed = PathBuf::from(value),
            "--out" => config.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    if config.sxed.as_os_str().is_empty() {
        return Err("--sxed is required".into());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--write-reference") {
        let Some(path) = args.get(1) else {
            eprintln!("perfbench: --write-reference needs a file");
            return ExitCode::from(2);
        };
        return match inputs::render_reference()
            .and_then(|s| std::fs::write(path, s).map_err(|e| e.to_string()))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    config.reference = match std::fs::read_to_string(inputs::REFERENCE_PATH) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", inputs::REFERENCE_PATH);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&config.out) {
        eprintln!("perfbench: {}: {e}", config.out.display());
        return ExitCode::FAILURE;
    }
    let report = match run::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let notes: Vec<String> = report.tally.notes.iter().map(|n| quote(n)).collect();
    let trace_file = report
        .trace_file
        .map_or("null".into(), |p| quote(&p.display().to_string()));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"notes\": [{}], \"trace_file\": {}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        report.metrics.to_json(),
        notes.join(", "),
        trace_file
    );
    ExitCode::SUCCESS
}
