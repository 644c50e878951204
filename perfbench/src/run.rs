//! One benchmark run: set-up, the measured window, the report.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::compile::{self, Tally};
use crate::exec::{self, Engines};
use crate::inputs::{self, Inputs, Workload};
use crate::serve::{self, Daemon};
use crate::stats::{self, Metrics};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The measured window is cut into slices of this length; every slice
/// runs each phase for its share, so a disturbance from outside the
/// benchmark spreads over all metrics instead of landing on one phase.
pub const SLICE_S: f64 = 1.0;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// The `sxed` binary.
    pub sxed: PathBuf,
    /// Directory for scratch files and the exported trace.
    pub out: PathBuf,
    /// The expected-output file's text.
    pub reference: String,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every metric.
    pub metrics: Metrics,
    /// Where the traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

/// One set-up: draw and compile the inputs, start the daemon and warm
/// its cache with the hot set (decode and code generation follow in the
/// caller).
fn setup(config: &Config, scratch: &Path, i: usize) -> Result<(Inputs, Daemon), String> {
    let inputs = inputs::build(config.workload, config.seed, &config.reference)?;
    let daemon = Daemon::start(&config.sxed, &scratch.join(format!("cache-{i}")))?;
    daemon.warm(&inputs.hot)?;
    Ok((inputs, daemon))
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run `config`.
///
/// # Errors
/// A set-up that could not complete (missing `sxed`, bad reference).
pub fn run(config: &Config) -> Result<Report, String> {
    let scratch = config.out.join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = run_in(config, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(config: &Config, scratch: &Path) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    for i in 0..SETUPS - 1 {
        let t = Instant::now();
        let (inputs, daemon) = setup(config, scratch, i)?;
        let engines = Engines::build(&inputs.exec);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(engines);
        daemon.stop()?;
    }
    let t = Instant::now();
    let (inputs, daemon) = setup(config, scratch, SETUPS)?;
    let engines = (!config.trace).then(|| Engines::build(&inputs.exec));
    setup_s.push(t.elapsed().as_secs_f64());

    let mut report = Report::default();
    let (exec_share, compile_share, serve_share) = config.workload.shares();
    let mut tracer = Tracer::new(config.trace);
    let m = &mut report.metrics;
    let tally = &mut report.tally;
    let share = |s: f64, total: f64| Duration::from_secs_f64(total * s);
    if let Some(engines) = engines {
        let mut exec = exec::Phase::new(engines);
        let mut comp = compile::Phase::new(&inputs);
        let mut serve = serve::Phase::new(&inputs, &daemon, &mut tracer, tally);
        let slices = (config.seconds / SLICE_S).ceil().max(1.0);
        let slice = config.seconds / slices;
        for _ in 0..slices as usize {
            exec.step(Instant::now() + share(exec_share, slice), tally);
            comp.step(Instant::now() + share(compile_share, slice), tally);
            serve.step(share(serve_share, slice), &mut tracer, tally);
        }
        // Before the post-run checks: their heaps are not the program's.
        m.set("peak_rss_mb", peak_rss_mb(), "MiB", 1);
        m.extend(exec.finish());
        m.extend(comp.finish(tally));
        m.extend(serve.finish(&mut tracer, tally));
    } else {
        let window = |s: f64| Instant::now() + share(s, config.seconds);
        m.extend(exec::layer(
            &inputs.exec,
            window(exec_share),
            &mut tracer,
            tally,
        ));
        m.extend(compile::layer(
            &inputs,
            window(compile_share),
            &mut tracer,
            tally,
        ));
        let mut serve = serve::Phase::new(&inputs, &daemon, &mut tracer, tally);
        serve.step(share(serve_share, config.seconds), &mut tracer, tally);
        m.extend(serve.finish(&mut tracer, tally));
    }
    daemon.stop()?;

    m.set_noted(
        "setup_s",
        stats::median(&setup_s),
        "s",
        setup_s.len() as u64,
        "median of set-ups: inputs, set-up compiles, decode/codegen, daemon start".into(),
    );
    m.set_noted(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted,
        format!("{} of {}", tally.failed, tally.attempted),
    );
    if config.trace {
        for (cat, ns) in &tracer.self_ns {
            m.set(&format!("self.{cat}_ms"), *ns as f64 / 1e6, "ms", 1);
        }
        m.set("trace.spans", tracer.spans as f64, "count", 1);
        let path = config.out.join(format!(
            "{}-seed{}.trace.json",
            config.workload, config.seed
        ));
        std::fs::write(&path, tracer.chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.trace_file = Some(path);
    }
    Ok(report)
}
