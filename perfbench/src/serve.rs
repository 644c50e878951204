//! The serve layer: a real `sxed` on loopback, driven in a closed loop.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sxe_ir::parse_module;
use sxe_serve::{
    stat_value, ArtifactStore, CacheOutcome, Client, CompileRequest, CompiledArtifact, Response,
};

use crate::compile::{compiler, fnv1a, Tally};
use crate::inputs::{request_source, Inputs, Workload};
use crate::stats::{self, Metrics};
use crate::trace::{elapsed_ns, Tracer, Unit};

/// Client connections (and daemon workers): the machine's two cores.
pub const CONNECTIONS: usize = 2;

/// A running `sxed` child process with a fresh cache directory.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The daemon's loopback port.
    pub port: u16,
    dir: PathBuf,
}

impl Daemon {
    /// Start `sxed` on an ephemeral port with its cache in `dir` (which
    /// must not exist yet) and wait until it answers a ping.
    ///
    /// # Errors
    /// The daemon failed to start or to answer.
    pub fn start(sxed: &Path, dir: &Path) -> Result<Daemon, String> {
        let child = Command::new(sxed)
            .args([
                "--port",
                "0",
                "--threads",
                &CONNECTIONS.to_string(),
                "--cache-dir",
            ])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sxed.display()))?;
        let mut d = Daemon {
            child: Some(child),
            stdout: None,
            port: 0,
            dir: dir.to_path_buf(),
        };
        let stdout = d
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .ok_or("no daemon stdout")?;
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader
            .read_line(&mut banner)
            .map_err(|e| format!("daemon banner: {e}"))?;
        d.stdout = Some(reader);
        d.port = banner
            .split("127.0.0.1:")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner `{}`", banner.trim()))?;
        let client = Client::new(d.port);
        let t = Instant::now();
        while client.ping().is_err() {
            if t.elapsed() > Duration::from_secs(10) {
                return Err("daemon did not answer a ping within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(d)
    }

    /// Send every hot-set module once, so the measured window starts with
    /// a warm cache.
    ///
    /// # Errors
    /// A request that was not answered with a compiled artifact.
    pub fn warm(&self, hot: &[String]) -> Result<(), String> {
        let client = Client::new(self.port);
        for source in hot {
            match client.compile_once(&CompileRequest::new(source.as_str())) {
                Ok(Response::Compiled(..)) => {}
                other => return Err(format!("warming the cache: {other:?}")),
            }
        }
        Ok(())
    }

    /// The daemon's `serve.*` stats snapshot.
    ///
    /// # Errors
    /// Transport errors.
    pub fn stats(&self) -> Result<String, String> {
        Client::new(self.port).stats().map_err(|e| e.to_string())
    }

    /// Shut the daemon down gracefully and wait for it to exit.
    ///
    /// # Errors
    /// The shutdown was not acknowledged or the daemon exited non-zero.
    pub fn stop(mut self) -> Result<(), String> {
        let ack = Client::new(self.port)
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"));
        if let Some(mut out) = self.stdout.take() {
            let mut rest = String::new();
            while out.read_line(&mut rest).map(|n| n > 0).unwrap_or(false) {}
        }
        let status = self.child.take().map(|mut c| c.wait());
        let _ = std::fs::remove_dir_all(&self.dir);
        ack?;
        match status {
            Some(Ok(s)) if s.success() => Ok(()),
            other => Err(format!("daemon exit: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    source: u64,
    hit: bool,
    ms: f64,
}

/// Per distinct source (keyed by its digest): the first request that
/// carried it, the digest of the artifact text served for it, and —
/// only in a traced run, for the store layer — the artifact itself.
/// Digests, not texts, keep the benchmark's own memory out of
/// `peak_rss_mb`.
type Served = HashMap<u64, (u64, u64, Option<CompiledArtifact>)>;

/// The closed loop, advanced a step at a time: [`CONNECTIONS`] clients,
/// each sending its next request (one `compile_once`, no retries) only
/// after the previous reply. Every response must be byte-identical
/// (equal FNV-1a digest) to the first response for the same source, and
/// that one to an in-process compile of the source (checked in
/// [`Phase::finish`], after the clock stops).
#[derive(Debug)]
pub struct Phase<'a> {
    inputs: &'a Inputs,
    daemon: &'a Daemon,
    next: AtomicU64,
    first: Mutex<Served>,
    samples: Vec<Sample>,
    rps: Vec<f64>,
    refusals: u64,
    metrics: Metrics,
}

impl<'a> Phase<'a> {
    /// A phase against `daemon`. With `tracer` recording, first probe
    /// the daemon's frame round trip with pings.
    pub fn new(
        inputs: &'a Inputs,
        daemon: &'a Daemon,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Phase<'a> {
        let mut metrics = Metrics::default();
        if tracer.is_on() {
            let client = Client::new(daemon.port);
            let mut rtt = Vec::new();
            let mut unit = tracer.unit("ping");
            for _ in 0..50 {
                let (r, ns) = unit.span("Client::ping", "sxe-serve", || client.ping());
                tally.op(r.err().map(|e| format!("ping: {e}")));
                rtt.push(ns as f64 / 1e3);
            }
            tracer.finish(unit, true);
            metrics.set(
                "serve.ping_rtt_us",
                stats::median(&rtt),
                "us",
                rtt.len() as u64,
            );
        }
        Phase {
            inputs,
            daemon,
            next: AtomicU64::new(0),
            first: Mutex::new(HashMap::new()),
            samples: Vec::new(),
            rps: Vec::new(),
            refusals: 0,
            metrics,
        }
    }

    /// Run the closed loop for `window`.
    pub fn step(&mut self, window: Duration, tracer: &mut Tracer, tally: &mut Tally) {
        let deadline = Instant::now() + window;
        let client = Client::new(self.daemon.port);
        let start = Instant::now();
        let (inputs, next, first) = (self.inputs, &self.next, &self.first);
        let per_thread: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    let (client, tracer) = (&client, &*tracer);
                    s.spawn(move || client_loop(inputs, client, next, first, deadline, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let (mut end, mut replies) = (start, 0);
        for ClientRun {
            samples,
            tally: t,
            units,
            refusals,
            last,
        } in per_thread
        {
            replies += samples.len();
            self.samples.extend(samples);
            tally.absorb(t);
            self.refusals += refusals;
            end = end.max(last);
            for unit in units {
                let keep = tracer.spans < 20_000;
                tracer.finish(unit, keep);
            }
        }
        self.rps
            .push(replies as f64 / end.duration_since(start).as_secs_f64().max(1e-9));
    }

    /// Check every served artifact against an in-process compile and
    /// report the phase's metrics (plus the traced serve metrics when
    /// `tracer` records).
    pub fn finish(self, tracer: &mut Tracer, tally: &mut Tally) -> Metrics {
        let first = self.first.into_inner().expect("no panics while held");
        let inproc_ms = check_against_inprocess(self.inputs, &first, tally);
        let samples = &self.samples;
        let mut m = self.metrics;
        let n = samples.len() as u64;
        m.set_noted(
            "serve_rps",
            stats::median(&self.rps),
            "req/s",
            self.rps.len() as u64,
            format!("median over steps; {n} replies"),
        );
        // On `serve-mixed` every request is its own sample. Where serving
        // is secondary every request is a hit on the small hot set, and the
        // samples are each hot module's median latency: the tail of a
        // couple of thousand hits is set by the shared machine's slow
        // spells, and a best-of would pick the few requests that happened
        // not to wait for the daemon's accept poll.
        let (lat, what) = if self.inputs.workload == Workload::ServeMixed {
            (
                samples.iter().map(|s| s.ms).collect::<Vec<f64>>(),
                "requests",
            )
        } else {
            let mut per: HashMap<u64, Vec<f64>> = HashMap::new();
            for s in samples {
                per.entry(s.source).or_default().push(s.ms);
            }
            (
                per.values().map(|v| stats::median(v)).collect(),
                "hot modules' medians",
            )
        };
        let k = lat.len() as u64;
        m.set_noted(
            "serve_p50_ms",
            stats::median(&lat),
            "ms",
            k,
            format!("{k} {what}"),
        );
        let (p99, q) = stats::tail(&lat, 0.99);
        m.set_noted(
            "serve_p99_ms",
            p99,
            "ms",
            k,
            format!("quantile {q:.4} of {k} {what}"),
        );
        if tracer.is_on() {
            let hits: Vec<f64> = samples.iter().filter(|s| s.hit).map(|s| s.ms).collect();
            let misses: Vec<&Sample> = samples.iter().filter(|s| !s.hit).collect();
            let miss_ms: Vec<f64> = misses.iter().map(|s| s.ms).collect();
            let overhead: Vec<f64> = misses
                .iter()
                .filter_map(|s| inproc_ms.get(&s.source).map(|c| s.ms - c))
                .collect();
            m.set(
                "serve.hit_ms",
                stats::median(&hits),
                "ms",
                hits.len() as u64,
            );
            m.set(
                "serve.miss_ms",
                stats::median(&miss_ms),
                "ms",
                miss_ms.len() as u64,
            );
            m.set_noted(
                "serve.hit_ratio",
                hits.len() as f64 / n.max(1) as f64,
                "ratio",
                n,
                format!("{} of {n}", hits.len()),
            );
            m.set("serve.refusals", self.refusals as f64, "count", n);
            m.set_noted(
                "serve.miss_overhead_ms",
                stats::median(&overhead),
                "ms",
                overhead.len() as u64,
                "miss latency minus in-process compile of the same source".into(),
            );
            let daemon_p99 = self
                .daemon
                .stats()
                .ok()
                .and_then(|s| stat_value(&s, "serve.latency.p99_ns"));
            tally.op(daemon_p99
                .is_none()
                .then(|| "daemon stats unavailable".to_string()));
            m.set(
                "serve.daemon_p99_ms",
                daemon_p99.unwrap_or(0) as f64 / 1e6,
                "ms",
                1,
            );
            let artifacts: Vec<&CompiledArtifact> =
                first.values().filter_map(|(_, _, a)| a.as_ref()).collect();
            m.extend(store_layer(
                &self.daemon.dir.with_extension("store"),
                &artifacts,
                tracer,
                tally,
            ));
        }
        m
    }
}

/// What one client connection's loop brings back.
struct ClientRun {
    samples: Vec<Sample>,
    tally: Tally,
    units: Vec<Unit>,
    refusals: u64,
    /// When its last reply arrived.
    last: Instant,
}

/// One client connection's closed loop until `deadline`.
fn client_loop(
    inputs: &Inputs,
    client: &Client,
    next: &AtomicU64,
    first: &Mutex<Served>,
    deadline: Instant,
    tracer: &Tracer,
) -> ClientRun {
    let (mut samples, mut tally, mut units, mut refusals) =
        (Vec::new(), Tally::default(), Vec::new(), 0);
    let mut last = Instant::now();
    while Instant::now() < deadline {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let source = request_source(inputs, k);
        let id = fnv1a(&source);
        let req = CompileRequest::new(source);
        let mut unit = tracer.unit(&format!("request {k}"));
        let (resp, ns) = unit.span("Client::compile_once", "sxe-serve", || {
            client.compile_once(&req)
        });
        last = Instant::now();
        if tracer.is_on() {
            units.push(unit);
        }
        let err = match resp {
            Ok(Response::Compiled(outcome, artifact)) => {
                samples.push(Sample {
                    source: id,
                    hit: outcome == CacheOutcome::Hit,
                    ms: ns as f64 / 1e6,
                });
                let digest = fnv1a(&artifact.text);
                let mut map = first.lock().expect("no panics while held");
                match map.get(&id) {
                    None => {
                        map.insert(id, (k, digest, tracer.is_on().then_some(artifact)));
                        None
                    }
                    Some(&(_, d, _)) if d == digest => None,
                    Some(_) => Some(format!("request {k}: response differs from an earlier one")),
                }
            }
            Ok(Response::Refused(r)) => {
                refusals += 1;
                Some(format!("request {k}: refused: {r:?}"))
            }
            Ok(other) => Some(format!("request {k}: {other:?}")),
            Err(e) => Some(format!("request {k}: {e}")),
        };
        tally.op(err);
    }
    ClientRun {
        samples,
        tally,
        units,
        refusals,
        last,
    }
}

/// Compile every distinct served source in process (two threads) and
/// compare with the served artifact. Returns each source's in-process
/// compile time, ms.
fn check_against_inprocess(
    inputs: &Inputs,
    first: &Served,
    tally: &mut Tally,
) -> HashMap<u64, f64> {
    let entries: Vec<_> = first.iter().collect();
    let checked: Vec<(u64, Option<String>, f64)> = std::thread::scope(|s| {
        let chunks: Vec<_> = entries
            .chunks(entries.len().div_ceil(CONNECTIONS).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let c = compiler();
                    chunk
                        .iter()
                        .map(|(&id, &(k, digest, _))| {
                            let source = request_source(inputs, k);
                            let t = Instant::now();
                            let ours =
                                parse_module(&source)
                                    .map_err(|e| e.to_string())
                                    .and_then(|m| {
                                        c.try_compile(&m)
                                            .map(|c| c.module.to_string())
                                            .map_err(|e| e.to_string())
                                    });
                            let ms = elapsed_ns(t) as f64 / 1e6;
                            let err = match ours {
                                Err(e) => Some(format!("in-process compile: {e}")),
                                Ok(text) if fnv1a(&text) == digest => None,
                                Ok(_) => Some(
                                    "served artifact differs from an in-process compile".into(),
                                ),
                            };
                            (id, err, ms)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    });
    let mut inproc_ms = HashMap::new();
    for (id, err, ms) in checked {
        tally.op(err);
        inproc_ms.insert(id, ms);
    }
    inproc_ms
}

/// `ArtifactStore` called directly on the run's artifacts: one insert
/// and one get each, in a fresh directory.
fn store_layer(
    dir: &Path,
    artifacts: &[&CompiledArtifact],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Metrics {
    let mut m = Metrics::default();
    let _ = std::fs::remove_dir_all(dir);
    let (mut insert_us, mut get_us) = (Vec::new(), Vec::new());
    match ArtifactStore::open(dir, None) {
        Err(e) => tally.op(Some(format!("store open: {e}"))),
        Ok(mut store) => {
            let mut unit = tracer.unit("store");
            for a in artifacts {
                let bytes = a.to_bytes();
                let (ok, ns) = unit.span("ArtifactStore::insert", "sxe-serve", || {
                    store.insert(a.key, &bytes)
                });
                insert_us.push(ns as f64 / 1e3);
                tally.op((!ok).then(|| "store insert failed".to_string()));
            }
            for a in artifacts {
                let (got, ns) = unit.span("ArtifactStore::get", "sxe-serve", || store.get(a.key));
                get_us.push(ns as f64 / 1e3);
                tally.op((got.as_deref() != Some(&a.to_bytes()[..]))
                    .then(|| "store get returned other bytes".to_string()));
            }
            tracer.finish(unit, true);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    m.set(
        "store.insert_us",
        stats::median(&insert_us),
        "us",
        insert_us.len() as u64,
    );
    m.set(
        "store.get_us",
        stats::median(&get_us),
        "us",
        get_us.len() as u64,
    );
    m
}
