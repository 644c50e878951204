//! The execution layer: the decoded interpreter and the native x86-64
//! engine running each item's `All` compile, and native code running
//! its `Baseline` compile (the paper's elimination speedup).

use std::time::Instant;

use sxe_ir::Width;
use sxe_vm::{Engine, Outcome, Vm, VmError};

use crate::compile::Tally;
use crate::inputs::{ExecItem, FUEL, TARGET};
use crate::stats::{self, Metrics};
use crate::trace::{elapsed_ns, Tracer};

fn vm(m: &sxe_ir::Module, engine: Engine) -> Vm<'_> {
    Vm::builder(m)
        .target(TARGET)
        .engine(engine)
        .fuel(FUEL)
        .build()
}

/// The engines of the execution phase, built (decoded, code generated)
/// once in set-up.
#[derive(Debug)]
pub struct Engines<'a> {
    items: &'a [ExecItem],
    native_all: Vec<Vm<'a>>,
    native_base: Vec<Vm<'a>>,
    decoded_all: Vec<Vm<'a>>,
}

impl<'a> Engines<'a> {
    /// Decode and generate code for every item.
    #[must_use]
    pub fn build(items: &'a [ExecItem]) -> Engines<'a> {
        Engines {
            items,
            native_all: items.iter().map(|i| vm(&i.all, Engine::Native)).collect(),
            native_base: items.iter().map(|i| vm(&i.base, Engine::Native)).collect(),
            decoded_all: items.iter().map(|i| vm(&i.all, Engine::Decoded)).collect(),
        }
    }
}

/// Compare one run with the item's reference.
fn check(
    item: &ExecItem,
    what: &str,
    out: &Result<Outcome, VmError>,
    insts: u64,
    want_insts: u64,
) -> Option<String> {
    match out {
        Err(e) => Some(format!("{} {what}: {e}", item.name)),
        Ok(o) if (o.ret, o.heap_checksum) != (item.expect.ret, item.expect.heap_checksum) => Some(
            format!("{} {what}: output differs from the reference", item.name),
        ),
        Ok(_) if insts != want_insts => Some(format!(
            "{} {what}: executed {insts} instructions, expected {want_insts}",
            item.name
        )),
        Ok(_) => None,
    }
}

/// Runs per timed sample: enough that a sample of a tiny generated
/// program is not just timer resolution. Derived from the reference
/// instruction count, so it is the same on every run.
#[must_use]
pub fn reps(item: &ExecItem) -> u32 {
    (400_000 / item.expect.baseline_insts.max(1)).clamp(1, 2000) as u32
}

/// Run `vm` `reps` times, each from a fresh state; the wall time sums
/// the runs only. Returns the first run's result.
fn timed_runs(vm: &mut Vm<'_>, item: &ExecItem, reps: u32) -> (Result<Outcome, VmError>, u64) {
    let mut ns = 0;
    let mut first = None;
    for _ in 0..reps {
        vm.reset();
        let t = Instant::now();
        let out = vm.run(&item.entry, &item.args);
        ns += elapsed_ns(t);
        first.get_or_insert(out);
    }
    (first.expect("at least one run"), ns)
}

/// The untraced execution phase, advanced a step at a time: each round
/// runs every item on native `All`, native `Baseline` and decoded
/// `All`, each run checked against the item's reference. An item's time
/// on an engine is the best of its rounds: the cores are shared, slow
/// spells last seconds, and rounds spread over the whole window.
#[derive(Debug)]
pub struct Phase<'a> {
    engines: Engines<'a>,
    reps: Vec<u32>,
    /// Per item: best native `All`, native `Baseline`, decoded `All` ns.
    best: Vec<[u64; 3]>,
    insts_all: Vec<u64>,
    ext: (u64, u64),
    rounds: usize,
}

impl<'a> Phase<'a> {
    /// A phase over built engines.
    #[must_use]
    pub fn new(engines: Engines<'a>) -> Phase<'a> {
        let k = engines.items.len();
        Phase {
            reps: engines.items.iter().map(reps).collect(),
            engines,
            best: vec![[u64::MAX; 3]; k],
            insts_all: vec![0; k],
            ext: (0, 0),
            rounds: 0,
        }
    }

    /// Run rounds until `deadline` (at least one).
    pub fn step(&mut self, deadline: Instant, tally: &mut Tally) {
        loop {
            self.round(tally);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    fn round(&mut self, tally: &mut Tally) {
        let e = &mut self.engines;
        for (i, item) in e.items.iter().enumerate() {
            let reps = self.reps[i];
            // Alternate which compile runs first so neither side always
            // inherits the other's warm caches.
            let mut base_run = None;
            if self.rounds % 2 == 1 {
                base_run = Some(timed_runs(&mut e.native_base[i], item, reps));
            }
            let (out, ns_all) = timed_runs(&mut e.native_all[i], item, reps);
            let nat_insts = e.native_all[i].counters().insts;
            let (bout, ns_base) =
                base_run.unwrap_or_else(|| timed_runs(&mut e.native_base[i], item, reps));
            let base_insts = e.native_base[i].counters().insts;
            let (dout, ns_dec) = timed_runs(&mut e.decoded_all[i], item, reps);
            let dec_insts = e.decoded_all[i].counters().insts;

            if self.rounds == 0 {
                self.insts_all[i] = nat_insts;
                tally.op(check(item, "native All", &out, nat_insts, dec_insts));
                tally.op(check(
                    item,
                    "native Baseline",
                    &bout,
                    base_insts,
                    item.expect.baseline_insts,
                ));
                tally.op(check(item, "decoded All", &dout, dec_insts, nat_insts));
                self.ext.0 += e.native_base[i].counters().extend_count(Some(Width::W32));
                self.ext.1 += e.native_all[i].counters().extend_count(Some(Width::W32));
            } else {
                // Later rounds must repeat the first exactly.
                let same = out.is_ok()
                    && bout.is_ok()
                    && dout.is_ok()
                    && nat_insts == self.insts_all[i]
                    && dec_insts == nat_insts
                    && base_insts == item.expect.baseline_insts;
                tally.op((!same).then(|| format!("{}: run differs from the first round", item.name)));
            }
            let b = &mut self.best[i];
            *b = [b[0].min(ns_all), b[1].min(ns_base), b[2].min(ns_dec)];
        }
        self.rounds += 1;
    }

    /// The phase's end-to-end metrics.
    #[must_use]
    pub fn finish(&self) -> Metrics {
        let k = self.best.len();
        let work: u64 = self
            .insts_all
            .iter()
            .zip(&self.reps)
            .map(|(&n, &r)| n * u64::from(r))
            .sum();
        let total = |j: usize| self.best.iter().map(|b| b[j] as f64).sum::<f64>();
        let speedups: Vec<f64> = self
            .best
            .iter()
            .map(|b| b[1] as f64 / b[0].max(1) as f64)
            .collect();
        let code_bytes: usize = self
            .engines
            .native_all
            .iter()
            .flat_map(Vm::native_code_stats)
            .map(|(_, bytes, _)| bytes)
            .sum();
        let n = self.rounds as u64;
        let (ext_base, ext_all) = self.ext;
        let note = format!("{k} programs, best of {n} rounds each");
        let mut m = Metrics::default();
        m.set_noted(
            "native_minst_per_s",
            work as f64 / (total(0) / 1e9) / 1e6,
            "Minst/s",
            n,
            note.clone(),
        );
        m.set_noted(
            "decoded_minst_per_s",
            work as f64 / (total(2) / 1e9) / 1e6,
            "Minst/s",
            n,
            note.clone(),
        );
        m.set_noted(
            "native_elim_speedup",
            stats::geomean(&speedups),
            "x",
            k as u64,
            format!("geomean of Baseline/All native time; {note}"),
        );
        m.set_noted(
            "dyn_ext32_remaining_pct",
            100.0 * ext_all as f64 / ext_base.max(1) as f64,
            "%",
            1,
            format!("{ext_all} of {ext_base} dynamic 32-bit extensions"),
        );
        m.set("native_code_bytes", code_bytes as f64, "B", 1);
        m
    }
}

/// The traced execution layer: round after round until `deadline` (at
/// least one), each item is decoded, compiled to native code and run on
/// both engines, each call a span. Times are medians over rounds of
/// per-round sums; counts come from the first round.
pub fn layer(
    items: &[ExecItem],
    deadline: Instant,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Metrics {
    let mut rounds: Vec<[u64; 4]> = Vec::new();
    let mut counts = [0u64; 9];
    while rounds.is_empty() || Instant::now() < deadline {
        let first = rounds.is_empty();
        let mut sums = [0u64; 4];
        for item in items {
            let mut unit = tracer.unit(&format!("program {}", item.name));
            let (mut dec, decode_ns) = unit.span("Vm::build decoded", "sxe-vm", || {
                vm(&item.all, Engine::Decoded)
            });
            let (mut nat, native_ns) = unit.span("Vm::build native", "sxe-native", || {
                vm(&item.all, Engine::Native)
            });
            let (dout, run_dec) = unit.span("Vm::run decoded", "sxe-vm", || {
                dec.run(&item.entry, &item.args)
            });
            let (nout, run_nat) = unit.span("Vm::run native", "sxe-native", || {
                nat.run(&item.entry, &item.args)
            });
            sums[0] += decode_ns;
            sums[1] += native_ns.saturating_sub(decode_ns);
            sums[2] += run_dec;
            sums[3] += run_nat;
            if first {
                let mut base = vm(&item.base, Engine::Native);
                let bout = base.run(&item.entry, &item.args);
                tally.op(check(
                    item,
                    "decoded All",
                    &dout,
                    dec.counters().insts,
                    nat.counters().insts,
                ));
                tally.op(check(
                    item,
                    "native All",
                    &nout,
                    nat.counters().insts,
                    dec.counters().insts,
                ));
                tally.op(check(
                    item,
                    "native Baseline",
                    &bout,
                    base.counters().insts,
                    item.expect.baseline_insts,
                ));
                let stats = nat.native_code_stats();
                counts[0] += dec.counters().insts;
                counts[1] += base.counters().extend_count(Some(Width::W32));
                counts[2] += dec.counters().extend_count(Some(Width::W32));
                counts[3] += dec.counters().cycles;
                counts[4] += stats.iter().map(|s| s.1 as u64).sum::<u64>();
                counts[5] += base
                    .native_code_stats()
                    .iter()
                    .map(|s| s.2 as u64)
                    .sum::<u64>();
                counts[6] += stats.iter().map(|s| s.2 as u64).sum::<u64>();
                counts[7] += (nat.native_refusals().len() + base.native_refusals().len()) as u64;
                counts[8] += 1;
            }
            tracer.finish(unit, first);
        }
        rounds.push(sums);
    }
    let n = rounds.len() as u64;
    let med = |j: usize| stats::median(&rounds.iter().map(|r| r[j] as f64).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("vm.decode_ns", med(0), "ns", n);
    m.set_noted(
        "native.codegen_ns",
        med(1),
        "ns",
        n,
        "native build minus decoded build".into(),
    );
    m.set("vm.run_decoded_ns", med(2), "ns", n);
    m.set("native.run_ns", med(3), "ns", n);
    for (j, (key, unit)) in [
        ("vm.dyn_insts", "count"),
        ("vm.dyn_ext32.baseline", "count"),
        ("vm.dyn_ext32.all", "count"),
        ("vm.cycles", "count"),
        ("native.code_bytes", "B"),
        ("native.extend_bytes.baseline", "B"),
        ("native.extend_bytes.all", "B"),
        ("native.refusals", "count"),
        ("vm.programs", "count"),
    ]
    .into_iter()
    .enumerate()
    {
        m.set(key, counts[j] as f64, unit, 1);
    }
    m
}
