//! The compile layer: timed single-threaded compiles, and the staged
//! replica of the Fig 5 pipeline that the traced run drives stage by
//! stage through the crates' public functions.

use std::collections::BTreeMap;
use std::time::Instant;

use sxe_analysis::FlowRanges;
use sxe_core::{GenStrategy, SxeConfig, Variant};
use sxe_ir::{verify_function, verify_module, Budget, Cfg, Module};
use sxe_jit::Compiler;
use sxe_opt::{GeneralOpts, Pass};
use sxe_vm::{differential_check, OracleConfig};

use crate::inputs::{Inputs, TARGET};
use crate::stats::{self, Metrics};
use crate::trace::{elapsed_ns, Tracer, Unit};

/// The compiler under test: `All`, single-threaded, as `sxed` workers
/// compile.
#[must_use]
pub fn compiler() -> Compiler {
    Compiler::builder(Variant::All)
        .target(TARGET)
        .threads(1)
        .build()
}

/// Tally of operations and what failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or that errored.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `err` marks it failed.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(e);
            }
        }
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for n in o.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// The untraced compile phase, advanced a step at a time: the
/// workload's sources compile one at a time in a seeded order, cycling.
/// Each source's latency is the best of its compiles: the cores are
/// shared, slow spells last seconds, and repeats spread over the whole
/// window. Every compile must print byte-identically to the source's
/// first compile; in [`Phase::finish`], after the clock stops and after
/// `peak_rss_mb` is read (the oracle's heaps are not the compiler's
/// memory), each generated source's first compile is checked against
/// its Baseline compile by [`differential_check`].
#[derive(Debug)]
pub struct Phase<'a> {
    inputs: &'a Inputs,
    compiler: Compiler,
    order: Vec<usize>,
    cursor: usize,
    /// Per source: hash of the first compile's text, best latency (ns).
    first: Vec<Option<(u64, u64)>>,
    /// First compile of each generated source, for the oracle.
    generated_out: Vec<Option<Module>>,
    compiles: u64,
}

impl<'a> Phase<'a> {
    /// A phase over `inputs.compile`.
    #[must_use]
    pub fn new(inputs: &'a Inputs) -> Phase<'a> {
        Phase {
            inputs,
            compiler: compiler(),
            order: shuffled(inputs.compile.len(), inputs.seed),
            cursor: 0,
            first: vec![None; inputs.compile.len()],
            generated_out: vec![None; inputs.compile.len()],
            compiles: 0,
        }
    }

    /// Compile until `deadline` (at least one module).
    pub fn step(&mut self, deadline: Instant, tally: &mut Tally) {
        loop {
            let i = self.order[self.cursor % self.order.len()];
            self.cursor += 1;
            self.compiles += 1;
            let (name, source) = &self.inputs.compile[i];
            let t = Instant::now();
            let out = self.compiler.try_compile(source);
            let ns = elapsed_ns(t);
            let err = match out {
                Err(e) => Some(format!("compile {name}: {e}")),
                Ok(c) => {
                    let hash = fnv1a(&c.module.to_string());
                    match &mut self.first[i] {
                        None => {
                            self.first[i] = Some((hash, ns));
                            if name.starts_with("gen") {
                                self.generated_out[i] = Some(c.module);
                            }
                            None
                        }
                        Some((h, best)) if *h == hash => {
                            *best = (*best).min(ns);
                            None
                        }
                        Some(_) => Some(format!("compile {name}: output differs between compiles")),
                    }
                }
            };
            tally.op(err);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Check the generated sources against their Baseline compiles and
    /// report the phase's end-to-end metrics.
    pub fn finish(&self, tally: &mut Tally) -> Metrics {
        for ((name, source), out) in self.inputs.compile.iter().zip(&self.generated_out) {
            if let Some(out) = out {
                tally.op(oracle(name, source, out));
            }
        }
        let (mut insts, mut best_ns, mut best_ms) = (0u64, 0u64, Vec::new());
        for ((_, source), first) in self.inputs.compile.iter().zip(&self.first) {
            if let Some((_, ns)) = first {
                insts += source.inst_count() as u64;
                best_ns += ns;
                best_ms.push(*ns as f64 / 1e6);
            }
        }
        let n = best_ms.len() as u64;
        let per = format!(
            "best of each module's compiles; {n} modules, {} compiles",
            self.compiles
        );
        let mut m = Metrics::default();
        m.set_noted(
            "compile_kinst_per_s",
            insts as f64 / (best_ns as f64 / 1e9) / 1e3,
            "kinst/s",
            n,
            per.clone(),
        );
        m.set_noted("compile_p50_ms", stats::median(&best_ms), "ms", n, per);
        let (p95, q) = stats::tail(&best_ms, 0.95);
        m.set_noted(
            "compile_p95_ms",
            p95,
            "ms",
            n,
            format!("quantile {q:.4} of {n} modules' best"),
        );
        m
    }
}

/// Check a generated module's compile against its Baseline compile.
fn oracle(name: &str, source: &Module, compiled: &Module) -> Option<String> {
    let base = Compiler::builder(Variant::Baseline).target(TARGET).build();
    match base.try_compile(source) {
        Err(e) => Some(format!("baseline {name}: {e}")),
        Ok(b) => differential_check(&b.module, compiled, TARGET, &OracleConfig::default())
            .err()
            .map(|m| format!("oracle {name}: {m}")),
    }
}

/// FNV-1a of a string: a cheap identity for byte comparisons.
#[must_use]
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A seeded permutation of `0..n`.
#[must_use]
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = sxe_ir::rng::XorShift::new(crate::inputs::mix(seed, 0x5b0f));
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

/// Per-layer sums of one staged compile: times (`*_ns`) and counts.
pub type Layers = BTreeMap<&'static str, u64>;

fn add(l: &mut Layers, key: &'static str, v: u64) {
    *l.entry(key).or_insert(0) += v;
}

fn pass_keys(p: Pass) -> (&'static str, &'static str) {
    match p {
        Pass::Copyprop => ("opt.copyprop_ns", "opt.copyprop.rewrites"),
        Pass::Constfold => ("opt.constfold_ns", "opt.constfold.rewrites"),
        Pass::Simplify => ("opt.simplify_ns", "opt.simplify.rewrites"),
        Pass::Cse => ("opt.cse_ns", "opt.cse.rewrites"),
        Pass::Licm => ("opt.licm_ns", "opt.licm.rewrites"),
        Pass::Dce => ("opt.dce_ns", "opt.dce.rewrites"),
    }
}

/// Every per-layer key [`staged`] fills, so a run reports each one even
/// when it stays zero.
pub const LAYER_KEYS: [&str; 34] = [
    "ir.verify_ns",
    "ir.insts.source",
    "ir.insts.after_convert",
    "ir.insts.after_opt",
    "ir.insts.after_sxe",
    "core.convert_ns",
    "core.insert_ns",
    "core.order_ns",
    "core.eliminate_ns",
    "core.convert.generated",
    "core.insert.dummies",
    "core.insert.inserted",
    "core.examined",
    "core.eliminated",
    "core.eliminated_via_array",
    "analysis.udu_ns",
    "analysis.flowranges_ns",
    "opt.inline_ns",
    "opt.inline.rewrites",
    "opt.compact_ns",
    "opt.copyprop_ns",
    "opt.constfold_ns",
    "opt.simplify_ns",
    "opt.cse_ns",
    "opt.licm_ns",
    "opt.dce_ns",
    "opt.copyprop.rewrites",
    "opt.constfold.rewrites",
    "opt.simplify.rewrites",
    "opt.cse.rewrites",
    "opt.licm.rewrites",
    "opt.dce.rewrites",
    "opt.rounds",
    "jit.clone_ns",
];

/// Time keys that are stages of the compile itself (their sum is the
/// staged compile time; `analysis.flowranges_ns` is an extra analysis
/// the compile does not run).
pub const STAGE_KEYS: [&str; 15] = [
    "ir.verify_ns",
    "core.convert_ns",
    "core.insert_ns",
    "core.order_ns",
    "core.eliminate_ns",
    "analysis.udu_ns",
    "opt.inline_ns",
    "opt.compact_ns",
    "opt.copyprop_ns",
    "opt.constfold_ns",
    "opt.simplify_ns",
    "opt.cse_ns",
    "opt.licm_ns",
    "opt.dce_ns",
    "jit.clone_ns",
];

/// Re-drive `Compiler::compile` (variant `All`, no profile, one thread)
/// stage by stage: conversion, inlining, the step-2 scalar passes to
/// their fixpoint, compaction, then insertion, order and elimination per
/// function, verifying wherever the compiler's harness verifies. Each
/// call is a span of its crate's layer in `unit`. Returns the compiled
/// module; `layers` receives the stage times and counts.
///
/// # Errors
/// A verification failure (the compiler would have rolled the stage
/// back, so the replica no longer matches it).
pub fn staged(source: &Module, unit: &mut Unit, layers: &mut Layers) -> Result<Module, String> {
    let reference = Compiler::for_variant(Variant::All).with_target(TARGET);
    let config: SxeConfig = reference.sxe.clone();
    let general: GeneralOpts = reference.general;
    let target = config.target;
    let verify = |unit: &mut Unit, layers: &mut Layers, m: &Module| {
        let (r, ns) = unit.span("verify_module", "sxe-ir", || verify_module(m));
        add(layers, "ir.verify_ns", ns);
        r.map_err(|e| e.to_string())
    };
    verify(unit, layers, source)?;
    add(layers, "ir.insts.source", source.inst_count() as u64);
    let (mut module, ns) = unit.span("clone", "sxe-jit", || source.clone());
    add(layers, "jit.clone_ns", ns);

    let strategy = if config.variant.gen_use() {
        GenStrategy::BeforeUse
    } else {
        GenStrategy::AfterDef
    };
    let (generated, ns) = unit.span("convert_module", "sxe-core", || {
        sxe_core::convert_module(&mut module, target, strategy)
    });
    add(layers, "core.convert_ns", ns);
    add(layers, "core.convert.generated", generated as u64);
    verify(unit, layers, &module)?;
    add(layers, "ir.insts.after_convert", module.inst_count() as u64);

    if let Some(opts) = general.inline {
        let (n, ns) = unit.span("inline::run_module", "sxe-opt", || {
            sxe_opt::inline::run_module(&mut module, &opts)
        });
        add(layers, "opt.inline_ns", ns);
        add(layers, "opt.inline.rewrites", n as u64);
        verify(unit, layers, &module)?;
    }

    let passes = general.passes();
    for f in &mut module.functions {
        for _ in 0..general.max_iters {
            add(layers, "opt.rounds", 1);
            let mut progress = 0;
            for &p in &passes {
                let (time_key, count_key) = pass_keys(p);
                let (n, ns) = unit.span(p.name(), "sxe-opt", || p.run(f, target));
                add(layers, time_key, ns);
                add(layers, count_key, n as u64);
                progress += n;
                let (r, ns) = unit.span("verify_function", "sxe-ir", || verify_function(f));
                add(layers, "ir.verify_ns", ns);
                r.map_err(|e| e.to_string())?;
            }
            if progress == 0 {
                break;
            }
        }
        let ((), ns) = unit.span("compact", "sxe-ir", || f.compact());
        add(layers, "opt.compact_ns", ns);
    }
    add(layers, "ir.insts.after_opt", module.inst_count() as u64);

    let budget = Budget::unlimited();
    for f in &mut module.functions {
        let vf = |unit: &mut Unit, layers: &mut Layers, f: &sxe_ir::Function| {
            let (r, ns) = unit.span("verify_function", "sxe-ir", || verify_function(f));
            add(layers, "ir.verify_ns", ns);
            r.map_err(|e| e.to_string())
        };
        let (ins, ns) = unit.span("step3_insertion", "sxe-core", || {
            sxe_core::step3_insertion(f, &config)
        });
        add(layers, "core.insert_ns", ns);
        add(layers, "core.insert.dummies", ins.dummies as u64);
        add(layers, "core.insert.inserted", ins.inserted as u64);
        vf(unit, layers, f)?;

        // Not a compile stage: the standalone flow-range analysis on
        // the post-insertion function.
        let (_, ns) = unit.span("FlowRanges::compute", "sxe-analysis", || {
            FlowRanges::compute(f, &Cfg::compute(f))
        });
        add(layers, "analysis.flowranges_ns", ns);

        let (order, ns) = unit.span("step3_order", "sxe-core", || {
            sxe_core::step3_order(f, &config, None)
        });
        add(layers, "core.order_ns", ns);
        vf(unit, layers, f)?;

        let open = unit.open("step3_eliminate", "sxe-core");
        let out = sxe_core::step3_eliminate(f, &config, &order, &budget);
        let udu = u64::try_from(out.chain_creation.as_nanos()).unwrap_or(u64::MAX);
        unit.record("UdDu::compute", "sxe-analysis", udu);
        let ns = unit.close(open);
        add(layers, "core.eliminate_ns", ns.saturating_sub(udu));
        add(layers, "analysis.udu_ns", udu);
        add(layers, "core.examined", out.examined as u64);
        add(layers, "core.eliminated", out.eliminated as u64);
        add(layers, "core.eliminated_via_array", out.via_array as u64);
        vf(unit, layers, f)?;
    }
    verify(unit, layers, &module)?;
    add(layers, "ir.insts.after_sxe", module.inst_count() as u64);
    Ok(module)
}

/// The traced compile layer: round after round until `deadline` (at
/// least one), each source is compiled by `Compiler::compile` (timed,
/// the identity reference), by the traced staged replica, and by the
/// same replica with recording off (for the tracing overhead). The
/// replica's output must be byte-identical to the compiler's on every
/// input. Times are medians over rounds of per-round sums; counts come
/// from the first round.
pub fn layer(
    inputs: &Inputs,
    deadline: Instant,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Metrics {
    let compiler = compiler();
    let quiet = Tracer::new(false);
    let mut rounds: Vec<Layers> = Vec::new();
    let mut counts = Layers::new();
    let (mut traced_wall, mut untraced_wall, mut compile_wall) =
        (Vec::new(), Vec::new(), Vec::new());
    while rounds.is_empty() || Instant::now() < deadline {
        let first = rounds.is_empty();
        let mut round = Layers::new();
        let (mut traced, mut untraced, mut compiled) = (0u64, 0u64, 0u64);
        for (name, source) in &inputs.compile {
            let mut unit = tracer.unit(&format!("module {name}"));
            let (reference, ns) = unit.span("Compiler::compile", "sxe-jit", || {
                compiler.try_compile(source)
            });
            compiled += ns;
            let mut layers = Layers::new();
            let open = unit.open("staged compile", "perfbench");
            let replica = staged(source, &mut unit, &mut layers);
            let wall = unit.close(open);
            traced +=
                wall.saturating_sub(layers.get("analysis.flowranges_ns").copied().unwrap_or(0));
            tracer.finish(unit, first);

            let mut quiet_unit = quiet.unit(name);
            let mut scratch = Layers::new();
            let t = Instant::now();
            let _ = staged(source, &mut quiet_unit, &mut scratch);
            untraced += elapsed_ns(t)
                .saturating_sub(scratch.get("analysis.flowranges_ns").copied().unwrap_or(0));

            if first {
                let err = match (&reference, &replica) {
                    (Err(e), _) => Some(format!("compile {name}: {e}")),
                    (_, Err(e)) => Some(format!("staged {name}: {e}")),
                    (Ok(c), Ok(m)) if c.module.to_string() == m.to_string() => None,
                    (Ok(_), Ok(_)) => Some(format!(
                        "staged {name}: replica output differs from Compiler::compile"
                    )),
                };
                tally.op(err);
            }
            for (k, v) in layers {
                if first && !k.ends_with("_ns") {
                    add(&mut counts, k, v);
                } else if k.ends_with("_ns") {
                    add(&mut round, k, v);
                }
            }
        }
        traced_wall.push(traced as f64);
        untraced_wall.push(untraced as f64);
        compile_wall.push(compiled as f64);
        rounds.push(round);
    }
    let n = rounds.len() as u64;
    let mut m = Metrics::default();
    let median_of = |key: &str| {
        let v: Vec<f64> = rounds
            .iter()
            .map(|r| r.get(key).copied().unwrap_or(0) as f64)
            .collect();
        stats::median(&v)
    };
    for key in LAYER_KEYS {
        if key.ends_with("_ns") {
            m.set(key, median_of(key), "ns", n);
        } else {
            m.set(
                key,
                counts.get(key).copied().unwrap_or(0) as f64,
                "count",
                1,
            );
        }
    }
    let examined = counts.get("core.examined").copied().unwrap_or(0) as f64;
    let eliminated = counts.get("core.eliminated").copied().unwrap_or(0) as f64;
    m.set_noted(
        "core.elim_ratio",
        eliminated / examined.max(1.0),
        "ratio",
        1,
        format!("{eliminated} of {examined}"),
    );
    let compile_ns = stats::median(&compile_wall);
    let staged_ns: f64 = STAGE_KEYS.iter().map(|k| median_of(k)).sum();
    m.set("jit.compile_ns", compile_ns, "ns", n);
    m.set_noted(
        "jit.harness_ns",
        compile_ns - staged_ns,
        "ns",
        n,
        "Compiler::compile wall minus the staged sum (verify included in the sum)".into(),
    );
    let (t, u) = (stats::median(&traced_wall), stats::median(&untraced_wall));
    m.set_noted(
        "trace.overhead_pct",
        100.0 * (t - u) / u.max(1.0),
        "%",
        n,
        "staged compile, traced vs untraced".into(),
    );
    m.set("trace.compile_rounds", n as f64, "count", 1);
    m
}
