//! Workload inputs: everything a run feeds the program, drawn from the
//! run's seed and from fixed tables (kernel sizes, the fixed-seed draw
//! of secondary generated programs).

use std::fmt;
use std::str::FromStr;

use sxe_core::Variant;
use sxe_fuzz::gen::{generate_module, GenConfig};
use sxe_ir::rng::XorShift;
use sxe_ir::{parse_module, Module, Target};
use sxe_jit::Compiler;
use sxe_vm::{oracle_args, Engine, OracleConfig, Vm};

/// The target every workload compiles for.
pub const TARGET: Target = Target::Ia64;

/// Fuel for reference runs; no benchmark input comes near it.
pub const FUEL: u64 = 4_000_000_000;

/// Each paper kernel's benchmark size, chosen so that every kernel
/// executes about two million IR instructions after the `All` compile.
/// Sizes are per kernel because run time grows very differently with
/// size from kernel to kernel (LU decomposition is cubic, the sorts are
/// not), so one global scale lets a single kernel dominate.
pub const KERNEL_SIZES: [(&str, u32); 17] = [
    ("numeric sort", 7650),
    ("string sort", 384),
    ("bitfield", 55000),
    ("fp emulation", 17437),
    ("fourier", 1920),
    ("assignment", 217),
    ("IDEA", 10250),
    ("huffman", 50250),
    ("neural net", 1368),
    ("LU decomp.", 79),
    ("mtrt", 392),
    ("jess", 796),
    ("compress", 17750),
    ("db", 3080),
    ("mpegaudio", 5512),
    ("jack", 78000),
    ("javac", 7250),
];

/// The expected-output file, relative to the checkout root.
pub const REFERENCE_PATH: &str = "perfbench/reference/kernels.tsv";

/// The `fuzz-compile` corpus: modules per source-size stratum, by upper
/// bound on instruction count (larger modules are skipped). Every seed
/// draws different modules but the same size mix, so compile figures
/// compare across seeds.
pub const STRATA: [(usize, usize); 7] = [
    (16, 60),
    (32, 70),
    (64, 80),
    (128, 80),
    (256, 70),
    (512, 60),
    (1024, 40),
];
/// Generated programs in the `fuzz-compile` execution phase.
pub const FUZZ_EXEC: usize = 64;
/// Generated programs that are secondary inputs — the `fuzz-compile`
/// execution phase and the generated part of the `serve-mixed` hot set
/// — come from this one fixed seed whatever the run's seed: a per-seed
/// draw of a few dozen small programs moves the metrics they feed by
/// tens of percent from seed to seed.
pub const FIXED_SEED: u64 = 0;
/// Generated modules in the hot set of the serve stream.
pub const HOT_GENERATED: usize = 32;
/// Share of `serve-mixed` requests that repeat a hot-set module
/// (percent); the rest carry a module never sent before.
pub const REPEAT_PCT: u64 = 85;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 17 paper kernels run to completion: execution dominates.
    KernelsExec,
    /// A seeded generated corpus compiled one module at a time.
    FuzzCompile,
    /// A closed-loop request stream against a real `sxed`.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::KernelsExec,
        Workload::FuzzCompile,
        Workload::ServeMixed,
    ];

    /// Time shares of the measured window, `(exec, compile, serve)`.
    /// The workload's own phase takes most of it; the other two phases
    /// run over the same workload's inputs so every run reports every
    /// end-to-end metric. Serve gets a fifth even where it is secondary:
    /// its p99 needs about two thousand requests to settle.
    #[must_use]
    pub fn shares(self) -> (f64, f64, f64) {
        match self {
            Workload::KernelsExec => (0.65, 0.15, 0.20),
            Workload::FuzzCompile => (0.15, 0.65, 0.20),
            Workload::ServeMixed => (0.15, 0.15, 0.70),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::KernelsExec => "kernels-exec",
            Workload::FuzzCompile => "fuzz-compile",
            Workload::ServeMixed => "serve-mixed",
        })
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.to_string() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// What a correct run of an execution item returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Raw return value.
    pub ret: Option<i64>,
    /// Checksum of the final heap.
    pub heap_checksum: u64,
    /// Instructions the Baseline compile executes.
    pub baseline_insts: u64,
}

/// One program of the execution phase, compiled both ways.
#[derive(Debug, Clone)]
pub struct ExecItem {
    /// Kernel or module name.
    pub name: String,
    /// Conversion-only compile: every extension the machine needs.
    pub base: Module,
    /// The paper's full elimination.
    pub all: Module,
    /// Entry function.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<i64>,
    /// Expected observables.
    pub expect: Expect,
}

/// Everything one run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed everything is drawn from.
    pub seed: u64,
    /// Programs of the execution phase.
    pub exec: Vec<ExecItem>,
    /// Sources of the compile phase, with display names.
    pub compile: Vec<(String, Module)>,
    /// Module texts requests repeat; sent once in set-up, so they are
    /// cache hits in the measured window.
    pub hot: Vec<String>,
}

/// Mix a seed and an index into an independent stream seed.
#[must_use]
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generated module `i` of the stream drawn from `seed`. Three in ten
/// use a widened generator so function size spans about an order of
/// magnitude.
#[must_use]
pub fn generated(seed: u64, i: u64) -> Module {
    let config = if i % 10 < 3 {
        GenConfig {
            max_funcs: 4,
            max_stmts: 16,
            max_depth: 2,
        }
    } else {
        GenConfig::default()
    };
    generate_module(mix(seed, i), &config)
}

/// The stratified `fuzz-compile` corpus drawn from `seed`: generated
/// modules fill the [`STRATA`] in draw order; a module whose stratum is
/// full, or that is larger than the last stratum, is skipped.
#[must_use]
pub fn corpus(seed: u64) -> Vec<(u64, Module)> {
    let mut left: Vec<usize> = STRATA.iter().map(|s| s.1).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while left.iter().any(|&n| n > 0) {
        let m = generated(seed, i);
        let size = m.inst_count();
        if let Some(s) = STRATA.iter().position(|&(max, _)| size < max) {
            if left[s] > 0 {
                left[s] -= 1;
                out.push((i, m));
            }
        }
        i += 1;
    }
    out
}

/// A paper kernel by name at `size`.
///
/// # Panics
/// On an unknown kernel name.
#[must_use]
pub fn kernel(name: &str, size: u32) -> Module {
    sxe_workloads::by_name(name)
        .unwrap_or_else(|| panic!("no kernel `{name}`"))
        .build(size)
}

/// Request module `k` of the serve stream. On `serve-mixed` it repeats
/// a hot-set module with probability [`REPEAT_PCT`], and otherwise
/// carries a module no earlier request carried: three in ten a kernel at
/// a new size, the rest default-sized generated modules (widened ones
/// would put a handful of slow compiles in charge of p99). Elsewhere,
/// where serving is the secondary phase, every request repeats the hot
/// set: a p99 over the couple of thousand requests of a secondary phase
/// would be decided by a few store-write fsyncs.
#[must_use]
pub fn request_source(inputs: &Inputs, k: u64) -> String {
    let mut rng = XorShift::new(mix(inputs.seed ^ 0x5e7e, k));
    let repeat_pct = if inputs.workload == Workload::ServeMixed {
        REPEAT_PCT
    } else {
        100
    };
    if rng.chance(repeat_pct, 100) {
        return inputs.hot[rng.index(inputs.hot.len())].clone();
    }
    if k % 10 < 3 {
        let (name, size) = KERNEL_SIZES[(k % 17) as usize];
        kernel(name, size + 1 + (k / 17) as u32).to_string()
    } else {
        generate_module(mix(inputs.seed, (1 << 40) + k), &GenConfig::default()).to_string()
    }
}

/// Compile `source` for execution: `(Baseline, All)`.
///
/// # Errors
/// A compile error's message.
pub fn compile_pair(source: &Module) -> Result<(Module, Module), String> {
    let base = Compiler::builder(Variant::Baseline).target(TARGET).build();
    let all = Compiler::builder(Variant::All).target(TARGET).build();
    let b = base.try_compile(source).map_err(|e| e.to_string())?;
    let a = all.try_compile(source).map_err(|e| e.to_string())?;
    Ok((b.module, a.module))
}

/// The reference observables of `base`: the tree-walking engine on the
/// conversion-only compile, never the compiler under test. `None` when
/// the run traps or exhausts its fuel.
#[must_use]
pub fn tree_reference(base: &Module, entry: &str, args: &[i64], fuel: u64) -> Option<Expect> {
    let mut vm = Vm::builder(base)
        .target(TARGET)
        .engine(Engine::Tree)
        .fuel(fuel)
        .build();
    let out = vm.run(entry, args).ok()?;
    Some(Expect {
        ret: out.ret,
        heap_checksum: out.heap_checksum,
        baseline_insts: vm.counters().insts,
    })
}

/// Parse the committed expected-output file: one
/// `name<TAB>size<TAB>ret<TAB>heap_checksum<TAB>baseline_insts` line per
/// kernel (`ret` is `-` for a void return).
///
/// # Errors
/// A malformed line.
pub fn parse_reference(text: &str) -> Result<Vec<(String, u32, Expect)>, String> {
    let mut out = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad reference line `{line}`");
        if f.len() != 5 {
            return Err(bad());
        }
        let ret = if f[2] == "-" {
            None
        } else {
            Some(f[2].parse().map_err(|_| bad())?)
        };
        out.push((
            f[0].to_string(),
            f[1].parse().map_err(|_| bad())?,
            Expect {
                ret,
                heap_checksum: f[3].parse().map_err(|_| bad())?,
                baseline_insts: f[4].parse().map_err(|_| bad())?,
            },
        ));
    }
    Ok(out)
}

/// Render the expected-output file from tree-engine runs of the
/// Baseline compile of every kernel at its benchmark size.
///
/// # Errors
/// A kernel that fails to compile or run.
pub fn render_reference() -> Result<String, String> {
    let mut s = String::from(
        "# Expected output of every paper kernel at its benchmark size, from the\n\
         # tree-walking engine on the conversion-only (Baseline) compile.\n\
         # Regenerate: python3 perfbench/run.py --write-reference\n\
         # name\tsize\tret\theap_checksum\tbaseline_insts\n",
    );
    for (name, size) in KERNEL_SIZES {
        let (base, _) = compile_pair(&kernel(name, size))?;
        let e = tree_reference(&base, "main", &[], FUEL)
            .ok_or(format!("{name}: reference run failed"))?;
        let ret = e.ret.map_or("-".to_string(), |r| r.to_string());
        s.push_str(&format!(
            "{name}\t{size}\t{ret}\t{}\t{}\n",
            e.heap_checksum, e.baseline_insts
        ));
    }
    Ok(s)
}

/// Draw the inputs of `workload` from `seed`. `reference` is the
/// expected-output file's text (needed by `kernels-exec`).
///
/// # Errors
/// A missing reference entry or an input the program refuses.
pub fn build(workload: Workload, seed: u64, reference: &str) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        workload,
        seed,
        exec: Vec::new(),
        compile: Vec::new(),
        hot: Vec::new(),
    };
    match workload {
        Workload::KernelsExec => {
            let refs = parse_reference(reference)?;
            for (name, size) in KERNEL_SIZES {
                let expect = refs
                    .iter()
                    .find(|(n, s, _)| n == name && *s == size)
                    .map(|r| r.2)
                    .ok_or(format!("no reference for `{name}` at size {size}"))?;
                let source = kernel(name, size);
                inputs.push_exec(name, &source, "main", Vec::new(), Some(expect))?;
                inputs.hot.push(source.to_string());
                inputs.compile.push((name.to_string(), source));
            }
        }
        Workload::FuzzCompile => {
            let mut i = 0;
            while inputs.exec.len() < FUZZ_EXEC {
                let m = generated(FIXED_SEED, i);
                inputs.push_exec(&format!("fixed{i}"), &m, "f0", fuzz_args(&m), None)?;
                i += 1;
            }
            for (n, (i, m)) in corpus(seed).into_iter().enumerate() {
                if n < HOT_GENERATED {
                    inputs.hot.push(m.to_string());
                }
                inputs.compile.push((format!("gen{i}"), m));
            }
        }
        Workload::ServeMixed => {
            for w in sxe_workloads::all() {
                let source = w.build_default();
                inputs.push_exec(w.name, &source, "main", Vec::new(), None)?;
                inputs.hot.push(source.to_string());
                inputs.compile.push((w.name.to_string(), source));
            }
            for i in 0..HOT_GENERATED as u64 {
                let m = generated(FIXED_SEED, i);
                inputs.hot.push(m.to_string());
                inputs.compile.push((format!("gen{i}"), m));
            }
        }
    }
    // The daemon parses what it is sent; compile the same parse here so
    // both sides see one program.
    for (name, m) in &mut inputs.compile {
        *m = parse_module(&m.to_string()).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(inputs)
}

/// The oracle's first argument set for a generated module's entry.
fn fuzz_args(m: &Module) -> Vec<i64> {
    let arity = m
        .function_by_name("f0")
        .map_or(0, |id| m.function(id).params.len());
    oracle_args(&OracleConfig::default(), "f0", arity, 0)
}

impl Inputs {
    /// Compile `source` both ways and add it to the execution phase when
    /// its reference run completes (a trapping generated program is not
    /// an execution benchmark; kernels always come with a reference).
    fn push_exec(
        &mut self,
        name: &str,
        source: &Module,
        entry: &str,
        args: Vec<i64>,
        expect: Option<Expect>,
    ) -> Result<(), String> {
        let (base, all) = compile_pair(source).map_err(|e| format!("{name}: {e}"))?;
        let expect = match expect {
            Some(e) => Some(e),
            None => tree_reference(&base, entry, &args, 50_000_000),
        };
        if let Some(expect) = expect {
            self.exec.push(ExecItem {
                name: name.to_string(),
                base,
                all,
                entry: entry.to_string(),
                args,
                expect,
            });
        }
        Ok(())
    }
}
