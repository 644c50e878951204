//! The VM execution API: [`VmBuilder`] → [`Vm`], mirroring the compile
//! pipeline's `CompilerBuilder` → `Compiler` surface.
//!
//! A [`Vm`] owns one engine instance over one module:
//!
//! * [`Engine::Decoded`] (the default) pre-decodes the module once into
//!   dense op arrays and executes with the tight dispatch loop of
//!   [`crate::exec`] — the fast path every harness should use;
//! * [`Engine::Tree`] walks the `Inst` tree via the reference
//!   [`Machine`] — the executable specification the decoded engine is
//!   differentially tested against.
//!
//! Both engines are observably identical: outcome, trap kind, heap
//! checksum, dynamic [`Counters`], and block profiles.
//!
//! Errors are typed ([`VmError`], `#[non_exhaustive]`): an unknown entry
//! function or an arity mismatch is a caller error reported as a value,
//! not a panic; machine faults surface as [`VmError::Trap`].

use sxe_ir::{FuncId, Module, Target, TrapKind};

use crate::counters::{Counters, FlatCounters};
use crate::decode::{decode_module, DecodedModule};
use crate::error::Trap;
use crate::exec::{run_decoded, ExecState};
use crate::heap::Heap;
use crate::machine::{BlockHook, Machine, Outcome, DEFAULT_FUEL};

/// Which engine executes the module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Pre-decoded op arrays with a tight dispatch loop and fused
    /// superinstructions (the fast path, and the default).
    #[default]
    Decoded,
    /// The tree-walking reference interpreter ([`Machine`]).
    Tree,
    /// x86-64 native code compiled by `sxe-native`, with per-function
    /// fallback to the decoded engine for anything the code generator
    /// refuses (see [`Vm::native_refusals`]). Observably identical to
    /// the interpreters except that fuel exhaustion is detected at
    /// basic-block granularity.
    Native,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Decoded => "decoded",
            Engine::Tree => "tree",
            Engine::Native => "native",
        })
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "decoded" => Ok(Engine::Decoded),
            "tree" => Ok(Engine::Tree),
            "native" => Ok(Engine::Native),
            other => Err(format!(
                "unknown engine `{other}` (expected `decoded`, `tree`, or `native`)"
            )),
        }
    }
}

/// A typed execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// No function with the requested name exists in the module.
    UnknownFunction {
        /// The name that failed to resolve.
        name: String,
    },
    /// The argument count does not match the function's parameter list.
    ArityMismatch {
        /// Function being called.
        function: String,
        /// Its declared parameter count.
        expected: usize,
        /// Arguments actually supplied.
        got: usize,
    },
    /// The machine trapped while executing.
    Trap(Trap),
}

impl VmError {
    /// The underlying [`Trap`], if this error is a machine fault.
    #[must_use]
    pub fn trap(&self) -> Option<&Trap> {
        match self {
            VmError::Trap(t) => Some(t),
            _ => None,
        }
    }

    /// The [`TrapKind`], if this error is a machine fault.
    #[must_use]
    pub fn trap_kind(&self) -> Option<TrapKind> {
        self.trap().map(|t| t.kind)
    }
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::UnknownFunction { name } => write!(f, "no function named `{name}`"),
            VmError::ArityMismatch { function, expected, got } => write!(
                f,
                "arity mismatch calling @{function}: expected {expected} arguments, got {got}"
            ),
            VmError::Trap(t) => t.fmt(f),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Trap(t) => Some(t),
            _ => None,
        }
    }
}

impl From<Trap> for VmError {
    fn from(t: Trap) -> VmError {
        VmError::Trap(t)
    }
}

/// Builder for a [`Vm`]. Consuming-`self` setters, like
/// `CompilerBuilder`.
///
/// ```
/// use sxe_ir::{parse_module, Target};
/// use sxe_vm::{Engine, Vm};
///
/// let m = parse_module("func @f(i32) -> i32 {\nb0:\n    ret r0\n}\n")?;
/// let mut vm = Vm::builder(&m).target(Target::Ia64).engine(Engine::Tree).fuel(1_000).build();
/// assert_eq!(vm.run("f", &[7])?.ret, Some(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub struct VmBuilder<'m> {
    module: &'m Module,
    target: Target,
    engine: Engine,
    fuel: u64,
    profile: bool,
    hook: Option<BlockHook>,
}

impl std::fmt::Debug for VmBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmBuilder")
            .field("target", &self.target)
            .field("engine", &self.engine)
            .field("fuel", &self.fuel)
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

impl<'m> VmBuilder<'m> {
    /// Select the execution target (load-extension behaviour).
    pub fn target(mut self, target: Target) -> VmBuilder<'m> {
        self.target = target;
        self
    }

    /// Select the engine.
    pub fn engine(mut self, engine: Engine) -> VmBuilder<'m> {
        self.engine = engine;
        self
    }

    /// Set the instruction budget refilled by [`Vm::reset`].
    pub fn fuel(mut self, fuel: u64) -> VmBuilder<'m> {
        self.fuel = fuel;
        self
    }

    /// Collect block-level execution profiles (the paper's
    /// interpreter-collected branch statistics; read back with
    /// [`Vm::profile_counts`]).
    pub fn profile(mut self, on: bool) -> VmBuilder<'m> {
        self.profile = on;
        self
    }

    /// Install a callback invoked at every basic-block entry with the
    /// current register file (before any instruction of the block runs).
    pub fn block_hook(mut self, hook: BlockHook) -> VmBuilder<'m> {
        self.hook = Some(hook);
        self
    }

    /// Build the VM. For [`Engine::Decoded`] this runs the pre-decoding
    /// pass over every function now.
    pub fn build(self) -> Vm<'m> {
        let profile_vecs = || {
            self.module
                .functions
                .iter()
                .map(|f| vec![0u64; f.blocks.len()])
                .collect::<Vec<_>>()
        };
        let inner = match self.engine {
            Engine::Tree => {
                let mut m = Machine::new(self.module, self.target);
                m.set_fuel(self.fuel);
                if self.profile {
                    m.enable_profile();
                }
                if let Some(h) = self.hook {
                    m.set_block_hook(h);
                }
                Inner::Tree(m)
            }
            Engine::Decoded | Engine::Native => {
                let hooked = self.hook.is_some();
                let dec = DecodedState {
                    dm: decode_module(self.module),
                    st: ExecState {
                        heap: Heap::new(),
                        fuel: self.fuel,
                        flat: FlatCounters::default(),
                        profile: self.profile.then(profile_vecs),
                        hook: self.hook,
                        target: self.target,
                    },
                    counters: Counters::new(),
                };
                if self.engine == Engine::Decoded {
                    Inner::Decoded(dec)
                } else {
                    // Block hooks need per-block register snapshots the
                    // generated code does not produce: fall back whole.
                    // MIPS64's canonical-form invariant (every 32-bit ALU
                    // result sign-extended in its register) is not emitted
                    // by the x86-64 backend, which computes the raw
                    // machine-model bits; running it would silently produce
                    // non-canonical values, so refuse and fall back.
                    let (nm, disabled) = if hooked {
                        (
                            None,
                            Some(
                                "a block hook is installed; native execution is disabled"
                                    .to_string(),
                            ),
                        )
                    } else if self.target == Target::Mips64 {
                        (
                            None,
                            Some(
                                "target mips64 requires canonical-form (sign-extended) \
                                 32-bit results the native backend does not emit; \
                                 native execution is disabled"
                                    .to_string(),
                            ),
                        )
                    } else {
                        match sxe_native::compile(
                            self.module,
                            crate::native_engine::helpers(),
                            crate::native_engine::accounting(),
                            &sxe_native::CompileOpts::default(),
                        ) {
                            Ok(nm) => (Some(nm), None),
                            Err(why) => (None, Some(why)),
                        }
                    };
                    Inner::Native(NativeState { dec, nm, disabled })
                }
            }
        };
        Vm { module: self.module, fuel_tank: self.fuel, profile: self.profile, inner }
    }
}

struct DecodedState {
    dm: DecodedModule,
    st: ExecState,
    /// [`ExecState::flat`] folded into ordinary counters after the most
    /// recent run (so [`Vm::counters`] can hand out a reference).
    counters: Counters,
}

impl DecodedState {
    /// The decoded engine's call path, shared verbatim by
    /// [`Engine::Decoded`] and [`Engine::Native`]'s fallback.
    fn call(&mut self, func: FuncId, args: &[i64]) -> Result<Outcome, VmError> {
        let canon = self.canonical_args(func, args);
        let res = run_decoded(&self.dm, &mut self.st, func.index(), &canon);
        // Fold counters even when the run trapped — partial
        // executions count, exactly like the tree engine.
        self.counters = self.st.flat.materialize();
        match res {
            Ok(ret) => Ok(Outcome { ret, heap_checksum: self.st.heap.checksum() }),
            Err(t) => Err(VmError::Trap(t)),
        }
    }

    /// Entry-boundary canonicalization: sign-extend narrow arguments,
    /// the calling convention's invariant.
    fn canonical_args(&self, func: FuncId, args: &[i64]) -> Vec<i64> {
        args.iter()
            .zip(&self.dm.funcs[func.index()].params)
            .map(|(&v, &(_, w))| match w {
                Some(w) => w.sign_extend(v),
                None => v,
            })
            .collect()
    }
}

struct NativeState {
    /// Full decoded engine: the per-function fallback path, and the
    /// owner of all observable state (heap, fuel, counters, profiles)
    /// that native runs fold into.
    dec: DecodedState,
    /// The compiled module; `None` when native execution is disabled
    /// wholesale (unsupported host, or a block hook is installed).
    nm: Option<sxe_native::NativeModule>,
    /// Why `nm` is `None`.
    disabled: Option<String>,
}

impl NativeState {
    /// Run `func` natively. Must only be called when
    /// `nm.is_native(func)`.
    fn call_native(
        &mut self,
        module: &Module,
        func: FuncId,
        args: &[i64],
    ) -> Result<Outcome, VmError> {
        let nm = self.nm.as_ref().expect("caller checked is_native");
        let d = &mut self.dec;
        let canon = d.canonical_args(func, args);
        let mut ctx = sxe_native::NativeCtx {
            trap_kind: sxe_native::TRAP_NONE,
            trap_site: 0,
            fuel: d.st.fuel,
            depth: 0,
            user: std::ptr::from_mut(&mut d.st.heap).cast(),
            target: crate::native_engine::target_code(d.st.target),
            _pad: 0,
        };
        let raw_ret = nm.run(func.index(), &canon, &mut ctx);
        // Reconstruct exact counters: Σ segment-count × histogram, then
        // fold the block-entry counts into the profile and zero the
        // segment array for the next run.
        let mut tally = nm.tally();
        if let Some(p) = d.st.profile.as_mut() {
            for (fi, per_block) in p.iter_mut().enumerate() {
                if let Some(bc) = nm.block_counts(fi) {
                    for (slot, c) in per_block.iter_mut().zip(bc) {
                        *slot += c;
                    }
                }
            }
        }
        nm.reset_counts();
        let mut fuel = ctx.fuel;
        let res = match sxe_native::code_trap(ctx.trap_kind) {
            None => {
                let ret = module.function(func).ret.is_some().then_some(raw_ret);
                Ok(Outcome { ret, heap_checksum: d.st.heap.checksum() })
            }
            Some(kind) => {
                // A trap mid-segment over-charged by the instructions
                // after the faulting one: subtract the site's suffix and
                // refund the same number of fuel units, restoring the
                // interpreters' exact per-instruction accounting.
                let site = nm.site(ctx.trap_site);
                tally.subtract(&site.suffix);
                fuel += site.suffix.insts;
                let func = FuncId(site.func);
                Err(VmError::Trap(Trap {
                    kind,
                    func,
                    func_name: module.function(func).name.clone(),
                    at: site.at,
                }))
            }
        };
        d.st.fuel = fuel;
        d.st.flat.insts += tally.insts;
        d.st.flat.cycles += tally.cycles;
        for (a, b) in d.st.flat.extends.iter_mut().zip(tally.extends) {
            *a += b;
        }
        for (a, b) in d.st.flat.per_op.iter_mut().zip(tally.per_op) {
            *a += b;
        }
        d.counters = d.st.flat.materialize();
        res
    }
}

enum Inner<'m> {
    Tree(Machine<'m>),
    Decoded(DecodedState),
    Native(NativeState),
}

/// A virtual machine over one module; build with [`Vm::builder`].
pub struct Vm<'m> {
    module: &'m Module,
    fuel_tank: u64,
    profile: bool,
    inner: Inner<'m>,
}

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("engine", &self.engine())
            .field("fuel_tank", &self.fuel_tank)
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

impl<'m> Vm<'m> {
    /// Start building a VM over `module` with the default target, the
    /// decoded engine, and [`DEFAULT_FUEL`].
    pub fn builder(module: &'m Module) -> VmBuilder<'m> {
        VmBuilder {
            module,
            target: Target::default(),
            engine: Engine::default(),
            fuel: DEFAULT_FUEL,
            profile: false,
            hook: None,
        }
    }

    /// The engine this VM runs on.
    #[must_use]
    pub fn engine(&self) -> Engine {
        match self.inner {
            Inner::Tree(_) => Engine::Tree,
            Inner::Decoded(_) => Engine::Decoded,
            Inner::Native(_) => Engine::Native,
        }
    }

    /// On [`Engine::Native`]: every function that fell back to the
    /// decoded engine, as `(function name, reason)` pairs. Empty on
    /// fully-native modules and on the other engines.
    #[must_use]
    pub fn native_refusals(&self) -> Vec<(String, String)> {
        let Inner::Native(n) = &self.inner else {
            return Vec::new();
        };
        match (&n.nm, &n.disabled) {
            (Some(nm), _) => self
                .module
                .functions
                .iter()
                .enumerate()
                .filter_map(|(i, f)| nm.refusal(i).map(|r| (f.name.clone(), r.to_string())))
                .collect(),
            (None, Some(why)) => self
                .module
                .functions
                .iter()
                .map(|f| (f.name.clone(), why.clone()))
                .collect(),
            (None, None) => Vec::new(),
        }
    }

    /// On [`Engine::Native`]: per natively-compiled function, the
    /// machine-code size and the bytes of it attributable to `Extend`
    /// instructions — the wall-clock experiment's "eliminated `movsxd`
    /// bytes" metric. `(name, code_bytes, extend_bytes)` tuples; empty
    /// on other engines.
    #[must_use]
    pub fn native_code_stats(&self) -> Vec<(String, usize, usize)> {
        let Inner::Native(n) = &self.inner else {
            return Vec::new();
        };
        let Some(nm) = &n.nm else {
            return Vec::new();
        };
        self.module
            .functions
            .iter()
            .enumerate()
            .filter(|&(i, _)| nm.is_native(i))
            .map(|(i, f)| (f.name.clone(), nm.code_bytes(i), nm.extend_bytes(i)))
            .collect()
    }

    /// Run the function named `name`.
    ///
    /// # Errors
    /// [`VmError::UnknownFunction`] if no function has that name,
    /// [`VmError::ArityMismatch`] on a wrong argument count, or
    /// [`VmError::Trap`] on any machine fault.
    pub fn run(&mut self, name: &str, args: &[i64]) -> Result<Outcome, VmError> {
        let Some(id) = self.module.function_by_name(name) else {
            return Err(VmError::UnknownFunction { name: name.to_string() });
        };
        self.call(id, args)
    }

    /// Call `func` with raw argument values. Narrow integer arguments
    /// are canonicalized (sign-extended) at this entry boundary, the
    /// calling convention's invariant.
    ///
    /// # Errors
    /// [`VmError::ArityMismatch`] or [`VmError::Trap`].
    pub fn call(&mut self, func: FuncId, args: &[i64]) -> Result<Outcome, VmError> {
        let f = self.module.function(func);
        if args.len() != f.params.len() {
            return Err(VmError::ArityMismatch {
                function: f.name.clone(),
                expected: f.params.len(),
                got: args.len(),
            });
        }
        match &mut self.inner {
            Inner::Tree(m) => m.call(func, args).map_err(VmError::from),
            Inner::Decoded(d) => d.call(func, args),
            Inner::Native(n) => {
                if n.nm.as_ref().is_some_and(|nm| nm.is_native(func.index())) {
                    n.call_native(self.module, func, args)
                } else {
                    // Per-entry-function fallback: anything the code
                    // generator refused runs on the decoded engine,
                    // folding into the same observable state.
                    n.dec.call(func, args)
                }
            }
        }
    }

    /// Dynamic counters accumulated over all runs since the last
    /// [`Vm::reset`].
    #[must_use]
    pub fn counters(&self) -> &Counters {
        match &self.inner {
            Inner::Tree(m) => &m.counters,
            Inner::Decoded(d) => &d.counters,
            Inner::Native(n) => &n.dec.counters,
        }
    }

    /// Execution counts per block of `func` (requires
    /// [`VmBuilder::profile`]).
    #[must_use]
    pub fn profile_counts(&self, func: FuncId) -> Option<&[u64]> {
        match &self.inner {
            Inner::Tree(m) => m.profile_counts(func),
            Inner::Decoded(d) | Inner::Native(NativeState { dec: d, .. }) => {
                d.st.profile.as_ref().map(|p| p[func.index()].as_slice())
            }
        }
    }

    /// The heap (for checksums and assertions).
    #[must_use]
    pub fn heap(&self) -> &Heap {
        match &self.inner {
            Inner::Tree(m) => m.heap(),
            Inner::Decoded(d) | Inner::Native(NativeState { dec: d, .. }) => &d.st.heap,
        }
    }

    /// Remaining instruction budget.
    #[must_use]
    pub fn fuel_remaining(&self) -> u64 {
        match &self.inner {
            Inner::Tree(m) => m.fuel(),
            Inner::Decoded(d) | Inner::Native(NativeState { dec: d, .. }) => d.st.fuel,
        }
    }

    /// Discard all run state and refill the fuel tank: fresh heap,
    /// zeroed counters and profiles. The decoded module, profiling mode,
    /// and installed hooks are kept — this is what lets a harness decode
    /// once and execute many independent runs (the oracle's hot path).
    pub fn reset(&mut self) {
        match &mut self.inner {
            Inner::Tree(m) => {
                m.reset();
                m.set_fuel(self.fuel_tank);
            }
            Inner::Decoded(d) | Inner::Native(NativeState { dec: d, .. }) => {
                d.st.heap = Heap::new();
                d.st.fuel = self.fuel_tank;
                d.st.flat.clear();
                d.counters = Counters::new();
                if let Some(p) = d.st.profile.as_mut() {
                    for counts in p {
                        counts.iter_mut().for_each(|c| *c = 0);
                    }
                }
            }
        }
        if let Inner::Native(NativeState { nm: Some(nm), .. }) = &self.inner {
            nm.reset_counts();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_module, Width};

    const LOOPY: &str = "\
func @main(i32) -> i32 {
b0:
    br b1
b1:
    r1 = const.i32 1
    r0 = sub.i32 r0, r1
    r0 = extend.32 r0
    condbr gt.i32 r0, r1, b1, b2
b2:
    r2 = call @double(r0)
    ret r2
}
func @double(i32) -> i32 {
b0:
    r1 = add.i32 r0, r0
    r1 = extend.32 r1
    ret r1
}
";

    #[test]
    fn engines_agree_on_outcome_counters_and_profile() {
        let m = parse_module(LOOPY).unwrap();
        let mut outs = Vec::new();
        for engine in [Engine::Decoded, Engine::Tree, Engine::Native] {
            let mut vm = Vm::builder(&m).engine(engine).profile(true).build();
            if engine == Engine::Native {
                assert_eq!(vm.native_refusals(), Vec::new());
            }
            let out = vm.run("main", &[5]).expect("no trap");
            let main = m.function_by_name("main").unwrap();
            outs.push((
                out,
                vm.counters().clone(),
                vm.profile_counts(main).unwrap().to_vec(),
            ));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
        assert_eq!(outs[0].0.ret, Some(2));
        // The fused back-edge still counts its components: 4 loop
        // extends + 1 in @double.
        assert_eq!(outs[0].1.extend_count(Some(Width::W32)), 5);
        assert_eq!(outs[0].2, vec![1, 4, 1]);
    }

    #[test]
    fn unknown_function_is_a_typed_error() {
        let m = parse_module(LOOPY).unwrap();
        for engine in [Engine::Decoded, Engine::Tree, Engine::Native] {
            let mut vm = Vm::builder(&m).engine(engine).build();
            let err = vm.run("nope", &[]).unwrap_err();
            assert_eq!(err, VmError::UnknownFunction { name: "nope".into() });
            assert!(err.to_string().contains("nope"));
            assert!(err.trap_kind().is_none());
        }
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let m = parse_module(LOOPY).unwrap();
        let mut vm = Vm::builder(&m).target(Target::Ia64).build();
        let err = vm.run("main", &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            VmError::ArityMismatch { function: "main".into(), expected: 1, got: 2 }
        );
    }

    #[test]
    fn fuel_exhaustion_matches_across_engines() {
        let src = "func @f() {\nb0:\n    br b0\n}\n";
        let m = parse_module(src).unwrap();
        for engine in [Engine::Decoded, Engine::Tree] {
            let mut vm = Vm::builder(&m).engine(engine).fuel(1000).build();
            let err = vm.run("f", &[]).unwrap_err();
            assert_eq!(err.trap_kind(), Some(sxe_ir::TrapKind::ResourceExhausted));
            assert_eq!(vm.counters().insts, 1000, "{engine}");
            assert_eq!(vm.fuel_remaining(), 0);
        }
    }

    #[test]
    fn reset_refills_fuel_and_clears_state() {
        let m = parse_module(LOOPY).unwrap();
        let mut vm = Vm::builder(&m).profile(true).fuel(10_000).build();
        vm.run("main", &[5]).unwrap();
        let first = (vm.counters().clone(), vm.fuel_remaining());
        vm.reset();
        assert_eq!(vm.counters().insts, 0);
        assert_eq!(vm.fuel_remaining(), 10_000);
        let main = m.function_by_name("main").unwrap();
        assert!(vm.profile_counts(main).unwrap().iter().all(|&c| c == 0));
        vm.run("main", &[5]).unwrap();
        assert_eq!((vm.counters().clone(), vm.fuel_remaining()), first);
    }

    #[test]
    fn block_hooks_fire_on_the_decoded_engine() {
        let m = parse_module(LOOPY).unwrap();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let log = std::rc::Rc::clone(&seen);
        let mut vm = Vm::builder(&m)
            .block_hook(Box::new(move |f, b, regs| {
                log.borrow_mut().push((f.0, b.0, regs[0]));
            }))
            .build();
        vm.run("main", &[2]).unwrap();
        let seen = seen.borrow();
        // main b0, main b1 (r0 = 2 on entry), main b2, double b0.
        assert_eq!(seen[0], (0, 0, 2));
        assert_eq!(seen[1], (0, 1, 2));
        assert!(seen.iter().any(|&(f, _, _)| f == 1));
    }

    #[test]
    fn narrow_args_are_canonicalized_on_both_engines() {
        let src = "func @f(i32) -> f64 {\nb0:\n    r1 = i32tof64.f64 r0\n    ret r1\n}\n";
        let m = parse_module(src).unwrap();
        for engine in [Engine::Decoded, Engine::Tree, Engine::Native] {
            let mut vm = Vm::builder(&m).engine(engine).build();
            let out = vm.run("f", &[0xFFFF_FFFF]).unwrap(); // -1 unextended
            assert_eq!(f64::from_bits(out.ret.unwrap() as u64), -1.0, "{engine}");
        }
    }

    #[test]
    fn native_fuel_exhaustion_is_block_granular() {
        let src = "func @f() {\nb0:\n    br b0\n}\n";
        let m = parse_module(src).unwrap();
        let mut vm = Vm::builder(&m).engine(Engine::Native).fuel(1000).build();
        assert!(vm.native_refusals().is_empty());
        let err = vm.run("f", &[]).unwrap_err();
        assert_eq!(err.trap_kind(), Some(sxe_ir::TrapKind::ResourceExhausted));
        assert_eq!(vm.fuel_remaining(), 0);
        // The cutoff is per accounting segment, so the counters may
        // overshoot the budget by up to one segment (here: one `br`).
        assert!(vm.counters().insts >= 1000 && vm.counters().insts <= 1001);
    }

    #[test]
    fn native_reset_clears_jit_tallies_too() {
        let m = parse_module(LOOPY).unwrap();
        let mut vm =
            Vm::builder(&m).engine(Engine::Native).profile(true).fuel(10_000).build();
        vm.run("main", &[5]).unwrap();
        let first = (vm.counters().clone(), vm.fuel_remaining());
        vm.reset();
        assert_eq!(vm.counters().insts, 0);
        assert_eq!(vm.fuel_remaining(), 10_000);
        vm.run("main", &[5]).unwrap();
        assert_eq!((vm.counters().clone(), vm.fuel_remaining()), first);
    }

    #[test]
    fn block_hook_disables_native_compilation() {
        let m = parse_module(LOOPY).unwrap();
        let mut vm = Vm::builder(&m)
            .engine(Engine::Native)
            .block_hook(Box::new(|_, _, _| {}))
            .build();
        let refusals = vm.native_refusals();
        assert_eq!(refusals.len(), m.functions.len());
        assert!(refusals[0].1.contains("hook"));
        // Everything still runs correctly on the decoded fallback.
        assert_eq!(vm.run("main", &[5]).unwrap().ret, Some(2));
    }

    #[test]
    fn mips64_refuses_native_compilation_with_typed_reason() {
        let m = parse_module(LOOPY).unwrap();
        let mut vm =
            Vm::builder(&m).engine(Engine::Native).target(Target::Mips64).build();
        let refusals = vm.native_refusals();
        assert_eq!(refusals.len(), m.functions.len());
        assert!(refusals[0].1.contains("mips64"), "{}", refusals[0].1);
        // The decoded fallback runs with full MIPS64 semantics and
        // matches the other engines.
        let want = Vm::builder(&m)
            .engine(Engine::Decoded)
            .target(Target::Mips64)
            .build()
            .run("main", &[5])
            .unwrap();
        assert_eq!(vm.run("main", &[5]).unwrap(), want);
        // The other targets still compile natively.
        for t in [Target::Ia64, Target::Ppc64] {
            let mut vm = Vm::builder(&m).engine(Engine::Native).target(t).build();
            assert!(vm.native_refusals().is_empty(), "{t}");
            assert_eq!(vm.run("main", &[5]).unwrap().ret, Some(2));
        }
    }

    #[test]
    fn native_code_stats_report_extend_bytes() {
        let m = parse_module(LOOPY).unwrap();
        let vm = Vm::builder(&m).engine(Engine::Native).build();
        let stats = vm.native_code_stats();
        assert_eq!(stats.len(), 2);
        let main = stats.iter().find(|s| s.0 == "main").unwrap();
        assert!(main.1 > 0, "code bytes");
        assert!(main.2 > 0, "LOOPY's @main keeps an extend, so bytes > 0");
        assert!(main.2 < main.1);
    }

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("decoded".parse::<Engine>(), Ok(Engine::Decoded));
        assert_eq!("tree".parse::<Engine>(), Ok(Engine::Tree));
        assert_eq!("native".parse::<Engine>(), Ok(Engine::Native));
        assert!("fast".parse::<Engine>().is_err());
        assert_eq!(Engine::Decoded.to_string(), "decoded");
        assert_eq!(Engine::Native.to_string(), "native");
        assert_eq!(Engine::default(), Engine::Decoded);
    }
}
