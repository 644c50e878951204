//! The interpreter: executes IR modules under the 64-bit machine model.

use sxe_ir::{eval, BlockId, Cond, FuncId, Inst, InstId, Module, Target, TrapKind, Ty, UnOp};

use crate::cost::cost_of;
use crate::counters::Counters;
use crate::error::Trap;
use crate::heap::Heap;

/// Default instruction budget.
pub const DEFAULT_FUEL: u64 = 4_000_000_000;

/// Maximum call depth.
pub const MAX_CALL_DEPTH: usize = 256;

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Raw 64-bit return value (float results are `f64::to_bits`).
    pub ret: Option<i64>,
    /// Checksum of the final heap contents.
    pub heap_checksum: u64,
}

/// A callback invoked at every basic-block entry with the current
/// function, block, and register file — used by analysis-soundness tests
/// and debuggers.
pub type BlockHook = Box<dyn FnMut(FuncId, BlockId, &[i64])>;

/// The virtual machine.
///
/// Registers are 64-bit raw values. The semantics deliberately model the
/// paper's machine: 32-bit operations are performed as full 64-bit
/// operations whose low 32 bits are correct, loads zero-extend on
/// [`Target::Ia64`], bounds checks compare only low 32 bits while
/// effective addresses use the full register. Consequently an *unsound*
/// sign-extension elimination produces observably different results (or a
/// [`TrapKind::WildAddress`]) compared to a reference execution — the
/// foundation of this project's differential testing.
pub struct Machine<'m> {
    module: &'m Module,
    target: Target,
    fuel: u64,
    /// Dynamic counters (public so harnesses can read and reset them).
    pub counters: Counters,
    heap: Heap,
    profile: Option<Vec<Vec<u64>>>,
    block_hook: Option<BlockHook>,
}

impl std::fmt::Debug for Machine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("target", &self.target)
            .field("fuel", &self.fuel)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl<'m> Machine<'m> {
    /// Create a machine for `module` on `target` with [`DEFAULT_FUEL`].
    #[must_use]
    pub fn new(module: &'m Module, target: Target) -> Machine<'m> {
        Machine {
            module,
            target,
            fuel: DEFAULT_FUEL,
            counters: Counters::new(),
            heap: Heap::new(),
            profile: None,
            block_hook: None,
        }
    }

    /// Install a callback invoked at every basic-block entry with the
    /// current register file (before any instruction of the block runs).
    pub fn set_block_hook(&mut self, hook: BlockHook) {
        self.block_hook = Some(hook);
    }

    /// Replace the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Remaining instruction budget.
    #[must_use]
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Turn on block-level profiling (the paper's interpreter-collected
    /// branch statistics).
    pub fn enable_profile(&mut self) {
        self.profile = Some(
            self.module
                .functions
                .iter()
                .map(|f| vec![0; f.blocks.len()])
                .collect(),
        );
    }

    /// Execution counts per block of `func` (requires
    /// [`Machine::enable_profile`] before running).
    #[must_use]
    pub fn profile_counts(&self, func: FuncId) -> Option<&[u64]> {
        self.profile.as_ref().map(|p| p[func.index()].as_slice())
    }

    /// The heap (for checksums and assertions).
    #[must_use]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Discard all run state: fresh heap, zeroed counters and profile
    /// counts (profiling stays enabled if it was), fuel untouched — pair
    /// with [`Machine::set_fuel`] to refill. Installed block hooks are
    /// kept. Lets a harness reuse one machine across independent runs.
    pub fn reset(&mut self) {
        self.heap = Heap::new();
        self.counters = Counters::new();
        if self.profile.is_some() {
            self.enable_profile();
        }
    }

    /// Call `func` with raw argument values.
    ///
    /// Narrow integer arguments should be passed sign-extended (the
    /// calling convention); this entry point canonicalizes them for
    /// convenience.
    ///
    /// # Errors
    /// Returns a [`Trap`] on any machine fault.
    pub fn call(&mut self, func: FuncId, args: &[i64]) -> Result<Outcome, Trap> {
        let f = self.module.function(func);
        assert_eq!(args.len(), f.params.len(), "arity mismatch calling @{}", f.name);
        let canon: Vec<i64> = args
            .iter()
            .zip(&f.params)
            .map(|(&v, &(_, ty))| match ty.width() {
                Some(w) => w.sign_extend(v),
                None => v,
            })
            .collect();
        let ret = self.exec(func, &canon, 0)?;
        Ok(Outcome { ret, heap_checksum: self.heap.checksum() })
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, func: FuncId, args: &[i64], depth: usize) -> Result<Option<i64>, Trap> {
        let f = self.module.function(func);
        let trap =
            |kind: TrapKind, at: InstId| Trap { kind, func, func_name: f.name.clone(), at };
        let entry_at = InstId::new(BlockId(0), 0);
        if depth > MAX_CALL_DEPTH {
            return Err(trap(TrapKind::ResourceExhausted, entry_at));
        }
        let mut regs = vec![0i64; f.reg_count as usize];
        for (&(r, _), &v) in f.params.iter().zip(args) {
            regs[r.index()] = v;
        }

        let mut block = BlockId(0);
        loop {
            if let Some(p) = &mut self.profile {
                p[func.index()][block.index()] += 1;
            }
            if let Some(hook) = &mut self.block_hook {
                hook(func, block, &regs);
            }
            let insts = &f.block(block).insts;
            let mut next: Option<BlockId> = None;
            for (i, inst) in insts.iter().enumerate() {
                if matches!(inst, Inst::Nop) {
                    continue;
                }
                let at = InstId::new(block, i);
                if self.fuel == 0 {
                    return Err(trap(TrapKind::ResourceExhausted, at));
                }
                self.fuel -= 1;
                self.counters.record(inst, cost_of(inst));

                match *inst {
                    Inst::Nop => unreachable!(),
                    Inst::Const { dst, value, .. } => regs[dst.index()] = value,
                    Inst::ConstF { dst, value } => {
                        regs[dst.index()] = value.to_bits() as i64;
                    }
                    Inst::Copy { dst, src, .. } => regs[dst.index()] = regs[src.index()],
                    Inst::Un { op, ty, dst, src } => {
                        let v = regs[src.index()];
                        regs[dst.index()] = match op {
                            UnOp::Neg => match ty {
                                Ty::F64 => (-f64::from_bits(v as u64)).to_bits() as i64,
                                _ => eval::int_neg_on(v, ty, self.target),
                            },
                            UnOp::Not => !v,
                            // Reads the FULL register: garbage upper bits
                            // produce a wrong double — by design.
                            UnOp::I32ToF64 | UnOp::I64ToF64 => (v as f64).to_bits() as i64,
                            UnOp::F64ToI32 => eval::d2i(f64::from_bits(v as u64)),
                            UnOp::F64ToI64 => eval::d2l(f64::from_bits(v as u64)),
                            UnOp::Zext(w) => w.zero_extend(v),
                            UnOp::FNeg => (-f64::from_bits(v as u64)).to_bits() as i64,
                            UnOp::FSqrt => f64::from_bits(v as u64).sqrt().to_bits() as i64,
                            UnOp::FAbs => f64::from_bits(v as u64).abs().to_bits() as i64,
                        };
                    }
                    Inst::Bin { op, ty, dst, lhs, rhs } => {
                        let a = regs[lhs.index()];
                        let b = regs[rhs.index()];
                        regs[dst.index()] = match ty {
                            Ty::F64 => {
                                let (x, y) = (f64::from_bits(a as u64), f64::from_bits(b as u64));
                                match eval::f64_bin(op, x, y) {
                                    Some(r) => r.to_bits() as i64,
                                    // Bitwise float ops are rejected by
                                    // construction; treat as raw int ops on
                                    // the bits for robustness.
                                    None => eval::int_bin(op, a, b, Ty::I64).unwrap_or(0),
                                }
                            }
                            _ => match eval::int_bin_on(op, a, b, ty, self.target) {
                                Some(v) => v,
                                None => return Err(trap(TrapKind::DivisionByZero, at)),
                            },
                        };
                    }
                    Inst::Setcc { cond, ty, dst, lhs, rhs } => {
                        let t = self.eval_cond(cond, ty, regs[lhs.index()], regs[rhs.index()]);
                        regs[dst.index()] = t as i64;
                    }
                    Inst::Extend { dst, src, from } => {
                        regs[dst.index()] = from.sign_extend(regs[src.index()]);
                    }
                    // Semantically a register move; the assertion it
                    // carries is a compiler-internal fact.
                    Inst::JustExtended { dst, src, .. } => {
                        regs[dst.index()] = regs[src.index()];
                    }
                    Inst::NewArray { dst, len, elem } => {
                        // Length check is a 32-bit compare.
                        let l32 = regs[len.index()] as i32;
                        if l32 < 0 {
                            return Err(trap(TrapKind::NegativeArraySize, at));
                        }
                        match self.heap.alloc(elem, l32 as u32) {
                            Some(r) => regs[dst.index()] = r,
                            None => return Err(trap(TrapKind::ResourceExhausted, at)),
                        }
                    }
                    Inst::ArrayLen { dst, array } => {
                        let a = self
                            .heap
                            .get(regs[array.index()])
                            .ok_or_else(|| trap(TrapKind::WildAddress, at))?;
                        regs[dst.index()] = a.len() as i64;
                    }
                    Inst::ArrayLoad { dst, array, index, elem } => {
                        let _ = elem;
                        let idx = self.check_index(regs[array.index()], regs[index.index()])
                            .map_err(|k| trap(k, at))?;
                        let a = self.heap.get(regs[array.index()]).expect("checked");
                        regs[dst.index()] = a.load(idx, self.target);
                    }
                    Inst::ArrayStore { array, index, src, elem } => {
                        let _ = elem;
                        let idx = self.check_index(regs[array.index()], regs[index.index()])
                            .map_err(|k| trap(k, at))?;
                        let v = regs[src.index()];
                        let a = self.heap.get_mut(regs[array.index()]).expect("checked");
                        a.store(idx, v);
                    }
                    Inst::Call { dst, func: callee, ref args, .. } => {
                        let vals: Vec<i64> = args.iter().map(|a| regs[a.index()]).collect();
                        let r = self.exec(callee, &vals, depth + 1)?;
                        if let Some(d) = dst {
                            regs[d.index()] = r.unwrap_or(0);
                        }
                    }
                    Inst::Br { target } => {
                        next = Some(target);
                        break;
                    }
                    Inst::CondBr { cond, ty, lhs, rhs, then_bb, else_bb } => {
                        let t = self.eval_cond(cond, ty, regs[lhs.index()], regs[rhs.index()]);
                        next = Some(if t { then_bb } else { else_bb });
                        break;
                    }
                    Inst::Ret { value } => {
                        return Ok(value.map(|v| regs[v.index()]));
                    }
                }
            }
            block = next.expect("block must end in a terminator");
        }
    }

    /// The §3 machine model's address check; see [`Heap::check_index`].
    fn check_index(&self, aref: i64, raw_index: i64) -> Result<u32, TrapKind> {
        self.heap.check_index(aref, raw_index)
    }

    fn eval_cond(&self, cond: Cond, ty: Ty, a: i64, b: i64) -> bool {
        eval_cond(cond, ty, a, b)
    }
}

/// Condition evaluation under the machine model (shared by both
/// engines): `f64` compares bit-pattern floats, integer widths defer to
/// [`eval::int_cond`].
pub(crate) fn eval_cond(cond: Cond, ty: Ty, a: i64, b: i64) -> bool {
    match ty {
        Ty::F64 => cond.eval_f64(f64::from_bits(a as u64), f64::from_bits(b as u64)),
        _ => eval::int_cond(cond, ty, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_module, Width};

    fn run_named(vm: &mut Machine, m: &Module, name: &str, args: &[i64]) -> Result<Outcome, Trap> {
        vm.call(m.function_by_name(name).expect("function exists"), args)
    }

    fn run_one(src: &str, args: &[i64]) -> Result<Outcome, Trap> {
        let m = parse_module(src).unwrap();
        let mut vm = Machine::new(&m, Target::Ia64);
        vm.call(FuncId(0), args)
    }

    #[test]
    fn add_and_return() {
        let out = run_one(
            "func @f(i32, i32) -> i32 {\nb0:\n    r2 = add.i32 r0, r1\n    r2 = extend.32 r2\n    ret r2\n}\n",
            &[40, 2],
        )
        .unwrap();
        assert_eq!(out.ret, Some(42));
    }

    #[test]
    fn upper_bits_garbage_without_extend() {
        // 0x7fffffff + 1 at width 32: low 32 bits = INT_MIN, full 64-bit
        // register = +2^31 (not sign-extended). i2d sees the raw register.
        let src = "func @f(i32, i32) -> f64 {\nb0:\n    r2 = add.i32 r0, r1\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n";
        let out = run_one(src, &[i32::MAX as i64, 1]).unwrap();
        assert_eq!(f64::from_bits(out.ret.unwrap() as u64), 2147483648.0);
        // With the extension the double is the true i32 value.
        let src2 = "func @f(i32, i32) -> f64 {\nb0:\n    r2 = add.i32 r0, r1\n    r2 = extend.32 r2\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n";
        let out2 = run_one(src2, &[i32::MAX as i64, 1]).unwrap();
        assert_eq!(f64::from_bits(out2.ret.unwrap() as u64), -2147483648.0);
    }

    #[test]
    fn compare32_ignores_upper_bits() {
        // r2 = 2^31 (upper bits not sign-extended); 32-bit compare sees
        // INT_MIN < 0 and takes the then-branch.
        let src = "func @f(i32, i32) -> i32 {\nb0:\n    r2 = add.i32 r0, r1\n    r3 = const.i32 0\n    condbr lt.i32 r2, r3, b1, b2\nb1:\n    r4 = const.i32 1\n    ret r4\nb2:\n    r4 = const.i32 2\n    ret r4\n}\n";
        assert_eq!(run_one(src, &[i32::MAX as i64, 1]).unwrap().ret, Some(1));
        // A 64-bit compare sees +2^31 > 0: else-branch.
        let src64 = src.replace("condbr lt.i32", "condbr lt.i64");
        assert_eq!(run_one(&src64, &[i32::MAX as i64, 1]).unwrap().ret, Some(2));
    }

    #[test]
    fn array_roundtrip_and_bounds() {
        let src = "func @f(i32) -> i32 {\nb0:\n    r1 = newarray.i32 r0\n    r2 = const.i32 3\n    r3 = const.i32 77\n    astore.i32 r1, r2, r3\n    r4 = aload.i32 r1, r2\n    ret r4\n}\n";
        assert_eq!(run_one(src, &[8]).unwrap().ret, Some(77));
        let t = run_one(src, &[2]).unwrap_err();
        assert_eq!(t.kind, TrapKind::IndexOutOfBounds);
    }

    #[test]
    fn negative_index_traps_oob() {
        let src = "func @f(i32) -> i32 {\nb0:\n    r1 = newarray.i32 r0\n    r2 = const.i32 -1\n    r3 = aload.i32 r1, r2\n    ret r3\n}\n";
        let t = run_one(src, &[4]).unwrap_err();
        // -1 as u32 = 0xFFFF_FFFF >= len: ArrayIndexOutOfBounds, exactly
        // the Java guarantee the paper's theorems build on.
        assert_eq!(t.kind, TrapKind::IndexOutOfBounds);
    }

    #[test]
    fn wild_address_on_garbage_index() {
        // Build an index whose low 32 bits pass the bounds check but whose
        // upper bits are garbage: 2^32 + 1 via 64-bit arithmetic.
        let src = "func @f(i32) -> i32 {\n\
            b0:\n    r1 = newarray.i32 r0\n    r2 = const.i64 4294967297\n    r3 = aload.i32 r1, r2\n    ret r3\n}\n";
        let t = run_one(src, &[4]).unwrap_err();
        assert_eq!(t.kind, TrapKind::WildAddress);
    }

    #[test]
    fn division_semantics() {
        let src = "func @f(i32, i32) -> i32 {\nb0:\n    r2 = div.i32 r0, r1\n    r2 = extend.32 r2\n    ret r2\n}\n";
        assert_eq!(run_one(src, &[7, -2]).unwrap().ret, Some(-3));
        assert_eq!(run_one(src, &[7, 0]).unwrap_err().kind, TrapKind::DivisionByZero);
        // INT_MIN / -1: 64-bit divide of sign-extended inputs gives +2^31;
        // the low 32 bits are INT_MIN (Java wrap) and extend.32 restores it.
        assert_eq!(run_one(src, &[i32::MIN as i64, -1]).unwrap().ret, Some(i32::MIN as i64));
    }

    #[test]
    fn shifts() {
        let src = "func @f(i32, i32) -> i64 {\nb0:\n    r2 = shru.i32 r0, r1\n    ret r2\n}\n";
        // shru32 of -1 by 4: extract low 32 (0xFFFFFFFF) >> 4.
        assert_eq!(run_one(src, &[-1, 4]).unwrap().ret, Some(0x0FFF_FFFF));
        let src2 = "func @f(i32, i32) -> i64 {\nb0:\n    r2 = shr.i32 r0, r1\n    ret r2\n}\n";
        assert_eq!(run_one(src2, &[-16, 2]).unwrap().ret, Some(-4));
    }

    #[test]
    fn calls_and_profile() {
        let src = "\
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
        let m = parse_module(src).unwrap();
        let mut vm = Machine::new(&m, Target::Ia64);
        vm.enable_profile();
        let out = run_named(&mut vm, &m, "main", &[5]).unwrap();
        assert_eq!(out.ret, Some(2));
        let main = m.function_by_name("main").unwrap();
        let p = vm.profile_counts(main).unwrap();
        assert_eq!(p[0], 1);
        assert_eq!(p[1], 4); // loop executed 4 times (5->1)
        assert_eq!(p[2], 1);
        // 32-bit extends executed: 4 in the loop + 1 in double.
        assert_eq!(vm.counters.extend_count(Some(Width::W32)), 5);
    }

    #[test]
    fn fuel_exhaustion() {
        let src = "func @f() {\nb0:\n    br b0\n}\n";
        let m = parse_module(src).unwrap();
        let mut vm = Machine::new(&m, Target::Ia64);
        vm.set_fuel(1000);
        assert_eq!(
            run_named(&mut vm, &m, "f", &[]).unwrap_err().kind,
            TrapKind::ResourceExhausted
        );
    }

    #[test]
    fn args_are_canonicalized() {
        // Passing an unextended i32 argument still behaves: the call
        // boundary sign-extends.
        let src = "func @f(i32) -> f64 {\nb0:\n    r1 = i32tof64.f64 r0\n    ret r1\n}\n";
        let out = run_one(src, &[0xFFFF_FFFF]).unwrap(); // -1 unextended
        assert_eq!(f64::from_bits(out.ret.unwrap() as u64), -1.0);
    }

    #[test]
    fn f64_ops() {
        let src = "func @f() -> f64 {\nb0:\n    r0 = constf 2.0\n    r1 = constf 8.0\n    r2 = mul.f64 r0, r1\n    r3 = fsqrt.f64 r2\n    ret r3\n}\n";
        let out = run_one(src, &[]).unwrap();
        assert_eq!(f64::from_bits(out.ret.unwrap() as u64), 4.0);
    }

    #[test]
    fn null_references_fault() {
        // Register zero-initialization means a never-assigned "array"
        // register is the null reference: every access faults with
        // WildAddress rather than touching memory.
        for body in [
            "    r2 = len r1
    ret r2
",
            "    r2 = aload.i32 r1, r0
    ret r2
",
            "    astore.i32 r1, r0, r0
    ret r0
",
        ] {
            let src = format!("func @f(i32) -> i32 {{
b0:
{body}}}
");
            let m = parse_module(&src).unwrap();
            let mut vm = Machine::new(&m, Target::Ia64);
            assert_eq!(
                run_named(&mut vm, &m, "f", &[0]).unwrap_err().kind,
                TrapKind::WildAddress,
                "{body}"
            );
        }
    }

    #[test]
    fn ppc64_loads_sign_extend() {
        let src = "func @f(i32) -> i64 {\n\
            b0:\n    r1 = newarray.i32 r0\n    r2 = const.i32 0\n    r3 = const.i32 -5\n    astore.i32 r1, r2, r3\n    r4 = aload.i32 r1, r2\n    ret r4\n}\n";
        let m = parse_module(src).unwrap();
        let mut ia = Machine::new(&m, Target::Ia64);
        assert_eq!(run_named(&mut ia, &m, "f", &[1]).unwrap().ret, Some(0xFFFF_FFFB)); // zero-extended
        let mut ppc = Machine::new(&m, Target::Ppc64);
        assert_eq!(run_named(&mut ppc, &m, "f", &[1]).unwrap().ret, Some(-5)); // lwa
    }
}
