//! The template code generator: one pass over each function's blocks,
//! emitting x86-64 directly from IR instructions.
//!
//! # Code-generation scheme
//!
//! Every virtual register lives in a stack slot (`[rbp - 16 - 8*r]`);
//! `rax`/`rcx`/`rdx` and `xmm0`/`xmm1` are scratch, and `r12` is pinned
//! to the [`NativeCtx`] for the whole activation. There is no register
//! allocator — the point of this backend is not to be a great compiler
//! but to make eliminated sign extensions *physically disappear*: an
//! [`Inst::Extend`] emits a `movsxd`/`movsx` (bytes the generator
//! attributes to the extension and reports per function), while the
//! [`Inst::JustExtended`] dummy that elimination leaves behind emits
//! **zero bytes** when source and destination coincide.
//!
//! # Accounting segments
//!
//! The VM charges fuel and counters per instruction; doing that natively
//! would erase the speedup. Instead each block is split into *segments*
//! at call boundaries, and each segment entry does three cheap things:
//! bump one 64-bit counter, subtract the segment's instruction count
//! from the fuel, and branch to an exhaustion stub on borrow. Counters
//! are reconstructed exactly afterwards as Σ segment-count × segment
//! histogram; a trap mid-segment subtracts the precomputed suffix of
//! instructions *after* the trapping one (and refunds the same number of
//! fuel units), so every observable except the fuel-exhaustion cutoff
//! itself is bit-identical to the interpreters. Splitting at calls means
//! a trap propagating out of a callee needs *no* caller-side correction:
//! the caller's current segment ends exactly at the call instruction.
//!
//! # Trap ABI
//!
//! Inline checks (division by zero, call depth) and post-helper checks
//! jump to per-site cold stubs after the epilogue. A stub stores the
//! trap code and the index of a [`TrapSite`] into the context, then
//! falls into the shared epilogue; the embedder maps the site back to a
//! function/instruction id and the counter suffix.

use std::cell::Cell;

use sxe_ir::{BinOp, BlockId, Cond, Inst, InstId, Module, Ty, UnOp, Width};

use crate::asm::{cc, Alu, Asm, Gpr, Label};
use crate::buf::CodeBuf;
use crate::ctx::{
    elem_code, Accounting, Helpers, NativeCtx, CTX_DEPTH, CTX_FUEL, CTX_TRAP_KIND, CTX_TRAP_SITE,
};

/// Per-segment (and per-suffix) instruction histogram: the exact
/// quantities the VM's counters accumulate, in flat form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    /// Executed instructions (`Nop`s excluded).
    pub insts: u64,
    /// Cost-model cycles.
    pub cycles: u64,
    /// Explicit sign extensions by width `[w8, w16, w32]`.
    pub extends: [u64; 3],
    /// Executed instructions per mnemonic slot (the VM's `op_index`).
    pub per_op: [u64; 17],
}

impl Hist {
    fn note(&mut self, inst: &Inst, acct: &Accounting) {
        self.insts += 1;
        self.cycles += (acct.cost_of)(inst);
        self.per_op[(acct.op_slot)(inst)] += 1;
        if let Inst::Extend { from, .. } = inst {
            self.extends[width_slot(*from)] += 1;
        }
    }

    /// Add `n` executions of a segment histogram.
    pub fn add_scaled(&mut self, h: &Hist, n: u64) {
        self.insts += h.insts * n;
        self.cycles += h.cycles * n;
        for (a, b) in self.extends.iter_mut().zip(h.extends) {
            *a += b * n;
        }
        for (a, b) in self.per_op.iter_mut().zip(h.per_op) {
            *a += b * n;
        }
    }

    /// Subtract a trap-site suffix (exact by construction).
    pub fn subtract(&mut self, h: &Hist) {
        self.insts -= h.insts;
        self.cycles -= h.cycles;
        for (a, b) in self.extends.iter_mut().zip(h.extends) {
            *a -= b;
        }
        for (a, b) in self.per_op.iter_mut().zip(h.per_op) {
            *a -= b;
        }
    }
}

fn width_slot(w: Width) -> usize {
    match w {
        Width::W8 => 0,
        Width::W16 => 1,
        Width::W32 => 2,
    }
}

/// Where a trap is reported and how to correct the segment-granular
/// counters back to exact per-instruction ones.
#[derive(Debug, Clone)]
pub struct TrapSite {
    /// Function to report (for call-depth traps: the callee, matching
    /// the interpreters).
    pub func: u32,
    /// Instruction to report.
    pub at: InstId,
    /// Histogram of the counted instructions *after* the trapping one in
    /// its segment: subtract from counters, refund `suffix.insts` fuel.
    pub suffix: Hist,
}

/// Compilation limits.
#[derive(Debug, Clone, Copy)]
pub struct CompileOpts {
    /// Functions with more virtual registers than this fall back to the
    /// VM (bounds the native frame so the depth limit bounds the stack).
    pub max_regs: u32,
    /// Call-depth limit; must equal the VM's `MAX_CALL_DEPTH` for
    /// identical `ResourceExhausted` behaviour.
    pub max_call_depth: u64,
}

impl Default for CompileOpts {
    fn default() -> CompileOpts {
        CompileOpts { max_regs: 256, max_call_depth: 256 }
    }
}

/// Per-function compilation result.
#[derive(Debug)]
struct FnInfo {
    /// Code offset of the entry; `None` when the function fell back.
    entry: Option<usize>,
    arity: u32,
    /// Why the function is not natively compiled.
    reason: Option<String>,
    /// Bytes of machine code attributable to `Extend` instructions.
    extend_bytes: usize,
    /// Total machine-code bytes of the function body.
    code_bytes: usize,
}

/// A compiled module: executable code plus the accounting side tables.
#[derive(Debug)]
pub struct NativeModule {
    code: CodeBuf,
    fns: Vec<FnInfo>,
    counts: Box<[Cell<u64>]>,
    hists: Box<[Hist]>,
    sites: Vec<TrapSite>,
    /// Per function, per block: global index of the block's first
    /// segment (whose count equals the block's entry count).
    first_seg: Vec<Vec<u32>>,
}

impl NativeModule {
    /// Whether `func` was natively compiled.
    #[must_use]
    pub fn is_native(&self, func: usize) -> bool {
        self.fns[func].entry.is_some()
    }

    /// Why `func` fell back to the VM, if it did.
    #[must_use]
    pub fn refusal(&self, func: usize) -> Option<&str> {
        self.fns[func].reason.as_deref()
    }

    /// Run a natively compiled function. The caller owns argument
    /// canonicalization and must size `args` to the function's arity.
    ///
    /// # Panics
    /// Panics if `func` is not natively compiled or `args` is short.
    pub fn run(&self, func: usize, args: &[i64], ctx: &mut NativeCtx) -> i64 {
        let info = &self.fns[func];
        let off = info.entry.expect("function is not natively compiled");
        assert!(args.len() >= info.arity as usize, "argument buffer shorter than arity");
        let dummy = [0i64];
        let argp = if args.is_empty() { dummy.as_ptr() } else { args.as_ptr() };
        // SAFETY: `off` is the entry of a complete generated function
        // with this exact signature; the buffer is sealed PROT_EXEC.
        let f: extern "C" fn(*mut NativeCtx, *const i64) -> i64 =
            unsafe { core::mem::transmute(self.code.at(off)) };
        f(core::ptr::from_mut(ctx), argp)
    }

    /// Exact totals for everything executed since the last
    /// [`reset_counts`](NativeModule::reset_counts): Σ count × histogram.
    #[must_use]
    pub fn tally(&self) -> Hist {
        let mut t = Hist::default();
        for (c, h) in self.counts.iter().zip(self.hists.iter()) {
            let n = c.get();
            if n > 0 {
                t.add_scaled(h, n);
            }
        }
        t
    }

    /// Zero all segment counters.
    pub fn reset_counts(&self) {
        for c in self.counts.iter() {
            c.set(0);
        }
    }

    /// Resolve a trap-site index stored in [`NativeCtx::trap_site`].
    #[must_use]
    pub fn site(&self, id: u32) -> &TrapSite {
        &self.sites[id as usize]
    }

    /// Block entry counts for a natively compiled function (the VM's
    /// block profile), `None` otherwise.
    #[must_use]
    pub fn block_counts(&self, func: usize) -> Option<Vec<u64>> {
        self.fns[func].entry?;
        Some(self.first_seg[func].iter().map(|&g| self.counts[g as usize].get()).collect())
    }

    /// Machine-code bytes spent on `Extend` instructions in `func`.
    #[must_use]
    pub fn extend_bytes(&self, func: usize) -> usize {
        self.fns[func].extend_bytes
    }

    /// Total machine-code bytes of `func`'s body (0 when fallen back).
    #[must_use]
    pub fn code_bytes(&self, func: usize) -> usize {
        self.fns[func].code_bytes
    }
}

/// Compile every supported function of `module` into one executable
/// buffer. Unsupported functions are recorded with a reason and left to
/// the embedder's fallback path; `Err` is returned only when the host
/// cannot map executable memory at all.
pub fn compile(
    module: &Module,
    helpers: Helpers,
    acct: Accounting,
    opts: &CompileOpts,
) -> Result<NativeModule, String> {
    let n = module.functions.len();

    // Direct support check, then propagate unsupportedness up the call
    // graph: a function calling a fallback function must itself fall
    // back (a native frame cannot re-enter the interpreter mid-call).
    let mut reason: Vec<Option<String>> = module
        .functions
        .iter()
        .map(|f| {
            if f.reg_count > opts.max_regs {
                return Some(format!(
                    "uses {} virtual registers (native limit {})",
                    f.reg_count, opts.max_regs
                ));
            }
            for b in &f.blocks {
                if b.terminator().is_none() {
                    return Some("has an unfinished block".into());
                }
            }
            for b in &f.blocks {
                for inst in &b.insts {
                    match inst {
                        Inst::Call { func, .. } if func.index() >= n => {
                            return Some(format!("calls out-of-range function {func}"));
                        }
                        // The interpreters return whatever the executed
                        // `ret` carries; generated code returns by
                        // signature, so mismatched shapes fall back.
                        Inst::Ret { value } if value.is_some() != f.ret.is_some() => {
                            return Some(
                                "has a ret whose value shape disagrees with the signature".into(),
                            );
                        }
                        _ => {}
                    }
                }
            }
            None
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if reason[i].is_some() {
                continue;
            }
            for b in &module.functions[i].blocks {
                for inst in &b.insts {
                    if let Inst::Call { func, .. } = inst {
                        if reason[func.index()].is_some() && reason[i].is_none() {
                            reason[i] = Some(format!(
                                "calls @{}, which is not natively compiled",
                                module.functions[func.index()].name
                            ));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pre-allocate the segment-count array so element addresses can be
    // embedded as immediates (the Box allocation never moves).
    let mut first_seg: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut total_segs = 0u32;
    for (i, f) in module.functions.iter().enumerate() {
        if reason[i].is_some() {
            continue;
        }
        for b in &f.blocks {
            first_seg[i].push(total_segs);
            let calls =
                b.insts.iter().filter(|inst| matches!(inst, Inst::Call { .. })).count() as u32;
            total_segs += 1 + calls;
        }
    }
    let counts: Box<[Cell<u64>]> = vec![0u64; total_segs as usize]
        .into_iter()
        .map(Cell::new)
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let counts_base = counts.as_ptr() as usize;

    let mut asm = Asm::new();
    let fn_labels: Vec<Label> = (0..n).map(|_| asm.label()).collect();
    let mut hists: Vec<Hist> = Vec::with_capacity(total_segs as usize);
    let mut sites: Vec<TrapSite> = Vec::new();
    let mut fns: Vec<FnInfo> = Vec::with_capacity(n);

    for (i, f) in module.functions.iter().enumerate() {
        let arity = f.params.len() as u32;
        if let Some(why) = reason[i].take() {
            fns.push(FnInfo {
                entry: None,
                arity,
                reason: Some(why),
                extend_bytes: 0,
                code_bytes: 0,
            });
            continue;
        }
        let start = asm.pos();
        let mut em = FnEmitter {
            asm: &mut asm,
            module,
            func: i,
            fn_labels: &fn_labels,
            hists: &mut hists,
            sites: &mut sites,
            acct: &acct,
            helpers: &helpers,
            opts,
            counts_base,
            seg_base: first_seg[i][0],
            extend_bytes: 0,
        };
        em.emit();
        let extend_bytes = em.extend_bytes;
        fns.push(FnInfo {
            entry: Some(asm.offset_of(fn_labels[i])),
            arity,
            reason: None,
            extend_bytes,
            code_bytes: asm.pos() - start,
        });
    }

    debug_assert_eq!(hists.len(), total_segs as usize);
    let code = CodeBuf::new(&asm.finish())?;
    Ok(NativeModule {
        code,
        fns,
        counts,
        hists: hists.into_boxed_slice(),
        sites,
        first_seg,
    })
}

/// Virtual-register stack slot displacement from rbp.
fn slot(r: u32) -> i32 {
    -16 - 8 * r as i32
}

/// Cold stubs collected during body emission, placed after the epilogue.
enum Stub {
    /// Inline trap: store kind + site, exit.
    Trap { code: u32, site: u32 },
    /// Helper already stored the kind: store site only, exit.
    HelperTrap { site: u32 },
    /// Fuel borrow at a segment entry: kind, site, fuel := 0, exit.
    Exhaust { site: u32 },
}

struct FnEmitter<'a> {
    asm: &'a mut Asm,
    module: &'a Module,
    func: usize,
    fn_labels: &'a [Label],
    hists: &'a mut Vec<Hist>,
    sites: &'a mut Vec<TrapSite>,
    acct: &'a Accounting,
    helpers: &'a Helpers,
    opts: &'a CompileOpts,
    counts_base: usize,
    seg_base: u32,
    extend_bytes: usize,
}

impl FnEmitter<'_> {
    fn emit(&mut self) {
        let f = &self.module.functions[self.func];
        let nregs = f.reg_count;
        let out_max = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Call { args, .. } => Some(args.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0) as u32;
        // Keep rsp ≡ 0 (mod 16) at call sites: after `push rbp; push r12`
        // rsp ≡ 8, so the frame size must be ≡ 8 (mod 16).
        let mut frame = 8 * nregs as i32 + 8 * out_max as i32;
        if frame % 16 != 8 {
            frame += 8;
        }

        let a = &mut *self.asm;
        a.bind(self.fn_labels[self.func]);
        a.push(Gpr::Rbp);
        a.mov_rr(Gpr::Rbp, Gpr::Rsp);
        a.push(Gpr::R12);
        a.mov_rr(Gpr::R12, Gpr::Rdi);
        a.alu_ri(Alu::Sub, true, Gpr::Rsp, frame);
        // Zero the register file — the interpreters start all registers
        // at 0, and fuzzed code may read before writing.
        if nregs > 0 {
            a.lea(Gpr::Rdi, Gpr::Rbp, -8 - 8 * nregs as i32);
            a.mov_r32i(Gpr::Rcx, nregs);
            a.zero(Gpr::Rax);
            a.rep_stosq();
        }
        for (i, (reg, _ty)) in f.params.iter().enumerate() {
            a.mov_load(true, Gpr::Rax, Gpr::Rsi, 8 * i as i32);
            a.mov_store(true, Gpr::Rbp, slot(reg.0), Gpr::Rax);
        }

        let block_labels: Vec<Label> = f.blocks.iter().map(|_| a.label()).collect();
        let epilogue = a.label();
        let mut stubs: Vec<(Label, Stub)> = Vec::new();

        let mut seg = self.seg_base;
        for (bi, block) in f.blocks.iter().enumerate() {
            self.asm.bind(block_labels[bi]);
            // Split the block into accounting segments at call
            // boundaries; the call is the last instruction of its
            // segment, so propagated traps need no caller correction.
            let mut segments: Vec<Vec<usize>> = vec![Vec::new()];
            for (p, inst) in block.insts.iter().enumerate() {
                segments.last_mut().unwrap().push(p);
                if matches!(inst, Inst::Call { .. }) {
                    segments.push(Vec::new());
                }
            }
            if segments.last().is_some_and(Vec::is_empty) {
                // A block cannot end in a call (terminators only), so
                // this only trims the artifact of the split above.
                segments.pop();
            }
            for positions in &segments {
                let mut hist = Hist::default();
                for &p in positions {
                    let inst = &block.insts[p];
                    if !matches!(inst, Inst::Nop) {
                        hist.note(inst, self.acct);
                    }
                }
                self.emit_segment_entry(seg, &hist, bi, positions, block, &mut stubs);
                self.hists.push(hist);
                for (k, &p) in positions.iter().enumerate() {
                    let inst = &block.insts[p];
                    if matches!(inst, Inst::Nop) {
                        continue;
                    }
                    let suffix = |em: &Self| {
                        let mut s = Hist::default();
                        for &q in &positions[k + 1..] {
                            let i2 = &block.insts[q];
                            if !matches!(i2, Inst::Nop) {
                                s.note(i2, em.acct);
                            }
                        }
                        s
                    };
                    self.emit_inst(
                        inst,
                        InstId::new(BlockId(bi as u32), p),
                        suffix,
                        &block_labels,
                        f.blocks.len(),
                        bi,
                        epilogue,
                        &mut stubs,
                    );
                }
                seg += 1;
            }
        }

        let a = &mut *self.asm;
        a.bind(epilogue);
        a.lea(Gpr::Rsp, Gpr::Rbp, -8);
        a.pop(Gpr::R12);
        a.pop(Gpr::Rbp);
        a.ret();

        for (label, stub) in stubs {
            let a = &mut *self.asm;
            a.bind(label);
            match stub {
                Stub::Trap { code, site } => {
                    a.mov_mem_i32(false, Gpr::R12, CTX_TRAP_KIND, code as i32);
                    a.mov_mem_i32(false, Gpr::R12, CTX_TRAP_SITE, site as i32);
                }
                Stub::HelperTrap { site } => {
                    a.mov_mem_i32(false, Gpr::R12, CTX_TRAP_SITE, site as i32);
                }
                Stub::Exhaust { site } => {
                    a.mov_mem_i32(
                        false,
                        Gpr::R12,
                        CTX_TRAP_KIND,
                        crate::ctx::trap_code(sxe_ir::TrapKind::ResourceExhausted) as i32,
                    );
                    a.mov_mem_i32(false, Gpr::R12, CTX_TRAP_SITE, site as i32);
                    a.mov_mem_i32(true, Gpr::R12, CTX_FUEL, 0);
                }
            }
            a.jmp(epilogue);
        }
    }

    /// Segment entry: bump the segment counter, charge fuel in bulk,
    /// exit through the exhaustion stub on borrow.
    fn emit_segment_entry(
        &mut self,
        seg: u32,
        hist: &Hist,
        bi: usize,
        positions: &[usize],
        block: &sxe_ir::Block,
        stubs: &mut Vec<(Label, Stub)>,
    ) {
        let addr = self.counts_base + 8 * seg as usize;
        let site = if hist.insts > 0 {
            let at = positions
                .iter()
                .copied()
                .find(|&p| !matches!(block.insts[p], Inst::Nop))
                .unwrap_or(positions[0]);
            Some(self.new_site(InstId::new(BlockId(bi as u32), at), Hist::default()))
        } else {
            None
        };
        let a = &mut *self.asm;
        a.mov_ri(Gpr::Rax, addr as i64);
        a.inc_mem64(Gpr::Rax, 0);
        if let Some(site) = site {
            let stub = a.label();
            a.alu_mi(Alu::Sub, true, Gpr::R12, CTX_FUEL, hist.insts as i32);
            a.jcc(cc::B, stub);
            stubs.push((stub, Stub::Exhaust { site }));
        }
    }

    fn new_site(&mut self, at: InstId, suffix: Hist) -> u32 {
        self.new_site_in(self.func as u32, at, suffix)
    }

    fn new_site_in(&mut self, func: u32, at: InstId, suffix: Hist) -> u32 {
        self.sites.push(TrapSite { func, at, suffix });
        (self.sites.len() - 1) as u32
    }

    /// Post-helper-call trap check: helpers store the kind; the stub
    /// records the site.
    fn helper_check(
        &mut self,
        at: InstId,
        suffix: Hist,
        stubs: &mut Vec<(Label, Stub)>,
    ) {
        let site = self.new_site(at, suffix);
        let a = &mut *self.asm;
        let stub = a.label();
        a.alu_mi(Alu::Cmp, false, Gpr::R12, CTX_TRAP_KIND, 0);
        a.jcc(cc::NE, stub);
        stubs.push((stub, Stub::HelperTrap { site }));
    }

    fn helper_call(&mut self, target: usize) {
        let a = &mut *self.asm;
        a.mov_ri(Gpr::R10, target as i64);
        a.call_reg(Gpr::R10);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_inst(
        &mut self,
        inst: &Inst,
        at: InstId,
        suffix: impl Fn(&Self) -> Hist,
        block_labels: &[Label],
        nblocks: usize,
        bi: usize,
        epilogue: Label,
        stubs: &mut Vec<(Label, Stub)>,
    ) {
        let next_is = |b: BlockId| b.index() == bi + 1 && b.index() < nblocks;
        match *inst {
            Inst::Nop => {}
            Inst::Const { dst, value, .. } => self.store_imm(dst.0, value),
            Inst::ConstF { dst, value } => self.store_imm(dst.0, value.to_bits() as i64),
            Inst::Copy { dst, src, .. } | Inst::JustExtended { dst, src, .. } => {
                // An eliminated extension's dummy marker compiles to
                // nothing when it names a single register — the paper's
                // deleted `sxt4`, literally zero bytes.
                if dst != src {
                    let a = &mut *self.asm;
                    a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(src.0));
                    a.mov_store(true, Gpr::Rbp, slot(dst.0), Gpr::Rax);
                }
            }
            Inst::Extend { dst, src, from } => {
                let start = self.asm.pos();
                let a = &mut *self.asm;
                match from {
                    Width::W32 => a.movsxd_rm(Gpr::Rax, Gpr::Rbp, slot(src.0)),
                    Width::W16 => a.movsx_rm(16, Gpr::Rax, Gpr::Rbp, slot(src.0)),
                    Width::W8 => a.movsx_rm(8, Gpr::Rax, Gpr::Rbp, slot(src.0)),
                }
                a.mov_store(true, Gpr::Rbp, slot(dst.0), Gpr::Rax);
                self.extend_bytes += self.asm.pos() - start;
            }
            Inst::Un { op, ty, dst, src } => self.emit_un(op, ty, dst.0, src.0),
            Inst::Bin { op, ty, dst, lhs, rhs } => {
                let is_float_arith = ty == Ty::F64
                    && matches!(
                        op,
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
                    );
                if is_float_arith {
                    self.emit_f64_bin(op, dst.0, lhs.0, rhs.0);
                } else {
                    // Integer ops — and the robustness path for bitwise
                    // ops on floats, which the interpreters evaluate as
                    // raw 64-bit integer ops.
                    let eff_ty = if ty == Ty::F64 { Ty::I64 } else { ty };
                    self.emit_int_bin(op, eff_ty, dst.0, lhs.0, rhs.0, at, &suffix, stubs);
                }
            }
            Inst::Setcc { cond, ty, dst, lhs, rhs } => {
                self.emit_cond_to_al(cond, ty, lhs.0, rhs.0);
                let a = &mut *self.asm;
                a.movzx8_rr(Gpr::Rax, Gpr::Rax);
                a.mov_store(true, Gpr::Rbp, slot(dst.0), Gpr::Rax);
            }
            Inst::NewArray { dst, len, elem } => {
                let a = &mut *self.asm;
                a.mov_rr(Gpr::Rdi, Gpr::R12);
                a.mov_load(true, Gpr::Rsi, Gpr::Rbp, slot(len.0));
                a.mov_r32i(Gpr::Rdx, elem_code(elem));
                let target = self.helpers.newarray as usize;
                self.helper_call(target);
                self.helper_check(at, suffix(self), stubs);
                let a = &mut *self.asm;
                a.mov_store(true, Gpr::Rbp, slot(dst.0), Gpr::Rax);
            }
            Inst::ArrayLen { dst, array } => {
                let a = &mut *self.asm;
                a.mov_rr(Gpr::Rdi, Gpr::R12);
                a.mov_load(true, Gpr::Rsi, Gpr::Rbp, slot(array.0));
                let target = self.helpers.arraylen as usize;
                self.helper_call(target);
                self.helper_check(at, suffix(self), stubs);
                let a = &mut *self.asm;
                a.mov_store(true, Gpr::Rbp, slot(dst.0), Gpr::Rax);
            }
            Inst::ArrayLoad { dst, array, index, .. } => {
                let a = &mut *self.asm;
                a.mov_rr(Gpr::Rdi, Gpr::R12);
                a.mov_load(true, Gpr::Rsi, Gpr::Rbp, slot(array.0));
                a.mov_load(true, Gpr::Rdx, Gpr::Rbp, slot(index.0));
                let target = self.helpers.aload as usize;
                self.helper_call(target);
                self.helper_check(at, suffix(self), stubs);
                let a = &mut *self.asm;
                a.mov_store(true, Gpr::Rbp, slot(dst.0), Gpr::Rax);
            }
            Inst::ArrayStore { array, index, src, .. } => {
                let a = &mut *self.asm;
                a.mov_rr(Gpr::Rdi, Gpr::R12);
                a.mov_load(true, Gpr::Rsi, Gpr::Rbp, slot(array.0));
                a.mov_load(true, Gpr::Rdx, Gpr::Rbp, slot(index.0));
                a.mov_load(true, Gpr::Rcx, Gpr::Rbp, slot(src.0));
                let target = self.helpers.astore as usize;
                self.helper_call(target);
                self.helper_check(at, suffix(self), stubs);
            }
            Inst::Call { dst, func, ref args, .. } => {
                // Depth trap: reported at the callee's entry with an
                // empty suffix (the call itself was charged), exactly
                // like the decoded engine.
                let site = self.new_site_in(
                    func.0,
                    InstId::new(BlockId(0), 0),
                    Hist::default(),
                );
                let a = &mut *self.asm;
                let depth_stub = a.label();
                a.alu_mi(Alu::Cmp, true, Gpr::R12, CTX_DEPTH, self.opts.max_call_depth as i32);
                a.jcc(cc::AE, depth_stub);
                stubs.push((
                    depth_stub,
                    Stub::Trap {
                        code: crate::ctx::trap_code(sxe_ir::TrapKind::ResourceExhausted),
                        site,
                    },
                ));
                a.inc_mem64(Gpr::R12, CTX_DEPTH);
                for (k, arg) in args.iter().enumerate() {
                    a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(arg.0));
                    a.mov_store(true, Gpr::Rsp, 8 * k as i32, Gpr::Rax);
                }
                a.mov_rr(Gpr::Rdi, Gpr::R12);
                a.mov_rr(Gpr::Rsi, Gpr::Rsp);
                a.call_label(self.fn_labels[func.index()]);
                a.dec_mem64(Gpr::R12, CTX_DEPTH);
                // Propagate a callee trap without touching the recorded
                // site: our segment ended at this call, so the counters
                // are already exact.
                a.alu_mi(Alu::Cmp, false, Gpr::R12, CTX_TRAP_KIND, 0);
                a.jcc(cc::NE, epilogue);
                if let Some(d) = dst {
                    a.mov_store(true, Gpr::Rbp, slot(d.0), Gpr::Rax);
                }
            }
            Inst::Br { target } => {
                if !next_is(target) {
                    self.asm.jmp(block_labels[target.index()]);
                }
            }
            Inst::CondBr { cond, ty, lhs, rhs, then_bb, else_bb } => {
                if ty == Ty::F64 {
                    self.emit_cond_to_al(cond, ty, lhs.0, rhs.0);
                    let a = &mut *self.asm;
                    a.test8_rr(Gpr::Rax, Gpr::Rax);
                    a.jcc(cc::NE, block_labels[then_bb.index()]);
                } else {
                    let w64 = ty == Ty::I64;
                    let a = &mut *self.asm;
                    a.mov_load(w64, Gpr::Rax, Gpr::Rbp, slot(lhs.0));
                    a.alu_rm(Alu::Cmp, w64, Gpr::Rax, Gpr::Rbp, slot(rhs.0));
                    a.jcc(int_cc(cond), block_labels[then_bb.index()]);
                }
                if !next_is(else_bb) {
                    self.asm.jmp(block_labels[else_bb.index()]);
                }
            }
            Inst::Ret { value } => {
                let a = &mut *self.asm;
                match value {
                    Some(v) => a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(v.0)),
                    None => a.zero(Gpr::Rax),
                }
                a.jmp(epilogue);
            }
        }
    }

    fn store_imm(&mut self, dst: u32, value: i64) {
        let a = &mut *self.asm;
        if i64::from(value as i32) == value {
            a.mov_mem_i32(true, Gpr::Rbp, slot(dst), value as i32);
        } else {
            a.mov_ri(Gpr::Rax, value);
            a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
        }
    }

    fn emit_un(&mut self, op: UnOp, ty: Ty, dst: u32, src: u32) {
        match op {
            UnOp::Neg if ty == Ty::F64 => self.flip_sign(dst, src),
            UnOp::Neg => {
                let a = &mut *self.asm;
                a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(src));
                a.unary_r(3, Gpr::Rax);
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            UnOp::Not => {
                let a = &mut *self.asm;
                a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(src));
                a.unary_r(2, Gpr::Rax);
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            // Both conversions read the full 64-bit register — an
            // unextended 32-bit value converts to a wrong double, by
            // design (paper Figure 2).
            UnOp::I32ToF64 | UnOp::I64ToF64 => {
                let a = &mut *self.asm;
                a.cvtsi2sd_mem(0, Gpr::Rbp, slot(src));
                a.movsd_store(Gpr::Rbp, slot(dst), 0);
            }
            UnOp::F64ToI32 | UnOp::F64ToI64 => {
                let a = &mut *self.asm;
                a.movsd_load(0, Gpr::Rbp, slot(src));
                let target = if op == UnOp::F64ToI32 {
                    self.helpers.d2i as usize
                } else {
                    self.helpers.d2l as usize
                };
                self.helper_call(target);
                let a = &mut *self.asm;
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            UnOp::Zext(w) => {
                let a = &mut *self.asm;
                match w {
                    Width::W8 => a.movzx_rm(8, Gpr::Rax, Gpr::Rbp, slot(src)),
                    Width::W16 => a.movzx_rm(16, Gpr::Rax, Gpr::Rbp, slot(src)),
                    // A 32-bit load zero-extends for free.
                    Width::W32 => a.mov_load(false, Gpr::Rax, Gpr::Rbp, slot(src)),
                }
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            UnOp::FNeg => self.flip_sign(dst, src),
            UnOp::FSqrt => {
                let a = &mut *self.asm;
                a.sse_mem(0x51, 0, Gpr::Rbp, slot(src));
                a.movsd_store(Gpr::Rbp, slot(dst), 0);
            }
            UnOp::FAbs => {
                let a = &mut *self.asm;
                a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(src));
                a.mov_ri(Gpr::Rcx, 0x7FFF_FFFF_FFFF_FFFF);
                a.alu_rr(Alu::And, Gpr::Rax, Gpr::Rcx);
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
        }
    }

    /// IEEE sign-bit flip — negation on the integer view of the bits,
    /// exactly matching the interpreters' `from_bits`-based evaluation.
    fn flip_sign(&mut self, dst: u32, src: u32) {
        let a = &mut *self.asm;
        a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(src));
        a.btc_ri(Gpr::Rax, 63);
        a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
    }

    fn emit_f64_bin(&mut self, op: BinOp, dst: u32, lhs: u32, rhs: u32) {
        let a = &mut *self.asm;
        if op == BinOp::Rem {
            a.movsd_load(0, Gpr::Rbp, slot(lhs));
            a.movsd_load(1, Gpr::Rbp, slot(rhs));
            let target = self.helpers.frem as usize;
            self.helper_call(target);
            let a = &mut *self.asm;
            a.movsd_store(Gpr::Rbp, slot(dst), 0);
            return;
        }
        let opcode = match op {
            BinOp::Add => 0x58,
            BinOp::Sub => 0x5C,
            BinOp::Mul => 0x59,
            BinOp::Div => 0x5E,
            _ => unreachable!("handled by the integer path"),
        };
        a.movsd_load(0, Gpr::Rbp, slot(lhs));
        a.sse_mem(opcode, 0, Gpr::Rbp, slot(rhs));
        a.movsd_store(Gpr::Rbp, slot(dst), 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_int_bin(
        &mut self,
        op: BinOp,
        ty: Ty,
        dst: u32,
        lhs: u32,
        rhs: u32,
        at: InstId,
        suffix: &impl Fn(&Self) -> Hist,
        stubs: &mut Vec<(Label, Stub)>,
    ) {
        let w32 = ty != Ty::I64;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
                // 32-bit ops are performed as full 64-bit ops: the upper
                // bits carry the machine model's deliberate garbage.
                let alu = match op {
                    BinOp::Add => Alu::Add,
                    BinOp::Sub => Alu::Sub,
                    BinOp::And => Alu::And,
                    BinOp::Or => Alu::Or,
                    _ => Alu::Xor,
                };
                let a = &mut *self.asm;
                a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(lhs));
                a.alu_rm(alu, true, Gpr::Rax, Gpr::Rbp, slot(rhs));
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            BinOp::Mul => {
                let a = &mut *self.asm;
                a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(lhs));
                a.imul_rm(Gpr::Rax, Gpr::Rbp, slot(rhs));
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            BinOp::Shl | BinOp::Shr => {
                let a = &mut *self.asm;
                a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(lhs));
                a.mov_load(true, Gpr::Rcx, Gpr::Rbp, slot(rhs));
                if w32 {
                    // 32-bit shifts mask the count to 31 but still act
                    // on the full 64-bit value (IA64 semantics).
                    a.alu_ri(Alu::And, false, Gpr::Rcx, 31);
                }
                a.shift_cl(true, if op == BinOp::Shl { 4 } else { 7 }, Gpr::Rax);
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            BinOp::Shru => {
                let a = &mut *self.asm;
                if w32 {
                    // extr.u: extract the low 32 bits, then shift — a
                    // 32-bit shr does both (and zero-extends).
                    a.mov_load(false, Gpr::Rax, Gpr::Rbp, slot(lhs));
                    a.mov_load(true, Gpr::Rcx, Gpr::Rbp, slot(rhs));
                    a.shift_cl(false, 5, Gpr::Rax);
                } else {
                    a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(lhs));
                    a.mov_load(true, Gpr::Rcx, Gpr::Rbp, slot(rhs));
                    a.shift_cl(true, 5, Gpr::Rax);
                }
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
            }
            BinOp::Div | BinOp::Rem => {
                let site = self.new_site(at, suffix(self));
                let a = &mut *self.asm;
                let zero_stub = a.label();
                let do_div = a.label();
                let done = a.label();
                a.mov_load(true, Gpr::Rax, Gpr::Rbp, slot(lhs));
                a.mov_load(true, Gpr::Rcx, Gpr::Rbp, slot(rhs));
                a.test_rr(Gpr::Rcx, Gpr::Rcx);
                a.jcc(cc::E, zero_stub);
                // Guard the one overflowing case the hardware faults on:
                // i64::MIN / -1 wraps (quotient i64::MIN, remainder 0).
                a.alu_ri(Alu::Cmp, true, Gpr::Rcx, -1);
                a.jcc(cc::NE, do_div);
                a.mov_ri(Gpr::Rdx, i64::MIN);
                a.alu_rr(Alu::Cmp, Gpr::Rax, Gpr::Rdx);
                a.jcc(cc::NE, do_div);
                if op == BinOp::Rem {
                    a.zero(Gpr::Rax);
                }
                a.jmp(done);
                a.bind(do_div);
                a.cqo();
                a.unary_r(7, Gpr::Rcx);
                if op == BinOp::Rem {
                    a.mov_rr(Gpr::Rax, Gpr::Rdx);
                }
                a.bind(done);
                a.mov_store(true, Gpr::Rbp, slot(dst), Gpr::Rax);
                stubs.push((
                    zero_stub,
                    Stub::Trap {
                        code: crate::ctx::trap_code(sxe_ir::TrapKind::DivisionByZero),
                        site,
                    },
                ));
            }
        }
    }

    /// Evaluate a comparison into `al` (int fast path leaves flags and
    /// uses `setcc`; floats go through `ucomisd` with NaN handling).
    fn emit_cond_to_al(&mut self, cond: Cond, ty: Ty, lhs: u32, rhs: u32) {
        let a = &mut *self.asm;
        if ty == Ty::F64 {
            a.movsd_load(0, Gpr::Rbp, slot(lhs));
            a.movsd_load(1, Gpr::Rbp, slot(rhs));
            match cond {
                Cond::Eq => {
                    a.ucomisd_rr(0, 1);
                    a.setcc(cc::E, Gpr::Rax);
                    a.setcc(cc::NP, Gpr::Rcx);
                    a.and8_rr(Gpr::Rax, Gpr::Rcx);
                }
                Cond::Ne => {
                    a.ucomisd_rr(0, 1);
                    a.setcc(cc::NE, Gpr::Rax);
                    a.setcc(cc::P, Gpr::Rcx);
                    a.or8_rr(Gpr::Rax, Gpr::Rcx);
                }
                // Operand-swap trick: a < b ⇔ b > a, and `seta`/`setae`
                // are false on unordered, matching IEEE semantics.
                Cond::Lt | Cond::Ult => {
                    a.ucomisd_rr(1, 0);
                    a.setcc(cc::A, Gpr::Rax);
                }
                Cond::Le | Cond::Ule => {
                    a.ucomisd_rr(1, 0);
                    a.setcc(cc::AE, Gpr::Rax);
                }
                Cond::Gt | Cond::Ugt => {
                    a.ucomisd_rr(0, 1);
                    a.setcc(cc::A, Gpr::Rax);
                }
                Cond::Ge | Cond::Uge => {
                    a.ucomisd_rr(0, 1);
                    a.setcc(cc::AE, Gpr::Rax);
                }
            }
        } else {
            // Narrow compares read only the low 32 bits (cmp4): a 32-bit
            // hardware compare with the signed/unsigned condition is
            // exactly the interpreters' `int_cond`.
            let w64 = ty == Ty::I64;
            a.mov_load(w64, Gpr::Rax, Gpr::Rbp, slot(lhs));
            a.alu_rm(Alu::Cmp, w64, Gpr::Rax, Gpr::Rbp, slot(rhs));
            a.setcc(int_cc(cond), Gpr::Rax);
        }
    }
}

/// x86 condition code for an integer comparison.
fn int_cc(cond: Cond) -> u8 {
    match cond {
        Cond::Eq => cc::E,
        Cond::Ne => cc::NE,
        Cond::Lt => cc::L,
        Cond::Le => cc::LE,
        Cond::Gt => cc::G,
        Cond::Ge => cc::GE,
        Cond::Ult => cc::B,
        Cond::Ule => cc::BE,
        Cond::Ugt => cc::A,
        Cond::Uge => cc::AE,
    }
}
