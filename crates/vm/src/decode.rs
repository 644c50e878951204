//! Pre-decoding: lower a [`Module`] once into dense, cache-friendly op
//! arrays the decoded engine ([`crate::exec`]) dispatches over.
//!
//! The tree-walking reference engine ([`crate::Machine`]) re-interprets
//! the `Inst` tree on every execution: per instruction it skips `nop`
//! tombstones, matches an enum whose variants carry `Reg` wrappers and a
//! `Vec` of call arguments, computes the cost model, and records
//! counters through a `BTreeMap` keyed by mnemonic. Pre-decoding hoists
//! all of that to a one-time pass per module:
//!
//! * every block's live instructions are flattened into one [`Op`]
//!   vector per function (`nop` tombstones are not emitted at all);
//! * register numbers, constants, and call targets become flat `u32`s /
//!   inline `i64`s — no wrapper types, no heap indirection (call
//!   argument registers live in a per-function side pool);
//! * branch targets are resolved from [`BlockId`]s to op-array offsets
//!   (`pc`s) at decode time, so taken branches are a single assignment
//!   (the originating block id rides along for profiling and hooks);
//! * the hot instruction pairs the paper's workloads actually execute
//!   are fused into superinstructions: define+extend ([`Op::BinExt`],
//!   [`Op::SetccExt`]), load+extend ([`Op::LoadExt`]), and the canonical
//!   loop back-edge define+extend+compare-and-branch ([`Op::BinExtBr`]).
//!   (Compare+branch itself is already a fused instruction in this IR:
//!   [`Inst::CondBr`].)
//!
//! Fusion never changes observable behaviour: the executor charges fuel
//! and records counters per fused *component*, in the same order the
//! tree engine would, so outcomes, trap kinds, heap checksums, and
//! dynamic counters stay bit-identical (the invariant the
//! `vm_identity` suite pins). A parallel cold array of [`InstId`]s maps
//! every op back to the source position of its first component for trap
//! reporting.

use sxe_ir::{BinOp, BlockId, Cond, Function, Inst, InstId, Module, Ty, UnOp, Width};

use crate::cost::{bin_cost, un_cost, ALU_COST, BRANCH_COST};

/// Sentinel register index meaning "absent" (no destination / no return
/// value).
pub(crate) const NO_REG: u32 = u32::MAX;

/// One pre-decoded operation. All operands are resolved: register
/// numbers are flat `u32` indices into the frame, branch targets are op
/// offsets, constants are inline.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Const { dst: u32, value: i64 },
    ConstF { dst: u32, bits: i64 },
    Copy { dst: u32, src: u32 },
    Un { op: UnOp, ty: Ty, dst: u32, src: u32 },
    Bin { op: BinOp, ty: Ty, dst: u32, lhs: u32, rhs: u32 },
    Setcc { cond: Cond, ty: Ty, dst: u32, lhs: u32, rhs: u32 },
    Extend { dst: u32, src: u32, from: Width },
    JustExt { dst: u32, src: u32 },
    NewArray { dst: u32, len: u32, elem: Ty },
    ArrayLen { dst: u32, array: u32 },
    Load { dst: u32, array: u32, index: u32 },
    Store { array: u32, index: u32, src: u32 },
    Call { dst: u32, callee: u32, args_at: u32, args_len: u32 },
    Br { pc: u32, block: u32 },
    CondBr {
        cond: Cond,
        ty: Ty,
        lhs: u32,
        rhs: u32,
        then_pc: u32,
        then_block: u32,
        else_pc: u32,
        else_block: u32,
    },
    Ret { src: u32 },
    /// Superinstruction: non-trapping integer `Bin` + `Extend` of its
    /// result. Both destinations are written (the unextended value stays
    /// observable in `dst`).
    BinExt { op: BinOp, ty: Ty, dst: u32, lhs: u32, rhs: u32, ext_dst: u32, from: Width },
    /// Superinstruction: `Setcc` + `Extend` of its result.
    SetccExt { cond: Cond, ty: Ty, dst: u32, lhs: u32, rhs: u32, ext_dst: u32, from: Width },
    /// Superinstruction: `ArrayLoad` + `Extend` of the loaded value.
    LoadExt { dst: u32, array: u32, index: u32, ext_dst: u32, from: Width },
    /// Superinstruction: the canonical loop back-edge — non-trapping
    /// integer `Bin`, `Extend` of its result, then a terminating
    /// `CondBr` that reads the extended value.
    BinExtBr {
        op: BinOp,
        ty: Ty,
        dst: u32,
        lhs: u32,
        rhs: u32,
        ext_dst: u32,
        from: Width,
        cond: Cond,
        cty: Ty,
        clhs: u32,
        crhs: u32,
        then_pc: u32,
        then_block: u32,
        else_pc: u32,
        else_block: u32,
    },
    /// Superinstruction: two adjacent non-trapping register-to-register
    /// micro-ops executed back to back — one dispatch instead of two.
    /// Built by a generic peephole over every block (see [`Simple`]).
    Pair { a: Simple, b: Simple, cost: u16 },
    /// Superinstruction: three adjacent micro-ops, one dispatch.
    Triple { a: Simple, b: Simple, c: Simple, cost: u16 },
    /// Superinstruction: micro-op + unconditional branch. Fusing the
    /// terminator matters disproportionately: the back-edge dispatch is
    /// paid on every loop iteration.
    PairBr { a: Simple, target_pc: u32, block: u32, cost: u16 },
    /// Superinstruction: micro-op + conditional branch (the generic
    /// sibling of [`Op::BinExtBr`], for back-edges that carry no
    /// extend). `cost` on these four variants is the decode-time sum of
    /// the components' cost-model cycles, so the batched charge needs no
    /// per-dispatch cost lookups.
    PairCondBr {
        a: Simple,
        cond: Cond,
        ty: Ty,
        lhs: u32,
        rhs: u32,
        then_pc: u32,
        then_block: u32,
        else_pc: u32,
        else_block: u32,
        cost: u16,
    },
    /// A block whose source form lacked a terminator; executing it is the
    /// same programming error the tree engine panics on.
    NoTerm,
}

/// A non-trapping, single-output micro-op — the unit of generic fusion
/// ([`Op::Pair`] / [`Op::Triple`] / [`Op::PairBr`] / [`Op::PairCondBr`]).
/// Memory ops, calls, branches, and trapping/float `Bin`s stay on the
/// one-op path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Simple {
    Const { dst: u32, value: i64 },
    Copy { dst: u32, src: u32 },
    Un { op: UnOp, ty: Ty, dst: u32, src: u32 },
    Bin { op: BinOp, ty: Ty, dst: u32, lhs: u32, rhs: u32 },
    Setcc { cond: Cond, ty: Ty, dst: u32, lhs: u32, rhs: u32 },
    Extend { dst: u32, src: u32, from: Width },
    JustExt { dst: u32, src: u32 },
}

/// Cost-model cycles of one micro-op, summed at decode time into the
/// fused variants' `cost` fields (so the executor's batched charge needs
/// no per-dispatch cost computation). Fits in `u16` with lots of slack:
/// the largest component cost is a float `div`'s.
#[allow(clippy::cast_possible_truncation)]
fn simple_cost(s: Simple) -> u16 {
    let c = match s {
        Simple::Const { .. }
        | Simple::Copy { .. }
        | Simple::Setcc { .. }
        | Simple::Extend { .. } => ALU_COST,
        Simple::Un { op, .. } => un_cost(op),
        Simple::Bin { op, ty, .. } => bin_cost(op, ty),
        Simple::JustExt { .. } => 0,
    };
    c as u16
}

const BRANCH_COST_U16: u16 = BRANCH_COST as u16;

/// The pairable subset of already-decoded ops.
fn as_simple(op: Op) -> Option<Simple> {
    match op {
        Op::Const { dst, value } => Some(Simple::Const { dst, value }),
        Op::Copy { dst, src } => Some(Simple::Copy { dst, src }),
        Op::Un { op, ty, dst, src } => Some(Simple::Un { op, ty, dst, src }),
        Op::Bin { op, ty, dst, lhs, rhs } if fusable_bin(op, ty) => {
            Some(Simple::Bin { op, ty, dst, lhs, rhs })
        }
        Op::Setcc { cond, ty, dst, lhs, rhs } => Some(Simple::Setcc { cond, ty, dst, lhs, rhs }),
        Op::Extend { dst, src, from } => Some(Simple::Extend { dst, src, from }),
        Op::JustExt { dst, src } => Some(Simple::JustExt { dst, src }),
        _ => None,
    }
}

/// Greedy left-to-right peephole: merge runs of adjacent fusable ops of
/// one block into [`Op::Triple`]s and [`Op::Pair`]s (widest first). Runs
/// before the block is appended to the function's op array, so only
/// intra-block groups form and block-start pcs (the only branch targets)
/// stay valid. `ids` keeps the first component's [`InstId`] per merged
/// op.
fn pair_merge(ops: &mut Vec<Op>, ids: &mut Vec<InstId>) {
    let mut out_ops = Vec::with_capacity(ops.len());
    let mut out_ids = Vec::with_capacity(ids.len());
    let mut i = 0;
    while i < ops.len() {
        match (
            as_simple(ops[i]),
            ops.get(i + 1).copied().and_then(as_simple),
            ops.get(i + 2).copied().and_then(as_simple),
        ) {
            (Some(a), Some(b), Some(c)) => {
                let cost = simple_cost(a) + simple_cost(b) + simple_cost(c);
                out_ops.push(Op::Triple { a, b, c, cost });
                out_ids.push(ids[i]);
                i += 3;
            }
            (Some(a), Some(b), None) => {
                out_ops.push(Op::Pair { a, b, cost: simple_cost(a) + simple_cost(b) });
                out_ids.push(ids[i]);
                i += 2;
            }
            _ => {
                out_ops.push(ops[i]);
                out_ids.push(ids[i]);
                i += 1;
            }
        }
    }
    *ops = out_ops;
    *ids = out_ids;
    term_merge(ops, ids);
}

/// Fuse a block's terminator into the preceding micro-op when that op
/// survived [`pair_merge`] unpaired: `[.., s, br]` becomes
/// `[.., PairBr(s)]` (and likewise for `condbr`).
fn term_merge(ops: &mut Vec<Op>, ids: &mut Vec<InstId>) {
    let n = ops.len();
    if n < 2 {
        return;
    }
    let Some(a) = as_simple(ops[n - 2]) else { return };
    let cost = simple_cost(a) + BRANCH_COST_U16;
    let fused = match ops[n - 1] {
        Op::Br { pc, block } => Op::PairBr { a, target_pc: pc, block, cost },
        Op::CondBr { cond, ty, lhs, rhs, then_pc, then_block, else_pc, else_block } => {
            Op::PairCondBr { a, cond, ty, lhs, rhs, then_pc, then_block, else_pc, else_block, cost }
        }
        _ => return,
    };
    ops.truncate(n - 2);
    let id = ids[n - 2];
    ids.truncate(n - 2);
    ops.push(fused);
    ids.push(id);
}

/// One pre-decoded function.
#[derive(Debug)]
pub(crate) struct DecodedFunc {
    /// Function name, cloned so trap construction needs no module access.
    pub name: String,
    /// Parameter registers with the canonicalization width of their
    /// declared type (`None` for 64-bit / float parameters).
    pub params: Vec<(u32, Option<Width>)>,
    /// Frame size in registers.
    pub reg_count: usize,
    /// The flattened op array.
    pub ops: Vec<Op>,
    /// Cold parallel array: the source [`InstId`] of each op's first
    /// component, for trap locations.
    pub ids: Vec<InstId>,
    /// Pooled call-argument registers ([`Op::Call`] indexes this).
    pub call_args: Vec<u32>,
}

/// A fully pre-decoded module.
#[derive(Debug)]
pub(crate) struct DecodedModule {
    pub funcs: Vec<DecodedFunc>,
}

/// Decode every function of `module`.
pub(crate) fn decode_module(module: &Module) -> DecodedModule {
    DecodedModule { funcs: module.functions.iter().map(decode_function).collect() }
}

/// Index of the next non-`nop` instruction at or after `i`, if any.
fn next_live(insts: &[Inst], i: usize) -> Option<usize> {
    (i..insts.len()).find(|&j| !matches!(insts[j], Inst::Nop))
}

/// Whether `Bin { op, ty }` is fusable with a following extend: it must
/// not be able to trap mid-superinstruction (no `div`/`rem`) and must be
/// an integer op (extending a float bit-pattern is legal IR but stays on
/// the generic path).
fn fusable_bin(op: BinOp, ty: Ty) -> bool {
    !op.may_trap() && ty != Ty::F64
}

#[allow(clippy::too_many_lines)]
fn decode_function(f: &Function) -> DecodedFunc {
    let mut ops: Vec<Op> = Vec::new();
    let mut ids: Vec<InstId> = Vec::new();
    let mut call_args: Vec<u32> = Vec::new();
    let mut block_pc = vec![0u32; f.blocks.len()];

    for (b, block) in f.blocks.iter().enumerate() {
        block_pc[b] = ops.len() as u32;
        let insts = &block.insts;
        let mut terminated = false;
        let mut i = 0;
        while let Some(cur) = next_live(insts, i) {
            let at = InstId::new(BlockId(b as u32), cur);
            // Fusion lookahead. Components must be adjacent modulo `nop`
            // tombstones (which the tree engine skips without observable
            // effect, so consuming them silently is exact).
            let fused = match insts[cur] {
                Inst::Bin { op, ty, dst, lhs, rhs } if fusable_bin(op, ty) => {
                    next_live(insts, cur + 1).and_then(|j| match insts[j] {
                        Inst::Extend { dst: ext_dst, src, from } if src == dst => {
                            // Third component: a terminating CondBr that
                            // reads the extended value.
                            let tail = next_live(insts, j + 1).and_then(|k| match insts[k] {
                                Inst::CondBr { cond, ty: cty, lhs: clhs, rhs: crhs, then_bb, else_bb }
                                    if clhs == ext_dst || crhs == ext_dst =>
                                {
                                    Some((k, cond, cty, clhs, crhs, then_bb, else_bb))
                                }
                                _ => None,
                            });
                            match tail {
                                Some((k, cond, cty, clhs, crhs, then_bb, else_bb)) => Some((
                                    k + 1,
                                    true,
                                    Op::BinExtBr {
                                        op,
                                        ty,
                                        dst: dst.0,
                                        lhs: lhs.0,
                                        rhs: rhs.0,
                                        ext_dst: ext_dst.0,
                                        from,
                                        cond,
                                        cty,
                                        clhs: clhs.0,
                                        crhs: crhs.0,
                                        then_pc: then_bb.0,
                                        then_block: then_bb.0,
                                        else_pc: else_bb.0,
                                        else_block: else_bb.0,
                                    },
                                )),
                                None => Some((
                                    j + 1,
                                    false,
                                    Op::BinExt {
                                        op,
                                        ty,
                                        dst: dst.0,
                                        lhs: lhs.0,
                                        rhs: rhs.0,
                                        ext_dst: ext_dst.0,
                                        from,
                                    },
                                )),
                            }
                        }
                        _ => None,
                    })
                }
                Inst::Setcc { cond, ty, dst, lhs, rhs } => {
                    next_live(insts, cur + 1).and_then(|j| match insts[j] {
                        Inst::Extend { dst: ext_dst, src, from } if src == dst => Some((
                            j + 1,
                            false,
                            Op::SetccExt {
                                cond,
                                ty,
                                dst: dst.0,
                                lhs: lhs.0,
                                rhs: rhs.0,
                                ext_dst: ext_dst.0,
                                from,
                            },
                        )),
                        _ => None,
                    })
                }
                Inst::ArrayLoad { dst, array, index, .. } => {
                    next_live(insts, cur + 1).and_then(|j| match insts[j] {
                        Inst::Extend { dst: ext_dst, src, from } if src == dst => Some((
                            j + 1,
                            false,
                            Op::LoadExt {
                                dst: dst.0,
                                array: array.0,
                                index: index.0,
                                ext_dst: ext_dst.0,
                                from,
                            },
                        )),
                        _ => None,
                    })
                }
                _ => None,
            };
            if let Some((next_i, is_term, op)) = fused {
                ops.push(op);
                ids.push(at);
                i = next_i;
                if is_term {
                    terminated = true;
                    break;
                }
                continue;
            }

            // Plain (unfused) decode of one instruction.
            let op = match insts[cur] {
                Inst::Nop => unreachable!("next_live skips tombstones"),
                Inst::Const { dst, value, .. } => Op::Const { dst: dst.0, value },
                Inst::ConstF { dst, value } => {
                    Op::ConstF { dst: dst.0, bits: value.to_bits() as i64 }
                }
                Inst::Copy { dst, src, .. } => Op::Copy { dst: dst.0, src: src.0 },
                Inst::Un { op, ty, dst, src } => Op::Un { op, ty, dst: dst.0, src: src.0 },
                Inst::Bin { op, ty, dst, lhs, rhs } => {
                    Op::Bin { op, ty, dst: dst.0, lhs: lhs.0, rhs: rhs.0 }
                }
                Inst::Setcc { cond, ty, dst, lhs, rhs } => {
                    Op::Setcc { cond, ty, dst: dst.0, lhs: lhs.0, rhs: rhs.0 }
                }
                Inst::Extend { dst, src, from } => Op::Extend { dst: dst.0, src: src.0, from },
                Inst::JustExtended { dst, src, .. } => Op::JustExt { dst: dst.0, src: src.0 },
                Inst::NewArray { dst, len, elem } => {
                    Op::NewArray { dst: dst.0, len: len.0, elem }
                }
                Inst::ArrayLen { dst, array } => Op::ArrayLen { dst: dst.0, array: array.0 },
                Inst::ArrayLoad { dst, array, index, .. } => {
                    Op::Load { dst: dst.0, array: array.0, index: index.0 }
                }
                Inst::ArrayStore { array, index, src, .. } => {
                    Op::Store { array: array.0, index: index.0, src: src.0 }
                }
                Inst::Call { dst, func, ref args, .. } => {
                    let args_at = call_args.len() as u32;
                    call_args.extend(args.iter().map(|a| a.0));
                    Op::Call {
                        dst: dst.map_or(NO_REG, |d| d.0),
                        callee: func.0,
                        args_at,
                        args_len: args.len() as u32,
                    }
                }
                Inst::Br { target } => Op::Br { pc: target.0, block: target.0 },
                Inst::CondBr { cond, ty, lhs, rhs, then_bb, else_bb } => Op::CondBr {
                    cond,
                    ty,
                    lhs: lhs.0,
                    rhs: rhs.0,
                    then_pc: then_bb.0,
                    then_block: then_bb.0,
                    else_pc: else_bb.0,
                    else_block: else_bb.0,
                },
                Inst::Ret { value } => Op::Ret { src: value.map_or(NO_REG, |v| v.0) },
            };
            let is_term =
                matches!(insts[cur], Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. });
            ops.push(op);
            ids.push(at);
            i = cur + 1;
            if is_term {
                terminated = true;
                break;
            }
        }
        if !terminated {
            ops.push(Op::NoTerm);
            ids.push(InstId::new(BlockId(b as u32), insts.len()));
        }
        // Generic pairing peephole over just-decoded block.
        let mut bops = ops.split_off(block_pc[b] as usize);
        let mut bids = ids.split_off(block_pc[b] as usize);
        pair_merge(&mut bops, &mut bids);
        ops.extend(bops);
        ids.extend(bids);
    }

    // Second pass: branch targets were recorded as block ids; resolve
    // them to op-array offsets now that every block's start pc is known.
    for op in &mut ops {
        match op {
            Op::Br { pc, block } => *pc = block_pc[*block as usize],
            Op::PairBr { target_pc, block, .. } => *target_pc = block_pc[*block as usize],
            Op::CondBr { then_pc, then_block, else_pc, else_block, .. }
            | Op::BinExtBr { then_pc, then_block, else_pc, else_block, .. }
            | Op::PairCondBr { then_pc, then_block, else_pc, else_block, .. } => {
                *then_pc = block_pc[*then_block as usize];
                *else_pc = block_pc[*else_block as usize];
            }
            _ => {}
        }
    }

    DecodedFunc {
        name: f.name.clone(),
        params: f
            .params
            .iter()
            .map(|&(r, ty)| (r.0, ty.width()))
            .collect(),
        reg_count: f.reg_count as usize,
        ops,
        ids,
        call_args,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::parse_module;

    fn decode_first(src: &str) -> DecodedFunc {
        let m = parse_module(src).unwrap();
        decode_module(&m).funcs.into_iter().next().unwrap()
    }

    #[test]
    fn nops_are_not_emitted_and_branches_resolve() {
        let f = decode_first(
            "func @f(i32) -> i32 {\nb0:\n    br b1\nb1:\n    ret r0\n}\n",
        );
        assert_eq!(f.ops.len(), 2);
        assert!(matches!(f.ops[0], Op::Br { pc: 1, block: 1 }));
        assert!(matches!(f.ops[1], Op::Ret { .. }));
    }

    #[test]
    fn bin_extend_condbr_fuses_into_the_backedge_superinstruction() {
        let f = decode_first(
            "func @f(i32) -> i32 {\nb0:\n    r1 = const.i32 1\n    r0 = sub.i32 r0, r1\n    r0 = extend.32 r0\n    condbr gt.i32 r0, r1, b0, b1\nb1:\n    ret r0\n}\n",
        );
        // const, fused sub+extend+condbr, ret
        assert_eq!(f.ops.len(), 3);
        assert!(matches!(f.ops[1], Op::BinExtBr { op: BinOp::Sub, then_pc: 0, .. }));
        // Trap location of the fused op is its first component.
        assert_eq!(f.ids[1], InstId::new(BlockId(0), 1));
    }

    #[test]
    fn load_extend_fuses() {
        let f = decode_first(
            "func @f(i32) -> i32 {\nb0:\n    r1 = newarray.i8 r0\n    r2 = const.i32 0\n    r3 = aload.i8 r1, r2\n    r3 = extend.8 r3\n    ret r3\n}\n",
        );
        assert!(f.ops.iter().any(|o| matches!(o, Op::LoadExt { from: Width::W8, .. })));
        assert!(!f.ops.iter().any(|o| matches!(o, Op::Extend { .. })));
    }

    #[test]
    fn trapping_bins_do_not_fuse() {
        let f = decode_first(
            "func @f(i32, i32) -> i32 {\nb0:\n    r2 = div.i32 r0, r1\n    r2 = extend.32 r2\n    ret r2\n}\n",
        );
        assert!(f.ops.iter().any(|o| matches!(o, Op::Bin { op: BinOp::Div, .. })));
        assert!(f.ops.iter().any(|o| matches!(o, Op::Extend { .. })));
    }

    #[test]
    fn extend_of_other_register_does_not_fuse() {
        // The extend reads r0, not the bin destination r2: no BinExt
        // superinstruction — the two land in a generic Pair instead.
        let f = decode_first(
            "func @f(i32, i32) -> i32 {\nb0:\n    r2 = add.i32 r0, r1\n    r3 = extend.32 r0\n    ret r3\n}\n",
        );
        assert!(!f.ops.iter().any(|o| matches!(o, Op::BinExt { .. })));
        assert!(f.ops.iter().any(|o| matches!(
            o,
            Op::Pair { a: Simple::Bin { .. }, b: Simple::Extend { .. }, .. }
        )));
    }

    #[test]
    fn adjacent_alu_ops_fuse_into_a_triple() {
        // mul, add, copy, ret: a three-wide run before a non-fusable
        // terminator becomes one Triple.
        let f = decode_first(
            "func @f(i32, i32) -> i32 {\nb0:\n    r2 = mul.i32 r0, r1\n    r3 = add.i32 r2, r1\n    r4 = copy.i32 r3\n    ret r4\n}\n",
        );
        assert_eq!(f.ops.len(), 2);
        assert!(matches!(
            f.ops[0],
            Op::Triple {
                a: Simple::Bin { op: BinOp::Mul, .. },
                b: Simple::Bin { op: BinOp::Add, .. },
                c: Simple::Copy { .. },
                ..
            }
        ));
        // Fused trap location is the first component's.
        assert_eq!(f.ids[0], InstId::new(BlockId(0), 0));
    }

    #[test]
    fn terminators_fuse_with_the_preceding_micro_op() {
        // Loop back-edge with no extend in sight: `sub` + `condbr`
        // becomes one PairCondBr; `add` + `br` becomes one PairBr.
        let f = decode_first(
            "func @f(i32) -> i32 {\nb0:\n    r1 = const.i32 1\n    br b1\nb1:\n    r0 = sub.i32 r0, r1\n    condbr gt.i32 r0, r1, b1, b2\nb2:\n    r0 = add.i32 r0, r1\n    br b3\nb3:\n    ret r0\n}\n",
        );
        // Each block collapses to a single fused op.
        assert_eq!(f.ops.len(), 4);
        assert!(matches!(f.ops[0], Op::PairBr { a: Simple::Const { .. }, target_pc: 1, .. }));
        // The back-edge's then_pc points back at b1's own (fused) op.
        assert!(matches!(
            f.ops[1],
            Op::PairCondBr { a: Simple::Bin { op: BinOp::Sub, .. }, then_pc: 1, else_pc: 2, .. }
        ));
        assert!(matches!(
            f.ops[2],
            Op::PairBr { a: Simple::Bin { op: BinOp::Add, .. }, target_pc: 3, .. }
        ));
        assert!(matches!(f.ops[3], Op::Ret { .. }));
    }

    #[test]
    fn trapping_bins_never_pair() {
        let f = decode_first(
            "func @f(i32, i32) -> i32 {\nb0:\n    r2 = div.i32 r0, r1\n    r3 = add.i32 r2, r1\n    ret r3\n}\n",
        );
        assert!(!f.ops.iter().any(|o| matches!(o, Op::Pair { .. })));
    }

    #[test]
    fn call_arguments_are_pooled() {
        let f = decode_first(
            "func @f(i32, i32) -> i32 {\nb0:\n    r2 = call @g(r1, r0)\n    ret r2\n}\nfunc @g(i32, i32) -> i32 {\nb0:\n    ret r0\n}\n",
        );
        assert_eq!(f.call_args, vec![1, 0]);
        assert!(matches!(f.ops[0], Op::Call { args_at: 0, args_len: 2, callee: 1, .. }));
    }

    #[test]
    fn op_stays_compact() {
        // The dispatch loop's working set: one op is at most 56 bytes
        // (the three-component back-edge superinstruction).
        assert!(std::mem::size_of::<Op>() <= 56, "{}", std::mem::size_of::<Op>());
    }
}
