//! Function inlining.
//!
//! A standard step-2 optimization: small leaf callees are expanded at
//! their call sites. For the extension analyses this is more than a code
//! size trade — it makes callee index arithmetic visible to the caller's
//! value ranges and facts (a `rec * FIELDS + f` inside a helper becomes
//! analyzable once the call boundary disappears).
//!
//! Semantics: a `call` passes raw 64-bit register values and a `ret`
//! returns one, so inlining lowers to plain copies — argument copies
//! into the (remapped) parameter registers, and a result copy at each
//! return. Only *leaf* callees (no calls of their own) under a size
//! threshold are expanded, which rules out recursion by construction.

use sxe_ir::{BlockId, FuncId, Function, Inst, InstId, Module, Reg, Ty};

/// Inlining policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineOpts {
    /// Maximum callee size (non-tombstone instructions).
    pub max_callee_insts: usize,
    /// Maximum call sites expanded per caller (bounds code growth).
    pub max_sites_per_caller: usize,
}

impl Default for InlineOpts {
    fn default() -> InlineOpts {
        InlineOpts { max_callee_insts: 48, max_sites_per_caller: 24 }
    }
}

/// Expand eligible call sites in every function; returns the number of
/// sites inlined.
pub fn run_module(m: &mut Module, opts: &InlineOpts) -> usize {
    let mut total = 0;
    // Decide eligibility up front on the original bodies (callees are
    // not mutated by inlining into their callers, since only leaves are
    // inlined).
    let eligible: Vec<bool> = m
        .functions
        .iter()
        .map(|g| is_leaf(g) && g.inst_count() <= opts.max_callee_insts)
        .collect();
    for fi in 0..m.functions.len() {
        let mut sites = 0;
        while sites < opts.max_sites_per_caller {
            let Some((site, callee)) = find_site(&m.functions[fi], fi, &eligible) else {
                break;
            };
            let callee_clone = m.functions[callee.index()].clone();
            inline_at(&mut m.functions[fi], &callee_clone, site);
            sites += 1;
            total += 1;
        }
    }
    total
}

fn is_leaf(g: &Function) -> bool {
    !g.insts().any(|(_, i)| matches!(i, Inst::Call { .. }))
}

fn find_site(f: &Function, self_index: usize, eligible: &[bool]) -> Option<(InstId, FuncId)> {
    for (id, inst) in f.insts() {
        if let Inst::Call { func, .. } = inst {
            if func.index() != self_index && eligible[func.index()] {
                return Some((id, *func));
            }
        }
    }
    None
}

/// Expand one call site. The caller block is split at the call; the
/// callee's blocks are appended with registers and targets remapped.
fn inline_at(f: &mut Function, callee: &Function, site: InstId) {
    let (dst, args) = match f.inst(site) {
        Inst::Call { dst, args, .. } => (*dst, args.clone()),
        other => panic!("not a call site at {site}: {other:?}"),
    };
    assert_eq!(args.len(), callee.params.len(), "arity checked by the verifier");

    let reg_base = f.reg_count;
    f.reg_count += callee.reg_count;
    let map_reg = |r: Reg| Reg(reg_base + r.0);
    let block_base = f.blocks.len() as u32;
    let map_block = |b: BlockId| BlockId(block_base + b.0);
    let cont = BlockId(block_base + callee.blocks.len() as u32);

    // Clone and remap the callee body; rewrite returns into copies plus
    // branches to the continuation.
    for cb in &callee.blocks {
        let mut insts = Vec::with_capacity(cb.insts.len() + 1);
        for inst in &cb.insts {
            match inst {
                Inst::Nop => {}
                Inst::Ret { value } => {
                    if let (Some(d), Some(v)) = (dst, value) {
                        let ty = callee.ret.unwrap_or(Ty::I64);
                        insts.push(Inst::Copy { dst: d, src: map_reg(*v), ty });
                    }
                    insts.push(Inst::Br { target: cont });
                }
                other => {
                    let mut cloned = other.clone();
                    cloned.map_regs(map_reg);
                    cloned.map_blocks(map_block);
                    insts.push(cloned);
                }
            }
        }
        f.blocks.push(sxe_ir::Block { insts });
    }

    // Split the caller block: everything after the call moves to `cont`.
    let caller_block = &mut f.blocks[site.block.index()].insts;
    let tail = caller_block.split_off(site.index as usize + 1);
    caller_block.pop(); // the call itself
    for (&arg, &(preg, ty)) in args.iter().zip(&callee.params) {
        caller_block.push(Inst::Copy { dst: map_reg(preg), src: arg, ty });
    }
    caller_block.push(Inst::Br { target: map_block(callee.entry()) });
    f.blocks.push(sxe_ir::Block { insts: tail });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_module, verify_module, Target};

    const CALLER_CALLEE: &str = "\
func @double(i32) -> i32 {
b0:
    r1 = add.i32 r0, r0
    ret r1
}
func @main(i32) -> i32 {
b0:
    r1 = call @double(r0)
    r2 = call @double(r1)
    ret r2
}
";

    fn run_vm(m: &Module, arg: i64) -> Option<i64> {
        let mut vm = sxe_vm::Vm::builder(m).target(Target::Ia64).build();
        vm.run("main", &[arg]).expect("no trap").ret
    }

    #[test]
    fn inlines_leaf_and_preserves_semantics() {
        let mut m = parse_module(CALLER_CALLEE).unwrap();
        let before = run_vm(&m, 5);
        let n = run_module(&mut m, &InlineOpts::default());
        assert_eq!(n, 2);
        verify_module(&m).unwrap();
        let main = m.function(m.function_by_name("main").unwrap());
        assert!(is_leaf(main), "both calls expanded:\n{main}");
        assert_eq!(run_vm(&m, 5), before);
        assert_eq!(before, Some(20));
    }

    #[test]
    fn recursive_function_not_inlined() {
        let mut m = parse_module(
            "func @main(i32) -> i32 {\n\
             b0:\n    r1 = call @main(r0)\n    ret r1\n}\n",
        )
        .unwrap();
        assert_eq!(run_module(&mut m, &InlineOpts::default()), 0);
    }

    #[test]
    fn size_threshold_respected() {
        let mut m = parse_module(CALLER_CALLEE).unwrap();
        let opts = InlineOpts { max_callee_insts: 1, max_sites_per_caller: 24 };
        assert_eq!(run_module(&mut m, &opts), 0);
    }

    #[test]
    fn void_callee_with_side_effects() {
        let mut m = parse_module(
            "func @store(i64, i32, i32) {\n\
             b0:\n    astore.i32 r0, r1, r2\n    ret\n}\n\
             func @main(i32) -> i32 {\n\
             b0:\n    r1 = newarray.i32 r0\n    r2 = const.i32 3\n    r3 = const.i32 42\n    call @store(r1, r2, r3)\n    r4 = aload.i32 r1, r2\n    ret r4\n}\n",
        )
        .unwrap();
        let before = run_vm(&m, 8);
        assert_eq!(run_module(&mut m, &InlineOpts::default()), 1);
        verify_module(&m).unwrap();
        assert_eq!(run_vm(&m, 8), before);
        assert_eq!(before, Some(42));
    }

    #[test]
    fn callee_with_branches_inlines() {
        let mut m = parse_module(
            "func @abs(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 0\n    condbr lt.i32 r0, r1, b1, b2\n\
             b1:\n    r2 = neg.i32 r0\n    ret r2\n\
             b2:\n    ret r0\n}\n\
             func @main(i32) -> i32 {\n\
             b0:\n    r1 = call @abs(r0)\n    ret r1\n}\n",
        )
        .unwrap();
        assert_eq!(run_module(&mut m, &InlineOpts::default()), 1);
        verify_module(&m).unwrap();
        assert_eq!(run_vm(&m, -7), Some(7));
        assert_eq!(run_vm(&m, 9), Some(9));
    }
}
