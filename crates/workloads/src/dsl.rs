//! Builder helpers shared by the workload kernels.
//!
//! Every kernel is written in "32-bit architecture form": plain `i32`
//! arithmetic with no explicit sign extensions — exactly what a Java
//! front end would produce — and the `sxe-jit` pipeline later widens it
//! for the 64-bit machine.

use sxe_ir::{BinOp, Cond, FunctionBuilder, Reg, Ty};

/// Emit an `i32` constant.
pub fn c32(fb: &mut FunctionBuilder, v: i64) -> Reg {
    fb.iconst(Ty::I32, v)
}

/// Emit `a + b` at `i32`.
pub fn add(fb: &mut FunctionBuilder, a: Reg, b: Reg) -> Reg {
    fb.bin(BinOp::Add, Ty::I32, a, b)
}

/// Emit `a - b` at `i32`.
pub fn sub(fb: &mut FunctionBuilder, a: Reg, b: Reg) -> Reg {
    fb.bin(BinOp::Sub, Ty::I32, a, b)
}

/// Emit `a * b` at `i32`.
pub fn mul(fb: &mut FunctionBuilder, a: Reg, b: Reg) -> Reg {
    fb.bin(BinOp::Mul, Ty::I32, a, b)
}

/// Emit `a & b` at `i32`.
pub fn and(fb: &mut FunctionBuilder, a: Reg, b: Reg) -> Reg {
    fb.bin(BinOp::And, Ty::I32, a, b)
}

/// Emit `a & mask` for a constant mask.
pub fn and_c(fb: &mut FunctionBuilder, a: Reg, mask: i64) -> Reg {
    let m = c32(fb, mask);
    and(fb, a, m)
}

/// Emit `a + c` for a constant.
pub fn add_c(fb: &mut FunctionBuilder, a: Reg, c: i64) -> Reg {
    let k = c32(fb, c);
    add(fb, a, k)
}

/// Emit `a * c` for a constant.
pub fn mul_c(fb: &mut FunctionBuilder, a: Reg, c: i64) -> Reg {
    let k = c32(fb, c);
    mul(fb, a, k)
}

/// Emit `a << c` at `i32` for a constant amount.
pub fn shl_c(fb: &mut FunctionBuilder, a: Reg, c: i64) -> Reg {
    let k = c32(fb, c);
    fb.bin(BinOp::Shl, Ty::I32, a, k)
}

/// Emit the arithmetic shift `a >> c` at `i32` for a constant amount.
pub fn shr_c(fb: &mut FunctionBuilder, a: Reg, c: i64) -> Reg {
    let k = c32(fb, c);
    fb.bin(BinOp::Shr, Ty::I32, a, k)
}

/// Emit the logical shift `a >>> c` at `i32` for a constant amount.
pub fn shru_c(fb: &mut FunctionBuilder, a: Reg, c: i64) -> Reg {
    let k = c32(fb, c);
    fb.bin(BinOp::Shru, Ty::I32, a, k)
}

/// Build `for (i = start; i < end; i += 1) body(i)`.
///
/// The body closure must leave the builder positioned in an unterminated
/// block (it may create inner control flow). The induction variable is a
/// dedicated register mutated in place, exactly like a Java local.
pub fn for_range(
    fb: &mut FunctionBuilder,
    start: Reg,
    end: Reg,
    body: impl FnOnce(&mut FunctionBuilder, Reg),
) {
    let i = fb.new_reg();
    fb.copy_to(Ty::I32, i, start);
    let head = fb.new_block();
    let body_bb = fb.new_block();
    let exit = fb.new_block();
    fb.br(head);
    fb.switch_to(head);
    fb.cond_br(Cond::Lt, Ty::I32, i, end, body_bb, exit);
    fb.switch_to(body_bb);
    body(fb, i);
    let one = c32(fb, 1);
    fb.bin_to(BinOp::Add, Ty::I32, i, i, one);
    fb.br(head);
    fb.switch_to(exit);
}

/// Build `for (i = start; i > end; i -= 1) body(i)` — the paper's
/// count-down loop shape (Theorem 4 territory).
pub fn for_range_down(
    fb: &mut FunctionBuilder,
    start: Reg,
    end: Reg,
    body: impl FnOnce(&mut FunctionBuilder, Reg),
) {
    let i = fb.new_reg();
    fb.copy_to(Ty::I32, i, start);
    let head = fb.new_block();
    let body_bb = fb.new_block();
    let exit = fb.new_block();
    fb.br(head);
    fb.switch_to(head);
    fb.cond_br(Cond::Gt, Ty::I32, i, end, body_bb, exit);
    fb.switch_to(body_bb);
    body(fb, i);
    let one = c32(fb, 1);
    fb.bin_to(BinOp::Sub, Ty::I32, i, i, one);
    fb.br(head);
    fb.switch_to(exit);
}

/// Build an if/else; both closures must leave their block unterminated.
pub fn if_else(
    fb: &mut FunctionBuilder,
    cond: Cond,
    lhs: Reg,
    rhs: Reg,
    then_body: impl FnOnce(&mut FunctionBuilder),
    else_body: impl FnOnce(&mut FunctionBuilder),
) {
    let t = fb.new_block();
    let e = fb.new_block();
    let join = fb.new_block();
    fb.cond_br(cond, Ty::I32, lhs, rhs, t, e);
    fb.switch_to(t);
    then_body(fb);
    fb.br(join);
    fb.switch_to(e);
    else_body(fb);
    fb.br(join);
    fb.switch_to(join);
}

/// Build an `if` without an else.
pub fn if_then(
    fb: &mut FunctionBuilder,
    cond: Cond,
    lhs: Reg,
    rhs: Reg,
    then_body: impl FnOnce(&mut FunctionBuilder),
) {
    if_else(fb, cond, lhs, rhs, then_body, |_| {});
}

/// The deterministic 32-bit LCG used to generate workload data in-IR
/// (java.util.Random-flavoured constants, 32-bit state).
///
/// Updates `state` in place and returns a register holding the next
/// value, already masked to `mask`.
pub fn lcg_next(fb: &mut FunctionBuilder, state: Reg, mask: i64) -> Reg {
    // state = state * 1103515245 + 12345 (32-bit wrap).
    let m = mul_c(fb, state, 1_103_515_245);
    let next = add_c(fb, m, 12_345);
    fb.copy_to(Ty::I32, state, next);
    // Use the higher-quality middle bits.
    let mid = shru_c(fb, state, 8);
    and_c(fb, mid, mask)
}

/// Allocate an array and fill it with LCG data masked to `mask`.
pub fn alloc_filled(
    fb: &mut FunctionBuilder,
    elem: Ty,
    len: Reg,
    seed: i64,
    mask: i64,
) -> Reg {
    let arr = fb.new_array(elem, len);
    let state = fb.new_reg();
    let s0 = c32(fb, seed);
    fb.copy_to(Ty::I32, state, s0);
    let zero = c32(fb, 0);
    for_range(fb, zero, len, |fb, i| {
        let v = lcg_next(fb, state, mask);
        fb.array_store(elem, arr, i, v);
    });
    arr
}

/// Sum an `i32` array into a rolling 32-bit checksum
/// (`h = h * 31 + a[i]`), returning the checksum register.
pub fn checksum_i32(fb: &mut FunctionBuilder, arr: Reg) -> Reg {
    let h = fb.new_reg();
    let zero = c32(fb, 0);
    fb.copy_to(Ty::I32, h, zero);
    let len = fb.array_len(arr);
    let z = c32(fb, 0);
    for_range(fb, z, len, |fb, i| {
        let v = fb.array_load(Ty::I32, arr, i);
        let h31 = mul_c(fb, h, 31);
        let nh = add(fb, h31, v);
        fb.copy_to(Ty::I32, h, nh);
    });
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{verify_function, Module, Target};
    use sxe_vm::Vm;

    fn run_main(f: sxe_ir::Function) -> i64 {
        verify_function(&f).unwrap();
        let mut m = Module::new();
        m.add_function(f);
        let mut vm = Vm::builder(&m).target(Target::Ia64).build();
        vm.run("main", &[]).expect("no trap").ret.expect("value")
    }

    #[test]
    fn for_range_counts() {
        let mut fb = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let acc = fb.new_reg();
        let zero = c32(&mut fb, 0);
        fb.copy_to(Ty::I32, acc, zero);
        let start = c32(&mut fb, 0);
        let end = c32(&mut fb, 10);
        for_range(&mut fb, start, end, |fb, i| {
            let n = add(fb, acc, i);
            fb.copy_to(Ty::I32, acc, n);
        });
        fb.ret(Some(acc));
        assert_eq!(run_main(fb.finish()), 45);
    }

    #[test]
    fn for_range_down_counts() {
        let mut fb = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let acc = fb.new_reg();
        let zero = c32(&mut fb, 0);
        fb.copy_to(Ty::I32, acc, zero);
        let start = c32(&mut fb, 5);
        let end = c32(&mut fb, 0);
        for_range_down(&mut fb, start, end, |fb, i| {
            let n = add(fb, acc, i);
            fb.copy_to(Ty::I32, acc, n);
        });
        fb.ret(Some(acc));
        assert_eq!(run_main(fb.finish()), 15); // 5+4+3+2+1
    }

    #[test]
    fn if_else_both_arms() {
        for (x, expect) in [(1, 10), (5, 20)] {
            let mut fb = FunctionBuilder::new("main", vec![], Some(Ty::I32));
            let out = fb.new_reg();
            let xr = c32(&mut fb, x);
            let three = c32(&mut fb, 3);
            if_else(
                &mut fb,
                Cond::Lt,
                xr,
                three,
                |fb| {
                    let v = c32(fb, 10);
                    fb.copy_to(Ty::I32, out, v);
                },
                |fb| {
                    let v = c32(fb, 20);
                    fb.copy_to(Ty::I32, out, v);
                },
            );
            fb.ret(Some(out));
            assert_eq!(run_main(fb.finish()), expect);
        }
    }

    #[test]
    fn lcg_fill_is_deterministic() {
        let build = || {
            let mut fb = FunctionBuilder::new("main", vec![], Some(Ty::I32));
            let n = c32(&mut fb, 64);
            let arr = alloc_filled(&mut fb, Ty::I32, n, 42, 0xFFFF);
            let h = checksum_i32(&mut fb, arr);
            fb.ret(Some(h));
            run_main(fb.finish())
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }
}
