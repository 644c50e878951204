//! A convenient builder for constructing IR functions.
//!
//! Workload kernels and tests use this DSL; it tracks a *current block* and
//! appends instructions to it, allocating fresh destination registers:
//!
//! ```
//! use sxe_ir::{FunctionBuilder, Ty, BinOp, Cond};
//!
//! let mut b = FunctionBuilder::new("add1", vec![Ty::I32], Some(Ty::I32));
//! let x = b.param(0);
//! let one = b.iconst(Ty::I32, 1);
//! let y = b.bin(BinOp::Add, Ty::I32, x, one);
//! b.ret(Some(y));
//! let func = b.finish();
//! assert_eq!(func.name, "add1");
//! ```

use crate::function::{Block, Function, InstId};
use crate::inst::{BinOp, BlockId, FuncId, Inst, Reg, UnOp};
use crate::types::{Cond, Ty, Width};

/// Incrementally constructs a [`Function`].
///
/// See the crate-level builder example in the module documentation.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Start building a function with the given signature. The entry block
    /// is current.
    #[must_use]
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> FunctionBuilder {
        let func = Function::new(name, params, ret);
        let cur = func.entry();
        FunctionBuilder { func, cur }
    }

    /// The `i`-th parameter register.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn param(&self, i: usize) -> Reg {
        self.func.params[i].0
    }

    /// Allocate a fresh register without emitting anything.
    pub fn new_reg(&mut self) -> Reg {
        self.func.new_reg()
    }

    /// Create a new (empty, unpositioned) block.
    pub fn new_block(&mut self) -> BlockId {
        self.func.new_block()
    }

    /// Make `b` the current block for subsequent instructions.
    ///
    /// # Panics
    /// Panics if `b` already has a terminator.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            self.func.block(b).terminator().is_none(),
            "block {b} is already terminated"
        );
        self.cur = b;
    }

    /// The block instructions are currently appended to.
    #[must_use]
    pub fn current(&self) -> BlockId {
        self.cur
    }

    fn push(&mut self, inst: Inst) -> InstId {
        let blk = self.func.block_mut(self.cur);
        debug_assert!(
            blk.terminator().is_none(),
            "appending after terminator in {}",
            self.cur
        );
        blk.insts.push(inst);
        InstId::new(self.cur, blk.insts.len() - 1)
    }

    /// Emit an integer constant.
    pub fn iconst(&mut self, ty: Ty, value: i64) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::Const { dst, value, ty });
        dst
    }

    /// Emit a float constant.
    pub fn fconst(&mut self, value: f64) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::ConstF { dst, value });
        dst
    }

    /// Emit a copy into a fresh register.
    pub fn copy(&mut self, ty: Ty, src: Reg) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::Copy { dst, src, ty });
        dst
    }

    /// Emit a copy into an existing register (mutating IR style, as the
    /// paper's examples use: `i = j`).
    pub fn copy_to(&mut self, ty: Ty, dst: Reg, src: Reg) {
        self.push(Inst::Copy { dst, src, ty });
    }

    /// Emit a binary operation into a fresh register.
    pub fn bin(&mut self, op: BinOp, ty: Ty, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::Bin { op, ty, dst, lhs, rhs });
        dst
    }

    /// Emit a binary operation into an existing register (`i = i + 1`).
    pub fn bin_to(&mut self, op: BinOp, ty: Ty, dst: Reg, lhs: Reg, rhs: Reg) {
        self.push(Inst::Bin { op, ty, dst, lhs, rhs });
    }

    /// Emit a unary operation into a fresh register.
    pub fn un(&mut self, op: UnOp, ty: Ty, src: Reg) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::Un { op, ty, dst, src });
        dst
    }

    /// Emit a unary operation into an existing register.
    pub fn un_to(&mut self, op: UnOp, ty: Ty, dst: Reg, src: Reg) {
        self.push(Inst::Un { op, ty, dst, src });
    }

    /// Emit a compare-and-set (0/1 result).
    pub fn setcc(&mut self, cond: Cond, ty: Ty, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::Setcc { cond, ty, dst, lhs, rhs });
        dst
    }

    /// Emit an explicit sign extension into a fresh register.
    pub fn extend(&mut self, src: Reg, from: Width) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::Extend { dst, src, from });
        dst
    }

    /// Emit an in-place sign extension `r = extend(r)`, the canonical form
    /// the elimination passes operate on.
    pub fn extend_in_place(&mut self, r: Reg, from: Width) -> InstId {
        self.push(Inst::Extend { dst: r, src: r, from })
    }

    /// Emit an array allocation.
    pub fn new_array(&mut self, elem: Ty, len: Reg) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::NewArray { dst, len, elem });
        dst
    }

    /// Emit an array-length read.
    pub fn array_len(&mut self, array: Reg) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::ArrayLen { dst, array });
        dst
    }

    /// Emit an array load into a fresh register.
    pub fn array_load(&mut self, elem: Ty, array: Reg, index: Reg) -> Reg {
        let dst = self.func.new_reg();
        self.push(Inst::ArrayLoad { dst, array, index, elem });
        dst
    }

    /// Emit an array load into an existing register (`j = a[i]`).
    pub fn array_load_to(&mut self, elem: Ty, dst: Reg, array: Reg, index: Reg) {
        self.push(Inst::ArrayLoad { dst, array, index, elem });
    }

    /// Emit an array store.
    pub fn array_store(&mut self, elem: Ty, array: Reg, index: Reg, src: Reg) {
        self.push(Inst::ArrayStore { array, index, src, elem });
    }

    /// Emit a call.
    pub fn call(&mut self, func: FuncId, args: Vec<Reg>, has_result: bool) -> Option<Reg> {
        let dst = has_result.then(|| self.func.new_reg());
        self.push(Inst::Call { dst, func, args, ret: None });
        dst
    }

    /// Terminate the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.push(Inst::Br { target });
    }

    /// Terminate the current block with a conditional branch.
    pub fn cond_br(
        &mut self,
        cond: Cond,
        ty: Ty,
        lhs: Reg,
        rhs: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    ) {
        self.push(Inst::CondBr { cond, ty, lhs, rhs, then_bb, else_bb });
    }

    /// Terminate the current block with a return.
    pub fn ret(&mut self, value: Option<Reg>) {
        self.push(Inst::Ret { value });
    }

    /// Finish building, returning the function.
    ///
    /// The result is not verified; run
    /// [`verify`](crate::verify::verify_function) if the input is untrusted.
    #[must_use]
    pub fn finish(self) -> Function {
        self.func
    }

    /// Access the function under construction (for advanced uses such as
    /// emitting raw instructions).
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Append a raw instruction to the current block.
    pub fn raw(&mut self, inst: Inst) -> InstId {
        self.push(inst)
    }

    /// Current contents of the block under construction (test helper).
    #[must_use]
    pub fn current_block(&self) -> &Block {
        self.func.block(self.cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let c = b.iconst(Ty::I32, 41);
        let s = b.bin(BinOp::Add, Ty::I32, x, c);
        b.ret(Some(s));
        let f = b.finish();
        assert_eq!(f.inst_count(), 3);
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    fn diamond_cfg() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let zero = b.iconst(Ty::I32, 0);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();
        b.cond_br(Cond::Lt, Ty::I32, x, zero, then_bb, else_bb);

        b.switch_to(then_bb);
        let n = b.un(UnOp::Neg, Ty::I32, x);
        b.copy_to(Ty::I32, x, n);
        b.br(join);

        b.switch_to(else_bb);
        b.br(join);

        b.switch_to(join);
        b.ret(Some(x));

        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.block(BlockId(0)).successors(), vec![then_bb, else_bb]);
        assert_eq!(f.block(then_bb).successors(), vec![join]);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn cannot_switch_to_terminated() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let entry = b.current();
        let next = b.new_block();
        b.br(next);
        b.switch_to(entry);
    }

    #[test]
    fn in_place_forms() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let one = b.iconst(Ty::I32, 1);
        b.bin_to(BinOp::Sub, Ty::I32, x, x, one);
        let id = b.extend_in_place(x, Width::W32);
        b.ret(Some(x));
        let f = b.finish();
        assert!(f.inst(id).is_extend(Some(Width::W32)));
        assert_eq!(f.count_extends(None), 1);
    }
}
