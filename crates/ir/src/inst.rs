//! Instructions and virtual registers.

use std::fmt;

use crate::types::{Cond, Ty, Width};

/// A virtual register.
///
/// Every register is physically 64 bits wide on the modelled machine.
/// Integer registers hold raw 64-bit bit patterns; float registers hold an
/// `f64`. The IR is *not* in SSA form — the same register may be defined by
/// many instructions, exactly like the paper's JIT IR, and def–use
/// relationships are recovered with UD/DU chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// Index of this register, usable for dense side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index of this block, usable for dense side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifies a function within a [`Module`](crate::Module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index of this function, usable for dense side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Binary integer/float operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division (traps on division by zero for integer types).
    Div,
    /// Signed remainder (traps on division by zero for integer types).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left. The shift amount is masked to the operation width.
    Shl,
    /// Arithmetic (sign-propagating) shift right.
    Shr,
    /// Logical (zero-filling) shift right.
    Shru,
}

impl BinOp {
    /// Whether the operation is commutative.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Whether the operation may trap at run time (integer division by zero).
    #[must_use]
    pub fn may_trap(self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Shru => "shru",
        };
        f.write_str(s)
    }
}

/// Unary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation at the operation width.
    Neg,
    /// Bitwise not.
    Not,
    /// Convert a signed 32-bit integer to `f64` (Java `i2d`).
    ///
    /// Reads the **full 64-bit register** — this is a use that *requires*
    /// its source to be sign-extended (paper Figure 2).
    I32ToF64,
    /// Convert a signed 64-bit integer to `f64` (Java `l2d`).
    I64ToF64,
    /// Convert an `f64` to a signed 32-bit integer, truncating toward zero
    /// and saturating like Java `d2i`. The result is sign-extended.
    F64ToI32,
    /// Convert an `f64` to a signed 64-bit integer (Java `d2l`).
    F64ToI64,
    /// Zero-extend the low bits of the source into the full register
    /// (Java `char` widening for [`Width::W16`], unsigned masks otherwise).
    Zext(Width),
    /// Float negation.
    FNeg,
    /// Float square root (needed by several numeric workloads).
    FSqrt,
    /// Float absolute value.
    FAbs,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("neg"),
            UnOp::Not => f.write_str("not"),
            UnOp::I32ToF64 => f.write_str("i32tof64"),
            UnOp::I64ToF64 => f.write_str("i64tof64"),
            UnOp::F64ToI32 => f.write_str("f64toi32"),
            UnOp::F64ToI64 => f.write_str("f64toi64"),
            UnOp::Zext(w) => write!(f, "zext{w}"),
            UnOp::FNeg => f.write_str("fneg"),
            UnOp::FSqrt => f.write_str("fsqrt"),
            UnOp::FAbs => f.write_str("fabs"),
        }
    }
}

/// One IR instruction.
///
/// The final instruction of every basic block is a *terminator*
/// ([`Inst::Br`], [`Inst::CondBr`], or [`Inst::Ret`]); no terminator may
/// appear elsewhere. Deleted instructions are replaced by [`Inst::Nop`]
/// tombstones so that [`InstId`](crate::InstId)s remain stable while the
/// elimination passes mutate a function.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// A deleted instruction; ignored by all analyses and by the VM.
    Nop,
    /// Materialize an integer constant of type `ty` into `dst`.
    ///
    /// Like real code generators, the constant is materialized in full
    /// 64-bit sign-extended form, so the destination is always known to be
    /// sign-extended (and upper-zero when the value is non-negative).
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant, stored sign-extended.
        value: i64,
        /// Program-level type of the constant.
        ty: Ty,
    },
    /// Materialize a float constant.
    ConstF {
        /// Destination register.
        dst: Reg,
        /// The constant.
        value: f64,
    },
    /// Register-to-register copy at the given type.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Program-level type of the copied value.
        ty: Ty,
    },
    /// Unary operation. Integer ops operate at width `ty`.
    Un {
        /// Operation.
        op: UnOp,
        /// Program-level type the operation is performed at.
        ty: Ty,
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Binary operation at width `ty`.
    ///
    /// At `ty == I32` the machine performs the full 64-bit operation on the
    /// raw register values; the low 32 bits of the result always equal the
    /// true 32-bit result, the upper 32 bits are unspecified (except for
    /// ops where they are derivable, see [`semantics`](crate::semantics)).
    Bin {
        /// Operation.
        op: BinOp,
        /// Program-level type the operation is performed at.
        ty: Ty,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Compare and set `dst` to 1 or 0.
    ///
    /// `ty` selects the comparison width: `I32` compares only the low 32
    /// bits (IA64 `cmp4` / PPC `cmpw`), `I64` compares full registers (and
    /// therefore requires sign-extended operands for 32-bit values), `F64`
    /// compares floats.
    Setcc {
        /// Condition.
        cond: Cond,
        /// Comparison width.
        ty: Ty,
        /// Destination register (receives 0 or 1).
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Explicit sign extension: `dst = sign_extend(low from-bits of src)`.
    ///
    /// This is the instruction whose dynamic count the paper's evaluation
    /// measures and whose elimination is the subject of the algorithm.
    Extend {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// How many low bits are extended.
        from: Width,
    },
    /// A *dummy* sign extension (paper §2.1): semantically a no-op marker
    /// asserting that `src` is already sign-extended at this point (for
    /// example, an array index just used in a successful access).
    ///
    /// Dummies participate in UD/DU chains like real extensions so that
    /// `AnalyzeDEF` can rely on them, and are removed after elimination.
    JustExtended {
        /// Destination register (always equal to `src` when inserted by
        /// the framework).
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Width the value is known to be extended from.
        from: Width,
    },
    /// Allocate a new array of `len` elements of type `elem`, initialized
    /// to zero. Traps with [`NegativeArraySize`](crate::TrapKind) if the
    /// low 32 bits of `len` are negative.
    NewArray {
        /// Destination register (receives an array reference).
        dst: Reg,
        /// Requested length (an `i32`).
        len: Reg,
        /// Element type.
        elem: Ty,
    },
    /// Read the length of an array into `dst`. The result is in
    /// `0 ..= 0x7fff_ffff` and thus both sign-extended and upper-zero.
    ArrayLen {
        /// Destination register.
        dst: Reg,
        /// Array reference.
        array: Reg,
    },
    /// Load `array[index]` into `dst`.
    ///
    /// Semantics follow the paper's §3 machine model: the bounds check
    /// compares only the **low 32 bits** of `index` (as an unsigned value)
    /// against the length, then the effective address is computed from the
    /// **full 64-bit register** (IA64 `shladd`). Narrow elements are
    /// zero-extended on [`Target::Ia64`](crate::Target) and sign-extended
    /// on [`Target::Ppc64`](crate::Target), except `I8`/`I16` which load
    /// sign-extended on both (Java `byte`/`short` loads).
    ArrayLoad {
        /// Destination register.
        dst: Reg,
        /// Array reference.
        array: Reg,
        /// Index (an `i32` subscript expression).
        index: Reg,
        /// Element type.
        elem: Ty,
    },
    /// Store `src` into `array[index]`; same addressing semantics as
    /// [`Inst::ArrayLoad`]. Only the low `elem` bits of `src` are stored,
    /// so the store itself never requires a sign extension.
    ArrayStore {
        /// Array reference.
        array: Reg,
        /// Index (an `i32` subscript expression).
        index: Reg,
        /// Value to store.
        src: Reg,
        /// Element type.
        elem: Ty,
    },
    /// Call another function in the module.
    ///
    /// The calling convention is the usual 64-bit one: narrow integer
    /// arguments and return values are passed **sign-extended**, so an
    /// `i32` argument is a use that requires extension and an `i32` return
    /// value arrives sign-extended in the caller.
    Call {
        /// Destination register for the return value, if any.
        dst: Option<Reg>,
        /// Callee.
        func: FuncId,
        /// Argument registers.
        args: Vec<Reg>,
        /// The callee's return type, recorded by the 64-bit conversion
        /// from the module's signatures so the elimination can tell a
        /// narrow result (sign-extended on arrival) from a wide one.
        /// `None` until then; neither printed nor parsed.
        ret: Option<Ty>,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch. Comparison width semantics are identical to
    /// [`Inst::Setcc`].
    CondBr {
        /// Condition.
        cond: Cond,
        /// Comparison width.
        ty: Ty,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
        /// Block taken when the condition holds.
        then_bb: BlockId,
        /// Block taken otherwise.
        else_bb: BlockId,
    },
    /// Return from the function, optionally with a value.
    ///
    /// Returning a narrow integer requires the value to be sign-extended
    /// (calling convention), which is why the paper's Figure 7 needs an
    /// extension for `t` before `(double) t` even outside the loop.
    Ret {
        /// Returned register, if the function returns a value.
        value: Option<Reg>,
    },
}

impl Inst {
    /// The register this instruction defines, if any.
    #[must_use]
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Const { dst, .. }
            | Inst::ConstF { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Setcc { dst, .. }
            | Inst::Extend { dst, .. }
            | Inst::JustExtended { dst, .. }
            | Inst::NewArray { dst, .. }
            | Inst::ArrayLen { dst, .. }
            | Inst::ArrayLoad { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst,
            Inst::Nop
            | Inst::ArrayStore { .. }
            | Inst::Br { .. }
            | Inst::CondBr { .. }
            | Inst::Ret { .. } => None,
        }
    }

    /// Append the registers this instruction reads to `out`.
    ///
    /// The same register may appear more than once (for example
    /// `add r1, r1`).
    pub fn collect_uses(&self, out: &mut Vec<Reg>) {
        match *self {
            Inst::Nop | Inst::Const { .. } | Inst::ConstF { .. } | Inst::Br { .. } => {}
            Inst::Copy { src, .. }
            | Inst::Un { src, .. }
            | Inst::Extend { src, .. }
            | Inst::JustExtended { src, .. } => out.push(src),
            Inst::Bin { lhs, rhs, .. } | Inst::Setcc { lhs, rhs, .. } => {
                out.push(lhs);
                out.push(rhs);
            }
            Inst::NewArray { len, .. } => out.push(len),
            Inst::ArrayLen { array, .. } => out.push(array),
            Inst::ArrayLoad { array, index, .. } => {
                out.push(array);
                out.push(index);
            }
            Inst::ArrayStore { array, index, src, .. } => {
                out.push(array);
                out.push(index);
                out.push(src);
            }
            Inst::Call { ref args, .. } => out.extend_from_slice(args),
            Inst::CondBr { lhs, rhs, .. } => {
                out.push(lhs);
                out.push(rhs);
            }
            Inst::Ret { value } => {
                if let Some(v) = value {
                    out.push(v);
                }
            }
        }
    }

    /// The registers this instruction reads, as a freshly allocated vector.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.collect_uses(&mut v);
        v
    }

    /// Whether this instruction ends a basic block.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. })
    }

    /// Successor blocks of a terminator (empty for non-terminators and
    /// returns).
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Inst::Br { target } => vec![target],
            Inst::CondBr { then_bb, else_bb, .. } => vec![then_bb, else_bb],
            _ => Vec::new(),
        }
    }

    /// Whether this is a real (explicit, non-dummy) sign extension of the
    /// given width; `None` matches any width.
    #[must_use]
    pub fn is_extend(&self, width: Option<Width>) -> bool {
        match *self {
            Inst::Extend { from, .. } => width.is_none() || width == Some(from),
            _ => false,
        }
    }

    /// Whether the instruction has an observable effect besides defining
    /// its destination (memory write, call, control flow, or possible trap).
    #[must_use]
    pub fn has_side_effect(&self) -> bool {
        match self {
            Inst::ArrayStore { .. }
            | Inst::Call { .. }
            | Inst::Br { .. }
            | Inst::CondBr { .. }
            | Inst::Ret { .. }
            | Inst::NewArray { .. }
            | Inst::ArrayLoad { .. }
            | Inst::ArrayLen { .. } => true,
            Inst::Bin { op, .. } => op.may_trap(),
            _ => false,
        }
    }

    /// Rewrite every register (uses **and** destination) through `map`.
    pub fn map_regs(&mut self, mut map: impl FnMut(Reg) -> Reg) {
        match self {
            Inst::Nop | Inst::Br { .. } => {}
            Inst::Const { dst, .. } | Inst::ConstF { dst, .. } => *dst = map(*dst),
            Inst::Copy { dst, src, .. }
            | Inst::Un { dst, src, .. }
            | Inst::Extend { dst, src, .. }
            | Inst::JustExtended { dst, src, .. } => {
                *dst = map(*dst);
                *src = map(*src);
            }
            Inst::Bin { dst, lhs, rhs, .. } | Inst::Setcc { dst, lhs, rhs, .. } => {
                *dst = map(*dst);
                *lhs = map(*lhs);
                *rhs = map(*rhs);
            }
            Inst::NewArray { dst, len, .. } => {
                *dst = map(*dst);
                *len = map(*len);
            }
            Inst::ArrayLen { dst, array } => {
                *dst = map(*dst);
                *array = map(*array);
            }
            Inst::ArrayLoad { dst, array, index, .. } => {
                *dst = map(*dst);
                *array = map(*array);
                *index = map(*index);
            }
            Inst::ArrayStore { array, index, src, .. } => {
                *array = map(*array);
                *index = map(*index);
                *src = map(*src);
            }
            Inst::Call { dst, args, .. } => {
                if let Some(d) = dst {
                    *d = map(*d);
                }
                for a in args {
                    *a = map(*a);
                }
            }
            Inst::CondBr { lhs, rhs, .. } => {
                *lhs = map(*lhs);
                *rhs = map(*rhs);
            }
            Inst::Ret { value } => {
                if let Some(v) = value {
                    *v = map(*v);
                }
            }
        }
    }

    /// Rewrite every branch target through `map` (no-op for
    /// non-terminators and returns).
    pub fn map_blocks(&mut self, mut map: impl FnMut(BlockId) -> BlockId) {
        match self {
            Inst::Br { target } => *target = map(*target),
            Inst::CondBr { then_bb, else_bb, .. } => {
                *then_bb = map(*then_bb);
                *else_bb = map(*else_bb);
            }
            _ => {}
        }
    }

    /// Rewrite every use of register `from` to `to`. The destination is
    /// left untouched.
    pub fn replace_uses(&mut self, from: Reg, to: Reg) {
        let repl = |r: &mut Reg| {
            if *r == from {
                *r = to;
            }
        };
        match self {
            Inst::Nop | Inst::Const { .. } | Inst::ConstF { .. } | Inst::Br { .. } => {}
            Inst::Copy { src, .. }
            | Inst::Un { src, .. }
            | Inst::Extend { src, .. }
            | Inst::JustExtended { src, .. } => repl(src),
            Inst::Bin { lhs, rhs, .. } | Inst::Setcc { lhs, rhs, .. } => {
                repl(lhs);
                repl(rhs);
            }
            Inst::NewArray { len, .. } => repl(len),
            Inst::ArrayLen { array, .. } => repl(array),
            Inst::ArrayLoad { array, index, .. } => {
                repl(array);
                repl(index);
            }
            Inst::ArrayStore { array, index, src, .. } => {
                repl(array);
                repl(index);
                repl(src);
            }
            Inst::Call { args, .. } => args.iter_mut().for_each(repl),
            Inst::CondBr { lhs, rhs, .. } => {
                repl(lhs);
                repl(rhs);
            }
            Inst::Ret { value } => {
                if let Some(v) = value {
                    repl(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I32,
            dst: Reg(3),
            lhs: Reg(1),
            rhs: Reg(2),
        };
        assert_eq!(i.dst(), Some(Reg(3)));
        assert_eq!(i.uses(), vec![Reg(1), Reg(2)]);
        assert!(!i.is_terminator());
    }

    #[test]
    fn duplicate_uses_are_kept() {
        let i = Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::I32,
            dst: Reg(0),
            lhs: Reg(7),
            rhs: Reg(7),
        };
        assert_eq!(i.uses(), vec![Reg(7), Reg(7)]);
    }

    #[test]
    fn terminator_successors() {
        let br = Inst::Br { target: BlockId(4) };
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(4)]);

        let cb = Inst::CondBr {
            cond: Cond::Lt,
            ty: Ty::I32,
            lhs: Reg(0),
            rhs: Reg(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(cb.successors(), vec![BlockId(1), BlockId(2)]);

        let ret = Inst::Ret { value: None };
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn replace_uses_not_dst() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I32,
            dst: Reg(1),
            lhs: Reg(1),
            rhs: Reg(2),
        };
        i.replace_uses(Reg(1), Reg(9));
        match i {
            Inst::Bin { dst, lhs, rhs, .. } => {
                assert_eq!(dst, Reg(1));
                assert_eq!(lhs, Reg(9));
                assert_eq!(rhs, Reg(2));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn map_regs_covers_all_slots() {
        let mut i = Inst::ArrayLoad { dst: Reg(1), array: Reg(2), index: Reg(3), elem: Ty::I32 };
        i.map_regs(|r| Reg(r.0 + 10));
        assert_eq!(
            i,
            Inst::ArrayLoad { dst: Reg(11), array: Reg(12), index: Reg(13), elem: Ty::I32 }
        );
        let mut c =
            Inst::Call { dst: Some(Reg(0)), func: FuncId(0), args: vec![Reg(1), Reg(2)], ret: None };
        c.map_regs(|r| Reg(r.0 * 2));
        assert_eq!(
            c,
            Inst::Call { dst: Some(Reg(0)), func: FuncId(0), args: vec![Reg(2), Reg(4)], ret: None }
        );
    }

    #[test]
    fn map_blocks_retargets() {
        let mut i = Inst::CondBr {
            cond: Cond::Eq,
            ty: Ty::I32,
            lhs: Reg(0),
            rhs: Reg(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        i.map_blocks(|b| BlockId(b.0 + 5));
        assert_eq!(i.successors(), vec![BlockId(6), BlockId(7)]);
    }

    #[test]
    fn extend_predicates() {
        let e = Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W32 };
        assert!(e.is_extend(None));
        assert!(e.is_extend(Some(Width::W32)));
        assert!(!e.is_extend(Some(Width::W16)));
        let d = Inst::JustExtended { dst: Reg(0), src: Reg(0), from: Width::W32 };
        assert!(!d.is_extend(None));
    }

    #[test]
    fn side_effects() {
        assert!(Inst::Bin {
            op: BinOp::Div,
            ty: Ty::I32,
            dst: Reg(0),
            lhs: Reg(1),
            rhs: Reg(2)
        }
        .has_side_effect());
        assert!(!Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I32,
            dst: Reg(0),
            lhs: Reg(1),
            rhs: Reg(2)
        }
        .has_side_effect());
        assert!(!Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W32 }.has_side_effect());
    }
}
