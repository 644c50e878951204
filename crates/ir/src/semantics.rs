//! Sign-extension semantics of every instruction — the single source of
//! truth shared by all elimination algorithms and checked against the VM.
//!
//! All queries are relative to a *query width* `w` (usually
//! [`Width::W32`]): the algorithms ask, for a register holding a value
//! whose meaningful bits are the low `w` bits,
//!
//! * **use side** ([`classify_uses`]): does this instruction read bits `>= w`
//!   of the operand in a way that affects observable behaviour? This is the
//!   paper's `AnalyzeUSE` case analysis.
//! * **def side** ([`def_facts`]): what does this instruction guarantee
//!   about bits `>= w` of its destination? This is the paper's `AnalyzeDEF`
//!   case analysis.
//!
//! The machine model: registers are 64-bit; on IA64/PPC64 an operation at
//! [`Ty::I32`] performs the full 64-bit operation on raw register values
//! (its low 32 result bits always equal the true 32-bit result), while on
//! MIPS64 the true 32-bit ALU ops read the sign-extended low words and
//! write canonically sign-extended results; 32-bit compares (IA64 `cmp4` /
//! PPC `cmpw`) read only the low 32 bits; array bounds checks use such
//! compares, while the effective address uses the full register (IA64
//! `shladd`).

use crate::inst::{BinOp, Inst, Reg, UnOp};
use crate::types::{Target, Ty, Width};

/// What an instruction guarantees about the destination's bits above the
/// query width.
///
/// The lattice is a powerset: more `true` fields = more information.
/// `sign_extended && upper_zero` means the value is a non-negative
/// `w`-bit value, the precondition of the paper's Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtFacts {
    /// The full register equals the sign extension of its low `w` bits.
    pub sign_extended: bool,
    /// All bits at positions `>= w` are zero.
    pub upper_zero: bool,
}

impl ExtFacts {
    /// No information.
    pub const NONE: ExtFacts = ExtFacts { sign_extended: false, upper_zero: false };
    /// Both facts hold (a non-negative `w`-bit value).
    pub const NONNEG: ExtFacts = ExtFacts { sign_extended: true, upper_zero: true };
    /// Sign-extended only.
    pub const EXTENDED: ExtFacts = ExtFacts { sign_extended: true, upper_zero: false };
    /// Upper bits zero only (e.g. an IA64 zero-extending 32-bit load).
    pub const UPPER_ZERO: ExtFacts = ExtFacts { sign_extended: false, upper_zero: true };

    /// Pointwise conjunction: the facts that hold on *every* incoming def.
    #[must_use]
    pub fn meet(self, other: ExtFacts) -> ExtFacts {
        ExtFacts {
            sign_extended: self.sign_extended && other.sign_extended,
            upper_zero: self.upper_zero && other.upper_zero,
        }
    }
}

/// How an instruction uses one of its operands, relative to the query
/// width `w` (paper `AnalyzeUSE` cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    /// Bits `>= w` of the operand cannot affect the instruction's
    /// behaviour or results (Case 1; e.g. a 32-bit store or 32-bit
    /// compare at `w == 32`).
    Ignored,
    /// The instruction reads bits `>= w` directly (full-register read,
    /// e.g. `i2d`, 64-bit compare, division, calling convention) — the
    /// operand must be extended.
    Required,
    /// Bits `>= w` of the operand affect only bits `>= w` of the
    /// destination (Case 2; e.g. add/and/copy): the operand needs
    /// extension only if the destination does.
    Transmits,
    /// The operand is an array subscript in an effective-address
    /// computation — `Required` in principle, but eligible for the
    /// Theorem 1–4 analysis of paper §3.
    ArrayIndex,
}

/// Classify every operand of `inst` (in [`Inst::uses`] order) for the
/// query width `w`.
///
/// # Panics
/// Never panics; unknown combinations default to [`UseKind::Required`]
/// (the conservative answer).
#[must_use]
pub fn classify_uses(inst: &Inst, w: Width) -> Vec<(Reg, UseKind)> {
    use UseKind::{ArrayIndex, Ignored, Required, Transmits};
    let wb = w.bits();
    // A read of the low `bits` bits only.
    let low_read = |bits: u32| if wb >= bits { Ignored } else { Required };
    match *inst {
        Inst::Nop | Inst::Const { .. } | Inst::ConstF { .. } | Inst::Br { .. } => Vec::new(),
        Inst::Copy { src, ty, .. } => {
            let k = match ty {
                // A 64-bit copy moves the full register, but bits >= w of
                // the source affect only bits >= w of the destination.
                Ty::I8 | Ty::I16 | Ty::I32 | Ty::I64 => Transmits,
                Ty::F64 => Required,
            };
            vec![(src, k)]
        }
        Inst::Un { op, ty, src, .. } => {
            let k = match op {
                // Bit k of the result depends only on bits <= k of the
                // source for these, so demand transmits.
                UnOp::Neg | UnOp::Not => match ty {
                    Ty::F64 => Required,
                    _ => Transmits,
                },
                // Full-register reads.
                UnOp::I32ToF64 | UnOp::I64ToF64 => Required,
                UnOp::F64ToI32 | UnOp::F64ToI64 | UnOp::FNeg | UnOp::FSqrt | UnOp::FAbs => {
                    Required
                }
                UnOp::Zext(from) => low_read(from.bits()),
            };
            vec![(src, k)]
        }
        Inst::Bin { op, ty, lhs, rhs, .. } => {
            let k = match (op, ty) {
                (_, Ty::F64) => Required,
                // Low bits of the result depend only on low bits of the
                // inputs: demand transmits through these at any width.
                (
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor,
                    _,
                ) => Transmits,
                // Left shift: bit k of the result depends on bits <= k.
                (BinOp::Shl, _) => Transmits,
                // Arithmetic right shift is performed on the full
                // register, so higher bits flow into the low result bits.
                (BinOp::Shr, _) => Required,
                // Logical right shift at width 32 extracts the low 32 bits
                // first (IA64 `extr.u`), so bits >= 32 are ignored; at
                // width 64 it reads the full register.
                (BinOp::Shru, Ty::I64) => Required,
                (BinOp::Shru, _) => low_read(32),
                // Division is performed as a 64-bit divide.
                (BinOp::Div | BinOp::Rem, _) => Required,
            };
            // Shifts: the amount operand is masked to the width, i.e. only
            // its low 6 bits are read.
            if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::Shru) && ty != Ty::F64 {
                return vec![(lhs, k), (rhs, Ignored)];
            }
            vec![(lhs, k), (rhs, k)]
        }
        Inst::Setcc { ty, lhs, rhs, .. } => {
            let k = match ty {
                Ty::I64 | Ty::F64 => Required,
                // cmp4-style compares read only the low 32 bits.
                _ => low_read(32),
            };
            vec![(lhs, k), (rhs, k)]
        }
        Inst::CondBr { ty, lhs, rhs, .. } => {
            let k = match ty {
                Ty::I64 | Ty::F64 => Required,
                _ => low_read(32),
            };
            vec![(lhs, k), (rhs, k)]
        }
        Inst::Extend { src, from, .. } | Inst::JustExtended { src, from, .. } => {
            // Reads only the low `from` bits.
            vec![(src, low_read(from.bits()))]
        }
        Inst::NewArray { len, .. } => {
            // Negative-size check and allocation use the low 32 bits via a
            // 32-bit compare.
            vec![(len, low_read(32))]
        }
        Inst::ArrayLen { array, .. } => vec![(array, Required)],
        Inst::ArrayLoad { array, index, .. } => {
            let idx = if wb == 32 { ArrayIndex } else { Required };
            vec![(array, Required), (index, idx)]
        }
        Inst::ArrayStore { array, index, src, elem } => {
            let idx = if wb == 32 { ArrayIndex } else { Required };
            let val = match elem {
                Ty::I8 => low_read(8),
                Ty::I16 => low_read(16),
                Ty::I32 => low_read(32),
                // A 64-bit store of a narrow value needs the full register.
                Ty::I64 | Ty::F64 => Required,
            };
            vec![(array, Required), (index, idx), (src, val)]
        }
        // Calling convention: arguments are passed as full registers, with
        // narrow integers sign-extended; return values likewise.
        Inst::Call { ref args, .. } => args.iter().map(|&a| (a, Required)).collect(),
        Inst::Ret { value } => value.map(|v| (v, Required)).into_iter().collect(),
    }
}

/// Look up the [`UseKind`] of register `r` in `inst`, taking the *weakest*
/// requirement if `r` appears in several operand slots is **not** the
/// right semantics — the strongest (most demanding) slot governs, so this
/// returns the maximum demand across slots, with
/// `Required > ArrayIndex > Transmits > Ignored`.
///
/// Returns `None` if `inst` does not use `r`.
#[must_use]
pub fn use_kind_of(inst: &Inst, r: Reg, w: Width) -> Option<UseKind> {
    let rank = |k: UseKind| match k {
        UseKind::Ignored => 0,
        UseKind::Transmits => 1,
        UseKind::ArrayIndex => 2,
        UseKind::Required => 3,
    };
    classify_uses(inst, w)
        .into_iter()
        .filter(|&(reg, _)| reg == r)
        .map(|(_, k)| k)
        .max_by_key(|&k| rank(k))
}

/// Compute the [`ExtFacts`] that `inst` guarantees for its destination at
/// query width `w`, on `target`.
///
/// For instructions whose guarantee depends on the facts of their sources
/// (paper `AnalyzeDEF` Case 2: copies, bitwise ops, …), the callback
/// `src_facts` supplies the facts of a source register *at this
/// instruction* (typically the meet over its reaching definitions).
/// Instructions with unconditional guarantees never invoke the callback.
pub fn def_facts(
    inst: &Inst,
    target: Target,
    w: Width,
    src_facts: &mut dyn FnMut(Reg) -> ExtFacts,
) -> ExtFacts {
    let wb = w.bits();
    match *inst {
        Inst::Const { value, .. } => {
            // Constants are materialized in full sign-extended 64-bit form.
            ExtFacts {
                sign_extended: w.sign_extend(value) == value,
                upper_zero: w.zero_extend(value) == value,
            }
        }
        Inst::Copy { src, ty, .. } if ty != Ty::F64 => src_facts(src),
        Inst::Extend { from, .. } | Inst::JustExtended { from, .. } => {
            // sign-extended-from-8 implies sign-extended-from-16/32.
            ExtFacts { sign_extended: wb >= from.bits(), upper_zero: false }
        }
        Inst::Un { op, ty, src, .. } => match op {
            UnOp::Zext(from) => {
                if wb > from.bits() {
                    // Value is in [0, 2^from), below the sign bit of w.
                    ExtFacts::NONNEG
                } else if wb == from.bits() {
                    ExtFacts::UPPER_ZERO
                } else {
                    ExtFacts::NONE
                }
            }
            // Bitwise not of a sign-extended value is sign-extended.
            UnOp::Not if ty != Ty::F64 => ExtFacts {
                sign_extended: src_facts(src).sign_extended,
                upper_zero: false,
            },
            // MIPS64 negu is `subu $0, v` — a canonicalizing 32-bit ALU op,
            // so its result is born sign-extended from bit 31.
            UnOp::Neg if target == Target::Mips64 && ty.is_narrow_int() => {
                ExtFacts { sign_extended: wb == 32, upper_zero: false }
            }
            // d2i produces a saturated, sign-extended i32.
            UnOp::F64ToI32 => {
                if wb >= 32 {
                    ExtFacts::EXTENDED
                } else {
                    ExtFacts::NONE
                }
            }
            _ => ExtFacts::NONE,
        },
        // MIPS64 canonical-form invariant: every true 32-bit ALU op
        // (`addu`/`subu`/`mul`/`div`/`mod`/`sll`/`sra`/`srl`) reads the
        // sign-extended low words and writes its result sign-extended from
        // bit 31 — so at query width 32 the destination is EXTENDED no
        // matter what the inputs hold. Bitwise ops are excluded: MIPS has
        // no 32-bit `and`/`or`/`xor` forms, they stay raw 64-bit register
        // ops and fall through to the target-independent analysis below.
        Inst::Bin { op, ty, lhs, .. }
            if target == Target::Mips64
                && ty.is_narrow_int()
                && !matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) =>
        {
            // Refinement: a canonical remainder, arithmetic shift, or
            // logical shift of a non-negative (at w) dividend stays
            // non-negative, so the upper bits are also zero.
            let upper_zero = wb == 32
                && matches!(op, BinOp::Rem | BinOp::Shr | BinOp::Shru)
                && {
                    let l = src_facts(lhs);
                    l.sign_extended && l.upper_zero
                };
            ExtFacts { sign_extended: wb == 32, upper_zero }
        }
        Inst::Bin { op, ty, lhs, rhs, .. } if ty != Ty::F64 => match op {
            BinOp::And => {
                let l = src_facts(lhs);
                let r = src_facts(rhs);
                let nonneg_side = (l.sign_extended && l.upper_zero)
                    || (r.sign_extended && r.upper_zero);
                ExtFacts {
                    // Paper AnalyzeDEF Case 1 example: AND with an operand
                    // known non-negative (at width w) clears the upper
                    // bits and the sign bit.
                    sign_extended: (l.sign_extended && r.sign_extended) || nonneg_side,
                    upper_zero: l.upper_zero || r.upper_zero,
                }
            }
            BinOp::Or | BinOp::Xor => {
                let l = src_facts(lhs);
                let r = src_facts(rhs);
                ExtFacts {
                    sign_extended: l.sign_extended && r.sign_extended,
                    upper_zero: l.upper_zero && r.upper_zero,
                }
            }
            // Arithmetic right shift preserves both facts: the inputs are
            // required to be extended for correctness anyway, and shifting
            // a w-bit-extended (or upper-zero) value right keeps it so.
            BinOp::Shr => src_facts(lhs),
            // Remainder of sign-extended operands: |a % b| < |b| <= 2^31,
            // so the 64-bit remainder always fits in (and therefore
            // equals the sign extension of) 32 bits. Non-negative when
            // the dividend is non-negative.
            BinOp::Rem if wb == 32 => {
                let l = src_facts(lhs);
                let r = src_facts(rhs);
                let ext = l.sign_extended && r.sign_extended;
                ExtFacts {
                    sign_extended: ext,
                    upper_zero: ext && l.upper_zero,
                }
            }
            // Logical right shift at width 32 extracts then shifts: the
            // result always fits in 32 unsigned bits.
            BinOp::Shru if ty == Ty::I32 && wb == 32 => ExtFacts::UPPER_ZERO,
            // Add/Sub/Mul/Shl may carry into the upper bits.
            _ => ExtFacts::NONE,
        },
        Inst::Setcc { .. } => ExtFacts::NONNEG, // result is 0 or 1
        Inst::ArrayLen { .. } => {
            if wb == 32 {
                // Lengths are 0 ..= 0x7fff_ffff.
                ExtFacts::NONNEG
            } else {
                ExtFacts::NONE
            }
        }
        Inst::ArrayLoad { elem, .. } => match elem {
            // byte/short loads sign-extend on both targets (Java `baload`).
            Ty::I8 => ExtFacts { sign_extended: wb >= 8, upper_zero: false },
            Ty::I16 => ExtFacts { sign_extended: wb >= 16, upper_zero: false },
            Ty::I32 if wb == 32 => match target {
                // The paper's IA64 premise: memory reads zero-extend.
                Target::Ia64 => ExtFacts::UPPER_ZERO,
                // PPC64 `lwa` and MIPS64 `lw`: implicit sign extension.
                Target::Ppc64 | Target::Mips64 => ExtFacts::EXTENDED,
            },
            _ => ExtFacts::NONE,
        },
        // Calling convention: narrow returns arrive sign-extended. A call
        // whose callee is known to return i64 (or f64) delivers a full
        // 64-bit value with no such guarantee; an unrecorded return type
        // keeps the narrow reading.
        Inst::Call { ret: Some(Ty::I64 | Ty::F64), .. } => ExtFacts::NONE,
        Inst::Call { .. } => ExtFacts { sign_extended: wb == 32, upper_zero: false },
        _ => ExtFacts::NONE,
    }
}

/// Facts guaranteed for a function parameter at query width `w`: narrow
/// integer parameters arrive sign-extended per the calling convention.
#[must_use]
pub fn param_facts(ty: Ty, w: Width) -> ExtFacts {
    match ty.width() {
        Some(pw) if w.bits() >= pw.bits() => ExtFacts::EXTENDED,
        _ => ExtFacts::NONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BlockId;
    use crate::types::Cond;

    fn no_src(_: Reg) -> ExtFacts {
        ExtFacts::NONE
    }

    #[test]
    fn only_narrow_call_results_arrive_extended() {
        let call = |ret| Inst::Call { dst: Some(Reg(1)), func: crate::FuncId(0), args: vec![], ret };
        let facts = |ret| def_facts(&call(ret), Target::Ia64, Width::W32, &mut no_src);
        assert!(facts(Some(Ty::I32)).sign_extended);
        assert!(facts(None).sign_extended, "an unrecorded return type reads as narrow");
        assert_eq!(facts(Some(Ty::I64)), ExtFacts::NONE);
    }

    #[test]
    fn i2d_requires_extension() {
        let i = Inst::Un { op: UnOp::I32ToF64, ty: Ty::F64, dst: Reg(1), src: Reg(0) };
        assert_eq!(use_kind_of(&i, Reg(0), Width::W32), Some(UseKind::Required));
    }

    #[test]
    fn add32_transmits() {
        let i = Inst::Bin { op: BinOp::Add, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(use_kind_of(&i, Reg(0), Width::W32), Some(UseKind::Transmits));
        assert_eq!(use_kind_of(&i, Reg(0), Width::W8), Some(UseKind::Transmits));
    }

    #[test]
    fn store32_ignores_upper_bits() {
        let i = Inst::ArrayStore { array: Reg(0), index: Reg(1), src: Reg(2), elem: Ty::I32 };
        assert_eq!(use_kind_of(&i, Reg(2), Width::W32), Some(UseKind::Ignored));
        // ...but an 8-bit extension of the stored value cannot be removed
        // just because of the store: bits 8..32 are stored.
        assert_eq!(use_kind_of(&i, Reg(2), Width::W8), Some(UseKind::Required));
        // The index is an array subscript at width 32.
        assert_eq!(use_kind_of(&i, Reg(1), Width::W32), Some(UseKind::ArrayIndex));
    }

    #[test]
    fn compare32_vs_compare64() {
        let c32 = Inst::Setcc { cond: Cond::Lt, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        let c64 = Inst::Setcc { cond: Cond::Lt, ty: Ty::I64, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(use_kind_of(&c32, Reg(0), Width::W32), Some(UseKind::Ignored));
        assert_eq!(use_kind_of(&c64, Reg(0), Width::W32), Some(UseKind::Required));
    }

    #[test]
    fn same_reg_in_two_slots_takes_strongest() {
        // r0 is both the array and the index: the array slot Requires.
        let i = Inst::ArrayLoad { dst: Reg(1), array: Reg(0), index: Reg(0), elem: Ty::I32 };
        assert_eq!(use_kind_of(&i, Reg(0), Width::W32), Some(UseKind::Required));
    }

    #[test]
    fn shift_semantics() {
        let shr = Inst::Bin { op: BinOp::Shr, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(use_kind_of(&shr, Reg(0), Width::W32), Some(UseKind::Required));
        // The shift amount's upper bits are ignored.
        assert_eq!(use_kind_of(&shr, Reg(1), Width::W32), Some(UseKind::Ignored));
        let shru = Inst::Bin { op: BinOp::Shru, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(use_kind_of(&shru, Reg(0), Width::W32), Some(UseKind::Ignored));
        let shl = Inst::Bin { op: BinOp::Shl, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(use_kind_of(&shl, Reg(0), Width::W32), Some(UseKind::Transmits));
    }

    #[test]
    fn extend_reads_only_low_bits() {
        let e = Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W32 };
        assert_eq!(use_kind_of(&e, Reg(0), Width::W32), Some(UseKind::Ignored));
        assert_eq!(use_kind_of(&e, Reg(0), Width::W8), Some(UseKind::Required));
    }

    #[test]
    fn const_facts() {
        let pos = Inst::Const { dst: Reg(0), value: 7, ty: Ty::I32 };
        assert_eq!(def_facts(&pos, Target::Ia64, Width::W32, &mut no_src), ExtFacts::NONNEG);
        let neg = Inst::Const { dst: Reg(0), value: -1, ty: Ty::I32 };
        assert_eq!(def_facts(&neg, Target::Ia64, Width::W32, &mut no_src), ExtFacts::EXTENDED);
        // -1 is not sign-extended-from-8? It is: sext8(0xFF..FF low 8 = 0xFF) = -1. Yes.
        assert_eq!(def_facts(&neg, Target::Ia64, Width::W8, &mut no_src), ExtFacts::EXTENDED);
        let big = Inst::Const { dst: Reg(0), value: 300, ty: Ty::I32 };
        assert_eq!(
            def_facts(&big, Target::Ia64, Width::W8, &mut no_src),
            ExtFacts::NONE // 300 has bits above 8 and is not sext8
        );
    }

    #[test]
    fn load_facts_depend_on_target() {
        let l = Inst::ArrayLoad { dst: Reg(1), array: Reg(0), index: Reg(2), elem: Ty::I32 };
        assert_eq!(def_facts(&l, Target::Ia64, Width::W32, &mut no_src), ExtFacts::UPPER_ZERO);
        assert_eq!(def_facts(&l, Target::Ppc64, Width::W32, &mut no_src), ExtFacts::EXTENDED);
        let b = Inst::ArrayLoad { dst: Reg(1), array: Reg(0), index: Reg(2), elem: Ty::I8 };
        assert_eq!(def_facts(&b, Target::Ia64, Width::W32, &mut no_src), ExtFacts::EXTENDED);
    }

    #[test]
    fn and_with_nonneg_constant_is_extended() {
        // Paper AnalyzeDEF Case 1: j = j & 0x0fffffff.
        let and = Inst::Bin { op: BinOp::And, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        let mut facts = |r: Reg| {
            if r == Reg(1) {
                ExtFacts::NONNEG // the constant side
            } else {
                ExtFacts::NONE // unknown j
            }
        };
        let f = def_facts(&and, Target::Ia64, Width::W32, &mut facts);
        assert!(f.sign_extended && f.upper_zero);
    }

    #[test]
    fn copy_passes_facts_through() {
        let c = Inst::Copy { dst: Reg(1), src: Reg(0), ty: Ty::I32 };
        let mut f = |_: Reg| ExtFacts::EXTENDED;
        assert_eq!(def_facts(&c, Target::Ia64, Width::W32, &mut f), ExtFacts::EXTENDED);
    }

    #[test]
    fn add_gives_no_facts() {
        let a = Inst::Bin { op: BinOp::Add, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        let mut f = |_: Reg| ExtFacts::NONNEG;
        // 0x7fffffff + 1 overflows the sign bit: no guarantee survives.
        assert_eq!(def_facts(&a, Target::Ia64, Width::W32, &mut f), ExtFacts::NONE);
    }

    #[test]
    fn setcc_and_arraylen_are_nonneg() {
        let s = Inst::Setcc { cond: Cond::Eq, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(def_facts(&s, Target::Ia64, Width::W32, &mut no_src), ExtFacts::NONNEG);
        let l = Inst::ArrayLen { dst: Reg(1), array: Reg(0) };
        assert_eq!(def_facts(&l, Target::Ia64, Width::W32, &mut no_src), ExtFacts::NONNEG);
    }

    #[test]
    fn zext_facts() {
        let z8 = Inst::Un { op: UnOp::Zext(Width::W8), ty: Ty::I32, dst: Reg(1), src: Reg(0) };
        assert_eq!(def_facts(&z8, Target::Ia64, Width::W32, &mut no_src), ExtFacts::NONNEG);
        let z32 = Inst::Un { op: UnOp::Zext(Width::W32), ty: Ty::I64, dst: Reg(1), src: Reg(0) };
        assert_eq!(def_facts(&z32, Target::Ia64, Width::W32, &mut no_src), ExtFacts::UPPER_ZERO);
    }

    #[test]
    fn param_facts_by_width() {
        assert_eq!(param_facts(Ty::I32, Width::W32), ExtFacts::EXTENDED);
        assert_eq!(param_facts(Ty::I8, Width::W32), ExtFacts::EXTENDED);
        assert_eq!(param_facts(Ty::I32, Width::W8), ExtFacts::NONE);
        assert_eq!(param_facts(Ty::I64, Width::W32), ExtFacts::NONE);
        assert_eq!(param_facts(Ty::F64, Width::W32), ExtFacts::NONE);
    }

    #[test]
    fn rem_of_extended_is_extended() {
        let rem = Inst::Bin { op: BinOp::Rem, ty: Ty::I32, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        let mut both = |_: Reg| ExtFacts::EXTENDED;
        assert_eq!(def_facts(&rem, Target::Ia64, Width::W32, &mut both), ExtFacts::EXTENDED);
        let mut nonneg_dividend = |r: Reg| {
            if r == Reg(0) {
                ExtFacts::NONNEG
            } else {
                ExtFacts::EXTENDED
            }
        };
        assert_eq!(
            def_facts(&rem, Target::Ia64, Width::W32, &mut nonneg_dividend),
            ExtFacts::NONNEG
        );
        let mut none = |_: Reg| ExtFacts::NONE;
        assert_eq!(def_facts(&rem, Target::Ia64, Width::W32, &mut none), ExtFacts::NONE);
        // At width 8 the bound argument does not apply.
        assert_eq!(def_facts(&rem, Target::Ia64, Width::W8, &mut both), ExtFacts::NONE);
    }

    #[test]
    fn extend_def_facts() {
        let e = Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W8 };
        // Extended from 8 implies extended from 32.
        assert!(def_facts(&e, Target::Ia64, Width::W32, &mut no_src).sign_extended);
        let e32 = Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W32 };
        assert!(!def_facts(&e32, Target::Ia64, Width::W8, &mut no_src).sign_extended);
    }

    #[test]
    fn branch_classification() {
        let cb = Inst::CondBr {
            cond: Cond::Gt,
            ty: Ty::I32,
            lhs: Reg(0),
            rhs: Reg(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(use_kind_of(&cb, Reg(0), Width::W32), Some(UseKind::Ignored));
        assert_eq!(use_kind_of(&cb, Reg(0), Width::W16), Some(UseKind::Required));
    }
}
