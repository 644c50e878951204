//! Textual form of the IR.
//!
//! The format round-trips through [`crate::parse`]:
//!
//! ```text
//! func @sum(i32, i32) -> i32 {
//! b0:
//!     r2 = add.i32 r0, r1
//!     r2 = extend.32 r2
//!     ret r2
//! }
//! ```

use std::fmt;

use crate::function::{Block, Function, Module};
use crate::inst::Inst;

struct InstDisplay<'a> {
    inst: &'a Inst,
    module: Option<&'a Module>,
}

impl fmt::Display for InstDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.inst {
            Inst::Nop => write!(f, "nop"),
            Inst::Const { dst, value, ty } => write!(f, "{dst} = const.{ty} {value}"),
            Inst::ConstF { dst, value } => {
                // `{:?}` keeps round-trip precision for f64.
                write!(f, "{dst} = constf {value:?}")
            }
            Inst::Copy { dst, src, ty } => write!(f, "{dst} = copy.{ty} {src}"),
            Inst::Un { op, ty, dst, src } => write!(f, "{dst} = {op}.{ty} {src}"),
            Inst::Bin { op, ty, dst, lhs, rhs } => {
                write!(f, "{dst} = {op}.{ty} {lhs}, {rhs}")
            }
            Inst::Setcc { cond, ty, dst, lhs, rhs } => {
                write!(f, "{dst} = set.{cond}.{ty} {lhs}, {rhs}")
            }
            Inst::Extend { dst, src, from } => write!(f, "{dst} = extend.{from} {src}"),
            Inst::JustExtended { dst, src, from } => {
                write!(f, "{dst} = justext.{from} {src}")
            }
            Inst::NewArray { dst, len, elem } => write!(f, "{dst} = newarray.{elem} {len}"),
            Inst::ArrayLen { dst, array } => write!(f, "{dst} = len {array}"),
            Inst::ArrayLoad { dst, array, index, elem } => {
                write!(f, "{dst} = aload.{elem} {array}, {index}")
            }
            Inst::ArrayStore { array, index, src, elem } => {
                write!(f, "astore.{elem} {array}, {index}, {src}")
            }
            Inst::Call { dst, func, ref args, .. } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                match self.module {
                    Some(m) => write!(f, "call @{}(", m.function(func).name)?,
                    None => write!(f, "call {func}(")?,
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Br { target } => write!(f, "br {target}"),
            Inst::CondBr { cond, ty, lhs, rhs, then_bb, else_bb } => {
                write!(f, "condbr {cond}.{ty} {lhs}, {rhs}, {then_bb}, {else_bb}")
            }
            Inst::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
        }
    }
}

/// Render one instruction without module context (callees print as raw
/// function ids).
#[must_use]
pub fn inst_to_string(inst: &Inst) -> String {
    InstDisplay { inst, module: None }.to_string()
}

fn fmt_function(f: &Function, module: Option<&Module>, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(out, "func @{}(", f.name)?;
    for (i, (_, ty)) in f.params.iter().enumerate() {
        if i > 0 {
            write!(out, ", ")?;
        }
        write!(out, "{ty}")?;
    }
    write!(out, ")")?;
    if let Some(ret) = f.ret {
        write!(out, " -> {ret}")?;
    }
    writeln!(out, " {{")?;
    for (bi, blk) in f.blocks.iter().enumerate() {
        writeln!(out, "b{bi}:")?;
        for inst in &blk.insts {
            writeln!(out, "    {}", InstDisplay { inst, module })?;
        }
    }
    writeln!(out, "}}")
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_function(self, None, f)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.functions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            fmt_function(func, Some(self), f)?;
        }
        Ok(())
    }
}

/// Render a block body (without a label) for diagnostics.
#[must_use]
pub fn block_to_string(b: &Block) -> String {
    let mut s = String::new();
    for inst in &b.insts {
        s.push_str("    ");
        s.push_str(&inst_to_string(inst));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{Cond, Ty, Width};
    use crate::{BinOp, Reg, UnOp};

    #[test]
    fn prints_reasonably() {
        let mut b = FunctionBuilder::new("demo", vec![Ty::I32], Some(Ty::F64));
        let x = b.param(0);
        let c = b.iconst(Ty::I32, -5);
        let s = b.bin(BinOp::Add, Ty::I32, x, c);
        b.extend_in_place(s, Width::W32);
        let d = b.un(UnOp::I32ToF64, Ty::F64, s);
        b.ret(Some(d));
        let f = b.finish();
        let text = f.to_string();
        assert!(text.contains("func @demo(i32) -> f64 {"));
        assert!(text.contains("r1 = const.i32 -5"));
        assert!(text.contains("r2 = add.i32 r0, r1"));
        assert!(text.contains("r2 = extend.32 r2"));
        assert!(text.contains("r3 = i32tof64.f64 r2"));
        assert!(text.contains("ret r3"));
    }

    #[test]
    fn prints_control_flow() {
        let mut b = FunctionBuilder::new("cf", vec![Ty::I32], None);
        let x = b.param(0);
        let z = b.iconst(Ty::I32, 0);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(Cond::Ge, Ty::I32, x, z, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let f = b.finish();
        let text = f.to_string();
        assert!(text.contains("condbr ge.i32 r0, r1, b1, b2"));
    }

    #[test]
    fn prints_arrays_and_calls() {
        use crate::Module;
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("callee", vec![Ty::I32], Some(Ty::I32));
        let p = b.param(0);
        b.ret(Some(p));
        let callee = m.add_function(b.finish());

        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let n = b.iconst(Ty::I32, 8);
        let arr = b.new_array(Ty::I32, n);
        let len = b.array_len(arr);
        let i0 = b.iconst(Ty::I32, 0);
        let v = b.array_load(Ty::I32, arr, i0);
        b.array_store(Ty::I32, arr, i0, len);
        let r = b.call(callee, vec![v], true).unwrap();
        b.ret(Some(r));
        m.add_function(b.finish());

        let text = m.to_string();
        assert!(text.contains("= newarray.i32 "));
        assert!(text.contains("= len "));
        assert!(text.contains("= aload.i32 "));
        assert!(text.contains("astore.i32 "));
        assert!(text.contains("call @callee("));
    }

    #[test]
    fn nop_prints() {
        assert_eq!(inst_to_string(&Inst::Nop), "nop");
        assert_eq!(
            inst_to_string(&Inst::JustExtended { dst: Reg(1), src: Reg(1), from: Width::W32 }),
            "r1 = justext.32 r1"
        );
    }

    use crate::Inst;
}
