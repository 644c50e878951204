//! Parser for the textual IR form produced by [`crate::display`].
//!
//! ```
//! let m = sxe_ir::parse_module(
//!     "func @id(i32) -> i32 {\nb0:\n    ret r0\n}\n",
//! ).unwrap();
//! assert_eq!(m.functions.len(), 1);
//! ```

use std::fmt;

use crate::function::{Block, Function, Module};
use crate::inst::{BinOp, BlockId, FuncId, Inst, Reg, UnOp};
use crate::types::{Cond, Ty, Width};

/// Error produced when parsing textual IR fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn parse_ty(s: &str, line: usize) -> Result<Ty, ParseError> {
    match s {
        "i8" => Ok(Ty::I8),
        "i16" => Ok(Ty::I16),
        "i32" => Ok(Ty::I32),
        "i64" => Ok(Ty::I64),
        "f64" => Ok(Ty::F64),
        _ => err(line, format!("unknown type `{s}`")),
    }
}

fn parse_width(s: &str, line: usize) -> Result<Width, ParseError> {
    match s {
        "8" => Ok(Width::W8),
        "16" => Ok(Width::W16),
        "32" => Ok(Width::W32),
        _ => err(line, format!("unknown width `{s}`")),
    }
}

fn parse_cond(s: &str, line: usize) -> Result<Cond, ParseError> {
    match s {
        "eq" => Ok(Cond::Eq),
        "ne" => Ok(Cond::Ne),
        "lt" => Ok(Cond::Lt),
        "le" => Ok(Cond::Le),
        "gt" => Ok(Cond::Gt),
        "ge" => Ok(Cond::Ge),
        "ult" => Ok(Cond::Ult),
        "ule" => Ok(Cond::Ule),
        "ugt" => Ok(Cond::Ugt),
        "uge" => Ok(Cond::Uge),
        _ => err(line, format!("unknown condition `{s}`")),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, ParseError> {
    let body = s
        .strip_prefix('r')
        .ok_or_else(|| ParseError { line, message: format!("expected register, got `{s}`") })?;
    body.parse::<u32>()
        .map(Reg)
        .map_err(|_| ParseError { line, message: format!("bad register `{s}`") })
}

fn parse_block_id(s: &str, line: usize) -> Result<BlockId, ParseError> {
    let body = s
        .strip_prefix('b')
        .ok_or_else(|| ParseError { line, message: format!("expected block, got `{s}`") })?;
    body.parse::<u32>()
        .map(BlockId)
        .map_err(|_| ParseError { line, message: format!("bad block `{s}`") })
}

fn parse_bin_op(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "shru" => BinOp::Shru,
        _ => return None,
    })
}

fn parse_un_op(s: &str) -> Option<UnOp> {
    Some(match s {
        "neg" => UnOp::Neg,
        "not" => UnOp::Not,
        "i32tof64" => UnOp::I32ToF64,
        "i64tof64" => UnOp::I64ToF64,
        "f64toi32" => UnOp::F64ToI32,
        "f64toi64" => UnOp::F64ToI64,
        "fneg" => UnOp::FNeg,
        "fsqrt" => UnOp::FSqrt,
        "fabs" => UnOp::FAbs,
        "zext8" => UnOp::Zext(Width::W8),
        "zext16" => UnOp::Zext(Width::W16),
        "zext32" => UnOp::Zext(Width::W32),
        _ => return None,
    })
}

/// Split `name.suffix` at the *first* dot.
fn split_dot(s: &str) -> (&str, Option<&str>) {
    match s.find('.') {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    }
}

struct PendingCall {
    func_name: String,
    line: usize,
}

/// Parse a full module from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] naming the offending line on malformed input.
/// Function references (`@name`) may be forward references; they are
/// resolved after all functions have been parsed.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new();
    // (function index, inst position) -> callee name, resolved at the end.
    let mut pending: Vec<(usize, crate::InstId, PendingCall)> = Vec::new();

    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln0, raw)) = lines.next() {
        let line = ln0 + 1;
        let l = strip_comment(raw).trim();
        if l.is_empty() {
            continue;
        }
        let Some(rest) = l.strip_prefix("func ") else {
            return err(line, format!("expected `func`, got `{l}`"));
        };
        // Signature: @name(ty, ty) [-> ty] {
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix('@') else {
            return err(line, "expected `@name`");
        };
        let open = rest
            .find('(')
            .ok_or_else(|| ParseError { line, message: "expected `(`".into() })?;
        let name = rest[..open].to_string();
        let close = rest
            .find(')')
            .ok_or_else(|| ParseError { line, message: "expected `)`".into() })?;
        let params_src = &rest[open + 1..close];
        let mut params = Vec::new();
        for p in params_src.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            params.push(parse_ty(p, line)?);
        }
        let tail = rest[close + 1..].trim();
        let (ret, tail) = match tail.strip_prefix("->") {
            Some(t) => {
                let t = t.trim();
                let (ty_str, brace) = t
                    .split_once('{')
                    .ok_or_else(|| ParseError { line, message: "expected `{`".into() })?;
                let _ = brace;
                (Some(parse_ty(ty_str.trim(), line)?), "{")
            }
            None => (None, tail),
        };
        if !tail.starts_with('{') {
            return err(line, "expected `{` after signature");
        }

        let mut func = Function::new(name, params, ret);
        func.blocks.clear();
        let fidx = module.functions.len();
        let mut max_reg = func.reg_count;

        // Body until `}`.
        let mut cur_block: Option<usize> = None;
        loop {
            let Some((ln0, raw)) = lines.next() else {
                return err(line, "unexpected end of input inside function");
            };
            let bline = ln0 + 1;
            let l = strip_comment(raw).trim();
            if l.is_empty() {
                continue;
            }
            if l == "}" {
                break;
            }
            if let Some(lbl) = l.strip_suffix(':') {
                let id = parse_block_id(lbl, bline)?;
                if id.index() != func.blocks.len() {
                    return err(bline, format!("blocks must be declared in order, got {lbl}"));
                }
                func.blocks.push(Block::default());
                cur_block = Some(id.index());
                continue;
            }
            let Some(bi) = cur_block else {
                return err(bline, "instruction before first block label");
            };
            let (inst, callee) = parse_inst(l, bline)?;
            for u in inst.uses() {
                max_reg = max_reg.max(u.0 + 1);
            }
            if let Some(d) = inst.dst() {
                max_reg = max_reg.max(d.0 + 1);
            }
            let iid = crate::InstId::new(BlockId(bi as u32), func.blocks[bi].insts.len());
            func.blocks[bi].insts.push(inst);
            if let Some(c) = callee {
                pending.push((fidx, iid, c));
            }
        }
        func.reg_count = max_reg;
        module.functions.push(func);
    }

    // Resolve callee names.
    for (fidx, iid, call) in pending {
        let target = module
            .function_by_name(&call.func_name)
            .ok_or_else(|| ParseError {
                line: call.line,
                message: format!("unknown function `@{}`", call.func_name),
            })?;
        if let Inst::Call { func, .. } = module.functions[fidx].inst_mut(iid) {
            *func = target;
        }
    }
    Ok(module)
}

/// Parse a single function (convenience for tests).
///
/// # Errors
/// Same as [`parse_module`]; additionally errors if the text does not
/// contain exactly one function.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let m = parse_module(text)?;
    if m.functions.len() != 1 {
        return err(0, format!("expected exactly one function, got {}", m.functions.len()));
    }
    Ok(m.functions.into_iter().next().expect("one function"))
}

fn strip_comment(l: &str) -> &str {
    match l.find("//") {
        Some(i) => &l[..i],
        None => l,
    }
}

type InstAndCallee = (Inst, Option<PendingCall>);

fn parse_inst(l: &str, line: usize) -> Result<InstAndCallee, ParseError> {
    // Forms: `dst = op ...` or `op ...`.
    if let Some((lhs, rhs)) = l.split_once('=') {
        let dst = parse_reg(lhs.trim(), line)?;
        let (inst, callee) = parse_rhs(dst, rhs.trim(), line)?;
        Ok((inst, callee))
    } else {
        parse_stmt(l, line)
    }
}

fn operands(s: &str, line: usize) -> Result<Vec<Reg>, ParseError> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| parse_reg(p, line))
        .collect()
}

fn parse_rhs(dst: Reg, rhs: &str, line: usize) -> Result<InstAndCallee, ParseError> {
    let (head, tail) = match rhs.split_once(' ') {
        Some((h, t)) => (h, t.trim()),
        None => (rhs, ""),
    };
    if head == "call" || head.starts_with("call") && tail.is_empty() {
        return parse_call(Some(dst), rhs, line);
    }
    let (op, suffix) = split_dot(head);
    match op {
        "const" => {
            let ty = parse_ty(suffix.unwrap_or(""), line)?;
            let value = tail
                .parse::<i64>()
                .map_err(|_| ParseError { line, message: format!("bad constant `{tail}`") })?;
            Ok((Inst::Const { dst, value, ty }, None))
        }
        "constf" => {
            let value = tail
                .parse::<f64>()
                .map_err(|_| ParseError { line, message: format!("bad float `{tail}`") })?;
            Ok((Inst::ConstF { dst, value }, None))
        }
        "copy" => {
            let ty = parse_ty(suffix.unwrap_or(""), line)?;
            let src = parse_reg(tail, line)?;
            Ok((Inst::Copy { dst, src, ty }, None))
        }
        "extend" => {
            let from = parse_width(suffix.unwrap_or(""), line)?;
            let src = parse_reg(tail, line)?;
            Ok((Inst::Extend { dst, src, from }, None))
        }
        "justext" => {
            let from = parse_width(suffix.unwrap_or(""), line)?;
            let src = parse_reg(tail, line)?;
            Ok((Inst::JustExtended { dst, src, from }, None))
        }
        "newarray" => {
            let elem = parse_ty(suffix.unwrap_or(""), line)?;
            let len = parse_reg(tail, line)?;
            Ok((Inst::NewArray { dst, len, elem }, None))
        }
        "len" => {
            let array = parse_reg(tail, line)?;
            Ok((Inst::ArrayLen { dst, array }, None))
        }
        "aload" => {
            let elem = parse_ty(suffix.unwrap_or(""), line)?;
            let ops = operands(tail, line)?;
            if ops.len() != 2 {
                return err(line, "aload needs `array, index`");
            }
            Ok((Inst::ArrayLoad { dst, array: ops[0], index: ops[1], elem }, None))
        }
        "set" => {
            // set.<cond>.<ty>
            let (cond_s, ty_s) = split_dot(suffix.unwrap_or(""));
            let cond = parse_cond(cond_s, line)?;
            let ty = parse_ty(ty_s.unwrap_or(""), line)?;
            let ops = operands(tail, line)?;
            if ops.len() != 2 {
                return err(line, "set needs two operands");
            }
            Ok((Inst::Setcc { cond, ty, dst, lhs: ops[0], rhs: ops[1] }, None))
        }
        _ => {
            if let Some(bin) = parse_bin_op(op) {
                let ty = parse_ty(suffix.unwrap_or(""), line)?;
                let ops = operands(tail, line)?;
                if ops.len() != 2 {
                    return err(line, format!("{op} needs two operands"));
                }
                return Ok((Inst::Bin { op: bin, ty, dst, lhs: ops[0], rhs: ops[1] }, None));
            }
            if let Some(un) = parse_un_op(op) {
                let ty = parse_ty(suffix.unwrap_or(""), line)?;
                let src = parse_reg(tail, line)?;
                return Ok((Inst::Un { op: un, ty, dst, src }, None));
            }
            err(line, format!("unknown instruction `{op}`"))
        }
    }
}

fn parse_call(dst: Option<Reg>, text: &str, line: usize) -> Result<InstAndCallee, ParseError> {
    // call @name(r1, r2)
    let rest = text
        .trim()
        .strip_prefix("call")
        .ok_or_else(|| ParseError { line, message: "expected `call`".into() })?
        .trim();
    let rest = rest
        .strip_prefix('@')
        .ok_or_else(|| ParseError { line, message: "expected `@name`".into() })?;
    let open = rest
        .find('(')
        .ok_or_else(|| ParseError { line, message: "expected `(`".into() })?;
    let name = rest[..open].to_string();
    let close = rest
        .rfind(')')
        .ok_or_else(|| ParseError { line, message: "expected `)`".into() })?;
    let args = operands(&rest[open + 1..close], line)?;
    Ok((
        Inst::Call { dst, func: FuncId(u32::MAX), args, ret: None },
        Some(PendingCall { func_name: name, line }),
    ))
}

fn parse_stmt(l: &str, line: usize) -> Result<InstAndCallee, ParseError> {
    let (head, tail) = match l.split_once(' ') {
        Some((h, t)) => (h, t.trim()),
        None => (l, ""),
    };
    let (op, suffix) = split_dot(head);
    match op {
        "nop" => Ok((Inst::Nop, None)),
        "astore" => {
            let elem = parse_ty(suffix.unwrap_or(""), line)?;
            let ops = operands(tail, line)?;
            if ops.len() != 3 {
                return err(line, "astore needs `array, index, src`");
            }
            Ok((Inst::ArrayStore { array: ops[0], index: ops[1], src: ops[2], elem }, None))
        }
        "call" => parse_call(None, l, line),
        "br" => Ok((Inst::Br { target: parse_block_id(tail, line)? }, None)),
        "condbr" => {
            // condbr <cond>.<ty> lhs, rhs, then, else
            let (ct, rest) = tail
                .split_once(' ')
                .ok_or_else(|| ParseError { line, message: "condbr needs operands".into() })?;
            let (cond_s, ty_s) = split_dot(ct);
            let cond = parse_cond(cond_s, line)?;
            let ty = parse_ty(ty_s.unwrap_or(""), line)?;
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 4 {
                return err(line, "condbr needs `lhs, rhs, then, else`");
            }
            Ok((
                Inst::CondBr {
                    cond,
                    ty,
                    lhs: parse_reg(parts[0], line)?,
                    rhs: parse_reg(parts[1], line)?,
                    then_bb: parse_block_id(parts[2], line)?,
                    else_bb: parse_block_id(parts[3], line)?,
                },
                None,
            ))
        }
        "ret" => {
            let value = if tail.is_empty() { None } else { Some(parse_reg(tail, line)?) };
            Ok((Inst::Ret { value }, None))
        }
        _ => err(line, format!("unknown statement `{op}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUNDTRIP: &str = "\
func @kernel(i32, i32) -> f64 {
b0:
    r2 = const.i32 10
    r3 = constf 2.5
    r4 = newarray.i32 r2
    r5 = len r4
    br b1
b1:
    r6 = add.i32 r0, r1
    r6 = extend.32 r6
    r7 = aload.i32 r4, r6
    r7 = justext.32 r7
    astore.i16 r4, r6, r7
    r8 = set.lt.i32 r7, r5
    condbr gt.i64 r8, r2, b1, b2
b2:
    r9 = i32tof64.f64 r6
    nop
    ret r9
}
";

    #[test]
    fn round_trip() {
        let m = parse_module(ROUNDTRIP).expect("parses");
        let printed = m.to_string();
        let m2 = parse_module(&printed).expect("reparses");
        assert_eq!(m, m2);
    }

    #[test]
    fn parses_signature() {
        let f = parse_function("func @g(i32, f64) -> i64 {\nb0:\n    ret r2\n}\n").unwrap();
        assert_eq!(f.name, "g");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Some(Ty::I64));
        assert_eq!(f.reg_count, 3);
    }

    #[test]
    fn void_function() {
        let f = parse_function("func @v() {\nb0:\n    ret\n}\n").unwrap();
        assert_eq!(f.ret, None);
        assert!(f.params.is_empty());
    }

    #[test]
    fn comments_ignored() {
        let f = parse_function(
            "// header\nfunc @c() {\nb0: // entry\n    ret // done\n}\n",
        )
        .unwrap();
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    fn calls_resolve_forward() {
        let m = parse_module(
            "func @a() -> i32 {\nb0:\n    r0 = call @b()\n    ret r0\n}\n\
             func @b() -> i32 {\nb0:\n    r0 = const.i32 3\n    ret r0\n}\n",
        )
        .unwrap();
        let a = m.function(m.function_by_name("a").unwrap());
        match &a.blocks[0].insts[0] {
            Inst::Call { func, .. } => assert_eq!(*func, m.function_by_name("b").unwrap()),
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let e = parse_module("func @x() {\nb0:\n    r0 = bogus.i32 r1\n}\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn unknown_callee_is_error() {
        let e = parse_module("func @x() {\nb0:\n    call @nope()\n    ret\n}\n").unwrap_err();
        assert!(e.message.contains("nope"));
    }
}
