//! Parsing: the inverse of [`disasm`](crate::disasm()) — every textual
//! form the disassembler emits reads back to the identical kernel-IR
//! instruction. The asm → disasm → asm roundtrip is locked by the
//! `isa_properties` fuzz suite.
//!
//! # Examples
//!
//! ```
//! use eve_isa::{parse_inst, Inst};
//! let inst = parse_inst("vadd.vi v3, v1, 7, v0.t")?;
//! assert_eq!(inst.to_string(), "vadd.vi v3, v1, 7, v0.t");
//! assert!(inst.is_vector());
//! # Ok::<(), eve_isa::ParseError>(())
//! ```

use crate::inst::{
    BranchCond, Inst, MaskOp, MemWidth, RedOp, ScalarOp, VArithOp, VCmpCond, VOperand, VStride,
};
use crate::reg::{Vreg, Xreg};
use std::fmt;

/// A line that is not a well-formed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong, quoting the offending text.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

fn xr(tok: &str) -> Result<Xreg, ParseError> {
    tok.strip_prefix('x')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|n| *n < 32)
        .map(Xreg::new)
        .ok_or_else(|| err(format!("bad scalar register `{tok}`")))
}

fn vvr(tok: &str) -> Result<Vreg, ParseError> {
    tok.strip_prefix('v')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|n| *n < 32)
        .map(Vreg::new)
        .ok_or_else(|| err(format!("bad vector register `{tok}`")))
}

fn int<T: std::str::FromStr>(tok: &str) -> Result<T, ParseError> {
    tok.parse().map_err(|_| err(format!("bad integer `{tok}`")))
}

fn target(tok: &str) -> Result<u32, ParseError> {
    tok.strip_prefix('@')
        .ok_or_else(|| err(format!("branch target `{tok}` must be `@index`")))
        .and_then(int)
}

/// `(x11)` — the base of a vector memory operand.
fn paren_base(tok: &str) -> Result<Xreg, ParseError> {
    tok.strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| err(format!("expected `(base)`, got `{tok}`")))
        .and_then(xr)
}

/// `8(x10)` — a scalar memory operand.
fn offset_base(tok: &str) -> Result<(i64, Xreg), ParseError> {
    let (off, rest) = tok
        .split_once('(')
        .ok_or_else(|| err(format!("expected `offset(base)`, got `{tok}`")))?;
    let base = rest
        .strip_suffix(')')
        .ok_or_else(|| err(format!("unclosed paren in `{tok}`")))?;
    Ok((int(off)?, xr(base)?))
}

fn expect(mn: &str, ops: &[&str], n: usize) -> Result<(), ParseError> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(err(format!("{mn} takes {n} operand(s), got {}", ops.len())))
    }
}

fn scalar_op(name: &str) -> Option<ScalarOp> {
    Some(match name {
        "add" => ScalarOp::Add,
        "sub" => ScalarOp::Sub,
        "mul" => ScalarOp::Mul,
        "div" => ScalarOp::Div,
        "rem" => ScalarOp::Rem,
        "and" => ScalarOp::And,
        "or" => ScalarOp::Or,
        "xor" => ScalarOp::Xor,
        "sll" => ScalarOp::Sll,
        "srl" => ScalarOp::Srl,
        "sra" => ScalarOp::Sra,
        "slt" => ScalarOp::Slt,
        "sltu" => ScalarOp::Sltu,
        _ => return None,
    })
}

fn varith(name: &str) -> Option<VArithOp> {
    Some(match name {
        "vadd" => VArithOp::Add,
        "vsub" => VArithOp::Sub,
        "vrsub" => VArithOp::Rsub,
        "vmul" => VArithOp::Mul,
        "vmacc" => VArithOp::Macc,
        "vmulh" => VArithOp::Mulh,
        "vmulhu" => VArithOp::Mulhu,
        "vdiv" => VArithOp::Div,
        "vdivu" => VArithOp::Divu,
        "vrem" => VArithOp::Rem,
        "vremu" => VArithOp::Remu,
        "vand" => VArithOp::And,
        "vor" => VArithOp::Or,
        "vxor" => VArithOp::Xor,
        "vsll" => VArithOp::Sll,
        "vsrl" => VArithOp::Srl,
        "vsra" => VArithOp::Sra,
        "vmin" => VArithOp::Min,
        "vmax" => VArithOp::Max,
        "vminu" => VArithOp::Minu,
        "vmaxu" => VArithOp::Maxu,
        _ => return None,
    })
}

fn vcmp(name: &str) -> Option<VCmpCond> {
    Some(match name {
        "vmseq" => VCmpCond::Eq,
        "vmsne" => VCmpCond::Ne,
        "vmslt" => VCmpCond::Lt,
        "vmsltu" => VCmpCond::Ltu,
        "vmsle" => VCmpCond::Le,
        "vmsleu" => VCmpCond::Leu,
        "vmsgt" => VCmpCond::Gt,
        "vmsgtu" => VCmpCond::Gtu,
        _ => return None,
    })
}

fn branch(name: &str) -> Option<BranchCond> {
    Some(match name {
        "beq" => BranchCond::Eq,
        "bne" => BranchCond::Ne,
        "blt" => BranchCond::Lt,
        "bge" => BranchCond::Ge,
        "bltu" => BranchCond::Ltu,
        "bgeu" => BranchCond::Geu,
        _ => return None,
    })
}

/// The `.vv`/`.vx`/`.vi` right-hand side of a vector instruction.
fn rhs(mode: &str, tok: &str) -> Result<VOperand, ParseError> {
    match mode {
        "vv" | "v" => Ok(VOperand::Reg(vvr(tok)?)),
        "vx" | "x" => Ok(VOperand::Scalar(xr(tok)?)),
        "vi" | "i" => Ok(VOperand::Imm(int(tok)?)),
        _ => Err(err(format!("bad operand mode `.{mode}`"))),
    }
}

/// Pops a trailing `v0.t` mask annotation, if present.
fn pop_mask(ops: &mut Vec<&str>) -> bool {
    if ops.last() == Some(&"v0.t") {
        ops.pop();
        true
    } else {
        false
    }
}

/// Parses one instruction in the disassembler's textual form.
///
/// # Errors
///
/// Returns [`ParseError`] quoting what could not be read.
#[allow(clippy::too_many_lines)]
pub fn parse_inst(text: &str) -> Result<Inst, ParseError> {
    let text = text.trim();
    let (mn, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    if mn.is_empty() {
        return Err(err("empty instruction"));
    }
    let mut ops: Vec<&str> = if rest.trim().is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };

    // Mnemonics without a dot: scalar world plus a few exact names.
    match mn {
        "halt" => {
            expect(mn, &ops, 0)?;
            return Ok(Inst::Halt);
        }
        "vmfence" => {
            expect(mn, &ops, 0)?;
            return Ok(Inst::VMFence);
        }
        "li" => {
            expect(mn, &ops, 2)?;
            return Ok(Inst::Li {
                rd: xr(ops[0])?,
                imm: int(ops[1])?,
            });
        }
        "j" => {
            expect(mn, &ops, 1)?;
            return Ok(Inst::Jump {
                target: target(ops[0])?,
            });
        }
        "vsetvli" => {
            expect(mn, &ops, 3)?;
            if ops[2] != "e32" {
                return Err(err(format!("vsetvli supports only e32, got `{}`", ops[2])));
            }
            return Ok(Inst::SetVl {
                rd: xr(ops[0])?,
                avl: xr(ops[1])?,
            });
        }
        "lb" | "lh" | "lw" | "ld" | "sb" | "sh" | "sw" | "sd" => {
            expect(mn, &ops, 2)?;
            let width = match &mn[1..] {
                "b" => MemWidth::B,
                "h" => MemWidth::H,
                "w" => MemWidth::W,
                _ => MemWidth::D,
            };
            let (offset, base) = offset_base(ops[1])?;
            return Ok(if mn.starts_with('l') {
                Inst::Load {
                    width,
                    rd: xr(ops[0])?,
                    base,
                    offset,
                }
            } else {
                Inst::Store {
                    width,
                    src: xr(ops[0])?,
                    base,
                    offset,
                }
            });
        }
        _ => {}
    }
    if let Some(cond) = branch(mn) {
        expect(mn, &ops, 3)?;
        return Ok(Inst::Branch {
            cond,
            rs1: xr(ops[0])?,
            rs2: xr(ops[1])?,
            target: target(ops[2])?,
        });
    }
    if let Some(op) = scalar_op(mn) {
        expect(mn, &ops, 3)?;
        return Ok(Inst::Op {
            op,
            rd: xr(ops[0])?,
            rs1: xr(ops[1])?,
            rs2: xr(ops[2])?,
        });
    }
    if let Some(op) = mn.strip_suffix('i').and_then(scalar_op) {
        expect(mn, &ops, 3)?;
        return Ok(Inst::OpImm {
            op,
            rd: xr(ops[0])?,
            rs1: xr(ops[1])?,
            imm: int(ops[2])?,
        });
    }

    // Everything else is `base.suffix` vector syntax.
    let Some((base, suffix)) = mn.split_once('.') else {
        return Err(err(format!("unknown instruction `{mn}`")));
    };
    match (base, suffix) {
        ("vle32" | "vse32", "v") => {
            let masked = pop_mask(&mut ops);
            expect(mn, &ops, 2)?;
            let (reg, mem_base) = (vvr(ops[0])?, paren_base(ops[1])?);
            Ok(build_vmem(base, reg, mem_base, VStride::Unit, masked))
        }
        ("vlse32" | "vsse32", "v") => {
            let masked = pop_mask(&mut ops);
            expect(mn, &ops, 3)?;
            let stride = VStride::Strided(xr(ops[2])?);
            Ok(build_vmem(
                base,
                vvr(ops[0])?,
                paren_base(ops[1])?,
                stride,
                masked,
            ))
        }
        ("vluxei32" | "vsuxei32", "v") => {
            let masked = pop_mask(&mut ops);
            expect(mn, &ops, 3)?;
            let stride = VStride::Indexed(vvr(ops[2])?);
            Ok(build_vmem(
                base,
                vvr(ops[0])?,
                paren_base(ops[1])?,
                stride,
                masked,
            ))
        }
        ("vid", "v") => {
            expect(mn, &ops, 1)?;
            Ok(Inst::VId { vd: vvr(ops[0])? })
        }
        ("vmv", "v.v" | "v.x" | "v.i") => {
            expect(mn, &ops, 2)?;
            Ok(Inst::VMv {
                vd: vvr(ops[0])?,
                rhs: rhs(&suffix[2..], ops[1])?,
            })
        }
        ("vmv", "x.s") => {
            expect(mn, &ops, 2)?;
            Ok(Inst::VMvXS {
                rd: xr(ops[0])?,
                vs: vvr(ops[1])?,
            })
        }
        ("vmv", "s.x") => {
            expect(mn, &ops, 2)?;
            Ok(Inst::VMvSX {
                vd: vvr(ops[0])?,
                rs: xr(ops[1])?,
            })
        }
        ("vmnot", "m") => {
            expect(mn, &ops, 2)?;
            let (md, m1) = (vvr(ops[0])?, vvr(ops[1])?);
            // `vmnot.m` has no second source; it parses as itself.
            Ok(Inst::VMask {
                op: MaskOp::Not,
                md,
                m1,
                m2: m1,
            })
        }
        ("vmand" | "vmor" | "vmxor" | "vmandn", "mm") => {
            expect(mn, &ops, 3)?;
            let op = match base {
                "vmand" => MaskOp::And,
                "vmor" => MaskOp::Or,
                "vmxor" => MaskOp::Xor,
                _ => MaskOp::AndNot,
            };
            Ok(Inst::VMask {
                op,
                md: vvr(ops[0])?,
                m1: vvr(ops[1])?,
                m2: vvr(ops[2])?,
            })
        }
        // `.m` is the vector-vector form: the disassembler compresses
        // `vvm` to `m` (both leading v's trimmed).
        ("vmerge", "m" | "xm" | "im") => {
            if ops.last() != Some(&"v0") {
                return Err(err("vmerge requires a trailing `v0` mask operand"));
            }
            ops.pop();
            expect(mn, &ops, 3)?;
            let mode = match suffix {
                "m" => "v",
                other => &other[..1],
            };
            Ok(Inst::VMerge {
                vd: vvr(ops[0])?,
                vs1: vvr(ops[1])?,
                rhs: rhs(mode, ops[2])?,
            })
        }
        ("vrgather", "vv") => {
            expect(mn, &ops, 3)?;
            Ok(Inst::VRGather {
                vd: vvr(ops[0])?,
                vs: vvr(ops[1])?,
                idx: vvr(ops[2])?,
            })
        }
        ("vslideup" | "vslidedown", "vx") => {
            expect(mn, &ops, 3)?;
            Ok(Inst::VSlide {
                vd: vvr(ops[0])?,
                vs: vvr(ops[1])?,
                amount: xr(ops[2])?,
                up: base == "vslideup",
            })
        }
        ("vredsum" | "vredmin" | "vredmax" | "vredminu" | "vredmaxu", "vs") => {
            expect(mn, &ops, 3)?;
            let op = match base {
                "vredsum" => RedOp::Sum,
                "vredmin" => RedOp::Min,
                "vredmax" => RedOp::Max,
                "vredminu" => RedOp::Minu,
                _ => RedOp::Maxu,
            };
            Ok(Inst::VRed {
                op,
                vd: vvr(ops[0])?,
                vs2: vvr(ops[1])?,
                vs1: vvr(ops[2])?,
            })
        }
        _ => {
            if let Some(cond) = vcmp(base) {
                expect(mn, &ops, 3)?;
                return Ok(Inst::VCmp {
                    cond,
                    vd: vvr(ops[0])?,
                    vs1: vvr(ops[1])?,
                    rhs: rhs(suffix, ops[2])?,
                });
            }
            if let Some(op) = varith(base) {
                let masked = pop_mask(&mut ops);
                expect(mn, &ops, 3)?;
                return Ok(Inst::VOp {
                    op,
                    vd: vvr(ops[0])?,
                    vs1: vvr(ops[1])?,
                    rhs: rhs(suffix, ops[2])?,
                    masked,
                });
            }
            Err(err(format!("unknown instruction `{mn}`")))
        }
    }
}

fn build_vmem(base: &str, reg: Vreg, mem_base: Xreg, stride: VStride, masked: bool) -> Inst {
    if base.starts_with("vl") {
        Inst::VLoad {
            vd: reg,
            base: mem_base,
            stride,
            masked,
        }
    } else {
        Inst::VStore {
            vs: reg,
            base: mem_base,
            stride,
            masked,
        }
    }
}

/// Parses a whole listing, one instruction per line. Blank lines are
/// skipped; a leading `  3:` line number (as printed by
/// [`disasm`](crate::disasm::disasm)) is stripped, so a disassembly
/// feeds straight back in.
///
/// # Errors
///
/// Returns the first line's [`ParseError`], prefixed with its line
/// number.
pub fn parse_program(text: &str) -> Result<Vec<Inst>, ParseError> {
    let mut insts = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let mut line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some((prefix, rest)) = line.split_once(':') {
            if prefix.trim().parse::<usize>().is_ok() {
                line = rest.trim();
            }
        }
        insts.push(
            parse_inst(line).map_err(|e| err(format!("line {}: {}", lineno + 1, e.message)))?,
        );
    }
    Ok(insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{vreg, xreg};

    #[test]
    fn scalar_forms_roundtrip() {
        for text in [
            "li x10, -3",
            "add x1, x2, x3",
            "sltui x4, x5, 17",
            "lw x6, -8(x10)",
            "sd x7, 0(x2)",
            "bne x5, x0, @4",
            "j @9",
            "halt",
            "vsetvli x5, x10, e32",
            "vmfence",
        ] {
            assert_eq!(parse_inst(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn vector_forms_roundtrip() {
        for text in [
            "vle32.v v1, (x11)",
            "vlse32.v v1, (x11), x12, v0.t",
            "vsuxei32.v v2, (x3), v4",
            "vadd.vi v3, v1, 7, v0.t",
            "vmacc.vx v3, v1, x9",
            "vmseq.vi v0, v1, 0",
            "vmerge.im v2, v3, -5, v0",
            "vmerge.m v2, v3, v4, v0",
            "vmandn.mm v1, v2, v3",
            "vmnot.m v1, v2",
            "vmv.v.i v5, 42",
            "vmv.x.s x5, v9",
            "vredmaxu.vs v4, v2, v3",
            "vslidedown.vx v1, v2, x3",
            "vrgather.vv v1, v2, v3",
            "vid.v v7",
        ] {
            assert_eq!(parse_inst(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        for text in [
            "",
            "frobnicate x1",
            "li x99, 3",
            "add x1, x2",
            "vadd.vz v1, v2, v3",
            "vmerge.m v1, v2, v3",
            "lw x1, (x2",
            "beq x1, x2, 4",
        ] {
            assert!(parse_inst(text).is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn listings_with_line_numbers_parse() {
        let mut a = crate::asm::Asm::new();
        a.li(xreg::A0, 64);
        a.setvl(xreg::T0, xreg::A0);
        a.vload(vreg::V1, xreg::A1);
        a.halt();
        let prog = a.assemble().unwrap();
        let text = crate::disasm::disasm(&prog);
        let parsed = parse_program(&text).unwrap();
        assert_eq!(parsed, prog.insts());
    }

    #[test]
    fn errors_name_the_line() {
        let e = parse_program("halt\nwat x1").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }
}
