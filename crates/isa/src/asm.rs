//! Label-resolving assembler for kernel-IR programs.
//!
//! [`Asm`] plays the role LLVM played for the paper's hand-vectorized
//! kernels: a convenient way to write scalar + RVV-style assembly. Each
//! mnemonic method appends one [`Inst`]; [`Asm::assemble`] resolves
//! labels into a [`Program`].

use crate::inst::{
    BranchCond, Inst, MaskOp, MemWidth, RedOp, ScalarOp, VArithOp, VCmpCond, VOperand, VStride,
};
use crate::interp::IsaError;
use crate::reg::{Vreg, Xreg};
use std::collections::HashMap;

/// An assembled, label-resolved program. The default program has no
/// instructions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// The instructions, in order. Branch targets index this slice.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// The assembler. See the crate-level example for typical use.
#[derive(Debug, Default)]
pub struct Asm {
    insts: Vec<Inst>,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String)>,
}

impl Asm {
    /// Starts an empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is redefined.
    pub fn label(&mut self, name: &str) {
        let prev = self.labels.insert(name.to_owned(), self.insts.len() as u32);
        assert!(prev.is_none(), "label {name} defined twice");
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Resolves labels and returns the program.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UndefinedLabel`] if a branch references a
    /// label that was never defined.
    pub fn assemble(mut self) -> Result<Program, IsaError> {
        for (at, name) in &self.fixups {
            let Some(&target) = self.labels.get(name) else {
                return Err(IsaError::UndefinedLabel(name.clone()));
            };
            match &mut self.insts[*at] {
                Inst::Branch { target: t, .. } | Inst::Jump { target: t } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        Ok(Program { insts: self.insts })
    }

    // ---- scalar ----

    /// `rd = imm`.
    pub fn li(&mut self, rd: Xreg, imm: i64) {
        self.push(Inst::Li { rd, imm });
    }

    /// `rd = rs` (scalar move).
    pub fn mv(&mut self, rd: Xreg, rs: Xreg) {
        self.addi(rd, rs, 0);
    }

    fn op(&mut self, op: ScalarOp, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.push(Inst::Op { op, rd, rs1, rs2 });
    }

    fn op_imm(&mut self, op: ScalarOp, rd: Xreg, rs1: Xreg, imm: i64) {
        self.push(Inst::OpImm { op, rd, rs1, imm });
    }

    /// `rd = rs1 + rs2`.
    pub fn add(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Add, rd, rs1, rs2);
    }

    /// `rd = rs1 - rs2`.
    pub fn sub(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Sub, rd, rs1, rs2);
    }

    /// `rd = rs1 * rs2`.
    pub fn mul(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Mul, rd, rs1, rs2);
    }

    /// `rd = rs1 / rs2` (signed).
    pub fn div(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Div, rd, rs1, rs2);
    }

    /// `rd = rs1 % rs2` (signed).
    pub fn rem(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Rem, rd, rs1, rs2);
    }

    /// `rd = rs1 & rs2`.
    pub fn and(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::And, rd, rs1, rs2);
    }

    /// `rd = rs1 | rs2`.
    pub fn or(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Or, rd, rs1, rs2);
    }

    /// `rd = rs1 ^ rs2`.
    pub fn xor(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Xor, rd, rs1, rs2);
    }

    /// `rd = rs1 << rs2`.
    pub fn sll(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Sll, rd, rs1, rs2);
    }

    /// `rd = rs1 < rs2` (signed).
    pub fn slt(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Slt, rd, rs1, rs2);
    }

    /// `rd = rs1 < rs2` (unsigned).
    pub fn sltu(&mut self, rd: Xreg, rs1: Xreg, rs2: Xreg) {
        self.op(ScalarOp::Sltu, rd, rs1, rs2);
    }

    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: Xreg, rs1: Xreg, imm: i64) {
        self.op_imm(ScalarOp::Add, rd, rs1, imm);
    }

    /// `rd = rs1 * imm`.
    pub fn muli(&mut self, rd: Xreg, rs1: Xreg, imm: i64) {
        self.op_imm(ScalarOp::Mul, rd, rs1, imm);
    }

    /// `rd = rs1 & imm`.
    pub fn andi(&mut self, rd: Xreg, rs1: Xreg, imm: i64) {
        self.op_imm(ScalarOp::And, rd, rs1, imm);
    }

    /// `rd = rs1 << imm`.
    pub fn slli(&mut self, rd: Xreg, rs1: Xreg, imm: i64) {
        self.op_imm(ScalarOp::Sll, rd, rs1, imm);
    }

    /// `rd = rs1 >> imm` (logical).
    pub fn srli(&mut self, rd: Xreg, rs1: Xreg, imm: i64) {
        self.op_imm(ScalarOp::Srl, rd, rs1, imm);
    }

    /// `rd = rs1 >> imm` (arithmetic).
    pub fn srai(&mut self, rd: Xreg, rs1: Xreg, imm: i64) {
        self.op_imm(ScalarOp::Sra, rd, rs1, imm);
    }

    /// `rd = zext(mem8[base + offset])`.
    pub fn lb(&mut self, rd: Xreg, base: Xreg, offset: i64) {
        self.push(Inst::Load {
            width: MemWidth::B,
            rd,
            base,
            offset,
        });
    }

    /// `rd = zext(mem32[base + offset])`.
    pub fn lw(&mut self, rd: Xreg, base: Xreg, offset: i64) {
        self.push(Inst::Load {
            width: MemWidth::W,
            rd,
            base,
            offset,
        });
    }

    /// `rd = mem64[base + offset]`.
    pub fn ld(&mut self, rd: Xreg, base: Xreg, offset: i64) {
        self.push(Inst::Load {
            width: MemWidth::D,
            rd,
            base,
            offset,
        });
    }

    /// `mem8[base + offset] = src`.
    pub fn sb(&mut self, src: Xreg, base: Xreg, offset: i64) {
        self.push(Inst::Store {
            width: MemWidth::B,
            src,
            base,
            offset,
        });
    }

    /// `mem32[base + offset] = src`.
    pub fn sw(&mut self, src: Xreg, base: Xreg, offset: i64) {
        self.push(Inst::Store {
            width: MemWidth::W,
            src,
            base,
            offset,
        });
    }

    /// `mem64[base + offset] = src`.
    pub fn sd(&mut self, src: Xreg, base: Xreg, offset: i64) {
        self.push(Inst::Store {
            width: MemWidth::D,
            src,
            base,
            offset,
        });
    }

    fn branch(&mut self, cond: BranchCond, rs1: Xreg, rs2: Xreg, label: &str) {
        self.fixups.push((self.insts.len(), label.to_owned()));
        self.push(Inst::Branch {
            cond,
            rs1,
            rs2,
            target: 0,
        });
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Xreg, rs2: Xreg, label: &str) {
        self.branch(BranchCond::Eq, rs1, rs2, label);
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Xreg, rs2: Xreg, label: &str) {
        self.branch(BranchCond::Ne, rs1, rs2, label);
    }

    /// Branch if signed less-than.
    pub fn blt(&mut self, rs1: Xreg, rs2: Xreg, label: &str) {
        self.branch(BranchCond::Lt, rs1, rs2, label);
    }

    /// Branch if signed greater-or-equal.
    pub fn bge(&mut self, rs1: Xreg, rs2: Xreg, label: &str) {
        self.branch(BranchCond::Ge, rs1, rs2, label);
    }

    /// Branch if unsigned less-than.
    pub fn bltu(&mut self, rs1: Xreg, rs2: Xreg, label: &str) {
        self.branch(BranchCond::Ltu, rs1, rs2, label);
    }

    /// Branch if zero.
    pub fn beqz(&mut self, rs1: Xreg, label: &str) {
        self.branch(BranchCond::Eq, rs1, crate::reg::xreg::ZERO, label);
    }

    /// Branch if nonzero.
    pub fn bnez(&mut self, rs1: Xreg, label: &str) {
        self.branch(BranchCond::Ne, rs1, crate::reg::xreg::ZERO, label);
    }

    /// Unconditional jump.
    pub fn j(&mut self, label: &str) {
        self.fixups.push((self.insts.len(), label.to_owned()));
        self.push(Inst::Jump { target: 0 });
    }

    /// Stop execution.
    pub fn halt(&mut self) {
        self.push(Inst::Halt);
    }

    // ---- vector ----

    /// `vsetvli rd, avl, e32`.
    pub fn setvl(&mut self, rd: Xreg, avl: Xreg) {
        self.push(Inst::SetVl { rd, avl });
    }

    /// `vmfence` (§V-A).
    pub fn vmfence(&mut self) {
        self.push(Inst::VMFence);
    }

    /// `vle32.v vd, (base)`.
    pub fn vload(&mut self, vd: Vreg, base: Xreg) {
        self.push(Inst::VLoad {
            vd,
            base,
            stride: VStride::Unit,
            masked: false,
        });
    }

    /// `vlse32.v vd, (base), stride` — stride in bytes.
    pub fn vload_strided(&mut self, vd: Vreg, base: Xreg, stride: Xreg) {
        self.push(Inst::VLoad {
            vd,
            base,
            stride: VStride::Strided(stride),
            masked: false,
        });
    }

    /// `vluxei32.v vd, (base), idx` — gather with byte offsets in `idx`.
    pub fn vload_indexed(&mut self, vd: Vreg, base: Xreg, idx: Vreg) {
        self.push(Inst::VLoad {
            vd,
            base,
            stride: VStride::Indexed(idx),
            masked: false,
        });
    }

    /// `vse32.v vs, (base)`.
    pub fn vstore(&mut self, vs: Vreg, base: Xreg) {
        self.push(Inst::VStore {
            vs,
            base,
            stride: VStride::Unit,
            masked: false,
        });
    }

    /// `vsse32.v vs, (base), stride`.
    pub fn vstore_strided(&mut self, vs: Vreg, base: Xreg, stride: Xreg) {
        self.push(Inst::VStore {
            vs,
            base,
            stride: VStride::Strided(stride),
            masked: false,
        });
    }

    /// `vsuxei32.v vs, (base), idx` — scatter.
    pub fn vstore_indexed(&mut self, vs: Vreg, base: Xreg, idx: Vreg) {
        self.push(Inst::VStore {
            vs,
            base,
            stride: VStride::Indexed(idx),
            masked: false,
        });
    }

    /// Masked unit-stride store (`vse32.v vs, (base), v0.t`).
    pub fn vstore_masked(&mut self, vs: Vreg, base: Xreg) {
        self.push(Inst::VStore {
            vs,
            base,
            stride: VStride::Unit,
            masked: true,
        });
    }

    /// Masked gather (`vluxei32.v vd, (base), idx, v0.t`) — inactive
    /// lanes keep their old `vd` contents.
    pub fn vload_indexed_masked(&mut self, vd: Vreg, base: Xreg, idx: Vreg) {
        self.push(Inst::VLoad {
            vd,
            base,
            stride: VStride::Indexed(idx),
            masked: true,
        });
    }

    /// Masked scatter (`vsuxei32.v vs, (base), idx, v0.t`) — inactive
    /// lanes store nothing.
    pub fn vstore_indexed_masked(&mut self, vs: Vreg, base: Xreg, idx: Vreg) {
        self.push(Inst::VStore {
            vs,
            base,
            stride: VStride::Indexed(idx),
            masked: true,
        });
    }

    /// Generic vector ALU op.
    pub fn vop(&mut self, op: VArithOp, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.push(Inst::VOp {
            op,
            vd,
            vs1,
            rhs,
            masked: false,
        });
    }

    /// Generic masked vector ALU op (`..., v0.t`).
    pub fn vop_masked(&mut self, op: VArithOp, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.push(Inst::VOp {
            op,
            vd,
            vs1,
            rhs,
            masked: true,
        });
    }

    /// `vadd`.
    pub fn vadd(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::Add, vd, vs1, rhs);
    }

    /// `vsub`.
    pub fn vsub(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::Sub, vd, vs1, rhs);
    }

    /// `vmul`.
    pub fn vmul(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::Mul, vd, vs1, rhs);
    }

    /// `vmin` (signed).
    pub fn vmin(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::Min, vd, vs1, rhs);
    }

    /// `vmax` (signed).
    pub fn vmax(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::Max, vd, vs1, rhs);
    }

    /// `vand`.
    pub fn vand(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::And, vd, vs1, rhs);
    }

    /// `vsll`.
    pub fn vsll(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::Sll, vd, vs1, rhs);
    }

    /// `vsrl`.
    pub fn vsrl(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.vop(VArithOp::Srl, vd, vs1, rhs);
    }

    /// Vector compare into mask `vd`.
    pub fn vcmp(&mut self, cond: VCmpCond, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.push(Inst::VCmp { cond, vd, vs1, rhs });
    }

    /// `vmerge.vvm/vxm/vim`.
    pub fn vmerge(&mut self, vd: Vreg, vs1: Vreg, rhs: VOperand) {
        self.push(Inst::VMerge { vd, vs1, rhs });
    }

    /// Mask logical op.
    pub fn vmask(&mut self, op: MaskOp, md: Vreg, m1: Vreg, m2: Vreg) {
        self.push(Inst::VMask { op, md, m1, m2 });
    }

    /// `vmv.v.*`: broadcast/copy.
    pub fn vmv(&mut self, vd: Vreg, rhs: VOperand) {
        self.push(Inst::VMv { vd, rhs });
    }

    /// `vmv.x.s`.
    pub fn vmv_xs(&mut self, rd: Xreg, vs: Vreg) {
        self.push(Inst::VMvXS { rd, vs });
    }

    /// `vmv.s.x`.
    pub fn vmv_sx(&mut self, vd: Vreg, rs: Xreg) {
        self.push(Inst::VMvSX { vd, rs });
    }

    /// Reduction (`vred*.vs vd, vs2, vs1`).
    pub fn vred(&mut self, op: RedOp, vd: Vreg, vs2: Vreg, vs1: Vreg) {
        self.push(Inst::VRed { op, vd, vs2, vs1 });
    }

    /// `vslideup.vx` / `vslidedown.vx`.
    pub fn vslide(&mut self, vd: Vreg, vs: Vreg, amount: Xreg, up: bool) {
        self.push(Inst::VSlide { vd, vs, amount, up });
    }

    /// `vrgather.vv`.
    pub fn vrgather(&mut self, vd: Vreg, vs: Vreg, idx: Vreg) {
        self.push(Inst::VRGather { vd, vs, idx });
    }

    /// `vid.v`.
    pub fn vid(&mut self, vd: Vreg) {
        self.push(Inst::VId { vd });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{vreg, xreg};

    #[test]
    fn labels_resolve() {
        let mut a = Asm::new();
        a.li(xreg::T0, 3);
        a.label("top");
        a.addi(xreg::T0, xreg::T0, -1);
        a.bnez(xreg::T0, "top");
        a.halt();
        let p = a.assemble().unwrap();
        match p.insts()[2] {
            Inst::Branch { target, .. } => assert_eq!(target, 1),
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Asm::new();
        a.j("nowhere");
        let err = a.assemble().unwrap_err();
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut a = Asm::new();
        a.label("x");
        a.label("x");
    }

    #[test]
    fn vector_mnemonics_encode() {
        let mut a = Asm::new();
        a.setvl(xreg::T0, xreg::A0);
        a.vload(vreg::V1, xreg::A1);
        a.vadd(vreg::V2, vreg::V1, VOperand::Imm(5));
        a.vstore(vreg::V2, xreg::A1);
        a.vmfence();
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), 6);
        assert!(p.insts()[..5].iter().all(Inst::is_vector));
    }
}
