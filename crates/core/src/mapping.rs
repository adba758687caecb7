//! Vector-instruction → macro-operation mapping (the VCU's decode,
//! §V-A).
//!
//! Non-memory, non-cross-element instructions become one or more
//! macro-operations executed by the VSU against the EVE SRAMs. A
//! scalar or immediate operand costs an extra `Splat` macro-op (the
//! VSU broadcasts the value into a scratch register through the
//! data-in port); shifts by a known amount unroll to exactly the
//! needed μops (§III).

use eve_isa::{Inst, MaskOp, VArithOp, VCmpCond, VOperand};
use eve_uop::MacroOpKind;

fn needs_splat(rhs: VOperand) -> bool {
    !matches!(rhs, VOperand::Reg(_))
}

fn splat_value(scalar_operand: Option<u32>) -> u32 {
    scalar_operand.unwrap_or(0)
}

/// The macro-operations of one compute instruction, held inline so the
/// VCU's decode allocates nothing. Derefs to the ops in issue order;
/// the slots past them hold copies and are never read.
#[derive(Clone, Copy)]
pub struct MacroOps {
    ops: [MacroOpKind; MacroOps::CAPACITY],
    len: u8,
}

impl MacroOps {
    /// The most macro-operations one instruction maps to: a splat, a
    /// compare and a mask inversion for `vmsle.vx`.
    const CAPACITY: usize = 3;

    fn one(op: MacroOpKind) -> Self {
        Self {
            ops: [op; Self::CAPACITY],
            len: 1,
        }
    }

    /// `op`, after a `Splat` of the scalar operand when `rhs` is one.
    fn after_splat(rhs: VOperand, scalar_operand: Option<u32>, op: MacroOpKind) -> Self {
        if needs_splat(rhs) {
            Self::one(MacroOpKind::Splat(splat_value(scalar_operand))).then(op)
        } else {
            Self::one(op)
        }
    }

    fn then(mut self, op: MacroOpKind) -> Self {
        self.ops[usize::from(self.len)] = op;
        self.len += 1;
        self
    }
}

impl std::ops::Deref for MacroOps {
    type Target = [MacroOpKind];

    fn deref(&self) -> &[MacroOpKind] {
        &self.ops[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for MacroOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Macro-operations the VCU generates for a compute instruction.
/// Returns `None` for instructions that are not VSU compute work
/// (memory, reductions, cross-element, fences — those go to the
/// VMU/VRU paths).
#[must_use]
pub fn macro_ops(inst: &Inst, scalar_operand: Option<u32>) -> Option<MacroOps> {
    use MacroOpKind as M;
    let ops = match *inst {
        Inst::VOp { op, rhs, .. } => {
            let k = splat_value(scalar_operand);
            let imm = needs_splat(rhs);
            match op {
                VArithOp::Sll if imm => MacroOps::one(M::SllI((k & 31) as u8)),
                VArithOp::Srl if imm => MacroOps::one(M::SrlI((k & 31) as u8)),
                VArithOp::Sra if imm => MacroOps::one(M::SraI((k & 31) as u8)),
                VArithOp::Sll => MacroOps::one(M::SllV),
                VArithOp::Srl => MacroOps::one(M::SrlV),
                VArithOp::Sra => MacroOps::one(M::SraV),
                _ => MacroOps::after_splat(
                    rhs,
                    scalar_operand,
                    match op {
                        VArithOp::Add => M::Add,
                        VArithOp::Sub | VArithOp::Rsub => M::Sub,
                        VArithOp::Mul => M::Mul,
                        VArithOp::Macc => M::MulAcc,
                        VArithOp::Mulh | VArithOp::Mulhu => M::Mulh,
                        VArithOp::Div => M::Div,
                        VArithOp::Divu => M::Divu,
                        VArithOp::Rem => M::Rem,
                        VArithOp::Remu => M::Remu,
                        VArithOp::And => M::And,
                        VArithOp::Or => M::Or,
                        VArithOp::Xor => M::Xor,
                        VArithOp::Min => M::Min,
                        VArithOp::Max => M::Max,
                        VArithOp::Minu => M::Minu,
                        VArithOp::Maxu => M::Maxu,
                        VArithOp::Sll | VArithOp::Srl | VArithOp::Sra => unreachable!(),
                    },
                ),
            }
        }
        Inst::VCmp { cond, rhs, .. } => {
            let cmp = |op| MacroOps::after_splat(rhs, scalar_operand, op);
            match cond {
                VCmpCond::Eq => cmp(M::CmpEq),
                VCmpCond::Ne => cmp(M::CmpNe),
                VCmpCond::Lt | VCmpCond::Gt => cmp(M::CmpLt),
                VCmpCond::Ltu | VCmpCond::Gtu => cmp(M::CmpLtu),
                VCmpCond::Le => cmp(M::CmpLt).then(M::MaskNot),
                VCmpCond::Leu => cmp(M::CmpLtu).then(M::MaskNot),
            }
        }
        Inst::VMerge { rhs, .. } => MacroOps::after_splat(rhs, scalar_operand, M::Merge),
        Inst::VMask { op, .. } => match op {
            MaskOp::And => MacroOps::one(M::MaskAnd),
            MaskOp::Or => MacroOps::one(M::MaskOr),
            MaskOp::Xor => MacroOps::one(M::MaskXor),
            MaskOp::Not => MacroOps::one(M::MaskNot),
            MaskOp::AndNot => MacroOps::one(M::MaskNot).then(M::MaskAnd),
        },
        Inst::VMv { rhs, .. } => match rhs {
            VOperand::Reg(_) => MacroOps::one(M::Mv),
            _ => MacroOps::one(M::Splat(splat_value(scalar_operand))),
        },
        _ => return None,
    };
    Some(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::vreg;

    fn vop(op: VArithOp, rhs: VOperand) -> Inst {
        Inst::VOp {
            op,
            vd: vreg::V1,
            vs1: vreg::V2,
            rhs,
            masked: false,
        }
    }

    #[test]
    fn vv_add_is_one_macro_op() {
        let ops = macro_ops(&vop(VArithOp::Add, VOperand::Reg(vreg::V3)), None).unwrap();
        assert_eq!(ops[..], [MacroOpKind::Add]);
    }

    #[test]
    fn vx_add_needs_a_splat() {
        let ops = macro_ops(&vop(VArithOp::Add, VOperand::Imm(7)), Some(7)).unwrap();
        assert_eq!(ops[..], [MacroOpKind::Splat(7), MacroOpKind::Add]);
    }

    #[test]
    fn scalar_shift_carries_the_amount() {
        let ops = macro_ops(&vop(VArithOp::Sll, VOperand::Imm(13)), Some(13)).unwrap();
        assert_eq!(ops[..], [MacroOpKind::SllI(13)]);
        let ops = macro_ops(&vop(VArithOp::Sra, VOperand::Imm(45)), Some(45)).unwrap();
        assert_eq!(ops[..], [MacroOpKind::SraI(13)]); // masked to 31
    }

    #[test]
    fn vector_shift_uses_variable_program() {
        let ops = macro_ops(&vop(VArithOp::Srl, VOperand::Reg(vreg::V4)), None).unwrap();
        assert_eq!(ops[..], [MacroOpKind::SrlV]);
    }

    #[test]
    fn le_compare_costs_an_extra_mask_not() {
        let i = Inst::VCmp {
            cond: VCmpCond::Le,
            vd: vreg::V0,
            vs1: vreg::V1,
            rhs: VOperand::Reg(vreg::V2),
        };
        let ops = macro_ops(&i, None).unwrap();
        assert_eq!(ops[..], [MacroOpKind::CmpLt, MacroOpKind::MaskNot]);
        // The longest mapping: a splat-fed `vmsleu.vx`.
        let i = Inst::VCmp {
            cond: VCmpCond::Leu,
            vd: vreg::V0,
            vs1: vreg::V1,
            rhs: VOperand::Scalar(eve_isa::xreg::A0),
        };
        let ops = macro_ops(&i, Some(9)).unwrap();
        assert_eq!(
            ops[..],
            [
                MacroOpKind::Splat(9),
                MacroOpKind::CmpLtu,
                MacroOpKind::MaskNot
            ]
        );
    }

    #[test]
    fn memory_and_xe_are_not_compute() {
        assert!(macro_ops(&Inst::VMFence, None).is_none());
        assert!(macro_ops(&Inst::VId { vd: vreg::V1 }, None).is_none());
        assert!(macro_ops(
            &Inst::VLoad {
                vd: vreg::V1,
                base: eve_isa::xreg::A0,
                stride: eve_isa::VStride::Unit,
                masked: false
            },
            None
        )
        .is_none());
    }

    #[test]
    fn broadcast_move() {
        let i = Inst::VMv {
            vd: vreg::V1,
            rhs: VOperand::Imm(42),
        };
        assert_eq!(
            macro_ops(&i, Some(42)).unwrap()[..],
            [MacroOpKind::Splat(42)]
        );
        let i = Inst::VMv {
            vd: vreg::V1,
            rhs: VOperand::Reg(vreg::V2),
        };
        assert_eq!(macro_ops(&i, None).unwrap()[..], [MacroOpKind::Mv]);
    }
}
