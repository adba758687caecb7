//! The functional interpreter and its committed-instruction stream.
//!
//! [`Interpreter::step_into`] executes one instruction into a
//! [`Retired`] record describing everything a timing model needs:
//! source/destination registers (for dependence tracking), the memory
//! footprint (for the cache hierarchy), the branch outcome (for branch
//! predictors), and the active vector length. The caller owns the
//! record and reuses it, so a step copies and allocates nothing;
//! [`Interpreter::step`] returns a fresh one instead. Architectural
//! state is updated exactly; timing is someone else's job.

use crate::asm::Program;
use crate::inst::{
    BranchCond, Inst, MaskOp, MemWidth, RedOp, ScalarOp, VArithOp, VCmpCond, VOperand, VStride,
};
use crate::mem::Memory;
use crate::reg::{RegId, Vreg, Xreg};
use std::cell::Cell;
use std::fmt;

/// Errors from assembling or executing kernel-IR programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A branch referenced a label that was never defined.
    UndefinedLabel(String),
    /// Execution left the program without reaching `Halt`.
    PcOutOfRange(u32),
    /// The dynamic-instruction budget was exhausted (runaway loop).
    BudgetExhausted(u64),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::UndefinedLabel(l) => write!(f, "undefined label {l}"),
            IsaError::PcOutOfRange(pc) => write!(f, "pc {pc} outside program"),
            IsaError::BudgetExhausted(n) => {
                write!(f, "exceeded {n} dynamic instructions without halting")
            }
        }
    }
}

impl std::error::Error for IsaError {}

/// Memory footprint of one committed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemEffect {
    /// No memory access.
    None,
    /// One scalar access.
    Scalar {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Whether it writes memory.
        store: bool,
    },
    /// Unit-stride vector access: `vl * 4` consecutive bytes.
    VecUnit {
        /// Starting byte address.
        base: u64,
        /// Total bytes (`active elements * 4`).
        bytes: u64,
        /// Whether it writes memory.
        store: bool,
    },
    /// Constant-stride vector access.
    VecStrided {
        /// Address of element 0.
        base: u64,
        /// Byte stride between elements.
        stride: i64,
        /// Number of elements accessed.
        count: u32,
        /// Whether it writes memory.
        store: bool,
    },
    /// Indexed gather/scatter: one address per element, in the
    /// record's [`Retired::addrs`].
    VecIndexed {
        /// Whether it writes memory.
        store: bool,
    },
}

impl MemEffect {
    /// Whether this effect stores to memory.
    #[must_use]
    pub fn is_store(&self) -> bool {
        match self {
            MemEffect::None => false,
            MemEffect::Scalar { store, .. }
            | MemEffect::VecUnit { store, .. }
            | MemEffect::VecStrided { store, .. }
            | MemEffect::VecIndexed { store } => *store,
        }
    }
}

/// One committed instruction, as seen by timing models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Retired {
    /// Dynamic instruction number (0-based).
    pub seq: u64,
    /// Static program counter.
    pub pc: u32,
    /// The instruction itself.
    pub inst: Inst,
    /// Source registers (dependence edges), up to four.
    pub reads: [Option<RegId>; 4],
    /// Destination register, if any.
    pub write: Option<RegId>,
    /// Memory footprint.
    pub mem: MemEffect,
    /// Element addresses of an indexed access, in element order; empty
    /// for every other footprint. A reused record keeps the buffer.
    pub addrs: Vec<u64>,
    /// Vector length in effect (vector instructions only).
    pub vl: u32,
    /// Branch outcome: `(taken, next_pc)` for branches/jumps.
    pub branch: Option<(bool, u32)>,
    /// Resolved scalar/immediate operand of a vector instruction
    /// (`.vx`/`.vi` value, slide amount) — what the VSU sees at issue
    /// time, e.g. for unrolling shift μops (§III-B).
    pub scalar_operand: Option<u32>,
}

impl Default for Retired {
    /// A blank record for [`Interpreter::step_into`] to fill.
    fn default() -> Self {
        Self {
            seq: 0,
            pc: 0,
            inst: Inst::Halt,
            reads: [None; 4],
            write: None,
            mem: MemEffect::None,
            addrs: Vec::new(),
            vl: 0,
            branch: None,
            scalar_operand: None,
        }
    }
}

/// The vector register file's first extra slot past `v31`: where a
/// source that its own destination overwrites is copied first, and
/// where a `.vx`/`.vi` operand is splatted.
const SCRATCH: usize = 32;
/// The second extra slot: every lane 1, the mask of an unmasked
/// element-wise instruction.
const ONES: usize = 33;

/// Runs `$lanes.map` with `$f($ty::V, ..)` for the variant `V` that
/// `$op` holds, so each loop is compiled for one fixed operation.
macro_rules! per_variant {
    ($op:expr, $lanes:expr, $f:ident, $ty:ident { $($v:ident)* }) => {
        match $op {
            $($ty::$v => $lanes.map(|d, x, y| $f($ty::$v, d, x, y)),)*
        }
    };
}

/// Functional interpreter over a [`Program`] and a [`Memory`].
///
/// `hw_vl` is the machine's hardware vector length in 32-bit elements —
/// what `vsetvl` saturates to (Table III: 4 for IV, 64 for DV, up to
/// 2048 for EVE).
#[derive(Debug, Clone)]
pub struct Interpreter {
    prog: Program,
    mem: Memory,
    x: [i64; 32],
    /// `v0`..`v31`, the scratch register and the all-ones register,
    /// `hw_vl` elements each.
    v: Vec<u32>,
    vl: u32,
    hw_vl: u32,
    pc: u32,
    seq: u64,
    halted: bool,
}

impl Interpreter {
    /// Creates an interpreter with all registers zero and `vl = hw_vl`.
    ///
    /// # Panics
    ///
    /// Panics if `hw_vl` is zero.
    #[must_use]
    pub fn new(prog: Program, mem: Memory, hw_vl: u32) -> Self {
        assert!(hw_vl > 0, "hardware vector length must be nonzero");
        let hw = hw_vl as usize;
        let mut v = vec![0; (ONES + 1) * hw];
        v[ONES * hw..].fill(1);
        Self {
            prog,
            mem,
            x: [0; 32],
            v,
            vl: hw_vl,
            hw_vl,
            pc: 0,
            seq: 0,
            halted: false,
        }
    }

    /// The simulated memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the simulated memory (for test setup).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Current value of a scalar register.
    #[must_use]
    pub fn xreg(&self, r: Xreg) -> i64 {
        self.x[r.index() as usize]
    }

    /// Current contents of a vector register.
    #[must_use]
    pub fn vreg(&self, r: Vreg) -> &[u32] {
        let base = self.vbase(r);
        &self.v[base..base + self.hw_vl as usize]
    }

    /// Current vector length.
    #[must_use]
    pub fn vl(&self) -> u32 {
        self.vl
    }

    /// The hardware vector length this machine saturates `vsetvl` to.
    #[must_use]
    pub fn hw_vl(&self) -> u32 {
        self.hw_vl
    }

    /// Whether `Halt` has been executed.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions retired so far.
    #[must_use]
    pub fn retired_count(&self) -> u64 {
        self.seq
    }

    /// The instruction the next [`Self::step`] will execute, without
    /// executing it. `None` once halted or if the pc escaped the
    /// program — shadow checkers use this to set up side execution
    /// before the architectural state changes.
    #[must_use]
    pub fn peek(&self) -> Option<Inst> {
        if self.halted {
            return None;
        }
        self.prog.insts().get(self.pc as usize).copied()
    }

    /// Overwrites the first `values.len()` lanes of a vector register
    /// — the fault-recovery hook that lets a detected-but-uncorrected
    /// corruption propagate architecturally (SDC modeling).
    ///
    /// # Panics
    ///
    /// Panics if more lanes are given than the register holds.
    pub fn poke_vreg(&mut self, r: Vreg, values: &[u32]) {
        assert!(
            values.len() <= self.hw_vl as usize,
            "poke of {} lanes into a {}-lane register",
            values.len(),
            self.hw_vl
        );
        let base = self.vbase(r);
        self.v[base..base + values.len()].copy_from_slice(values);
    }

    fn rx(&self, r: Xreg) -> i64 {
        self.x[r.index() as usize]
    }

    fn wx(&mut self, r: Xreg, v: i64) {
        if !r.is_zero() {
            self.x[r.index() as usize] = v;
        }
    }

    /// Where register `r`'s element 0 sits in the register file.
    fn vbase(&self, r: Vreg) -> usize {
        r.index() as usize * self.hw_vl as usize
    }

    /// Whether lane `i` is masked off: bit 0 of `v0`'s element `i` is
    /// clear.
    fn masked_off(&self, i: usize) -> bool {
        self.v[i] & 1 == 0
    }

    fn operand(&self, rhs: VOperand) -> Operand {
        match rhs {
            VOperand::Reg(v) => Operand::Reg(self.vbase(v)),
            VOperand::Scalar(x) => Operand::Splat(self.rx(x) as u32),
            VOperand::Imm(i) => Operand::Splat(i as u32),
        }
    }

    fn operand_read(rhs: VOperand) -> Option<RegId> {
        match rhs {
            VOperand::Reg(v) => Some(RegId::V(v)),
            VOperand::Scalar(x) => Some(RegId::X(x)),
            VOperand::Imm(_) => None,
        }
    }

    /// Where to read `vs` from for an instruction that writes `vd`
    /// and reads any element of `vs`: `vs` itself, or the scratch
    /// register holding a copy of its first `vl` elements when the
    /// two alias.
    fn unaliased(&mut self, vs: Vreg, vd: Vreg, vl: usize) -> usize {
        let base = self.vbase(vs);
        if vs != vd {
            return base;
        }
        let scratch = SCRATCH * self.hw_vl as usize;
        self.v.copy_within(base..base + vl, scratch);
        scratch
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` once halted. A wrapper over
    /// [`Self::step_into`] with a fresh record.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::PcOutOfRange`] if control flow escapes the
    /// program.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds memory accesses (a workload bug).
    #[inline]
    pub fn step(&mut self) -> Result<Option<Retired>, IsaError> {
        let mut out = Retired::default();
        Ok(self.step_into(&mut out)?.then_some(out))
    }

    /// Executes one instruction into `out`, a record the caller owns
    /// and reuses. Every field of `out` is written, so nothing stale
    /// survives from an earlier step, and nothing is allocated once an
    /// indexed access has grown `out.addrs` to the vector length.
    ///
    /// Returns `Ok(false)`, leaving `out` as it was, once halted.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::PcOutOfRange`] if control flow escapes the
    /// program.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds memory accesses (a workload bug).
    pub fn step_into(&mut self, out: &mut Retired) -> Result<bool, IsaError> {
        if self.halted {
            return Ok(false);
        }
        let pc = self.pc;
        let Some(&inst) = self.prog.insts().get(pc as usize) else {
            return Err(IsaError::PcOutOfRange(pc));
        };
        let vl = self.vl;
        out.seq = self.seq;
        out.pc = pc;
        out.inst = inst;
        out.reads = [None; 4];
        out.write = None;
        out.mem = MemEffect::None;
        out.addrs.clear();
        out.vl = vl;
        out.branch = None;
        out.scalar_operand = None;
        let mut next = pc + 1;

        match inst {
            Inst::Li { rd, imm } => {
                self.wx(rd, imm);
                out.write = Some(RegId::X(rd));
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                out.reads[0] = Some(RegId::X(rs1));
                out.reads[1] = Some(RegId::X(rs2));
                let v = scalar_op(op, self.rx(rs1), self.rx(rs2));
                self.wx(rd, v);
                out.write = Some(RegId::X(rd));
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                out.reads[0] = Some(RegId::X(rs1));
                let v = scalar_op(op, self.rx(rs1), imm);
                self.wx(rd, v);
                out.write = Some(RegId::X(rd));
            }
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => {
                out.reads[0] = Some(RegId::X(base));
                let addr = (self.rx(base) + offset) as u64;
                let v = match width {
                    MemWidth::B => i64::from(self.mem.load_u8(addr)),
                    MemWidth::H => i64::from(self.mem.load_u16(addr)),
                    MemWidth::W => i64::from(self.mem.load_u32(addr)),
                    MemWidth::D => self.mem.load_u64(addr) as i64,
                };
                self.wx(rd, v);
                out.write = Some(RegId::X(rd));
                out.mem = MemEffect::Scalar {
                    addr,
                    bytes: width.bytes(),
                    store: false,
                };
            }
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => {
                out.reads[0] = Some(RegId::X(src));
                out.reads[1] = Some(RegId::X(base));
                let addr = (self.rx(base) + offset) as u64;
                let v = self.rx(src);
                match width {
                    MemWidth::B => self.mem.store_u8(addr, v as u8),
                    MemWidth::H => self.mem.store_u16(addr, v as u16),
                    MemWidth::W => self.mem.store_u32(addr, v as u32),
                    MemWidth::D => self.mem.store_u64(addr, v as u64),
                }
                out.mem = MemEffect::Scalar {
                    addr,
                    bytes: width.bytes(),
                    store: true,
                };
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                out.reads[0] = Some(RegId::X(rs1));
                out.reads[1] = Some(RegId::X(rs2));
                let a = self.rx(rs1);
                let b = self.rx(rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => a < b,
                    BranchCond::Ge => a >= b,
                    BranchCond::Ltu => (a as u64) < (b as u64),
                    BranchCond::Geu => (a as u64) >= (b as u64),
                };
                if taken {
                    next = target;
                }
                out.branch = Some((taken, next));
            }
            Inst::Jump { target } => {
                next = target;
                out.branch = Some((true, next));
            }
            Inst::Halt => {
                self.halted = true;
            }
            Inst::SetVl { rd, avl } => {
                out.reads[0] = Some(RegId::X(avl));
                let req = self.rx(avl).max(0) as u64;
                self.vl = req.min(u64::from(self.hw_vl)) as u32;
                self.wx(rd, i64::from(self.vl));
                out.write = Some(RegId::X(rd));
            }
            Inst::VMFence => {}
            Inst::VLoad { .. }
            | Inst::VStore { .. }
            | Inst::VOp { .. }
            | Inst::VCmp { .. }
            | Inst::VMerge { .. }
            | Inst::VMask { .. }
            | Inst::VMv { .. }
            | Inst::VMvXS { .. }
            | Inst::VMvSX { .. }
            | Inst::VRed { .. }
            | Inst::VSlide { .. }
            | Inst::VRGather { .. }
            | Inst::VId { .. } => self.step_vector(inst, out),
        }

        self.pc = next;
        self.seq += 1;
        Ok(true)
    }

    /// Executes one vector-register instruction, outlined so that
    /// [`Self::step_into`]'s scalar dispatch stays small. Each arm
    /// resolves its operation, operand kind, stride and mask once and
    /// then runs one kernel over the first `vl` elements.
    #[inline(never)]
    fn step_vector(&mut self, inst: Inst, out: &mut Retired) {
        let n = self.vl as usize;
        match inst {
            Inst::VLoad {
                vd,
                base,
                stride,
                masked,
            } => {
                out.reads = packed([
                    Some(RegId::X(base)),
                    masked.then_some(RegId::V(Vreg::new(0))),
                    indexed_by(stride),
                ]);
                let b = self.rx(base) as u64;
                out.mem = self.vmem_effect(b, stride, false, &mut out.addrs);
                let d = self.vbase(vd);
                match stride {
                    VStride::Unit if !masked => {
                        self.mem.load_u32_span(b, &mut self.v[d..d + n]);
                    }
                    VStride::Unit => self.load_elems(d, n, masked, |i| b + i as u64 * 4),
                    VStride::Strided(r) => {
                        let s = self.rx(r);
                        self.load_elems(d, n, masked, |i| (b as i64 + s * i as i64) as u64);
                    }
                    VStride::Indexed(_) => {
                        let addrs = &out.addrs;
                        self.load_elems(d, n, masked, |i| addrs[i]);
                    }
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VStore {
                vs,
                base,
                stride,
                masked,
            } => {
                out.reads = packed([
                    Some(RegId::V(vs)),
                    Some(RegId::X(base)),
                    masked.then_some(RegId::V(Vreg::new(0))),
                    indexed_by(stride),
                ]);
                let b = self.rx(base) as u64;
                out.mem = self.vmem_effect(b, stride, true, &mut out.addrs);
                let s = self.vbase(vs);
                match stride {
                    VStride::Unit if !masked => {
                        self.mem.store_u32_span(b, &self.v[s..s + n]);
                    }
                    VStride::Unit => self.store_elems(s, n, masked, |i| b + i as u64 * 4),
                    VStride::Strided(r) => {
                        let st = self.rx(r);
                        self.store_elems(s, n, masked, |i| (b as i64 + st * i as i64) as u64);
                    }
                    VStride::Indexed(_) => {
                        let addrs = &out.addrs;
                        self.store_elems(s, n, masked, |i| addrs[i]);
                    }
                }
            }
            Inst::VOp {
                op,
                vd,
                vs1,
                rhs,
                masked,
            } => {
                // Accumulating ops also read the destination.
                out.reads = packed([
                    Some(RegId::V(vs1)),
                    Self::operand_read(rhs),
                    masked.then_some(RegId::V(Vreg::new(0))),
                    (op == VArithOp::Macc).then_some(RegId::V(vd)),
                ]);
                let b = self.operand(rhs);
                out.scalar_operand = b.splat();
                per_variant!(op, self.lanes(vd, vs1, b, masked), arith_lane, VArithOp {
                    Add Sub Rsub Mul Macc Mulh Mulhu Div Divu Rem Remu
                    And Or Xor Sll Srl Sra Min Max Minu Maxu
                });
                out.write = Some(RegId::V(vd));
            }
            Inst::VCmp { cond, vd, vs1, rhs } => {
                out.reads = packed([Some(RegId::V(vs1)), Self::operand_read(rhs)]);
                let b = self.operand(rhs);
                out.scalar_operand = b.splat();
                per_variant!(cond, self.lanes(vd, vs1, b, false), cmp_lane, VCmpCond {
                    Eq Ne Lt Ltu Le Leu Gt Gtu
                });
                out.write = Some(RegId::V(vd));
            }
            Inst::VMerge { vd, vs1, rhs } => {
                out.reads = packed([
                    Some(RegId::V(vs1)),
                    Self::operand_read(rhs),
                    Some(RegId::V(Vreg::new(0))),
                ]);
                let b = self.operand(rhs);
                out.scalar_operand = b.splat();
                self.lanes(vd, vs1, b, true).select();
                out.write = Some(RegId::V(vd));
            }
            Inst::VMask { op, md, m1, m2 } => {
                out.reads = packed([
                    Some(RegId::V(m1)),
                    (op != MaskOp::Not).then_some(RegId::V(m2)),
                ]);
                let b = Operand::Reg(self.vbase(m2));
                per_variant!(op, self.lanes(md, m1, b, false), mask_lane, MaskOp {
                    And Or Xor AndNot Not
                });
                out.write = Some(RegId::V(md));
            }
            Inst::VMv { vd, rhs } => {
                out.reads = packed([Self::operand_read(rhs)]);
                let d = self.vbase(vd);
                match self.operand(rhs) {
                    Operand::Reg(b) => self.v.copy_within(b..b + n, d),
                    Operand::Splat(k) => {
                        self.v[d..d + n].fill(k);
                        out.scalar_operand = Some(k);
                    }
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VMvXS { rd, vs } => {
                out.reads[0] = Some(RegId::V(vs));
                let v = self.v[self.vbase(vs)];
                self.wx(rd, i64::from(v as i32));
                out.write = Some(RegId::X(rd));
            }
            Inst::VMvSX { vd, rs } => {
                out.reads[0] = Some(RegId::X(rs));
                let d = self.vbase(vd);
                self.v[d] = self.rx(rs) as u32;
                out.write = Some(RegId::V(vd));
            }
            Inst::VRed { op, vd, vs2, vs1 } => {
                out.reads[0] = Some(RegId::V(vs2));
                out.reads[1] = Some(RegId::V(vs1));
                let s = self.vbase(vs2);
                let acc = self.v[self.vbase(vs1)];
                let elems = self.v[s..s + n].iter().copied();
                let acc = match op {
                    RedOp::Sum => elems.fold(acc, u32::wrapping_add),
                    RedOp::Min => elems.fold(acc, |a, e| (a as i32).min(e as i32) as u32),
                    RedOp::Max => elems.fold(acc, |a, e| (a as i32).max(e as i32) as u32),
                    RedOp::Minu => elems.fold(acc, u32::min),
                    RedOp::Maxu => elems.fold(acc, u32::max),
                };
                let d = self.vbase(vd);
                self.v[d] = acc;
                out.write = Some(RegId::V(vd));
            }
            Inst::VSlide { vd, vs, amount, up } => {
                out.reads[0] = Some(RegId::V(vs));
                out.reads[1] = Some(RegId::X(amount));
                out.scalar_operand = Some(self.rx(amount) as u32);
                let amt = self.rx(amount).max(0) as usize;
                let s = self.unaliased(vs, vd, n);
                let d = self.vbase(vd);
                if up {
                    for i in (amt..n).rev() {
                        self.v[d + i] = self.v[s + i - amt];
                    }
                } else {
                    for i in 0..n {
                        self.v[d + i] = if i + amt < n { self.v[s + i + amt] } else { 0 };
                    }
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VRGather { vd, vs, idx } => {
                out.reads[0] = Some(RegId::V(vs));
                out.reads[1] = Some(RegId::V(idx));
                let s = self.unaliased(vs, vd, n);
                let (d, x) = (self.vbase(vd), self.vbase(idx));
                // Element i reads only element i of `idx`.
                for i in 0..n {
                    let j = self.v[x + i] as usize;
                    self.v[d + i] = if j < n { self.v[s + j] } else { 0 };
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VId { vd } => {
                let d = self.vbase(vd);
                for (i, e) in self.v[d..d + n].iter_mut().enumerate() {
                    *e = i as u32;
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::Li { .. }
            | Inst::Op { .. }
            | Inst::OpImm { .. }
            | Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::Branch { .. }
            | Inst::Jump { .. }
            | Inst::Halt
            | Inst::SetVl { .. }
            | Inst::VMFence => unreachable!("{inst:?} runs in step_into"),
        }
    }

    /// The first `vl` lanes of `vd`, `vs1` and `b` (a `.vx`/`.vi` value
    /// splatted into the scratch register), and of `v0` when `masked` or
    /// the all-ones register when not, for one element-wise kernel.
    fn lanes(&mut self, vd: Vreg, vs1: Vreg, b: Operand, masked: bool) -> Lanes<'_> {
        let (n, hw) = (self.vl as usize, self.hw_vl as usize);
        let b = match b {
            Operand::Reg(b) => b,
            Operand::Splat(k) => {
                self.v[SCRATCH * hw..SCRATCH * hw + n].fill(k);
                SCRATCH * hw
            }
        };
        let m = if masked { 0 } else { ONES * hw };
        let (d, a) = (self.vbase(vd), self.vbase(vs1));
        let v = Cell::from_mut(&mut self.v[..]).as_slice_of_cells();
        Lanes {
            dst: &v[d..d + n],
            a: &v[a..a + n],
            b: &v[b..b + n],
            mask: &v[m..m + n],
        }
    }

    /// Loads element `i` of `n` into the register at `d` from `addr(i)`,
    /// in element order and skipping masked-off elements, so an access
    /// faults at its first active element out of bounds.
    fn load_elems(&mut self, d: usize, n: usize, masked: bool, addr: impl Fn(usize) -> u64) {
        for i in 0..n {
            if masked && self.masked_off(i) {
                continue;
            }
            self.v[d + i] = self.mem.load_u32(addr(i));
        }
    }

    /// Stores element `i` of `n` of the register at `s` to `addr(i)`, as
    /// [`Self::load_elems`] loads.
    fn store_elems(&mut self, s: usize, n: usize, masked: bool, addr: impl Fn(usize) -> u64) {
        for i in 0..n {
            if masked && self.masked_off(i) {
                continue;
            }
            self.mem.store_u32(addr(i), self.v[s + i]);
        }
    }

    /// The footprint of a vector access at `base`; an indexed one
    /// also appends its element addresses to `addrs`.
    fn vmem_effect(
        &self,
        base: u64,
        stride: VStride,
        store: bool,
        addrs: &mut Vec<u64>,
    ) -> MemEffect {
        match stride {
            VStride::Unit => MemEffect::VecUnit {
                base,
                bytes: u64::from(self.vl) * 4,
                store,
            },
            VStride::Strided(r) => MemEffect::VecStrided {
                base,
                stride: self.rx(r),
                count: self.vl,
                store,
            },
            VStride::Indexed(idx) => {
                let x = self.vbase(idx);
                addrs.extend(
                    self.v[x..x + self.vl as usize]
                        .iter()
                        .map(|&e| base + u64::from(e)),
                );
                MemEffect::VecIndexed { store }
            }
        }
    }

    /// Runs until `Halt`, discarding retire records.
    ///
    /// # Errors
    ///
    /// Propagates [`IsaError`]; errors with
    /// [`IsaError::BudgetExhausted`] after 500 M instructions.
    pub fn run_to_halt(&mut self) -> Result<u64, IsaError> {
        const BUDGET: u64 = 500_000_000;
        let mut r = Retired::default();
        while self.step_into(&mut r)? {
            if self.seq >= BUDGET {
                return Err(IsaError::BudgetExhausted(BUDGET));
            }
        }
        Ok(self.seq)
    }
}

/// A vector instruction's second operand: a register's element 0 in
/// the register file, or one value for every element.
#[derive(Clone, Copy)]
enum Operand {
    Reg(usize),
    Splat(u32),
}

impl Operand {
    /// The resolved `.vx`/`.vi` value, for [`Retired::scalar_operand`].
    fn splat(self) -> Option<u32> {
        match self {
            Operand::Splat(v) => Some(v),
            Operand::Reg(_) => None,
        }
    }
}

/// An element-wise instruction's operands, resolved once: the first
/// `vl` lanes of its destination, its two sources and its mask. The
/// register file is viewed as cells, so the destination may be any of
/// the others.
struct Lanes<'a> {
    dst: &'a [Cell<u32>],
    a: &'a [Cell<u32>],
    b: &'a [Cell<u32>],
    mask: &'a [Cell<u32>],
}

impl Lanes<'_> {
    /// Sets lane `i` of the destination to `f(dst[i], a[i], b[i])` where
    /// bit 0 of the mask's lane `i` is set, and leaves it as it was
    /// elsewhere. A lane is read just before it is written and no lane
    /// reads another, so the result is the element-by-element one
    /// whichever registers alias. `f` is total, so evaluating it on a
    /// masked-off lane has no effect.
    #[inline(always)]
    fn map(self, f: impl Fn(u32, u32, u32) -> u32) {
        let Self { dst, a, b, mask } = self;
        for (((d, x), y), m) in dst.iter().zip(a).zip(b).zip(mask) {
            let old = d.get();
            let new = f(old, x.get(), y.get());
            d.set(if m.get() & 1 != 0 { new } else { old });
        }
    }

    /// `vmerge`: lane `i` takes `a[i]` where bit 0 of `v0`'s lane `i`
    /// is set and `b[i]` where it is clear.
    fn select(self) {
        let Self { dst, a, b, mask } = self;
        for (((d, x), y), m) in dst.iter().zip(a).zip(b).zip(mask) {
            d.set(if m.get() & 1 != 0 { x.get() } else { y.get() });
        }
    }
}

/// The index register of an indexed access, the last source it reads.
fn indexed_by(stride: VStride) -> Option<RegId> {
    match stride {
        VStride::Indexed(idx) => Some(RegId::V(idx)),
        VStride::Unit | VStride::Strided(_) => None,
    }
}

/// The present source registers in order, in a record's four slots.
fn packed<const N: usize>(regs: [Option<RegId>; N]) -> [Option<RegId>; 4] {
    let mut out = [None; 4];
    for (slot, r) in out.iter_mut().zip(regs.into_iter().flatten()) {
        *slot = Some(r);
    }
    out
}

fn scalar_op(op: ScalarOp, a: i64, b: i64) -> i64 {
    match op {
        ScalarOp::Add => a.wrapping_add(b),
        ScalarOp::Sub => a.wrapping_sub(b),
        ScalarOp::Mul => a.wrapping_mul(b),
        ScalarOp::Div => {
            if b == 0 {
                -1
            } else {
                a.wrapping_div(b)
            }
        }
        ScalarOp::Rem => {
            if b == 0 {
                a
            } else {
                a.wrapping_rem(b)
            }
        }
        ScalarOp::And => a & b,
        ScalarOp::Or => a | b,
        ScalarOp::Xor => a ^ b,
        ScalarOp::Sll => a.wrapping_shl((b & 63) as u32),
        ScalarOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
        ScalarOp::Sra => a.wrapping_shr((b & 63) as u32),
        ScalarOp::Slt => i64::from(a < b),
        ScalarOp::Sltu => i64::from((a as u64) < (b as u64)),
    }
}

/// Element `i` of a `VOp`: `d` is the destination's old value, which
/// only `Macc` reads.
#[inline(always)]
fn arith_lane(op: VArithOp, d: u32, a: u32, b: u32) -> u32 {
    if op == VArithOp::Macc {
        d.wrapping_add(a.wrapping_mul(b))
    } else {
        varith(op, a, b)
    }
}

/// Element `i` of a `VCmp`: 1 where the condition holds.
#[inline(always)]
fn cmp_lane(cond: VCmpCond, _d: u32, a: u32, b: u32) -> u32 {
    u32::from(vcmp(cond, a, b))
}

/// Element `i` of a `VMask`: the op on bit 0 of each source (`m2`'s is
/// ignored by `Not`).
#[inline(always)]
fn mask_lane(op: MaskOp, _d: u32, a: u32, b: u32) -> u32 {
    let (x, y) = (a & 1, b & 1);
    match op {
        MaskOp::And => x & y,
        MaskOp::Or => x | y,
        MaskOp::Xor => x ^ y,
        MaskOp::AndNot => x & (1 - y),
        MaskOp::Not => 1 - x,
    }
}

#[inline(always)]
fn varith(op: VArithOp, a: u32, b: u32) -> u32 {
    let (ai, bi) = (a as i32, b as i32);
    match op {
        VArithOp::Add => a.wrapping_add(b),
        VArithOp::Sub => a.wrapping_sub(b),
        VArithOp::Rsub => b.wrapping_sub(a),
        VArithOp::Mul | VArithOp::Macc => a.wrapping_mul(b),
        VArithOp::Mulh => ((i64::from(ai) * i64::from(bi)) >> 32) as u32,
        VArithOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        VArithOp::Div => {
            if bi == 0 {
                u32::MAX
            } else if ai == i32::MIN && bi == -1 {
                ai as u32
            } else {
                (ai / bi) as u32
            }
        }
        VArithOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        VArithOp::Rem => {
            if bi == 0 {
                a
            } else if ai == i32::MIN && bi == -1 {
                0
            } else {
                (ai % bi) as u32
            }
        }
        VArithOp::Remu => a.checked_rem(b).unwrap_or(a),
        VArithOp::And => a & b,
        VArithOp::Or => a | b,
        VArithOp::Xor => a ^ b,
        VArithOp::Sll => a.wrapping_shl(b & 31),
        VArithOp::Srl => a.wrapping_shr(b & 31),
        VArithOp::Sra => (ai.wrapping_shr(b & 31)) as u32,
        VArithOp::Min => ai.min(bi) as u32,
        VArithOp::Max => ai.max(bi) as u32,
        VArithOp::Minu => a.min(b),
        VArithOp::Maxu => a.max(b),
    }
}

#[inline(always)]
fn vcmp(cond: VCmpCond, a: u32, b: u32) -> bool {
    let (ai, bi) = (a as i32, b as i32);
    match cond {
        VCmpCond::Eq => a == b,
        VCmpCond::Ne => a != b,
        VCmpCond::Lt => ai < bi,
        VCmpCond::Ltu => a < b,
        VCmpCond::Le => ai <= bi,
        VCmpCond::Leu => a <= b,
        VCmpCond::Gt => ai > bi,
        VCmpCond::Gtu => a > b,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::{vreg, xreg};

    fn run(asm: Asm, mem: Memory, hw_vl: u32) -> Interpreter {
        let mut i = Interpreter::new(asm.assemble().unwrap(), mem, hw_vl);
        i.run_to_halt().unwrap();
        i
    }

    #[test]
    fn scalar_arithmetic_and_branches() {
        // Sum 1..=10 with a loop.
        let mut a = Asm::new();
        a.li(xreg::T0, 10);
        a.li(xreg::T1, 0);
        a.label("loop");
        a.add(xreg::T1, xreg::T1, xreg::T0);
        a.addi(xreg::T0, xreg::T0, -1);
        a.bnez(xreg::T0, "loop");
        a.halt();
        let i = run(a, Memory::new(64), 4);
        assert_eq!(i.xreg(xreg::T1), 55);
    }

    #[test]
    fn x0_stays_zero() {
        let mut a = Asm::new();
        a.li(xreg::ZERO, 42);
        a.halt();
        let i = run(a, Memory::new(64), 4);
        assert_eq!(i.xreg(xreg::ZERO), 0);
    }

    #[test]
    fn scalar_loads_and_stores() {
        let mut a = Asm::new();
        a.li(xreg::A0, 0x100);
        a.li(xreg::T0, 0x1234_5678);
        a.sw(xreg::T0, xreg::A0, 0);
        a.lw(xreg::T1, xreg::A0, 0);
        a.sb(xreg::T1, xreg::A0, 8);
        a.lb(xreg::T2, xreg::A0, 8);
        a.halt();
        let i = run(a, Memory::new(0x200), 4);
        assert_eq!(i.xreg(xreg::T1), 0x1234_5678);
        assert_eq!(i.xreg(xreg::T2), 0x78);
    }

    #[test]
    fn setvl_saturates_to_hardware_length() {
        let mut a = Asm::new();
        a.li(xreg::A0, 1000);
        a.setvl(xreg::T0, xreg::A0);
        a.li(xreg::A0, 3);
        a.setvl(xreg::T1, xreg::A0);
        a.halt();
        let i = run(a, Memory::new(64), 64);
        assert_eq!(i.xreg(xreg::T0), 64);
        assert_eq!(i.xreg(xreg::T1), 3);
    }

    #[test]
    fn vector_add_and_store() {
        let mut mem = Memory::new(0x1000);
        for k in 0..8 {
            mem.store_u32(0x100 + k * 4, k as u32 * 10);
        }
        let mut a = Asm::new();
        a.li(xreg::A0, 8);
        a.setvl(xreg::T0, xreg::A0);
        a.li(xreg::A1, 0x100);
        a.vload(vreg::V1, xreg::A1);
        a.vadd(vreg::V2, vreg::V1, VOperand::Imm(7));
        a.li(xreg::A2, 0x200);
        a.vstore(vreg::V2, xreg::A2);
        a.halt();
        let i = run(a, mem, 8);
        for k in 0..8u64 {
            assert_eq!(i.memory().load_u32(0x200 + k * 4), k as u32 * 10 + 7);
        }
    }

    #[test]
    fn strided_and_indexed_access() {
        let mut mem = Memory::new(0x1000);
        for k in 0..16 {
            mem.store_u32(0x100 + k * 4, k as u32);
        }
        let mut a = Asm::new();
        a.li(xreg::A0, 4);
        a.setvl(xreg::T0, xreg::A0);
        a.li(xreg::A1, 0x100);
        a.li(xreg::A2, 16); // byte stride 16 = every 4th element
        a.vload_strided(vreg::V1, xreg::A1, xreg::A2);
        // gather elements 1,3,5,7 via byte offsets 4,12,20,28
        a.vid(vreg::V3);
        a.vsll(vreg::V3, vreg::V3, VOperand::Imm(3));
        a.vadd(vreg::V3, vreg::V3, VOperand::Imm(4));
        a.vload_indexed(vreg::V2, xreg::A1, vreg::V3);
        a.halt();
        let i = run(a, mem, 4);
        assert_eq!(i.vreg(vreg::V1), &[0, 4, 8, 12]);
        assert_eq!(i.vreg(vreg::V2), &[1, 3, 5, 7]);
    }

    #[test]
    fn masked_execution() {
        let mut a = Asm::new();
        a.li(xreg::A0, 4);
        a.setvl(xreg::T0, xreg::A0);
        a.vid(vreg::V1);
        // mask = element < 2
        a.vcmp(VCmpCond::Lt, vreg::V0, vreg::V1, VOperand::Imm(2));
        a.vmv(vreg::V2, VOperand::Imm(9));
        a.vop_masked(VArithOp::Add, vreg::V2, vreg::V2, VOperand::Imm(100));
        a.halt();
        let i = run(a, Memory::new(64), 4);
        assert_eq!(i.vreg(vreg::V2), &[109, 109, 9, 9]);
    }

    #[test]
    fn merge_and_mask_logic() {
        let mut a = Asm::new();
        a.li(xreg::A0, 4);
        a.setvl(xreg::T0, xreg::A0);
        a.vid(vreg::V1);
        a.vcmp(VCmpCond::Eq, vreg::V2, vreg::V1, VOperand::Imm(1));
        a.vcmp(VCmpCond::Eq, vreg::V3, vreg::V1, VOperand::Imm(2));
        a.vmask(crate::inst::MaskOp::Or, vreg::V0, vreg::V2, vreg::V3);
        a.vmerge(vreg::V4, vreg::V1, VOperand::Imm(-1));
        a.halt();
        let i = run(a, Memory::new(64), 4);
        assert_eq!(i.vreg(vreg::V4), &[u32::MAX, 1, 2, u32::MAX]);
    }

    #[test]
    fn reductions() {
        let mut a = Asm::new();
        a.li(xreg::A0, 6);
        a.setvl(xreg::T0, xreg::A0);
        a.vid(vreg::V1); // 0..5
        a.vmv(vreg::V2, VOperand::Imm(100));
        a.vred(RedOp::Sum, vreg::V3, vreg::V1, vreg::V2);
        a.vmv_xs(xreg::T1, vreg::V3);
        a.vred(RedOp::Max, vreg::V4, vreg::V1, vreg::V1);
        a.vmv_xs(xreg::T2, vreg::V4);
        a.halt();
        let i = run(a, Memory::new(64), 8);
        assert_eq!(i.xreg(xreg::T1), 115); // 100 + 0+1+..+5
        assert_eq!(i.xreg(xreg::T2), 5);
    }

    #[test]
    fn slides_and_gather() {
        let mut a = Asm::new();
        a.li(xreg::A0, 4);
        a.setvl(xreg::T0, xreg::A0);
        a.vid(vreg::V1); // 0 1 2 3
        a.li(xreg::T1, 1);
        a.vslide(vreg::V2, vreg::V1, xreg::T1, false); // down: 1 2 3 0
        a.vmv(vreg::V3, VOperand::Reg(vreg::V1));
        a.vrgather(vreg::V4, vreg::V2, vreg::V1); // identity gather of V2
        a.halt();
        let i = run(a, Memory::new(64), 4);
        assert_eq!(i.vreg(vreg::V2), &[1, 2, 3, 0]);
        assert_eq!(i.vreg(vreg::V4), &[1, 2, 3, 0]);
    }

    #[test]
    fn retire_records_carry_dependences() {
        let mut a = Asm::new();
        a.li(xreg::T0, 5);
        a.addi(xreg::T1, xreg::T0, 1);
        a.halt();
        let mut i = Interpreter::new(a.assemble().unwrap(), Memory::new(64), 4);
        let r0 = i.step().unwrap().unwrap();
        assert_eq!(r0.write, Some(RegId::X(xreg::T0)));
        let r1 = i.step().unwrap().unwrap();
        assert_eq!(r1.reads[0], Some(RegId::X(xreg::T0)));
        assert_eq!(r1.write, Some(RegId::X(xreg::T1)));
    }

    #[test]
    fn branch_outcomes_recorded() {
        let mut a = Asm::new();
        a.li(xreg::T0, 1);
        a.beqz(xreg::T0, "skip"); // not taken
        a.li(xreg::T1, 7);
        a.label("skip");
        a.halt();
        let mut i = Interpreter::new(a.assemble().unwrap(), Memory::new(64), 4);
        i.step().unwrap();
        let b = i.step().unwrap().unwrap();
        assert_eq!(b.branch, Some((false, 2)));
    }

    #[test]
    fn vector_mem_effects() {
        let mut a = Asm::new();
        a.li(xreg::A0, 4);
        a.setvl(xreg::T0, xreg::A0);
        a.li(xreg::A1, 0x100);
        a.vload(vreg::V1, xreg::A1);
        a.halt();
        let mut i = Interpreter::new(a.assemble().unwrap(), Memory::new(0x200), 4);
        i.step().unwrap();
        i.step().unwrap();
        i.step().unwrap();
        let r = i.step().unwrap().unwrap();
        assert_eq!(
            r.mem,
            MemEffect::VecUnit {
                base: 0x100,
                bytes: 16,
                store: false
            }
        );
    }

    #[test]
    fn runaway_detection() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let mut i = Interpreter::new(a.assemble().unwrap(), Memory::new(16), 4);
        // Not running the full 500M budget in a test; single steps work.
        for _ in 0..100 {
            assert!(i.step().unwrap().is_some());
        }
        assert!(!i.halted());
    }

    #[test]
    fn division_edge_cases_match_rvv() {
        assert_eq!(varith(VArithOp::Div, 5, 0), u32::MAX);
        assert_eq!(varith(VArithOp::Rem, 5, 0), 5);
        assert_eq!(
            varith(VArithOp::Div, i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
        assert_eq!(varith(VArithOp::Rem, i32::MIN as u32, -1i32 as u32), 0);
    }
}
