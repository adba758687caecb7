//! The element-by-element semantics of the vector arms, kept as the
//! reference that the whole-vector kernels of
//! [`Interpreter::step_into`] are tested against.
//!
//! [`Interpreter::step_per_element`] runs the memory, arithmetic,
//! compare, merge, mask, move and reduction arms one element at a
//! time, resolving the operation, operand, stride and mask for every
//! element, as the interpreter once did; every other instruction goes
//! through `step_into`. The tests run seeded random programs through
//! both and compare the records, registers and memory after each step.

use super::{indexed_by, packed, varith, vcmp, Interpreter, IsaError, Operand, Retired};
use crate::inst::{Inst, MaskOp, RedOp, VArithOp, VStride};
use crate::reg::{RegId, Vreg};

impl Interpreter {
    /// Executes one instruction as [`Interpreter::step_into`] does,
    /// with the vector arms it replaces run element by element.
    pub(super) fn step_per_element(&mut self, out: &mut Retired) -> Result<bool, IsaError> {
        let inst = match self.peek() {
            Some(
                inst @ (Inst::VLoad { .. }
                | Inst::VStore { .. }
                | Inst::VOp { .. }
                | Inst::VCmp { .. }
                | Inst::VMerge { .. }
                | Inst::VMask { .. }
                | Inst::VMv { .. }
                | Inst::VRed { .. }),
            ) => inst,
            _ => return self.step_into(out),
        };
        let n = self.vl as usize;
        *out = Retired {
            seq: self.seq,
            pc: self.pc,
            inst,
            vl: self.vl,
            addrs: std::mem::take(&mut out.addrs),
            ..Retired::default()
        };
        out.addrs.clear();
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
                for i in 0..n {
                    if masked && self.masked_off(i) {
                        continue;
                    }
                    let addr = self.velem_addr(b, stride, i);
                    self.v[d + i] = self.mem.load_u32(addr);
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
                for i in 0..n {
                    if masked && self.masked_off(i) {
                        continue;
                    }
                    let addr = self.velem_addr(b, stride, i);
                    self.mem.store_u32(addr, self.v[s + i]);
                }
            }
            Inst::VOp {
                op,
                vd,
                vs1,
                rhs,
                masked,
            } => {
                let macc = op == VArithOp::Macc;
                out.reads = packed([
                    Some(RegId::V(vs1)),
                    Self::operand_read(rhs),
                    masked.then_some(RegId::V(Vreg::new(0))),
                    macc.then_some(RegId::V(vd)),
                ]);
                let (d, a, b) = (self.vbase(vd), self.vbase(vs1), self.operand(rhs));
                out.scalar_operand = b.splat();
                for i in 0..n {
                    if masked && self.masked_off(i) {
                        continue;
                    }
                    let (x, y) = (self.v[a + i], self.at(b, i));
                    self.v[d + i] = if macc {
                        self.v[d + i].wrapping_add(x.wrapping_mul(y))
                    } else {
                        varith(op, x, y)
                    };
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VCmp { cond, vd, vs1, rhs } => {
                out.reads = packed([Some(RegId::V(vs1)), Self::operand_read(rhs)]);
                let (d, a, b) = (self.vbase(vd), self.vbase(vs1), self.operand(rhs));
                out.scalar_operand = b.splat();
                for i in 0..n {
                    self.v[d + i] = u32::from(vcmp(cond, self.v[a + i], self.at(b, i)));
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VMerge { vd, vs1, rhs } => {
                out.reads = packed([
                    Some(RegId::V(vs1)),
                    Self::operand_read(rhs),
                    Some(RegId::V(Vreg::new(0))),
                ]);
                let (d, a, b) = (self.vbase(vd), self.vbase(vs1), self.operand(rhs));
                out.scalar_operand = b.splat();
                for i in 0..n {
                    self.v[d + i] = if self.masked_off(i) {
                        self.at(b, i)
                    } else {
                        self.v[a + i]
                    };
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VMask { op, md, m1, m2 } => {
                out.reads = packed([
                    Some(RegId::V(m1)),
                    (op != MaskOp::Not).then_some(RegId::V(m2)),
                ]);
                let (d, a, b) = (self.vbase(md), self.vbase(m1), self.vbase(m2));
                for i in 0..n {
                    let x = self.v[a + i] & 1;
                    let y = self.v[b + i] & 1;
                    self.v[d + i] = match op {
                        MaskOp::And => x & y,
                        MaskOp::Or => x | y,
                        MaskOp::Xor => x ^ y,
                        MaskOp::AndNot => x & (1 - y),
                        MaskOp::Not => 1 - x,
                    };
                }
                out.write = Some(RegId::V(md));
            }
            Inst::VMv { vd, rhs } => {
                out.reads = packed([Self::operand_read(rhs)]);
                let (d, b) = (self.vbase(vd), self.operand(rhs));
                out.scalar_operand = b.splat();
                for i in 0..n {
                    self.v[d + i] = self.at(b, i);
                }
                out.write = Some(RegId::V(vd));
            }
            Inst::VRed { op, vd, vs2, vs1 } => {
                out.reads[0] = Some(RegId::V(vs2));
                out.reads[1] = Some(RegId::V(vs1));
                let s = self.vbase(vs2);
                let mut acc = self.v[self.vbase(vs1)];
                for &e in &self.v[s..s + n] {
                    acc = match op {
                        RedOp::Sum => acc.wrapping_add(e),
                        RedOp::Min => (acc as i32).min(e as i32) as u32,
                        RedOp::Max => (acc as i32).max(e as i32) as u32,
                        RedOp::Minu => acc.min(e),
                        RedOp::Maxu => acc.max(e),
                    };
                }
                let d = self.vbase(vd);
                self.v[d] = acc;
                out.write = Some(RegId::V(vd));
            }
            _ => unreachable!("{inst:?} runs in step_into"),
        }
        self.pc += 1;
        self.seq += 1;
        Ok(true)
    }

    fn at(&self, rhs: Operand, i: usize) -> u32 {
        match rhs {
            Operand::Reg(base) => self.v[base + i],
            Operand::Splat(b) => b,
        }
    }

    fn velem_addr(&self, base: u64, stride: VStride, i: usize) -> u64 {
        match stride {
            VStride::Unit => base + i as u64 * 4,
            VStride::Strided(r) => (base as i64 + self.rx(r) * i as i64) as u64,
            VStride::Indexed(idx) => base + u64::from(self.v[self.vbase(idx) + i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::inst::{VCmpCond, VOperand};
    use crate::mem::Memory;
    use crate::reg::{xreg, Xreg};
    use eve_common::SplitMix64;
    use std::collections::BTreeSet;

    const ARITH: [VArithOp; 21] = [
        VArithOp::Add,
        VArithOp::Sub,
        VArithOp::Rsub,
        VArithOp::Mul,
        VArithOp::Macc,
        VArithOp::Mulh,
        VArithOp::Mulhu,
        VArithOp::Div,
        VArithOp::Divu,
        VArithOp::Rem,
        VArithOp::Remu,
        VArithOp::And,
        VArithOp::Or,
        VArithOp::Xor,
        VArithOp::Sll,
        VArithOp::Srl,
        VArithOp::Sra,
        VArithOp::Min,
        VArithOp::Max,
        VArithOp::Minu,
        VArithOp::Maxu,
    ];
    const CONDS: [VCmpCond; 8] = [
        VCmpCond::Eq,
        VCmpCond::Ne,
        VCmpCond::Lt,
        VCmpCond::Ltu,
        VCmpCond::Le,
        VCmpCond::Leu,
        VCmpCond::Gt,
        VCmpCond::Gtu,
    ];
    const MASK_OPS: [MaskOp; 5] = [
        MaskOp::And,
        MaskOp::Or,
        MaskOp::Xor,
        MaskOp::AndNot,
        MaskOp::Not,
    ];
    const RED_OPS: [RedOp; 5] = [RedOp::Sum, RedOp::Min, RedOp::Max, RedOp::Minu, RedOp::Maxu];
    /// Values where the arithmetic has edges: zero divisors,
    /// `i32::MIN / -1`, shift amounts past 31, sign boundaries.
    const EDGES: [u32; 10] = [
        0,
        1,
        2,
        31,
        32,
        33,
        u32::MAX,
        i32::MIN as u32,
        i32::MAX as u32,
        0x8000_0001,
    ];
    /// Memory image size: room for a 2048-element unit-stride span and
    /// the widest strided one.
    const MEM: u64 = 64 << 10;
    /// Largest byte stride, either sign.
    const MAX_STRIDE: u64 = 24;
    /// Indexed offsets are masked to this.
    const INDEX_MASK: i32 = 0x3FF;
    /// Scalar registers `.vx` operands read; `A4`/`A5` hold a memory
    /// access's base and stride, `A6` a slide amount.
    const XS: [Xreg; 3] = [xreg::A1, xreg::A2, xreg::A3];

    /// Programs over `v0`..`v5`, so a destination often aliases a
    /// source or the mask.
    struct Gen {
        rng: SplitMix64,
        hw_vl: u32,
        asm: Asm,
        vl: u32,
        seen: BTreeSet<String>,
    }

    impl Gen {
        fn word(&mut self) -> u32 {
            if self.rng.chance(0.5) {
                EDGES[self.rng.below(EDGES.len() as u64) as usize]
            } else {
                self.rng.next_u32()
            }
        }

        fn vreg(&mut self) -> Vreg {
            Vreg::new(self.rng.below(6) as u8)
        }

        fn rhs(&mut self) -> (VOperand, &'static str) {
            match self.rng.below(3) {
                0 => (VOperand::Reg(self.vreg()), "vv"),
                1 => (VOperand::Scalar(XS[self.rng.below(3) as usize]), "vx"),
                _ => (VOperand::Imm(self.word() as i32), "vi"),
            }
        }

        fn li(&mut self, rd: Xreg, imm: i64) {
            self.asm.push(Inst::Li { rd, imm });
        }

        /// A new vector length: 0, 1, an odd length, the hardware
        /// maximum, or a request past it.
        fn set_vl(&mut self) {
            let hw = u64::from(self.hw_vl);
            let avl = match self.rng.below(5) {
                0 => 0,
                1 => 1,
                2 => (self.rng.below(hw.div_ceil(2)) * 2 + 1).min(hw),
                3 => hw,
                _ => hw + 1 + self.rng.below(100),
            };
            self.li(xreg::A0, avl as i64);
            self.asm.push(Inst::SetVl {
                rd: xreg::T0,
                avl: xreg::A0,
            });
            self.vl = avl.min(hw) as u32;
        }

        fn note(&mut self, what: String) {
            let vl = match self.vl {
                0 => "vl0",
                1 => "vl1",
                v if v == self.hw_vl => "vlmax",
                v if v % 2 == 1 => "vlodd",
                _ => "vleven",
            };
            self.seen.insert(vl.to_string());
            self.seen.insert(what);
        }

        /// A base (in `A4`) and stride for an access whose every
        /// element, at any vector length, lies inside memory.
        fn access(&mut self) -> (VStride, &'static str) {
            let span = u64::from(self.hw_vl - 1);
            let (stride, name, base) = match self.rng.below(3) {
                0 => (VStride::Unit, "unit", self.rng.below(MEM - 4 * span - 3)),
                1 => {
                    let s = self.rng.below(2 * MAX_STRIDE + 1) as i64 - MAX_STRIDE as i64;
                    self.li(xreg::A5, s);
                    let reach = s.unsigned_abs() * span;
                    let low = if s < 0 { reach } else { 0 };
                    let base = low + self.rng.below(MEM - 3 - reach);
                    (VStride::Strided(xreg::A5), "strided", base)
                }
                _ => {
                    let idx = self.vreg();
                    self.asm.push(Inst::VOp {
                        op: VArithOp::And,
                        vd: idx,
                        vs1: idx,
                        rhs: VOperand::Imm(INDEX_MASK),
                        masked: false,
                    });
                    let base = self.rng.below(MEM - 3 - INDEX_MASK as u64);
                    (VStride::Indexed(idx), "indexed", base)
                }
            };
            self.li(xreg::A4, base as i64);
            (stride, name)
        }

        fn inst(&mut self) {
            let masked = self.rng.chance(0.5);
            match self.rng.below(14) {
                0 => self.set_vl(),
                1..=4 => {
                    let op = ARITH[self.rng.below(21) as usize];
                    let (rhs, kind) = self.rhs();
                    let (vd, vs1) = (self.vreg(), self.vreg());
                    self.note(format!("{op:?}/{kind}/{masked}"));
                    self.asm.push(Inst::VOp {
                        op,
                        vd,
                        vs1,
                        rhs,
                        masked,
                    });
                }
                5 => {
                    let cond = CONDS[self.rng.below(8) as usize];
                    let (rhs, kind) = self.rhs();
                    let (vd, vs1) = (self.vreg(), self.vreg());
                    self.note(format!("cmp {cond:?}/{kind}"));
                    self.asm.push(Inst::VCmp { cond, vd, vs1, rhs });
                }
                6 => {
                    let (rhs, kind) = self.rhs();
                    let (vd, vs1) = (self.vreg(), self.vreg());
                    self.note(format!("merge/{kind}"));
                    self.asm.push(Inst::VMerge { vd, vs1, rhs });
                }
                7 => {
                    let op = MASK_OPS[self.rng.below(5) as usize];
                    let (md, m1, m2) = (self.vreg(), self.vreg(), self.vreg());
                    self.note(format!("mask {op:?}"));
                    self.asm.push(Inst::VMask { op, md, m1, m2 });
                }
                8 => {
                    let (rhs, kind) = self.rhs();
                    let vd = self.vreg();
                    self.note(format!("mv/{kind}"));
                    self.asm.push(Inst::VMv { vd, rhs });
                }
                9 => {
                    let op = RED_OPS[self.rng.below(5) as usize];
                    let (vd, vs2, vs1) = (self.vreg(), self.vreg(), self.vreg());
                    self.note(format!("red {op:?}"));
                    self.asm.push(Inst::VRed { op, vd, vs2, vs1 });
                }
                10 | 11 => {
                    let (stride, name) = self.access();
                    let vd = self.vreg();
                    self.note(format!("load {name}/{masked}"));
                    self.asm.push(Inst::VLoad {
                        vd,
                        base: xreg::A4,
                        stride,
                        masked,
                    });
                }
                12 => {
                    let (stride, name) = self.access();
                    let vs = self.vreg();
                    self.note(format!("store {name}/{masked}"));
                    self.asm.push(Inst::VStore {
                        vs,
                        base: xreg::A4,
                        stride,
                        masked,
                    });
                }
                _ => {
                    // Arms both paths share, for the state they leave.
                    let (vd, vs) = (self.vreg(), self.vreg());
                    let amount = self.rng.below(u64::from(self.hw_vl) + 4) as i64 - 2;
                    self.li(xreg::A6, amount);
                    let x = XS[self.rng.below(3) as usize];
                    self.asm.push(match self.rng.below(5) {
                        0 => Inst::VSlide {
                            vd,
                            vs,
                            amount: xreg::A6,
                            up: self.rng.chance(0.5),
                        },
                        1 => Inst::VRGather { vd, vs, idx: vd },
                        2 => Inst::VId { vd },
                        3 => Inst::VMvXS { rd: x, vs },
                        _ => Inst::VMvSX { vd, rs: x },
                    });
                }
            }
        }
    }

    /// Runs one seeded random program through both paths, comparing
    /// after every step, and returns what it covered.
    fn differential(seed: u64, hw_vl: u32, len: usize) -> BTreeSet<String> {
        let mut g = Gen {
            rng: SplitMix64::new(seed),
            hw_vl,
            asm: Asm::new(),
            vl: hw_vl,
            seen: BTreeSet::new(),
        };
        for x in XS {
            let w = i64::from(g.word() as i32);
            // Some scalars carry bits past the 32 a `.vx` operand keeps.
            let high = if g.rng.chance(0.3) { 7 << 32 } else { 0 };
            g.li(x, w ^ high);
        }
        g.set_vl();
        for _ in 0..len {
            g.inst();
        }
        g.asm.push(Inst::Halt);
        let mut mem = Memory::new(MEM as usize);
        let words: Vec<u32> = (0..MEM / 4).map(|_| g.word()).collect();
        mem.store_u32_slice(0, &words);
        let mut kernels = Interpreter::new(
            std::mem::replace(&mut g.asm, Asm::new())
                .assemble()
                .expect("assembles"),
            mem,
            hw_vl,
        );
        for r in 0..6 {
            let lanes: Vec<u32> = (0..hw_vl).map(|_| g.word()).collect();
            kernels.poke_vreg(Vreg::new(r), &lanes);
        }
        let mut elements = kernels.clone();
        let (mut a, mut b) = (Retired::default(), Retired::default());
        let regs = 32 * hw_vl as usize;
        loop {
            let ctx = format!("seed {seed} hw_vl {hw_vl} step {}", elements.seq);
            let inst = elements.peek();
            let stepped = kernels.step_into(&mut a).expect("runs");
            assert_eq!(stepped, elements.step_per_element(&mut b).expect("runs"));
            if !stepped {
                break;
            }
            assert_eq!(a, b, "{ctx}: record of {inst:?}");
            assert_eq!(kernels.x, elements.x, "{ctx}: x registers after {inst:?}");
            assert!(
                kernels.v[..regs] == elements.v[..regs],
                "{ctx}: vector registers after {inst:?}"
            );
            assert!(kernels.mem == elements.mem, "{ctx}: memory after {inst:?}");
            assert_eq!(kernels.vl, elements.vl, "{ctx}");
        }
        g.seen
    }

    #[test]
    fn whole_vector_kernels_match_the_element_by_element_reference() {
        let mut seen = BTreeSet::new();
        for (k, hw_vl) in [1, 7, 64, 2048].into_iter().enumerate() {
            let (programs, len) = if hw_vl > 64 { (4, 150) } else { (24, 200) };
            for p in 0..programs {
                let seed = 0x5EED_0000 + (k as u64) * 1000 + p;
                seen.extend(differential(seed, hw_vl, len));
            }
        }
        let mut want: BTreeSet<String> = ["vl0", "vl1", "vlodd", "vlmax"]
            .into_iter()
            .map(String::from)
            .collect();
        for kind in ["vv", "vx", "vi"] {
            for masked in [false, true] {
                want.extend(ARITH.iter().map(|op| format!("{op:?}/{kind}/{masked}")));
            }
            want.extend(CONDS.iter().map(|c| format!("cmp {c:?}/{kind}")));
            want.insert(format!("merge/{kind}"));
            want.insert(format!("mv/{kind}"));
        }
        want.extend(MASK_OPS.iter().map(|op| format!("mask {op:?}")));
        want.extend(RED_OPS.iter().map(|op| format!("red {op:?}")));
        for name in ["unit", "strided", "indexed"] {
            for masked in [false, true] {
                want.insert(format!("load {name}/{masked}"));
                want.insert(format!("store {name}/{masked}"));
            }
        }
        let missing: Vec<&String> = want.difference(&seen).collect();
        assert!(missing.is_empty(), "never generated: {missing:?}");
    }

    /// A program that sets `vl` to 8 and `A0` to `base`, then runs
    /// `access` (after masking all but the first four lanes when
    /// `masked`).
    fn eight_lanes(base: i64, masked: bool, access: Inst) -> Interpreter {
        let mut a = Asm::new();
        a.li(xreg::T1, 8);
        a.setvl(xreg::T0, xreg::T1);
        a.vid(Vreg::new(1));
        a.vcmp(VCmpCond::Lt, Vreg::new(0), Vreg::new(1), VOperand::Imm(4));
        if !masked {
            a.vmv(Vreg::new(0), VOperand::Imm(1));
        }
        a.li(xreg::A0, base);
        a.push(access);
        a.halt();
        let mut mem = Memory::new(64);
        mem.store_u32_slice(48, &[10, 11, 12, 13]);
        let mut i = Interpreter::new(a.assemble().unwrap(), mem, 8);
        i.run_to_halt().unwrap();
        i
    }

    /// A unit-stride load into `v2`, or a store of `v1` (`vid`).
    fn unit(load: bool, masked: bool) -> Inst {
        let (base, stride) = (xreg::A0, VStride::Unit);
        if load {
            Inst::VLoad {
                vd: Vreg::new(2),
                base,
                stride,
                masked,
            }
        } else {
            Inst::VStore {
                vs: Vreg::new(1),
                base,
                stride,
                masked,
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_unmasked_unit_load_past_memory_still_panics() {
        eight_lanes(48, false, unit(true, false));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_unmasked_unit_store_past_memory_still_panics() {
        eight_lanes(48, false, unit(false, false));
    }

    #[test]
    fn masked_off_elements_past_memory_still_do_not_panic() {
        // Lanes 4..8 would read and write 64..80 of a 64-byte memory.
        let i = eight_lanes(48, true, unit(true, true));
        assert_eq!(&i.vreg(Vreg::new(2))[..4], &[10, 11, 12, 13]);
        let i = eight_lanes(48, true, unit(false, true));
        assert_eq!(i.memory().load_u32_slice(48, 4), vec![0, 1, 2, 3]);
    }
}
