//! Seeded-fuzz tests on the kernel-IR interpreter: vector semantics
//! against plain Rust, strip-mining invariance, and the
//! characterization accounting identity. All randomness is drawn from
//! fixed-seed [`SplitMix64`] streams, so failures reproduce exactly.

use eve_common::SplitMix64;
use eve_isa::{vreg, xreg, Asm, Characterization, Interpreter, Memory, RedOp, VArithOp, VOperand};

/// Applies one vector op elementwise through the interpreter.
fn interp_vop(op: VArithOp, a: &[u32], b: &[u32]) -> Vec<u32> {
    let n = a.len();
    let mut mem = Memory::new(0x8000);
    mem.store_u32_slice(0x1000, a);
    mem.store_u32_slice(0x2000, b);
    let mut s = Asm::new();
    s.li(xreg::A0, n as i64);
    s.setvl(xreg::T0, xreg::A0);
    s.li(xreg::A1, 0x1000);
    s.vload(vreg::V1, xreg::A1);
    s.li(xreg::A2, 0x2000);
    s.vload(vreg::V2, xreg::A2);
    s.vop(op, vreg::V3, vreg::V1, VOperand::Reg(vreg::V2));
    s.li(xreg::A3, 0x3000);
    s.vstore(vreg::V3, xreg::A3);
    s.halt();
    let mut i = Interpreter::new(s.assemble().unwrap(), mem, n as u32);
    i.run_to_halt().unwrap();
    i.memory().load_u32_slice(0x3000, n)
}

fn golden(op: VArithOp, a: u32, b: u32) -> u32 {
    let (ai, bi) = (a as i32, b as i32);
    match op {
        VArithOp::Add => a.wrapping_add(b),
        VArithOp::Sub => a.wrapping_sub(b),
        VArithOp::Mul => a.wrapping_mul(b),
        VArithOp::And => a & b,
        VArithOp::Xor => a ^ b,
        VArithOp::Min => ai.min(bi) as u32,
        VArithOp::Maxu => a.max(b),
        VArithOp::Srl => a >> (b & 31),
        _ => unreachable!("not exercised here"),
    }
}

#[test]
fn vector_ops_match_scalar_semantics() {
    let mut rng = SplitMix64::new(0x15A_0001);
    for _ in 0..12 {
        let len = 1 + rng.below(31) as usize;
        let a: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        let seed = rng.next_u32();
        let b: Vec<u32> = a.iter().map(|x| x.wrapping_mul(seed | 1)).collect();
        for op in [
            VArithOp::Add,
            VArithOp::Sub,
            VArithOp::Mul,
            VArithOp::And,
            VArithOp::Xor,
            VArithOp::Min,
            VArithOp::Maxu,
            VArithOp::Srl,
        ] {
            let got = interp_vop(op, &a, &b);
            let want: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| golden(op, x, y)).collect();
            assert_eq!(got, want, "{op:?}");
        }
    }
}

/// vvadd through strip-mining produces identical memory for any
/// hardware vector length — binaries are VL-portable.
#[test]
fn strip_mining_is_vl_invariant() {
    let mut rng = SplitMix64::new(0x15A_0002);
    for _ in 0..6 {
        let n = 5 + rng.below(95) as usize;
        // Reuse the real workload generator for a faithful binary.
        let built = eve_workloads::Workload::vvadd(n).build();
        let reference = {
            let mut i = Interpreter::new(built.vector.clone(), built.memory.clone(), 3);
            i.run_to_halt().unwrap();
            built.verify(i.memory()).expect("golden verification");
            i.memory().clone()
        };
        for hw_vl in [1u32, 7, 64, 1000] {
            let mut i = Interpreter::new(built.vector.clone(), built.memory.clone(), hw_vl);
            i.run_to_halt().unwrap();
            assert_eq!(i.memory(), &reference, "hw_vl {hw_vl}");
        }
    }
}

/// Reductions agree with a sequential fold for every RedOp.
#[test]
fn reductions_match_folds() {
    let mut rng = SplitMix64::new(0x15A_0003);
    for _ in 0..10 {
        let n = 1 + rng.below(63) as usize;
        let values: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
        let init = rng.next_u32();
        let mut mem = Memory::new(0x8000);
        mem.store_u32_slice(0x1000, &values);
        for (op, f) in [
            (
                RedOp::Sum,
                (|acc: u32, x: u32| acc.wrapping_add(x)) as fn(u32, u32) -> u32,
            ),
            (RedOp::Minu, |acc, x| acc.min(x)),
            (RedOp::Maxu, |acc, x| acc.max(x)),
            (RedOp::Min, |acc, x| (acc as i32).min(x as i32) as u32),
            (RedOp::Max, |acc, x| (acc as i32).max(x as i32) as u32),
        ] {
            let mut s = Asm::new();
            s.li(xreg::A0, n as i64);
            s.setvl(xreg::T0, xreg::A0);
            s.li(xreg::A1, 0x1000);
            s.vload(vreg::V1, xreg::A1);
            s.li(xreg::T1, i64::from(init as i32));
            s.vmv_sx(vreg::V2, xreg::T1);
            s.vred(op, vreg::V3, vreg::V1, vreg::V2);
            s.vmv_xs(xreg::T2, vreg::V3);
            s.li(xreg::A2, 0x4000);
            s.sw(xreg::T2, xreg::A2, 0);
            s.halt();
            let mut i = Interpreter::new(s.assemble().unwrap(), mem.clone(), n as u32);
            i.run_to_halt().unwrap();
            let got = i.memory().load_u32(0x4000);
            let want = values.iter().fold(init, |acc, &x| f(acc, x));
            assert_eq!(got, want, "{op:?}");
        }
    }
}

/// Characterization identity: disjoint class counts sum to the
/// vector instruction count, and ops >= dynamic instructions.
#[test]
fn characterization_identities() {
    let mut rng = SplitMix64::new(0x15A_0004);
    for _ in 0..8 {
        let n = 1 + rng.below(299) as usize;
        let built = eve_workloads::Workload::vvadd(n).build();
        let mut i = Interpreter::new(built.vector.clone(), built.memory.clone(), 64);
        let mut c = Characterization::new();
        while let Some(r) = i.step().unwrap() {
            c.record(&r);
        }
        let class_sum =
            c.ctrl + c.ialu + c.imul + c.xe + c.unit_stride + c.const_stride + c.indexed;
        assert_eq!(class_sum, c.vector_insts);
        assert!(c.ops >= c.dyn_insts);
        assert!(c.vector_ops <= c.ops);
    }
}
