//! Differential fuzzing of the lane-bitsliced μop executor against the
//! lane-serial scalar oracle.
//!
//! `EveArray` packs the lane dimension into u64 bit-planes and executes
//! μops as word-parallel boolean algebra; `ScalarArray` keeps the
//! original one-lane-at-a-time executor. The two must be indistinguishable through the public API —
//! register contents, data-out port, cycle counts, parity alarms, and
//! fault-injector consumption — for *any* μop sequence, not just the
//! library programs. This harness throws seeded-random μprograms (raw
//! tuples straight from the μop vocabulary), random library macro-ops,
//! awkward lane counts (1, 63, 100: partial tail words), and armed
//! fault injectors at both and compares everything after every step.

use eve_common::SplitMix64;
use eve_sram::{Binding, EveArray, FaultConfig, FaultInjector, ScalarArray};
use eve_uop::{
    ArithUop, CarryIn, ComputeSrc, CounterId, CounterUop, HybridConfig, MacroOpKind, MaskSrc,
    MicroProgram, Operand, ProgramBuilder, ProgramLibrary, SegSel, VSlot, WbDest,
};

/// Architectural registers the fuzz binds and checks (v0..=v8; v0 so the
/// mask-register row region is covered too).
const REGS: u32 = 9;

fn random_slot(rng: &mut SplitMix64) -> VSlot {
    match rng.below(5) {
        0 => VSlot::D,
        1 => VSlot::S1,
        2 => VSlot::S2,
        3 => VSlot::Mask,
        _ => VSlot::Scratch(rng.below(6) as u8),
    }
}

fn random_operand(rng: &mut SplitMix64, segs: u32, ctr: Option<CounterId>) -> Operand {
    let slot = random_slot(rng);
    let seg = match ctr {
        Some(c) => match rng.below(3) {
            0 => SegSel::Up(c),
            1 => SegSel::Down(c),
            _ => SegSel::At(rng.below(u64::from(segs)) as u8),
        },
        None => SegSel::At(rng.below(u64::from(segs)) as u8),
    };
    Operand::new(slot, seg)
}

/// Draws one arithmetic μop covering the whole Table II vocabulary.
fn random_uop(rng: &mut SplitMix64, segs: u32, ctr: Option<CounterId>) -> ArithUop {
    let masked = rng.below(2) == 1;
    match rng.below(17) {
        0 => ArithUop::Read {
            op: random_operand(rng, segs, ctr),
        },
        1 => ArithUop::WriteConst {
            op: random_operand(rng, segs, ctr),
            value: rng.next_u32(),
            masked,
        },
        2 => ArithUop::WriteDataIn {
            op: random_operand(rng, segs, ctr),
        },
        3..=5 => ArithUop::Blc {
            a: random_operand(rng, segs, ctr),
            b: random_operand(rng, segs, ctr),
            carry_in: match rng.below(3) {
                0 => CarryIn::Stored,
                1 => CarryIn::Zero,
                _ => CarryIn::One,
            },
        },
        6..=8 => ArithUop::Writeback {
            dst: match rng.below(4) {
                0 | 1 => WbDest::Row(random_operand(rng, segs, ctr)),
                2 => WbDest::MaskReg,
                _ => WbDest::XReg,
            },
            src: match rng.below(9) {
                0 => ComputeSrc::And,
                1 => ComputeSrc::Nand,
                2 => ComputeSrc::Or,
                3 => ComputeSrc::Nor,
                4 => ComputeSrc::Xor,
                5 => ComputeSrc::Xnor,
                6 => ComputeSrc::Add,
                7 => ComputeSrc::Shift,
                _ => ComputeSrc::Mask,
            },
            masked,
        },
        9 => ArithUop::LoadShifter {
            op: random_operand(rng, segs, ctr),
        },
        10 => ArithUop::StoreShifter {
            op: random_operand(rng, segs, ctr),
            masked,
        },
        11 => ArithUop::LoadXReg {
            op: random_operand(rng, segs, ctr),
        },
        12 => match rng.below(4) {
            0 => ArithUop::ShiftLeft { masked },
            1 => ArithUop::ShiftRight { masked },
            2 => ArithUop::RotateLeft { masked },
            _ => ArithUop::RotateRight { masked },
        },
        13 => ArithUop::MaskShift,
        14 => ArithUop::SetMask {
            src: match rng.below(5) {
                0 => MaskSrc::XRegLsb,
                1 => MaskSrc::XRegMsb,
                2 => MaskSrc::AddMsb,
                3 => MaskSrc::Carry,
                _ => MaskSrc::AllOnes,
            },
            invert: rng.below(2) == 1,
        },
        15 => ArithUop::SetCarry {
            value: rng.below(2) == 1,
        },
        _ => ArithUop::ClearSpare,
    }
}

/// Builds a random μprogram: either straight-line or one segment loop
/// (so `SegSel::Up`/`Down` operands get exercised against a live
/// counter), always terminated by `ret`.
fn random_program(rng: &mut SplitMix64, cfg: HybridConfig) -> MicroProgram {
    let segs = cfg.segments();
    let mut b = ProgramBuilder::new("fuzz");
    let len = 3 + rng.below(12);
    if rng.below(2) == 0 {
        for _ in 0..len {
            b.arith(random_uop(rng, segs, None));
        }
        b.ret();
    } else {
        let ctr = CounterId::seg(0);
        b.counter(CounterUop::Init { ctr, value: segs });
        b.label("body");
        for _ in 0..len {
            b.arith(random_uop(rng, segs, Some(ctr)));
        }
        b.decr_branch_nz(ctr, "body");
        b.ret();
    }
    b.build().expect("fuzz program assembles")
}

/// Asserts every externally observable surface of the two arrays agrees.
fn assert_same_state(fast: &EveArray, slow: &ScalarArray, lanes: usize, ctx: &str) {
    for r in 0..REGS {
        for lane in 0..lanes {
            assert_eq!(
                fast.read_element(r, lane),
                slow.read_element(r, lane),
                "{ctx}: reg {r} lane {lane}"
            );
        }
    }
    assert_eq!(fast.data_out(), slow.data_out(), "{ctx}: data-out port");
    assert_eq!(
        fast.parity_alarms(),
        slow.parity_alarms(),
        "{ctx}: parity alarms"
    );
    match (fast.injector(), slow.injector()) {
        (None, None) => {}
        (Some(fi), Some(si)) => {
            assert_eq!(fi.cycle(), si.cycle(), "{ctx}: injector cycle");
            assert_eq!(fi.stats(), si.stats(), "{ctx}: injector stats");
        }
        _ => panic!("{ctx}: injector presence diverged"),
    }
}

/// Runs `steps` random μprograms on a fresh pair of arrays, comparing
/// after every execution. `fault_rate` arms identical injectors on both.
fn run_case(
    cfg: HybridConfig,
    lanes: usize,
    steps: u64,
    fault_rate: Option<f64>,
    rng: &mut SplitMix64,
) {
    let mut fast = EveArray::new(cfg, lanes);
    let mut slow = ScalarArray::new(cfg, lanes);
    for r in 0..REGS {
        for lane in 0..lanes {
            let v = rng.next_u32();
            fast.write_element(r, lane, v);
            slow.write_element(r, lane, v);
        }
    }
    if let Some(rate) = fault_rate {
        let seed = rng.next_u64();
        fast.attach_injector(FaultInjector::new(FaultConfig::uniform(seed, rate)));
        slow.attach_injector(FaultInjector::new(FaultConfig::uniform(seed, rate)));
    }
    for step in 0..steps {
        let prog = random_program(rng, cfg);
        let d = rng.below(u64::from(REGS)) as u8;
        let s1 = rng.below(u64::from(REGS)) as u8;
        let s2 = rng.below(u64::from(REGS)) as u8;
        let binding = Binding::new(d, s1, s2);
        let data: Vec<u32> = (0..lanes).map(|_| rng.next_u32()).collect();
        fast.set_data_in(data.clone());
        slow.set_data_in(data);
        let cf = fast.execute(&prog, &binding);
        let cs = slow.execute(&prog, &binding);
        assert_eq!(cf, cs, "{cfg} lanes={lanes} step {step}: cycle count");
        assert_same_state(
            &fast,
            &slow,
            lanes,
            &format!("{cfg} lanes={lanes} step {step} (d={d} s1={s1} s2={s2})"),
        );
    }
}

/// Random raw-μop programs, healthy arrays, lane counts around the
/// 64-lane word boundary.
#[test]
fn random_programs_match_scalar_oracle() {
    let mut rng = SplitMix64::new(0xB17_511CE);
    for cfg in HybridConfig::all() {
        for lanes in [16, 80] {
            for _ in 0..3 {
                run_case(cfg, lanes, 6, None, &mut rng);
            }
        }
    }
}

/// Random raw-μop programs with identically-seeded fault injectors
/// armed on both arrays: corruption *and* RNG consumption must match
/// call for call, or the two drift apart within a step or two.
#[test]
fn random_programs_match_under_faults() {
    let mut rng = SplitMix64::new(0xB17_FA17);
    for cfg in HybridConfig::all() {
        for lanes in [16, 80] {
            for _ in 0..2 {
                run_case(cfg, lanes, 5, Some(5e-3), &mut rng);
            }
        }
    }
}

/// Degenerate and non-multiple-of-64 lane counts: 1 (a single lane in a
/// 64-bit word), 63 (one partial word), 100 (full word + partial tail).
/// The bitsliced tail-masking must keep dead bits invisible.
#[test]
fn odd_lane_counts_match() {
    let mut rng = SplitMix64::new(0xB17_0DD);
    for cfg in HybridConfig::all() {
        for lanes in [1, 63, 100] {
            run_case(cfg, lanes, 4, None, &mut rng);
            run_case(cfg, lanes, 4, Some(1e-2), &mut rng);
        }
    }
}

/// Every library macro-op (including the functionally-modelled signed
/// division family — the two executors must still agree with each
/// other) on every configuration, healthy and faulty.
#[test]
fn library_programs_match_scalar_oracle() {
    use MacroOpKind as M;
    let mut rng = SplitMix64::new(0xB17_11B);
    let kinds = [
        M::Mv,
        M::Not,
        M::And,
        M::Or,
        M::Xor,
        M::Add,
        M::Sub,
        M::Mul,
        M::MulAcc,
        M::Mulh,
        M::Divu,
        M::Remu,
        M::Div,
        M::Rem,
        M::SllI(5),
        M::SrlI(17),
        M::SraI(1),
        M::RotlI(9),
        M::RotrI(30),
        M::SllV,
        M::SrlV,
        M::SraV,
        M::CmpEq,
        M::CmpNe,
        M::CmpLt,
        M::CmpLtu,
        M::Min,
        M::Max,
        M::Minu,
        M::Maxu,
        M::Merge,
        M::MaskAnd,
        M::MaskOr,
        M::MaskXor,
        M::MaskNot,
        M::Splat(0xDEAD_BEEF),
    ];
    const LANES: usize = 67;
    for cfg in HybridConfig::all() {
        let lib = ProgramLibrary::new(cfg);
        for fault_rate in [None, Some(2e-3)] {
            let mut fast = EveArray::new(cfg, LANES);
            let mut slow = ScalarArray::new(cfg, LANES);
            for r in 0..REGS {
                for lane in 0..LANES {
                    let v = rng.next_u32();
                    fast.write_element(r, lane, v);
                    slow.write_element(r, lane, v);
                }
            }
            if let Some(rate) = fault_rate {
                let seed = rng.next_u64();
                fast.attach_injector(FaultInjector::new(FaultConfig::uniform(seed, rate)));
                slow.attach_injector(FaultInjector::new(FaultConfig::uniform(seed, rate)));
            }
            for &kind in &kinds {
                let prog = lib.program(kind);
                let d = 1 + rng.below(u64::from(REGS) - 1) as u8;
                let s1 = 1 + rng.below(u64::from(REGS) - 1) as u8;
                let s2 = 1 + rng.below(u64::from(REGS) - 1) as u8;
                let binding = Binding::new(d, s1, s2);
                let cf = fast.execute(&prog, &binding);
                let cs = slow.execute(&prog, &binding);
                assert_eq!(cf, cs, "{cfg} {kind:?}: cycle count");
                assert_same_state(&fast, &slow, LANES, &format!("{cfg} {kind:?}"));
            }
        }
    }
}
