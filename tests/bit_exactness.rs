//! Seeded-fuzz bit-exactness: the EVE SRAM circuits, driven by the
//! real μprograms, must agree with plain Rust integer semantics on
//! random and edge-case inputs for every macro-operation and every
//! parallelization factor — the role SPICE/schematic verification
//! played in §VI. The inputs come from a fixed-seed [`SplitMix64`]
//! stream, so failures reproduce exactly.

use eve_common::SplitMix64;
use eve_sram::{Binding, EveArray};
use eve_uop::{HybridConfig, MacroOpKind, ProgramLibrary};

fn run_op(cfg: HybridConfig, kind: MacroOpKind, a: u32, b: u32) -> u32 {
    let lib = ProgramLibrary::new(cfg);
    let mut arr = EveArray::new(cfg, 2);
    arr.write_element(1, 0, a);
    arr.write_element(2, 0, b);
    arr.write_element(1, 1, b);
    arr.write_element(2, 1, a);
    let prog = lib.program(kind);
    arr.execute(&prog, &Binding::new(3, 1, 2));
    arr.read_element(3, 0)
}

fn configs() -> Vec<HybridConfig> {
    [1u32, 2, 4, 8, 16, 32]
        .iter()
        .map(|&n| HybridConfig::new(n).unwrap())
        .collect()
}

/// Edge values plus a seeded random stream of operand pairs.
fn operand_pairs(seed: u64, random: usize) -> Vec<(u32, u32)> {
    const EDGES: [u32; 6] = [0, 1, 2, u32::MAX, i32::MIN as u32, i32::MAX as u32];
    let mut pairs: Vec<(u32, u32)> = EDGES
        .iter()
        .flat_map(|&a| EDGES.iter().map(move |&b| (a, b)))
        .collect();
    let mut rng = SplitMix64::new(seed);
    pairs.extend((0..random).map(|_| (rng.next_u32(), rng.next_u32())));
    pairs
}

#[test]
fn add_sub_exact() {
    for cfg in configs() {
        for (a, b) in operand_pairs(0x5EED_0001, 8) {
            assert_eq!(run_op(cfg, MacroOpKind::Add, a, b), a.wrapping_add(b));
            assert_eq!(run_op(cfg, MacroOpKind::Sub, a, b), a.wrapping_sub(b));
        }
    }
}

#[test]
fn logic_exact() {
    for cfg in configs() {
        for (a, b) in operand_pairs(0x5EED_0002, 8) {
            assert_eq!(run_op(cfg, MacroOpKind::And, a, b), a & b);
            assert_eq!(run_op(cfg, MacroOpKind::Or, a, b), a | b);
            assert_eq!(run_op(cfg, MacroOpKind::Xor, a, b), a ^ b);
            assert_eq!(run_op(cfg, MacroOpKind::Not, a, b), !a);
            assert_eq!(run_op(cfg, MacroOpKind::Mv, a, b), a);
        }
    }
}

#[test]
fn mul_exact() {
    for cfg in configs() {
        for (a, b) in operand_pairs(0x5EED_0003, 8) {
            assert_eq!(run_op(cfg, MacroOpKind::Mul, a, b), a.wrapping_mul(b));
        }
    }
}

#[test]
fn div_rem_exact() {
    for cfg in configs() {
        for (a, b) in operand_pairs(0x5EED_0004, 8) {
            let want_q = a.checked_div(b).unwrap_or(u32::MAX);
            let want_r = a.checked_rem(b).unwrap_or(a);
            assert_eq!(run_op(cfg, MacroOpKind::Divu, a, b), want_q);
            assert_eq!(run_op(cfg, MacroOpKind::Remu, a, b), want_r);
        }
    }
}

#[test]
fn shifts_exact() {
    let mut rng = SplitMix64::new(0x5EED_0005);
    for cfg in configs() {
        for k in 0u8..32 {
            let a = rng.next_u32();
            assert_eq!(run_op(cfg, MacroOpKind::SllI(k), a, 0), a << k);
            assert_eq!(run_op(cfg, MacroOpKind::SrlI(k), a, 0), a >> k);
            assert_eq!(
                run_op(cfg, MacroOpKind::SraI(k), a, 0),
                ((a as i32) >> k) as u32
            );
        }
    }
}

#[test]
fn variable_shifts_exact() {
    let mut rng = SplitMix64::new(0x5EED_0006);
    for cfg in configs() {
        for k in 0u32..32 {
            let a = rng.next_u32();
            assert_eq!(run_op(cfg, MacroOpKind::SllV, a, k), a << k);
            assert_eq!(run_op(cfg, MacroOpKind::SrlV, a, k), a >> k);
            assert_eq!(
                run_op(cfg, MacroOpKind::SraV, a, k),
                ((a as i32) >> k) as u32
            );
        }
    }
}

#[test]
fn compares_exact() {
    for cfg in configs() {
        for (a, b) in operand_pairs(0x5EED_0007, 8) {
            assert_eq!(run_op(cfg, MacroOpKind::CmpLtu, a, b) & 1, u32::from(a < b));
            assert_eq!(
                run_op(cfg, MacroOpKind::CmpLt, a, b) & 1,
                u32::from((a as i32) < (b as i32))
            );
            assert_eq!(run_op(cfg, MacroOpKind::CmpEq, a, b) & 1, u32::from(a == b));
            assert_eq!(run_op(cfg, MacroOpKind::CmpNe, a, b) & 1, u32::from(a != b));
        }
    }
}

#[test]
fn minmax_exact() {
    for cfg in configs() {
        for (a, b) in operand_pairs(0x5EED_0008, 8) {
            assert_eq!(run_op(cfg, MacroOpKind::Minu, a, b), a.min(b));
            assert_eq!(run_op(cfg, MacroOpKind::Maxu, a, b), a.max(b));
            assert_eq!(
                run_op(cfg, MacroOpKind::Min, a, b),
                (a as i32).min(b as i32) as u32
            );
            assert_eq!(
                run_op(cfg, MacroOpKind::Max, a, b),
                (a as i32).max(b as i32) as u32
            );
        }
    }
}

#[test]
fn splat_exact() {
    let mut rng = SplitMix64::new(0x5EED_0009);
    for cfg in configs() {
        for _ in 0..8 {
            let v = rng.next_u32();
            assert_eq!(run_op(cfg, MacroOpKind::Splat(v), 0, 0), v);
        }
    }
}

/// Cycle counts are identical whether a program runs on the counting
/// executor or the bit-accurate array — the vertical integration the
/// engine's timing model relies on.
#[test]
fn counting_and_bit_accurate_executors_agree() {
    use eve_uop::count_cycles;
    let mut rng = SplitMix64::new(0x5EED_000A);
    for cfg in configs() {
        for _ in 0..4 {
            let (a, b) = (rng.next_u32(), rng.next_u32());
            let k = rng.below(32) as u8;
            for kind in [
                MacroOpKind::Add,
                MacroOpKind::Mul,
                MacroOpKind::Divu,
                MacroOpKind::SllI(k),
                MacroOpKind::Min,
                MacroOpKind::Merge,
            ] {
                let lib = ProgramLibrary::new(cfg);
                let prog = lib.program(kind);
                let mut arr = EveArray::new(cfg, 2);
                arr.write_element(1, 0, a);
                arr.write_element(2, 0, b);
                let real = arr.execute(&prog, &Binding::new(3, 1, 2));
                assert_eq!(real, count_cycles(&prog, cfg));
            }
        }
    }
}

/// A program that branches past its last tuple is a generator bug, and
/// every caller of the one μprogram sequencer (`eve_uop::walk`) reports
/// it with the same message.
#[test]
fn every_executor_rejects_a_branch_off_the_end_alike() {
    use eve_analytical::program_energy;
    use eve_uop::{count_cycles, ProgramBuilder};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let mut b = ProgramBuilder::new("off_the_end");
    b.jump("end");
    b.ret();
    b.label("end");
    let prog = b.build().expect("every label resolves");
    let cfg = HybridConfig::new(8).unwrap();
    let panic_message = |run: &dyn Fn()| -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
        *payload.downcast::<String>().expect("a formatted message")
    };
    let counted = panic_message(&|| {
        let _ = count_cycles(&prog, cfg);
    });
    let energy = panic_message(&|| {
        let _ = program_energy(&prog, cfg);
    });
    let executed = panic_message(&|| {
        EveArray::new(cfg, 2).execute(&prog, &Binding::new(3, 1, 2));
    });
    assert_eq!(counted, "program off_the_end ran off the end at pc 2");
    assert_eq!(energy, counted);
    assert_eq!(executed, counted);
}
