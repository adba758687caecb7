//! Differential fuzzing of the second-wave workload kernels across both
//! μop executors.
//!
//! `tests/bitslice_equiv.rs` proves the lane-serial scalar oracle and
//! the bitsliced interpreter equivalent under *random* μop programs and
//! isolated library macro-ops. This harness closes the remaining gap:
//! the macro-op streams that real kernels actually emit. Each
//! second-wave workload (spmv, histogram, blackscholes, scan) is run
//! through the ISA interpreter and its retired compute instructions are
//! lowered through the VCU mapping (`eve_core::mapping::macro_ops`)
//! into a `(MacroOpKind, Binding)` stream — gather-offset multiplies,
//! scatter-tag mask algebra, clamp/merge chains, ladder adds — then the
//! stream is replayed on the scalar oracle and the interpreter,
//! comparing every externally observable surface after every macro-op.
//! A second pass replays the stream over the state the first left
//! behind, and an armed-injector variant pins the fault-RNG
//! consumption order.

use eve_common::SplitMix64;
use eve_core::mapping::macro_ops;
use eve_isa::{Inst, Interpreter, VOperand};
use eve_sram::{Binding, EveArray, FaultConfig, FaultInjector, ScalarArray};
use eve_uop::{HybridConfig, MacroOpKind, ProgramLibrary};
use eve_workloads::Workload;

/// Architectural registers the kernels bind and the harness checks
/// (v0..=v8 — every second-wave kernel stays inside this window, so
/// vector register numbers map directly onto array rows).
const REGS: u32 = 9;
/// Row a `Splat` macro-op broadcasts into when the VCU materializes a
/// scalar/immediate operand. Overlap with a kernel register is fine —
/// both executors see the identical stream.
const SPLAT_ROW: u8 = 8;
/// Stream cap per kernel: enough to cover every phase of every kernel
/// (the longest setvl strip plus conflict-loop iterations) while
/// keeping the lane-serial oracle affordable.
const MAX_OPS: usize = 120;

/// The four kernels this harness owns.
const KERNELS: [&str; 4] = ["spmv", "histogram", "blackscholes", "scan"];

fn rhs_row(rhs: VOperand) -> u8 {
    match rhs {
        VOperand::Reg(v) => v.index(),
        VOperand::Scalar(_) | VOperand::Imm(_) => SPLAT_ROW,
    }
}

/// The register binding the VCU would issue for a compute instruction.
fn inst_binding(inst: &Inst) -> Binding {
    match *inst {
        Inst::VOp { vd, vs1, rhs, .. } => Binding::new(vd.index(), vs1.index(), rhs_row(rhs)),
        Inst::VCmp { vd, vs1, rhs, .. } => Binding::new(vd.index(), vs1.index(), rhs_row(rhs)),
        Inst::VMerge { vd, vs1, rhs } => Binding::new(vd.index(), vs1.index(), rhs_row(rhs)),
        Inst::VMask { md, m1, m2, .. } => Binding::new(md.index(), m1.index(), m2.index()),
        Inst::VMv { vd, rhs } => Binding::new(vd.index(), rhs_row(rhs), rhs_row(rhs)),
        ref other => panic!("no VSU binding for {other:?}"),
    }
}

/// Runs a kernel's vector program through the ISA interpreter and
/// lowers every retired compute instruction into the macro-op stream
/// the VSU would execute, with the bindings the VCU would attach.
fn op_stream(name: &str) -> Vec<(MacroOpKind, Binding)> {
    let built = Workload::tiny_by_name(name)
        .unwrap_or_else(|e| panic!("{e}"))
        .build();
    let mut interp = Interpreter::new(built.vector, built.memory, 64);
    let mut stream = Vec::new();
    while let Some(r) = interp.step().expect("kernel runs") {
        let Some(ops) = macro_ops(&r.inst, r.scalar_operand) else {
            continue;
        };
        let main = inst_binding(&r.inst);
        for &op in ops.iter() {
            // A Splat that *materializes an operand* (more ops follow)
            // lands in the scratch broadcast row; a Splat that *is* the
            // instruction (vmv.v.i) writes the architectural dest.
            let b = match op {
                MacroOpKind::Splat(_) if stream_needs_scratch(&r.inst) => {
                    Binding::new(SPLAT_ROW, SPLAT_ROW, SPLAT_ROW)
                }
                _ => main,
            };
            stream.push((op, b));
        }
        if stream.len() >= MAX_OPS {
            break;
        }
    }
    stream.truncate(MAX_OPS);
    assert!(!stream.is_empty(), "{name}: kernel emitted no compute ops");
    stream
}

/// Whether a splat from this instruction feeds a follow-on macro-op
/// (operand materialization) rather than being the whole instruction.
fn stream_needs_scratch(inst: &Inst) -> bool {
    !matches!(inst, Inst::VMv { .. })
}

/// Asserts the scalar oracle agrees with a bitsliced array on the
/// architectural surface.
fn assert_scalar_same(fast: &EveArray, slow: &ScalarArray, lanes: usize, ctx: &str) {
    for r in 0..REGS {
        for lane in 0..lanes {
            assert_eq!(
                fast.read_element(r, lane),
                slow.read_element(r, lane),
                "{ctx}: reg {r} lane {lane}"
            );
        }
    }
    assert_eq!(fast.data_out(), slow.data_out(), "{ctx}: data-out");
    assert_eq!(
        fast.parity_alarms(),
        slow.parity_alarms(),
        "{ctx}: parity alarms"
    );
}

fn seeded_rng(salt: u64) -> SplitMix64 {
    SplitMix64::new(0x0003_C04D_4A7E ^ salt)
}

/// Every kernel stream, every hybrid configuration: the scalar oracle
/// and the interpreter must stay byte-identical after every macro-op,
/// over two passes through the stream.
#[test]
fn kernel_streams_agree_across_all_three_tiers() {
    const LANES: usize = 67;
    for (ki, name) in KERNELS.iter().enumerate() {
        let stream = op_stream(name);
        for cfg in HybridConfig::all() {
            let mut rng = seeded_rng(ki as u64 ^ u64::from(cfg.segment_bits()));
            let lib = ProgramLibrary::new(cfg);
            let mut scalar = ScalarArray::new(cfg, LANES);
            let mut interp = EveArray::new(cfg, LANES);
            for r in 0..REGS {
                for lane in 0..LANES {
                    let v = rng.next_u32();
                    scalar.write_element(r, lane, v);
                    interp.write_element(r, lane, v);
                }
            }
            for pass in 0..2 {
                for (step, &(kind, binding)) in stream.iter().enumerate() {
                    let data: Vec<u32> = (0..LANES).map(|_| rng.next_u32()).collect();
                    scalar.set_data_in(data.clone());
                    interp.set_data_in(data);
                    let cs = scalar.execute(&lib.program(kind), &binding);
                    let ci = interp.execute(&lib.program(kind), &binding);
                    let ctx = format!("{name} {cfg} pass {pass} step {step} {kind:?}");
                    assert_eq!(cs, ci, "{ctx}: scalar/interp cycle count");
                    assert_scalar_same(&interp, &scalar, LANES, &ctx);
                }
            }
        }
    }
}

/// Odd lane counts around the 64-lane word boundary: 1 (single lane in
/// a word), 63 (one partial word), 100 (full word + tail). The
/// interpreter and the scalar oracle must agree on the kernels' real
/// streams at every tail shape.
#[test]
fn odd_lane_counts_interp_and_tiered_agree() {
    for (ki, name) in KERNELS.iter().enumerate() {
        let stream = op_stream(name);
        for cfg in HybridConfig::all() {
            for lanes in [1usize, 63, 100] {
                let mut rng = seeded_rng((ki as u64) << 8 | lanes as u64);
                let lib = ProgramLibrary::new(cfg);
                let mut scalar = ScalarArray::new(cfg, lanes);
                let mut interp = EveArray::new(cfg, lanes);
                for r in 0..REGS {
                    for lane in 0..lanes {
                        let v = rng.next_u32();
                        scalar.write_element(r, lane, v);
                        interp.write_element(r, lane, v);
                    }
                }
                for (step, &(kind, binding)) in stream.iter().enumerate() {
                    let data: Vec<u32> = (0..lanes).map(|_| rng.next_u32()).collect();
                    scalar.set_data_in(data.clone());
                    interp.set_data_in(data);
                    let cs = scalar.execute(&lib.program(kind), &binding);
                    let ci = interp.execute(&lib.program(kind), &binding);
                    let ctx = format!("{name} {cfg} lanes={lanes} step {step} {kind:?}");
                    assert_eq!(cs, ci, "{ctx}: cycle count");
                    assert_scalar_same(&interp, &scalar, lanes, &ctx);
                }
            }
        }
    }
}

/// Armed injectors on real kernel streams: corruption, RNG
/// consumption, and detector state must stay in lockstep between the
/// interpreter and the scalar oracle.
#[test]
fn armed_injector_streams_stay_in_lockstep() {
    const LANES: usize = 67;
    const STEPS: usize = 48;
    for (ki, name) in KERNELS.iter().enumerate() {
        let stream = op_stream(name);
        let steps = stream.len().min(STEPS);
        for cfg in HybridConfig::all() {
            let mut rng = seeded_rng(0xFA17 ^ (ki as u64) << 16 ^ u64::from(cfg.segment_bits()));
            let lib = ProgramLibrary::new(cfg);
            let mut scalar = ScalarArray::new(cfg, LANES);
            let mut interp = EveArray::new(cfg, LANES);
            for r in 0..REGS {
                for lane in 0..LANES {
                    let v = rng.next_u32();
                    scalar.write_element(r, lane, v);
                    interp.write_element(r, lane, v);
                }
            }
            let fc = FaultConfig::uniform(rng.next_u64(), 5e-3);
            scalar.attach_injector(FaultInjector::new(fc.clone()));
            interp.attach_injector(FaultInjector::new(fc));
            for (step, &(kind, binding)) in stream.iter().take(steps).enumerate() {
                let cs = scalar.execute(&lib.program(kind), &binding);
                let ci = interp.execute(&lib.program(kind), &binding);
                let ctx = format!("{name} {cfg} step {step} {kind:?}");
                assert_eq!(cs, ci, "{ctx}: scalar/interp cycle count");
                assert_scalar_same(&interp, &scalar, LANES, &ctx);
                let fi = interp.injector().expect("armed");
                let fs = scalar.injector().expect("armed");
                assert_eq!(fi.cycle(), fs.cycle(), "{ctx}: scalar injector cycle");
                assert_eq!(fi.stats(), fs.stats(), "{ctx}: scalar injector stats");
            }
        }
    }
}

/// The streams themselves are covered: every kernel must exercise the
/// macro-op families its Table-IV signature claims (gather-offset
/// multiplies for spmv, mask algebra for histogram, clamp/merge for
/// blackscholes, splat-fed adds for scan).
#[test]
fn kernel_streams_cover_their_signature_macro_ops() {
    use MacroOpKind as M;
    let has = |stream: &[(MacroOpKind, Binding)], pred: &dyn Fn(MacroOpKind) -> bool| {
        stream.iter().any(|&(k, _)| pred(k))
    };
    let spmv = op_stream("spmv");
    assert!(has(&spmv, &|k| k == M::Mul), "spmv multiplies");
    assert!(
        has(&spmv, &|k| matches!(k, M::Splat(_))),
        "spmv splats the stride scale"
    );

    let hist = op_stream("histogram");
    assert!(has(&hist, &|k| k == M::CmpEq), "histogram tag compare");
    assert!(has(&hist, &|k| k == M::MaskAnd), "histogram winner mask");
    assert!(has(&hist, &|k| k == M::MaskNot), "histogram retry mask");
    assert!(has(&hist, &|k| k == M::Add), "histogram bump");

    let bs = op_stream("blackscholes");
    assert!(has(&bs, &|k| k == M::Mul), "blackscholes multiplies");
    assert!(has(&bs, &|k| k == M::Min), "blackscholes cap clamp");
    assert!(has(&bs, &|k| k == M::Max), "blackscholes floor clamp");
    assert!(
        has(&bs, &|k| k == M::Merge),
        "blackscholes moneyness select"
    );
    assert!(has(&bs, &|k| k == M::CmpLt), "blackscholes compare");
    assert!(
        has(&bs, &|k| matches!(k, M::SraI(_))),
        "blackscholes arithmetic shift"
    );

    let scan = op_stream("scan");
    assert!(has(&scan, &|k| k == M::Add), "scan ladder adds");
    assert!(
        has(&scan, &|k| matches!(k, M::Splat(_))),
        "scan splats the strip carry"
    );
}
