//! The "ephemeral" in Ephemeral Vector Engines: watch the engine spawn
//! out of a warm L2 cache (§V-E).
//!
//! Warms the private L2 with scalar traffic, then lets an EVE-8 engine
//! spawn: the L2 halves its associativity, the donated ways flush
//! (dirty lines write back), and the reconfiguration cost scales with
//! resident lines — after which vector execution proceeds on the very
//! SRAM arrays that were cache a few microseconds earlier.
//!
//! ```sh
//! cargo run --release --example ephemeral_engine
//! ```

use eve_common::Cycle;
use eve_core::EveEngine;
use eve_cpu::VectorUnit;
use eve_isa::{vreg, Inst, MemEffect, RegId, Retired, VArithOp, VOperand};
use eve_mem::{Hierarchy, HierarchyConfig, Level};

fn main() {
    let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
    println!(
        "L2 before: {} ways, {} resident lines",
        mem.cache(Level::L2).config().ways,
        mem.cache(Level::L2).resident_lines()
    );

    // Scalar phase: stream through 256 KB, half of it dirty.
    for i in 0..4096u64 {
        mem.access(Level::L1D, 0x10_0000 + i * 64, i % 2 == 0, Cycle(i * 8));
    }
    println!(
        "after scalar warm-up: {} resident L2 lines",
        mem.cache(Level::L2).resident_lines()
    );

    // First vector instruction arrives at commit: the engine spawns.
    let mut engine = EveEngine::new(8).expect("EVE-8 is a valid design point");
    let vadd = Retired {
        seq: 0,
        pc: 0,
        inst: Inst::VOp {
            op: VArithOp::Add,
            vd: vreg::V3,
            vs1: vreg::V1,
            rhs: VOperand::Reg(vreg::V2),
            masked: false,
        },
        reads: [
            Some(RegId::V(vreg::V1)),
            Some(RegId::V(vreg::V2)),
            None,
            None,
        ],
        write: Some(RegId::V(vreg::V3)),
        mem: MemEffect::None,
        addrs: Vec::new(),
        vl: 1024,
        branch: None,
        scalar_operand: None,
    };
    let commit = Cycle(40_000);
    engine
        .issue(&vadd, commit, commit, &mut mem)
        .expect("mapped");

    let spawn = engine.stats().get("spawn_cycles");
    println!(
        "\nEVE-8 spawned: {} cycles of reconfiguration (invalidate + write back)",
        spawn
    );
    println!(
        "L2 after spawn: {} ways ({} KB), {} resident lines",
        mem.cache(Level::L2).config().ways,
        mem.cache(Level::L2).config().size_bytes >> 10,
        mem.cache(Level::L2).resident_lines()
    );
    println!(
        "engine: hw VL = {} elements across 32 arrays, first vadd busy {} cycles",
        engine.hw_vl(),
        engine.breakdown().busy.0
    );

    // Returning the ways costs nothing: lines come back invalid.
    let done = engine.drain(&mut mem);
    let back = mem.despawn_vector_mode(done);
    println!(
        "\ndespawned at cycle {}: L2 back to {} ways instantly (lines start invalid)",
        back.0,
        mem.cache(Level::L2).config().ways
    );

    // The scalar stream misses cold now, but the cache refills as usual.
    let a = mem.access(Level::L1D, 0x10_0000, false, back + Cycle(100));
    let refilled = mem.access(Level::L1D, 0x10_0000, false, a.complete + Cycle(100_000));
    println!(
        "first touch after despawn: {:?} hit; second: {:?} hit",
        a.hit_level, refilled.hit_level
    );
}
