//! `histogram` (RiVEC): binned counting with scatter-conflict
//! resolution — the second-wave conflict kernel.
//!
//! Vectorizing a histogram is the classic scatter-conflict problem:
//! two lanes holding the same bin must not lose an increment. This
//! kernel uses the scatter-tag idiom: every active lane scatters its
//! lane id to `tag[bin]`, gathers it back, and the lanes that read
//! their own id back won the race — exactly one winner per distinct
//! bin. Winners gather-increment-scatter their counts under the mask,
//! losers retry, and the loop drains in max-multiplicity iterations.
//! The whole dance is deterministic, so it runs byte-identically on
//! the scalar oracle and the bitsliced interpreter.

use crate::common::{fill_random, rng, Layout};
use crate::Built;
use eve_isa::{vreg, xreg, Asm, MaskOp, Memory, RedOp, VArithOp, VCmpCond, VOperand};

/// Builds a `bins`-bin count histogram over `n` seeded keys.
///
/// # Panics
///
/// Panics if `n` or `bins` is zero.
#[must_use]
pub fn build(n: usize, bins: usize) -> Built {
    build_at(n, bins, crate::common::DATA_BASE)
}

/// Like [`build`], laying data out from `base` (disjoint address
/// spaces for CMP cores).
#[must_use]
pub fn build_at(n: usize, bins: usize, base: u64) -> Built {
    assert!(n > 0 && bins > 0, "degenerate histogram configuration");
    let mut layout = Layout::at(base);
    let keys = layout.alloc_words(n);
    let hist = layout.alloc_words(bins);
    let tags = layout.alloc_words(bins);
    let mut mem = Memory::new(layout.memory_size());
    let mut r = rng(0x415706);
    fill_random(&mut mem, keys, n, bins as u32, &mut r);

    let kv = mem.load_u32_slice(keys, n);
    let mut counts = vec![0u32; bins];
    for &k in &kv {
        counts[k as usize] += 1;
    }
    let expected = counts
        .iter()
        .enumerate()
        .map(|(b, &c)| (hist + b as u64 * 4, c))
        .collect();

    Built {
        name: "histogram",
        scalar: scalar(n, keys, hist),
        vector: vector(n, keys, hist, tags),
        memory: mem,
        expected,
    }
}

fn scalar(n: usize, keys: u64, hist: u64) -> eve_isa::Program {
    let mut s = Asm::new();
    s.li(xreg::S0, 0); // i
    s.label("loop");
    s.slli(xreg::T5, xreg::S0, 2);
    s.addi(xreg::T5, xreg::T5, keys as i64);
    s.lw(xreg::T0, xreg::T5, 0); // key
    s.slli(xreg::T0, xreg::T0, 2);
    s.addi(xreg::T0, xreg::T0, hist as i64);
    s.lw(xreg::T1, xreg::T0, 0);
    s.addi(xreg::T1, xreg::T1, 1);
    s.sw(xreg::T1, xreg::T0, 0);
    s.addi(xreg::S0, xreg::S0, 1);
    s.li(xreg::T5, n as i64);
    s.bne(xreg::S0, xreg::T5, "loop");
    s.halt();
    s.assemble().expect("histogram scalar assembles")
}

fn vector(n: usize, keys: u64, hist: u64, tags: u64) -> eve_isa::Program {
    let mut s = Asm::new();
    s.li(xreg::S0, 0); // processed
    s.li(xreg::S1, keys as i64); // key cursor
    s.li(xreg::S2, tags as i64);
    s.li(xreg::S3, hist as i64);
    s.label("strip");
    s.li(xreg::T0, n as i64);
    s.sub(xreg::T0, xreg::T0, xreg::S0);
    s.setvl(xreg::T1, xreg::T0);
    s.vload(vreg::V1, xreg::S1); // keys
    s.vsll(vreg::V2, vreg::V1, VOperand::Imm(2)); // byte offsets
    s.vmv(vreg::V3, VOperand::Imm(1)); // active mask: all lanes
    s.label("conflict");
    // Scatter lane ids under the active mask; the last writer per bin
    // (the highest active lane) wins the race deterministically.
    s.vmv(vreg::V0, VOperand::Reg(vreg::V3));
    s.vid(vreg::V4);
    s.vstore_indexed_masked(vreg::V4, xreg::S2, vreg::V2);
    s.vload_indexed_masked(vreg::V5, xreg::S2, vreg::V2);
    s.vcmp(VCmpCond::Eq, vreg::V6, vreg::V5, VOperand::Reg(vreg::V4));
    s.vmask(MaskOp::And, vreg::V6, vreg::V6, vreg::V3); // winners
                                                        // Winners gather their count, bump it, and scatter it back.
    s.vmv(vreg::V0, VOperand::Reg(vreg::V6));
    s.vload_indexed_masked(vreg::V7, xreg::S3, vreg::V2);
    s.vop_masked(VArithOp::Add, vreg::V7, vreg::V7, VOperand::Imm(1));
    s.vstore_indexed_masked(vreg::V7, xreg::S3, vreg::V2);
    // Losers go around again; stop when no lane is active.
    s.vmask(MaskOp::AndNot, vreg::V3, vreg::V3, vreg::V6);
    s.vmv(vreg::V8, VOperand::Imm(0));
    s.vred(RedOp::Sum, vreg::V8, vreg::V3, vreg::V8);
    s.vmv_xs(xreg::T2, vreg::V8);
    s.bnez(xreg::T2, "conflict");
    s.slli(xreg::T5, xreg::T1, 2);
    s.add(xreg::S1, xreg::S1, xreg::T5);
    s.add(xreg::S0, xreg::S0, xreg::T1);
    s.li(xreg::T5, n as i64);
    s.bne(xreg::S0, xreg::T5, "strip");
    s.vmfence();
    s.halt();
    s.assemble().expect("histogram vector assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::Interpreter;

    #[test]
    fn conflict_loop_never_drops_an_increment() {
        for (n, bins) in [(1usize, 1usize), (65, 4), (130, 16), (96, 96)] {
            let built = build(n, bins);
            for hw_vl in [4u32, 64] {
                let mut i = Interpreter::new(built.vector.clone(), built.memory.clone(), hw_vl);
                i.run_to_halt().unwrap();
                built
                    .verify(i.memory())
                    .unwrap_or_else(|e| panic!("n={n} bins={bins} vl={hw_vl}: {e}"));
            }
        }
    }

    #[test]
    fn single_bin_is_the_worst_case_conflict() {
        // Every lane fights over one bin: the conflict loop must run
        // vl iterations per strip and still count exactly n.
        let built = build(70, 1);
        assert_eq!(built.expected, vec![(built.expected[0].0, 70)]);
        let mut i = Interpreter::new(built.vector.clone(), built.memory.clone(), 64);
        i.run_to_halt().unwrap();
        built.verify(i.memory()).unwrap();
    }
}
