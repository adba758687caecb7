//! The single-issue in-order core (Table III "IO").
//!
//! One instruction per cycle, blocking on loads, with a small
//! store buffer and static not-taken branch prediction — a deliberate
//! low-end baseline, like the paper's own in-order core model.

use crate::vector_if::EngineError;
use crate::CODE_BASE;
use eve_common::{counter_slots, Counters, Cycle, Stats};
use eve_isa::{Inst, MemEffect, Retired, ScalarOp};
use eve_mem::{Hierarchy, HierarchyConfig, Level};
use eve_obs::Tracer;
use std::collections::VecDeque;

/// Store-buffer depth: retired stores drain in the background; a full
/// buffer stalls the core.
const STORE_BUFFER: usize = 8;
/// Taken-branch redirect penalty.
const BRANCH_PENALTY: u64 = 2;
/// Iterative multiply latency.
const MUL_LATENCY: u64 = 3;
/// Iterative divide latency.
const DIV_LATENCY: u64 = 20;

counter_slots! {
    enum Ctr {
        Insts => "insts",
        IcacheStalls => "icache_stalls",
        LoadStallCycles => "load_stall_cycles",
        Loads => "loads",
        StoreStallCycles => "store_stall_cycles",
        Stores => "stores",
        TakenBranches => "taken_branches",
    }
}

/// The in-order scalar core.
#[derive(Debug)]
pub struct IoCore {
    mem: Hierarchy,
    now: Cycle,
    store_buf: VecDeque<Cycle>,
    fetch_line: u64,
    ctr: Counters<Ctr>,
    tracer: Option<Tracer>,
}

impl Default for IoCore {
    fn default() -> Self {
        Self::new()
    }
}

impl IoCore {
    /// An IO core with the Table III memory hierarchy.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(HierarchyConfig::table_iii())
    }

    /// An IO core with a custom memory hierarchy (ablations).
    #[must_use]
    pub fn with_config(cfg: HierarchyConfig) -> Self {
        Self::with_hierarchy(Hierarchy::new(cfg))
    }

    /// An IO core over a prebuilt hierarchy (CMP construction).
    #[must_use]
    pub fn with_hierarchy(mem: Hierarchy) -> Self {
        Self {
            mem,
            now: Cycle::ZERO,
            store_buf: VecDeque::new(),
            fetch_line: u64::MAX,
            ctr: Counters::new(),
            tracer: None,
        }
    }

    /// Attaches a tracer to the core and its hierarchy. Stalls then
    /// emit spans on the `io` track.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.mem.set_tracer(tracer);
        self.tracer = Some(tracer.clone());
    }

    /// Accounts one committed instruction.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoVectorUnit`] if fed a vector
    /// instruction — IO runs scalar binaries.
    pub fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        if r.inst.is_vector() {
            return Err(EngineError::NoVectorUnit {
                inst: format!("{:?}", r.inst),
                pc: u64::from(r.pc),
            });
        }
        self.ctr.incr(Ctr::Insts);
        // Fetch: charge the I-cache when crossing into a new line.
        let fetch_addr = CODE_BASE + u64::from(r.pc) * 4;
        let line = fetch_addr / eve_mem::LINE_BYTES;
        if line != self.fetch_line {
            self.fetch_line = line;
            let f = self.mem.access(Level::L1I, fetch_addr, false, self.now);
            if f.hit_level != Level::L1I {
                if let Some(tr) = &self.tracer {
                    let stall = f.complete.saturating_since(self.now).0;
                    tr.span("io", "icache_stall", "icache", self.now.0, stall);
                }
                self.now = f.complete;
                self.ctr.incr(Ctr::IcacheStalls);
            }
        }
        // Issue.
        self.now += Cycle(1);
        match (&r.inst, &r.mem) {
            (
                _,
                MemEffect::Scalar {
                    addr, store: false, ..
                },
            ) => {
                let a = self.mem.access(Level::L1D, *addr, false, self.now);
                let stall = a.complete.saturating_since(self.now);
                if let Some(tr) = &self.tracer {
                    tr.span("io", "load_stall", "load", self.now.0, stall.0);
                    tr.record("io.load_stall", stall.0);
                }
                self.ctr.add(Ctr::LoadStallCycles, stall.0);
                self.now = a.complete;
                self.ctr.incr(Ctr::Loads);
            }
            (
                _,
                MemEffect::Scalar {
                    addr, store: true, ..
                },
            ) => {
                // Drain the store buffer of completed entries.
                while let Some(&front) = self.store_buf.front() {
                    if front <= self.now {
                        self.store_buf.pop_front();
                    } else {
                        break;
                    }
                }
                if self.store_buf.len() >= STORE_BUFFER {
                    let free_at = *self.store_buf.front().expect("nonempty");
                    let stall = free_at.saturating_since(self.now);
                    if let Some(tr) = &self.tracer {
                        tr.span(
                            "io",
                            "store_stall",
                            "store_buffer_full",
                            self.now.0,
                            stall.0,
                        );
                        tr.record("io.store_stall", stall.0);
                    }
                    self.ctr.add(Ctr::StoreStallCycles, stall.0);
                    self.now = self.now.max(free_at);
                    self.store_buf.pop_front();
                }
                let a = self.mem.access(Level::L1D, *addr, true, self.now);
                self.store_buf.push_back(a.complete);
                self.ctr.incr(Ctr::Stores);
            }
            (Inst::Op { op, .. } | Inst::OpImm { op, .. }, _) => match op {
                ScalarOp::Mul => self.now += Cycle(MUL_LATENCY - 1),
                ScalarOp::Div | ScalarOp::Rem => self.now += Cycle(DIV_LATENCY - 1),
                _ => {}
            },
            (Inst::Branch { .. } | Inst::Jump { .. }, _) => {
                if matches!(r.branch, Some((true, _))) {
                    self.now += Cycle(BRANCH_PENALTY);
                    self.ctr.incr(Ctr::TakenBranches);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Finishes simulation: drains the store buffer and returns total
    /// cycles.
    pub fn finish(&mut self) -> Cycle {
        if let Some(&last) = self.store_buf.back() {
            self.now = self.now.max(last);
        }
        self.store_buf.clear();
        self.now
    }

    /// Core counters merged with the memory hierarchy's.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = self.ctr.to_stats();
        s.merge(&self.mem.collect_stats());
        s
    }

    /// The core's memory hierarchy (for inspection in tests).
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::{xreg, Asm, Interpreter, Memory};

    fn run_io(asm: Asm) -> (Cycle, Stats) {
        let mut i = Interpreter::new(asm.assemble().unwrap(), Memory::new(1 << 16), 1);
        let mut core = IoCore::new();
        while let Some(r) = i.step().unwrap() {
            core.retire(&r).unwrap();
        }
        (core.finish(), core.stats())
    }

    #[test]
    fn ipc_approaches_one_on_hot_alu_loop() {
        // A hot loop: the I-cache warms after the first iteration, so
        // cycles/inst approaches 1 + branch bubbles.
        let mut a = Asm::new();
        a.li(xreg::T0, 500);
        a.label("l");
        a.addi(xreg::T1, xreg::T1, 1);
        a.addi(xreg::T2, xreg::T2, 1);
        a.addi(xreg::T0, xreg::T0, -1);
        a.bnez(xreg::T0, "l");
        a.halt();
        let (cycles, stats) = run_io(a);
        let insts = stats.get("insts");
        assert!(cycles.0 >= insts, "at least 1 cycle per inst");
        // 4 insts + 2 branch-bubble cycles per iteration, plus a cold
        // fetch at the start.
        assert!(cycles.0 < insts * 2, "cycles {cycles} for {insts} insts");
    }

    #[test]
    fn loads_block_the_pipeline() {
        let mut with_loads = Asm::new();
        with_loads.li(xreg::A0, 0x100);
        for k in 0..64 {
            with_loads.lw(xreg::T0, xreg::A0, k * 64);
        }
        with_loads.halt();
        let (c_loads, stats) = run_io(with_loads);
        let mut no_loads = Asm::new();
        no_loads.li(xreg::A0, 0x100);
        for _ in 0..64 {
            no_loads.addi(xreg::T0, xreg::A0, 1);
        }
        no_loads.halt();
        let (c_alu, _) = run_io(no_loads);
        assert!(
            c_loads.0 > c_alu.0 * 10,
            "distinct-line cold loads must dominate: {c_loads} vs {c_alu}"
        );
        assert!(stats.get("load_stall_cycles") > 0);
    }

    #[test]
    fn taken_branches_cost_bubbles() {
        let mut a = Asm::new();
        a.li(xreg::T0, 100);
        a.label("l");
        a.addi(xreg::T0, xreg::T0, -1);
        a.bnez(xreg::T0, "l");
        a.halt();
        let (cycles, stats) = run_io(a);
        assert_eq!(stats.get("taken_branches"), 99);
        // 2 + 200 loop insts + 99 * 2 bubbles + fetch.
        assert!(cycles.0 >= 400);
    }

    #[test]
    fn rejects_vector_instructions() {
        let mut a = Asm::new();
        a.setvl(xreg::T0, xreg::A0);
        a.halt();
        let mut i = Interpreter::new(a.assemble().unwrap(), Memory::new(64), 4);
        let mut core = IoCore::new();
        let mut err = None;
        while let Some(r) = i.step().unwrap() {
            if let Err(e) = core.retire(&r) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(EngineError::NoVectorUnit { .. })));
    }
}
