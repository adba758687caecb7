//! The decoupled vector engine (Table III "O3+DV", Fig 5).
//!
//! Loosely after Tarantula: hardware vector length 64, an instruction
//! queue fed at commit, in-order issue onto four dedicated pipes of 8
//! lanes each, register chaining through an internal scoreboard, and a
//! vector memory unit that translates each generated cache-line
//! request (one cycle per request, always-hit TLB) and sends it to the
//! private L2 (§VII-A).

use crate::pipes::{classify_pipe, element_cost, PipeClass};
use eve_common::{counter_slots, Counters, Cycle, Stats};
use eve_cpu::{fill_line_requests, EngineError, VectorPlacement, VectorUnit};
use eve_isa::{Inst, RegId, Retired};
use eve_mem::{Hierarchy, Level, Tlb, LINE_BYTES};
use eve_obs::Tracer;

/// Hardware vector length in elements.
pub const DV_HW_VL: u32 = 64;
/// Lanes per execution pipe.
pub const DV_LANES: u64 = 8;
/// Instruction-queue depth between the core and the engine.
const QUEUE_DEPTH: usize = 16;
/// Pipe startup latency (decode + operand fetch across the lanes).
const STARTUP: u64 = 4;

counter_slots! {
    enum Ctr {
        Issued => "issued",
        QueueStallCycles => "queue_stall_cycles",
        LineRequests => "line_requests",
        VmuMshrWait => "vmu_mshr_wait",
    }
}

/// The decoupled vector engine.
#[derive(Debug, Default)]
pub struct DecoupledVector {
    /// Completion times of queued/issued instructions (bounded FIFO).
    queue_done: std::collections::VecDeque<Cycle>,
    pipes: [Cycle; 4],
    vreg_ready: [Cycle; 32],
    last_issue: Cycle,
    pending_store_done: Cycle,
    idle_at: Cycle,
    tlb: Tlb,
    ctr: Counters<Ctr>,
    /// Reused scratch for per-instruction line-request lists, so the
    /// issue path allocates nothing.
    line_buf: Vec<u64>,
    tracer: Option<Tracer>,
}

impl DecoupledVector {
    /// A fresh engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn pipe_index(class: PipeClass) -> usize {
        match class {
            PipeClass::Simple => 0,
            PipeClass::Complex => 1,
            PipeClass::Iterative => 2,
            PipeClass::Memory => 3,
        }
    }

    fn pipe_name(class: PipeClass) -> &'static str {
        match class {
            PipeClass::Simple => "simple",
            PipeClass::Complex => "complex",
            PipeClass::Iterative => "iterative",
            PipeClass::Memory => "memory",
        }
    }

    fn vreg_deps(&self, r: &Retired) -> Cycle {
        let mut t = Cycle::ZERO;
        for dep in r.reads.iter().flatten() {
            if let RegId::V(v) = dep {
                t = t.max(self.vreg_ready[v.index() as usize]);
            }
        }
        t
    }
}

impl VectorUnit for DecoupledVector {
    fn hw_vl(&self) -> u32 {
        DV_HW_VL
    }

    fn issue(
        &mut self,
        r: &Retired,
        _ready: Cycle,
        commit: Cycle,
        mem: &mut Hierarchy,
    ) -> Result<VectorPlacement, EngineError> {
        self.ctr.incr(Ctr::Issued);
        // Queue back-pressure: a full queue delays acceptance until the
        // oldest instruction completes.
        let mut accept = commit;
        while self.queue_done.len() >= QUEUE_DEPTH {
            let oldest = self.queue_done.pop_front().expect("nonempty");
            if oldest > accept {
                self.ctr
                    .add(Ctr::QueueStallCycles, oldest.saturating_since(accept).0);
                accept = oldest;
            }
        }

        if matches!(r.inst, Inst::VMFence) {
            // Fence: answer once all pending engine stores are visible.
            let done = self.pending_store_done.max(self.idle_at).max(accept);
            return Ok(VectorPlacement::Decoupled {
                accept,
                writeback: Some(done),
            });
        }

        let class = classify_pipe(&r.inst).unwrap_or(PipeClass::Simple);
        let pipe = Self::pipe_index(class);
        // In-order issue: after the previous instruction issued, the
        // operands are ready (chaining), and the pipe is free.
        let start = accept
            .max(self.last_issue)
            .max(self.vreg_deps(r))
            .max(self.pipes[pipe]);
        self.last_issue = start;

        let vl = u64::from(r.vl.max(1));
        let completion = match class {
            PipeClass::Memory => {
                let store = r.mem.is_store();
                let mut lines = std::mem::take(&mut self.line_buf);
                fill_line_requests(&mut lines, r);
                self.ctr.add(Ctr::LineRequests, lines.len() as u64);
                let mut done = start + Cycle(STARTUP);
                let mut t = start;
                for &line in &lines {
                    // One request generated + translated per cycle.
                    t = self.tlb.translate(line * LINE_BYTES, t);
                    let a = mem.access(Level::L2, line * LINE_BYTES, store, t);
                    self.ctr.add(Ctr::VmuMshrWait, a.mshr_wait.0);
                    done = done.max(a.complete);
                }
                self.line_buf = lines;
                self.pipes[pipe] = t;
                if store {
                    self.pending_store_done = self.pending_store_done.max(done);
                    t + Cycle(1)
                } else {
                    done
                }
            }
            _ => {
                let occupancy = vl.div_ceil(DV_LANES) * element_cost(class, &r.inst);
                self.pipes[pipe] = start + Cycle(occupancy);
                start + Cycle(occupancy + STARTUP)
            }
        };

        if let Some(RegId::V(v)) = r.write {
            self.vreg_ready[v.index() as usize] = completion;
        }
        self.idle_at = self.idle_at.max(completion);
        self.queue_done.push_back(completion);
        if let Some(tr) = &self.tracer {
            // Issue is in order, so starts are monotone on the track.
            let pipe_cat = Self::pipe_name(class);
            tr.span("dv", pipe_cat, pipe_cat, start.0, (completion - start).0);
            tr.record("dv.queue_depth", self.queue_done.len() as u64);
        }

        // Scalar writebacks stall the core's commit (§V-A).
        let writeback = match r.inst {
            Inst::VMvXS { .. } => Some(completion),
            _ => None,
        };
        Ok(VectorPlacement::Decoupled { accept, writeback })
    }

    fn drain(&mut self, _mem: &mut Hierarchy) -> Cycle {
        self.idle_at.max(self.pending_store_done)
    }

    fn stats(&self) -> Stats {
        let mut s = self.ctr.to_stats();
        s.set("hw_vl", u64::from(DV_HW_VL));
        self.tlb.write_stats(&mut s, "tlb.");
        s
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::{vreg, xreg, MemEffect, VArithOp, VOperand, VStride};
    use eve_mem::HierarchyConfig;

    fn retired(inst: Inst, vl: u32, memeff: MemEffect, write: Option<RegId>) -> Retired {
        Retired {
            seq: 0,
            pc: 0,
            inst,
            reads: [None; 4],
            write,
            mem: memeff,
            addrs: Vec::new(),
            vl,
            branch: None,
            scalar_operand: None,
        }
    }

    fn vadd(vd: u8) -> Inst {
        Inst::VOp {
            op: VArithOp::Add,
            vd: eve_isa::Vreg::new(vd),
            vs1: vreg::V2,
            rhs: VOperand::Imm(1),
            masked: false,
        }
    }

    #[test]
    fn occupancy_scales_with_vl_over_lanes() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let p = dv
            .issue(
                &retired(vadd(3), 64, MemEffect::None, Some(RegId::V(vreg::V3))),
                Cycle(0),
                Cycle(0),
                &mut mem,
            )
            .unwrap();
        match p {
            VectorPlacement::Decoupled { accept, .. } => assert_eq!(accept, Cycle(0)),
            other => panic!("{other:?}"),
        }
        // 64 elements / 8 lanes = 8 cycles + startup.
        assert_eq!(dv.idle_at, Cycle(8 + STARTUP));
    }

    #[test]
    fn chaining_orders_dependent_ops() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        dv.issue(
            &retired(vadd(3), 64, MemEffect::None, Some(RegId::V(vreg::V3))),
            Cycle(0),
            Cycle(0),
            &mut mem,
        )
        .unwrap();
        // Dependent op reading v3.
        let mut dep = retired(vadd(4), 64, MemEffect::None, Some(RegId::V(vreg::V4)));
        dep.reads[0] = Some(RegId::V(vreg::V3));
        dv.issue(&dep, Cycle(0), Cycle(0), &mut mem).unwrap();
        assert!(dv.idle_at >= Cycle(2 * 8 + STARTUP), "{:?}", dv.idle_at);
    }

    #[test]
    fn unit_stride_generates_line_requests() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V1,
            base: xreg::A0,
            stride: VStride::Unit,
            masked: false,
        };
        let eff = MemEffect::VecUnit {
            base: 0x1000,
            bytes: 256, // 64 elements
            store: false,
        };
        dv.issue(
            &retired(ld, 64, eff, Some(RegId::V(vreg::V1))),
            Cycle(0),
            Cycle(0),
            &mut mem,
        )
        .unwrap();
        assert_eq!(dv.stats().get("line_requests"), 4); // 256B / 64B
    }

    #[test]
    fn a_zero_length_unit_access_requests_no_line() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V1,
            base: xreg::A0,
            stride: VStride::Unit,
            masked: false,
        };
        let eff = MemEffect::VecUnit {
            base: 0x1000,
            bytes: 0,
            store: false,
        };
        dv.issue(
            &retired(ld, 0, eff, Some(RegId::V(vreg::V1))),
            Cycle(0),
            Cycle(0),
            &mut mem,
        )
        .unwrap();
        assert_eq!(dv.stats().get("line_requests"), 0);
        let l2 = mem.cache(Level::L2).stats();
        assert_eq!(l2.get("hits") + l2.get("misses"), 0);
    }

    #[test]
    fn large_stride_touches_one_line_per_element() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V1,
            base: xreg::A0,
            stride: VStride::Strided(xreg::A1),
            masked: false,
        };
        let eff = MemEffect::VecStrided {
            base: 0x1000,
            stride: 4096,
            count: 64,
            store: false,
        };
        dv.issue(
            &retired(ld, 64, eff, Some(RegId::V(vreg::V1))),
            Cycle(0),
            Cycle(0),
            &mut mem,
        )
        .unwrap();
        assert_eq!(dv.stats().get("line_requests"), 64);
        // 64 distinct lines against 32 L2 MSHRs: some waiting occurred.
        assert!(dv.stats().get("vmu_mshr_wait") > 0);
    }

    #[test]
    fn fence_answers_after_stores() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let st = Inst::VStore {
            vs: vreg::V1,
            base: xreg::A0,
            stride: VStride::Unit,
            masked: false,
        };
        let eff = MemEffect::VecUnit {
            base: 0x2000,
            bytes: 256,
            store: true,
        };
        dv.issue(&retired(st, 64, eff, None), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        let f = dv
            .issue(
                &retired(Inst::VMFence, 64, MemEffect::None, None),
                Cycle(1),
                Cycle(1),
                &mut mem,
            )
            .unwrap();
        match f {
            VectorPlacement::Decoupled {
                writeback: Some(wb),
                ..
            } => assert!(wb > Cycle(50)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queue_backpressure() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        // Flood with slow iterative ops at t=0.
        let div = Inst::VOp {
            op: VArithOp::Divu,
            vd: vreg::V3,
            vs1: vreg::V2,
            rhs: VOperand::Imm(3),
            masked: false,
        };
        let mut last_accept = Cycle(0);
        for _ in 0..QUEUE_DEPTH + 4 {
            match dv
                .issue(
                    &retired(div, 64, MemEffect::None, Some(RegId::V(vreg::V3))),
                    Cycle(0),
                    Cycle(0),
                    &mut mem,
                )
                .unwrap()
            {
                VectorPlacement::Decoupled { accept, .. } => last_accept = accept,
                other => panic!("{other:?}"),
            }
        }
        assert!(last_accept > Cycle(0), "queue never pushed back");
        assert!(dv.stats().get("queue_stall_cycles") > 0);
    }
}

#[cfg(test)]
mod xe_tests {
    use super::*;
    use eve_isa::{vreg, MemEffect};
    use eve_mem::HierarchyConfig;

    #[test]
    fn reductions_occupy_the_iterative_pipe() {
        let mut dv = DecoupledVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let red = Inst::VRed {
            op: eve_isa::RedOp::Sum,
            vd: vreg::V3,
            vs2: vreg::V1,
            vs1: vreg::V2,
        };
        let r = Retired {
            seq: 0,
            pc: 0,
            inst: red,
            reads: [
                Some(RegId::V(vreg::V1)),
                Some(RegId::V(vreg::V2)),
                None,
                None,
            ],
            write: Some(RegId::V(vreg::V3)),
            mem: MemEffect::None,
            addrs: Vec::new(),
            vl: 64,
            branch: None,
            scalar_operand: None,
        };
        dv.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap();
        // 64 elements / 8 lanes x 2 cycles + startup on the iterative pipe.
        assert_eq!(dv.idle_at, Cycle(16 + STARTUP));
        // A simple add right after is unaffected (different pipe), only
        // in-order issue orders the start.
        let add = Inst::VOp {
            op: eve_isa::VArithOp::Add,
            vd: vreg::V4,
            vs1: vreg::V5,
            rhs: eve_isa::VOperand::Imm(1),
            masked: false,
        };
        let r2 = Retired {
            seq: 1,
            pc: 1,
            inst: add,
            reads: [Some(RegId::V(vreg::V5)), None, None, None],
            write: Some(RegId::V(vreg::V4)),
            mem: MemEffect::None,
            addrs: Vec::new(),
            vl: 64,
            branch: None,
            scalar_operand: None,
        };
        dv.issue(&r2, Cycle(0), Cycle(0), &mut mem).unwrap();
        assert_eq!(dv.idle_at, Cycle(16 + STARTUP)); // add finishes earlier
    }
}
