//! The socket a vector unit plugs into the O3 control processor.
//!
//! The paper's three vector systems attach differently (Table III,
//! §V-A): the integrated unit (IV) executes vector instructions inside
//! the O3 window on shared pipes; the decoupled engine (DV) and EVE
//! receive instructions at *commit* and run them asynchronously,
//! responding later — with `vmv.x.s`-style writebacks and `vmfence`
//! stalling commit until the unit answers.

use std::fmt;

use eve_common::{Cycle, Stats};
use eve_isa::{MemEffect, Retired};
use eve_mem::{Hierarchy, LINE_BYTES};
use eve_obs::Tracer;

/// A fault the engine or control processor detected while handling a
/// vector instruction. These used to abort the process; they now
/// propagate to the caller so a simulation driver can report the
/// failing configuration (or degrade gracefully) instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A vector instruction reached a unit with no μprogram mapping
    /// for it.
    UnmappedInstruction {
        /// Debug rendering of the offending instruction.
        inst: String,
        /// Program counter (instruction index) where it retired.
        pc: u64,
    },
    /// A vector instruction reached a scalar-only core.
    NoVectorUnit {
        /// Debug rendering of the offending instruction.
        inst: String,
        /// Program counter (instruction index) where it retired.
        pc: u64,
    },
    /// The unit was asked for a writeback value it never produced.
    UnexpectedWriteback {
        /// Debug rendering of the offending instruction.
        inst: String,
        /// Program counter (instruction index) where it retired.
        pc: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnmappedInstruction { inst, pc } => {
                write!(
                    f,
                    "no μprogram mapping for vector instruction {inst} at pc {pc}"
                )
            }
            Self::NoVectorUnit { inst, pc } => {
                write!(
                    f,
                    "scalar core received vector instruction {inst} at pc {pc}"
                )
            }
            Self::UnexpectedWriteback { inst, pc } => {
                write!(f, "unit produced no writeback for {inst} at pc {pc}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Collects the cache lines a vector memory instruction requests from a
/// decoupled unit's memory pipe (DV's and EVE's VMU) into `lines`, in
/// element order. A run of elements within one line is one request
/// (the VMU coalesces it, §V-C), and an access with no elements
/// requests nothing. `lines` is a buffer the unit keeps across
/// instructions, so the per-instruction path does not allocate.
pub fn fill_line_requests(lines: &mut Vec<u64>, r: &Retired) {
    lines.clear();
    match &r.mem {
        MemEffect::VecUnit { base, bytes, .. } => {
            if *bytes == 0 {
                return;
            }
            let first = base / LINE_BYTES;
            let last = (base + bytes - 1) / LINE_BYTES;
            lines.extend(first..=last);
        }
        MemEffect::VecStrided {
            base,
            stride,
            count,
            ..
        } => lines.extend(
            (0..u64::from(*count))
                .map(|i| ((*base as i64 + stride * i as i64) as u64) / LINE_BYTES),
        ),
        MemEffect::VecIndexed { .. } => {
            lines.extend(r.addrs.iter().map(|a| a / LINE_BYTES));
        }
        MemEffect::None | MemEffect::Scalar { .. } => {}
    }
    lines.dedup();
}

/// How a vector instruction lands in the control processor's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorPlacement {
    /// Executed inside the O3 window like a scalar instruction,
    /// completing at the given time (integrated vector unit).
    InWindow {
        /// When the result (and any destination register) is ready.
        completion: Cycle,
    },
    /// Accepted by a decoupled engine at `accept` (commit unblocks
    /// then); if `writeback` is set, commit additionally stalls until
    /// the engine responds with a value (e.g. `vmv.x.s`, `vmfence`).
    Decoupled {
        /// When the engine accepted the instruction (queue back-pressure
        /// pushes this out).
        accept: Cycle,
        /// Response time for instructions the core must wait on.
        writeback: Option<Cycle>,
    },
}

/// A vector unit pluggable into [`crate::O3Core`].
pub trait VectorUnit {
    /// Hardware vector length in 32-bit elements (what `vsetvl`
    /// saturates to; drives the interpreter configuration).
    fn hw_vl(&self) -> u32;

    /// Offers a vector instruction to the unit. `ready` is when its
    /// register dependences resolve in the O3 window (what an
    /// integrated, out-of-order-issue unit keys on); `commit` is when
    /// the instruction reaches the head of the ROB (when a decoupled
    /// engine receives it, §V-A).
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the unit cannot handle the
    /// instruction (no mapping, or no unit at all).
    fn issue(
        &mut self,
        r: &Retired,
        ready: Cycle,
        commit: Cycle,
        mem: &mut Hierarchy,
    ) -> Result<VectorPlacement, EngineError>;

    /// Completes all outstanding work, returning the time the unit
    /// goes idle.
    fn drain(&mut self, mem: &mut Hierarchy) -> Cycle;

    /// Unit-specific statistics.
    fn stats(&self) -> Stats;

    /// Hands the unit a tracer handle so it can emit structured trace
    /// events. The default is a no-op: units without instrumentation
    /// ignore it.
    fn attach_tracer(&mut self, _tracer: &Tracer) {}
}

/// The absent vector unit: scalar-only O3.
///
/// Vector instructions are rejected with a typed error — a scalar
/// baseline fed a vectorized binary is a harness bug, but one the
/// driver should report rather than die on.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoVector;

impl VectorUnit for NoVector {
    fn hw_vl(&self) -> u32 {
        1
    }

    fn issue(
        &mut self,
        r: &Retired,
        _ready: Cycle,
        _commit: Cycle,
        _mem: &mut Hierarchy,
    ) -> Result<VectorPlacement, EngineError> {
        Err(EngineError::NoVectorUnit {
            inst: format!("{:?}", r.inst),
            pc: u64::from(r.pc),
        })
    }

    fn drain(&mut self, _mem: &mut Hierarchy) -> Cycle {
        Cycle::ZERO
    }

    fn stats(&self) -> Stats {
        Stats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_vector_reports_scalar_length() {
        assert_eq!(NoVector.hw_vl(), 1);
        assert!(NoVector.stats().is_empty());
    }
}
