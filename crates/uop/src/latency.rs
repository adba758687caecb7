//! Sequencing and cycle counting for μprograms.
//!
//! [`walk`] is the VSU's counter/control loop, the one place that
//! decides which tuple runs next. Every μprogram consumer drives it:
//! the bit-accurate SRAM applies each arithmetic μop to real cells,
//! the energy model sums per-μop energies, and [`count_cycles`] ignores
//! the arithmetic entirely. Because every tuple takes exactly one cycle
//! (§IV), that count is the macro-op's VSU occupancy; the engine's
//! timing model and the §II analytical model read it through
//! [`LatencyTable`], which memoizes it per macro-op kind.

use crate::counter::CounterFile;
use crate::library::{MacroOpKind, ProgramLibrary};
use crate::program::{HybridConfig, MicroProgram};
use crate::uop::{ArithUop, ControlUop, CounterUop};
use eve_common::Cycle;
use std::collections::HashMap;

/// Upper bound on tuples executed before declaring a runaway program.
/// The slowest legitimate program (bit-serial signed division) runs
/// ~20 k tuples; anything past this is a generator bug.
const RUNAWAY_LIMIT: u64 = 1_000_000;

/// Sequences `prog` one VLIW tuple per cycle, as the VSU does, and
/// returns how many cycles it runs before returning.
///
/// Each cycle hands the tuple's arithmetic μop to `arith` with the
/// start-of-cycle counter file, then applies the counter μop, then
/// resolves the control μop against the updated flags.
///
/// # Panics
///
/// Panics if the program exceeds the runaway limit or branches outside
/// itself — both indicate a malformed generator, not a user error.
#[inline]
pub fn walk(prog: &MicroProgram, mut arith: impl FnMut(&ArithUop, &CounterFile)) -> Cycle {
    let mut counters = CounterFile::new();
    let mut pc: usize = 0;
    let mut cycles: u64 = 0;
    let tuples = prog.tuples();
    loop {
        let Some(tuple) = tuples.get(pc) else {
            panic!("program {} ran off the end at pc {pc}", prog.name());
        };
        cycles += 1;
        assert!(
            cycles < RUNAWAY_LIMIT,
            "program {} exceeded {RUNAWAY_LIMIT} tuples",
            prog.name()
        );
        arith(&tuple.arith, &counters);
        match tuple.counter {
            CounterUop::Nop => {}
            CounterUop::Init { ctr, value } => counters.init(ctr, value),
            CounterUop::Decr(ctr) => counters.decr(ctr),
            CounterUop::Incr(ctr) => counters.incr(ctr),
        }
        pc = match tuple.control {
            ControlUop::Nop => pc + 1,
            ControlUop::Bnz { ctr, target } => {
                if counters.take_zero_flag(ctr) {
                    pc + 1
                } else {
                    target as usize
                }
            }
            ControlUop::BnzRet { ctr, target } => {
                if counters.take_zero_flag(ctr) {
                    return Cycle(cycles);
                }
                target as usize
            }
            ControlUop::Bnd { ctr, target } => {
                if counters.take_decade_flag(ctr) {
                    target as usize
                } else {
                    pc + 1
                }
            }
            ControlUop::Jump { target } => target as usize,
            ControlUop::Ret => return Cycle(cycles),
        };
    }
}

/// Executes the counter/control μops of `prog` and returns how many
/// cycles (tuples) it runs before returning.
///
/// # Panics
///
/// Panics where [`walk`] does: runaway or out-of-range branches.
///
/// # Examples
///
/// ```
/// use eve_uop::{count_cycles, HybridConfig, MacroOpKind, ProgramLibrary};
/// let cfg = HybridConfig::new(8)?;
/// let lib = ProgramLibrary::new(cfg);
/// let c = count_cycles(&lib.program(MacroOpKind::Add), cfg);
/// assert_eq!(c.0, 9); // init + 2 tuples x 4 segments
/// # Ok::<(), eve_common::ConfigError>(())
/// ```
#[must_use]
pub fn count_cycles(prog: &MicroProgram, _cfg: HybridConfig) -> Cycle {
    walk(prog, |_, _| {})
}

/// Memoized macro-op latencies for one EVE-*n* configuration.
///
/// # Examples
///
/// ```
/// use eve_uop::{HybridConfig, LatencyTable, MacroOpKind};
/// let mut table = LatencyTable::new(HybridConfig::new(4)?);
/// let add = table.latency(MacroOpKind::Add);
/// let mul = table.latency(MacroOpKind::Mul);
/// assert!(mul > add);
/// # Ok::<(), eve_common::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LatencyTable {
    library: ProgramLibrary,
    cache: HashMap<MacroOpKind, Cycle>,
}

impl LatencyTable {
    /// A table for `cfg`, filled lazily.
    #[must_use]
    pub fn new(cfg: HybridConfig) -> Self {
        Self {
            library: ProgramLibrary::new(cfg),
            cache: HashMap::new(),
        }
    }

    /// The configuration this table measures.
    #[must_use]
    pub fn config(&self) -> HybridConfig {
        self.library.config()
    }

    /// Cycles the μprogram for `kind` occupies the VSU.
    pub fn latency(&mut self, kind: MacroOpKind) -> Cycle {
        if let Some(&c) = self.cache.get(&kind) {
            return c;
        }
        let prog = self.library.program(kind);
        let c = count_cycles(&prog, self.library.config());
        self.cache.insert(kind, c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_table_caches() {
        let mut t = LatencyTable::new(HybridConfig::new(2).unwrap());
        let a = t.latency(MacroOpKind::Mul);
        let b = t.latency(MacroOpKind::Mul);
        assert_eq!(a, b);
        assert_eq!(t.cache.len(), 1);
    }

    #[test]
    fn add_formula_across_configs() {
        // 2S + 1 exactly, for every configuration.
        for cfg in HybridConfig::all() {
            let mut t = LatencyTable::new(cfg);
            assert_eq!(
                t.latency(MacroOpKind::Add).0,
                u64::from(2 * cfg.segments() + 1)
            );
        }
    }

    #[test]
    fn sub_costs_two_passes() {
        for cfg in HybridConfig::all() {
            let mut t = LatencyTable::new(cfg);
            let add = t.latency(MacroOpKind::Add).0;
            let sub = t.latency(MacroOpKind::Sub).0;
            assert!(
                sub > add && sub <= 2 * add + 2,
                "{cfg}: add {add} sub {sub}"
            );
        }
    }

    #[test]
    fn division_slower_than_multiplication() {
        for cfg in HybridConfig::all() {
            let mut t = LatencyTable::new(cfg);
            assert!(t.latency(MacroOpKind::Divu) > t.latency(MacroOpKind::Mul));
        }
    }

    #[test]
    fn latency_not_linear_in_segments() {
        // §II: "latency is not linearly correlated with the number of
        // segments" because of control overhead. Going EVE-1 -> EVE-32
        // cuts segments 32x but mul latency by less than 32x.
        let l1 = {
            let mut t = LatencyTable::new(HybridConfig::new(1).unwrap());
            t.latency(MacroOpKind::Mul).0 as f64
        };
        let l32 = {
            let mut t = LatencyTable::new(HybridConfig::new(32).unwrap());
            t.latency(MacroOpKind::Mul).0 as f64
        };
        let ratio = l1 / l32;
        assert!(ratio < 32.0, "mul latency ratio {ratio} >= 32");
        assert!(ratio > 4.0, "mul latency ratio {ratio} suspiciously flat");
    }
}
