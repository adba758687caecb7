//! Drives the functional interpreter through a timing model.

use crate::report::RunReport;
use crate::system::SystemKind;
use eve_common::{Cycle, Stats};
use eve_core::{EveEngine, StallBreakdown};
use eve_cpu::{EngineError, IoCore, NoVector, O3Core, VectorUnit};
use eve_isa::{Characterization, Interpreter, IsaError, Retired};
use eve_mem::{Hierarchy, HierarchyConfig};
use eve_obs::Tracer;
use eve_vector::{DecoupledVector, IntegratedVector};
use eve_workloads::{Built, Workload};
use std::fmt;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel program misbehaved (assembler/interpreter error).
    Isa(IsaError),
    /// Outputs did not match the golden values — a simulator bug.
    Verification(String),
    /// An invalid system configuration (e.g. EVE-3).
    Config(String),
    /// The timing engine rejected an instruction (unmapped vector op,
    /// vector work on a scalar core).
    Engine(EngineError),
    /// A run finished but its report is missing data the caller
    /// depends on (e.g. an EVE run without a stall breakdown) — a
    /// poisoned run surfaces as an error value, not a process abort.
    Report(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Isa(e) => write!(f, "isa error: {e}"),
            SimError::Verification(e) => write!(f, "verification failed: {e}"),
            SimError::Config(e) => write!(f, "bad configuration: {e}"),
            SimError::Engine(e) => write!(f, "engine error: {e}"),
            SimError::Report(e) => write!(f, "incomplete report: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<IsaError> for SimError {
    fn from(e: IsaError) -> Self {
        SimError::Isa(e)
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> Self {
        SimError::Engine(e)
    }
}

/// Runs workloads on simulated systems.
#[derive(Debug, Clone, Default)]
pub struct Runner {
    tracer: Option<Tracer>,
}

impl Runner {
    /// A runner with default settings.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A runner that attaches `tracer` to every core, hierarchy, and
    /// vector unit it builds, so each run fills the tracer's event
    /// buffer and registry and its report carries the registry. Give
    /// each run a fresh tracer: the audit and the report's counters
    /// read everything the tracer holds.
    #[must_use]
    pub fn with_tracer(tracer: &Tracer) -> Self {
        Self {
            tracer: Some(tracer.clone()),
        }
    }

    /// The tracer this runner attaches to the cores it builds, if any.
    pub(crate) fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Simulates `workload` on `system` with the Table III memory
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interpreter failure, golden-output
    /// mismatch, or an invalid EVE factor.
    pub fn run(&self, system: SystemKind, workload: &Workload) -> Result<RunReport, SimError> {
        self.run_with_memory(system, workload, HierarchyConfig::table_iii())
    }

    /// Simulates `workload` on `system` with a custom memory hierarchy
    /// — the hook the MSHR/cache ablation studies use.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interpreter failure, golden-output
    /// mismatch, or an invalid EVE factor.
    pub fn run_with_memory(
        &self,
        system: SystemKind,
        workload: &Workload,
        mem_cfg: HierarchyConfig,
    ) -> Result<RunReport, SimError> {
        let built = workload.build();
        with_core(
            system,
            Hierarchy::new(mem_cfg),
            Solo {
                runner: self,
                system,
                built,
            },
        )
    }

    /// Simulates `workload` on an EVE-`n` engine with custom tuning
    /// (the DTU/queue ablation hook).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interpreter failure, golden-output
    /// mismatch, or an invalid configuration.
    pub fn run_eve_tuned(
        &self,
        n: u32,
        tuning: eve_core::EngineTuning,
        workload: &Workload,
        mem_cfg: HierarchyConfig,
    ) -> Result<RunReport, SimError> {
        let engine =
            EveEngine::with_tuning(n, tuning).map_err(|e| SimError::Config(e.to_string()))?;
        self.run_to_end(
            SystemKind::EveN(n),
            workload.build(),
            O3Core::with_unit(engine, mem_cfg),
        )
    }

    /// Runs `built` on `core` from start to halt and reports it.
    fn run_to_end<C: TimingCore>(
        &self,
        system: SystemKind,
        built: Built,
        core: C,
    ) -> Result<RunReport, SimError> {
        let mut run = self.start(system, built, core);
        while run.step()? {}
        run.finish(self)
    }

    /// Hands `built`'s image and the program `system` runs to a new
    /// [`CoreRun`] on `core`, with this runner's tracer attached.
    pub(crate) fn start<C: TimingCore>(
        &self,
        system: SystemKind,
        built: Built,
        mut core: C,
    ) -> CoreRun<C> {
        if let Some(t) = &self.tracer {
            core.set_tracer(t);
        }
        CoreRun::new(system, built, core)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn report(
        &self,
        system: SystemKind,
        workload: &'static str,
        cycles: Cycle,
        dyn_insts: u64,
        stats: Stats,
        characterization: Characterization,
        breakdown: Option<StallBreakdown>,
    ) -> RunReport {
        RunReport {
            system,
            workload,
            wall_ps: cycles.to_picos(system.cycle_time()),
            cycles,
            dyn_insts,
            stats,
            characterization,
            breakdown,
            resilience: None,
            counters: self.tracer.as_ref().map(Tracer::registry),
        }
    }
}

/// A timing model the interpreter's retired instructions feed: the IO
/// core, or an O3 core with any vector unit.
pub(crate) trait TimingCore {
    /// The hardware vector length the program runs at.
    fn hw_vl(&self) -> u32;
    /// Attaches a tracer to the core and everything it owns.
    fn set_tracer(&mut self, tracer: &Tracer);
    /// Accounts one retired instruction.
    fn retire(&mut self, r: &Retired) -> Result<(), EngineError>;
    /// Drains outstanding work; returns the completion cycle.
    fn finish(&mut self) -> Cycle;
    /// The core's statistics merged with its hierarchy's.
    fn stats(&self) -> Stats;
    /// The Fig 7 breakdown, if the core hosts an EVE engine.
    fn breakdown(&self) -> Option<StallBreakdown>;
}

impl TimingCore for IoCore {
    fn hw_vl(&self) -> u32 {
        1
    }

    fn set_tracer(&mut self, tracer: &Tracer) {
        IoCore::set_tracer(self, tracer);
    }

    fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        IoCore::retire(self, r)
    }

    fn finish(&mut self) -> Cycle {
        IoCore::finish(self)
    }

    fn stats(&self) -> Stats {
        IoCore::stats(self)
    }

    fn breakdown(&self) -> Option<StallBreakdown> {
        None
    }
}

impl<V: VectorUnit> TimingCore for O3Core<V>
where
    O3Core<V>: CoreStats<V>,
{
    fn hw_vl(&self) -> u32 {
        O3Core::hw_vl(self)
    }

    fn set_tracer(&mut self, tracer: &Tracer) {
        O3Core::set_tracer(self, tracer);
    }

    fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        O3Core::retire(self, r)
    }

    fn finish(&mut self) -> Cycle {
        O3Core::finish(self)
    }

    fn stats(&self) -> Stats {
        O3Core::stats(self)
    }

    fn breakdown(&self) -> Option<StallBreakdown> {
        CoreStats::breakdown(self)
    }
}

/// What to do with a system's timing model once [`with_core`] has built
/// it. The model arrives at its concrete type, so whatever drives it is
/// compiled once per core type.
pub(crate) trait WithCore {
    /// What the continuation produces.
    type Out;
    /// Continues with `core`.
    fn with<C: TimingCore + 'static>(self, core: C) -> Result<Self::Out, SimError>;
}

/// Builds `system`'s timing model over `mem` and hands it to `k`.
pub(crate) fn with_core<K: WithCore>(
    system: SystemKind,
    mem: Hierarchy,
    k: K,
) -> Result<K::Out, SimError> {
    match system {
        SystemKind::Io => k.with(IoCore::with_hierarchy(mem)),
        SystemKind::O3 => k.with(O3Core::with_unit_and_hierarchy(NoVector, mem)),
        SystemKind::O3Iv => k.with(O3Core::with_unit_and_hierarchy(
            IntegratedVector::new(),
            mem,
        )),
        SystemKind::O3Dv => k.with(O3Core::with_unit_and_hierarchy(DecoupledVector::new(), mem)),
        SystemKind::EveN(n) => {
            let engine = EveEngine::new(n).map_err(|e| SimError::Config(e.to_string()))?;
            // The L2 starts at full capacity; the engine halves it
            // when it spawns (§V-E).
            k.with(O3Core::with_unit_and_hierarchy(engine, mem))
        }
    }
}

/// A single-core run: [`Runner::run_to_end`] on whichever core
/// [`with_core`] builds.
struct Solo<'a> {
    runner: &'a Runner,
    system: SystemKind,
    built: Built,
}

impl WithCore for Solo<'_> {
    type Out = RunReport;

    fn with<C: TimingCore + 'static>(self, core: C) -> Result<RunReport, SimError> {
        self.runner.run_to_end(self.system, self.built, core)
    }
}

/// One workload running on one core: the interpreter, fed instruction
/// by instruction into the core's timing model.
///
/// The interpreter owns the memory image and program the workload was
/// built into; they are moved in, not copied. A CMP core's image spans
/// address 0 up to its own region, and only the pages the workload
/// wrote are resident (`Memory::new`), so a copy would make every page
/// below the region resident too.
pub(crate) struct CoreRun<C> {
    system: SystemKind,
    /// The workload's name and golden outputs. Its image and the
    /// program `system` runs have moved into `interp`.
    built: Built,
    pub(crate) interp: Interpreter,
    /// The record every step is interpreted into.
    pub(crate) retired: Retired,
    chars: Characterization,
    pub(crate) core: C,
}

impl<C: TimingCore> CoreRun<C> {
    fn new(system: SystemKind, mut built: Built, core: C) -> Self {
        let program = if system.is_vector() {
            &mut built.vector
        } else {
            &mut built.scalar
        };
        let interp = Interpreter::new(
            std::mem::take(program),
            std::mem::take(&mut built.memory),
            core.hw_vl(),
        );
        Self {
            system,
            built,
            interp,
            retired: Retired::default(),
            chars: Characterization::new(),
            core,
        }
    }

    /// Executes and retires one instruction; `false` once halted.
    #[inline]
    pub(crate) fn step(&mut self) -> Result<bool, SimError> {
        if !self.interp.step_into(&mut self.retired)? {
            return Ok(false);
        }
        self.chars.record(&self.retired);
        self.core.retire(&self.retired)?;
        Ok(true)
    }

    /// Drains the core and reports the run through `runner`, with
    /// whether the outputs match the workload's golden values.
    pub(crate) fn report(mut self, runner: &Runner) -> (RunReport, Result<(), String>) {
        let cycles = self.core.finish();
        let verdict = self.built.verify(self.interp.memory());
        let report = runner.report(
            self.system,
            self.built.name,
            cycles,
            self.interp.retired_count(),
            self.core.stats(),
            self.chars,
            self.core.breakdown(),
        );
        (report, verdict)
    }

    /// [`CoreRun::report`], failing the run on a golden-output mismatch.
    pub(crate) fn finish(self, runner: &Runner) -> Result<RunReport, SimError> {
        let (report, verdict) = self.report(runner);
        verdict.map_err(SimError::Verification)?;
        Ok(report)
    }
}

/// Extracts the EVE stall breakdown from a core when its unit is an
/// EVE engine; other units report none.
pub trait CoreStats<V: VectorUnit> {
    /// The Fig 7 breakdown, if this core hosts an EVE engine.
    fn breakdown(&self) -> Option<StallBreakdown>;
}

impl CoreStats<NoVector> for O3Core<NoVector> {
    fn breakdown(&self) -> Option<StallBreakdown> {
        None
    }
}

impl CoreStats<IntegratedVector> for O3Core<IntegratedVector> {
    fn breakdown(&self) -> Option<StallBreakdown> {
        None
    }
}

impl CoreStats<DecoupledVector> for O3Core<DecoupledVector> {
    fn breakdown(&self) -> Option<StallBreakdown> {
        None
    }
}

impl CoreStats<EveEngine> for O3Core<EveEngine> {
    fn breakdown(&self) -> Option<StallBreakdown> {
        Some(*self.vector_unit().breakdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_common::fnv1a64;

    #[test]
    fn io_runs_and_verifies() {
        let r = Runner::new()
            .run(SystemKind::Io, &Workload::vvadd(300))
            .unwrap();
        assert!(r.cycles.0 > 300);
        assert_eq!(r.workload, "vvadd");
        assert!(r.breakdown.is_none());
    }

    #[test]
    fn invalid_eve_factor_is_a_config_error() {
        let err = Runner::new()
            .run(SystemKind::EveN(3), &Workload::vvadd(64))
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn eve_reports_a_breakdown() {
        let r = Runner::new()
            .run(SystemKind::EveN(8), &Workload::vvadd(2048))
            .unwrap();
        let b = r.breakdown.expect("EVE reports a breakdown");
        assert!(b.total().0 > 0);
        assert!(r.vmu_llc_stall_fraction().is_some());
    }

    #[test]
    fn vector_systems_beat_io_on_vvadd() {
        let runner = Runner::new();
        let w = Workload::vvadd(4096);
        let io = runner.run(SystemKind::Io, &w).unwrap();
        for sys in [SystemKind::O3Dv, SystemKind::EveN(8)] {
            let r = runner.run(sys, &w).unwrap();
            assert!(
                r.speedup_over(&io) > 1.5,
                "{sys}: {:.2}x",
                r.speedup_over(&io)
            );
        }
    }

    const REPORTS: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/tiny_suite_reports.txt"
    );

    const REGEN: &str =
        "EVE_UPDATE_FIXTURES=1 cargo test -p eve-sim every_system_verifies_every_tiny_kernel";

    /// Runs the whole tiny matrix and pins every report: cycles,
    /// instruction count and a hash of `to_json()`, so a dropped,
    /// added or changed stat key fails here, not only in figures.
    #[test]
    fn every_system_verifies_every_tiny_kernel() {
        let runner = Runner::new();
        let mut got = String::from("# system workload cycles dyn_insts fnv1a64(to_json)\n");
        let mut runs = Vec::new();
        for w in Workload::tiny_suite() {
            for sys in SystemKind::all() {
                let r = runner.run(sys, &w).unwrap();
                assert!(r.cycles.0 > 0, "{sys} on {}", r.workload);
                // Every L1 miss that did not coalesce looks the L2 up.
                let s = &r.stats;
                let l1 = s.get("l1i.misses") + s.get("l1d.misses")
                    - s.get("l1i.mshr_coalesced")
                    - s.get("l1d.mshr_coalesced");
                assert!(
                    s.get("l2.hits") + s.get("l2.misses") >= l1,
                    "{sys} on {}: {l1} uncoalesced L1 misses but {} L2 lookups",
                    r.workload,
                    s.get("l2.hits") + s.get("l2.misses")
                );
                let json = r.to_json().to_compact();
                let line = format!(
                    "{sys} {} {} {} {:016x}",
                    r.workload,
                    r.cycles.0,
                    r.dyn_insts,
                    fnv1a64(json.as_bytes())
                );
                got.push_str(&line);
                got.push('\n');
                runs.push((line, json));
            }
        }
        if std::env::var_os("EVE_UPDATE_FIXTURES").is_some() {
            std::fs::write(REPORTS, &got).expect("fixture writes");
            return;
        }
        let want = std::fs::read_to_string(REPORTS)
            .unwrap_or_else(|_| panic!("missing fixture {REPORTS}; regenerate with: {REGEN}"));
        let want: Vec<&str> = want.lines().filter(|l| !l.starts_with('#')).collect();
        let mut mismatches = 0;
        for (i, (line, json)) in runs.iter().enumerate() {
            if want.get(i) != Some(&line.as_str()) {
                mismatches += 1;
                eprintln!("want {:?}\n got {line}\n{json}\n", want.get(i));
            }
        }
        assert!(
            mismatches == 0 && want.len() == runs.len(),
            "{mismatches} of {} reports differ from {REPORTS} ({} pinned); \
             if intentional, regenerate with: {REGEN}",
            runs.len(),
            want.len()
        );
    }
}
