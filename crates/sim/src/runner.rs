//! Drives the functional interpreter through a timing model.

use crate::report::RunReport;
use crate::system::SystemKind;
use eve_common::Stats;
use eve_core::EveEngine;
use eve_cpu::{EngineError, IoCore, NoVector, O3Core, VectorUnit};
use eve_isa::{Characterization, Interpreter, IsaError, Program, Retired};
use eve_mem::HierarchyConfig;
use eve_obs::Tracer;
use eve_vector::{DecoupledVector, IntegratedVector};
use eve_workloads::Workload;
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
        match system {
            SystemKind::Io => {
                let mut interp = Interpreter::new(built.scalar.clone(), built.memory.clone(), 1);
                let mut core = IoCore::with_config(mem_cfg);
                if let Some(t) = &self.tracer {
                    core.set_tracer(t);
                }
                let mut c = Characterization::new();
                let mut r = Retired::default();
                while interp.step_into(&mut r)? {
                    c.record(&r);
                    core.retire(&r)?;
                }
                let cycles = core.finish();
                built
                    .verify(interp.memory())
                    .map_err(SimError::Verification)?;
                Ok(self.report(
                    system,
                    built.name,
                    cycles,
                    interp.retired_count(),
                    core.stats(),
                    c,
                    None,
                ))
            }
            SystemKind::O3 => self.run_o3(
                system,
                &built,
                &built.scalar,
                O3Core::with_unit(NoVector, mem_cfg),
            ),
            SystemKind::O3Iv => self.run_o3(
                system,
                &built,
                &built.vector,
                O3Core::with_unit(IntegratedVector::new(), mem_cfg),
            ),
            SystemKind::O3Dv => self.run_o3(
                system,
                &built,
                &built.vector,
                O3Core::with_unit(DecoupledVector::new(), mem_cfg),
            ),
            SystemKind::EveN(n) => {
                let engine = EveEngine::new(n).map_err(|e| SimError::Config(e.to_string()))?;
                // The L2 starts at full capacity; the engine halves it
                // when it spawns (§V-E).
                self.run_o3(
                    system,
                    &built,
                    &built.vector,
                    O3Core::with_unit(engine, mem_cfg),
                )
            }
        }
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
        let built = workload.build();
        self.run_o3(
            SystemKind::EveN(n),
            &built,
            &built.vector,
            O3Core::with_unit(engine, mem_cfg),
        )
    }

    /// Runs `program` on an O3 core at its unit's hardware vector
    /// length: the scalar program on [`NoVector`] (VL 1), the vector
    /// program on the other units.
    fn run_o3<V: VectorUnit>(
        &self,
        system: SystemKind,
        built: &eve_workloads::Built,
        program: &Program,
        mut core: O3Core<V>,
    ) -> Result<RunReport, SimError>
    where
        O3Core<V>: CoreStats<V>,
    {
        if let Some(t) = &self.tracer {
            core.set_tracer(t);
        }
        let hw_vl = core.hw_vl();
        let mut interp = Interpreter::new(program.clone(), built.memory.clone(), hw_vl);
        let mut c = Characterization::new();
        let mut r = Retired::default();
        while interp.step_into(&mut r)? {
            c.record(&r);
            core.retire(&r)?;
        }
        let cycles = core.finish();
        built
            .verify(interp.memory())
            .map_err(SimError::Verification)?;
        let breakdown = core.breakdown();
        Ok(self.report(
            system,
            built.name,
            cycles,
            interp.retired_count(),
            core.stats(),
            c,
            breakdown,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn report(
        &self,
        system: SystemKind,
        workload: &'static str,
        cycles: eve_common::Cycle,
        dyn_insts: u64,
        stats: Stats,
        characterization: Characterization,
        breakdown: Option<eve_core::StallBreakdown>,
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

/// Extracts the EVE stall breakdown from a core when its unit is an
/// EVE engine; other units report none.
pub trait CoreStats<V: VectorUnit> {
    /// The Fig 7 breakdown, if this core hosts an EVE engine.
    fn breakdown(&self) -> Option<eve_core::StallBreakdown>;
}

impl CoreStats<NoVector> for O3Core<NoVector> {
    fn breakdown(&self) -> Option<eve_core::StallBreakdown> {
        None
    }
}

impl CoreStats<IntegratedVector> for O3Core<IntegratedVector> {
    fn breakdown(&self) -> Option<eve_core::StallBreakdown> {
        None
    }
}

impl CoreStats<DecoupledVector> for O3Core<DecoupledVector> {
    fn breakdown(&self) -> Option<eve_core::StallBreakdown> {
        None
    }
}

impl CoreStats<EveEngine> for O3Core<EveEngine> {
    fn breakdown(&self) -> Option<eve_core::StallBreakdown> {
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
