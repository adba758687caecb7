//! Fault injection, detection, and graceful degradation at the system
//! level.
//!
//! The bit-accurate injector and the parity model live in `eve-sram`;
//! the check-latency model lives in `eve-core`. This module closes the
//! loop: [`Runner::run_faulty`] drives a workload on an EVE system
//! while a [`ShadowChecker`] executes every checkable compute
//! instruction's μprograms on a live [`EveArray`] with faults armed.
//! Parity alarms trigger bounded re-execution; exhausted retries
//! retire the engine back to cache and re-run the workload on the
//! decoupled vector baseline; silent corruptions are written back into
//! the architectural state so they propagate exactly as real silent
//! data corruption would. The per-run verdict lands in
//! [`RunReport::resilience`].
//!
//! [`Runner::run_faulty`]: crate::Runner::run_faulty
//! [`RunReport::resilience`]: crate::RunReport::resilience

use crate::report::RunReport;
use crate::runner::{Runner, SimError};
use crate::system::SystemKind;
use eve_common::json::JsonValue;
use eve_common::SplitMix64;
use eve_core::{EveEngine, ResilienceConfig};
use eve_cpu::O3Core;
use eve_isa::{Inst, Interpreter, VArithOp, VOperand, Vreg};
use eve_mem::HierarchyConfig;
use eve_sram::{Binding, DetectionMode, EveArray, FaultConfig, FaultInjector, FaultStats};
use eve_uop::{HybridConfig, MacroOpKind, ProgramLibrary};
use eve_workloads::Workload;

/// Lanes the shadow array carries. Checking is a sampled model — the
/// real detector covers every lane, but corrupting and comparing a
/// fixed-width slice keeps campaign runs fast while still exercising
/// every register row the workload touches.
pub const SHADOW_LANES: usize = 16;

/// How the recovery protocol climbs the escalation ladder
/// (correct in place → retry → remap row → disable way → degrade).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-executions allowed per macro-op before escalating past the
    /// retry stage.
    pub max_retries: u32,
    /// Spare-row remaps the controller may perform across the run
    /// (0 disables the remap stage).
    pub max_row_remaps: u32,
    /// Way disables (array rebuild onto different physical ways) the
    /// controller may perform (0 disables the stage).
    pub max_way_disables: u32,
    /// Background scrub every this many checked ops (0 disables).
    pub scrub_every_ops: u64,
    /// Detection/correction events on one row before it is considered
    /// permanently damaged and eligible for remap.
    pub remap_threshold: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            max_row_remaps: 0,
            max_way_disables: 0,
            scrub_every_ops: 0,
            remap_threshold: 3,
        }
    }
}

impl RecoveryPolicy {
    /// The full-ladder preset: spare-row remapping, one way disable,
    /// and a background scrub every 32 checked ops.
    #[must_use]
    pub fn sparing() -> Self {
        Self {
            max_row_remaps: 4,
            max_way_disables: 1,
            scrub_every_ops: 32,
            ..Self::default()
        }
    }
}

/// How many macro-ops each escalation stage resolved (or failed to).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscalationStages {
    /// Resolved by in-place SECDED correction alone (no alarm).
    pub corrected: u64,
    /// Resolved by re-execution.
    pub retried: u64,
    /// Resolved after retiring hot rows to spares.
    pub remapped: u64,
    /// Resolved after rebuilding the array on fresh ways.
    pub way_disabled: u64,
    /// Fell off the ladder into O3+DV degradation.
    pub degraded: u64,
}

/// The architecturally visible verdict of one faulty run, ordered from
/// benign to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Faults were injected (or none fired) but never became
    /// architecturally visible and never raised an alarm.
    Masked,
    /// Parity alarms fired; bounded re-execution recovered every one.
    DetectedCorrected,
    /// Retries exhausted: the engine retired its ways back to cache
    /// and the workload re-ran on the decoupled vector baseline.
    DetectedDegraded,
    /// A corruption slipped past the parity check and reached
    /// architectural state.
    SilentDataCorruption,
}

impl FaultOutcome {
    /// Stable string form for reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::DetectedCorrected => "detected_corrected",
            FaultOutcome::DetectedDegraded => "detected_degraded",
            FaultOutcome::SilentDataCorruption => "silent_data_corruption",
        }
    }
}

/// What the resilience layer observed and did during one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The run's verdict.
    pub outcome: FaultOutcome,
    /// Compute instructions shadow-checked.
    pub checked_ops: u64,
    /// Uncorrectable detections (parity mismatches or SECDED
    /// double-bit syndromes) across all checks and retries.
    pub parity_alarms: u64,
    /// SECDED single-bit errors corrected in place.
    pub corrected: u64,
    /// Re-executions performed.
    pub retries: u64,
    /// Rows retired to spares.
    pub remapped_rows: u64,
    /// Ways disabled (array rebuilds).
    pub ways_disabled: u64,
    /// Background scrub sweeps performed.
    pub scrubs: u64,
    /// Errors the scrubber corrected before they could pair up.
    pub scrub_corrected: u64,
    /// Lanes where a silent corruption reached architectural state.
    pub corrupted_lanes: u64,
    /// Per-stage resolution counts for the escalation ladder.
    pub stages: EscalationStages,
    /// Fraction of engine service slots that served requests in EVE
    /// mode: `eve_served / (checked + retries + fallback_served)`.
    /// Retries burn slots re-serving the same request; degraded runs
    /// push the remaining work to the fallback.
    pub availability: f64,
    /// What the injector actually did.
    pub fault_stats: FaultStats,
    /// Whether the final memory image matched the golden outputs.
    pub verified: bool,
    /// The system that degraded, when `outcome` is
    /// [`FaultOutcome::DetectedDegraded`] (the report's own `system`
    /// is then the fallback that finished the work).
    pub degraded_from: Option<SystemKind>,
}

/// The escalation ladder's externally visible health, exported for the
/// serving layer: `eve-serve` converts a snapshot into circuit-breaker
/// signals (a degradation trips the breaker, an exhausted remap budget
/// or a way disable counts as a failure).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineHealth {
    /// Per-stage resolution tallies.
    pub stages: EscalationStages,
    /// Uncorrectable detections seen so far.
    pub parity_alarms: u64,
    /// Single-bit errors corrected in place.
    pub corrected: u64,
    /// Rows retired to spares.
    pub remapped_rows: u64,
    /// Ways disabled (array rebuilds).
    pub ways_disabled: u64,
    /// The spare-row budget is spent: the next persistent error can
    /// only be absorbed by a way disable or a degradation.
    pub remap_exhausted: bool,
    /// The way-disable budget is spent: the next persistent error
    /// degrades the engine.
    pub way_budget_exhausted: bool,
    /// The engine fell off the ladder into O3+DV degradation.
    pub degraded: bool,
}

impl ShadowChecker {
    /// A health snapshot of this checker's escalation ladder.
    #[must_use]
    pub fn health(&self) -> EngineHealth {
        EngineHealth {
            stages: self.stages,
            parity_alarms: self.parity_alarms,
            corrected: self.corrected,
            remapped_rows: self.remapped_rows,
            ways_disabled: self.ways_disabled,
            remap_exhausted: self.remapped_rows >= u64::from(self.policy.max_row_remaps),
            way_budget_exhausted: self.ways_disabled >= u64::from(self.policy.max_way_disables),
            degraded: self.stages.degraded > 0,
        }
    }
}

impl ResilienceReport {
    /// The run's final health snapshot. Budgets are not recorded in
    /// the report, so exhaustion is inferred from the outcome: a
    /// degraded run fell through the whole ladder.
    #[must_use]
    pub fn health(&self) -> EngineHealth {
        let degraded = self.outcome == FaultOutcome::DetectedDegraded;
        EngineHealth {
            stages: self.stages,
            parity_alarms: self.parity_alarms,
            corrected: self.corrected,
            remapped_rows: self.remapped_rows,
            ways_disabled: self.ways_disabled,
            remap_exhausted: degraded,
            way_budget_exhausted: degraded,
            degraded,
        }
    }
}

/// A compute instruction captured just before the interpreter executes
/// it: operand values are read pre-step so destructive aliasing
/// (`vd == vs1`) still checks correctly.
#[derive(Debug, Clone)]
pub struct PreparedCheck {
    vd: Vreg,
    vs1: Vreg,
    vs2: Vreg,
    kind: MacroOpKind,
    a: Vec<u32>,
    b: Vec<u32>,
    d0: Vec<u32>,
}

/// What one shadow check concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckVerdict {
    /// Execution matched the interpreter (possibly after retries).
    Clean,
    /// A mismatch reached architectural state (already poked into the
    /// interpreter).
    Silent,
    /// Retries exhausted — the engine must degrade.
    Degrade,
}

/// Executes checkable μprograms on a fault-armed [`EveArray`] and
/// compares against the functional interpreter, climbing the
/// escalation ladder (correct → retry → remap → disable way →
/// degrade) on detected errors.
#[derive(Debug)]
pub struct ShadowChecker {
    lib: ProgramLibrary,
    arr: EveArray,
    lanes: usize,
    policy: RecoveryPolicy,
    mode: DetectionMode,
    /// The armed fault population; way-disable rebuilds re-arm a fresh
    /// injector over it with a deterministically derived seed.
    base_cfg: FaultConfig,
    /// Compute instructions checked.
    pub checked_ops: u64,
    /// Uncorrectable detections seen (parity mismatches or SECDED
    /// double-bit syndromes).
    pub parity_alarms: u64,
    /// SECDED single-bit errors corrected in place.
    pub corrected: u64,
    /// Re-executions performed.
    pub retries: u64,
    /// Rows retired to spares.
    pub remapped_rows: u64,
    /// Ways disabled (array rebuilds onto fresh physical ways).
    pub ways_disabled: u64,
    /// Background scrub sweeps performed.
    pub scrubs: u64,
    /// Errors the scrubber corrected.
    pub scrub_corrected: u64,
    /// Architecturally corrupted lanes.
    pub corrupted_lanes: u64,
    /// Per-stage resolution tallies.
    pub stages: EscalationStages,
    /// Correction events not yet charged to the engine's timeline.
    pending_corrections: u64,
    /// Remapped rows not yet charged to the engine's timeline.
    pending_remaps: u64,
    /// Reused lane buffer for the silent-mismatch audit (`check` runs
    /// once per compute instruction — no per-call allocation).
    shadow: Vec<u32>,
}

impl ShadowChecker {
    /// A parity-mode checker for an EVE-`n` engine with `fault_cfg`
    /// armed.
    ///
    /// # Errors
    ///
    /// Returns a [`eve_common::ConfigError`] for an invalid factor.
    pub fn new(
        n: u32,
        fault_cfg: FaultConfig,
        policy: RecoveryPolicy,
    ) -> eve_common::ConfigResult<Self> {
        Self::with_mode(n, fault_cfg, policy, DetectionMode::Parity)
    }

    /// A checker with an explicit detection mode.
    ///
    /// # Errors
    ///
    /// Returns a [`eve_common::ConfigError`] for an invalid factor.
    pub fn with_mode(
        n: u32,
        fault_cfg: FaultConfig,
        policy: RecoveryPolicy,
        mode: DetectionMode,
    ) -> eve_common::ConfigResult<Self> {
        let cfg = HybridConfig::new(n)?;
        let mut arr = EveArray::new(cfg, SHADOW_LANES);
        arr.attach_injector_with(FaultInjector::new(fault_cfg.clone()), mode);
        Ok(Self {
            lib: ProgramLibrary::new(cfg),
            arr,
            lanes: SHADOW_LANES,
            policy,
            mode,
            base_cfg: fault_cfg,
            checked_ops: 0,
            parity_alarms: 0,
            corrected: 0,
            retries: 0,
            remapped_rows: 0,
            ways_disabled: 0,
            scrubs: 0,
            scrub_corrected: 0,
            corrupted_lanes: 0,
            stages: EscalationStages::default(),
            pending_corrections: 0,
            pending_remaps: 0,
            shadow: Vec::with_capacity(SHADOW_LANES),
        })
    }

    /// The active detection mode.
    #[must_use]
    pub fn mode(&self) -> DetectionMode {
        self.mode
    }

    /// Drains the (corrections, remapped rows) not yet charged to the
    /// engine's timing model; the driver forwards them to
    /// [`eve_core::EveEngine::charge_ecc_corrections`] and
    /// [`eve_core::EveEngine::charge_remaps`].
    pub fn take_charges(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.pending_corrections),
            std::mem::take(&mut self.pending_remaps),
        )
    }

    /// The single macro-op the shadow model can execute with full
    /// semantics for a compute instruction, if any. `Mulh`/`Mulhu`
    /// keep only timing fidelity in the μprogram library and shifts /
    /// signed division use multi-program sequences, so those are left
    /// to the parity-latency model alone.
    fn shadow_kind(op: VArithOp) -> Option<MacroOpKind> {
        use MacroOpKind as M;
        Some(match op {
            VArithOp::Add => M::Add,
            VArithOp::Sub => M::Sub,
            VArithOp::Mul => M::Mul,
            VArithOp::Macc => M::MulAcc,
            VArithOp::Divu => M::Divu,
            VArithOp::Remu => M::Remu,
            VArithOp::And => M::And,
            VArithOp::Or => M::Or,
            VArithOp::Xor => M::Xor,
            VArithOp::Min => M::Min,
            VArithOp::Max => M::Max,
            VArithOp::Minu => M::Minu,
            VArithOp::Maxu => M::Maxu,
            _ => return None,
        })
    }

    /// Captures operand state for `inst` if it is shadow-checkable: an
    /// unmasked compute op with a lane to check. Scalar/immediate
    /// right-hand sides are broadcast into a register the instruction
    /// doesn't read — the VSU's `Splat`-into-scratch, compressed to
    /// one write since the shadow register file is reloaded per check.
    #[must_use]
    pub fn prepare(&self, interp: &Interpreter) -> Option<PreparedCheck> {
        let Some(Inst::VOp {
            op,
            vd,
            vs1,
            rhs,
            masked: false,
        }) = interp.peek()
        else {
            return None;
        };
        let kind = Self::shadow_kind(op)?;
        let lanes = self.lanes.min(interp.vl() as usize);
        if lanes == 0 {
            return None;
        }
        let (vs2, b) = match rhs {
            VOperand::Reg(vs2) => (vs2, interp.vreg(vs2)[..lanes].to_vec()),
            VOperand::Scalar(x) => (Self::spare_reg(vd, vs1), vec![interp.xreg(x) as u32; lanes]),
            VOperand::Imm(i) => (Self::spare_reg(vd, vs1), vec![i as u32; lanes]),
        };
        Some(PreparedCheck {
            vd,
            vs1,
            vs2,
            kind,
            a: interp.vreg(vs1)[..lanes].to_vec(),
            b,
            d0: interp.vreg(vd)[..lanes].to_vec(),
        })
    }

    /// An architectural register distinct from both operands, used to
    /// hold a broadcast value. Clobbering it is harmless: the shadow
    /// register file is reloaded from the interpreter on every check.
    fn spare_reg(vd: Vreg, vs1: Vreg) -> Vreg {
        for idx in [29u8, 30, 31] {
            let r = Vreg::new(idx);
            if r != vd && r != vs1 {
                return r;
            }
        }
        unreachable!("three candidates cannot all collide with two registers")
    }

    /// Loads operands into the shadow register file. Rewriting also
    /// *repairs* transiently corrupted rows — this is the recovery
    /// action a retry performs.
    fn load_operands(&mut self, p: &PreparedCheck) {
        for lane in 0..p.a.len() {
            self.arr
                .write_element(u32::from(p.vs1.index()), lane, p.a[lane]);
            self.arr
                .write_element(u32::from(p.vs2.index()), lane, p.b[lane]);
            self.arr
                .write_element(u32::from(p.vd.index()), lane, p.d0[lane]);
        }
    }

    /// Retires rows whose event counters crossed the policy threshold
    /// to spares, within the remap budget. Returns how many rows were
    /// remapped.
    fn remap_hot_rows(&mut self) -> u64 {
        let budget = u64::from(self.policy.max_row_remaps).saturating_sub(self.remapped_rows);
        if budget == 0 {
            return 0;
        }
        let mut done = 0u64;
        for row in self.arr.hot_rows(self.policy.remap_threshold.max(1)) {
            if done >= budget || !self.arr.remap_row(row as usize) {
                break;
            }
            done += 1;
        }
        self.remapped_rows += done;
        self.pending_remaps += done;
        done
    }

    /// Disables the current way group: rebuilds the array on fresh
    /// physical ways, re-arming the same fault population under a
    /// deterministically derived seed (different ways, different
    /// physical defects). Returns `false` once the budget is spent.
    fn disable_way(&mut self) -> bool {
        if self.ways_disabled >= u64::from(self.policy.max_way_disables) {
            return false;
        }
        self.ways_disabled += 1;
        let mut cfg = self.base_cfg.clone();
        // Scripted faults describe defects in the *original* ways;
        // the replacement ways only carry the statistical population.
        cfg.scripted.clear();
        cfg.seed = SplitMix64::new(self.base_cfg.seed ^ self.ways_disabled).next_u64();
        let mut arr = EveArray::new(self.arr.config(), SHADOW_LANES);
        arr.attach_injector_with(FaultInjector::new(cfg), self.mode);
        self.arr = arr;
        true
    }

    /// Runs a background scrub sweep when the policy's cadence is due.
    fn maybe_scrub(&mut self) {
        if self.policy.scrub_every_ops == 0
            || !self.checked_ops.is_multiple_of(self.policy.scrub_every_ops)
        {
            return;
        }
        let stats = self.arr.scrub();
        self.scrubs += 1;
        self.scrub_corrected += stats.corrected;
        // Scrub-found events flow through the same array counters as
        // read-path events; drain them into the run totals/charges.
        let corrected = self.arr.take_corrected_events();
        self.corrected += corrected;
        self.pending_corrections += corrected;
        self.parity_alarms += self.arr.take_parity_alarms();
    }

    /// Executes the μprogram for a prepared instruction (after the
    /// interpreter stepped), climbing the escalation ladder on
    /// uncorrectable detections: bounded retry, then spare-row remap,
    /// then way disable, then degrade. Silent mismatches are poked
    /// into the interpreter so they propagate architecturally.
    pub fn check(&mut self, p: &PreparedCheck, interp: &mut Interpreter) -> CheckVerdict {
        self.checked_ops += 1;
        let prog = self.lib.program(p.kind);
        let binding = Binding::new(p.vd.index(), p.vs1.index(), p.vs2.index());
        let mut attempt = 0;
        let mut stage_retried = false;
        let mut stage_remapped = false;
        let mut stage_way = false;
        loop {
            self.load_operands(p);
            self.arr.take_parity_alarms();
            self.arr.take_corrected_events();
            self.arr.execute(&prog, &binding);
            // Drain-path audit: the destination leaves the engine
            // through the same check/correct pipeline operand reads
            // use, so writeback flips on rows the μprogram never
            // re-reads are still caught here.
            let _ = self.arr.audit_register(u32::from(p.vd.index()));
            let corrected = self.arr.take_corrected_events();
            let alarms = self.arr.take_parity_alarms();
            self.corrected += corrected;
            self.pending_corrections += corrected;
            if alarms == 0 {
                // Resolution bookkeeping: attribute the op to the
                // highest ladder stage it needed.
                if stage_way {
                    self.stages.way_disabled += 1;
                } else if stage_remapped {
                    self.stages.remapped += 1;
                } else if stage_retried {
                    self.stages.retried += 1;
                } else if corrected > 0 {
                    self.stages.corrected += 1;
                }
                break;
            }
            self.parity_alarms += alarms;
            if attempt < self.policy.max_retries {
                attempt += 1;
                self.retries += 1;
                stage_retried = true;
                continue;
            }
            // Retries exhausted: retire hot rows to spares and grant a
            // fresh retry round.
            if self.remap_hot_rows() > 0 {
                attempt = 0;
                stage_remapped = true;
                continue;
            }
            // No row to blame (or spares gone): rebuild on fresh ways.
            if self.disable_way() {
                attempt = 0;
                stage_way = true;
                continue;
            }
            self.stages.degraded += 1;
            return CheckVerdict::Degrade;
        }
        // A repeatedly-correcting row is permanently damaged even if
        // it never alarms; retire it before a second flip pairs up.
        if self.remap_hot_rows() > 0 {
            self.stages.remapped += 1;
        }
        self.maybe_scrub();
        // Alarm-free execution: compare against the architectural
        // result. A mismatch here slipped past the detector.
        let lanes = p.a.len();
        let golden = &interp.vreg(p.vd)[..lanes];
        self.shadow.clear();
        let mut bad = 0u64;
        for (lane, &want) in golden.iter().enumerate() {
            let got = self.arr.read_element(u32::from(p.vd.index()), lane);
            if got != want {
                bad += 1;
            }
            self.shadow.push(got);
        }
        if bad == 0 {
            return CheckVerdict::Clean;
        }
        self.corrupted_lanes += bad;
        interp.poke_vreg(p.vd, &self.shadow);
        CheckVerdict::Silent
    }

    /// The injector's damage counters so far.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.arr.injector().map(|i| *i.stats()).unwrap_or_default()
    }

    /// The run's resilience verdict from this checker's tallies.
    /// `fallback_ops` counts the checkable ops a degraded run left to
    /// the fallback, for the availability metric.
    fn resilience(
        &self,
        outcome: FaultOutcome,
        fallback_ops: u64,
        verified: bool,
        degraded_from: Option<SystemKind>,
    ) -> ResilienceReport {
        ResilienceReport {
            outcome,
            checked_ops: self.checked_ops,
            parity_alarms: self.parity_alarms,
            corrected: self.corrected,
            retries: self.retries,
            remapped_rows: self.remapped_rows,
            ways_disabled: self.ways_disabled,
            scrubs: self.scrubs,
            scrub_corrected: self.scrub_corrected,
            corrupted_lanes: self.corrupted_lanes,
            stages: self.stages,
            availability: availability(self, fallback_ops),
            fault_stats: self.fault_stats(),
            verified,
            degraded_from,
        }
    }
}

impl Runner {
    /// Simulates `workload` on EVE-`n` with faults armed: the engine
    /// charges parity-check latency, a [`ShadowChecker`] executes each
    /// checkable compute op bit-accurately under injection, alarms
    /// retry per `policy`, and exhausted retries retire the engine and
    /// re-run the workload on the decoupled vector baseline. The
    /// verdict is in [`RunReport::resilience`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interpreter failure, an invalid factor,
    /// or a verification mismatch *not* attributable to injected
    /// faults (a simulator bug).
    pub fn run_faulty(
        &self,
        n: u32,
        workload: &Workload,
        fault_cfg: FaultConfig,
        policy: RecoveryPolicy,
    ) -> Result<RunReport, SimError> {
        self.run_faulty_with(n, workload, fault_cfg, policy, DetectionMode::Parity)
    }

    /// [`Runner::run_faulty`] with an explicit detection mode: SECDED
    /// rows correct single-bit errors in place (charged to the
    /// engine's `ecc_correct_stall`), spare-row remaps and background
    /// scrubs land in their own buckets, and the report carries the
    /// escalation tallies plus the availability metric.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interpreter failure, an invalid factor,
    /// or a verification mismatch *not* attributable to injected
    /// faults (a simulator bug).
    pub fn run_faulty_with(
        &self,
        n: u32,
        workload: &Workload,
        fault_cfg: FaultConfig,
        policy: RecoveryPolicy,
        mode: DetectionMode,
    ) -> Result<RunReport, SimError> {
        let mem_cfg = HierarchyConfig::table_iii();
        let built = workload.build();
        let mut engine = EveEngine::new(n).map_err(|e| SimError::Config(e.to_string()))?;
        engine.enable_resilience(match mode {
            DetectionMode::Parity => ResilienceConfig::default(),
            DetectionMode::Secded => ResilienceConfig::secded(),
        });
        let mut run = self.start(
            SystemKind::EveN(n),
            built,
            O3Core::with_unit(engine, mem_cfg.clone()),
        );
        let mut checker = ShadowChecker::with_mode(n, fault_cfg, policy, mode)
            .map_err(|e| SimError::Config(e.to_string()))?;
        let mut degraded = false;
        loop {
            let prepared = checker.prepare(&run.interp);
            if !run.step()? {
                break;
            }
            if let Some(p) = prepared {
                let verdict = checker.check(&p, &mut run.interp);
                let (corrections, remaps) = checker.take_charges();
                let engine = run.core.vector_unit_mut();
                engine.charge_ecc_corrections(corrections);
                engine.charge_remaps(remaps);
                if verdict == CheckVerdict::Degrade {
                    degraded = true;
                    break;
                }
            }
        }

        if degraded {
            // Graceful degradation: give the donated ways back to the
            // cache, then finish the job on the O3+DV baseline. The
            // remaining checkable work is counted (functionally) so
            // the availability metric knows how much the fallback
            // served.
            let mut fallback_ops = 0u64;
            loop {
                let checkable = checker.prepare(&run.interp).is_some();
                if !run.interp.step_into(&mut run.retired)? {
                    break;
                }
                if checkable {
                    fallback_ops += 1;
                }
            }
            let now = run.core.finish();
            run.core.hierarchy_mut().despawn_vector_mode(now);
            // The report describes the O3+DV rerun, which starts again
            // at cycle 0: drop the abandoned attempt's events and
            // counters so the trace describes that rerun alone.
            if let Some(t) = self.tracer() {
                t.clear();
            }
            let mut fallback = self.run_with_memory(SystemKind::O3Dv, workload, mem_cfg)?;
            fallback.resilience = Some(checker.resilience(
                FaultOutcome::DetectedDegraded,
                fallback_ops,
                true,
                Some(SystemKind::EveN(n)),
            ));
            return Ok(fallback);
        }

        let (mut report, verdict) = run.report(self);
        let verified = verdict.is_ok();
        if !verified && checker.corrupted_lanes == 0 {
            // Not explainable by injection — a real simulator bug.
            return Err(SimError::Verification(
                "outputs diverged without any injected corruption".into(),
            ));
        }
        let outcome = if checker.corrupted_lanes > 0 {
            FaultOutcome::SilentDataCorruption
        } else if checker.parity_alarms > 0 || checker.corrected > 0 {
            FaultOutcome::DetectedCorrected
        } else {
            FaultOutcome::Masked
        };
        report.resilience = Some(checker.resilience(outcome, 0, verified, None));
        Ok(report)
    }
}

/// Fraction of engine service slots that served requests in EVE mode.
/// Every checked op and every retry occupies one slot; requests the
/// degraded fallback served never reached the engine at all. An op
/// that fell off the ladder was ultimately served by the fallback, so
/// it leaves the numerator.
fn availability(checker: &ShadowChecker, fallback_ops: u64) -> f64 {
    let served = checker.checked_ops - checker.stages.degraded;
    let slots = checker.checked_ops + checker.retries + fallback_ops;
    if slots == 0 {
        1.0
    } else {
        served as f64 / slots as f64
    }
}

/// One protection scheme a campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMode {
    /// Interleaved parity, detect-and-retry only.
    Parity,
    /// SECDED, correct-in-place (no sparing).
    Secded,
    /// SECDED plus the full ladder: spare-row remapping, way disable,
    /// and background scrubbing.
    SecdedSparing,
}

impl CampaignMode {
    /// Stable string form for report rows.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            CampaignMode::Parity => "parity",
            CampaignMode::Secded => "secded",
            CampaignMode::SecdedSparing => "secded_sparing",
        }
    }

    /// The array-level detection mode this scheme arms.
    #[must_use]
    pub fn detection(&self) -> DetectionMode {
        match self {
            CampaignMode::Parity => DetectionMode::Parity,
            CampaignMode::Secded | CampaignMode::SecdedSparing => DetectionMode::Secded,
        }
    }

    /// The recovery policy this scheme runs under, derived from the
    /// plan's base policy: only the sparing scheme gets the remap /
    /// way-disable / scrub stages.
    #[must_use]
    pub fn policy(&self, base: RecoveryPolicy) -> RecoveryPolicy {
        match self {
            CampaignMode::Parity | CampaignMode::Secded => RecoveryPolicy {
                max_row_remaps: 0,
                max_way_disables: 0,
                scrub_every_ops: 0,
                ..base
            },
            CampaignMode::SecdedSparing => RecoveryPolicy {
                max_row_remaps: base.max_row_remaps.max(4),
                max_way_disables: base.max_way_disables.max(1),
                scrub_every_ops: if base.scrub_every_ops == 0 {
                    32
                } else {
                    base.scrub_every_ops
                },
                ..base
            },
        }
    }
}

/// One fault-injection campaign: the cross product of fault rates,
/// protection modes, and EVE parallelization factors over a workload
/// list.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every run's injector seed derives from it.
    pub seed: u64,
    /// Uniform transient rates to sweep (0.0 is the control point).
    pub rates: Vec<f64>,
    /// Protection schemes to sweep.
    pub modes: Vec<CampaignMode>,
    /// EVE factors to sweep.
    pub factors: Vec<u32>,
    /// Base recovery policy (each mode derives its own from it).
    pub policy: RecoveryPolicy,
    /// Restrict the population to writeback-layer transients — the
    /// single-bit class SECDED corrects completely (the CI zero-SDC
    /// gate). `false` arms the full uniform population.
    pub write_only: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xFA_017,
            rates: vec![0.0, 1e-4, 1e-3, 1e-2],
            modes: vec![
                CampaignMode::Parity,
                CampaignMode::Secded,
                CampaignMode::SecdedSparing,
            ],
            factors: vec![8, 32],
            policy: RecoveryPolicy::default(),
            write_only: false,
        }
    }
}

/// One cell of a campaign: the sweep coordinates plus the injector
/// seed, which is derived *serially* from the plan's master seed by
/// [`campaign_jobs`] so a parallel driver can execute cells in any
/// order and still reproduce the serial RNG assignment exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignJob {
    /// Uniform transient fault rate (0.0 is the control point).
    pub rate: f64,
    /// Protection scheme for this cell.
    pub mode: CampaignMode,
    /// EVE parallelization factor.
    pub factor: u32,
    /// Workload to run.
    pub workload: Workload,
    /// Pre-derived injector seed for this cell.
    pub seed: u64,
}

/// The result of one campaign cell: the verdict for the tally, the
/// coordinates and availability for the per-mode aggregation, plus
/// the rendered JSON row.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The run's verdict (feeds the summary tally).
    pub outcome: FaultOutcome,
    /// The cell's protection scheme.
    pub mode: CampaignMode,
    /// The cell's fault rate.
    pub rate: f64,
    /// The run's availability (feeds the per-mode summary).
    pub availability: f64,
    /// The run's JSON row, in final rendered form.
    pub row: JsonValue,
}

/// Expands a plan into its cell list, deriving every injector seed
/// from the master seed in the canonical rate → mode → factor →
/// workload order. Seed derivation must stay here — outside any
/// worker — or parallel runs would diverge from serial ones.
#[must_use]
pub fn campaign_jobs(plan: &FaultPlan, workloads: &[Workload]) -> Vec<CampaignJob> {
    let mut seeder = SplitMix64::new(plan.seed);
    let mut jobs = Vec::with_capacity(
        plan.rates.len() * plan.modes.len() * plan.factors.len() * workloads.len(),
    );
    for &rate in &plan.rates {
        for &mode in &plan.modes {
            for &factor in &plan.factors {
                for &workload in workloads {
                    jobs.push(CampaignJob {
                        rate,
                        mode,
                        factor,
                        workload,
                        seed: seeder.next_u64(),
                    });
                }
            }
        }
    }
    jobs
}

/// Runs one campaign cell to a finished JSON row.
///
/// # Errors
///
/// Propagates the cell's [`SimError`], if any.
pub fn run_campaign_job(plan: &FaultPlan, job: &CampaignJob) -> Result<CampaignRun, SimError> {
    let cfg = if job.rate == 0.0 {
        FaultConfig::none(job.seed)
    } else if plan.write_only {
        FaultConfig::write_transients(job.seed, job.rate)
    } else {
        FaultConfig::uniform(job.seed, job.rate)
    };
    let report = Runner::new().run_faulty_with(
        job.factor,
        &job.workload,
        cfg,
        job.mode.policy(plan.policy),
        job.mode.detection(),
    )?;
    let res = report
        .resilience
        .as_ref()
        .ok_or_else(|| SimError::Verification("faulty run produced no resilience report".into()))?;
    let row = JsonValue::object([
        ("rate", job.rate.into()),
        ("mode", job.mode.as_str().into()),
        ("factor", u64::from(job.factor).into()),
        ("workload", report.workload.into()),
        ("seed", job.seed.into()),
        ("system", report.system.to_string().into()),
        ("outcome", res.outcome.as_str().into()),
        ("verified", res.verified.into()),
        ("cycles", report.cycles.0.into()),
        ("wall_ps", report.wall_ps.0.into()),
        ("checked_ops", res.checked_ops.into()),
        ("parity_alarms", res.parity_alarms.into()),
        ("corrected", res.corrected.into()),
        ("retries", res.retries.into()),
        ("remapped_rows", res.remapped_rows.into()),
        ("ways_disabled", res.ways_disabled.into()),
        ("scrubs", res.scrubs.into()),
        ("scrub_corrected", res.scrub_corrected.into()),
        ("corrupted_lanes", res.corrupted_lanes.into()),
        ("availability", res.availability.into()),
        ("fault_events", res.fault_stats.total_events().into()),
        ("stuck_cells", res.fault_stats.stuck_cells.into()),
    ]);
    Ok(CampaignRun {
        outcome: res.outcome,
        mode: job.mode,
        rate: job.rate,
        availability: res.availability,
        row,
    })
}

/// A campaign cell that could not produce a result: the harness keeps
/// the sweep alive and reports the cell as an error row instead.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// The failed cell's coordinates.
    pub job: CampaignJob,
    /// Human-readable cause (simulation error, panic, or timeout).
    pub error: String,
}

impl CampaignFailure {
    /// The failure's JSON row: the cell coordinates plus the error.
    #[must_use]
    pub fn row(&self) -> JsonValue {
        JsonValue::object([
            ("rate", self.job.rate.into()),
            ("mode", self.job.mode.as_str().into()),
            ("factor", u64::from(self.job.factor).into()),
            ("seed", self.job.seed.into()),
            ("error", self.error.as_str().into()),
        ])
    }
}

/// One finished-or-failed campaign cell.
pub type CampaignCell = Result<CampaignRun, CampaignFailure>;

/// Assembles finished cell results — in [`campaign_jobs`] order — into
/// the final campaign document. Failed cells become error rows and a
/// `failed` entry in the summary rather than sinking the whole sweep.
#[must_use]
pub fn campaign_doc(plan: &FaultPlan, cells: Vec<CampaignCell>) -> String {
    let mut tally = [0u64; 4];
    let mut failed = 0u64;
    let mut rows = Vec::with_capacity(cells.len());
    // Mean availability per (mode, rate), keyed in plan order so the
    // output stays byte-deterministic.
    let mut avail: Vec<((CampaignMode, f64), (f64, u64))> = Vec::new();
    for &mode in &plan.modes {
        for &rate in &plan.rates {
            avail.push(((mode, rate), (0.0, 0)));
        }
    }
    for cell in cells {
        let run = match cell {
            Ok(run) => run,
            Err(failure) => {
                failed += 1;
                rows.push(failure.row());
                continue;
            }
        };
        tally[match run.outcome {
            FaultOutcome::Masked => 0,
            FaultOutcome::DetectedCorrected => 1,
            FaultOutcome::DetectedDegraded => 2,
            FaultOutcome::SilentDataCorruption => 3,
        }] += 1;
        if let Some((_, (sum, count))) = avail
            .iter_mut()
            .find(|((m, r), _)| *m == run.mode && *r == run.rate)
        {
            *sum += run.availability;
            *count += 1;
        }
        rows.push(run.row);
    }
    let availability = avail
        .into_iter()
        .filter(|(_, (_, count))| *count > 0)
        .map(|((mode, rate), (sum, count))| {
            JsonValue::object([
                ("mode", mode.as_str().into()),
                ("rate", rate.into()),
                ("mean_availability", (sum / count as f64).into()),
            ])
        })
        .collect::<Vec<_>>();
    let doc = JsonValue::object([
        ("seed", plan.seed.into()),
        (
            "policy",
            JsonValue::object([
                ("max_retries", u64::from(plan.policy.max_retries).into()),
                ("remap_threshold", plan.policy.remap_threshold.into()),
            ]),
        ),
        (
            "summary",
            JsonValue::object([
                ("masked", tally[0].into()),
                ("detected_corrected", tally[1].into()),
                ("detected_degraded", tally[2].into()),
                ("silent_data_corruption", tally[3].into()),
                ("failed", failed.into()),
            ]),
        ),
        ("availability", JsonValue::Array(availability)),
        ("runs", JsonValue::Array(rows)),
    ]);
    doc.to_pretty()
}

/// Runs the campaign serially and renders a deterministic JSON
/// document: the same plan and workloads always produce byte-identical
/// output. The `fault_campaign` binary fans the same jobs out across
/// threads and must byte-match this function.
///
/// # Errors
///
/// Propagates the first [`SimError`] any run hits.
pub fn campaign_json(plan: &FaultPlan, workloads: &[Workload]) -> Result<String, SimError> {
    let runs = campaign_jobs(plan, workloads)
        .iter()
        .map(|job| run_campaign_job(plan, job))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(campaign_doc(plan, runs.into_iter().map(Ok).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::{vreg, xreg, Asm, Memory};
    use eve_sram::{Fault, FaultLayer};

    fn vadd_program(n: usize) -> (Interpreter, Vreg) {
        let mut mem = Memory::new(0x8000);
        let a: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
        let b: Vec<u32> = (0..n as u32).map(|i| i * 7 + 2).collect();
        mem.store_u32_slice(0x1000, &a);
        mem.store_u32_slice(0x2000, &b);
        let mut s = Asm::new();
        s.li(xreg::A0, n as i64);
        s.setvl(xreg::T0, xreg::A0);
        s.li(xreg::A1, 0x1000);
        s.vload(vreg::V1, xreg::A1);
        s.li(xreg::A2, 0x2000);
        s.vload(vreg::V2, xreg::A2);
        s.vop(VArithOp::Add, vreg::V3, vreg::V1, VOperand::Reg(vreg::V2));
        s.halt();
        (
            Interpreter::new(s.assemble().unwrap(), mem, n as u32),
            vreg::V3,
        )
    }

    fn drive(interp: &mut Interpreter, checker: &mut ShadowChecker) -> Vec<CheckVerdict> {
        let mut verdicts = Vec::new();
        loop {
            let prepared = checker.prepare(interp);
            if interp.step().unwrap().is_none() {
                break;
            }
            if let Some(p) = prepared {
                verdicts.push(checker.check(&p, interp));
            }
        }
        verdicts
    }

    #[test]
    fn zero_fault_checks_are_clean() {
        let (mut interp, _) = vadd_program(8);
        let mut checker =
            ShadowChecker::new(32, FaultConfig::none(7), RecoveryPolicy::default()).unwrap();
        let verdicts = drive(&mut interp, &mut checker);
        assert_eq!(verdicts, vec![CheckVerdict::Clean]);
        assert_eq!(checker.checked_ops, 1);
        assert_eq!(checker.parity_alarms, 0);
        assert_eq!(checker.fault_stats().total_events(), 0);
    }

    #[test]
    fn persistent_alarms_degrade() {
        // A stuck cell in a *source* row: with EVE-32 (1 segment)
        // register v is row v. Every operand reload re-perturbs the
        // row, and the μprogram's parity-checked read alarms on every
        // retry until the policy gives up.
        let mut cfg = FaultConfig::none(7);
        cfg.scripted.push(Fault::stuck_at(1, 0, 5, true));
        let (mut interp, _) = vadd_program(4);
        let mut checker = ShadowChecker::new(32, cfg, RecoveryPolicy::default()).unwrap();
        let verdicts = drive(&mut interp, &mut checker);
        assert!(
            verdicts.contains(&CheckVerdict::Degrade),
            "stuck destination must exhaust retries: {verdicts:?}"
        );
        assert!(checker.retries > 0);
    }

    #[test]
    fn transient_write_faults_are_corrected_by_retry() {
        // A one-shot writeback-layer transient corrupts a source row
        // after its parity was generated: the μprogram's read alarms,
        // and the retry's operand reload restores a clean row.
        let mut cfg = FaultConfig::none(7);
        cfg.scripted.push(Fault::transient(
            FaultLayer::Writeback,
            1,
            0,
            3,
            0,
            u64::MAX,
        ));
        let (mut interp, _) = vadd_program(4);
        let mut checker = ShadowChecker::new(32, cfg, RecoveryPolicy::default()).unwrap();
        let verdicts = drive(&mut interp, &mut checker);
        assert_eq!(verdicts, vec![CheckVerdict::Clean]);
        assert!(checker.parity_alarms > 0, "the flip must be detected");
        assert_eq!(checker.retries, 1, "one re-execution recovers");
    }

    #[test]
    fn health_snapshot_tracks_the_ladder() {
        let (mut interp, _) = vadd_program(8);
        let mut checker =
            ShadowChecker::new(32, FaultConfig::none(7), RecoveryPolicy::default()).unwrap();
        drive(&mut interp, &mut checker);
        let h = checker.health();
        assert!(!h.degraded);
        assert_eq!(h.parity_alarms, 0);
        // The default policy has no remap/way budget, so both read as
        // exhausted: the only stages left are retry and degrade.
        assert!(h.remap_exhausted);
        assert!(h.way_budget_exhausted);

        // A degraded run's report-level snapshot flags the fall-through.
        let mut cfg = FaultConfig::none(7);
        cfg.scripted.push(Fault::stuck_at(1, 0, 5, true));
        let (mut interp, _) = vadd_program(4);
        let mut checker = ShadowChecker::new(32, cfg, RecoveryPolicy::default()).unwrap();
        let verdicts = drive(&mut interp, &mut checker);
        assert!(verdicts.contains(&CheckVerdict::Degrade));
        assert!(checker.health().degraded);
    }

    #[test]
    fn sense_faults_are_silent_and_poked() {
        // Sense-layer faults corrupt operands before the parity-bearing
        // latch, so no alarm fires — the corruption must instead land
        // in the interpreter's register (SDC modeling).
        let mut cfg = FaultConfig::none(7);
        cfg.scripted
            .push(Fault::transient(FaultLayer::Sense, 1, 0, 4, 0, u64::MAX));
        let (mut interp, vd) = vadd_program(4);
        let mut checker = ShadowChecker::new(32, cfg, RecoveryPolicy::default()).unwrap();
        let verdicts = drive(&mut interp, &mut checker);
        assert_eq!(verdicts, vec![CheckVerdict::Silent]);
        assert!(checker.corrupted_lanes > 0);
        // The poked value differs from the true sum for lane 0.
        let true_sum = 1u32 + 2;
        assert_ne!(interp.vreg(vd)[0], true_sum);
    }
}
