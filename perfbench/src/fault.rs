//! `fault_campaign`: the default `FaultPlan` over the tiny suite, one
//! plan per master seed, with a traced twin that re-drives
//! `run_faulty_with`'s loop from `ShadowChecker` and `EveEngine` calls.

use crate::fig6::{count_stats, traced_cell};
use crate::host::catch_cell;
use crate::layers::{elapsed_ns, Layers, Timed};
use crate::{Bench, Modelled, Tally};
use eve_common::{SplitMix64, Stats};
use eve_core::{EveEngine, ResilienceConfig, StallBreakdown};
use eve_cpu::O3Core;
use eve_isa::{Characterization, Interpreter};
use eve_mem::HierarchyConfig;
use eve_sim::fault::{campaign_jobs, CampaignJob, RecoveryPolicy};
use eve_sim::{
    CheckVerdict, FaultOutcome, FaultPlan, ResilienceReport, Runner, ShadowChecker, SystemKind,
};
use eve_sram::{DetectionMode, FaultConfig};
use eve_workloads::Workload;
use std::time::Instant;

/// Master seeds per pass: each is one default plan of 264 cells
/// (rates 0/1e-4/1e-3/1e-2 × parity/secded/secded_sparing × EVE-8/32 ×
/// the 11 tiny kernels). Two plans make a ~5 s pass, so four or five
/// passes fit in a run.
pub const PLANS: usize = 2;

/// What one cell produced, compared exactly between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOut {
    pub system: SystemKind,
    pub cycles: u64,
    pub wall_ps: u64,
    pub dyn_insts: u64,
    pub stats: Stats,
    pub breakdown: Option<StallBreakdown>,
    pub resilience: ResilienceReport,
}

/// A cell's result: finished, a typed simulation error, or a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Done(Box<FaultOut>),
    Error(String),
    Panic(String),
}

impl Cell {
    /// The simulated run aborted on a fault-corrupted address:
    /// `eve_isa::Memory` asserts on an out-of-bounds access instead of
    /// returning an `IsaError` (a typed error for the same access would
    /// be the same outcome). Like an SDC, this is an outcome of the
    /// injected faults, so the cell ran; any other panic or error is a
    /// failed cell.
    pub fn is_address_abort(&self) -> bool {
        match self {
            Cell::Panic(msg) | Cell::Error(msg) => msg.contains("out of bounds"),
            Cell::Done(_) => false,
        }
    }
}

pub struct Fault {
    plans: Vec<FaultPlan>,
    /// `(plan index, cell)` in `campaign_jobs` order, plan by plan.
    jobs: Vec<(usize, CampaignJob)>,
}

/// The plan's injector configuration for a cell, as `run_campaign_job`
/// chooses it.
fn fault_config(plan: &FaultPlan, job: &CampaignJob) -> FaultConfig {
    if job.rate == 0.0 {
        FaultConfig::none(job.seed)
    } else if plan.write_only {
        FaultConfig::write_transients(job.seed, job.rate)
    } else {
        FaultConfig::uniform(job.seed, job.rate)
    }
}

/// `run_campaign_job`'s simulation: `Runner::run_faulty_with` under the
/// plan's injector, recovery policy and detection mode.
pub fn run_job(plan: &FaultPlan, job: &CampaignJob) -> Cell {
    let result = catch_cell(|| {
        Runner::new().run_faulty_with(
            job.factor,
            &job.workload,
            fault_config(plan, job),
            job.mode.policy(plan.policy),
            job.mode.detection(),
        )
    });
    match result {
        Ok(Ok(r)) => match r.resilience {
            Some(resilience) => Cell::Done(Box::new(FaultOut {
                system: r.system,
                cycles: r.cycles.0,
                wall_ps: r.wall_ps.0,
                dyn_insts: r.dyn_insts,
                stats: r.stats,
                breakdown: r.breakdown,
                resilience,
            })),
            None => Cell::Error("faulty run produced no resilience report".into()),
        },
        Ok(Err(e)) => Cell::Error(e.to_string()),
        Err(panic) => Cell::Panic(panic),
    }
}

impl Bench for Fault {
    type Out = Cell;

    /// Derives `PLANS` master seeds from `seed` and expands each default
    /// plan into its cells; as a smoke test, every tiny kernel must run
    /// masked and verified under a fault-free checker at each factor.
    fn setup(_workload: &str, seed: u64) -> Result<Self, String> {
        let workloads = Workload::tiny_suite();
        let mut seeder = SplitMix64::new(seed);
        let plans: Vec<FaultPlan> = (0..PLANS)
            .map(|_| FaultPlan {
                seed: seeder.next_u64(),
                ..FaultPlan::default()
            })
            .collect();
        let mut jobs = Vec::new();
        for (p, plan) in plans.iter().enumerate() {
            jobs.extend(campaign_jobs(plan, &workloads).into_iter().map(|j| (p, j)));
        }
        let base = FaultPlan::default();
        for w in &workloads {
            for &factor in &base.factors {
                let r = Runner::new()
                    .run_faulty_with(
                        factor,
                        w,
                        FaultConfig::none(seed),
                        base.policy,
                        DetectionMode::Secded,
                    )
                    .map_err(|e| format!("{} on EVE-{factor}: {e}", w.name()))?;
                if r.resilience
                    .is_none_or(|res| res.outcome != FaultOutcome::Masked)
                {
                    return Err(format!("{} on EVE-{factor}: not masked", w.name()));
                }
            }
        }
        Ok(Self { plans, jobs })
    }

    fn cell_count(&self) -> usize {
        self.jobs.len()
    }

    fn run(&self, i: usize) -> Cell {
        let (p, job) = &self.jobs[i];
        run_job(&self.plans[*p], job)
    }

    fn run_traced(&self, i: usize, t: &mut Layers) -> Cell {
        let (p, job) = &self.jobs[i];
        let plan = &self.plans[*p];
        match catch_cell(|| traced_job(plan, job, t)) {
            Ok(Ok(out)) => Cell::Done(Box::new(out)),
            Ok(Err(e)) => Cell::Error(e),
            Err(panic) => Cell::Panic(panic),
        }
    }

    fn tally(&self, out: &Cell) -> Tally {
        match out {
            Cell::Done(o) => Tally {
                failed: false,
                insts: o.dyn_insts,
                reqs: 1,
            },
            Cell::Error(_) | Cell::Panic(_) => Tally {
                failed: !out.is_address_abort(),
                insts: 0,
                reqs: 1,
            },
        }
    }

    fn check(&self, outs: &[Cell]) -> Result<Modelled, String> {
        let mut finished = 0u64;
        let mut served_ok = 0u64;
        let mut sdc = 0u64;
        let mut avail = 0.0;
        let mut aborted = 0u64;
        let mut panics = 0u64;
        let mut errors = 0u64;
        for ((_, job), out) in self.jobs.iter().zip(outs) {
            let what = || {
                format!(
                    "{} {} EVE-{} at rate {}",
                    job.workload.name(),
                    job.mode.as_str(),
                    job.factor,
                    job.rate
                )
            };
            match out {
                Cell::Done(o) => {
                    let r = &o.resilience;
                    finished += 1;
                    avail += r.availability;
                    if r.outcome == FaultOutcome::SilentDataCorruption {
                        sdc += 1;
                    } else if r.verified {
                        served_ok += 1;
                    } else {
                        return Err(format!("{}: unverified without SDC", what()));
                    }
                    if job.rate == 0.0
                        && (r.outcome != FaultOutcome::Masked || r.fault_stats.total_events() > 0)
                    {
                        return Err(format!("{}: fault-free cell saw faults", what()));
                    }
                }
                Cell::Error(e) if e.starts_with("verification failed") => {
                    return Err(format!("{}: {e}", what()));
                }
                _ if out.is_address_abort() => {
                    if job.rate == 0.0 {
                        return Err(format!("{}: fault-free cell aborted", what()));
                    }
                    aborted += 1;
                }
                Cell::Error(e) => {
                    errors += 1;
                    eprintln!("fault_campaign: {}: {e}", what());
                }
                Cell::Panic(msg) => {
                    panics += 1;
                    eprintln!("fault_campaign: {}: unexpected panic: {msg}", what());
                }
            }
        }
        println!(
            "fault_campaign: {} cells over {} master seeds: {finished} finished, {sdc} SDC, \
             {aborted} aborted on a corrupted address, {panics} other panics, \
             {errors} simulation errors",
            outs.len(),
            self.plans.len()
        );
        if finished == 0 {
            return Err("no fault cell finished".into());
        }
        Ok(Modelled {
            fig6_gap_pct: crate::NO_FIG6_GAP,
            served_ok_share: served_ok as f64 / outs.len() as f64,
            fault_availability: avail / finished as f64,
            sdc_free_share: 1.0 - sdc as f64 / finished as f64,
        })
    }

    fn counts(&self, outs: &[Cell], t: &mut Layers) {
        for out in outs {
            let o = match out {
                Cell::Done(o) => o,
                Cell::Error(_) | Cell::Panic(_) => {
                    t.count(
                        if out.is_address_abort() {
                            "sim.aborted_cells"
                        } else {
                            "sim.failed_cells"
                        },
                        1,
                    );
                    continue;
                }
            };
            let r = &o.resilience;
            t.count("sim.cycles", o.cycles);
            count_stats(&o.stats, o.breakdown.as_ref(), t);
            t.count("sram.fault_events", r.fault_stats.total_events());
            t.count("sram.corrected", r.corrected);
            t.count("sim.retries", r.retries);
            t.count("sim.remapped_rows", r.remapped_rows);
            t.count("sim.ways_disabled", r.ways_disabled);
            t.count(
                match r.outcome {
                    FaultOutcome::Masked => "sim.masked_cells",
                    FaultOutcome::DetectedCorrected => "sim.corrected_cells",
                    FaultOutcome::DetectedDegraded => "sim.degraded_cells",
                    FaultOutcome::SilentDataCorruption => "sim.sdc_cells",
                },
                1,
            );
        }
    }
}

/// `run_faulty_with` re-driven from `ShadowChecker::with_mode`,
/// `prepare`, `check` and `take_charges` and `EveEngine::charge_*`, with
/// a clock around every call (a check costs tens of microseconds).
pub fn traced_job(plan: &FaultPlan, job: &CampaignJob, t: &mut Layers) -> Result<FaultOut, String> {
    let n = job.factor;
    let mode = job.mode.detection();
    let policy: RecoveryPolicy = job.mode.policy(plan.policy);
    let mem_cfg = HierarchyConfig::table_iii();
    let built = t.time("workloads.build", || job.workload.build());
    let mut engine = EveEngine::new(n).map_err(|e| format!("bad configuration: {e}"))?;
    engine.enable_resilience(match mode {
        DetectionMode::Parity => ResilienceConfig::default(),
        DetectionMode::Secded => ResilienceConfig::secded(),
    });
    let mut core = O3Core::with_unit(Timed::new(engine), mem_cfg);
    let mut checker = ShadowChecker::with_mode(n, fault_config(plan, job), policy, mode)
        .map_err(|e| format!("bad configuration: {e}"))?;
    let mut interp = Interpreter::new(built.vector.clone(), built.memory.clone(), core.hw_vl());
    let mut chars = Characterization::new();
    let mut degraded = false;
    let mut steps = 0u64;
    let mut checks = 0u64;
    loop {
        let prepared = t.time("sim.prepare", || checker.prepare(&interp));
        let step = t.time("isa.step", || interp.step());
        let Some(r) = step.map_err(|e| format!("isa error: {e}"))? else {
            break;
        };
        steps += 1;
        t.time("isa.record", || chars.record(&r));
        let unit0 = core.vector_unit().ns;
        let t0 = Instant::now();
        let retired = core.retire(&r);
        t.add_ns(
            "cpu.retire",
            elapsed_ns(t0).saturating_sub(core.vector_unit().ns - unit0),
        );
        retired.map_err(|e| format!("engine error: {e}"))?;
        if let Some(p) = prepared {
            checks += 1;
            let verdict = t.time("sim.check", || checker.check(&p, &mut interp));
            let (corrections, remaps) = t.time("sim.check", || checker.take_charges());
            t.time("core.issue", || {
                let engine = &mut core.vector_unit_mut().inner;
                engine.charge_ecc_corrections(corrections);
                engine.charge_remaps(remaps);
            });
            if verdict == CheckVerdict::Degrade {
                degraded = true;
                break;
            }
        }
    }
    t.count("isa.insts", steps);
    t.count("cpu.insts", steps);
    t.count("sim.checks", checks);
    let report = |checker: &ShadowChecker, outcome, availability, verified, degraded_from| {
        ResilienceReport {
            outcome,
            checked_ops: checker.checked_ops,
            parity_alarms: checker.parity_alarms,
            corrected: checker.corrected,
            retries: checker.retries,
            remapped_rows: checker.remapped_rows,
            ways_disabled: checker.ways_disabled,
            scrubs: checker.scrubs,
            scrub_corrected: checker.scrub_corrected,
            corrupted_lanes: checker.corrupted_lanes,
            stages: checker.stages,
            availability,
            fault_stats: checker.fault_stats(),
            verified,
            degraded_from,
        }
    };

    if degraded {
        // The library counts the remaining checkable work functionally,
        // returns the ways, and reruns the kernel on O3+DV.
        let mut fallback_ops = 0u64;
        loop {
            let checkable = t.time("sim.prepare", || checker.prepare(&interp).is_some());
            let step = t.time("isa.step", || interp.step());
            if step.map_err(|e| format!("isa error: {e}"))?.is_none() {
                break;
            }
            t.count("isa.insts", 1);
            if checkable {
                fallback_ops += 1;
            }
        }
        let unit0 = core.vector_unit().ns;
        let t0 = Instant::now();
        let now = core.finish();
        core.hierarchy_mut().despawn_vector_mode(now);
        t.add_ns(
            "cpu.retire",
            elapsed_ns(t0).saturating_sub(core.vector_unit().ns - unit0),
        );
        t.add_ns("core.issue", core.vector_unit().ns);
        t.count("core.insts", core.vector_unit().issues);
        let fallback = traced_cell(SystemKind::O3Dv, &job.workload, t)?;
        return Ok(FaultOut {
            system: SystemKind::O3Dv,
            cycles: fallback.cycles,
            wall_ps: fallback.wall_ps,
            dyn_insts: fallback.dyn_insts,
            stats: fallback.stats,
            breakdown: fallback.breakdown,
            resilience: report(
                &checker,
                FaultOutcome::DetectedDegraded,
                availability(&checker, fallback_ops),
                true,
                Some(SystemKind::EveN(n)),
            ),
        });
    }

    let unit0 = core.vector_unit().ns;
    let t0 = Instant::now();
    let cycles = core.finish();
    t.add_ns(
        "cpu.retire",
        elapsed_ns(t0).saturating_sub(core.vector_unit().ns - unit0),
    );
    t.add_ns("core.issue", core.vector_unit().ns);
    t.count("core.insts", core.vector_unit().issues);
    let verified = t.time("workloads.verify", || built.verify(interp.memory()).is_ok());
    if !verified && checker.corrupted_lanes == 0 {
        return Err("verification failed: outputs diverged without any injected corruption".into());
    }
    let outcome = if checker.corrupted_lanes > 0 {
        FaultOutcome::SilentDataCorruption
    } else if checker.parity_alarms > 0 || checker.corrected > 0 {
        FaultOutcome::DetectedCorrected
    } else {
        FaultOutcome::Masked
    };
    let system = SystemKind::EveN(n);
    Ok(FaultOut {
        system,
        cycles: cycles.0,
        wall_ps: cycles.to_picos(system.cycle_time()).0,
        dyn_insts: interp.retired_count(),
        stats: core.stats(),
        breakdown: Some(*core.vector_unit().inner.breakdown()),
        resilience: report(&checker, outcome, availability(&checker, 0), verified, None),
    })
}

/// The library's availability: engine slots that served in EVE mode over
/// all slots, retries and fallback-served ops included.
fn availability(checker: &ShadowChecker, fallback_ops: u64) -> f64 {
    let served = checker.checked_ops - checker.stages.degraded;
    let slots = checker.checked_ops + checker.retries + fallback_ops;
    if slots == 0 {
        1.0
    } else {
        served as f64 / slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_common::json::JsonValue;
    use eve_sim::fault::run_campaign_job;

    /// On a small plan that degrades, corrects, corrupts and aborts on a
    /// corrupted address, the untraced cell agrees with
    /// `run_campaign_job` and the traced twin reproduces it exactly.
    #[test]
    fn traced_jobs_match_run_campaign_job() {
        crate::host::quiet_cell_panics();
        let plan = FaultPlan {
            rates: vec![0.0, 1e-2],
            ..FaultPlan::default()
        };
        let workloads: Vec<Workload> = ["vvadd", "mmult", "spmv"]
            .iter()
            .map(|n| Workload::tiny_by_name(n).unwrap())
            .collect();
        let mut outcomes = std::collections::BTreeSet::new();
        for job in campaign_jobs(&plan, &workloads) {
            let untraced = run_job(&plan, &job);
            let mut t = Layers::default();
            let traced = match catch_cell(|| traced_job(&plan, &job, &mut t)) {
                Ok(Ok(o)) => Cell::Done(Box::new(o)),
                Ok(Err(e)) => Cell::Error(e),
                Err(p) => Cell::Panic(p),
            };
            assert_eq!(traced, untraced);
            let library = catch_cell(|| run_campaign_job(&plan, &job));
            match (&untraced, library) {
                (Cell::Done(o), Ok(Ok(run))) => {
                    outcomes.insert(o.resilience.outcome.as_str());
                    assert_eq!(o.resilience.outcome, run.outcome);
                    assert_eq!(o.resilience.availability, run.availability);
                    let field = |k: &str| match &run.row {
                        JsonValue::Object(fields) => {
                            fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
                        }
                        _ => None,
                    };
                    assert_eq!(field("cycles"), Some(JsonValue::UInt(o.cycles)));
                    assert_eq!(
                        field("retries"),
                        Some(JsonValue::UInt(o.resilience.retries))
                    );
                }
                (Cell::Panic(msg), Err(_)) => {
                    assert!(untraced.is_address_abort(), "unexpected panic: {msg}");
                    outcomes.insert("abort");
                }
                (u, l) => panic!("untraced {u:?} but the library gave {l:?}"),
            }
        }
        assert!(outcomes.len() >= 3, "plan too tame: {outcomes:?}");
    }
}
