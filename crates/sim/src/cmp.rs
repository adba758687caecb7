//! Chip-multiprocessor simulation: several cores, each with private
//! L1s/L2 (and optionally a private ephemeral engine), sharing one LLC
//! and memory channel.
//!
//! The paper frames EVE inside a CMP — "each core in a CMP can
//! dynamically create an ephemeral private vector engine" (§I) — but
//! evaluates a single core. This module quantifies the missing piece:
//! how private engines interact through the *shared* memory system.
//! Cores run disjoint copies of a workload laid out in disjoint
//! address regions; contention appears only where it physically lives,
//! in the LLC's banks/MSHRs and the DRAM channel.

use crate::report::RunReport;
use crate::runner::{with_core, CoreRun, Runner, SimError, TimingCore, WithCore};
use crate::system::SystemKind;
use eve_common::Cycle;
use eve_mem::{Hierarchy, HierarchyConfig, SharedLlc};
use eve_workloads::{Built, Workload};

/// Address spacing between cores' data regions (32 MB). A workload
/// whose image reaches past its region is rejected, since it would
/// share lines with the next core's.
const CORE_STRIDE: u64 = 0x200_0000;

/// Result of a CMP run.
#[derive(Debug, Clone)]
pub struct CmpReport {
    /// Core count.
    pub cores: usize,
    /// Per-core reports (shared-LLC/DRAM stats appear in each core's
    /// roll-up; read them once).
    pub per_core: Vec<RunReport>,
    /// When the last core finished.
    pub finish: Cycle,
}

impl CmpReport {
    /// The slowest core's wall time — the CMP's completion time.
    #[must_use]
    pub fn worst_wall_ps(&self) -> u64 {
        self.per_core.iter().map(|r| r.wall_ps.0).max().unwrap_or(0)
    }
}

/// One core of the CMP mid-simulation, whatever its timing model.
trait Interleaved {
    /// Executes one instruction; `false` once halted.
    fn step(&mut self) -> Result<bool, SimError>;
    /// Drains the core, verifies its outputs, and reports it.
    fn finish(self: Box<Self>, runner: &Runner) -> Result<RunReport, SimError>;
}

impl<C: TimingCore> Interleaved for CoreRun<C> {
    fn step(&mut self) -> Result<bool, SimError> {
        CoreRun::step(self)
    }

    fn finish(self: Box<Self>, runner: &Runner) -> Result<RunReport, SimError> {
        CoreRun::finish(*self, runner)
    }
}

/// Starts one CMP core on whichever timing model [`with_core`] builds.
struct Boxed<'a> {
    runner: &'a Runner,
    system: SystemKind,
    built: Built,
}

impl WithCore for Boxed<'_> {
    type Out = Box<dyn Interleaved>;

    fn with<C: TimingCore + 'static>(self, core: C) -> Result<Self::Out, SimError> {
        Ok(Box::new(self.runner.start(self.system, self.built, core)))
    }
}

/// Runs `cores` copies of `workload` — one per core, in disjoint
/// address regions — on `system`-type cores sharing one LLC and DRAM.
///
/// # Errors
///
/// Propagates simulation and verification failures; rejects a zero
/// core count, an invalid EVE factor, or a workload whose image does
/// not fit its core's region as [`SimError::Config`].
pub fn run_cmp(
    system: SystemKind,
    workload: &Workload,
    cores: usize,
) -> Result<CmpReport, SimError> {
    if cores == 0 {
        return Err(SimError::Config("a CMP needs at least one core".into()));
    }
    let runner = Runner::new();
    let cfg = HierarchyConfig::table_iii();
    let shared = SharedLlc::new(cfg.llc.clone(), cfg.dram);
    let mut drivers = Vec::with_capacity(cores);
    for c in 0..cores {
        let base = eve_workloads::common::DATA_BASE + c as u64 * CORE_STRIDE;
        let built = workload.build_at(base);
        let end = built.memory.size() as u64;
        if end > base + CORE_STRIDE {
            return Err(SimError::Config(format!(
                "{}: core {c}'s image ends at {end:#x}, past its CMP region \
                 {base:#x}..{:#x}",
                workload.name(),
                base + CORE_STRIDE
            )));
        }
        let hier = Hierarchy::with_shared(cfg.clone(), shared.clone());
        drivers.push(with_core(
            system,
            hier,
            Boxed {
                runner: &runner,
                system,
                built,
            },
        )?);
    }

    // Interleave cores round-robin, one instruction at a time, so
    // their accesses hit the shared LLC in roughly chronological
    // order.
    let mut live = cores;
    let mut running = vec![true; cores];
    while live > 0 {
        for (c, driver) in drivers.iter_mut().enumerate() {
            if running[c] && !driver.step()? {
                running[c] = false;
                live -= 1;
            }
        }
    }

    let per_core: Vec<RunReport> = drivers
        .into_iter()
        .map(|d| d.finish(&runner))
        .collect::<Result<_, _>>()?;
    let finish = per_core
        .iter()
        .map(|r| r.cycles)
        .max()
        .unwrap_or(Cycle::ZERO);
    Ok(CmpReport {
        cores,
        per_core,
        finish,
    })
}

/// Measures how much `system` cores slow each other down through the
/// shared LLC/DRAM: entry `k-1` is the completion-time multiplier of a
/// `k`-core CMP run over a solo run (`entry[0] == 1.0`). The serving
/// layer (`eve-serve`) uses this to scale per-request service times by
/// the number of concurrently busy pool engines instead of pretending
/// engines are independent.
///
/// # Errors
///
/// Propagates simulation failures; rejects `max_cores == 0` as
/// [`SimError::Config`]; returns [`SimError::Report`] if the solo run
/// finishes in zero cycles (nothing to normalize against).
pub fn contention_profile(
    system: SystemKind,
    workload: &Workload,
    max_cores: usize,
) -> Result<Vec<f64>, SimError> {
    if max_cores == 0 {
        return Err(SimError::Config(
            "a contention profile needs at least one core".into(),
        ));
    }
    let solo = run_cmp(system, workload, 1)?.finish.0;
    if solo == 0 {
        return Err(SimError::Report(format!(
            "solo {system} run of {} finished in zero cycles",
            workload.name()
        )));
    }
    let mut out = vec![1.0];
    for k in 2..=max_cores {
        let finish = run_cmp(system, workload, k)?.finish.0;
        // Contention can only slow cores down; clamp measurement noise.
        out.push((finish as f64 / solo as f64).max(1.0));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cores_rejected() {
        let err = run_cmp(SystemKind::EveN(8), &Workload::vvadd(64), 0).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    /// A one-core CMP is the single-core run: every report byte of
    /// every system on every tiny kernel matches [`Runner::run`]'s.
    #[test]
    fn single_core_cmp_matches_single_core_runner() {
        let runner = Runner::new();
        for w in Workload::tiny_suite() {
            for sys in SystemKind::all() {
                let cmp = run_cmp(sys, &w, 1).unwrap();
                let solo = runner.run(sys, &w).unwrap();
                assert_eq!(
                    cmp.per_core[0].to_json().to_compact(),
                    solo.to_json().to_compact(),
                    "{sys} on {}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn a_workload_larger_than_its_region_is_rejected() {
        // Three 12 MiB arrays: core 0's copy would run into core 1's
        // region and share its lines in the LLC.
        let err = run_cmp(SystemKind::O3, &Workload::Vvadd { n: 3 << 20 }, 2).unwrap_err();
        match err {
            SimError::Config(msg) => assert!(msg.starts_with("vvadd: core 0"), "{msg}"),
            other => panic!("expected a config error, got {other}"),
        }
    }

    #[test]
    fn contention_slows_cores_down() {
        // A memory-bound kernel on 4 engines sharing one DRAM channel:
        // the slowest core must be clearly slower than a solo run.
        let w = Workload::vvadd(8192);
        let solo = run_cmp(SystemKind::EveN(8), &w, 1).unwrap();
        let quad = run_cmp(SystemKind::EveN(8), &w, 4).unwrap();
        let slowdown = quad.finish.0 as f64 / solo.finish.0 as f64;
        assert!(
            slowdown > 1.5,
            "expected DRAM contention, got {slowdown:.2}x"
        );
        // And every core still verified its golden outputs (finish()
        // would have errored otherwise).
        assert_eq!(quad.per_core.len(), 4);
    }

    #[test]
    fn compute_bound_kernels_scale_cleanly() {
        let w = Workload::Mmult { n: 16 };
        let solo = run_cmp(SystemKind::EveN(8), &w, 1).unwrap();
        let quad = run_cmp(SystemKind::EveN(8), &w, 4).unwrap();
        let slowdown = quad.finish.0 as f64 / solo.finish.0 as f64;
        assert!(
            slowdown < 1.3,
            "compute-bound work should barely contend: {slowdown:.2}x"
        );
    }

    #[test]
    fn contention_profile_is_monotonic_enough() {
        let p = contention_profile(SystemKind::EveN(8), &Workload::vvadd(4096), 2).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p[1] >= 1.0, "a second core cannot speed the first up");
        assert!(matches!(
            contention_profile(SystemKind::EveN(8), &Workload::vvadd(64), 0),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn scalar_cmp_runs() {
        let cmp = run_cmp(SystemKind::O3, &Workload::vvadd(512), 2).unwrap();
        assert_eq!(cmp.cores, 2);
        assert!(cmp.per_core.iter().all(|r| r.cycles.0 > 0));
    }
}
