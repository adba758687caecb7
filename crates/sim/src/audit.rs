//! The stall-attribution auditor.
//!
//! Replays a traced run's event stream against its [`RunReport`] and
//! asserts the accounting identity the Fig 7 breakdown rests on: every
//! engine cycle is attributed to exactly one bucket, so
//!
//! ```text
//! breakdown.total() + spawn_cycles == vsu.end_cycles <= report.cycles
//! ```
//!
//! and, when the run was traced, the `vsu` track's spans tile
//! `[spawn_start, vsu_end)` contiguously with per-category sums that
//! re-derive the breakdown. Generic trace invariants (bounds,
//! monotonicity, lossless buffer) come from [`eve_obs::audit`].

use crate::report::RunReport;
use eve_obs::audit::{check_bounds, check_monotonic, tile_track, AuditError, TrackTiling};
use eve_obs::Tracer;
use std::fmt;

/// Tracks whose emitters stamp events in nondecreasing cycle order.
///
/// Deliberately excluded: `mem` (scalar accesses are stamped at
/// out-of-order execute time) and `vsu_extra` (extra exec pipes start
/// μprograms behind the main timeline). The `serve` track belongs to
/// the `eve-serve` discrete-event layer, whose event loop processes
/// strictly in clock order.
pub const ORDERED_TRACKS: [&str; 15] = [
    "vsu", "vmu", "o3", "io", "dv", "vru", "serve", "dtu0", "dtu1", "dtu2", "dtu3", "dtu4", "dtu5",
    "dtu6", "dtu7",
];

/// Why an audit rejected a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditFailure {
    /// A generic trace invariant failed (lossy buffer, time running
    /// backwards, events past the run end, a gap or overlap on the
    /// attributed timeline).
    Trace(AuditError),
    /// The attribution identity itself failed: the breakdown, the
    /// engine timeline, and the replayed spans disagree.
    Identity {
        /// What disagreed, with the numbers.
        message: String,
    },
}

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Trace(e) => write!(f, "trace invariant: {e}"),
            Self::Identity { message } => write!(f, "attribution identity: {message}"),
        }
    }
}

impl std::error::Error for AuditFailure {}

impl From<AuditError> for AuditFailure {
    fn from(e: AuditError) -> Self {
        Self::Trace(e)
    }
}

/// What a passing audit established.
#[derive(Debug, Clone, Default)]
pub struct AuditSummary {
    /// Events replayed.
    pub events: usize,
    /// The tiled `vsu` timeline; all-zero when no tracer was attached
    /// to the run or the system has no engine.
    pub vsu: TrackTiling,
    /// Cycles between spawn commit and reconfiguration completing.
    pub spawn_cycles: u64,
    /// Whether the span-level re-derivation of the breakdown ran (it
    /// needs a traced single-pipe engine run).
    pub tiled: bool,
}

fn identity(message: String) -> AuditFailure {
    AuditFailure::Identity { message }
}

/// Replays `tracer`'s event stream against `report`.
///
/// Always checks: the buffer dropped nothing, no event outruns
/// `report.cycles`, every [`ORDERED_TRACKS`] track is monotone, and —
/// for engine runs — the stats-level identity
/// `breakdown.total() + spawn_cycles == vsu.end_cycles <= cycles`.
///
/// When the run was traced (spans present) on a single-pipe engine, it
/// additionally tiles the `vsu` track and requires the per-category
/// durations to reproduce every breakdown bucket exactly.
///
/// # Errors
///
/// Returns the first violated invariant as an [`AuditFailure`].
pub fn audit_run(tracer: &Tracer, report: &RunReport) -> Result<AuditSummary, AuditFailure> {
    let dropped = tracer.dropped();
    if dropped > 0 {
        return Err(AuditError::DroppedEvents { dropped }.into());
    }
    let (events, vsu) = tracer.with_events(|events| {
        check_bounds(events, report.cycles.0)?;
        for track in ORDERED_TRACKS {
            check_monotonic(events, track)?;
        }
        Ok::<_, AuditError>((events.len(), tile_track(events, "vsu")?))
    })?;
    let spawn_cycles = report.stats.get("spawn_cycles");
    let mut tiled = false;

    if let Some(b) = &report.breakdown {
        let vsu_end = report.stats.get("vsu.end_cycles");
        // The attributed timeline opens when the first vector
        // instruction commits and the engine spawns.
        let vsu_start = report.stats.get("spawn_commit_cycle");
        let attributed = vsu_start + spawn_cycles + b.total().0;
        if attributed != vsu_end {
            return Err(identity(format!(
                "start + spawn + breakdown.total() = \
                 {vsu_start} + {spawn_cycles} + {} = {attributed}, \
                 but the engine timeline ends at {vsu_end}",
                b.total().0
            )));
        }
        if vsu_end > report.cycles.0 {
            return Err(identity(format!(
                "engine timeline ends at {vsu_end}, past run end {}",
                report.cycles.0
            )));
        }
        // Span-level re-derivation. Extra exec pipes overlap μprograms
        // with the main timeline, so only the 1-pipe engine tiles; a
        // run without the tracer attached has no spans to replay.
        if report.stats.get("exec_pipes") <= 1 && vsu.spans > 0 {
            tiled = true;
            if vsu.start != vsu_start {
                return Err(identity(format!(
                    "replayed vsu spans start at {}, spawn committed at {vsu_start}",
                    vsu.start
                )));
            }
            if vsu.end != vsu_end {
                return Err(identity(format!(
                    "replayed vsu spans end at {}, stats say {vsu_end}",
                    vsu.end
                )));
            }
            if vsu.cat("spawn") != spawn_cycles {
                return Err(identity(format!(
                    "replayed spawn span is {} cycles, stats say {spawn_cycles}",
                    vsu.cat("spawn")
                )));
            }
            for (bucket, cycles) in b.entries() {
                if vsu.cat(bucket) != cycles.0 {
                    return Err(identity(format!(
                        "bucket {bucket}: replayed spans sum to {}, breakdown says {}",
                        vsu.cat(bucket),
                        cycles.0
                    )));
                }
            }
        }
    }

    Ok(AuditSummary {
        events,
        vsu,
        spawn_cycles,
        tiled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use crate::system::SystemKind;
    use eve_workloads::Workload;

    fn traced(system: SystemKind) -> (Tracer, RunReport) {
        let tracer = Tracer::new();
        let report = Runner::with_tracer(&tracer)
            .run(system, &Workload::vvadd(512))
            .unwrap();
        (tracer, report)
    }

    #[test]
    fn eve_run_passes_the_audit() {
        let (tracer, report) = traced(SystemKind::EveN(8));
        let s = audit_run(&tracer, &report).unwrap();
        assert!(s.tiled);
        assert!(s.events > 0);
        assert_eq!(s.vsu.total(), s.vsu.end - s.vsu.start);
    }

    #[test]
    fn scalar_runs_pass_trivially() {
        for sys in [SystemKind::Io, SystemKind::O3, SystemKind::O3Dv] {
            let (tracer, report) = traced(sys);
            let s = audit_run(&tracer, &report).unwrap();
            assert!(!s.tiled, "{sys} has no engine timeline");
        }
    }

    #[test]
    fn a_traced_secded_run_passes_with_resilience_buckets_populated() {
        use crate::fault::RecoveryPolicy;
        use eve_sram::{DetectionMode, Fault, FaultConfig};

        let tracer = Tracer::new();
        let runner = Runner::with_tracer(&tracer);
        // Long enough that the engine timeline crosses the SECDED scrub
        // interval, with a statistical transient population plus a
        // stuck source cell: EVE-8 maps element bit 30 of v1 to row 7
        // (v1's segment 3), bit 6, and vvadd sources are < 2^20, so
        // stuck-at-one there perturbs every operand write and gets the
        // row remapped.
        let mut cfg = FaultConfig::write_transients(3, 2e-3);
        cfg.scripted.push(Fault::stuck_at(7, 0, 6, true));
        let policy = RecoveryPolicy {
            remap_threshold: 1,
            ..RecoveryPolicy::sparing()
        };
        let report = runner
            .run_faulty_with(
                8,
                &Workload::vvadd(8192),
                cfg,
                policy,
                DetectionMode::Secded,
            )
            .unwrap();
        let b = report.breakdown.as_ref().expect("EVE breakdown");
        assert!(b.ecc_correct_stall.0 > 0, "corrections must be charged");
        assert!(b.remap_stall.0 > 0, "the remap must be charged");
        assert!(b.scrub_stall.0 > 0, "background sweeps must be charged");
        let s = audit_run(&tracer, &report).unwrap();
        assert!(s.tiled);
    }

    /// A traced fault run that stays on the engine reports the
    /// tracer's counters, as every other traced run does.
    #[test]
    fn a_traced_fault_run_reports_its_counters() {
        use crate::fault::RecoveryPolicy;
        use eve_sram::FaultConfig;

        let tracer = Tracer::new();
        let report = Runner::with_tracer(&tracer)
            .run_faulty(
                8,
                &Workload::vvadd(512),
                FaultConfig::none(7),
                RecoveryPolicy::default(),
            )
            .unwrap();
        assert!(audit_run(&tracer, &report).unwrap().tiled);
        let counters = report.counters.expect("a traced run reports counters");
        assert!(!counters.is_empty());
        assert_eq!(counters, tracer.registry());
    }

    /// A degraded run reports the O3+DV rerun, so its trace and
    /// counters must be that rerun's alone: not the abandoned EVE
    /// attempt's followed by a rerun that starts again at cycle 0.
    #[test]
    fn a_degraded_traced_run_traces_only_its_fallback() {
        use crate::fault::{FaultOutcome, RecoveryPolicy};
        use eve_sram::{Fault, FaultConfig};

        let mut cfg = FaultConfig::none(7);
        cfg.scripted.push(Fault::stuck_at(1, 0, 5, true));
        let tracer = Tracer::new();
        let report = Runner::with_tracer(&tracer)
            .run_faulty(32, &Workload::vvadd(512), cfg, RecoveryPolicy::default())
            .unwrap();
        let resilience = report.resilience.as_ref().expect("resilience verdict");
        assert_eq!(resilience.outcome, FaultOutcome::DetectedDegraded);
        assert_eq!(report.system, SystemKind::O3Dv);
        audit_run(&tracer, &report).unwrap();

        let (rerun_tracer, rerun) = traced(SystemKind::O3Dv);
        assert_eq!(tracer.events(), rerun_tracer.events());
        assert!(rerun.counters.is_some());
        assert_eq!(report.counters, rerun.counters);
    }

    /// Shifts a stats counter by `by`.
    fn bump(r: &mut RunReport, key: &str, by: i64) {
        let v = r.stats.get(key);
        r.stats
            .set(key, v.checked_add_signed(by).expect("no underflow"));
    }

    /// The engine's stall breakdown, for cooking.
    fn breakdown(r: &mut RunReport) -> &mut eve_core::StallBreakdown {
        r.breakdown.as_mut().expect("EVE run has a breakdown")
    }

    /// Each row cooks a traced EVE-8 vvadd report and names the check
    /// that must reject it. The last four keep the stats identity
    /// balanced, so only the span re-derivation sees them.
    #[test]
    fn a_cooked_timeline_fails_the_identity() {
        type Cook = fn(&mut RunReport);
        let rows: [(&str, Cook, &str); 6] = [
            (
                "vsu.end_cycles + 1",
                |r| bump(r, "vsu.end_cycles", 1),
                "start + spawn + breakdown.total()",
            ),
            (
                "cycles below the timeline end",
                |r| r.cycles.0 = r.stats.get("vsu.end_cycles") - 1,
                "past run end",
            ),
            (
                "one busy cycle moved to dep_stall",
                |r| {
                    breakdown(r).busy.0 -= 1;
                    breakdown(r).dep_stall.0 += 1;
                },
                "bucket busy",
            ),
            (
                "spawn_commit_cycle and vsu.end_cycles + 1",
                |r| {
                    bump(r, "spawn_commit_cycle", 1);
                    bump(r, "vsu.end_cycles", 1);
                },
                "replayed vsu spans start at",
            ),
            (
                "vsu.end_cycles and busy + 1",
                |r| {
                    bump(r, "vsu.end_cycles", 1);
                    breakdown(r).busy.0 += 1;
                },
                "replayed vsu spans end at",
            ),
            (
                "spawn_cycles + 1, busy - 1",
                |r| {
                    bump(r, "spawn_cycles", 1);
                    breakdown(r).busy.0 -= 1;
                },
                "replayed spawn span",
            ),
        ];
        let (tracer, report) = traced(SystemKind::EveN(8));
        for (what, cook, check) in rows {
            let mut cooked = report.clone();
            cook(&mut cooked);
            let err = audit_run(&tracer, &cooked).expect_err(what);
            assert!(err.to_string().contains(check), "{what}: {err}");
        }
    }

    #[test]
    fn failures_render() {
        let e = AuditFailure::from(AuditError::DroppedEvents { dropped: 3 });
        assert!(e.to_string().contains("dropped 3"));
    }
}
