//! Engine health signals: the bridge from the `eve-sim` escalation
//! ladder to the serving layer's circuit breakers.
//!
//! PR 4's `ShadowChecker` climbs correct → retry → remap → way-disable
//! → degrade. Each rung the ladder visits is evidence about the
//! underlying silicon, and the serving layer wants that evidence
//! *before* requests start failing: a remap-exhausted engine is one
//! persistent error away from degradation, and a degraded engine is
//! already serving from the O3+DV fallback. [`signals`] flattens an
//! [`EngineHealth`] snapshot into discrete [`HealthSignal`]s, and
//! [`apply_signal`] feeds one into a breaker.

use crate::breaker::CircuitBreaker;
use crate::cluster::ServeError;
use eve_sim::EngineHealth;

/// One discrete health observation about an engine, ordered roughly
/// benign → terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthSignal {
    /// SECDED corrected errors in place — informational only.
    Corrected,
    /// Bounded re-execution was needed.
    Retried,
    /// Rows were retired to spares.
    Remapped,
    /// The spare-row budget is spent.
    RemapExhausted,
    /// The engine rebuilt itself on fresh physical ways.
    WayDisabled,
    /// The engine fell off the ladder into O3+DV degradation.
    Degraded,
}

impl HealthSignal {
    /// Stable string form for reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthSignal::Corrected => "corrected",
            HealthSignal::Retried => "retried",
            HealthSignal::Remapped => "remapped",
            HealthSignal::RemapExhausted => "remap_exhausted",
            HealthSignal::WayDisabled => "way_disabled",
            HealthSignal::Degraded => "degraded",
        }
    }
}

/// Flattens a ladder snapshot into the signals it implies, worst last.
#[must_use]
pub fn signals(h: &EngineHealth) -> Vec<HealthSignal> {
    let mut out = Vec::new();
    if h.corrected > 0 {
        out.push(HealthSignal::Corrected);
    }
    if h.stages.retried > 0 {
        out.push(HealthSignal::Retried);
    }
    if h.remapped_rows > 0 {
        out.push(HealthSignal::Remapped);
    }
    if h.remap_exhausted && h.remapped_rows > 0 {
        out.push(HealthSignal::RemapExhausted);
    }
    if h.ways_disabled > 0 {
        out.push(HealthSignal::WayDisabled);
    }
    if h.degraded {
        out.push(HealthSignal::Degraded);
    }
    out
}

/// Feeds one signal into an engine's breaker at simulated time `now`.
///
/// Corrections, retries, and in-budget remaps are the ladder working
/// as designed — they never touch the breaker. A way disable or an
/// exhausted remap budget counts as a failure (the engine is running
/// out of margins), and a degradation trips the breaker outright: the
/// engine has already stopped serving in EVE mode.
pub fn apply_signal(breaker: &mut CircuitBreaker, signal: HealthSignal, now: u64) {
    match signal {
        HealthSignal::Corrected | HealthSignal::Retried | HealthSignal::Remapped => {}
        HealthSignal::RemapExhausted | HealthSignal::WayDisabled => breaker.on_failure(now),
        HealthSignal::Degraded => breaker.force_open(now),
    }
}

/// Extracts the engine-health snapshot from an `eve-sim` run report
/// with a typed error instead of an `expect` chain: only faulty runs
/// carry a resilience section, and a caller wiring reports into
/// breakers should handle the fault-free case as data, not a panic.
///
/// # Errors
///
/// Returns [`ServeError::Report`] when the report has no resilience
/// section.
pub fn engine_health(report: &eve_sim::RunReport) -> Result<EngineHealth, ServeError> {
    report
        .resilience
        .as_ref()
        .map(eve_sim::ResilienceReport::health)
        .ok_or_else(|| {
            ServeError::Report(format!(
                "run report for {} carries no resilience section (not a faulty run)",
                report.workload
            ))
        })
}

/// Whether an engine slot is a sane spawn target for the elastic
/// controller at `now`: not currently faulty, and its breaker is not
/// open (an open breaker is accumulated evidence the silicon under
/// that slot is bad — donating L2 ways to it would pay the flush cost
/// just to roll the spawn back).
pub fn spawn_target_ok(breaker: &mut CircuitBreaker, faulty: bool, now: u64) -> bool {
    !faulty && breaker.state_at(now) != crate::breaker::BreakerState::Open
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerPolicy, BreakerState};
    use eve_sim::EngineHealth;

    fn healthy() -> EngineHealth {
        EngineHealth::default()
    }

    #[test]
    fn a_clean_engine_emits_nothing() {
        assert!(signals(&healthy()).is_empty());
    }

    #[test]
    fn degradation_is_worst_and_last() {
        let mut h = healthy();
        h.corrected = 3;
        h.remapped_rows = 1;
        h.degraded = true;
        let s = signals(&h);
        assert_eq!(s.last(), Some(&HealthSignal::Degraded));
        assert!(s.contains(&HealthSignal::Corrected));
        assert!(s.contains(&HealthSignal::Remapped));
    }

    #[test]
    fn benign_signals_leave_the_breaker_closed() {
        let mut b = CircuitBreaker::new(BreakerPolicy::default());
        for s in [
            HealthSignal::Corrected,
            HealthSignal::Retried,
            HealthSignal::Remapped,
        ] {
            apply_signal(&mut b, s, 0);
        }
        assert_eq!(b.state_at(0), BreakerState::Closed);
    }

    #[test]
    fn a_degradation_trips_the_breaker() {
        let mut b = CircuitBreaker::new(BreakerPolicy::default());
        apply_signal(&mut b, HealthSignal::Degraded, 5);
        assert_eq!(b.state_at(5), BreakerState::Open);
    }

    #[test]
    fn margin_loss_counts_as_failures() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            ..BreakerPolicy::default()
        });
        apply_signal(&mut b, HealthSignal::WayDisabled, 0);
        assert_eq!(b.state_at(0), BreakerState::Closed);
        apply_signal(&mut b, HealthSignal::RemapExhausted, 1);
        assert_eq!(b.state_at(1), BreakerState::Open);
    }

    #[test]
    fn spawn_targets_need_health_and_a_quiet_breaker() {
        let mut b = CircuitBreaker::new(BreakerPolicy::default());
        assert!(spawn_target_ok(&mut b, false, 0));
        assert!(!spawn_target_ok(&mut b, true, 0), "faulty slot");
        b.force_open(0);
        assert!(!spawn_target_ok(&mut b, false, 1), "open breaker");
    }

    /// End-to-end: a real `eve-sim` faulty run's report, converted to
    /// health signals, trips a breaker — the PR 4 ladder actually feeds
    /// the serving layer.
    #[test]
    fn a_real_degraded_run_trips_a_breaker() {
        use eve_sim::{RecoveryPolicy, Runner};
        use eve_sram::{Fault, FaultConfig};
        use eve_workloads::Workload;

        // The stuck source cell from the eve-sim sparing test: vvadd
        // sources are < 2^20, so stuck-at-one on bit 30 of source row
        // v1 perturbs every operand reload, and the default policy has
        // no spares — retries exhaust and the run degrades.
        let mut cfg = FaultConfig::none(7);
        cfg.scripted.push(Fault::stuck_at(1, 0, 30, true));
        let report = Runner::new()
            .run_faulty(32, &Workload::vvadd(300), cfg, RecoveryPolicy::default())
            .expect("degraded runs still report");
        let h = engine_health(&report).expect("faulty runs carry resilience");
        assert!(h.degraded);
        let mut b = CircuitBreaker::new(BreakerPolicy::default());
        for s in signals(&h) {
            apply_signal(&mut b, s, 100);
        }
        assert_eq!(b.state_at(100), BreakerState::Open);
    }

    /// A fault-free run has no resilience section: extraction is a
    /// typed [`ServeError::Report`], not a panic path.
    #[test]
    fn a_clean_run_yields_a_typed_report_error() {
        use eve_sim::{Runner, SystemKind};
        use eve_workloads::Workload;

        let report = Runner::new()
            .run(SystemKind::EveN(32), &Workload::vvadd(100))
            .expect("clean run");
        let err = engine_health(&report).unwrap_err();
        assert!(matches!(err, ServeError::Report(_)));
        assert!(err.to_string().contains("no resilience section"));
    }
}
