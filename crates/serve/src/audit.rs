//! The serving-layer auditor: replays a traced run against its report.
//!
//! Extends the repo's audit story (PR 2's stall auditor, PR 4's
//! campaign checks) to serving. [`audit_cluster`] requires a lossless
//! trace buffer, every event inside the run, and a time-monotone
//! `cluster` track, then replays the report's identities: request
//! conservation (every arrival is admitted or shed; every admitted
//! request completes exactly once, on an engine or the fallback),
//! routing roll-ups (every admitted request was routed to exactly one
//! home shard or served directly on the fallback), steal conservation
//! (everything stolen out landed somewhere or failed over), per-shard
//! engine batch roll-ups, shed accounting per tenant, the degradation
//! ladder's step discipline (adjacent levels only, downs minus ups
//! equals the final level, level times cover the whole run), and the
//! counter registry the run exported against the report's tallies.
//! A single pool is the one-shard case and gets the same audit.
//!
//! On the ideal link (the transport disabled) the transport block must
//! be empty: no link ledger, no detector event, no wasted execution,
//! and every transport counter zero. With the lossy transport on, two
//! more families apply. *Message conservation*: on every link and for
//! every message class,
//! `sent == delivered + dropped + in_flight`, and nothing may still be
//! in flight once the calendar drains. *Exactly-once execution*: the
//! shard-side execution ledger and the router-side acceptance ledger
//! reconcile through wasted executions
//! (`executed_ok == completed_eve + wasted`), no shard ever applies
//! the same request twice (`double_applied == 0`), retransmits respect
//! the per-request budget, and every delivered cancellation either
//! pulled a queued copy or missed one that had already dispatched.

use crate::cluster_report::ClusterReport;
use crate::elastic::ElasticEventKind;
use crate::net::MsgClass;
use eve_obs::audit::{check_bounds, check_monotonic, AuditError};
use eve_obs::Tracer;
use std::fmt::{self, Write as _};

/// Why the serve audit rejected a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAuditFailure {
    /// A generic trace invariant failed.
    Trace(AuditError),
    /// A report-internal or report-vs-trace identity failed.
    Identity {
        /// What disagreed, with the numbers.
        message: String,
    },
}

impl fmt::Display for ServeAuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Trace(e) => write!(f, "trace invariant: {e}"),
            Self::Identity { message } => write!(f, "serve identity: {message}"),
        }
    }
}

impl std::error::Error for ServeAuditFailure {}

impl From<AuditError> for ServeAuditFailure {
    fn from(e: AuditError) -> Self {
        Self::Trace(e)
    }
}

/// What a passing cluster audit established.
#[derive(Debug, Clone, Default)]
pub struct ClusterAuditSummary {
    /// Events replayed.
    pub events: usize,
    /// Conservation identities checked.
    pub identities: usize,
}

/// The identities checked so far. A label is rendered only when its
/// identity fails.
#[derive(Default)]
struct Identities(usize);

impl Identities {
    fn check(
        &mut self,
        label: impl fmt::Display,
        got: u64,
        want: u64,
    ) -> Result<(), ServeAuditFailure> {
        self.0 += 1;
        if got == want {
            Ok(())
        } else {
            Err(ServeAuditFailure::Identity {
                message: format!("{label}: {got} != {want}"),
            })
        }
    }
}

/// Replays a cluster run's trace and report against each other: trace
/// hygiene, conservation identities (arrival, routing, stealing,
/// batching, tenant accounting), ladder step discipline, and the
/// counter-registry cross-check.
///
/// # Errors
///
/// Returns the first violated invariant as a [`ServeAuditFailure`].
pub fn audit_cluster(
    tracer: &Tracer,
    report: &ClusterReport,
) -> Result<ClusterAuditSummary, ServeAuditFailure> {
    let dropped = tracer.dropped();
    if dropped > 0 {
        return Err(AuditError::DroppedEvents { dropped }.into());
    }
    let events = tracer.with_events(|events| {
        check_bounds(events, report.end_cycle)?;
        check_monotonic(events, "cluster")?;
        Ok::<_, AuditError>(events.len())
    })?;

    let mut ids = Identities::default();

    // Arrival conservation.
    ids.check(
        "arrivals == admitted + shed",
        report.arrivals,
        report.admitted + report.shed(),
    )?;
    ids.check(
        "admitted == completed_eve + completed_fallback",
        report.admitted,
        report.completed_eve + report.completed_fallback,
    )?;
    // Every batch member either executed to success on its shard or
    // came back as a failure — and the shard-side execution ledger
    // reconciles with the router-side acceptance ledger through the
    // wasted executions (hedge losers, responses lost past the
    // retransmit budget). On the ideal link nothing is wasted, so both
    // reduce to `batched == completed + failures`.
    ids.check(
        "batched == executed_ok + request_failures",
        report.batched_requests,
        report.executed_ok + report.request_failures,
    )?;
    ids.check(
        "executed_ok == completed_eve + wasted_executions",
        report.executed_ok,
        report.completed_eve + report.wasted_executions,
    )?;
    ids.check(
        "failovers == completed_fallback",
        report.failovers,
        report.completed_fallback,
    )?;

    // Routing replay: every admitted request has exactly one home
    // shard, unless no shard was routable and it went straight to the
    // fallback path.
    let routed: u64 = report.shards_detail.iter().map(|s| s.routed).sum();
    ids.check(
        "routed + direct_fallback == admitted",
        routed + report.direct_fallback,
        report.admitted,
    )?;
    let rerouted_in: u64 = report.shards_detail.iter().map(|s| s.rerouted_in).sum();
    ids.check("reroute roll-up", rerouted_in, report.rerouted)?;

    // Steal replay: everything stolen out landed in a thief's queue or
    // failed over, nothing vanished.
    let steals_out: u64 = report.shards_detail.iter().map(|s| s.steals_out).sum();
    ids.check("steal roll-up", steals_out, report.steals)?;
    let steals_in: u64 = report.shards_detail.iter().map(|s| s.steals_in).sum();
    ids.check(
        "steals_in == steals - steal_failovers",
        steals_in,
        report.steals - report.steal_failovers,
    )?;

    // Batch replay, shard by shard.
    let batches: u64 = report.shards_detail.iter().map(|s| s.batches).sum();
    ids.check("dispatch roll-up", batches, report.dispatches)?;
    let batched: u64 = report
        .shards_detail
        .iter()
        .map(|s| s.batched_requests)
        .sum();
    ids.check("batched-request roll-up", batched, report.batched_requests)?;
    let completions: u64 = report.shards_detail.iter().map(|s| s.completions).sum();
    ids.check("execution roll-up", completions, report.executed_ok)?;
    let failures: u64 = report.shards_detail.iter().map(|s| s.failures).sum();
    ids.check("failure roll-up", failures, report.batch_failures)?;
    for (i, s) in report.shards_detail.iter().enumerate() {
        let eng_batches: u64 = s.engines.iter().map(|e| e.dispatches).sum();
        ids.check(
            format_args!("shard {i} engine batch roll-up"),
            eng_batches,
            s.batches,
        )?;
        let eng_resolved: u64 = s.engines.iter().map(|e| e.completions + e.failures).sum();
        ids.check(
            format_args!("shard {i} batches all resolve"),
            eng_resolved,
            s.batches,
        )?;
    }

    // Tenant accounting: arrivals and admissions partition exactly, and
    // no admitted tenant loses a request.
    ids.check(
        "tenant arrival roll-up",
        report.tenants.iter().map(|t| t.arrivals).sum(),
        report.arrivals,
    )?;
    ids.check(
        "tenant admit roll-up",
        report.tenants.iter().map(|t| t.admitted).sum(),
        report.admitted,
    )?;
    ids.check(
        "tenant shed roll-up",
        report.tenants.iter().map(|t| t.shed).sum(),
        report.shed(),
    )?;
    for t in &report.tenants {
        ids.check(
            format_args!("tenant {} completes what it admits", t.name),
            t.completed,
            t.admitted,
        )?;
    }

    // Ladder discipline: one rung at a time, downs and ups reconcile
    // with the final level, and level times tile the run.
    for (i, e) in report.ladder.iter().enumerate() {
        let moved = (e.from as i64 - e.to as i64).unsigned_abs();
        ids.check(
            format_args!(
                "ladder step {i} moves one rung ({} -> {})",
                e.from.as_str(),
                e.to.as_str()
            ),
            moved,
            1,
        )?;
    }
    ids.check(
        "ladder steps reconcile with final level",
        report.step_downs(),
        report.step_ups() + report.final_level as u64,
    )?;
    ids.check(
        "level times tile the run",
        report.time_at_level.iter().sum(),
        report.end_cycle,
    )?;

    // Elastic reconfiguration replay: the event stream, the shard
    // tallies, and the cluster roll-ups must tell one story — every
    // start resolves exactly once (commit or rollback), the final
    // partition reconciles with the ledger, and request conservation
    // (checked above) therefore holds *across* reconfigurations:
    // nothing a drain or rollback touched was dropped or double-run.
    let spawns: u64 = report.shards_detail.iter().map(|s| s.spawns).sum();
    ids.check("elastic spawn roll-up", spawns, report.elastic_spawns)?;
    let retires: u64 = report.shards_detail.iter().map(|s| s.retires).sum();
    ids.check("elastic retire roll-up", retires, report.elastic_retires)?;
    let spawn_rb: u64 = report.shards_detail.iter().map(|s| s.spawn_rollbacks).sum();
    ids.check(
        "elastic spawn-rollback roll-up",
        spawn_rb,
        report.elastic_spawn_rollbacks,
    )?;
    let retire_rb: u64 = report
        .shards_detail
        .iter()
        .map(|s| s.retire_rollbacks)
        .sum();
    ids.check(
        "elastic retire-rollback roll-up",
        retire_rb,
        report.elastic_retire_rollbacks,
    )?;
    for (i, s) in report.shards_detail.iter().enumerate() {
        ids.check(
            format_args!("shard {i} final_active + retires == base + spawns"),
            s.final_active + s.retires,
            report.engines_per_shard as u64 + s.spawns,
        )?;
    }
    let kind_count = |k: ElasticEventKind| -> u64 {
        report.elastic_events.iter().filter(|e| e.kind == k).count() as u64
    };
    ids.check(
        "every spawn start resolves",
        kind_count(ElasticEventKind::SpawnStart),
        report.elastic_spawns + report.elastic_spawn_rollbacks,
    )?;
    ids.check(
        "every retire start resolves",
        kind_count(ElasticEventKind::RetireStart),
        report.elastic_retires + report.elastic_retire_rollbacks,
    )?;
    ids.check(
        "spawn commits match the tally",
        kind_count(ElasticEventKind::SpawnCommit),
        report.elastic_spawns,
    )?;
    ids.check(
        "retire commits match the tally",
        kind_count(ElasticEventKind::RetireCommit),
        report.elastic_retires,
    )?;
    let mut prev_at = 0u64;
    for (i, e) in report.elastic_events.iter().enumerate() {
        ids.check(
            format_args!("elastic event {i} is time-ordered"),
            u64::from(e.at >= prev_at),
            1,
        )?;
        prev_at = e.at;
        ids.check(
            format_args!("elastic event {i} lands inside the run"),
            u64::from(e.at <= report.end_cycle),
            1,
        )?;
        ids.check(
            format_args!("elastic event {i} names a real shard"),
            u64::from(e.shard < report.shards),
            1,
        )?;
    }
    // Thrash guard: reconfiguration *starts* inside any half-window
    // must stay within the bound (the controller's bucketed window is
    // conservative at full width, exact at half).
    let starts: Vec<u64> = report
        .elastic_events
        .iter()
        .filter(|e| e.kind.is_start())
        .map(|e| e.at)
        .collect();
    let half = (report.elastic_window / 2).max(1);
    for (i, &t) in starts.iter().enumerate() {
        let in_window = starts[..=i]
            .iter()
            .filter(|&&u| t.saturating_sub(u) < half)
            .count() as u64;
        ids.check(
            format_args!("thrash guard holds at start {i}"),
            u64::from(in_window <= report.elastic_max_per_window),
            1,
        )?;
    }

    // Transport replay. On the ideal link everything here is zero —
    // which is itself checked, so a report cannot smuggle in link
    // traffic it claims not to have modeled, and an RTO, hedge, cancel
    // or suspicion leaking onto the ideal link fails the run.
    if !report.net_enabled {
        ids.check(
            "disabled transport carries no links",
            report.links.len() as u64,
            0,
        )?;
        ids.check(
            "disabled transport saw no wasted executions",
            report.wasted_executions,
            0,
        )?;
        for (name, got) in report.net.fields() {
            ids.check(format_args!("disabled transport counts no {name}"), got, 0)?;
        }
        ids.check(
            "disabled transport records no detector events",
            report.detector_events.len() as u64,
            0,
        )?;
    } else {
        ids.check(
            "one link per shard",
            report.links.len() as u64,
            report.shards as u64,
        )?;
    }
    let mut cancels_delivered = 0u64;
    for l in &report.links {
        for class in MsgClass::ALL {
            let c = l.class(class);
            ids.check(
                format_args!(
                    "link {} {}: sent == delivered + dropped + in_flight",
                    l.shard,
                    class.as_str()
                ),
                c.sent,
                c.delivered + c.dropped + c.in_flight,
            )?;
            ids.check(
                format_args!(
                    "link {} {}: nothing in flight at end",
                    l.shard,
                    class.as_str()
                ),
                c.in_flight,
                0,
            )?;
        }
        cancels_delivered += l.cancel.delivered;
    }
    ids.check(
        "no request executed twice on one shard",
        report.net.double_applied,
        0,
    )?;
    ids.check(
        "delivered cancels either pulled a copy or missed",
        cancels_delivered,
        report.net.hedge_cancelled + report.net.cancel_missed,
    )?;
    ids.check(
        "retransmits respect the per-request budget",
        u64::from(report.net.retransmits <= report.admitted * report.net_max_retransmits),
        1,
    )?;
    ids.check(
        "hedge wins never exceed hedges fired",
        u64::from(report.net.hedge_wins <= report.net.hedges),
        1,
    )?;
    // Failure-detector history: time-ordered, in-run, real shards, and
    // its transition counts match the counter block.
    let mut prev_at = 0u64;
    for (i, e) in report.detector_events.iter().enumerate() {
        ids.check(
            format_args!("detector event {i} is time-ordered"),
            u64::from(e.at >= prev_at),
            1,
        )?;
        prev_at = e.at;
        ids.check(
            format_args!("detector event {i} lands inside the run"),
            u64::from(e.at <= report.end_cycle),
            1,
        )?;
        ids.check(
            format_args!("detector event {i} names a real shard"),
            u64::from(e.shard < report.shards),
            1,
        )?;
    }
    let suspected = report
        .detector_events
        .iter()
        .filter(|e| e.suspected)
        .count() as u64;
    ids.check(
        "suspicion events match the tally",
        suspected,
        report.net.suspicions,
    )?;
    ids.check(
        "recovery events match the tally",
        report.detector_events.len() as u64 - suspected,
        report.net.recoveries,
    )?;

    // Counter registry vs report, read in place.
    tracer.with_registry(|reg| -> Result<(), ServeAuditFailure> {
        if reg.is_empty() {
            return Ok(());
        }
        for (name, want) in [
            ("cluster.arrivals", report.arrivals),
            ("cluster.admitted", report.admitted),
            ("cluster.shed", report.shed()),
            ("cluster.shed_tenant", report.shed_tenant),
            ("cluster.dispatches", report.dispatches),
            ("cluster.batched_requests", report.batched_requests),
            ("cluster.failures", report.batch_failures),
            ("cluster.retries", report.retries),
            ("cluster.failovers", report.failovers),
            ("cluster.steals", report.steals),
            ("cluster.rerouted", report.rerouted),
            ("cluster.completed_eve", report.completed_eve),
            ("cluster.completed_fallback", report.completed_fallback),
            ("cluster.sdc", report.sdc),
            ("cluster.executed_ok", report.executed_ok),
            ("cluster.ladder_steps", report.ladder.len() as u64),
            ("elastic.spawns", report.elastic_spawns),
            ("elastic.retires", report.elastic_retires),
            (
                "elastic.rollbacks",
                report.elastic_spawn_rollbacks + report.elastic_retire_rollbacks,
            ),
            ("elastic.drain_cycles", report.elastic_drain_cycles),
        ] {
            ids.check(name, reg.counter(name), want)?;
        }
        let class_total = |f: fn(&crate::cluster_report::LinkClassReport) -> u64| -> u64 {
            report
                .links
                .iter()
                .flat_map(|l| MsgClass::ALL.iter().map(move |&c| f(&l.class(c))))
                .sum()
        };
        for (name, want) in [
            ("net.sent", class_total(|c| c.sent)),
            ("net.delivered", class_total(|c| c.delivered)),
            ("net.dropped", class_total(|c| c.dropped)),
            ("net.retransmits", report.net.retransmits),
            ("net.timeouts", report.net.timeouts),
            ("net.hedges", report.net.hedges),
            ("net.hedge_wins", report.net.hedge_wins),
            ("net.dedup_hits", report.net.dedup_hits),
            ("net.dup_suppressed", report.net.dup_suppressed),
            ("net.late_responses", report.net.late_responses),
            ("net.stale_drops", report.net.stale_drops),
            ("net.double_applied", report.net.double_applied),
            ("net.wasted_executions", report.wasted_executions),
            ("net.suspicions", report.net.suspicions),
            ("net.recoveries", report.net.recoveries),
        ] {
            ids.check(name, reg.counter(name), want)?;
        }
        // One key buffer serves every per-shard counter.
        let mut key = String::with_capacity(32);
        for (i, s) in report.shards_detail.iter().enumerate() {
            for (stem, want) in [
                ("cluster.routed.s", s.routed),
                ("cluster.steals_in.s", s.steals_in),
            ] {
                key.clear();
                write!(key, "{stem}{i}").expect("writing to a String cannot fail");
                ids.check(&key, reg.counter(&key), want)?;
            }
        }
        Ok(())
    })?;

    Ok(ClusterAuditSummary {
        events,
        identities: ids.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterSim, ClusterTraffic};
    use crate::profile::ServiceProfile;
    use crate::storm::FaultStorm;

    /// A traced single pool: one shard of four engines, one tenant.
    fn traced_pool(storm: FaultStorm) -> (Tracer, ClusterReport) {
        let tracer = Tracer::new();
        let cfg = ClusterConfig {
            shards: 1,
            engines_per_shard: 4,
            seed: 11,
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 150,
            mean_gap: 600,
            tenants: crate::tenancy::tenant_mix(1),
            seed: 5,
            ..ClusterTraffic::default()
        };
        let report = ClusterSim::new(
            cfg,
            ServiceProfile::synthetic(3, 1000, 4000, 4),
            traffic,
            storm,
        )
        .unwrap()
        .with_tracer(&tracer)
        .run();
        (tracer, report)
    }

    fn traced_cluster(storm: FaultStorm) -> (Tracer, ClusterReport) {
        let tracer = Tracer::new();
        let cfg = ClusterConfig {
            shards: 4,
            engines_per_shard: 2,
            seed: 11,
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 250,
            mean_gap: 600,
            seed: 5,
            ..ClusterTraffic::default()
        };
        let report = ClusterSim::new(
            cfg,
            ServiceProfile::synthetic(3, 1000, 4000, 2),
            traffic,
            storm,
        )
        .unwrap()
        .with_tracer(&tracer)
        .run();
        (tracer, report)
    }

    #[test]
    fn cluster_runs_pass_calm_and_under_shard_kill() {
        for (tracer, report) in [
            traced_cluster(FaultStorm::none()),
            traced_cluster(
                FaultStorm::kill_shard(1, 2, 60_000)
                    .merged(FaultStorm::hot_key(3, 40_000, 120_000)),
            ),
            traced_pool(FaultStorm::none()),
            traced_pool(FaultStorm::synth(9, 4, 400_000, 1.5)),
        ] {
            let s = audit_cluster(&tracer, &report).unwrap();
            assert!(s.events > 0);
            assert!(s.identities > 20);
        }
    }

    #[test]
    fn each_cooked_pool_field_fails_its_own_identity() {
        // One row per identity: cook one report field (or, for a
        // registry check whose report field an internal identity also
        // covers, the exported counter) and the audit must name that
        // identity.
        type Cook = fn(&mut ClusterReport, &Tracer);
        let rows: [(&str, Cook); 8] = [
            ("arrivals == admitted + shed", |r, _| r.arrivals += 1),
            ("admitted == completed_eve + completed_fallback", |r, _| {
                r.completed_fallback += 1
            }),
            ("shard 0 engine batch roll-up", |r, _| {
                r.shards_detail[0].engines[0].dispatches += 1;
            }),
            ("shard 0 batches all resolve", |r, _| {
                r.shards_detail[0].engines[0].failures += 1;
            }),
            ("failovers == completed_fallback", |r, _| r.failovers += 1),
            ("cluster.retries", |r, _| r.retries += 1),
            ("cluster.failovers", |_, t| t.count("cluster.failovers", 1)),
            ("cluster.sdc", |r, _| r.sdc += 1),
        ];
        for (identity, cook) in rows {
            let (tracer, mut report) = traced_pool(FaultStorm::synth(9, 4, 400_000, 1.5));
            audit_cluster(&tracer, &report).unwrap();
            cook(&mut report, &tracer);
            let err = audit_cluster(&tracer, &report).unwrap_err();
            assert!(matches!(err, ServeAuditFailure::Identity { .. }), "{err}");
            assert!(err.to_string().contains(identity), "{identity}: {err}");
        }
    }

    #[test]
    fn a_cooked_cluster_report_fails() {
        let (tracer, mut report) = traced_cluster(FaultStorm::none());
        report.steals += 1;
        let err = audit_cluster(&tracer, &report).unwrap_err();
        assert!(matches!(err, ServeAuditFailure::Identity { .. }), "{err}");
    }

    #[test]
    fn an_elastic_run_passes_and_a_cooked_ledger_fails() {
        use crate::elastic::ElasticPolicy;
        let tracer = Tracer::new();
        let cfg = ClusterConfig {
            shards: 2,
            engines_per_shard: 1,
            elastic: ElasticPolicy {
                enabled: true,
                min_engines: 1,
                max_engines: 3,
                scale_up_backlog: 0.2,
                scale_down_backlog: 0.02,
                dwell: 4_000,
                ..ElasticPolicy::default()
            },
            seed: 11,
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 250,
            mean_gap: 300,
            seed: 5,
            ..ClusterTraffic::default()
        };
        let report = ClusterSim::new(
            cfg,
            ServiceProfile::synthetic(3, 1000, 4000, 3),
            traffic,
            FaultStorm::none(),
        )
        .unwrap()
        .with_tracer(&tracer)
        .run();
        assert!(report.elastic_spawns > 0, "pressure never spawned");
        audit_cluster(&tracer, &report).unwrap();
        // Cook the ledger: claim one more spawn than the shards saw.
        let mut cooked = report.clone();
        cooked.elastic_spawns += 1;
        let err = audit_cluster(&tracer, &cooked).unwrap_err();
        assert!(err.to_string().contains("elastic"), "{err}");
        // Cook an event time past the run's end.
        let mut cooked = report;
        if let Some(e) = cooked.elastic_events.last_mut() {
            e.at = cooked.end_cycle + 1;
            let err = audit_cluster(&tracer, &cooked).unwrap_err();
            assert!(err.to_string().contains("inside the run"), "{err}");
        }
    }

    fn traced_lossy_cluster(storm: FaultStorm) -> (Tracer, ClusterReport) {
        use crate::net::NetPolicy;
        let tracer = Tracer::new();
        let cfg = ClusterConfig {
            shards: 4,
            engines_per_shard: 2,
            seed: 11,
            net: NetPolicy {
                duplicate: 0.1,
                ..NetPolicy::lossy(0.05)
            },
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 250,
            mean_gap: 600,
            seed: 5,
            ..ClusterTraffic::default()
        };
        let report = ClusterSim::new(
            cfg,
            ServiceProfile::synthetic(3, 1000, 4000, 2),
            traffic,
            storm,
        )
        .unwrap()
        .with_tracer(&tracer)
        .run();
        (tracer, report)
    }

    #[test]
    fn a_lossy_cluster_passes_and_cooked_net_ledgers_fail() {
        let (tracer, report) = traced_lossy_cluster(FaultStorm::partition(2, 40_000, 60_000));
        let s = audit_cluster(&tracer, &report).unwrap();
        assert!(s.identities > 60, "net identities ran: {}", s.identities);
        assert!(report.net.retransmits > 0, "loss must cause retransmits");

        // Cook a link ledger: claim one more delivery than the wire
        // carried — message conservation catches it.
        let mut cooked = report.clone();
        cooked.links[0].req.delivered += 1;
        let err = audit_cluster(&tracer, &cooked).unwrap_err();
        assert!(err.to_string().contains("sent == delivered"), "{err}");

        // Cook the execution ledger: hide a wasted execution. The
        // exactly-once reconciliation catches it.
        let mut cooked = report.clone();
        cooked.wasted_executions += 1;
        let err = audit_cluster(&tracer, &cooked).unwrap_err();
        assert!(
            err.to_string().contains("executed_ok == completed_eve"),
            "{err}"
        );

        // Claim a double-applied request: rejected outright.
        let mut cooked = report.clone();
        cooked.net.double_applied = 1;
        let err = audit_cluster(&tracer, &cooked).unwrap_err();
        assert!(err.to_string().contains("executed twice"), "{err}");

        // Cook the detector history: drop the recovery event while the
        // tally still claims it.
        let mut cooked = report;
        if let Some(i) = cooked.detector_events.iter().position(|e| !e.suspected) {
            cooked.detector_events.remove(i);
            let err = audit_cluster(&tracer, &cooked).unwrap_err();
            assert!(err.to_string().contains("recovery events"), "{err}");
        }
    }

    #[test]
    fn each_cooked_ideal_link_counter_fails_its_own_identity() {
        use crate::net::{DetectorEvent, NetCounters};
        // One row per transport counter that a direct run can raise
        // while every older identity stays balanced: the report and the
        // registry move together, and a detector tally brings its
        // event. The audit must name the ideal link's zero identity.
        // No such cook exists for `hedge_wins` (it needs a hedge),
        // `double_applied` or the two cancel outcomes (older identities
        // bound each), or the detector history (its tallies must move
        // with it, and their rows fail first).
        type Field = fn(&mut NetCounters) -> &mut u64;
        let rows: [(&str, Field, Option<bool>); 9] = [
            ("retransmits", |c| &mut c.retransmits, None),
            ("timeouts", |c| &mut c.timeouts, None),
            ("hedges", |c| &mut c.hedges, None),
            ("dedup_hits", |c| &mut c.dedup_hits, None),
            ("dup_suppressed", |c| &mut c.dup_suppressed, None),
            ("late_responses", |c| &mut c.late_responses, None),
            ("stale_drops", |c| &mut c.stale_drops, None),
            ("suspicions", |c| &mut c.suspicions, Some(true)),
            ("recoveries", |c| &mut c.recoveries, Some(false)),
        ];
        for (name, field, event) in rows {
            let (tracer, mut report) = traced_cluster(FaultStorm::none());
            audit_cluster(&tracer, &report).unwrap();
            *field(&mut report.net) += 1;
            tracer.count(&format!("net.{name}"), 1);
            if let Some(suspected) = event {
                report.detector_events.push(DetectorEvent {
                    at: 0,
                    shard: 0,
                    suspected,
                });
            }
            let err = audit_cluster(&tracer, &report).unwrap_err();
            assert!(matches!(err, ServeAuditFailure::Identity { .. }), "{err}");
            let identity = format!("counts no {name}");
            assert!(err.to_string().contains(&identity), "{identity}: {err}");
        }
    }

    #[test]
    fn a_report_claiming_phantom_links_fails() {
        // A net-disabled run cannot carry link traffic.
        let (tracer, mut report) = traced_cluster(FaultStorm::none());
        report
            .links
            .push(crate::cluster_report::LinkReport::default());
        let err = audit_cluster(&tracer, &report).unwrap_err();
        assert!(err.to_string().contains("no links"), "{err}");
    }

    #[test]
    fn a_cooked_shard_counter_fails_the_registry_check() {
        let (tracer, mut report) = traced_cluster(FaultStorm::none());
        // Move a routed request between shards: the cluster total still
        // reconciles, so only the per-shard registry counter can catch
        // it.
        assert!(report.shards_detail[1].routed > 0);
        report.shards_detail[0].routed += 1;
        report.shards_detail[1].routed -= 1;
        let err = audit_cluster(&tracer, &report).unwrap_err();
        assert!(err.to_string().contains("routed.s0"), "{err}");
    }

    #[test]
    fn failures_render() {
        let e = ServeAuditFailure::from(AuditError::DroppedEvents { dropped: 2 });
        assert!(e.to_string().contains("dropped"));
    }
}
