//! The cluster run's result document.
//!
//! [`ClusterReport`] carries the request-level service metrics
//! (availability, goodput, deadline-miss rate, p50/p99 sojourn), the
//! per-shard routing/stealing tallies with a per-engine breaker section
//! ([`EngineReport`]), per-tenant service accounting, and the
//! degradation-ladder history. Rendering uses the
//! repo's deterministic JSON builder, so two identical runs — at any
//! campaign thread count — produce byte-identical documents.

use crate::breaker::{BreakerState, BreakerStats};
use crate::degrade::{LadderEvent, ServiceLevel};
use crate::elastic::ElasticEvent;
use crate::net::{ClassStats, DetectorEvent, MsgClass, NetCounters};
use eve_common::json::JsonValue;

/// One pool engine's tallies after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Requests placed on this engine (probes included).
    pub dispatches: u64,
    /// Requests it completed successfully.
    pub completions: u64,
    /// Detected failures it produced.
    pub failures: u64,
    /// Whether the engine was dead when the run ended.
    pub dead: bool,
    /// Breaker state when the run ended.
    pub final_state: BreakerState,
    /// Breaker transition counters.
    pub breaker: BreakerStats,
}

impl EngineReport {
    /// Deterministic JSON form.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("dispatches", JsonValue::from(self.dispatches)),
            ("completions", JsonValue::from(self.completions)),
            ("failures", JsonValue::from(self.failures)),
            ("dead", JsonValue::from(self.dead)),
            ("state", JsonValue::from(self.final_state.as_str())),
            ("opened", JsonValue::from(self.breaker.opened)),
            ("reclosed", JsonValue::from(self.breaker.reclosed)),
            ("probes", JsonValue::from(self.breaker.probes)),
        ])
    }
}

/// One shard's tallies after a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Admitted requests whose home shard this was.
    pub routed: u64,
    /// Admitted requests this shard accepted for an unavailable home.
    pub rerouted_in: u64,
    /// Requests this shard stole from an unavailable peer's queue.
    pub steals_in: u64,
    /// Requests stolen out of this shard's queue by peers.
    pub steals_out: u64,
    /// Engine dispatches (each carries a whole batch).
    pub batches: u64,
    /// Requests carried by those batches.
    pub batched_requests: u64,
    /// Requests completed on this shard's engines.
    pub completions: u64,
    /// Batches that failed detected.
    pub failures: u64,
    /// Engines the elastic controller brought online here.
    pub spawns: u64,
    /// Engines it drained and returned to cache duty.
    pub retires: u64,
    /// Spawns rolled back mid-warmup (target went unhealthy).
    pub spawn_rollbacks: u64,
    /// Retires aborted mid-drain (pressure returned).
    pub retire_rollbacks: u64,
    /// Active engines when the run ended.
    pub final_active: u64,
    /// Per-engine tallies (`dispatches` counts batches here).
    pub engines: Vec<EngineReport>,
}

impl ShardReport {
    /// Deterministic JSON form.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("routed", JsonValue::from(self.routed)),
            ("rerouted_in", JsonValue::from(self.rerouted_in)),
            ("steals_in", JsonValue::from(self.steals_in)),
            ("steals_out", JsonValue::from(self.steals_out)),
            ("batches", JsonValue::from(self.batches)),
            ("batched_requests", JsonValue::from(self.batched_requests)),
            ("completions", JsonValue::from(self.completions)),
            ("failures", JsonValue::from(self.failures)),
            ("spawns", JsonValue::from(self.spawns)),
            ("retires", JsonValue::from(self.retires)),
            ("spawn_rollbacks", JsonValue::from(self.spawn_rollbacks)),
            ("retire_rollbacks", JsonValue::from(self.retire_rollbacks)),
            ("final_active", JsonValue::from(self.final_active)),
            (
                "engines",
                JsonValue::Array(self.engines.iter().map(EngineReport::to_json).collect()),
            ),
        ])
    }
}

/// One message class's conservation ledger on one link, with the
/// in-flight remainder written out explicitly so a reader (or the
/// auditor) can check `sent == delivered + dropped + in_flight`
/// against the document alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkClassReport {
    /// Copies handed to the link.
    pub sent: u64,
    /// Copies that reached the far end.
    pub delivered: u64,
    /// Copies the link lost.
    pub dropped: u64,
    /// Extra copies duplication minted (counted inside `sent`).
    pub dup_copies: u64,
    /// Copies still on the wire when the run ended.
    pub in_flight: u64,
}

impl LinkClassReport {
    /// Builds the report form from the link's live stats.
    #[must_use]
    pub fn from_stats(s: ClassStats) -> Self {
        Self {
            sent: s.sent,
            delivered: s.delivered,
            dropped: s.dropped,
            dup_copies: s.dup_copies,
            in_flight: s.in_flight(),
        }
    }

    /// Deterministic JSON form.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("sent", JsonValue::from(self.sent)),
            ("delivered", JsonValue::from(self.delivered)),
            ("dropped", JsonValue::from(self.dropped)),
            ("dup_copies", JsonValue::from(self.dup_copies)),
            ("in_flight", JsonValue::from(self.in_flight)),
        ])
    }
}

/// One router↔shard link's per-class conservation ledgers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// The shard this link serves.
    pub shard: u64,
    /// Request dispatches.
    pub req: LinkClassReport,
    /// Responses (acks and nacks).
    pub resp: LinkClassReport,
    /// First-response-wins cancellations.
    pub cancel: LinkClassReport,
    /// Heartbeat pings.
    pub heartbeat: LinkClassReport,
    /// Heartbeat acks.
    pub ack: LinkClassReport,
}

impl LinkReport {
    /// The ledger for `class`.
    #[must_use]
    pub fn class(&self, class: MsgClass) -> LinkClassReport {
        match class {
            MsgClass::Req => self.req,
            MsgClass::Resp => self.resp,
            MsgClass::Cancel => self.cancel,
            MsgClass::Heartbeat => self.heartbeat,
            MsgClass::Ack => self.ack,
        }
    }

    /// Deterministic JSON form.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("shard", JsonValue::from(self.shard)),
            ("req", self.req.to_json()),
            ("resp", self.resp.to_json()),
            ("cancel", self.cancel.to_json()),
            ("heartbeat", self.heartbeat.to_json()),
            ("ack", self.ack.to_json()),
        ])
    }
}

/// JSON form of the transport counter block.
#[must_use]
fn net_counters_json(c: &NetCounters) -> JsonValue {
    JsonValue::object(c.fields().map(|(name, v)| (name, JsonValue::from(v))))
}

/// One tenant's service accounting after a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: u32,
    /// Requests this tenant offered.
    pub arrivals: u64,
    /// Requests past admission.
    pub admitted: u64,
    /// Requests refused (capacity, infeasibility, or tenant shedding).
    pub shed: u64,
    /// Admitted requests that completed (any path).
    pub completed: u64,
    /// Admitted requests answered correctly in deadline.
    pub served_ok: u64,
    /// `served_ok / admitted` (1.0 when nothing was admitted).
    pub availability: f64,
}

impl TenantReport {
    /// Deterministic JSON form.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::from(self.name.as_str())),
            ("weight", JsonValue::from(u64::from(self.weight))),
            ("arrivals", JsonValue::from(self.arrivals)),
            ("admitted", JsonValue::from(self.admitted)),
            ("shed", JsonValue::from(self.shed)),
            ("completed", JsonValue::from(self.completed)),
            ("served_ok", JsonValue::from(self.served_ok)),
            ("availability", JsonValue::from(self.availability)),
        ])
    }
}

/// Everything one cluster run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Shard count.
    pub shards: usize,
    /// Engines per shard.
    pub engines_per_shard: usize,
    /// Requests the traffic model generated.
    pub requests: u64,
    /// When the last event fired.
    pub end_cycle: u64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests past admission.
    pub admitted: u64,
    /// Refused: queue at capacity.
    pub shed_capacity: u64,
    /// Refused: deadline infeasible.
    pub shed_infeasible: u64,
    /// Refused: lowest-weight tenant class shed by the ladder.
    pub shed_tenant: u64,
    /// Admitted while no shard was routable (or during a
    /// fallback-only brownout) — served directly on the O3+DV path.
    pub direct_fallback: u64,
    /// Engine dispatches; each carries one batch.
    pub dispatches: u64,
    /// Requests those batches carried.
    pub batched_requests: u64,
    /// Batches that failed detected.
    pub batch_failures: u64,
    /// Member requests inside failed batches.
    pub request_failures: u64,
    /// Retry events scheduled.
    pub retries: u64,
    /// Requests served on the O3+DV path.
    pub failovers: u64,
    /// Requests moved by work stealing.
    pub steals: u64,
    /// Stolen requests the thief had to failover (infeasible re-price).
    pub steal_failovers: u64,
    /// Admitted requests routed away from an unavailable home shard.
    pub rerouted: u64,
    /// Requests completed on engines.
    pub completed_eve: u64,
    /// Requests completed on the fallback.
    pub completed_fallback: u64,
    /// Silent corruptions that reached callers.
    pub sdc: u64,
    /// Whether the link was lossy (`false`: the ideal link).
    pub net_enabled: bool,
    /// Effective executions on shard engines (the shard-side ledger:
    /// every batch member that ran to success, accepted or not).
    pub executed_ok: u64,
    /// Effective executions the router never accepted (hedge losers,
    /// responses lost past the retransmit budget). Always
    /// `executed_ok - completed_eve` when the exactly-once machinery
    /// holds, which is what the auditor checks.
    pub wasted_executions: u64,
    /// Retransmit budget per request (policy echo for the auditor's
    /// `retransmits <= admitted * budget` bound).
    pub net_max_retransmits: u64,
    /// Transport counter block (all zero on the ideal link).
    pub net: NetCounters,
    /// Per-link, per-class message-conservation ledgers.
    pub links: Vec<LinkReport>,
    /// Failure-detector suspicion/recovery history, in order.
    pub detector_events: Vec<DetectorEvent>,
    /// Correct in-deadline answers over admitted requests.
    pub availability: f64,
    /// In-deadline completions over all arrivals.
    pub goodput: f64,
    /// Late completions over completions.
    pub deadline_miss_rate: f64,
    /// Median sojourn, cycles.
    pub p50_sojourn: u64,
    /// 99th-percentile sojourn, cycles.
    pub p99_sojourn: u64,
    /// Ladder transitions, in order.
    pub ladder: Vec<LadderEvent>,
    /// Service level when the run ended.
    pub final_level: ServiceLevel,
    /// Cycles spent at each service level.
    pub time_at_level: [u64; 4],
    /// Elastic spawns the controller committed.
    pub elastic_spawns: u64,
    /// Elastic retires the controller committed.
    pub elastic_retires: u64,
    /// Spawns rolled back mid-warmup.
    pub elastic_spawn_rollbacks: u64,
    /// Retires aborted mid-drain.
    pub elastic_retire_rollbacks: u64,
    /// Total cycles engines spent draining.
    pub elastic_drain_cycles: u64,
    /// The controller's thrash-guard window width (policy echo, so the
    /// auditor can replay the bound without the config).
    pub elastic_window: u64,
    /// Most reconfiguration starts allowed per window (policy echo).
    pub elastic_max_per_window: u64,
    /// Every reconfiguration event, in order.
    pub elastic_events: Vec<ElasticEvent>,
    /// Per-shard tallies.
    pub shards_detail: Vec<ShardReport>,
    /// Per-tenant accounting.
    pub tenants: Vec<TenantReport>,
}

impl ClusterReport {
    /// Total shed requests, all reasons.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_capacity + self.shed_infeasible + self.shed_tenant
    }

    /// Ladder transitions toward stricter levels.
    #[must_use]
    pub fn step_downs(&self) -> u64 {
        self.ladder.iter().filter(|e| e.to > e.from).count() as u64
    }

    /// Ladder transitions back toward full service.
    #[must_use]
    pub fn step_ups(&self) -> u64 {
        self.ladder.iter().filter(|e| e.to < e.from).count() as u64
    }

    /// Deterministic JSON form.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let ladder = self
            .ladder
            .iter()
            .map(|e| {
                JsonValue::object([
                    ("at", JsonValue::from(e.at)),
                    ("from", JsonValue::from(e.from.as_str())),
                    ("to", JsonValue::from(e.to.as_str())),
                ])
            })
            .collect();
        let time_at = ServiceLevel::ALL
            .iter()
            .map(|&l| {
                JsonValue::object([
                    ("level", JsonValue::from(l.as_str())),
                    ("cycles", JsonValue::from(self.time_at_level[l as usize])),
                ])
            })
            .collect();
        JsonValue::object([
            ("shards", JsonValue::from(self.shards as u64)),
            (
                "engines_per_shard",
                JsonValue::from(self.engines_per_shard as u64),
            ),
            ("requests", JsonValue::from(self.requests)),
            ("end_cycle", JsonValue::from(self.end_cycle)),
            ("arrivals", JsonValue::from(self.arrivals)),
            ("admitted", JsonValue::from(self.admitted)),
            ("shed_capacity", JsonValue::from(self.shed_capacity)),
            ("shed_infeasible", JsonValue::from(self.shed_infeasible)),
            ("shed_tenant", JsonValue::from(self.shed_tenant)),
            ("direct_fallback", JsonValue::from(self.direct_fallback)),
            ("dispatches", JsonValue::from(self.dispatches)),
            ("batched_requests", JsonValue::from(self.batched_requests)),
            ("batch_failures", JsonValue::from(self.batch_failures)),
            ("request_failures", JsonValue::from(self.request_failures)),
            ("retries", JsonValue::from(self.retries)),
            ("failovers", JsonValue::from(self.failovers)),
            ("steals", JsonValue::from(self.steals)),
            ("steal_failovers", JsonValue::from(self.steal_failovers)),
            ("rerouted", JsonValue::from(self.rerouted)),
            ("completed_eve", JsonValue::from(self.completed_eve)),
            (
                "completed_fallback",
                JsonValue::from(self.completed_fallback),
            ),
            ("sdc", JsonValue::from(self.sdc)),
            ("net_enabled", JsonValue::from(self.net_enabled)),
            ("executed_ok", JsonValue::from(self.executed_ok)),
            ("wasted_executions", JsonValue::from(self.wasted_executions)),
            (
                "net_max_retransmits",
                JsonValue::from(self.net_max_retransmits),
            ),
            ("net", net_counters_json(&self.net)),
            (
                "links",
                JsonValue::Array(self.links.iter().map(LinkReport::to_json).collect()),
            ),
            (
                "detector_events",
                JsonValue::Array(
                    self.detector_events
                        .iter()
                        .map(|e| {
                            JsonValue::object([
                                ("at", JsonValue::from(e.at)),
                                ("shard", JsonValue::from(e.shard as u64)),
                                ("suspected", JsonValue::from(e.suspected)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("availability", JsonValue::from(self.availability)),
            ("goodput", JsonValue::from(self.goodput)),
            (
                "deadline_miss_rate",
                JsonValue::from(self.deadline_miss_rate),
            ),
            ("p50_sojourn", JsonValue::from(self.p50_sojourn)),
            ("p99_sojourn", JsonValue::from(self.p99_sojourn)),
            ("ladder", JsonValue::Array(ladder)),
            ("final_level", JsonValue::from(self.final_level.as_str())),
            ("time_at_level", JsonValue::Array(time_at)),
            ("elastic_spawns", JsonValue::from(self.elastic_spawns)),
            ("elastic_retires", JsonValue::from(self.elastic_retires)),
            (
                "elastic_spawn_rollbacks",
                JsonValue::from(self.elastic_spawn_rollbacks),
            ),
            (
                "elastic_retire_rollbacks",
                JsonValue::from(self.elastic_retire_rollbacks),
            ),
            (
                "elastic_drain_cycles",
                JsonValue::from(self.elastic_drain_cycles),
            ),
            ("elastic_window", JsonValue::from(self.elastic_window)),
            (
                "elastic_max_per_window",
                JsonValue::from(self.elastic_max_per_window),
            ),
            (
                "elastic_events",
                JsonValue::Array(
                    self.elastic_events
                        .iter()
                        .map(|e| {
                            JsonValue::object([
                                ("at", JsonValue::from(e.at)),
                                ("shard", JsonValue::from(e.shard as u64)),
                                ("kind", JsonValue::from(e.kind.as_str())),
                                ("active_after", JsonValue::from(e.active_after as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shards_detail",
                JsonValue::Array(
                    self.shards_detail
                        .iter()
                        .map(ShardReport::to_json)
                        .collect(),
                ),
            ),
            (
                "tenants",
                JsonValue::Array(self.tenants.iter().map(TenantReport::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterReport {
        ClusterReport {
            shards: 2,
            engines_per_shard: 2,
            requests: 10,
            end_cycle: 9_000,
            arrivals: 10,
            admitted: 9,
            shed_capacity: 0,
            shed_infeasible: 1,
            shed_tenant: 0,
            direct_fallback: 0,
            dispatches: 6,
            batched_requests: 9,
            batch_failures: 1,
            request_failures: 1,
            retries: 1,
            failovers: 0,
            steals: 2,
            steal_failovers: 0,
            rerouted: 1,
            completed_eve: 9,
            completed_fallback: 0,
            sdc: 0,
            net_enabled: true,
            executed_ok: 10,
            wasted_executions: 1,
            net_max_retransmits: 3,
            net: NetCounters {
                retransmits: 2,
                timeouts: 2,
                hedges: 1,
                hedge_wins: 1,
                ..NetCounters::default()
            },
            links: vec![
                LinkReport {
                    shard: 0,
                    req: LinkClassReport {
                        sent: 6,
                        delivered: 5,
                        dropped: 1,
                        dup_copies: 0,
                        in_flight: 0,
                    },
                    ..LinkReport::default()
                },
                LinkReport {
                    shard: 1,
                    ..LinkReport::default()
                },
            ],
            detector_events: vec![DetectorEvent {
                at: 5_000,
                shard: 1,
                suspected: true,
            }],
            availability: 1.0,
            goodput: 0.9,
            deadline_miss_rate: 0.0,
            p50_sojourn: 1_500,
            p99_sojourn: 4_000,
            ladder: vec![LadderEvent {
                at: 4_000,
                from: ServiceLevel::Full,
                to: ServiceLevel::BatchOnly,
            }],
            final_level: ServiceLevel::BatchOnly,
            time_at_level: [4_000, 5_000, 0, 0],
            elastic_spawns: 1,
            elastic_retires: 1,
            elastic_spawn_rollbacks: 0,
            elastic_retire_rollbacks: 0,
            elastic_drain_cycles: 700,
            elastic_window: 64_000,
            elastic_max_per_window: 4,
            elastic_events: vec![
                ElasticEvent {
                    at: 2_000,
                    shard: 0,
                    kind: crate::elastic::ElasticEventKind::SpawnStart,
                    active_after: 2,
                },
                ElasticEvent {
                    at: 2_600,
                    shard: 0,
                    kind: crate::elastic::ElasticEventKind::SpawnCommit,
                    active_after: 3,
                },
            ],
            shards_detail: vec![
                ShardReport {
                    routed: 5,
                    rerouted_in: 1,
                    steals_in: 2,
                    steals_out: 0,
                    batches: 3,
                    batched_requests: 5,
                    completions: 5,
                    failures: 0,
                    spawns: 0,
                    retires: 0,
                    spawn_rollbacks: 0,
                    retire_rollbacks: 0,
                    final_active: 2,
                    engines: vec![
                        EngineReport {
                            dispatches: 3,
                            completions: 3,
                            failures: 0,
                            dead: false,
                            final_state: BreakerState::Closed,
                            breaker: BreakerStats::default(),
                        };
                        2
                    ],
                };
                2
            ],
            tenants: vec![TenantReport {
                name: "t0".into(),
                weight: 4,
                arrivals: 10,
                admitted: 9,
                shed: 1,
                completed: 9,
                served_ok: 9,
                availability: 1.0,
            }],
        }
    }

    #[test]
    fn json_is_stable_and_self_parsing() {
        let r = sample();
        let a = r.to_json().to_pretty();
        let b = r.to_json().to_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"batch_only\""));
        assert!(a.contains("\"time_at_level\""));
        assert!(a.contains("\"spawn_commit\""));
        assert!(a.contains("\"elastic_drain_cycles\""));
        assert!(a.contains("\"net_enabled\""));
        assert!(a.contains("\"wasted_executions\""));
        assert!(a.contains("\"in_flight\""));
        assert!(a.contains("\"detector_events\""));
        JsonValue::parse(&a).expect("own output parses");
        assert_eq!(
            sample().links[0].class(MsgClass::Req).dropped,
            1,
            "class accessor reads the right ledger"
        );
        assert_eq!(r.shed(), 1);
        assert_eq!(r.step_downs(), 1);
        assert_eq!(r.step_ups(), 0);
    }
}
