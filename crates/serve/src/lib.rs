//! Resilient multi-engine serving: a health-checked pool of ephemeral
//! vector engines with deadlines, retries, and circuit breaking.
//!
//! The paper builds one ephemeral engine per core; a chip that *serves*
//! with them needs a layer that keeps answering when engines brown out,
//! silently corrupt, or die. This crate is that layer, as a
//! deterministic discrete-event model grounded in the rest of the
//! workspace:
//!
//! - [`ServiceProfile`] prices requests with the real `eve-sim` timing
//!   model (per-workload EVE and O3+DV cycle counts, plus the measured
//!   shared-LLC/DRAM contention curve from [`eve_sim::contention_profile`]).
//! - [`CircuitBreaker`] is the closed → open → half-open machine that
//!   stands between the scheduler and each engine; [`health`] converts
//!   PR 4's `ShadowChecker` escalation-ladder snapshots
//!   ([`eve_sim::EngineHealth`]) into breaker signals.
//! - [`Backoff`] spaces retries with capped exponential delays and
//!   deterministic per-request jitter.
//! - [`queue`] sheds load at the door when the queue is full or the
//!   deadline-feasibility bound says admission would be wasted work.
//! - [`FaultStorm`] scripts engine-health timelines (brownouts, silent
//!   windows, kills) deterministically from a seed.
//!
//! [`ClusterSim`] ties it together on a simulated clock. A chip's
//! serving pool is the one-shard case (`shards: 1`, one engine per
//! core's L2 slice); at fleet scale a seeded consistent-hash [`Router`]
//! places requests across N shards, [`TenantQueues`] drain fair-share
//! multi-tenant traffic by weighted deficit round-robin,
//! [`BatchPolicy`] coalesces same-kernel requests into amortized
//! dispatches, idle shards work-steal from unroutable peers, and the
//! [`Ladder`] degrades service gracefully (full → batch-only → shed
//! low-weight tenants → fallback-only) instead of collapsing. When no
//! shard can serve at all, queued work fails over to the O3+DV path.
//! The [`ElasticController`] makes the engine/L2-way split itself
//! elastic: it spawns engines under vector pressure (paying the
//! measured way-partition flush cost), retires them through a safe
//! drain when traffic recedes, and guards the partition with dwell
//! hysteresis, a thrash window, and rollback. [`audit_cluster`] replays
//! a traced run against its [`ClusterReport`]: request conservation
//! plus routing, stealing, shedding, and reconfiguration decisions.
//! Arrivals come from a seeded [`TrafficShape`] — the uniform baseline,
//! a diurnal load curve, count-based bursts, or a periodic hot-key
//! storm — all pure functions of the traffic seed.
//!
//! The [`net`] module models the router↔shard wire. Every admitted
//! request takes one path through it: open, send, land on a shard,
//! execute, respond, accept. With [`NetPolicy`] enabled the wire is
//! unreliable: every request, response, cancel, and heartbeat is a
//! message on a seeded lossy [`Link`] (delay, loss, duplication,
//! reordering), and the cluster rebuilds exactly-once *effects* from
//! at-least-once *delivery* — sender-side timeouts and retransmits, a
//! per-request idempotency record that answers redelivered requests
//! from cache, windowed-p99 hedged requests with first-response-wins
//! cancellation, and a heartbeat failure [`Detector`] whose suspicion
//! feeds routing and the [`Ladder`]. A partition becomes nothing but
//! 100% loss on a link, and [`audit_cluster`] replays per-link message
//! conservation and zero double-applied executions. Disabled, the
//! default, the wire is an ideal link: each message is handled inline
//! at the cycle it is sent, exactly once and in order, with no
//! heartbeats, timers or cancels, and the audit requires its transport
//! counters to read zero.
//!
//! # Examples
//!
//! ```
//! use eve_serve::{
//!     tenant_mix, ClusterConfig, ClusterSim, ClusterTraffic, FaultStorm, ServiceProfile,
//! };
//!
//! // One chip: a single shard of four engines serving one tenant.
//! let cfg = ClusterConfig {
//!     shards: 1,
//!     engines_per_shard: 4,
//!     ..ClusterConfig::default()
//! };
//! let traffic = ClusterTraffic {
//!     tenants: tenant_mix(1),
//!     ..ClusterTraffic::default()
//! };
//! let profile = ServiceProfile::synthetic(3, 1_000, 4_000, 4);
//! let storm = FaultStorm::kill_one(1, 50_000);
//! let report = ClusterSim::new(cfg, profile, traffic, storm).unwrap().run();
//! // One dead engine out of four: the breaker isolates it and the
//! // pool keeps serving.
//! assert!(report.shards_detail[0].engines[1].breaker.opened >= 1);
//! assert!(report.availability >= 0.99);
//! assert_eq!(report.sdc, 0);
//! ```

pub mod audit;
pub mod backoff;
pub mod batch;
pub mod breaker;
pub mod cluster;
pub mod cluster_report;
pub mod degrade;
pub mod elastic;
pub mod health;
pub mod net;
pub mod profile;
pub mod queue;
pub mod router;
pub mod shape;
pub mod storm;
pub mod tenancy;

pub use audit::{audit_cluster, ClusterAuditSummary, ServeAuditFailure};
pub use backoff::{Backoff, BackoffPolicy};
pub use batch::BatchPolicy;
pub use breaker::{BreakerPolicy, BreakerState, BreakerStats, CircuitBreaker};
pub use cluster::{ClusterConfig, ClusterSim, ClusterTraffic, ServeError};
pub use cluster_report::{ClusterReport, EngineReport, ShardReport, TenantReport};
pub use degrade::{Ladder, LadderEvent, LadderPolicy, ServiceLevel};
pub use elastic::{
    ElasticAction, ElasticController, ElasticEvent, ElasticEventKind, ElasticPolicy, ShardSignal,
};
pub use health::{apply_signal, engine_health, signals, spawn_target_ok, HealthSignal};
pub use net::{
    ClassStats, Detector, DetectorEvent, Link, MsgClass, NetCounters, NetPolicy, RttWindow,
};
pub use profile::ServiceProfile;
pub use queue::{admit, estimated_wait, AdmissionPolicy, AdmissionView, ShedReason};
pub use router::RouteError;
pub use router::Router;
pub use shape::{arrivals, Arrival, TrafficShape};
pub use storm::{FaultStorm, StormEvent, StormEventKind};
pub use tenancy::{tenant_mix, TenantQueues, TenantSpec};
