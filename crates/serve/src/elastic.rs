//! The elastic reconfiguration controller: spawning and retiring
//! engines under live traffic.
//!
//! EVE's whole economy is ephemeral — an engine exists by donating
//! half its core's private-L2 ways (§V-E) and gives them back when
//! vector work ends — yet the cluster's engine/cache split has been
//! static per run. [`ElasticController`] makes it a live control knob:
//! it watches each shard's windowed pressure (backlog against queue
//! capacity) and decides when to **spawn** an engine (way-partition an
//! idle core's L2, pay the measured flush cost), **retire** one
//! (quiesce: stop admitting work, drain the in-flight batch, then
//! return the ways), or leave the partition alone.
//!
//! Safety is the headline, not the scaling math:
//!
//! * **dwell/cooldown hysteresis** — a shard that just reconfigured
//!   cannot reconfigure again until its dwell elapses, so one noisy
//!   window cannot flap the partition;
//! * **thrash guard** — a cluster-wide sliding window bounds total
//!   reconfiguration *starts*; when the budget is spent the controller
//!   goes quiet no matter what the metrics say;
//! * **rollback** — a spawn whose target goes unhealthy during the
//!   warmup flush is rolled back (ways return to the cache, the slot
//!   re-parks), and a drain that sees pressure return before it
//!   completes is rolled back (the engine stays active);
//! * **accounting** — every decision is an [`ElasticEvent`]; starts,
//!   commits, and rollbacks must reconcile exactly, and
//!   [`crate::audit_cluster`] replays the event stream against the
//!   report to prove no request was dropped or double-run across a
//!   reconfiguration.
//!
//! The controller is deterministic: decisions are pure functions of
//! `(policy, observed signals, simulated time)` — no wall clock, no
//! RNG — so cluster runs stay byte-identical at any campaign thread
//! count. Grounded in ARCANE's adaptive cache-integrated compute and
//! the Bicameral Cache's scalar/vector partition trade-off (PAPERS.md).

use crate::degrade::WindowCounter;

/// Elastic reconfiguration knobs. `Copy` so it rides inside
/// [`crate::ClusterConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticPolicy {
    /// Master switch; disabled keeps the historical static partition.
    pub enabled: bool,
    /// Floor on active engines per shard (never retire below this).
    pub min_engines: usize,
    /// Ceiling on engines per shard (spawn targets beyond the
    /// configured base come from parked slots up to this many).
    pub max_engines: usize,
    /// Per-shard backlog ratio (queued / queue capacity) at or above
    /// which the controller argues for a spawn.
    pub scale_up_backlog: f64,
    /// Per-shard backlog ratio at or below which an over-provisioned
    /// shard argues for a retire.
    pub scale_down_backlog: f64,
    /// Width of the thrash-guard window, cycles.
    pub window: u64,
    /// Minimum cycles between reconfiguration starts on one shard.
    pub dwell: u64,
    /// Most reconfiguration starts allowed cluster-wide per window.
    pub max_reconfigs_per_window: u64,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            min_engines: 1,
            max_engines: 4,
            scale_up_backlog: 0.50,
            scale_down_backlog: 0.05,
            window: 64_000,
            dwell: 8_000,
            max_reconfigs_per_window: 4,
        }
    }
}

/// What the controller wants done to one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticAction {
    /// Way-partition a parked core's L2 and warm an engine up.
    Spawn,
    /// Quiesce one engine and return its ways to the cache.
    Retire,
}

/// One recorded reconfiguration event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticEventKind {
    /// A spawn began: ways donated, warmup flush under way.
    SpawnStart,
    /// The warmed engine came online.
    SpawnCommit,
    /// The target went unhealthy mid-warmup: ways returned, slot
    /// re-parked.
    SpawnRollback,
    /// A retire began: the engine stopped admitting work.
    RetireStart,
    /// The drain completed: ways returned to the cache.
    RetireCommit,
    /// Pressure returned mid-drain: the retire was aborted and the
    /// engine stayed active.
    RetireRollback,
}

impl ElasticEventKind {
    /// Stable lowercase name for reports and traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::SpawnStart => "spawn_start",
            Self::SpawnCommit => "spawn_commit",
            Self::SpawnRollback => "spawn_rollback",
            Self::RetireStart => "retire_start",
            Self::RetireCommit => "retire_commit",
            Self::RetireRollback => "retire_rollback",
        }
    }

    /// Whether this kind opens a reconfiguration (counts against the
    /// thrash guard).
    #[must_use]
    pub fn is_start(self) -> bool {
        matches!(self, Self::SpawnStart | Self::RetireStart)
    }
}

/// One reconfiguration event, as recorded in the [`crate::ClusterReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticEvent {
    /// When it happened.
    pub at: u64,
    /// The shard reconfigured.
    pub shard: usize,
    /// What happened.
    pub kind: ElasticEventKind,
    /// Active engines on that shard after the event took effect.
    pub active_after: usize,
}

/// One shard's observed pressure, as the cluster loop sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSignal {
    /// Queued requests over the shard's queue capacity.
    pub backlog: f64,
    /// Engines currently active (serving or idle).
    pub active: usize,
    /// Engines mid-spawn (warming up).
    pub spawning: usize,
    /// Engines mid-drain.
    pub draining: usize,
}

/// The deterministic elastic controller: per-shard dwell stamps, the
/// cluster-wide thrash window, and the full event/tally record.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticController {
    policy: ElasticPolicy,
    /// Per-shard time of the last reconfiguration start.
    last_start: Vec<Option<u64>>,
    /// Cluster-wide reconfiguration starts, windowed.
    starts: WindowCounter,
    events: Vec<ElasticEvent>,
    spawns: u64,
    retires: u64,
    spawn_rollbacks: u64,
    retire_rollbacks: u64,
    drain_cycles: u64,
}

impl ElasticController {
    /// A controller for `shards` shards.
    #[must_use]
    pub fn new(policy: ElasticPolicy, shards: usize) -> Self {
        Self {
            policy,
            last_start: vec![None; shards],
            starts: WindowCounter::new(policy.window.max(1)),
            events: Vec::new(),
            spawns: 0,
            retires: 0,
            spawn_rollbacks: 0,
            retire_rollbacks: 0,
            drain_cycles: 0,
        }
    }

    /// The policy this controller runs.
    #[must_use]
    pub fn policy(&self) -> ElasticPolicy {
        self.policy
    }

    /// Recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[ElasticEvent] {
        &self.events
    }

    /// Committed spawns.
    #[must_use]
    pub fn spawns(&self) -> u64 {
        self.spawns
    }

    /// Committed retires.
    #[must_use]
    pub fn retires(&self) -> u64 {
        self.retires
    }

    /// Spawns rolled back mid-warmup.
    #[must_use]
    pub fn spawn_rollbacks(&self) -> u64 {
        self.spawn_rollbacks
    }

    /// Retires aborted mid-drain.
    #[must_use]
    pub fn retire_rollbacks(&self) -> u64 {
        self.retire_rollbacks
    }

    /// Total cycles engines spent draining.
    #[must_use]
    pub fn drain_cycles(&self) -> u64 {
        self.drain_cycles
    }

    /// Whether `shard` may start a reconfiguration at `now`: its dwell
    /// has elapsed and the cluster-wide thrash budget has room.
    fn may_start(&self, now: u64, shard: usize) -> bool {
        if let Some(last) = self.last_start[shard] {
            if now < last.saturating_add(self.policy.dwell) {
                return false;
            }
        }
        self.starts.sum(now) < self.policy.max_reconfigs_per_window
    }

    /// The control decision for one shard at `now`, or `None` to leave
    /// the partition alone. Pure in `(policy, signal, now)` plus the
    /// controller's own recorded history — no clock, no RNG.
    #[must_use]
    pub fn decide(&self, now: u64, shard: usize, signal: &ShardSignal) -> Option<ElasticAction> {
        if !self.policy.enabled || !self.may_start(now, shard) {
            return None;
        }
        // Never overlap reconfigurations on one shard: a shard warms
        // up or drains one engine at a time.
        if signal.spawning > 0 || signal.draining > 0 {
            return None;
        }
        if signal.backlog >= self.policy.scale_up_backlog && signal.active < self.policy.max_engines
        {
            return Some(ElasticAction::Spawn);
        }
        if signal.backlog <= self.policy.scale_down_backlog
            && signal.active > self.policy.min_engines
        {
            return Some(ElasticAction::Retire);
        }
        None
    }

    /// The earliest cycle after `now` at which [`ElasticController::decide`]
    /// can answer differently for unchanged signals: a shard's dwell
    /// end, or the thrash window's next bucket boundary.
    #[must_use]
    pub fn wake_after(&self, now: u64) -> u64 {
        self.last_start
            .iter()
            .flatten()
            .map(|&last| last.saturating_add(self.policy.dwell))
            .filter(|&end| end > now)
            .fold(self.starts.next_bucket(now), u64::min)
    }

    /// Records one event; start kinds arm the shard's dwell and charge
    /// the thrash window.
    pub fn record(&mut self, event: ElasticEvent) {
        if event.kind.is_start() {
            self.last_start[event.shard] = Some(event.at);
            self.starts.add(event.at, 1);
        }
        match event.kind {
            ElasticEventKind::SpawnCommit => self.spawns += 1,
            ElasticEventKind::SpawnRollback => self.spawn_rollbacks += 1,
            ElasticEventKind::RetireCommit => self.retires += 1,
            ElasticEventKind::RetireRollback => self.retire_rollbacks += 1,
            ElasticEventKind::SpawnStart | ElasticEventKind::RetireStart => {}
        }
        self.events.push(event);
    }

    /// Adds one completed drain's duration to the drain-cycle tally.
    pub fn add_drain_cycles(&mut self, cycles: u64) {
        self.drain_cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ElasticPolicy {
        ElasticPolicy {
            enabled: true,
            min_engines: 1,
            max_engines: 4,
            window: 10_000,
            dwell: 2_000,
            max_reconfigs_per_window: 3,
            ..ElasticPolicy::default()
        }
    }

    fn hot(active: usize) -> ShardSignal {
        ShardSignal {
            backlog: 0.9,
            active,
            spawning: 0,
            draining: 0,
        }
    }

    fn cold(active: usize) -> ShardSignal {
        ShardSignal {
            backlog: 0.0,
            active,
            spawning: 0,
            draining: 0,
        }
    }

    fn start(ctl: &mut ElasticController, at: u64, shard: usize, kind: ElasticEventKind) {
        ctl.record(ElasticEvent {
            at,
            shard,
            kind,
            active_after: 1,
        });
    }

    #[test]
    fn disabled_controller_never_acts() {
        let ctl = ElasticController::new(ElasticPolicy::default(), 2);
        assert_eq!(ctl.decide(0, 0, &hot(1)), None);
        assert_eq!(ctl.decide(0, 1, &cold(4)), None);
    }

    #[test]
    fn pressure_maps_to_spawn_and_idleness_to_retire() {
        let ctl = ElasticController::new(policy(), 1);
        assert_eq!(ctl.decide(0, 0, &hot(2)), Some(ElasticAction::Spawn));
        assert_eq!(ctl.decide(0, 0, &cold(2)), Some(ElasticAction::Retire));
        // Middling backlog: leave the partition alone.
        let mid = ShardSignal {
            backlog: 0.2,
            ..hot(2)
        };
        assert_eq!(ctl.decide(0, 0, &mid), None);
    }

    #[test]
    fn bounds_are_respected() {
        let ctl = ElasticController::new(policy(), 1);
        assert_eq!(ctl.decide(0, 0, &hot(4)), None, "at max_engines");
        assert_eq!(ctl.decide(0, 0, &cold(1)), None, "at min_engines");
    }

    #[test]
    fn in_flight_reconfigs_block_new_ones() {
        let ctl = ElasticController::new(policy(), 1);
        let warming = ShardSignal {
            spawning: 1,
            ..hot(2)
        };
        assert_eq!(ctl.decide(0, 0, &warming), None);
        let draining = ShardSignal {
            draining: 1,
            ..cold(2)
        };
        assert_eq!(ctl.decide(0, 0, &draining), None);
    }

    #[test]
    fn dwell_is_per_shard() {
        let mut ctl = ElasticController::new(policy(), 2);
        start(&mut ctl, 100, 0, ElasticEventKind::SpawnStart);
        assert_eq!(ctl.decide(101, 0, &hot(2)), None, "shard 0 dwells");
        assert_eq!(
            ctl.decide(101, 1, &hot(2)),
            Some(ElasticAction::Spawn),
            "shard 1 unaffected"
        );
        assert_eq!(
            ctl.decide(100 + policy().dwell, 0, &hot(2)),
            Some(ElasticAction::Spawn),
            "dwell elapsed"
        );
    }

    #[test]
    fn thrash_guard_bounds_starts_per_window() {
        let mut ctl = ElasticController::new(policy(), 8);
        // Three starts on distinct shards inside one window spend the
        // whole cluster budget.
        for (i, at) in [(0usize, 0u64), (1, 10), (2, 20)] {
            assert!(ctl.decide(at, i, &hot(2)).is_some());
            start(&mut ctl, at, i, ElasticEventKind::SpawnStart);
        }
        assert_eq!(ctl.decide(30, 3, &hot(2)), None, "budget spent");
        // Far outside the window the budget refills.
        assert_eq!(ctl.decide(200_000, 3, &hot(2)), Some(ElasticAction::Spawn));
    }

    #[test]
    fn wake_after_is_the_next_dwell_end_or_window_boundary() {
        let mut ctl = ElasticController::new(policy(), 2);
        // Buckets of 10_000 / 8 = 1_250 cycles; a dwell of 2_000.
        assert_eq!(ctl.wake_after(0), 1_250, "no dwell armed yet");
        start(&mut ctl, 100, 0, ElasticEventKind::SpawnStart);
        assert_eq!(ctl.wake_after(1_300), 2_100, "shard 0's dwell ends first");
        assert_eq!(ctl.wake_after(2_100), 2_500, "then the next boundary");
        // Shard 0's answer flips exactly at its dwell end.
        assert_eq!(ctl.decide(2_099, 0, &hot(2)), None);
        assert!(ctl.decide(2_100, 0, &hot(2)).is_some());
    }

    #[test]
    fn tallies_reconcile_with_events() {
        let mut ctl = ElasticController::new(policy(), 1);
        start(&mut ctl, 0, 0, ElasticEventKind::SpawnStart);
        start(&mut ctl, 10, 0, ElasticEventKind::SpawnCommit);
        start(&mut ctl, 20, 0, ElasticEventKind::SpawnStart);
        start(&mut ctl, 30, 0, ElasticEventKind::SpawnRollback);
        start(&mut ctl, 40, 0, ElasticEventKind::RetireStart);
        start(&mut ctl, 50, 0, ElasticEventKind::RetireCommit);
        ctl.add_drain_cycles(10);
        assert_eq!(ctl.spawns(), 1);
        assert_eq!(ctl.spawn_rollbacks(), 1);
        assert_eq!(ctl.retires(), 1);
        assert_eq!(ctl.retire_rollbacks(), 0);
        assert_eq!(ctl.drain_cycles(), 10);
        let starts = ctl.events().iter().filter(|e| e.kind.is_start()).count();
        assert_eq!(
            starts as u64,
            ctl.spawns() + ctl.spawn_rollbacks() + ctl.retires()
        );
    }
}
