//! The cluster's graceful-degradation ladder.
//!
//! A cluster under fault pressure should shed *features*, then
//! *tenants*, then *the accelerator itself* — in that order — rather
//! than letting queues grow until every deadline misses. The ladder
//! tracks three windowed pressure signals (dispatch failure rate,
//! backlog ratio, unavailable-shard fraction) and maps them onto four
//! service levels:
//!
//! | level | meaning |
//! |-------|---------|
//! | `Full` | normal service: retries on, default batching |
//! | `BatchOnly` | retries off (failures go straight to fallback), batch ceiling doubled — trade tail latency for throughput |
//! | `ShedLowWeight` | additionally refuse new work from the lowest-weight tenant class at admission |
//! | `FallbackOnly` | brownout: no EVE dispatches at all, everything runs on the O3+DV fallback path |
//!
//! Transitions move one level at a time, are held back by a dwell-time
//! hysteresis so a single bad window cannot flap the cluster, and are
//! recorded as [`LadderEvent`]s — every step is traced, counted, and
//! audited, because an unexplained brownout is itself an availability
//! bug.
//!
//! Where the unavailable-shard signal comes from depends on the
//! transport model. With the lossy interconnect enabled
//! (`ClusterConfig::net`), a shard counts as unavailable when the
//! heartbeat failure detector *suspects* it — link silence observed
//! from missed acks — rather than from a scripted `partition_until`
//! window; suspicion gates routing and raises this ladder signal but
//! deliberately does not open circuit breakers, because a silent link
//! says nothing about the silicon behind it (see "Lossy interconnect
//! & exactly-once dispatch" in DESIGN.md).

/// Cluster service level, ordered from full service to brownout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceLevel {
    /// Normal service.
    Full = 0,
    /// Retries disabled, batch ceiling doubled.
    BatchOnly = 1,
    /// Additionally shed lowest-weight tenants at admission.
    ShedLowWeight = 2,
    /// All requests served on the O3+DV fallback path.
    FallbackOnly = 3,
}

impl ServiceLevel {
    /// All levels, in order.
    pub const ALL: [ServiceLevel; 4] = [
        ServiceLevel::Full,
        ServiceLevel::BatchOnly,
        ServiceLevel::ShedLowWeight,
        ServiceLevel::FallbackOnly,
    ];

    /// Stable lowercase name for reports and traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceLevel::Full => "full",
            ServiceLevel::BatchOnly => "batch_only",
            ServiceLevel::ShedLowWeight => "shed_low_weight",
            ServiceLevel::FallbackOnly => "fallback_only",
        }
    }

    fn from_index(i: usize) -> Self {
        Self::ALL[i.min(3)]
    }
}

/// Thresholds driving ladder transitions. Index `i` of each array is
/// the threshold that, when exceeded, argues for level `i + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderPolicy {
    /// Width of the sliding window the failure rate is measured over,
    /// in cycles.
    pub window: u64,
    /// Minimum cycles between transitions (hysteresis).
    pub dwell: u64,
    /// Windowed dispatch-failure-rate thresholds.
    pub fail_rate: [f64; 3],
    /// Backlog thresholds as a fraction of total queue capacity.
    pub backlog: [f64; 3],
    /// Unavailable-shard-fraction thresholds. The first is above 0.25
    /// on purpose: a 4-shard cluster tolerates one dead shard without
    /// leaving full service.
    pub unavailable: [f64; 3],
}

impl Default for LadderPolicy {
    fn default() -> Self {
        Self {
            window: 64_000,
            dwell: 16_000,
            fail_rate: [0.10, 0.30, 0.60],
            backlog: [0.60, 0.80, 0.95],
            unavailable: [0.30, 0.55, 0.80],
        }
    }
}

/// A sliding-window event counter: eight buckets of `window / 8`
/// cycles each, recycled in place. Sums are exact over the last seven
/// full buckets plus the current one — deterministic and O(1), which
/// matters more here than bucket-edge precision. Shared with the
/// elastic controller's thrash guard ([`crate::elastic`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowCounter {
    width: u64,
    tags: [u64; 8],
    vals: [u64; 8],
}

impl WindowCounter {
    pub(crate) fn new(window: u64) -> Self {
        Self {
            width: (window / 8).max(1),
            tags: [u64::MAX; 8],
            vals: [0; 8],
        }
    }

    pub(crate) fn add(&mut self, now: u64, n: u64) {
        let bucket = now / self.width;
        let slot = (bucket % 8) as usize;
        if self.tags[slot] != bucket {
            self.tags[slot] = bucket;
            self.vals[slot] = 0;
        }
        self.vals[slot] += n;
    }

    /// The first cycle after `now` in a later bucket: the earliest
    /// cycle at which [`WindowCounter::sum`] can change with no `add`.
    pub(crate) fn next_bucket(&self, now: u64) -> u64 {
        (now / self.width + 1).saturating_mul(self.width)
    }

    pub(crate) fn sum(&self, now: u64) -> u64 {
        let bucket = now / self.width;
        let oldest = bucket.saturating_sub(7);
        (0..8)
            .filter(|&s| self.tags[s] >= oldest && self.tags[s] <= bucket)
            .map(|s| self.vals[s])
            .sum()
    }
}

/// One recorded ladder transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderEvent {
    /// When the transition happened.
    pub at: u64,
    /// Level before.
    pub from: ServiceLevel,
    /// Level after.
    pub to: ServiceLevel,
}

/// The degradation ladder: windowed pressure metrics plus the current
/// service level and its transition history.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    policy: LadderPolicy,
    level: ServiceLevel,
    dispatches: WindowCounter,
    failures: WindowCounter,
    last_change: u64,
    level_entered: u64,
    /// Cycles accumulated at each level (finalized by [`Ladder::finish`]).
    time_at: [u64; 4],
    events: Vec<LadderEvent>,
}

impl Ladder {
    /// A ladder starting at [`ServiceLevel::Full`] at cycle 0.
    #[must_use]
    pub fn new(policy: LadderPolicy) -> Self {
        Self {
            policy,
            level: ServiceLevel::Full,
            dispatches: WindowCounter::new(policy.window),
            failures: WindowCounter::new(policy.window),
            last_change: 0,
            level_entered: 0,
            time_at: [0; 4],
            events: Vec::new(),
        }
    }

    /// Current service level.
    #[must_use]
    pub fn level(&self) -> ServiceLevel {
        self.level
    }

    /// Recorded transitions, in order.
    #[must_use]
    pub fn events(&self) -> &[LadderEvent] {
        &self.events
    }

    /// Transitions to a stricter level.
    #[must_use]
    pub fn step_downs(&self) -> u64 {
        self.events.iter().filter(|e| e.to > e.from).count() as u64
    }

    /// Transitions back toward full service.
    #[must_use]
    pub fn step_ups(&self) -> u64 {
        self.events.iter().filter(|e| e.to < e.from).count() as u64
    }

    /// Records an EVE dispatch at `now` (batch of any size counts
    /// once — the ladder watches dispatch health, not throughput).
    pub fn observe_dispatch(&mut self, now: u64) {
        self.dispatches.add(now, 1);
    }

    /// Records a failed dispatch at `now`.
    pub fn observe_failure(&mut self, now: u64) {
        self.failures.add(now, 1);
    }

    /// Windowed dispatch failure rate at `now`.
    #[must_use]
    pub fn failure_rate(&self, now: u64) -> f64 {
        let d = self.dispatches.sum(now);
        if d == 0 {
            0.0
        } else {
            self.failures.sum(now) as f64 / d as f64
        }
    }

    /// The earliest cycle after `now` at which [`Ladder::evaluate`] can
    /// answer differently for unchanged backlog and availability: the
    /// dwell's end while it holds, then the failure window's next
    /// bucket boundary.
    #[must_use]
    pub fn wake_after(&self, now: u64) -> u64 {
        let dwell_end = self.last_change + self.policy.dwell;
        if now < dwell_end {
            dwell_end
        } else {
            self.failures.next_bucket(now)
        }
    }

    /// Re-evaluates the ladder against current pressure. `backlog` is
    /// queued work over total queue capacity; `unavailable` is the
    /// fraction of shards currently unroutable. Moves at most one
    /// level per call, and only after the dwell time has elapsed.
    pub fn evaluate(&mut self, now: u64, backlog: f64, unavailable: f64) -> Option<LadderEvent> {
        if now < self.last_change + self.policy.dwell {
            return None;
        }
        let fail = self.failure_rate(now);
        // Target = deepest level any signal argues for.
        let mut target = 0usize;
        for i in 0..3 {
            if fail > self.policy.fail_rate[i]
                || backlog > self.policy.backlog[i]
                || unavailable > self.policy.unavailable[i]
            {
                target = i + 1;
            }
        }
        let cur = self.level as usize;
        if target == cur {
            return None;
        }
        // One rung at a time, both directions: recovery is as gradual
        // as degradation so a half-healed cluster is not re-flooded.
        let next = if target > cur { cur + 1 } else { cur - 1 };
        let ev = LadderEvent {
            at: now,
            from: self.level,
            to: ServiceLevel::from_index(next),
        };
        self.time_at[cur] += now - self.level_entered;
        self.level = ev.to;
        self.last_change = now;
        self.level_entered = now;
        self.events.push(ev);
        Some(ev)
    }

    /// Closes the books at `end`: returns cycles spent at each level,
    /// including the open stretch at the current one.
    #[must_use]
    pub fn finish(&mut self, end: u64) -> [u64; 4] {
        self.time_at[self.level as usize] += end.saturating_sub(self.level_entered);
        self.level_entered = end;
        self.time_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy() -> LadderPolicy {
        LadderPolicy {
            window: 8_000,
            dwell: 1_000,
            ..LadderPolicy::default()
        }
    }

    #[test]
    fn calm_cluster_stays_at_full() {
        let mut l = Ladder::new(quick_policy());
        for now in (0..50_000).step_by(500) {
            l.observe_dispatch(now);
            assert_eq!(l.evaluate(now, 0.1, 0.0), None);
        }
        assert_eq!(l.level(), ServiceLevel::Full);
        assert!(l.events().is_empty());
    }

    #[test]
    fn failure_burst_steps_down_one_rung_at_a_time() {
        let mut l = Ladder::new(quick_policy());
        // 100% failure rate argues for FallbackOnly, but the ladder
        // must pass through the intermediate rungs.
        for now in (0..20_000u64).step_by(100) {
            l.observe_dispatch(now);
            l.observe_failure(now);
            l.evaluate(now, 0.0, 0.0);
        }
        assert_eq!(l.level(), ServiceLevel::FallbackOnly);
        let downs: Vec<_> = l.events().to_vec();
        assert_eq!(downs.len(), 3);
        for (i, e) in downs.iter().enumerate() {
            assert_eq!(e.from as usize, i);
            assert_eq!(e.to as usize, i + 1);
        }
    }

    #[test]
    fn recovery_steps_back_up() {
        let mut l = Ladder::new(quick_policy());
        for now in (0..10_000u64).step_by(100) {
            l.observe_dispatch(now);
            l.observe_failure(now);
            l.evaluate(now, 0.0, 0.0);
        }
        let floor = l.level();
        assert!(floor > ServiceLevel::Full);
        // Healthy traffic ages the failure window out; the ladder
        // climbs back to Full one rung at a time.
        for now in (10_000u64..60_000).step_by(100) {
            l.observe_dispatch(now);
            l.evaluate(now, 0.0, 0.0);
        }
        assert_eq!(l.level(), ServiceLevel::Full);
        assert_eq!(l.step_downs(), l.step_ups());
        assert!(l.step_ups() >= 1);
    }

    #[test]
    fn dwell_time_prevents_flapping() {
        let mut l = Ladder::new(LadderPolicy {
            window: 8_000,
            dwell: 50_000,
            ..LadderPolicy::default()
        });
        for now in (0..40_000u64).step_by(100) {
            l.observe_dispatch(now);
            l.observe_failure(now);
            l.evaluate(now, 0.0, 0.0);
        }
        // Inside one dwell window only the first transition lands.
        assert!(l.events().len() <= 1, "dwell must rate-limit transitions");
    }

    #[test]
    fn unavailability_alone_can_walk_the_ladder() {
        let mut l = Ladder::new(quick_policy());
        let mut stepped = 0;
        for now in (0..20_000u64).step_by(500) {
            if l.evaluate(now, 0.0, 0.5).is_some() {
                stepped += 1;
            }
        }
        assert_eq!(l.level(), ServiceLevel::BatchOnly, "0.5 > t0 only");
        assert_eq!(stepped, 1);
        // One dead shard of four (0.25) does NOT leave full service.
        let mut calm = Ladder::new(quick_policy());
        for now in (0..20_000u64).step_by(500) {
            assert_eq!(calm.evaluate(now, 0.0, 0.25), None);
        }
    }

    #[test]
    fn time_accounting_covers_the_whole_run() {
        let mut l = Ladder::new(quick_policy());
        for now in (0..10_000u64).step_by(100) {
            l.observe_dispatch(now);
            l.observe_failure(now);
            l.evaluate(now, 0.0, 0.0);
        }
        let t = l.finish(10_000);
        assert_eq!(t.iter().sum::<u64>(), 10_000);
        assert!(t[0] > 0, "started at Full");
    }

    #[test]
    fn window_counter_ages_out() {
        let mut w = WindowCounter::new(8_000);
        w.add(100, 5);
        assert_eq!(w.sum(100), 5);
        assert_eq!(w.sum(7_900), 5, "still inside the window");
        assert_eq!(w.sum(100_000), 0, "aged out");
        // Buckets are 1000 cycles wide: the add at 100 ages out with
        // the eighth boundary after it, not a cycle earlier.
        assert_eq!(w.next_bucket(7_999), 8_000);
        assert_eq!(w.next_bucket(8_000), 9_000);
        assert_eq!(w.sum(7_999), 5);
        assert_eq!(w.sum(8_000), 0);
    }

    #[test]
    fn wake_after_waits_out_the_dwell_then_each_bucket() {
        let mut l = Ladder::new(quick_policy());
        // dwell 1000, buckets of 8000 / 8 = 1000 cycles.
        assert_eq!(l.wake_after(0), 1_000, "dwell from cycle 0");
        assert_eq!(l.wake_after(1_500), 2_000);
        for now in (0..3_000u64).step_by(100) {
            l.observe_dispatch(now);
            l.observe_failure(now);
            l.evaluate(now, 0.0, 0.0);
        }
        let step = l.events().last().expect("the burst stepped down").at;
        assert_eq!(
            l.wake_after(step),
            step + 1_000,
            "a step restarts the dwell"
        );
        // Between wake points the answer cannot change.
        let mut calm = Ladder::new(quick_policy());
        calm.observe_dispatch(0);
        calm.observe_failure(0);
        let wake = calm.wake_after(1_200);
        for now in 1_200..wake {
            assert_eq!(calm.failure_rate(now), calm.failure_rate(1_200));
        }
        assert_eq!(calm.failure_rate(8_000), 0.0, "aged out at a boundary");
    }
}
