//! A per-engine circuit breaker (closed → open → half-open).
//!
//! The scheduler never sees raw engine health; it sees the breaker.
//! Consecutive detected failures trip the breaker **open**, which
//! removes the engine from placement. After a cooldown the breaker
//! admits a single **half-open** probe request: success (possibly
//! several, per policy) re-closes the circuit, failure re-opens it
//! with an escalated cooldown. Health signals exported from the
//! `eve-sim` escalation ladder (see [`crate::health`]) feed the same
//! machine: a ladder degradation trips the breaker immediately, a way
//! disable or remap exhaustion counts as a failure.
//!
//! The machine is driven entirely by the simulated clock passed into
//! each method — no wall time — so serve runs replay exactly.

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are counted.
    Closed,
    /// Engine is isolated until the cooldown elapses.
    Open,
    /// One probe request at a time is admitted to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable string form for reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures (while closed) that trip the breaker.
    pub failure_threshold: u32,
    /// Cycles the breaker stays open before admitting a probe.
    pub cooldown: u64,
    /// Cooldown multiplier applied on every re-open (a failed probe).
    pub cooldown_backoff: u64,
    /// Upper bound on the escalated cooldown.
    pub max_cooldown: u64,
    /// Probe successes required to re-close from half-open.
    pub successes_to_close: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: 20_000,
            cooldown_backoff: 2,
            max_cooldown: 320_000,
            successes_to_close: 1,
        }
    }
}

impl BreakerPolicy {
    /// Trips after a single failure and probes aggressively — isolates
    /// a dead engine fastest at the cost of more probe traffic.
    #[must_use]
    pub fn aggressive() -> Self {
        Self {
            failure_threshold: 1,
            cooldown: 8_000,
            cooldown_backoff: 2,
            max_cooldown: 128_000,
            successes_to_close: 2,
        }
    }

    /// Tolerates long failure bursts before tripping — keeps traffic on
    /// a flaky engine longer.
    #[must_use]
    pub fn lenient() -> Self {
        Self {
            failure_threshold: 8,
            cooldown: 60_000,
            cooldown_backoff: 2,
            max_cooldown: 960_000,
            successes_to_close: 1,
        }
    }

    /// Looks a preset up by its campaign name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "default" => Some(Self::default()),
            "aggressive" => Some(Self::aggressive()),
            "lenient" => Some(Self::lenient()),
            _ => None,
        }
    }
}

/// Lifetime transition counters, reported per engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/half-open → open transitions.
    pub opened: u64,
    /// Half-open → closed transitions (successful probe rounds).
    pub reclosed: u64,
    /// Open → half-open transitions (probe windows granted).
    pub probes: u64,
    /// Failures observed in any state.
    pub failures: u64,
    /// Successes observed in any state.
    pub successes: u64,
}

/// The per-engine breaker state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    /// Whether the half-open probe slot is taken by an in-flight
    /// request.
    probe_in_flight: bool,
    opened_at: u64,
    current_cooldown: u64,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    #[must_use]
    pub fn new(policy: BreakerPolicy) -> Self {
        Self {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            half_open_successes: 0,
            probe_in_flight: false,
            opened_at: 0,
            current_cooldown: policy.cooldown,
            stats: BreakerStats::default(),
        }
    }

    /// The current state, advancing open → half-open if the cooldown
    /// has elapsed by `now`.
    pub fn state_at(&mut self, now: u64) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.opened_at + self.current_cooldown {
            self.state = BreakerState::HalfOpen;
            self.half_open_successes = 0;
            self.probe_in_flight = false;
            self.stats.probes += 1;
        }
        self.state
    }

    /// Whether a request may be placed on this engine at `now`. A
    /// half-open breaker admits one probe at a time; claiming the slot
    /// happens in [`CircuitBreaker::on_dispatch`].
    pub fn allows(&mut self, now: u64) -> bool {
        match self.state_at(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_in_flight,
        }
    }

    /// Records that a request was placed on the engine (claims the
    /// probe slot when half-open).
    pub fn on_dispatch(&mut self, now: u64) {
        if self.state_at(now) == BreakerState::HalfOpen {
            self.probe_in_flight = true;
        }
    }

    /// Records a successful completion at `now`.
    pub fn on_success(&mut self, now: u64) {
        self.stats.successes += 1;
        match self.state_at(now) {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                self.half_open_successes += 1;
                if self.half_open_successes >= self.policy.successes_to_close {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.current_cooldown = self.policy.cooldown;
                    self.stats.reclosed += 1;
                }
            }
            // A success landing while open (completion of a request
            // dispatched before the trip) does not re-close anything.
            BreakerState::Open => {}
        }
    }

    /// Records a detected failure at `now`.
    pub fn on_failure(&mut self, now: u64) {
        self.stats.failures += 1;
        match self.state_at(now) {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.trip(now, self.policy.cooldown);
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: re-open with an escalated cooldown.
                let escalated = self
                    .current_cooldown
                    .saturating_mul(self.policy.cooldown_backoff.max(1))
                    .min(self.policy.max_cooldown);
                self.trip(now, escalated);
            }
            // Already open: a straggler completion; stay open.
            BreakerState::Open => {}
        }
    }

    /// Forces the breaker open at `now` (a ladder degradation signal:
    /// the engine itself reported it fell back to O3+DV).
    pub fn force_open(&mut self, now: u64) {
        if self.state_at(now) != BreakerState::Open {
            self.trip(now, self.current_cooldown.max(self.policy.cooldown));
        }
    }

    fn trip(&mut self, now: u64, cooldown: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.current_cooldown = cooldown;
        self.consecutive_failures = 0;
        self.half_open_successes = 0;
        self.probe_in_flight = false;
        self.stats.opened += 1;
    }

    /// Lifetime transition counters.
    #[must_use]
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// The active cooldown (escalates on failed probes).
    #[must_use]
    pub fn cooldown(&self) -> u64 {
        self.current_cooldown
    }

    /// While open, the cycle from which [`CircuitBreaker::state_at`]
    /// reads half-open; `None` in the other states.
    #[must_use]
    pub fn reopens_at(&self) -> Option<u64> {
        (self.state == BreakerState::Open).then_some(self.opened_at + self.current_cooldown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerPolicy {
            failure_threshold: threshold,
            cooldown: 100,
            cooldown_backoff: 2,
            max_cooldown: 400,
            successes_to_close: 1,
        })
    }

    /// The exhaustive transition table the satellite task asks for:
    /// every (state, event) pair and its successor state.
    #[test]
    fn exhaustive_transition_table() {
        // (state label, event label, expected successor) driven through
        // a fresh breaker forced into the source state each row.
        #[derive(Clone, Copy, Debug)]
        enum Event {
            Success,
            Failure,
            FailureBelowThreshold,
            CooldownElapses,
            HealthTrip,
        }
        use BreakerState as S;
        use Event as E;
        let table: &[(S, E, S)] = &[
            // Closed
            (S::Closed, E::Success, S::Closed),
            (S::Closed, E::FailureBelowThreshold, S::Closed),
            (S::Closed, E::Failure, S::Open), // threshold reached
            (S::Closed, E::CooldownElapses, S::Closed),
            (S::Closed, E::HealthTrip, S::Open),
            // Open
            (S::Open, E::Success, S::Open), // straggler completion
            (S::Open, E::Failure, S::Open),
            (S::Open, E::CooldownElapses, S::HalfOpen),
            (S::Open, E::HealthTrip, S::Open),
            // HalfOpen
            (S::HalfOpen, E::Success, S::Closed),
            (S::HalfOpen, E::Failure, S::Open), // probe failed
            (S::HalfOpen, E::CooldownElapses, S::HalfOpen),
            (S::HalfOpen, E::HealthTrip, S::Open),
        ];
        for &(from, event, to) in table {
            // Force `from`: trip with 2-failure threshold, then elapse.
            let mut b = breaker(2);
            let mut now = 0;
            match from {
                S::Closed => {}
                S::Open => {
                    b.on_failure(now);
                    b.on_failure(now);
                    assert_eq!(b.state_at(now), S::Open);
                }
                S::HalfOpen => {
                    b.on_failure(now);
                    b.on_failure(now);
                    now = 100; // cooldown elapsed
                    assert_eq!(b.state_at(now), S::HalfOpen);
                }
            }
            match event {
                E::Success => b.on_success(now),
                E::Failure => {
                    if from == S::Closed {
                        b.on_failure(now);
                        b.on_failure(now); // reach the threshold
                    } else {
                        b.on_failure(now);
                    }
                }
                E::FailureBelowThreshold => b.on_failure(now),
                E::CooldownElapses => {
                    now += 1_000_000;
                }
                E::HealthTrip => b.force_open(now),
            }
            assert_eq!(
                b.state_at(now),
                to,
                "{from:?} --{event:?}--> expected {to:?}"
            );
        }
    }

    #[test]
    fn failed_probe_escalates_cooldown_up_to_cap() {
        let mut b = breaker(1);
        assert_eq!(b.reopens_at(), None, "closed");
        b.on_failure(0);
        assert_eq!(b.cooldown(), 100);
        assert_eq!(b.reopens_at(), Some(100));
        // Probe at 100 fails: cooldown doubles.
        assert!(b.allows(100));
        assert_eq!(b.reopens_at(), None, "half-open");
        b.on_dispatch(100);
        b.on_failure(100);
        assert_eq!(b.cooldown(), 200);
        assert_eq!(b.reopens_at(), Some(300));
        assert!(!b.allows(250), "still open: escalated cooldown");
        assert!(b.allows(300));
        b.on_dispatch(300);
        b.on_failure(300);
        assert_eq!(b.cooldown(), 400);
        b.state_at(700);
        b.on_dispatch(700);
        b.on_failure(700);
        assert_eq!(b.cooldown(), 400, "capped at max_cooldown");
    }

    #[test]
    fn successful_probe_recloses_and_resets_cooldown() {
        let mut b = breaker(1);
        b.on_failure(0);
        assert!(b.allows(100));
        b.on_dispatch(100);
        b.on_success(150);
        assert_eq!(b.state_at(150), BreakerState::Closed);
        assert_eq!(b.cooldown(), 100, "cooldown resets on re-close");
        let s = b.stats();
        assert_eq!((s.opened, s.probes, s.reclosed), (1, 1, 1));
    }

    #[test]
    fn half_open_admits_one_probe_at_a_time() {
        let mut b = breaker(1);
        b.on_failure(0);
        assert!(b.allows(100));
        b.on_dispatch(100);
        assert!(!b.allows(100), "probe slot taken");
        b.on_failure(120);
        assert!(!b.allows(120), "back open");
    }

    #[test]
    fn successes_interleaved_reset_the_failure_count() {
        let mut b = breaker(3);
        b.on_failure(0);
        b.on_failure(1);
        b.on_success(2);
        b.on_failure(3);
        b.on_failure(4);
        assert_eq!(b.state_at(4), BreakerState::Closed, "count was reset");
        b.on_failure(5);
        assert_eq!(b.state_at(5), BreakerState::Open);
    }

    #[test]
    fn multi_success_close_policy() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: 10,
            cooldown_backoff: 2,
            max_cooldown: 100,
            successes_to_close: 2,
        });
        b.on_failure(0);
        assert!(b.allows(10));
        b.on_dispatch(10);
        b.on_success(11);
        assert_eq!(b.state_at(11), BreakerState::HalfOpen, "needs 2");
        assert!(b.allows(11), "slot free again");
        b.on_dispatch(11);
        b.on_success(12);
        assert_eq!(b.state_at(12), BreakerState::Closed);
    }

    #[test]
    fn presets_resolve_by_name() {
        assert!(BreakerPolicy::by_name("default").is_some());
        assert!(BreakerPolicy::by_name("aggressive").is_some());
        assert!(BreakerPolicy::by_name("lenient").is_some());
        assert!(BreakerPolicy::by_name("nope").is_none());
        assert_eq!(BreakerState::HalfOpen.as_str(), "half_open");
    }
}
