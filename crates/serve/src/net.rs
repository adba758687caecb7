//! The router↔shard interconnect.
//!
//! Every request, response, cancel, and heartbeat a cluster exchanges
//! is a message on a per-shard link. With [`NetPolicy::enabled`] the
//! link is lossy: [`Link`] gives each message a seeded per-link delay
//! distribution, loss probability, duplication, and extra-delay
//! reordering, scheduled through the existing discrete-event calendar
//! so runs stay byte-identical at any campaign thread count. Disabled,
//! the default, it is the *ideal link*: each message is handled inline
//! at the cycle it is sent, exactly once and in order.
//!
//! On top of the raw link the cluster builds exactly-once *effects*
//! from at-least-once *delivery*:
//!
//! * `Executions` is each request's idempotency record: a bit per shard
//!   that executed it, and one per shard whose cached answer is
//!   corrupt. Every redelivered copy resends the cached response
//!   instead of re-executing — no double-spent warmup flushes, no
//!   duplicate SDC exposure.
//! * [`RttWindow`] is the windowed RTT estimator behind hedged
//!   requests: once enough samples exist, a hedge fires after the
//!   windowed p99 delay and the first response wins.
//! * [`Detector`] is the windowed heartbeat failure detector: the
//!   router pings every shard over the same lossy link; a shard whose
//!   acks go quiet for more than the miss window is *suspected* and
//!   routed around, and recovers the moment an ack lands. On a lossy
//!   link a
//!   [`ShardPartition`](crate::storm::StormEventKind::ShardPartition)
//!   is just 100% loss; the ideal link, which runs no detector, blocks
//!   the partitioned shard outright instead.
//!
//! Everything here is a pure function of the seed: the link RNG is a
//! forked [`SplitMix64`] stream, [`SplitMix64::chance`] always draws
//! exactly one value, and the p99 is exact integer work.

use eve_common::SplitMix64;

/// Transport knobs for one cluster run. Disabled (the default) is the
/// ideal link: every message is handled inline at the cycle it is
/// sent, exactly once and in order, so it needs no heartbeats, timers
/// or cancels and keeps no ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPolicy {
    /// Whether the link is lossy, modeled message by message; `false`
    /// is the ideal link.
    pub enabled: bool,
    /// Minimum one-way delay per message copy, cycles.
    pub base_delay: u64,
    /// Uniform extra delay on `[0, jitter]`, cycles.
    pub jitter: u64,
    /// Per-copy drop probability.
    pub loss: f64,
    /// Probability a transmit emits two copies instead of one.
    pub duplicate: f64,
    /// Probability a copy picks up `reorder_extra` additional delay,
    /// letting later messages overtake it.
    pub reorder: f64,
    /// The overtaking delay, cycles.
    pub reorder_extra: u64,
    /// Sender-side retransmit timeout. Zero derives it from the
    /// service profile ([`crate::ServiceProfile::rto_hint`]).
    pub rto: u64,
    /// Retransmits per request before the sender fails over.
    pub max_retransmits: u32,
    /// Whether hedged requests fire at all.
    pub hedge: bool,
    /// RTT samples required before the hedge estimator arms.
    pub hedge_min_samples: usize,
    /// Floor on the hedge delay, cycles (a tiny p99 must not hedge
    /// every request).
    pub hedge_floor: u64,
    /// Heartbeat period per link, cycles.
    pub heartbeat_every: u64,
    /// Consecutive silent heartbeat periods before suspicion.
    pub suspect_misses: u32,
}

impl Default for NetPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            base_delay: 40,
            jitter: 24,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_extra: 96,
            rto: 0,
            max_retransmits: 3,
            hedge: true,
            hedge_min_samples: 16,
            hedge_floor: 1_000,
            heartbeat_every: 2_000,
            suspect_misses: 3,
        }
    }
}

impl NetPolicy {
    /// An enabled policy with `loss` drop probability, half that much
    /// duplication, and mild reordering — the standard chaos preset
    /// campaigns sweep.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        Self {
            enabled: true,
            loss,
            duplicate: loss / 2.0,
            reorder: 0.05,
            ..Self::default()
        }
    }

    /// Validates the probability fields.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when a probability
    /// leaves `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss", self.loss),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("net.{name} must be a probability, got {p}"));
            }
        }
        Ok(())
    }
}

/// Message classes a link carries, each conserved independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Router→shard request dispatch.
    Req = 0,
    /// Shard→router response (success or nack).
    Resp = 1,
    /// Router→shard hedge/first-response-wins cancellation.
    Cancel = 2,
    /// Router→shard heartbeat ping.
    Heartbeat = 3,
    /// Shard→router heartbeat ack.
    Ack = 4,
}

impl MsgClass {
    /// Every class, in wire order.
    pub const ALL: [MsgClass; 5] = [
        MsgClass::Req,
        MsgClass::Resp,
        MsgClass::Cancel,
        MsgClass::Heartbeat,
        MsgClass::Ack,
    ];

    /// Stable lowercase name for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MsgClass::Req => "req",
            MsgClass::Resp => "resp",
            MsgClass::Cancel => "cancel",
            MsgClass::Heartbeat => "heartbeat",
            MsgClass::Ack => "ack",
        }
    }
}

/// One message class's conservation ledger on one link. Counts are in
/// *copies* (a duplicated transmit is two sends), so
/// `sent == delivered + dropped + in-flight` holds exactly — the
/// auditor's message-conservation identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Copies handed to the link.
    pub sent: u64,
    /// Copies that reached the far end (late copies included).
    pub delivered: u64,
    /// Copies the link dropped at transmit time.
    pub dropped: u64,
    /// Extra copies the duplication draw emitted.
    pub dup_copies: u64,
}

impl ClassStats {
    /// Copies scheduled but not yet delivered — zero once a run's
    /// event heap has drained.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.sent - self.delivered - self.dropped
    }
}

/// One router↔shard link: a seeded RNG stream plus per-class
/// conservation counters and an optional loss-override window (how
/// partitions and [`LinkDegrade`](crate::storm::StormEventKind::LinkDegrade)
/// storms are modeled).
#[derive(Debug, Clone)]
pub struct Link {
    rng: SplitMix64,
    lossy_until: u64,
    loss_override: f64,
    classes: [ClassStats; MsgClass::ALL.len()],
}

impl Link {
    /// A link for `shard`, its RNG forked from the cluster seed so
    /// adding a shard never perturbs another link's stream.
    #[must_use]
    pub fn new(seed: u64, shard: usize) -> Self {
        Self {
            rng: SplitMix64::new(
                seed ^ 0x6C62_272E_07BB_0142 ^ (shard as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            ),
            lossy_until: 0,
            loss_override: 0.0,
            classes: [ClassStats::default(); MsgClass::ALL.len()],
        }
    }

    /// Opens (or extends) a loss-override window: until `until`, the
    /// link drops each copy with probability `loss` (if worse than the
    /// baseline). Overlapping windows keep the later end and the worse
    /// loss.
    pub fn degrade(&mut self, until: u64, loss: f64) {
        self.lossy_until = self.lossy_until.max(until);
        self.loss_override = self.loss_override.max(loss.clamp(0.0, 1.0));
    }

    /// Whether a loss-override window is open at `now`.
    #[must_use]
    pub fn degraded_at(&self, now: u64) -> bool {
        now < self.lossy_until
    }

    fn loss_at(&self, now: u64, base: f64) -> f64 {
        if now < self.lossy_until {
            self.loss_override.max(base)
        } else {
            base
        }
    }

    /// Transmits one message at `now`: draws duplication once, then
    /// per copy draws loss, jitter, and reordering. Returns the
    /// delivery time of each copy, in copy order, with `None` for a
    /// dropped copy and for the second copy of an unduplicated message.
    /// Every copy updates the class ledger.
    pub fn transmit(&mut self, now: u64, class: MsgClass, p: &NetPolicy) -> [Option<u64>; 2] {
        let copies = if self.rng.chance(p.duplicate) { 2 } else { 1 };
        let loss = self.loss_at(now, p.loss);
        let mut out = [None; 2];
        for (c, slot) in out.iter_mut().enumerate().take(copies) {
            self.classes[class as usize].sent += 1;
            if c > 0 {
                self.classes[class as usize].dup_copies += 1;
            }
            if self.rng.chance(loss) {
                self.classes[class as usize].dropped += 1;
                continue;
            }
            let mut delay = p.base_delay.max(1) + self.rng.below(p.jitter + 1);
            if self.rng.chance(p.reorder) {
                delay += p.reorder_extra;
            }
            *slot = Some(now + delay);
        }
        out
    }

    /// Records one copy reaching the far end.
    pub fn on_delivered(&mut self, class: MsgClass) {
        self.classes[class as usize].delivered += 1;
    }

    /// One class's ledger.
    #[must_use]
    pub fn stats(&self, class: MsgClass) -> ClassStats {
        self.classes[class as usize]
    }
}

/// One request's idempotency record: a bit per shard that executed it,
/// and a bit per shard whose cached answer is silently corrupt. A
/// redelivered copy landing on a shard that executed the request
/// resends the cached response instead of re-executing — the
/// exactly-once half of the transport. Shards are bit positions, which
/// is why a cluster has at most 64 of them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Executions {
    done: u64,
    corrupt: u64,
}

impl Executions {
    /// Records an execution on `shard` with its result. Returns `true`
    /// when this is the first (effective) application; `false` means
    /// the caller was about to double-apply — the auditor requires that
    /// count to be zero — and the first result stands.
    pub(crate) fn record(&mut self, shard: usize, corrupt: bool) -> bool {
        let bit = 1u64 << shard;
        if self.done & bit != 0 {
            return false;
        }
        self.done |= bit;
        if corrupt {
            self.corrupt |= bit;
        }
        true
    }

    /// The cached result on `shard` (whether it is corrupt), if the
    /// request already executed there.
    pub(crate) fn lookup(&self, shard: usize) -> Option<bool> {
        let bit = 1u64 << shard;
        (self.done & bit != 0).then_some(self.corrupt & bit != 0)
    }

    /// Shards the request executed on.
    pub(crate) fn count(&self) -> u32 {
        self.done.count_ones()
    }
}

/// A fixed-capacity sliding window of RTT samples with an exact p99 —
/// the hedge-delay estimator. A query scans at most `cap` integers a
/// few times, and the ring overwrite order is purely arrival order, so
/// the estimate is deterministic.
#[derive(Debug, Clone)]
pub struct RttWindow {
    samples: Vec<u64>,
    next: usize,
    cap: usize,
}

impl RttWindow {
    /// An empty window holding up to `cap` samples.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            samples: Vec::with_capacity(cap),
            next: 0,
            cap,
        }
    }

    /// Records one round-trip sample, evicting the oldest at capacity.
    pub fn record(&mut self, rtt: u64) {
        if self.samples.len() < self.cap {
            self.samples.push(rtt);
        } else {
            self.samples[self.next] = rtt;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The windowed 99th-percentile RTT, `None` while empty: the
    /// sample at ascending rank `round((len - 1) × 0.99)`.
    ///
    /// Only a handful of samples rank above it in any window a run
    /// uses, so the value is found by walking the distinct values down
    /// from the maximum, one scan each, instead of sorting a copy.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        let last = self.samples.len().checked_sub(1)?;
        let above = last - (last as f64 * 0.99).round() as usize;
        let mut at_or_above = 0;
        let mut ceiling = None;
        loop {
            let v = self
                .samples
                .iter()
                .copied()
                .filter(|&s| ceiling.is_none_or(|c| s < c))
                .max()?;
            at_or_above += self.samples.iter().filter(|&&s| s == v).count();
            if at_or_above > above {
                return Some(v);
            }
            ceiling = Some(v);
        }
    }

    /// The hedge delay: windowed p99 clamped up to `floor`, and `None`
    /// until `min_samples` RTTs have been observed (hedging on a cold
    /// estimator would fire on noise).
    #[must_use]
    pub fn hedge_delay(&self, min_samples: usize, floor: u64) -> Option<u64> {
        if self.samples.len() < min_samples.max(1) {
            return None;
        }
        self.p99().map(|p| p.max(floor))
    }
}

/// One failure-detector transition, kept as replayable history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorEvent {
    /// When the transition was observed.
    pub at: u64,
    /// Which shard's link.
    pub shard: usize,
    /// `true` = became suspected, `false` = recovered.
    pub suspected: bool,
}

/// The windowed heartbeat failure detector: one ack clock per link.
/// A shard is suspected once its last ack is older than
/// `heartbeat_every × (suspect_misses + 1)` — i.e. the whole miss
/// window went silent — and recovers the instant an ack lands.
/// Suspicion is evaluated lazily at routing decisions, which is both
/// deterministic (the event loop drives it) and honest (a sender only
/// learns about silence when it looks).
#[derive(Debug, Clone)]
pub struct Detector {
    threshold: u64,
    last_ack: Vec<u64>,
    suspected: Vec<bool>,
    events: Vec<DetectorEvent>,
    suspicions: u64,
    recoveries: u64,
}

impl Detector {
    /// A detector over `shards` links.
    #[must_use]
    pub fn new(shards: usize, heartbeat_every: u64, suspect_misses: u32) -> Self {
        Self {
            threshold: heartbeat_every.max(1) * (u64::from(suspect_misses.max(1)) + 1),
            last_ack: vec![0; shards],
            suspected: vec![false; shards],
            events: Vec::new(),
            suspicions: 0,
            recoveries: 0,
        }
    }

    /// An ack from `shard` landed at `now`: refreshes its clock and
    /// returns the recovery event if this cleared a suspicion.
    pub fn on_ack(&mut self, now: u64, shard: usize) -> Option<DetectorEvent> {
        self.last_ack[shard] = now;
        if !self.suspected[shard] {
            return None;
        }
        self.suspected[shard] = false;
        self.recoveries += 1;
        let ev = DetectorEvent {
            at: now,
            shard,
            suspected: false,
        };
        self.events.push(ev);
        Some(ev)
    }

    /// Re-evaluates `shard` at `now`: returns the suspicion event if
    /// the miss window just elapsed.
    pub fn probe(&mut self, now: u64, shard: usize) -> Option<DetectorEvent> {
        if self.suspected[shard] || now.saturating_sub(self.last_ack[shard]) <= self.threshold {
            return None;
        }
        self.suspected[shard] = true;
        self.suspicions += 1;
        let ev = DetectorEvent {
            at: now,
            shard,
            suspected: true,
        };
        self.events.push(ev);
        Some(ev)
    }

    /// Whether `shard` is currently suspected.
    #[must_use]
    pub fn suspected(&self, shard: usize) -> bool {
        self.suspected[shard]
    }

    /// The first cycle at which [`Detector::probe`] would newly suspect
    /// some link if no ack landed before it; `None` while every link is
    /// suspected.
    #[must_use]
    pub fn next_suspicion(&self) -> Option<u64> {
        (0..self.last_ack.len())
            .filter(|&s| !self.suspected[s])
            .map(|s| self.last_ack[s] + self.threshold + 1)
            .min()
    }

    /// Transition history, in observation order.
    #[must_use]
    pub fn events(&self) -> &[DetectorEvent] {
        &self.events
    }

    /// Suspicion transitions observed.
    #[must_use]
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }

    /// Recovery transitions observed.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

/// The transport tallies a cluster run reports and the auditor
/// replays. All zeros on the ideal link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Sender-side retransmits after timeouts.
    pub retransmits: u64,
    /// Timeouts that fired while their transmission was still live.
    pub timeouts: u64,
    /// Hedged requests fired.
    pub hedges: u64,
    /// Requests whose hedge copy won the race.
    pub hedge_wins: u64,
    /// Cancels that pulled a superseded copy out of a queue in time.
    pub hedge_cancelled: u64,
    /// Cancels that arrived too late (copy already dispatched or done).
    pub cancel_missed: u64,
    /// Redelivered requests answered from the idempotency cache.
    pub dedup_hits: u64,
    /// Request copies suppressed because the shard already held one.
    pub dup_suppressed: u64,
    /// Response copies that arrived after their request resolved.
    pub late_responses: u64,
    /// Stale queue entries dropped after their request resolved
    /// elsewhere.
    pub stale_drops: u64,
    /// Executions the idempotency record would have double-applied —
    /// the exactly-once identity requires this to be zero.
    pub double_applied: u64,
    /// Failure-detector suspicion transitions.
    pub suspicions: u64,
    /// Failure-detector recovery transitions.
    pub recoveries: u64,
}

impl NetCounters {
    /// Every counter with its report name, in report order.
    pub(crate) fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("retransmits", self.retransmits),
            ("timeouts", self.timeouts),
            ("hedges", self.hedges),
            ("hedge_wins", self.hedge_wins),
            ("hedge_cancelled", self.hedge_cancelled),
            ("cancel_missed", self.cancel_missed),
            ("dedup_hits", self.dedup_hits),
            ("dup_suppressed", self.dup_suppressed),
            ("late_responses", self.late_responses),
            ("stale_drops", self.stale_drops),
            ("double_applied", self.double_applied),
            ("suspicions", self.suspicions),
            ("recoveries", self.recoveries),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_seed_deterministic_and_conserve_copies() {
        let p = NetPolicy {
            loss: 0.2,
            duplicate: 0.3,
            reorder: 0.2,
            ..NetPolicy::lossy(0.2)
        };
        let run = || {
            let mut l = Link::new(42, 1);
            let mut deliveries = Vec::new();
            for i in 0..500u64 {
                let at = i * 100;
                for t in l.transmit(at, MsgClass::Req, &p).into_iter().flatten() {
                    assert!(t > at, "delivery must take time");
                    deliveries.push(t);
                    l.on_delivered(MsgClass::Req);
                }
            }
            (deliveries, l.stats(MsgClass::Req))
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.sent, sa.delivered + sa.dropped);
        assert_eq!(sa.in_flight(), 0);
        assert!(sa.dropped > 0, "20% loss dropped nothing in 500 sends");
        assert!(sa.dup_copies > 0, "30% duplication duplicated nothing");
        assert!(sa.sent > 500, "duplicates add copies");
    }

    #[test]
    fn different_links_draw_different_streams() {
        let p = NetPolicy::lossy(0.3);
        let mut a = Link::new(42, 0);
        let mut b = Link::new(42, 1);
        let da: Vec<[Option<u64>; 2]> = (0..50)
            .map(|i| a.transmit(i * 10, MsgClass::Req, &p))
            .collect();
        let db: Vec<[Option<u64>; 2]> = (0..50)
            .map(|i| b.transmit(i * 10, MsgClass::Req, &p))
            .collect();
        assert_ne!(da, db, "links must fork independent streams");
    }

    #[test]
    fn degrade_windows_drop_everything_then_heal() {
        let p = NetPolicy {
            loss: 0.0,
            duplicate: 0.0,
            ..NetPolicy::lossy(0.0)
        };
        let mut l = Link::new(7, 0);
        l.degrade(1_000, 1.0);
        assert!(l.degraded_at(500));
        assert!(!l.degraded_at(1_000));
        for i in 0..20u64 {
            assert_eq!(l.transmit(i, MsgClass::Resp, &p), [None, None]);
        }
        assert_eq!(l.stats(MsgClass::Resp).dropped, 20);
        // Past the window the baseline (0% loss) applies again.
        assert_eq!(
            l.transmit(2_000, MsgClass::Resp, &p)
                .iter()
                .flatten()
                .count(),
            1
        );
    }

    #[test]
    fn dedup_never_double_applies() {
        let mut d = Executions::default();
        assert!(d.record(3, false), "first application is effective");
        assert!(!d.record(3, true), "second application is refused");
        assert_eq!(d.lookup(3), Some(false), "the first result stands");
        assert!(d.record(4, true));
        assert_eq!(d.lookup(4), Some(true), "cache keeps the corrupt bit");
        assert_eq!(d.lookup(5), None);
        assert!(d.record(63, false), "the top shard has its own bit");
        assert_eq!(d.lookup(0), None);
        assert_eq!(d.count(), 3);
    }

    /// The record accepts each shard exactly once however deliveries
    /// are duplicated, reordered, or dropped — the exactly-once kernel.
    #[test]
    fn dedup_accepts_each_shard_exactly_once_under_any_delivery_order() {
        for seed in 0..40 {
            let mut rng = SplitMix64::new(0xDED0_0000 + seed);
            let shards = 1 + rng.below(64) as usize;
            // A delivery stream with 0..=4 copies per shard, shuffled:
            // duplication and reordering in one stream. Shards with
            // zero copies model loss — they must stay unknown.
            let mut stream = Vec::new();
            let mut copies = vec![0u64; shards];
            for (s, c) in copies.iter_mut().enumerate() {
                *c = rng.below(5);
                for _ in 0..*c {
                    stream.push(s);
                }
            }
            for i in (1..stream.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                stream.swap(i, j);
            }
            // Each shard's protocol: look up first; a hit answers from
            // the cache, a miss executes and records — `record`
            // returning `false` would mean a double application.
            let mut record = Executions::default();
            let mut fresh = vec![0u64; shards];
            let mut flag = vec![false; shards];
            for &s in &stream {
                match record.lookup(s) {
                    Some(cached) => assert_eq!(
                        cached, flag[s],
                        "seed {seed}: cache flipped its answer for shard {s}"
                    ),
                    None => {
                        let corrupt = rng.chance(0.1);
                        assert!(
                            record.record(s, corrupt),
                            "seed {seed}: fresh record on shard {s} claimed a double apply"
                        );
                        fresh[s] += 1;
                        flag[s] = corrupt;
                    }
                }
            }
            for (s, &c) in copies.iter().enumerate() {
                assert_eq!(
                    fresh[s],
                    u64::from(c > 0),
                    "seed {seed}: shard {s} applied {} times over {c} copies",
                    fresh[s]
                );
                assert_eq!(record.lookup(s).is_some(), c > 0, "seed {seed}");
            }
            assert_eq!(
                u64::from(record.count()),
                copies.iter().filter(|&&c| c > 0).count() as u64,
                "seed {seed}: record size disagrees with delivered shards"
            );
        }
    }

    #[test]
    fn rtt_window_slides_and_p99_is_exact() {
        let mut w = RttWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.p99(), None);
        for s in [10, 20, 30, 40] {
            w.record(s);
        }
        assert_eq!(w.p99(), Some(40));
        // Capacity 4: recording 100 evicts 10; the window max is 100.
        w.record(100);
        assert_eq!(w.len(), 4);
        assert_eq!(w.p99(), Some(100));
    }

    /// The scan returns the sort-based order statistic on random
    /// windows of every capacity from 1 to 200, wrapped or not, with
    /// narrow value ranges (many ties) and wide ones.
    #[test]
    fn p99_matches_the_sorted_reference() {
        let mut rng = SplitMix64::new(0x99);
        for cap in 1..=200 {
            for _ in 0..4 {
                let mut w = RttWindow::new(cap);
                let range = [1, 8, 1 << 20][rng.below(3) as usize];
                for _ in 0..rng.below(2 * cap as u64 + 2) {
                    w.record(rng.below(range));
                }
                let want = (!w.samples.is_empty()).then(|| {
                    let mut v = w.samples.clone();
                    v.sort_unstable();
                    v[((v.len() - 1) as f64 * 0.99).round() as usize]
                });
                assert_eq!(w.p99(), want, "cap {cap}, samples {:?}", w.samples);
            }
        }
    }

    #[test]
    fn hedge_delay_needs_samples_and_respects_the_floor() {
        let mut w = RttWindow::new(64);
        assert_eq!(w.hedge_delay(4, 500), None, "cold estimator must not arm");
        for _ in 0..4 {
            w.record(120);
        }
        assert_eq!(w.hedge_delay(4, 500), Some(500), "floor clamps a tiny p99");
        for _ in 0..16 {
            w.record(9_000);
        }
        assert_eq!(w.hedge_delay(4, 500), Some(9_000));
    }

    #[test]
    fn detector_suspects_after_the_miss_window_and_recovers_on_ack() {
        let mut d = Detector::new(2, 1_000, 3);
        // Acks flowing: no suspicion.
        d.on_ack(900, 0);
        assert_eq!(d.probe(4_000, 0), None);
        assert!(!d.suspected(0));
        // Silence past every × (misses + 1) = 4000 cycles: suspected.
        let ev = d.probe(5_000, 0).expect("miss window elapsed");
        assert!(ev.suspected);
        assert!(d.suspected(0));
        assert_eq!(d.probe(5_100, 0), None, "suspicion fires once");
        // An ack recovers it.
        let ev = d.on_ack(6_000, 0).expect("ack clears suspicion");
        assert!(!ev.suspected);
        assert!(!d.suspected(0));
        assert_eq!(d.suspicions(), 1);
        assert_eq!(d.recoveries(), 1);
        assert_eq!(d.events().len(), 2);
        // Shard 1 was never touched.
        assert!(d.suspected(1) || !d.suspected(1));
        assert!(!d.suspected(1));
    }

    #[test]
    fn next_suspicion_is_the_first_cycle_a_probe_suspects() {
        let mut d = Detector::new(2, 1_000, 3);
        d.on_ack(900, 0);
        d.on_ack(300, 1);
        let at = d.next_suspicion().expect("no link is suspected");
        assert_eq!(at, 300 + 4_000 + 1);
        assert_eq!(d.probe(at - 1, 1), None);
        assert!(d.probe(at, 1).is_some());
        // With shard 1 suspected, only shard 0's clock is left.
        assert_eq!(d.next_suspicion(), Some(900 + 4_000 + 1));
        assert!(d.probe(900 + 4_000 + 1, 0).is_some());
        assert_eq!(d.next_suspicion(), None);
    }

    #[test]
    fn policy_validation_rejects_non_probabilities() {
        assert!(NetPolicy::default().validate().is_ok());
        assert!(NetPolicy::lossy(0.05).validate().is_ok());
        for tweak in [
            |p: &mut NetPolicy| p.loss = 1.5,
            |p: &mut NetPolicy| p.duplicate = -0.1,
            |p: &mut NetPolicy| p.reorder = 2.0,
        ] {
            let mut p = NetPolicy::lossy(0.05);
            tweak(&mut p);
            assert!(p.validate().is_err());
        }
    }
}
