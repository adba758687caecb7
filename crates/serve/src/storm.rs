//! Deterministic fault storms: scripted engine-health timelines.
//!
//! A storm is a sorted list of `(cycle, engine, kind)` events the
//! serving simulation replays against its pool. [`FaultStorm::synth`]
//! generates a statistical storm from a seed and an intensity knob —
//! the same `(seed, pool, horizon, intensity)` always yields the same
//! storm, byte for byte — and presets like [`FaultStorm::kill_one`]
//! script the acceptance scenarios (an engine dying mid-campaign)
//! exactly.

use eve_common::SplitMix64;

/// What happens to an engine at a storm event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormEventKind {
    /// The engine fails every request dispatched while the brownout
    /// lasts; failures are *detected* (the PR 1/PR 4 parity/SECDED
    /// check fires), so the serving layer sees them.
    Brownout {
        /// Brownout length in cycles.
        duration: u64,
    },
    /// The engine silently corrupts results for `duration` cycles:
    /// only a checked pool (the default) converts these into detected
    /// failures; an unchecked pool completes them as SDCs.
    Silent {
        /// Corruption-window length in cycles.
        duration: u64,
    },
    /// The engine dies permanently (remap and way budgets exhausted —
    /// the bottom of the PR 4 escalation ladder).
    Kill,
    /// The engine returns to health (ends a brownout early or revives
    /// a killed engine after repair).
    Recover,
    /// Cluster-scoped: the *shard* named by the event's `engine` field
    /// is network-isolated for `duration` cycles — no dispatches land,
    /// in-flight work fails detected, and the router treats the shard
    /// as unavailable. On a one-shard pool that is the whole pool.
    ShardPartition {
        /// Partition length in cycles.
        duration: u64,
    },
    /// Cluster-scoped traffic shaping rather than a silicon fault:
    /// while the window lasts, most arrivals draw `key` instead of a
    /// uniform routing key, hammering whichever shard owns it. The
    /// event's `engine` field is ignored (a one-shard pool routes
    /// every key to its only shard).
    HotKeySkew {
        /// The hammered routing key.
        key: u64,
        /// Skew-window length in cycles.
        duration: u64,
    },
    /// Cluster-scoped, transport-layer: the router↔shard link named by
    /// the event's `engine` field drops `loss_pct`% of message copies
    /// for `duration` cycles — a flaky cable rather than a dead shard.
    /// Requires the `eve-serve::net` transport to be enabled (rejected
    /// otherwise); with it on, a [`StormEventKind::ShardPartition`] is
    /// just the 100% special case of this.
    LinkDegrade {
        /// Drop probability in percent, clamped to 100 at replay.
        loss_pct: u8,
        /// Degrade-window length in cycles.
        duration: u64,
    },
}

/// One scripted health event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormEvent {
    /// When the event fires.
    pub at: u64,
    /// Which engine it hits, in the cluster's slot space
    /// (`shard × slots_per_shard + slot`); the shard or link for
    /// cluster-scoped kinds.
    pub engine: usize,
    /// What it does.
    pub kind: StormEventKind,
}

/// A deterministic schedule of engine-health events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStorm {
    /// Events sorted by `(at, engine)`.
    pub events: Vec<StormEvent>,
}

impl FaultStorm {
    /// A calm run: no events.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A storm that kills `engine` at `at` and never repairs it.
    #[must_use]
    pub fn kill_one(engine: usize, at: u64) -> Self {
        Self {
            events: vec![StormEvent {
                at,
                engine,
                kind: StormEventKind::Kill,
            }],
        }
    }

    /// A storm that kills every engine of `shard` at `at` — the whole
    /// shard dies at once, as if its power rail browned out for good.
    /// Engine indices are global (`shard * engines_per_shard + e`),
    /// matching the cluster simulation's storm addressing.
    #[must_use]
    pub fn kill_shard(shard: usize, engines_per_shard: usize, at: u64) -> Self {
        let events = (0..engines_per_shard)
            .map(|e| StormEvent {
                at,
                engine: shard * engines_per_shard + e,
                kind: StormEventKind::Kill,
            })
            .collect();
        let mut storm = Self { events };
        storm.normalize();
        storm
    }

    /// A storm that network-partitions `shard` at `at` for `duration`
    /// cycles, then heals.
    #[must_use]
    pub fn partition(shard: usize, at: u64, duration: u64) -> Self {
        Self {
            events: vec![StormEvent {
                at,
                engine: shard,
                kind: StormEventKind::ShardPartition { duration },
            }],
        }
    }

    /// A storm that degrades `shard`'s router link to `loss_pct`% loss
    /// at `at` for `duration` cycles, then heals.
    #[must_use]
    pub fn link_degrade(shard: usize, loss_pct: u8, at: u64, duration: u64) -> Self {
        Self {
            events: vec![StormEvent {
                at,
                engine: shard,
                kind: StormEventKind::LinkDegrade { loss_pct, duration },
            }],
        }
    }

    /// A hot-key-skew window: from `at` for `duration` cycles, most
    /// arrivals carry `key`, hammering the shard that owns it.
    #[must_use]
    pub fn hot_key(key: u64, at: u64, duration: u64) -> Self {
        Self {
            events: vec![StormEvent {
                at,
                engine: 0,
                kind: StormEventKind::HotKeySkew { key, duration },
            }],
        }
    }

    /// A statistical storm over `pool` engines and `horizon` cycles.
    ///
    /// `intensity` scales the expected brownout count per engine (an
    /// intensity of 1.0 averages about four brownouts per engine over
    /// the horizon, each lasting 2–6 % of it). Intensities above 2.0
    /// also start drawing silent-corruption windows — the storm class
    /// only a checked pool survives without SDCs. Generation is pure:
    /// the same arguments always produce the same storm.
    #[must_use]
    pub fn synth(seed: u64, pool: usize, horizon: u64, intensity: f64) -> Self {
        let mut events = Vec::new();
        if intensity <= 0.0 || horizon == 0 {
            return Self { events };
        }
        let mut master = SplitMix64::new(seed);
        for engine in 0..pool {
            // Per-engine stream forked deterministically, so adding an
            // engine never perturbs the others' timelines.
            let mut rng = master.split();
            let expected = 4.0 * intensity;
            let n = expected.floor() as u64 + u64::from(rng.chance(expected.fract()));
            for _ in 0..n {
                let at = rng.below(horizon);
                let duration = horizon / 50 + rng.below(horizon / 25 + 1);
                events.push(StormEvent {
                    at,
                    engine,
                    kind: StormEventKind::Brownout { duration },
                });
            }
            if intensity > 2.0 && rng.chance((intensity - 2.0).min(1.0)) {
                let at = rng.below(horizon);
                let duration = horizon / 100 + rng.below(horizon / 50 + 1);
                events.push(StormEvent {
                    at,
                    engine,
                    kind: StormEventKind::Silent { duration },
                });
            }
        }
        let mut storm = Self { events };
        storm.normalize();
        storm
    }

    /// Merges another storm into this one, keeping events sorted.
    #[must_use]
    pub fn merged(mut self, other: Self) -> Self {
        self.events.extend(other.events);
        self.normalize();
        self
    }

    fn normalize(&mut self) {
        // Sort by (cycle, engine, kind discriminant) so merged storms
        // replay in one canonical order.
        self.events
            .sort_by_key(|e| (e.at, e.engine, kind_rank(e.kind)));
    }
}

fn kind_rank(k: StormEventKind) -> u8 {
    match k {
        StormEventKind::Recover => 0,
        StormEventKind::Brownout { .. } => 1,
        StormEventKind::Silent { .. } => 2,
        StormEventKind::Kill => 3,
        StormEventKind::ShardPartition { .. } => 4,
        StormEventKind::HotKeySkew { .. } => 5,
        StormEventKind::LinkDegrade { .. } => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_deterministic() {
        let a = FaultStorm::synth(7, 4, 1_000_000, 1.0);
        let b = FaultStorm::synth(7, 4, 1_000_000, 1.0);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultStorm::synth(1, 4, 1_000_000, 1.0);
        let b = FaultStorm::synth(2, 4, 1_000_000, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_intensity_is_calm() {
        assert!(FaultStorm::synth(7, 4, 1_000_000, 0.0).events.is_empty());
        assert!(FaultStorm::none().events.is_empty());
    }

    #[test]
    fn events_are_sorted_and_in_bounds() {
        let s = FaultStorm::synth(99, 8, 500_000, 2.5);
        for w in s.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &s.events {
            assert!(e.at < 500_000);
            assert!(e.engine < 8);
        }
    }

    #[test]
    fn high_intensity_draws_silent_windows() {
        let s = FaultStorm::synth(3, 8, 1_000_000, 3.0);
        assert!(
            s.events
                .iter()
                .any(|e| matches!(e.kind, StormEventKind::Silent { .. })),
            "intensity 3.0 should include silent-corruption windows"
        );
    }

    #[test]
    fn merged_storms_stay_sorted() {
        let s = FaultStorm::synth(5, 4, 100_000, 1.0).merged(FaultStorm::kill_one(2, 50_000));
        for w in s.events.windows(2) {
            assert!((w[0].at, w[0].engine) <= (w[1].at, w[1].engine));
        }
        assert!(s
            .events
            .iter()
            .any(|e| e.kind == StormEventKind::Kill && e.engine == 2));
    }

    #[test]
    fn kill_shard_takes_every_engine_at_once() {
        let s = FaultStorm::kill_shard(2, 4, 7_000);
        assert_eq!(s.events.len(), 4);
        for (i, e) in s.events.iter().enumerate() {
            assert_eq!(e.at, 7_000);
            assert_eq!(e.engine, 8 + i);
            assert_eq!(e.kind, StormEventKind::Kill);
        }
    }

    #[test]
    fn cluster_kinds_sort_after_engine_kinds() {
        let s = FaultStorm::kill_one(0, 100)
            .merged(FaultStorm::partition(0, 100, 50))
            .merged(FaultStorm::hot_key(9, 100, 50));
        assert_eq!(s.events[0].kind, StormEventKind::Kill);
        assert!(matches!(
            s.events[1].kind,
            StormEventKind::ShardPartition { .. }
        ));
        assert!(matches!(
            s.events[2].kind,
            StormEventKind::HotKeySkew { .. }
        ));
    }

    #[test]
    fn link_degrade_scripts_a_flaky_cable() {
        let s =
            FaultStorm::link_degrade(0, 40, 1_000, 500).merged(FaultStorm::hot_key(9, 1_000, 50));
        // Same cycle, same engine slot: LinkDegrade ranks last.
        assert!(matches!(
            s.events[0].kind,
            StormEventKind::HotKeySkew { .. }
        ));
        assert_eq!(
            s.events[1],
            StormEvent {
                at: 1_000,
                engine: 0,
                kind: StormEventKind::LinkDegrade {
                    loss_pct: 40,
                    duration: 500
                },
            }
        );
    }

    #[test]
    fn adding_an_engine_preserves_existing_timelines() {
        let small = FaultStorm::synth(11, 2, 100_000, 1.0);
        let large = FaultStorm::synth(11, 3, 100_000, 1.0);
        let small_e0: Vec<_> = small.events.iter().filter(|e| e.engine == 0).collect();
        let large_e0: Vec<_> = large.events.iter().filter(|e| e.engine == 0).collect();
        assert_eq!(small_e0, large_e0);
    }
}
