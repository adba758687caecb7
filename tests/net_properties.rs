//! Property tests for the lossy-interconnect primitives and the
//! end-to-end retry/hedge machinery, in the style of
//! `ladder_properties.rs`: seeded random streams checked against the
//! invariants directly, not against golden outputs (the per-request
//! idempotency record's exactly-once property is a unit test in
//! `eve_serve::net`):
//!
//! * a link's message ledger balances (`sent == delivered + dropped`,
//!   nothing in flight once every copy lands) under any policy, and a
//!   fully degraded window drops everything;
//! * the failure detector's event stream is time-ordered, alternates
//!   suspicion/recovery per shard, and is a pure function of the ack
//!   stream;
//! * whole cluster runs under random loss/duplication/reordering are
//!   byte-deterministic, never double-apply a request, and keep
//!   retransmit/hedge tallies inside their caps.

use eve::serve::{
    tenant_mix, ClusterConfig, ClusterSim, ClusterTraffic, Detector, FaultStorm, Link, MsgClass,
    NetPolicy, ServiceProfile,
};
use eve_common::SplitMix64;

const SEEDS: u64 = 40;

#[test]
fn a_link_ledger_balances_under_any_policy() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(0x11CC_0000 + seed);
        let policy = NetPolicy {
            enabled: true,
            loss: rng.next_f64() * 0.4,
            duplicate: rng.next_f64() * 0.4,
            reorder: rng.next_f64() * 0.4,
            ..NetPolicy::default()
        };
        policy.validate().expect("generated policy is valid");
        let mut link = Link::new(seed, 0);
        let mut now = 0u64;
        for _ in 0..300 {
            now += 1 + rng.below(200);
            let class = MsgClass::ALL[rng.below(5) as usize];
            for at in link.transmit(now, class, &policy).into_iter().flatten() {
                assert!(at > now, "seed {seed}: delivery not strictly in the future");
                link.on_delivered(class);
            }
        }
        for class in MsgClass::ALL {
            let s = link.stats(class);
            // `sent` counts copies (duplicates included), so the
            // auditor's identity holds exactly once every copy lands.
            assert_eq!(
                s.sent,
                s.delivered + s.dropped,
                "seed {seed}: {} ledger out of balance",
                class.as_str()
            );
            assert_eq!(s.in_flight(), 0, "seed {seed}: copies left in flight");
        }

        // A fully degraded window is pure loss: every transmit inside
        // it drops every copy, and the window expires on its own.
        let before = link.stats(MsgClass::Req);
        link.degrade(now + 10_000, 1.0);
        for _ in 0..50 {
            now += 100;
            assert!(
                link.transmit(now, MsgClass::Req, &policy) == [None, None],
                "seed {seed}: a 100%-loss window delivered a message"
            );
        }
        let after = link.stats(MsgClass::Req);
        assert_eq!(after.delivered, before.delivered, "seed {seed}");
        assert_eq!(
            after.dropped - before.dropped,
            after.sent - before.sent,
            "seed {seed}: a degraded copy escaped the drop ledger"
        );
        now += 10_000;
        assert!(!link.degraded_at(now), "seed {seed}: degrade never healed");
    }
}

#[test]
fn the_detector_is_a_pure_function_of_the_ack_stream() {
    for seed in 0..SEEDS {
        let shards = 2 + rng_shards(seed);
        let run = |seed: u64| {
            let mut rng = SplitMix64::new(0xFD00_0000 + seed);
            let mut det = Detector::new(shards, 2_000, 3);
            let mut now = 0u64;
            for _ in 0..400 {
                // Gaps up to 4x the heartbeat period, so silences long
                // enough to trip the miss threshold really happen.
                now += 1 + rng.below(8_000);
                let shard = rng.below(shards as u64) as usize;
                det.probe(now, shard);
                if rng.chance(0.7) {
                    det.on_ack(now, shard);
                }
            }
            det.events().to_vec()
        };
        let events = run(seed);
        assert_eq!(events, run(seed), "seed {seed}: detector not a pure replay");

        // Time-ordered, and per shard the stream strictly alternates
        // suspicion -> recovery -> suspicion.
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "seed {seed}: events out of order");
        }
        for s in 0..shards {
            let mut suspected = false;
            for e in events.iter().filter(|e| e.shard == s) {
                assert_ne!(
                    e.suspected, suspected,
                    "seed {seed}: shard {s} repeated a detector state"
                );
                suspected = e.suspected;
            }
        }
    }
}

fn rng_shards(seed: u64) -> usize {
    SplitMix64::new(seed).below(4) as usize
}

/// One small cluster run under a seeded random transport policy.
fn chaos_sim(seed: u64) -> eve::serve::ClusterReport {
    let mut rng = SplitMix64::new(0xC4A0_0000 + seed);
    let cfg = ClusterConfig {
        shards: 3,
        engines_per_shard: 2,
        seed: 11 + seed,
        net: NetPolicy {
            enabled: true,
            loss: rng.next_f64() * 0.12,
            duplicate: rng.next_f64() * 0.12,
            reorder: rng.next_f64() * 0.25,
            ..NetPolicy::default()
        },
        ..ClusterConfig::default()
    };
    let traffic = ClusterTraffic {
        requests: 160,
        mean_gap: 700,
        deadline_slack: 8.0,
        tenants: tenant_mix(2),
        seed: 0x5EED + seed,
        ..ClusterTraffic::default()
    };
    let profile = ServiceProfile::synthetic(3, 1_000, 4_000, 2);
    ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
        .expect("valid property setup")
        .run()
}

#[test]
fn random_lossy_runs_never_double_apply_and_respect_every_cap() {
    for seed in 0..SEEDS {
        let r = chaos_sim(seed);
        // Exactly-once: no request's effects applied twice on a shard.
        assert_eq!(r.net.double_applied, 0, "seed {seed}: double execution");
        // The two execution ledgers reconcile.
        assert_eq!(
            r.executed_ok,
            r.completed_eve + r.wasted_executions,
            "seed {seed}: execution ledgers disagree"
        );
        // Cap bounds: retransmits per request, hedges win at most once.
        assert!(
            r.net.retransmits <= r.admitted * r.net_max_retransmits,
            "seed {seed}: retransmit budget exceeded"
        );
        assert!(r.net.hedge_wins <= r.net.hedges, "seed {seed}");
        // Message conservation on every link and class.
        for l in &r.links {
            for c in [l.req, l.resp, l.cancel, l.heartbeat, l.ack] {
                assert_eq!(c.sent, c.delivered + c.dropped, "seed {seed}");
                assert_eq!(c.in_flight, 0, "seed {seed}");
            }
        }
        // Cancels are fully accounted.
        let cancels: u64 = r.links.iter().map(|l| l.cancel.delivered).sum();
        assert_eq!(
            cancels,
            r.net.hedge_cancelled + r.net.cancel_missed,
            "seed {seed}: cancel ledger out of balance"
        );
    }
}

#[test]
fn random_lossy_runs_are_byte_deterministic() {
    // Distinct policies per seed, identical bytes per rerun — the
    // whole timeout -> retransmit -> hedge -> cancel schedule replays.
    for seed in (0..SEEDS).step_by(5) {
        let a = chaos_sim(seed).to_json().to_pretty();
        let b = chaos_sim(seed).to_json().to_pretty();
        assert_eq!(a, b, "seed {seed}: rerun diverged");
    }
}
