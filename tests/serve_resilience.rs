//! Integration tests for the resilient serving layer on a single pool —
//! the one-shard [`ClusterSim`]: the acceptance scenario (an engine
//! dies mid-campaign, the pool stays available with zero SDCs, the
//! breaker both opens and re-closes within the run), the trace-audit
//! identity, byte determinism, and a seeded pool × storm × breaker
//! sweep over a measured service profile.

use eve::serve::{
    audit_cluster, tenant_mix, BreakerPolicy, ClusterConfig, ClusterReport, ClusterSim,
    ClusterTraffic, FaultStorm, ServiceProfile, StormEvent, StormEventKind,
};
use eve_common::SplitMix64;
use eve_obs::Tracer;
use eve_workloads::Workload;

/// The acceptance storm: engine 1 dies for good mid-run, engine 2
/// suffers a brownout that *ends* — the recovering engine is what
/// exercises the breaker's half-open → closed path (a dead engine's
/// probes never succeed).
fn acceptance_storm() -> FaultStorm {
    FaultStorm {
        events: vec![
            StormEvent {
                at: 10_000,
                engine: 2,
                kind: StormEventKind::Brownout { duration: 20_000 },
            },
            StormEvent {
                at: 30_000,
                engine: 1,
                kind: StormEventKind::Kill,
            },
        ],
    }
}

/// One chip's pool: a single shard of `engines` serving one tenant.
fn pool(engines: usize, breaker: BreakerPolicy, seed: u64) -> ClusterConfig {
    ClusterConfig {
        shards: 1,
        engines_per_shard: engines,
        breaker,
        seed,
        ..ClusterConfig::default()
    }
}

fn one_tenant(requests: usize, mean_gap: u64, seed: u64) -> ClusterTraffic {
    ClusterTraffic {
        requests,
        mean_gap,
        deadline_slack: 6.0,
        tenants: tenant_mix(1),
        seed,
        ..ClusterTraffic::default()
    }
}

/// Breaker (open, re-close) transitions summed over every engine.
fn breaker_transitions(r: &ClusterReport) -> (u64, u64) {
    r.shards_detail
        .iter()
        .flat_map(|s| &s.engines)
        .fold((0, 0), |(o, c), e| {
            (o + e.breaker.opened, c + e.breaker.reclosed)
        })
}

fn acceptance_run(tracer: Option<&Tracer>) -> ClusterReport {
    // One failure trips, two successful probes re-close: the brownout
    // window reliably produces both transitions.
    let cfg = pool(4, BreakerPolicy::aggressive(), 11);
    let profile = ServiceProfile::synthetic(3, 1_000, 4_000, 4);
    let sim = ClusterSim::new(cfg, profile, one_tenant(200, 500, 7), acceptance_storm())
        .expect("valid config");
    let sim = match tracer {
        Some(t) => sim.with_tracer(t),
        None => sim,
    };
    sim.run()
}

#[test]
fn a_mid_campaign_engine_death_keeps_the_pool_available() {
    let r = acceptance_run(None);
    // The SLO holds: ≥ 99% of admitted requests got a correct,
    // in-deadline answer, and nothing silently corrupted.
    assert!(
        r.availability >= 0.99,
        "availability {} under the acceptance storm",
        r.availability
    );
    assert_eq!(r.sdc, 0);
    let engines = &r.shards_detail[0].engines;
    // The dead engine was detected and isolated...
    assert!(engines[1].failures > 0);
    assert!(engines[1].breaker.opened >= 1);
    assert!(engines[1].dead);
    // ...and the browned-out engine's breaker opened AND re-closed
    // within the run (half-open probe succeeded after recovery).
    assert!(engines[2].breaker.opened >= 1);
    assert!(engines[2].breaker.reclosed >= 1);
    let (opens, recloses) = breaker_transitions(&r);
    assert!(opens >= 2);
    assert!(recloses >= 1);
    // Conservation: every admitted request resolved exactly once, and
    // every request an engine ran either completed or failed.
    assert_eq!(r.completed_eve + r.completed_fallback, r.admitted);
    assert_eq!(r.batched_requests, r.completed_eve + r.request_failures);
}

#[test]
fn the_serve_track_audit_identity_holds() {
    let tracer = Tracer::new();
    let report = acceptance_run(Some(&tracer));
    let summary = audit_cluster(&tracer, &report).expect("audit passes");
    assert!(summary.events > 0);
    assert!(summary.identities > 20);
    assert_eq!(report.shards_detail[0].engines.len(), 4);
}

#[test]
fn identical_runs_are_byte_identical() {
    let a = acceptance_run(None).to_json().to_pretty();
    let b = acceptance_run(None).to_json().to_pretty();
    assert_eq!(a, b, "serving runs must be byte-deterministic");
}

#[test]
fn a_measured_profile_drives_the_serving_layer_end_to_end() {
    // The serving layer on top of the real timing model: profile
    // measured by eve-sim, then a short storm-free run.
    let profile =
        ServiceProfile::measured(8, &[Workload::vvadd(300)], 2).expect("profile measures");
    let traffic = one_tenant(40, profile.mean_eve_cycles(), 2);
    let tracer = Tracer::new();
    let report = ClusterSim::new(
        pool(2, BreakerPolicy::default(), 5),
        profile,
        traffic,
        FaultStorm::none(),
    )
    .expect("valid config")
    .with_tracer(&tracer)
    .run();
    assert_eq!(report.arrivals, 40);
    assert_eq!(report.sdc, 0);
    assert!(report.completed_eve > 0);
    audit_cluster(&tracer, &report).expect("audit passes on the measured profile");
}

#[test]
fn the_seeded_storm_sweep_holds_the_availability_floor() {
    // Pool {2, 4} × storm intensity {0, 1, 2.5} × breaker policy, on a
    // profile measured from two tiny-suite kernels. Every cell also
    // kills engine 1 a quarter into the horizon, and every cell's
    // trace is audited. Seeds are drawn serially in grid order.
    let workloads: Vec<Workload> = Workload::tiny_suite().into_iter().take(2).collect();
    let profile = ServiceProfile::measured(8, &workloads, 4).expect("profile measures");
    let requests = 200;
    let mean_gap = profile.mean_eve_cycles();
    let horizon = requests as u64 * mean_gap;
    let mut seeder = SplitMix64::new(0x5E7E_CA3E);
    let (mut opens, mut recloses) = (0, 0);
    for engines in [2, 4] {
        for intensity in [0.0, 1.0, 2.5] {
            for breaker in ["default", "aggressive", "lenient"] {
                let (storm_seed, serve_seed, traffic_seed) =
                    (seeder.next_u64(), seeder.next_u64(), seeder.next_u64());
                let storm = FaultStorm::synth(storm_seed, engines, horizon, intensity)
                    .merged(FaultStorm::kill_one(1, horizon / 4));
                let breaker_policy = BreakerPolicy::by_name(breaker).expect("known policy");
                let tracer = Tracer::new();
                let r = ClusterSim::new(
                    pool(engines, breaker_policy, serve_seed),
                    profile.clone(),
                    one_tenant(requests, mean_gap, traffic_seed),
                    storm,
                )
                .expect("valid config")
                .with_tracer(&tracer)
                .run();
                let cell = format!("{engines} engines / intensity {intensity} / {breaker}");
                audit_cluster(&tracer, &r).unwrap_or_else(|e| panic!("{cell}: audit: {e}"));
                assert!(r.availability >= 0.99, "{cell}: {}", r.availability);
                assert_eq!(r.sdc, 0, "{cell}");
                assert!(r.deadline_miss_rate <= 0.01, "{cell}");
                let (o, c) = breaker_transitions(&r);
                opens += o;
                recloses += c;
            }
        }
    }
    assert!(
        opens >= 1 && recloses >= 1,
        "breakers must open and re-close within the sweep"
    );
}
