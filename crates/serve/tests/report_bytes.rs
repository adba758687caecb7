//! Pins the report bytes of a grid of small cluster runs.
//!
//! The serving loop's host-side shortcuts (which events run the
//! per-event passes, how the calendar is fed) must never move a
//! simulated byte. This grid crosses pool and cluster geometries with
//! calm, storm, partition, shard-kill, bursty and elastic-phased
//! scenarios, with the transport off and lossy at 2%, 5% and 10%, and
//! compares each run's `ClusterReport::to_json` against a committed
//! fingerprint.

use eve_common::{fnv1a64, SplitMix64};
use eve_serve::{
    tenant_mix, ClusterConfig, ClusterReport, ClusterSim, ClusterTraffic, ElasticPolicy,
    FaultStorm, NetPolicy, Router, ServiceProfile, TrafficShape,
};
use eve_sim::EngineHealth;

const REPORTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/cluster_reports.txt"
);

const REGEN: &str = "EVE_UPDATE_FIXTURES=1 cargo test -p eve-serve --test report_bytes";

const REQUESTS: usize = 300;
const ENGINES_PER_SHARD: usize = 2;
const EVE_CYCLES: u64 = 2_000;
const SHAPES: [&str; 6] = [
    "calm",
    "mixed",
    "partition",
    "shardkill",
    "bursty",
    "phased",
];
const LOSS_PCT: [Option<u8>; 4] = [None, Some(2), Some(5), Some(10)];

/// One grid cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    shards: usize,
    shape: &'static str,
    loss_pct: Option<u8>,
    /// A one-shard pool whose first engine boots degraded.
    pool: bool,
    storm_seed: u64,
    cluster_seed: u64,
    traffic_seed: u64,
}

impl Cell {
    fn label(&self) -> String {
        let net = self
            .loss_pct
            .map_or("direct".into(), |p| format!("lossy{p}"));
        let geometry = if self.pool {
            "pool".into()
        } else {
            format!("s{}", self.shards)
        };
        format!("{geometry}/{}/{net}", self.shape)
    }
}

/// The grid, with every cell's seeds drawn in grid order from one
/// stream.
fn cells() -> Vec<Cell> {
    let mut seeder = SplitMix64::new(0x5EED_C1A5);
    let mut cell = |shards, shape, loss_pct, pool| Cell {
        shards,
        shape,
        loss_pct,
        pool,
        storm_seed: seeder.next_u64(),
        cluster_seed: seeder.next_u64(),
        traffic_seed: seeder.next_u64(),
    };
    let mut out = Vec::new();
    for loss in [None, Some(5)] {
        out.push(cell(1, "mixed", loss, true));
    }
    for shards in [2, 4] {
        for shape in SHAPES {
            for loss in LOSS_PCT {
                out.push(cell(shards, shape, loss, false));
            }
        }
    }
    out
}

fn run(cell: Cell) -> ClusterReport {
    // Arrivals sparser than heartbeats, as in the benchmark grids, so
    // liveness traffic fills the gaps between requests.
    let mean_gap = 3 * EVE_CYCLES;
    let horizon = REQUESTS as u64 * mean_gap;
    let cfg = ClusterConfig {
        shards: cell.shards,
        engines_per_shard: ENGINES_PER_SHARD,
        elastic: ElasticPolicy {
            enabled: cell.shape == "phased",
            min_engines: 1,
            max_engines: ENGINES_PER_SHARD + 2,
            // Low enough that the burst spawns before admission sheds
            // on deadline.
            scale_up_backlog: 0.2,
            dwell: 4_000,
            ..ElasticPolicy::default()
        },
        net: cell.loss_pct.map_or(NetPolicy::default(), |p| {
            NetPolicy::lossy(f64::from(p) / 100.0)
        }),
        seed: cell.cluster_seed,
        ..ClusterConfig::default()
    };
    let keys = ClusterTraffic::default().keys;
    let victim = cfg.shards - 1;
    let hot = Router::new(cfg.seed, cfg.shards, cfg.vnodes)
        .key_for_shard(victim, keys)
        .unwrap_or(0);
    let engines = cfg.shards * cfg.slots_per_shard();
    let storm = match cell.shape {
        "mixed" => FaultStorm::synth(cell.storm_seed, engines, horizon, 1.0),
        "partition" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5)
            .merged(FaultStorm::partition(victim, horizon / 4, horizon / 4)),
        "shardkill" => FaultStorm::hot_key(hot, horizon / 4, horizon / 2).merged(
            FaultStorm::kill_shard(victim, cfg.engines_per_shard, horizon * 3 / 8),
        ),
        "bursty" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5),
        _ => FaultStorm::none(),
    };
    let shape = match cell.shape {
        "bursty" => TrafficShape::Bursty {
            burst: 24,
            quiet: 72,
            gain: 8,
        },
        "phased" => TrafficShape::Phased {
            lead: REQUESTS as u64 / 4,
            burst: REQUESTS as u64 / 2,
            gain: 16,
        },
        _ => TrafficShape::Uniform,
    };
    let traffic = ClusterTraffic {
        requests: REQUESTS,
        mean_gap,
        shape,
        tenants: tenant_mix(if cell.pool { 1 } else { 3 }),
        seed: cell.traffic_seed,
        ..ClusterTraffic::default()
    };
    let profile = ServiceProfile::synthetic(3, EVE_CYCLES, 4 * EVE_CYCLES, cfg.slots_per_shard());
    let sim = ClusterSim::new(cfg, profile, traffic, storm).expect("grid cells are valid");
    let sim = if cell.pool {
        let degraded = EngineHealth {
            degraded: true,
            ..EngineHealth::default()
        };
        sim.with_initial_health(&[degraded])
    } else {
        sim
    };
    sim.run()
}

/// Every cell's label, arrivals, completions and report hash match the
/// committed fixture; a mismatch prints the run's JSON.
#[test]
fn cluster_reports_match_the_pinned_bytes() {
    let mut got = String::from("# cell arrivals completed fnv1a64(to_json)\n");
    let mut runs = Vec::new();
    for cell in cells() {
        let r = run(cell);
        let json = r.to_json().to_compact();
        let line = format!(
            "{} {} {} {:016x}",
            cell.label(),
            r.arrivals,
            r.completed_eve + r.completed_fallback,
            fnv1a64(json.as_bytes())
        );
        got.push_str(&line);
        got.push('\n');
        runs.push((line, json));
    }
    if std::env::var_os("EVE_UPDATE_FIXTURES").is_some() {
        std::fs::write(REPORTS, &got).expect("fixture writes");
        return;
    }
    let want = std::fs::read_to_string(REPORTS)
        .unwrap_or_else(|_| panic!("missing fixture {REPORTS}; regenerate with: {REGEN}"));
    let want: Vec<&str> = want.lines().filter(|l| !l.starts_with('#')).collect();
    let mut mismatches = 0;
    for (i, (line, json)) in runs.iter().enumerate() {
        if want.get(i) != Some(&line.as_str()) {
            mismatches += 1;
            eprintln!("want {:?}\n got {line}\n{json}\n", want.get(i));
        }
    }
    assert!(
        mismatches == 0 && want.len() == runs.len(),
        "{mismatches} of {} reports differ from {REPORTS} ({} pinned); \
         if intentional, regenerate with: {REGEN}",
        runs.len(),
        want.len()
    );
}
