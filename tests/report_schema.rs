//! Golden-snapshot test locking the [`RunReport::to_json`] schema.
//!
//! The serialized report is the repo's stable external surface — the
//! bench bins, the trace exporter, and downstream plotting all read
//! it. Any key added, removed, renamed, or reordered must show up
//! here as a conscious fixture regeneration, not a silent drift.

use eve::serve::{
    ClusterConfig, ClusterSim, ClusterTraffic, ElasticPolicy, FaultStorm, NetPolicy, ServiceProfile,
};
use eve_common::json::JsonValue;
use eve_obs::Tracer;
use eve_sim::{Runner, SystemKind};
use eve_workloads::Workload;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/report_schema.json"
);

const REGEN: &str = "EVE_UPDATE_FIXTURES=1 cargo test --test report_schema";

/// A small deterministic elastic cluster run: pins the
/// `ClusterReport` schema including the elastic counter block and the
/// reconfiguration event ledger.
fn cluster_elastic() -> JsonValue {
    let cfg = ClusterConfig {
        shards: 2,
        engines_per_shard: 1,
        elastic: ElasticPolicy {
            enabled: true,
            min_engines: 1,
            max_engines: 3,
            scale_up_backlog: 0.2,
            scale_down_backlog: 0.05,
            dwell: 4_000,
            ..ElasticPolicy::default()
        },
        seed: 11,
        ..ClusterConfig::default()
    };
    let traffic = ClusterTraffic {
        requests: 250,
        mean_gap: 300,
        seed: 5,
        ..ClusterTraffic::default()
    };
    let profile = ServiceProfile::synthetic(3, 1_000, 4_000, 3);
    ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
        .expect("valid elastic snapshot config")
        .run()
        .to_json()
}

/// A small deterministic run over the lossy interconnect, with a
/// mid-run partition so the detector history, the per-link ledgers,
/// and every `net` counter are pinned in their populated shape.
fn cluster_net() -> JsonValue {
    let cfg = ClusterConfig {
        shards: 2,
        engines_per_shard: 2,
        net: NetPolicy {
            duplicate: 0.1,
            ..NetPolicy::lossy(0.05)
        },
        seed: 11,
        ..ClusterConfig::default()
    };
    let traffic = ClusterTraffic {
        requests: 250,
        mean_gap: 300,
        seed: 5,
        ..ClusterTraffic::default()
    };
    let horizon = 250 * 300;
    let profile = ServiceProfile::synthetic(3, 1_000, 4_000, 2);
    ClusterSim::new(
        cfg,
        profile,
        traffic,
        FaultStorm::partition(1, horizon / 3, horizon / 6),
    )
    .expect("valid net snapshot config")
    .run()
    .to_json()
}

/// One deterministic document covering both report shapes: a scalar
/// run (null breakdown), a traced EVE run (every section filled), and
/// a traced second-wave kernel (cross-element-heavy scan) so the
/// schema is pinned for the expanded workload suite too; plus an
/// elastic cluster report pinning the serving-layer schema and a
/// lossy-transport cluster report pinning the net counter block.
fn snapshot() -> String {
    let w = Workload::vvadd(512);
    let io = Runner::new().run(SystemKind::Io, &w).unwrap();
    let tracer = Tracer::new();
    let eve = Runner::with_tracer(&tracer)
        .run(SystemKind::EveN(8), &w)
        .unwrap();
    let scan_tracer = Tracer::new();
    let scan = Runner::with_tracer(&scan_tracer)
        .run(SystemKind::EveN(8), &Workload::Scan { n: 260 })
        .unwrap();
    let doc = JsonValue::object([
        ("io", io.to_json()),
        ("eve8_traced", eve.to_json()),
        ("scan_traced", scan.to_json()),
        ("cluster_elastic", cluster_elastic()),
        ("cluster_net", cluster_net()),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

#[test]
fn report_json_matches_the_checked_in_fixture() {
    let got = snapshot();
    // The snapshot must itself be valid JSON (the parser is the same
    // one trace_run uses to self-validate exports).
    JsonValue::parse(&got).expect("snapshot parses");

    if std::env::var_os("EVE_UPDATE_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &got).expect("fixture writes");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|_| panic!("missing fixture {FIXTURE}; regenerate with: {REGEN}"));
    assert_eq!(
        got, want,
        "RunReport JSON schema changed; if intentional, regenerate with: {REGEN}"
    );
}
