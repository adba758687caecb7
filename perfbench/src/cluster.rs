//! `cluster_direct` and `cluster_lossy`: a `cluster_campaign`-style grid
//! of shards × tenants × storm and traffic shapes, plus phased traffic
//! under the elastic controller, with the transport off or lossy.

use crate::layers::{elapsed_ns, Layers};
use crate::{Bench, Modelled, Tally};
use eve_common::SplitMix64;
use eve_obs::Tracer;
use eve_serve::{
    audit_cluster, tenant_mix, ClusterConfig, ClusterReport, ClusterSim, ClusterTraffic,
    ElasticPolicy, FaultStorm, NetPolicy, Router, ServiceProfile, TrafficShape,
};
use eve_sim::{Runner, SystemKind};
use eve_workloads::Workload;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Engine factor and engines per shard, as `cluster_campaign` runs them.
const FACTOR: u32 = 8;
const ENGINES_PER_SHARD: usize = 4;
const SHARDS: [usize; 2] = [2, 4];
const TENANTS: [usize; 2] = [1, 3];
/// The storm and traffic shapes of `cluster_campaign`; `phased` runs
/// with the elastic controller on.
const SHAPES: [&str; 9] = [
    "calm",
    "mixed",
    "partition",
    "hotkey",
    "shardkill",
    "diurnal",
    "bursty",
    "keystorm",
    "phased",
];
/// Loss rates of the lossy grid: the documented sweep points where
/// availability falls to 0.977 and 0.952.
const LOSS_PCT: [u8; 2] = [2, 5];
/// Arrivals per cell and copies of the grid (each with fresh seeds) per
/// pass. A lossy request costs ~25× a direct one; every cell stays far
/// below the tracer's 1M-event cap (a 200k-request lossy cell emits
/// 1.03M events), so run length comes from cell count. Direct cells
/// emit ~4 events per arrival; at 2.5k arrivals every cell's trace
/// stays inside one buffer doubling, so the largest cell, which sets
/// `peak_rss_mb`, does not change size with the seed.
const DIRECT: (usize, usize) = (2_500, 48);
const LOSSY: (usize, usize) = (1_500, 2);

#[derive(Debug, Clone, Copy)]
struct Cell {
    shards: usize,
    tenants: usize,
    shape: &'static str,
    loss_pct: Option<u8>,
    storm_seed: u64,
    cluster_seed: u64,
    traffic_seed: u64,
}

/// What one cell produced, compared exactly between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOut {
    /// Hash of the compact `ClusterReport::to_json` bytes; holding a
    /// thousand reports would put the benchmark's own memory into
    /// `peak_rss_mb`.
    json_hash: u64,
    audited_events: u64,
    trace_events: u64,
    report: Summary,
}

/// The report fields the metrics use.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    arrivals: u64,
    served_ok: u64,
    completed: u64,
    availability: f64,
    sdc: u64,
    double_applied: u64,
    net_enabled: bool,
    dispatches: u64,
    steals: u64,
    retries: u64,
    failovers: u64,
    shed: u64,
    step_downs: u64,
    p99_sojourn: u64,
    spawns: u64,
    retires: u64,
    rollbacks: u64,
    retransmits: u64,
    hedges: u64,
    hedge_wins: u64,
    dedup_hits: u64,
    wasted: u64,
    suspicions: u64,
    msgs: u64,
}

impl Summary {
    fn of(r: &ClusterReport) -> Self {
        let msgs = r
            .links
            .iter()
            .map(|l| l.req.sent + l.resp.sent + l.cancel.sent + l.heartbeat.sent + l.ack.sent)
            .sum();
        Self {
            arrivals: r.arrivals,
            served_ok: r.tenants.iter().map(|t| t.served_ok).sum(),
            completed: r.completed_eve + r.completed_fallback,
            availability: r.availability,
            sdc: r.sdc,
            double_applied: r.net.double_applied,
            net_enabled: r.net_enabled,
            dispatches: r.dispatches,
            steals: r.steals,
            retries: r.retries,
            failovers: r.failovers,
            shed: r.shed(),
            step_downs: r.step_downs(),
            p99_sojourn: r.p99_sojourn,
            spawns: r.elastic_spawns,
            retires: r.elastic_retires,
            rollbacks: r.elastic_spawn_rollbacks + r.elastic_retire_rollbacks,
            retransmits: r.net.retransmits,
            hedges: r.net.hedges,
            hedge_wins: r.net.hedge_wins,
            dedup_hits: r.net.dedup_hits,
            wasted: r.wasted_executions,
            suspicions: r.net.suspicions,
            msgs,
        }
    }
}

pub struct Cluster {
    profile: ServiceProfile,
    /// Host time of `ServiceProfile::measured` in this set-up.
    profile_ns: u64,
    /// Mean EVE-8 dynamic instructions of the profiled kernels: the
    /// simulated instructions one arrival stands for.
    insts_per_request: u64,
    requests: usize,
    lossy: bool,
    cells: Vec<Cell>,
}

impl Bench for Cluster {
    type Out = Result<ClusterOut, String>;

    /// Measures the service profile over the tiny suite (EVE-8 and
    /// O3+DV per kernel plus the contention sweep), counts the kernels'
    /// EVE-8 instructions, and derives every cell's seeds serially from
    /// `seed` in grid order.
    fn setup(workload: &str, seed: u64) -> Result<Self, String> {
        let lossy = workload == "cluster_lossy";
        let workloads = Workload::tiny_suite();
        let t = Instant::now();
        let profile = ServiceProfile::measured(FACTOR, &workloads, ENGINES_PER_SHARD)
            .map_err(|e| format!("profile: {e}"))?;
        let profile_ns = elapsed_ns(t);
        let runner = Runner::new();
        let mut insts = 0u64;
        for w in &workloads {
            insts += runner
                .run(SystemKind::EveN(FACTOR), w)
                .map_err(|e| format!("{}: {e}", w.name()))?
                .dyn_insts;
        }
        let losses: Vec<Option<u8>> = if lossy {
            LOSS_PCT.iter().map(|&p| Some(p)).collect()
        } else {
            vec![None]
        };
        let (requests, grids) = if lossy { LOSSY } else { DIRECT };
        let mut seeder = SplitMix64::new(seed);
        let mut cells = Vec::new();
        for _ in 0..grids {
            for &shards in &SHARDS {
                for &tenants in &TENANTS {
                    for &shape in &SHAPES {
                        for &loss_pct in &losses {
                            cells.push(Cell {
                                shards,
                                tenants,
                                shape,
                                loss_pct,
                                storm_seed: seeder.next_u64(),
                                cluster_seed: seeder.next_u64(),
                                traffic_seed: seeder.next_u64(),
                            });
                        }
                    }
                }
            }
        }
        Ok(Self {
            profile,
            profile_ns,
            insts_per_request: insts / workloads.len() as u64,
            requests,
            lossy,
            cells,
        })
    }

    fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn run(&self, i: usize) -> Self::Out {
        self.run_cell(self.cells[i], None)
    }

    fn run_traced(&self, i: usize, t: &mut Layers) -> Self::Out {
        self.run_cell(self.cells[i], Some(t))
    }

    fn tally(&self, out: &Self::Out) -> Tally {
        match out {
            Ok(o) => Tally {
                failed: false,
                insts: o.report.arrivals * self.insts_per_request,
                reqs: o.report.arrivals,
            },
            Err(_) => Tally {
                failed: true,
                insts: 0,
                reqs: self.requests as u64,
            },
        }
    }

    fn check(&self, outs: &[Self::Out]) -> Result<Modelled, String> {
        let mut arrivals = 0u64;
        let mut served_ok = 0u64;
        let mut completed = 0u64;
        let mut sdc = 0u64;
        let mut avail = 0.0;
        let mut net_msgs = 0u64;
        for (cell, out) in self.cells.iter().zip(outs) {
            let what = format!(
                "{} shards, {} tenants, {}{}",
                cell.shards,
                cell.tenants,
                cell.shape,
                cell.loss_pct
                    .map(|p| format!(", {p}% loss"))
                    .unwrap_or_default()
            );
            let s = &out.as_ref().map_err(|e| format!("{what}: {e}"))?.report;
            if s.sdc > 0 || s.double_applied > 0 {
                return Err(format!(
                    "{what}: {} SDCs, {} double-applied",
                    s.sdc, s.double_applied
                ));
            }
            if s.net_enabled != self.lossy {
                return Err(format!("{what}: transport enabled = {}", s.net_enabled));
            }
            arrivals += s.arrivals;
            served_ok += s.served_ok;
            completed += s.completed;
            sdc += s.sdc;
            avail += s.availability;
            net_msgs += s.msgs;
        }
        if !self.lossy && net_msgs > 0 {
            return Err(format!("direct grid sent {net_msgs} transport messages"));
        }
        let availability = avail / outs.len() as f64;
        println!(
            "{}: {} cells × {} requests: served_ok share {:.4}, mean availability {availability:.4}, \
             0 SDCs, 0 double-applied, {net_msgs} transport messages",
            if self.lossy { "cluster_lossy" } else { "cluster_direct" },
            outs.len(),
            self.requests,
            served_ok as f64 / arrivals.max(1) as f64
        );
        Ok(Modelled {
            fig6_gap_pct: crate::NO_FIG6_GAP,
            served_ok_share: served_ok as f64 / arrivals.max(1) as f64,
            fault_availability: availability,
            sdc_free_share: 1.0 - sdc as f64 / completed.max(1) as f64,
        })
    }

    fn counts(&self, outs: &[Self::Out], t: &mut Layers) {
        t.count("serve.profile_ns", self.profile_ns);
        let mut p99 = 0;
        for s in outs.iter().flatten().map(|o| &o.report) {
            t.count("serve.arrivals", s.arrivals);
            t.count("serve.dispatches", s.dispatches);
            t.count("serve.steals", s.steals);
            t.count("serve.retries", s.retries);
            t.count("serve.failovers", s.failovers);
            t.count("serve.shed", s.shed);
            t.count("serve.ladder_step_downs", s.step_downs);
            t.count("elastic.spawns", s.spawns);
            t.count("elastic.retires", s.retires);
            t.count("elastic.rollbacks", s.rollbacks);
            t.count("net.msgs", s.msgs);
            t.count("net.retransmits", s.retransmits);
            t.count("net.hedges", s.hedges);
            t.count("net.hedge_wins", s.hedge_wins);
            t.count("net.dedup_hits", s.dedup_hits);
            t.count("net.wasted_executions", s.wasted);
            t.count("net.suspicions", s.suspicions);
            p99 = p99.max(s.p99_sojourn);
        }
        t.count("serve.p99_sojourn_cycles", p99);
    }
}

/// Runs `f`, charging it to `layer` when traced.
fn lap<R>(t: &mut Option<&mut Layers>, layer: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.time(layer, f),
        None => f(),
    }
}

impl Cluster {
    /// One cell: `ClusterSim::new` → `with_tracer` → `run` →
    /// `audit_cluster` → `ClusterReport::to_json`, timed per call when
    /// `t` is given.
    fn run_cell(&self, cell: Cell, mut t: Option<&mut Layers>) -> Result<ClusterOut, String> {
        let mean_gap = self.profile.mean_eve_cycles();
        let horizon = self.requests as u64 * mean_gap;
        let cfg = ClusterConfig {
            shards: cell.shards,
            engines_per_shard: ENGINES_PER_SHARD,
            elastic: ElasticPolicy {
                enabled: cell.shape == "phased",
                min_engines: 1,
                max_engines: ENGINES_PER_SHARD + 2,
                ..ElasticPolicy::default()
            },
            net: match cell.loss_pct {
                Some(p) => NetPolicy::lossy(f64::from(p) / 100.0),
                None => NetPolicy::default(),
            },
            seed: cell.cluster_seed,
            ..ClusterConfig::default()
        };
        let keys = ClusterTraffic::default().keys;
        let traffic = ClusterTraffic {
            requests: self.requests,
            mean_gap,
            shape: traffic_shape(cell, &cfg, keys, horizon, self.requests),
            deadline_slack: 6.0,
            tenants: tenant_mix(cell.tenants),
            seed: cell.traffic_seed,
            ..ClusterTraffic::default()
        };
        let storm = build_storm(cell, &cfg, keys, horizon);
        let tracer = Tracer::new();
        let sim = lap(&mut t, "serve.build", || {
            ClusterSim::new(cfg, self.profile.clone(), traffic, storm)
                .map(|sim| sim.with_tracer(&tracer))
        })
        .map_err(|e| e.to_string())?;
        let report = lap(&mut t, "serve.run", || sim.run());
        let audit = lap(&mut t, "serve.audit", || audit_cluster(&tracer, &report))
            .map_err(|e| format!("audit: {e}"))?;
        let json = lap(&mut t, "serve.report", || report.to_json().to_compact());
        let mut hasher = DefaultHasher::new();
        json.hash(&mut hasher);
        if let Some(t) = t {
            t.count("serve.events", audit.events as u64);
            t.count("obs.trace_events", tracer.len() as u64);
        }
        Ok(ClusterOut {
            json_hash: hasher.finish(),
            audited_events: audit.events as u64,
            trace_events: tracer.len() as u64,
            report: Summary::of(&report),
        })
    }
}

/// The cell's fault storm, aimed at the last shard; hot keys are found
/// by probing the same seeded ring the simulation builds.
fn build_storm(cell: Cell, cfg: &ClusterConfig, keys: u64, horizon: u64) -> FaultStorm {
    let engines = cfg.shards * cfg.slots_per_shard();
    let victim = cfg.shards - 1;
    let ring = Router::new(cfg.seed, cfg.shards, cfg.vnodes);
    let hot = ring.key_for_shard(victim, keys).unwrap_or(0);
    match cell.shape {
        "mixed" => FaultStorm::synth(cell.storm_seed, engines, horizon, 1.0),
        "partition" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5)
            .merged(FaultStorm::partition(victim, horizon / 4, horizon / 4)),
        "hotkey" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5)
            .merged(FaultStorm::hot_key(hot, horizon / 4, horizon / 2)),
        "shardkill" => FaultStorm::hot_key(hot, horizon / 4, horizon / 2).merged(
            FaultStorm::kill_shard(victim, cfg.engines_per_shard, horizon * 3 / 8),
        ),
        "diurnal" | "bursty" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5),
        _ => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.0),
    }
}

/// The cell's arrival process; fault-storm shapes keep uniform arrivals.
fn traffic_shape(
    cell: Cell,
    cfg: &ClusterConfig,
    keys: u64,
    horizon: u64,
    requests: usize,
) -> TrafficShape {
    match cell.shape {
        "diurnal" => TrafficShape::Diurnal {
            period: (horizon / 2).max(2),
        },
        "phased" => TrafficShape::Phased {
            lead: requests as u64 / 4,
            burst: requests as u64 / 2,
            gain: 4,
        },
        "bursty" => TrafficShape::Bursty {
            burst: 24,
            quiet: 72,
            gain: 8,
        },
        "keystorm" => {
            let ring = Router::new(cfg.seed, cfg.shards, cfg.vnodes);
            TrafficShape::HotKeyStorm {
                key: ring.key_for_shard(cfg.shards - 1, keys).unwrap_or(0),
                every: (horizon / 2).max(1),
                duration: (horizon / 4).max(1),
            }
        }
        _ => TrafficShape::Uniform,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With small cells, the traced twin reproduces the untraced report
    /// bytes on both grids, and the transport counters are exactly zero
    /// on the direct grid and nonzero on the lossy one.
    #[test]
    fn traced_cells_match_the_cluster_report() {
        for workload in ["cluster_direct", "cluster_lossy"] {
            let mut bench = Cluster::setup(workload, 7).unwrap();
            bench.requests = 150;
            let mut msgs = 0;
            for i in (0..bench.cell_count()).step_by(5) {
                let untraced = bench.run(i).unwrap();
                let mut t = Layers::default();
                let traced = bench.run_traced(i, &mut t).unwrap();
                assert_eq!(traced, untraced, "{workload} cell {i}");
                assert_eq!(t.get("serve.events"), untraced.audited_events);
                msgs += untraced.report.msgs;
            }
            assert_eq!(msgs > 0, workload == "cluster_lossy");
        }
    }
}
