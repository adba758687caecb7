//! Outside-in per-layer tracing: host time spent in calls to each
//! layer's public functions, read from the benchmark's own code, plus
//! the modelled counts each layer reports.

use eve_common::{Cycle, Stats};
use eve_cpu::{EngineError, VectorPlacement, VectorUnit};
use eve_isa::Retired;
use eve_mem::Hierarchy;
use eve_obs::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Host time per layer and counts, for one cell or a sum of cells.
///
/// Every entry of `ns` is a disjoint slice of the cell's wall time, so
/// the entries plus the unattributed remainder sum to the traced wall.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
    /// Host time of measurement-only work (the memory replay) that is
    /// not part of the simulated cell and is left out of its wall.
    pub excluded_ns: u64,
}

impl Layers {
    /// Runs `f`, charging its host time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add_ns(layer, elapsed_ns(t));
        r
    }

    /// Charges `ns` of host time to `layer`.
    pub fn add_ns(&mut self, layer: &'static str, ns: u64) {
        *self.ns.entry(layer).or_default() += ns;
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Adds every entry of `other` into `self`.
    pub fn merge(&mut self, other: &Layers) {
        for (&k, &v) in &other.ns {
            self.add_ns(k, v);
        }
        for (&k, &v) in &other.counts {
            self.count(k, v);
        }
        self.excluded_ns += other.excluded_ns;
    }

    /// Host time charged to `layer`, in nanoseconds.
    pub fn ns(&self, layer: &str) -> u64 {
        self.ns.get(layer).copied().unwrap_or(0)
    }

    /// The count `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Sum of every timed layer, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.values().sum()
    }
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`VectorUnit`] that times every `issue` and `drain` of the unit it
/// wraps; the core's retire time minus this is the core's own time.
#[derive(Debug)]
pub struct Timed<V> {
    /// The wrapped unit.
    pub inner: V,
    /// Host time inside `issue` and `drain`.
    pub ns: u64,
    /// `issue` calls.
    pub issues: u64,
}

impl<V> Timed<V> {
    pub fn new(inner: V) -> Self {
        Self {
            inner,
            ns: 0,
            issues: 0,
        }
    }
}

impl<V: VectorUnit> VectorUnit for Timed<V> {
    fn hw_vl(&self) -> u32 {
        self.inner.hw_vl()
    }

    fn issue(
        &mut self,
        r: &Retired,
        ready: Cycle,
        commit: Cycle,
        mem: &mut Hierarchy,
    ) -> Result<VectorPlacement, EngineError> {
        let t = Instant::now();
        let placement = self.inner.issue(r, ready, commit, mem);
        self.ns += elapsed_ns(t);
        self.issues += 1;
        placement
    }

    fn drain(&mut self, mem: &mut Hierarchy) -> Cycle {
        let t = Instant::now();
        let done = self.inner.drain(mem);
        self.ns += elapsed_ns(t);
        done
    }

    fn stats(&self) -> Stats {
        self.inner.stats()
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.inner.attach_tracer(tracer);
    }
}

/// The timed layers, in report order: `(layer, metric name)`.
const TIMED: [(&str, &str); 13] = [
    ("workloads.build", "workloads.build_ms"),
    ("isa.step", "isa.step_ms"),
    ("isa.record", "isa.record_ms"),
    ("cpu.retire", "cpu.retire_ms"),
    ("vector.issue", "vector.issue_ms"),
    ("core.issue", "core.issue_ms"),
    ("workloads.verify", "workloads.verify_ms"),
    ("sim.prepare", "sim.prepare_ms"),
    ("sim.check", "sim.check_ms"),
    ("serve.build", "serve.build_ms"),
    ("serve.run", "serve.run_ms"),
    ("serve.audit", "serve.audit_ms"),
    ("serve.report", "serve.report_ms"),
];

/// Modelled counts, reported as summed by the workloads: `(name, unit)`.
pub const MODELLED: [(&str, &str); 42] = [
    ("sim.cycles", "cycles"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.llc_misses", "count"),
    ("core.busy_cycles", "cycles"),
    ("core.vru_stall_cycles", "cycles"),
    ("core.ld_mem_stall_cycles", "cycles"),
    ("core.st_mem_stall_cycles", "cycles"),
    ("core.ld_dt_stall_cycles", "cycles"),
    ("core.st_dt_stall_cycles", "cycles"),
    ("core.vmu_stall_cycles", "cycles"),
    ("core.empty_stall_cycles", "cycles"),
    ("core.dep_stall_cycles", "cycles"),
    ("core.parity_stall_cycles", "cycles"),
    ("core.ecc_correct_stall_cycles", "cycles"),
    ("core.scrub_stall_cycles", "cycles"),
    ("core.remap_stall_cycles", "cycles"),
    ("sram.fault_events", "count"),
    ("sram.corrected", "count"),
    ("sim.retries", "count"),
    ("sim.remapped_rows", "count"),
    ("sim.ways_disabled", "count"),
    ("sim.masked_cells", "count"),
    ("sim.corrected_cells", "count"),
    ("sim.degraded_cells", "count"),
    ("sim.sdc_cells", "count"),
    ("sim.aborted_cells", "count"),
    ("sim.failed_cells", "count"),
    ("serve.dispatches", "count"),
    ("serve.steals", "count"),
    ("serve.retries", "count"),
    ("serve.failovers", "count"),
    ("serve.shed", "count"),
    ("serve.ladder_step_downs", "count"),
    ("serve.p99_sojourn_cycles", "cycles"),
    ("elastic.spawns", "count"),
    ("elastic.retires", "count"),
    ("elastic.rollbacks", "count"),
    ("net.retransmits", "count"),
    ("net.hedges", "count"),
    ("net.dedup_hits", "count"),
    ("net.wasted_executions", "count"),
];

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Every per-layer metric as `(name, unit, value)`. `traced` holds the
/// layers of each cell's fastest traced run, `wall_ns` the sum of those
/// runs' walls and `untraced_ns` the sum of the untraced twins' fastest
/// walls.
pub fn per_layer(
    traced: &Layers,
    wall_ns: u64,
    untraced_ns: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out: Vec<(&'static str, &'static str, f64)> = TIMED
        .iter()
        .map(|&(layer, name)| (name, "ms", ms(traced.ns(layer))))
        .collect();
    let c = |name: &str| traced.get(name);
    out.extend([
        ("serve.profile_ms", "ms", ms(c("serve.profile_ns"))),
        ("isa.insts", "count", c("isa.insts") as f64),
        (
            "isa.ns_per_inst",
            "ns",
            ratio(traced.ns("isa.step") as f64, c("isa.insts")),
        ),
        (
            "cpu.ns_per_inst",
            "ns",
            ratio(traced.ns("cpu.retire") as f64, c("cpu.insts")),
        ),
        ("mem.accesses", "count", c("mem.accesses") as f64),
        (
            "mem.ns_per_access",
            "ns",
            ratio(c("mem.replay_ns") as f64, c("mem.accesses")),
        ),
        ("vector.insts", "count", c("vector.insts") as f64),
        ("core.insts", "count", c("core.insts") as f64),
        (
            "core.ns_per_inst",
            "ns",
            ratio(traced.ns("core.issue") as f64, c("core.insts")),
        ),
        ("sim.checks", "count", c("sim.checks") as f64),
        (
            "sim.us_per_check",
            "us",
            ratio(traced.ns("sim.check") as f64 / 1e3, c("sim.checks")),
        ),
        ("serve.events", "count", c("serve.events") as f64),
        (
            "serve.ns_per_event",
            "ns",
            ratio(traced.ns("serve.run") as f64, c("serve.events")),
        ),
        ("obs.trace_events", "count", c("obs.trace_events") as f64),
        (
            "net.msgs_per_req",
            "ratio",
            ratio(c("net.msgs") as f64, c("serve.arrivals")),
        ),
        (
            "net.hedge_win_ratio",
            "ratio",
            ratio(c("net.hedge_wins") as f64, c("net.hedges")),
        ),
        ("net.suspicions", "count", c("net.suspicions") as f64),
    ]);
    out.extend(MODELLED.iter().map(|&(n, u)| (n, u, c(n) as f64)));
    let unattributed = wall_ns as f64 - traced.total_ns() as f64;
    out.extend([
        ("trace.wall_ms", "ms", ms(wall_ns)),
        ("trace.untraced_ms", "ms", ms(untraced_ns)),
        ("trace.unattributed_ms", "ms", unattributed / 1e6),
        (
            "trace.overhead_pct",
            "%",
            if untraced_ns == 0 {
                0.0
            } else {
                (wall_ns as f64 / untraced_ns as f64 - 1.0) * 100.0
            },
        ),
    ]);
    out
}
