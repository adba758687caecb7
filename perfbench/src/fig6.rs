//! `fig6_matrix`: every Fig 6 system on a fixed subset of the Table IV
//! kernels through `Runner::run`, with a traced twin driven through the
//! same public pieces `Runner::run` uses.

use crate::layers::{elapsed_ns, Layers, Timed};
use crate::{Bench, Modelled, Tally};
use eve_common::{Cycle, SplitMix64, Stats};
use eve_core::{EveEngine, StallBreakdown};
use eve_cpu::{EngineError, IoCore, NoVector, O3Core, VectorUnit, CODE_BASE};
use eve_isa::{Characterization, Interpreter, MemEffect, Program, Retired};
use eve_mem::{Hierarchy, HierarchyConfig, Level, LINE_BYTES};
use eve_sim::{Runner, SystemKind};
use eve_vector::{DecoupledVector, IntegratedVector};
use eve_workloads::{Built, Workload};
use std::time::Instant;

/// The kernels the matrix runs. kmeans is the scalar-dominated kernel
/// and histogram the EVE-dominated one; vvadd and pathfinder bring the
/// paper's kernels to three. mmult (21 s of the full 56 s matrix),
/// jacobi-2d, backprop, sw and the second-wave kernels are left out so
/// a pass takes ~5 s on one core and four to six passes fit in a run.
pub const KERNELS: [&str; 4] = ["vvadd", "kmeans", "pathfinder", "histogram"];

/// The paper's seven Fig 6 kernels.
const PAPER_KERNELS: [&str; 7] = [
    "vvadd",
    "mmult",
    "kmeans",
    "pathfinder",
    "jacobi-2d",
    "backprop",
    "sw",
];

/// The paper's geomean speedups over IO (§VI, Fig 6).
const PAPER_GEOMEANS: [(SystemKind, f64); 3] = [
    (SystemKind::O3Iv, 5.58),
    (SystemKind::O3Dv, 21.58),
    (SystemKind::EveN(8), 25.60),
];

/// Instructions the interpreter runs ahead of the core per traced
/// chunk; clocks are read per chunk, not per instruction.
const CHUNK: usize = 4096;

/// What one cell produced, compared exactly between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    pub cycles: u64,
    pub dyn_insts: u64,
    pub wall_ps: u64,
    pub stats: Stats,
    pub chars: Characterization,
    pub breakdown: Option<StallBreakdown>,
}

impl CellOut {
    fn from_report(r: &eve_sim::RunReport) -> Self {
        Self {
            cycles: r.cycles.0,
            dyn_insts: r.dyn_insts,
            wall_ps: r.wall_ps.0,
            stats: r.stats.clone(),
            chars: r.characterization.clone(),
            breakdown: r.breakdown,
        }
    }
}

/// The matrix: `(kernel, system)` cells in seed-shuffled order.
pub struct Fig6 {
    cells: Vec<(Workload, SystemKind)>,
}

/// The suite kernels named in [`KERNELS`] at their `Workload::suite()`
/// inputs, except kmeans at half the points: that halves its cells,
/// which were 70% of the pass, while every system's speedup over IO
/// stays within 2% of the full input's.
pub fn kernels() -> Vec<Workload> {
    Workload::suite()
        .into_iter()
        .filter(|w| KERNELS.contains(&w.name()))
        .map(|w| match w {
            Workload::Kmeans {
                points,
                features,
                clusters,
            } => Workload::Kmeans {
                points: points / 2,
                features,
                clusters,
            },
            other => other,
        })
        .collect()
}

impl Bench for Fig6 {
    type Out = Result<CellOut, String>;

    /// Runs the tiny-suite matrix once as a smoke test (every system on
    /// every kernel must verify) and shuffles the cells by `seed`. Cells
    /// are independent — caches start empty in each — so the order
    /// changes no simulated result, which every pass re-checks.
    fn setup(_workload: &str, seed: u64) -> Result<Self, String> {
        let runner = Runner::new();
        for w in Workload::tiny_suite() {
            for sys in SystemKind::all() {
                runner
                    .run(sys, &w)
                    .map_err(|e| format!("tiny {sys} on {}: {e}", w.name()))?;
            }
        }
        let mut cells: Vec<(Workload, SystemKind)> = kernels()
            .into_iter()
            .flat_map(|w| SystemKind::all().into_iter().map(move |s| (w, s)))
            .collect();
        let mut rng = SplitMix64::new(seed);
        for i in (1..cells.len()).rev() {
            cells.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        Ok(Self { cells })
    }

    fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn run(&self, i: usize) -> Self::Out {
        let (w, sys) = self.cells[i];
        Runner::new()
            .run(sys, &w)
            .map(|r| CellOut::from_report(&r))
            .map_err(|e| e.to_string())
    }

    fn run_traced(&self, i: usize, t: &mut Layers) -> Self::Out {
        let (w, sys) = self.cells[i];
        traced_cell(sys, &w, t)
    }

    fn tally(&self, out: &Self::Out) -> Tally {
        match out {
            Ok(c) => Tally {
                failed: false,
                insts: c.dyn_insts,
                reqs: 1,
            },
            Err(_) => Tally {
                failed: true,
                insts: 0,
                reqs: 1,
            },
        }
    }

    fn check(&self, outs: &[Self::Out]) -> Result<Modelled, String> {
        let mut by_cell = Vec::with_capacity(outs.len());
        for (&(w, sys), out) in self.cells.iter().zip(outs) {
            let c = out
                .as_ref()
                .map_err(|e| format!("{sys} on {}: {e}", w.name()))?;
            by_cell.push((w.name(), sys, c));
        }
        let wall = |k: &str, s: SystemKind| {
            by_cell
                .iter()
                .find(|(n, sy, _)| *n == k && *sy == s)
                .map(|(_, _, c)| c.wall_ps as f64)
        };
        let geomean = |sys: SystemKind, paper_only: bool| -> f64 {
            let logs: Vec<f64> = KERNELS
                .iter()
                .filter(|k| !paper_only || PAPER_KERNELS.contains(k))
                .filter_map(|k| Some((wall(k, SystemKind::Io)? / wall(k, sys)?).ln()))
                .collect();
            (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
        };
        let paper: Vec<&str> = KERNELS
            .iter()
            .copied()
            .filter(|k| PAPER_KERNELS.contains(k))
            .collect();
        println!(
            "fig6_matrix geomean speedup over IO ({} of the paper's kernels: {}; all {} kernels)",
            paper.len(),
            paper.join(", "),
            KERNELS.len()
        );
        let mut gap_sum = 0.0;
        for sys in SystemKind::all() {
            let sim = geomean(sys, true);
            let reference = PAPER_GEOMEANS.iter().find(|(s, _)| *s == sys);
            let vs_paper = match reference {
                Some(&(_, p)) => {
                    let err = (sim / p - 1.0) * 100.0;
                    gap_sum += err.abs();
                    format!("paper {p:>6.2}x  error {err:+6.1}%")
                }
                None => String::new(),
            };
            println!(
                "  {:<7} {:>6.2}x  (all kernels {:>6.2}x)  {vs_paper}",
                sys.to_string(),
                sim,
                geomean(sys, false)
            );
        }
        Ok(Modelled {
            fig6_gap_pct: gap_sum / PAPER_GEOMEANS.len() as f64,
            served_ok_share: 1.0,
            fault_availability: 1.0,
            sdc_free_share: 1.0,
        })
    }

    fn counts(&self, outs: &[Self::Out], t: &mut Layers) {
        for c in outs.iter().flatten() {
            t.count("sim.cycles", c.cycles);
            count_stats(&c.stats, c.breakdown.as_ref(), t);
        }
    }
}

/// Adds a run's memory misses and Fig 7 buckets to the modelled counts.
pub fn count_stats(stats: &Stats, breakdown: Option<&StallBreakdown>, t: &mut Layers) {
    t.count("mem.l1d_misses", stats.get("l1d.misses"));
    t.count("mem.l2_misses", stats.get("l2.misses"));
    t.count("mem.llc_misses", stats.get("llc.misses"));
    if let Some(b) = breakdown {
        for (bucket, cycles) in b.entries() {
            t.count(bucket_metric(bucket), cycles.0);
        }
    }
}

fn bucket_metric(bucket: &str) -> &'static str {
    match bucket {
        "busy" => "core.busy_cycles",
        "vru_stall" => "core.vru_stall_cycles",
        "ld_mem_stall" => "core.ld_mem_stall_cycles",
        "st_mem_stall" => "core.st_mem_stall_cycles",
        "ld_dt_stall" => "core.ld_dt_stall_cycles",
        "st_dt_stall" => "core.st_dt_stall_cycles",
        "vmu_stall" => "core.vmu_stall_cycles",
        "empty_stall" => "core.empty_stall_cycles",
        "dep_stall" => "core.dep_stall_cycles",
        "parity_stall" => "core.parity_stall_cycles",
        "ecc_correct_stall" => "core.ecc_correct_stall_cycles",
        "scrub_stall" => "core.scrub_stall_cycles",
        "remap_stall" => "core.remap_stall_cycles",
        other => panic!("unknown Fig 7 bucket {other}"),
    }
}

/// The two core models behind one retire interface, with the host time
/// their vector unit spent.
trait Core {
    fn retire(&mut self, r: &Retired) -> Result<(), EngineError>;
    fn finish(&mut self) -> Cycle;
    fn stats(&self) -> Stats;
    /// Host time and issue count of the attached vector unit.
    fn unit(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Core for IoCore {
    fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        IoCore::retire(self, r)
    }
    fn finish(&mut self) -> Cycle {
        IoCore::finish(self)
    }
    fn stats(&self) -> Stats {
        IoCore::stats(self)
    }
}

impl<V: VectorUnit> Core for O3Core<Timed<V>> {
    fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        O3Core::retire(self, r)
    }
    fn finish(&mut self) -> Cycle {
        O3Core::finish(self)
    }
    fn stats(&self) -> Stats {
        O3Core::stats(self)
    }
    fn unit(&self) -> (u64, u64) {
        (self.vector_unit().ns, self.vector_unit().issues)
    }
}

/// Replays a scalar cell's load/store/fetch stream into a standalone
/// Table III hierarchy to estimate `Hierarchy::access`'s host cost —
/// the cores own theirs, so it cannot be timed in place. Loads block a
/// synthetic in-order clock; the replay is excluded from the cell wall.
struct Replay {
    h: Hierarchy,
    now: Cycle,
    /// IO fetches on every I-cache line change; O3 on every 16th inst.
    io: bool,
    line: u64,
    accesses: u64,
    ns: u64,
}

impl Replay {
    fn new(io: bool) -> Self {
        Self {
            h: Hierarchy::new(HierarchyConfig::table_iii()),
            now: Cycle::ZERO,
            io,
            line: u64::MAX,
            accesses: 0,
            ns: 0,
        }
    }

    fn feed(&mut self, chunk: &[Retired]) {
        let t = Instant::now();
        for r in chunk {
            let fetch = CODE_BASE + u64::from(r.pc) * 4;
            let fetches = if self.io {
                let line = fetch / LINE_BYTES;
                std::mem::replace(&mut self.line, line) != line
            } else {
                r.seq.is_multiple_of(16)
            };
            if fetches {
                self.access(Level::L1I, fetch, false);
            }
            if let MemEffect::Scalar { addr, store, .. } = r.mem {
                self.access(Level::L1D, addr, store);
            }
            self.now += Cycle(1);
        }
        self.ns += elapsed_ns(t);
    }

    fn access(&mut self, level: Level, addr: u64, store: bool) {
        let a = self.h.access(level, addr, store, self.now);
        if !store {
            self.now = self.now.max(a.complete);
        }
        self.accesses += 1;
    }
}

/// Interprets `prog` in chunks and retires each chunk through `core`,
/// charging interpretation, characterization and retirement separately.
/// Returns the core's cycle count, the interpreter and the mix.
fn drive<C: Core>(
    prog: &Program,
    built: &Built,
    hw_vl: u32,
    core: &mut C,
    mut replay: Option<&mut Replay>,
    t: &mut Layers,
) -> Result<(Cycle, Interpreter, Characterization), String> {
    let mut interp = Interpreter::new(prog.clone(), built.memory.clone(), hw_vl);
    let mut chars = Characterization::new();
    let mut buf: Vec<Retired> = Vec::with_capacity(CHUNK);
    let mut retired = 0u64;
    loop {
        buf.clear();
        let t0 = Instant::now();
        let mut halted = false;
        while buf.len() < CHUNK {
            match interp.step().map_err(|e| format!("isa error: {e}"))? {
                Some(r) => buf.push(r),
                None => {
                    halted = true;
                    break;
                }
            }
        }
        let t1 = Instant::now();
        for r in &buf {
            chars.record(r);
        }
        let t2 = Instant::now();
        let (unit0, _) = core.unit();
        for r in &buf {
            core.retire(r).map_err(|e| format!("engine error: {e}"))?;
        }
        let retire_ns = elapsed_ns(t2);
        t.add_ns("isa.step", u64::try_from((t1 - t0).as_nanos()).unwrap_or(0));
        t.add_ns(
            "isa.record",
            u64::try_from((t2 - t1).as_nanos()).unwrap_or(0),
        );
        t.add_ns(
            "cpu.retire",
            retire_ns.saturating_sub(core.unit().0 - unit0),
        );
        retired += buf.len() as u64;
        if let Some(rep) = replay.as_deref_mut() {
            rep.feed(&buf);
        }
        if halted {
            break;
        }
    }
    let (unit0, _) = core.unit();
    let t0 = Instant::now();
    let cycles = core.finish();
    t.add_ns(
        "cpu.retire",
        elapsed_ns(t0).saturating_sub(core.unit().0 - unit0),
    );
    t.count("isa.insts", retired);
    t.count("cpu.insts", retired);
    Ok((cycles, interp, chars))
}

/// A traced cell's results before its outputs are verified.
struct Driven {
    cycles: Cycle,
    interp: Interpreter,
    chars: Characterization,
    stats: Stats,
    breakdown: Option<StallBreakdown>,
}

/// Where a unit's host time and issue count go: IV/DV units are the
/// `vector` layer, the EVE engine is the `core` layer.
const VECTOR: (&str, &str) = ("vector.issue", "vector.insts");
const CORE: (&str, &str) = ("core.issue", "core.insts");

/// Runs one O3 cell with `unit` plugged in behind the timing wrapper.
fn run_o3<V: VectorUnit>(
    built: &Built,
    prog: &Program,
    unit: V,
    (layer, count): (&'static str, &'static str),
    replay: Option<&mut Replay>,
    breakdown: fn(&V) -> Option<StallBreakdown>,
    t: &mut Layers,
) -> Result<Driven, String> {
    let mut core = O3Core::with_unit(Timed::new(unit), HierarchyConfig::table_iii());
    let hw_vl = core.hw_vl();
    let (cycles, interp, chars) = drive(prog, built, hw_vl, &mut core, replay, t)?;
    let (ns, issues) = core.unit();
    t.add_ns(layer, ns);
    t.count(count, issues);
    Ok(Driven {
        cycles,
        interp,
        chars,
        stats: Core::stats(&core),
        breakdown: breakdown(&core.vector_unit().inner),
    })
}

/// `Runner::run` re-driven from its public pieces with per-layer clocks:
/// `Workload::build`, `Interpreter::step`, `Characterization::record`,
/// `IoCore`/`O3Core::retire` (the unit's `issue` timed by a wrapper),
/// and `Built::verify`.
pub fn traced_cell(sys: SystemKind, w: &Workload, t: &mut Layers) -> Result<CellOut, String> {
    let built = t.time("workloads.build", || w.build());
    let d = match sys {
        SystemKind::Io => {
            let mut core = IoCore::with_config(HierarchyConfig::table_iii());
            let mut replay = Replay::new(true);
            let (cycles, interp, chars) =
                drive(&built.scalar, &built, 1, &mut core, Some(&mut replay), t)?;
            note_replay(&replay, t);
            Driven {
                cycles,
                interp,
                chars,
                stats: core.stats(),
                breakdown: None,
            }
        }
        SystemKind::O3 => {
            let mut replay = Replay::new(false);
            let scalar = &built.scalar;
            let d = run_o3(
                &built,
                scalar,
                NoVector,
                VECTOR,
                Some(&mut replay),
                |_| None,
                t,
            )?;
            note_replay(&replay, t);
            d
        }
        SystemKind::O3Iv => {
            let iv = IntegratedVector::new();
            run_o3(&built, &built.vector, iv, VECTOR, None, |_| None, t)?
        }
        SystemKind::O3Dv => {
            let dv = DecoupledVector::new();
            run_o3(&built, &built.vector, dv, VECTOR, None, |_| None, t)?
        }
        SystemKind::EveN(n) => {
            let engine = EveEngine::new(n).map_err(|e| format!("bad configuration: {e}"))?;
            let breakdown = |e: &EveEngine| Some(*e.breakdown());
            run_o3(&built, &built.vector, engine, CORE, None, breakdown, t)?
        }
    };
    t.time("workloads.verify", || built.verify(d.interp.memory()))
        .map_err(|e| format!("verification failed: {e}"))?;
    Ok(CellOut {
        cycles: d.cycles.0,
        dyn_insts: d.interp.retired_count(),
        wall_ps: d.cycles.to_picos(sys.cycle_time()).0,
        stats: d.stats,
        chars: d.chars,
        breakdown: d.breakdown,
    })
}

fn note_replay(replay: &Replay, t: &mut Layers) {
    t.count("mem.accesses", replay.accesses);
    t.count("mem.replay_ns", replay.ns);
    t.excluded_ns += replay.ns;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced driver reproduces `Runner::run` exactly on every
    /// system, for two tiny kernels.
    #[test]
    fn traced_cells_match_runner() {
        for name in ["mmult", "histogram"] {
            let w = Workload::tiny_by_name(name).unwrap();
            for sys in SystemKind::all() {
                let want = CellOut::from_report(&Runner::new().run(sys, &w).unwrap());
                let mut t = Layers::default();
                let got = traced_cell(sys, &w, &mut t).unwrap();
                assert_eq!(got, want, "{sys} on {name}");
                assert_eq!(t.get("isa.insts"), want.dyn_insts);
            }
        }
    }
}
