//! Single-threaded benchmark of the EVE reproduction.
//!
//! ```text
//! perfbench --workload <fig6_matrix|fault_campaign|cluster_direct|cluster_lossy|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own single-threaded process (`all` starts
//! one child per workload). `--trace 0` measures the end-to-end metrics
//! with no clocks inside a cell; `--trace 1` runs every cell untraced and
//! then traced through the layers' public calls, checks that the twins
//! agree exactly, and reports per-layer host time, counts, the
//! unattributed remainder and the tracing overhead. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod cluster;
mod fault;
mod fig6;
mod host;
mod layers;

use layers::Layers;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "fig6_matrix",
    "fault_campaign",
    "cluster_direct",
    "cluster_lossy",
];

const USAGE: &str = "usage: perfbench --workload <fig6_matrix|fault_campaign|cluster_direct|\
                     cluster_lossy|all> --seed <n> --seconds <s> --trace <0|1>";

/// Passes over the cells in an untraced run. Every cell's fastest pass
/// counts: host slowdowns on this class of machine come in phases of
/// seconds, and three spread-out samples per cell filter most of them.
const MIN_PASSES: usize = 3;
/// Extra set-ups timed in each untraced pass after the first, evenly
/// spaced among its cells; one more follows the last pass. `setup_s`
/// is the fastest of these and the set-up made before the first cell,
/// as `wall_s` takes each cell's fastest pass: spread over the run,
/// they sample several host phases, and in busy hours half of them
/// land in slow ones, which moves a median but not the fastest.
const SETUPS_PER_PASS: usize = 2;

/// `fig6_gap_pct` on workloads that run no Fig 6 cells: the metric
/// must be nonzero on every workload, so it is pinned here.
pub const NO_FIG6_GAP: f64 = 100.0;

/// One cell's contribution to the run totals.
pub struct Tally {
    /// The cell did not run to an outcome the workload expects.
    failed: bool,
    /// Simulated dynamic instructions.
    insts: u64,
    /// Simulated requests: a Fig 6 or fault cell is one kernel run; a
    /// cluster cell counts its arrivals.
    reqs: u64,
}

/// The modelled end-to-end metrics, exact for a fixed seed.
pub struct Modelled {
    fig6_gap_pct: f64,
    served_ok_share: f64,
    fault_availability: f64,
    sdc_free_share: f64,
}

/// A workload: set-up, independent cells, and their checks.
pub trait Bench: Sized {
    /// What one cell produced; passes and traced twins must agree.
    type Out: Clone + PartialEq + std::fmt::Debug;
    fn setup(workload: &str, seed: u64) -> Result<Self, String>;
    fn cell_count(&self) -> usize;
    fn run(&self, i: usize) -> Self::Out;
    fn run_traced(&self, i: usize, t: &mut Layers) -> Self::Out;
    fn tally(&self, out: &Self::Out) -> Tally;
    /// Checks every cell's outputs, prints the workload's summary, and
    /// returns the modelled metrics.
    fn check(&self, outs: &[Self::Out]) -> Result<Modelled, String>;
    /// Adds the modelled per-layer counts of `outs` to `t`.
    fn counts(&self, outs: &[Self::Out], t: &mut Layers);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u32 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1..=120".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: f64::from(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    host::quiet_cell_panics();
    let result = match args.workload.as_str() {
        "fig6_matrix" => run::<fig6::Fig6>(&args),
        "fault_campaign" => run::<fault::Fault>(&args),
        _ => run::<cluster::Cluster>(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

/// Runs every workload in a process of its own, one after another.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = argv.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = w.to_string();
        }
        println!("== {w}");
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: {w} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs the set-up once; returns it with its time in seconds.
fn set_up<B: Bench>(args: &Args) -> Result<(B, f64), String> {
    let t = Instant::now();
    let bench = B::setup(&args.workload, args.seed)?;
    Ok((bench, t.elapsed().as_secs_f64()))
}

/// Visits every cell once per pass, alternating direction so a cell's
/// repetitions are spread over the run, until another pass would end
/// past `seconds` (and at least `min_passes` are done). `visit` gets
/// the pass, the cell's position in the pass and the cell. Returns the
/// number of passes.
fn passes(
    n: usize,
    seconds: f64,
    min_passes: usize,
    mut visit: impl FnMut(usize, usize, usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut done = 0;
    loop {
        for k in 0..n {
            let i = if done % 2 == 0 { k } else { n - 1 - k };
            visit(done, k, i)?;
        }
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if done >= min_passes && elapsed + elapsed / done as f64 > seconds {
            return Ok(done);
        }
    }
}

/// Runs one workload and prints its result, `correct` false when an
/// output check failed. Errors that leave no result are returned.
fn run<B: Bench>(args: &Args) -> Result<(), String> {
    let (bench, first_setup) = set_up::<B>(args)?;
    let mut setups = vec![first_setup];
    let setup_rss = host::hwm_mib()?;
    host::reset_hwm()?;
    let n = bench.cell_count();
    if n == 0 {
        return Err("the workload has no cells".into());
    }
    let mut first: Vec<B::Out> = Vec::with_capacity(n);
    let mut best = vec![f64::INFINITY; n];
    let mut best_traced: Vec<Option<(u64, Layers)>> = vec![None; n];
    // The body's own peak: the first pass runs every cell, and the
    // set-ups timed in later passes would otherwise raise the mark.
    let mut peak_rss = None;
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let spacing = n.div_ceil(SETUPS_PER_PASS);
    let done = passes(n, args.seconds, min_passes, |pass, k, i| {
        if pass > 0 && peak_rss.is_none() {
            peak_rss = Some(host::hwm_mib()?);
        }
        if pass > 0 && !args.trace && k % spacing == 0 {
            setups.push(set_up::<B>(args)?.1);
        }
        let t = Instant::now();
        let out = bench.run(i);
        best[i] = best[i].min(t.elapsed().as_secs_f64());
        if pass == 0 {
            first.push(out);
        } else if out != first[i] {
            return Err(format!("cell {i} changed between passes: {out:?}"));
        }
        if args.trace {
            let mut layers = Layers::default();
            let t = Instant::now();
            let traced = bench.run_traced(i, &mut layers);
            let wall = layers::elapsed_ns(t).saturating_sub(layers.excluded_ns);
            if traced != first[i] {
                return Err(format!(
                    "cell {i}: traced twin differs\n traced:   {traced:?}\n untraced: {:?}",
                    first[i]
                ));
            }
            if best_traced[i].as_ref().is_none_or(|(w, _)| wall < *w) {
                best_traced[i] = Some((wall, layers));
            }
        }
        Ok(())
    })?;
    let peak_rss = match peak_rss {
        Some(mib) => mib,
        None => host::hwm_mib()?,
    };
    if !args.trace {
        setups.push(set_up::<B>(args)?.1);
    }
    let setup_list: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    let setup_s = setups.into_iter().fold(f64::INFINITY, f64::min);

    let (correct, modelled) = match bench.check(&first) {
        Ok(m) => (true, Some(m)),
        Err(e) => {
            eprintln!("perfbench: {}: output check failed: {e}", args.workload);
            (false, None)
        }
    };
    let tallies: Vec<Tally> = first.iter().map(|o| bench.tally(o)).collect();
    let failed = tallies.iter().filter(|t| t.failed).count();
    let insts: u64 = tallies.iter().map(|t| t.insts).sum();
    let reqs: u64 = tallies.iter().map(|t| t.reqs).sum();
    let wall_s: f64 = best.iter().sum();

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut traced = Layers::default();
        let mut wall_ns = 0u64;
        for (wall, layers) in best_traced.iter().flatten() {
            traced.merge(layers);
            wall_ns += wall;
        }
        bench.counts(&first, &mut traced);
        layers::per_layer(&traced, wall_ns, (wall_s * 1e9) as u64)
    } else {
        let m = modelled.unwrap_or(Modelled {
            fig6_gap_pct: NO_FIG6_GAP,
            served_ok_share: 0.0,
            fault_availability: 0.0,
            sdc_free_share: 0.0,
        });
        vec![
            ("wall_s", "s", wall_s),
            ("setup_s", "s", setup_s),
            ("peak_rss_mb", "MiB", peak_rss),
            ("setup_rss_mb", "MiB", setup_rss),
            ("sim_insts_per_s", "1/s", insts as f64 / wall_s),
            ("sim_reqs_per_s", "1/s", reqs as f64 / wall_s),
            ("fig6_gap_pct", "%", m.fig6_gap_pct),
            ("served_ok_share", "ratio", m.served_ok_share),
            ("fault_availability", "ratio", m.fault_availability),
            ("sdc_free_share", "ratio", m.sdc_free_share),
        ]
    };
    println!(
        "{}: seed {}, {n} cells × {done} passes, {failed} cells failed, trace {}, set-ups {} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        setup_list.join(" ")
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    // An operation is one cell, counted once: its repetitions in later
    // passes must reproduce the first, so the counts depend on the seed
    // alone and not on how many passes fit in the run.
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {n}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if k == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}
