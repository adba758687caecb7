//! Pins every full-suite `RunReport`: one line per system in
//! `SystemKind::all()` and kernel in `Workload::suite()` with its
//! cycles, dynamic instructions and the FNV-1a-64 of
//! `to_json().to_compact()`. A host-only change must leave the output
//! byte-identical; `results/report_digest.txt` is the committed copy.
//!
//! Cells run in parallel (`EVE_BENCH_THREADS` overrides the worker
//! count); lines print in suite order, so output bytes match a serial
//! run.

use eve_bench::pool;
use eve_common::fnv1a64;
use eve_sim::{Runner, SystemKind};
use eve_workloads::Workload;

fn main() {
    let cells: Vec<(Workload, SystemKind)> = Workload::suite()
        .into_iter()
        .flat_map(|w| SystemKind::all().into_iter().map(move |s| (w, s)))
        .collect();
    let lines = pool::run_jobs(cells.len(), |i| {
        let (w, sys) = cells[i];
        let r = Runner::new()
            .run(sys, &w)
            .unwrap_or_else(|e| panic!("{sys} on {}: {e}", w.name()));
        format!(
            "{sys} {} {} {} {:016x}",
            r.workload,
            r.cycles.0,
            r.dyn_insts,
            fnv1a64(r.to_json().to_compact().as_bytes())
        )
    });
    println!("# system workload cycles dyn_insts fnv1a64(to_json)");
    for line in lines {
        println!("{line}");
    }
}
