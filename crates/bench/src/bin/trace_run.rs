//! Trace a kernel run and export it for `chrome://tracing` (or
//! <https://ui.perfetto.dev>), then audit the stall attribution.
//!
//! ```sh
//! cargo run --release -p eve-bench --bin trace_run -- \
//!     --kernel vvadd --system eve8 --out trace.json
//! ```
//!
//! Exits nonzero if the trace fails the attribution audit or if the
//! exported JSON does not parse.

use eve_common::json::JsonValue;
use eve_obs::{chrome_trace, Tracer};
use eve_sim::{audit_run, Runner, SystemKind};
use eve_workloads::Workload;

fn parse_system(name: &str) -> Option<SystemKind> {
    match name.to_ascii_lowercase().as_str() {
        "io" => Some(SystemKind::Io),
        "o3" => Some(SystemKind::O3),
        "o3iv" | "o3+iv" => Some(SystemKind::O3Iv),
        "o3dv" | "o3+dv" => Some(SystemKind::O3Dv),
        s => s
            .strip_prefix("eve")
            .map(|n| n.trim_start_matches('-'))
            .and_then(|n| n.parse().ok())
            .map(SystemKind::EveN),
    }
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: trace_run [--kernel NAME] [--system io|o3|o3iv|o3dv|eveN] [--out PATH]\n\
         kernels: {}",
        Workload::names().join(", ")
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kernel = "vvadd".to_string();
    let mut system = "eve8".to_string();
    let mut out = "trace.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |slot: &mut String| match it.next() {
            Some(v) => *slot = v.clone(),
            None => usage_exit(&format!("{a} needs a value")),
        };
        match a.as_str() {
            "--kernel" => grab(&mut kernel),
            "--system" => grab(&mut system),
            "--out" => grab(&mut out),
            other => usage_exit(&format!("unknown argument {other}")),
        }
    }

    let workload = Workload::tiny_by_name(&kernel).unwrap_or_else(|e| usage_exit(&e.to_string()));
    let sys =
        parse_system(&system).unwrap_or_else(|| usage_exit(&format!("unknown system {system}")));

    let tracer = Tracer::new();
    let report = Runner::with_tracer(&tracer)
        .run(sys, &workload)
        .expect("simulation succeeds");

    let summary = match audit_run(&tracer, &report) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("attribution audit FAILED: {e}");
            std::process::exit(1);
        }
    };

    let doc = chrome_trace(&tracer.events()).to_compact();
    if let Err(e) = JsonValue::parse(&doc) {
        eprintln!("exported trace is not valid JSON: {e}");
        std::process::exit(1);
    }
    std::fs::write(&out, &doc).expect("trace file writes");

    println!(
        "{sys} on {}: {} cycles, {} events -> {out}",
        report.workload, report.cycles.0, summary.events
    );
    println!(
        "audit: OK ({}tiled; spawn = {} cycles)",
        if summary.tiled { "" } else { "not " },
        summary.spawn_cycles
    );
    println!("report: {}", report.to_json().to_compact());
    println!("open {out} in chrome://tracing or https://ui.perfetto.dev");
}
