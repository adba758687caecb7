//! Hot-path wall-clock timings of μprogram execution — the lane-serial
//! scalar oracle against the lane-bitsliced interpreter, and the
//! interpreter healthy against fault-armed (parity and SECDED, with a
//! zero-rate injector) — plus end-to-end sweep timings. Seeds the perf
//! trajectory — results land in `BENCH_hotpath.json` (override with
//! `--out PATH`, or `--out -` for stdout only).
//!
//! ```text
//! hotpath_timing [--tiny] [--out PATH] [--assert-speedup X]
//! ```
//!
//! `--assert-speedup X` exits nonzero unless the geomean speedup of
//! the interpreter over the scalar oracle is at least `X` (CI pins
//! it). The JSON's `armed_over_healthy` holds the geomean armed/healthy
//! time ratio per detection mode; CI's `hotpath` gate bounds it.

use eve_bench::{fmt_x, pool, render_table};
use eve_common::json::JsonValue;
use eve_sim::experiments::workload_perf;
use eve_sim::fault::{campaign_json, FaultPlan};
use eve_sram::{Binding, DetectionMode, EveArray, FaultConfig, FaultInjector, ScalarArray};
use eve_uop::{HybridConfig, MacroOpKind, ProgramLibrary};
use eve_workloads::Workload;
use std::time::Instant;

/// Lanes per array in the μprogram benchmark (one paper-sized array is
/// 256 columns at EVE-1).
const LANES: usize = 256;

/// The macro-op mix each executor runs per iteration: cheap bitwise
/// ops, the carry chain, and the shift/mask-heavy multiply.
const MIX: [MacroOpKind; 5] = [
    MacroOpKind::Add,
    MacroOpKind::Sub,
    MacroOpKind::And,
    MacroOpKind::Xor,
    MacroOpKind::Mul,
];

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Times `run` (which reports simulated cycles) until the sample is
/// stable enough, returning wall nanoseconds per simulated cycle.
fn ns_per_cycle(budget_ms: u128, mut run: impl FnMut() -> u64) -> f64 {
    let _ = std::hint::black_box(run());
    let start = Instant::now();
    let mut cycles = 0u64;
    let mut iters = 0u32;
    while (start.elapsed().as_millis() < budget_ms || iters < 3) && iters < 10_000 {
        cycles += std::hint::black_box(run());
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / cycles as f64
}

fn seed_value(lane: usize, reg: u32) -> u32 {
    (lane as u32)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(reg.wrapping_mul(0x85EB_CA6B))
        | 1
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let assert_speedup: Option<f64> = flag_value(&args, "--assert-speedup")
        .map(|v| v.parse().expect("--assert-speedup takes a float"));
    let budget_ms: u128 = if tiny { 20 } else { 80 };

    let binding = Binding::new(3, 1, 2);
    let mut per_config = Vec::new();
    let mut table = Vec::new();
    let mut log_speedup = 0.0;
    let (mut log_parity, mut log_secded) = (0.0, 0.0);
    for cfg in HybridConfig::all() {
        let lib = ProgramLibrary::new(cfg);
        let progs: Vec<_> = MIX.iter().map(|&k| lib.program(k)).collect();
        let mut fast = EveArray::new(cfg, LANES);
        let armed = |mode| {
            let mut arr = EveArray::new(cfg, LANES);
            arr.attach_injector_with(FaultInjector::new(FaultConfig::none(0)), mode);
            arr
        };
        let mut parity = armed(DetectionMode::Parity);
        let mut secded = armed(DetectionMode::Secded);
        let mut slow = ScalarArray::new(cfg, LANES);
        for lane in 0..LANES {
            for reg in [1u32, 2, 3] {
                let v = seed_value(lane, reg);
                for arr in [&mut fast, &mut parity, &mut secded] {
                    arr.write_element(reg, lane, v);
                }
                slow.write_element(reg, lane, v);
            }
        }
        // Cross-check before timing: every executor must agree
        // lane-for-lane on the mix.
        for prog in &progs {
            for arr in [&mut fast, &mut parity, &mut secded] {
                arr.execute(prog, &binding);
            }
            slow.execute(prog, &binding);
        }
        for lane in 0..LANES {
            let want = fast.read_element(3, lane);
            assert_eq!(
                want,
                slow.read_element(3, lane),
                "{cfg}: interpreter diverges at lane {lane}"
            );
            for (mode, arr) in [("parity", &parity), ("secded", &secded)] {
                assert_eq!(
                    want,
                    arr.read_element(3, lane),
                    "{cfg}: {mode}-armed interpreter diverges at lane {lane}"
                );
            }
        }
        let time = |arr: &mut EveArray| {
            ns_per_cycle(budget_ms, || {
                progs.iter().map(|p| arr.execute(p, &binding).0).sum()
            })
        };
        let fast_ns = time(&mut fast);
        let parity_ns = time(&mut parity);
        let secded_ns = time(&mut secded);
        let slow_ns = ns_per_cycle(budget_ms, || {
            progs.iter().map(|p| slow.execute(p, &binding).0).sum()
        });
        let speedup = slow_ns / fast_ns;
        log_speedup += speedup.ln();
        log_parity += (parity_ns / fast_ns).ln();
        log_secded += (secded_ns / fast_ns).ln();
        table.push(vec![
            cfg.to_string(),
            format!("{slow_ns:.1}"),
            format!("{fast_ns:.1}"),
            fmt_x(speedup),
            format!("{parity_ns:.1}"),
            format!("{secded_ns:.1}"),
        ]);
        per_config.push(JsonValue::object([
            ("n", u64::from(cfg.segment_bits()).into()),
            ("scalar_ns_per_cycle", slow_ns.into()),
            ("bitsliced_ns_per_cycle", fast_ns.into()),
            ("speedup", speedup.into()),
            ("parity_ns_per_cycle", parity_ns.into()),
            ("secded_ns_per_cycle", secded_ns.into()),
        ]));
    }
    let configs = HybridConfig::all().len() as f64;
    let geomean = (log_speedup / configs).exp();
    let parity_ratio = (log_parity / configs).exp();
    let secded_ratio = (log_secded / configs).exp();

    // End-to-end sweeps: the tiny fig6 matrix (parallel driver) and a
    // small fault campaign (serial API), both wall-clock.
    let suite = Workload::tiny_suite();
    let t0 = Instant::now();
    let perf = pool::run_jobs(suite.len(), |i| workload_perf(&suite[i]));
    assert!(perf.iter().all(Result::is_ok), "fig6 sweep failed");
    let fig6_ms = t0.elapsed().as_secs_f64() * 1e3;

    let plan = FaultPlan {
        rates: vec![0.0, 1e-3],
        factors: vec![8],
        ..FaultPlan::default()
    };
    let t0 = Instant::now();
    let _ = campaign_json(&plan, &suite[..suite.len().min(2)]).expect("campaign runs");
    let campaign_ms = t0.elapsed().as_secs_f64() * 1e3;

    let doc = JsonValue::object([
        ("lanes", (LANES as u64).into()),
        (
            "mix",
            JsonValue::array(MIX.iter().map(|k| format!("{k:?}").into())),
        ),
        ("per_config", JsonValue::Array(per_config)),
        ("geomean_speedup", geomean.into()),
        (
            "armed_over_healthy",
            JsonValue::object([
                ("parity", parity_ratio.into()),
                ("secded", secded_ratio.into()),
            ]),
        ),
        (
            "sweeps",
            JsonValue::object([
                ("fig6_tiny_ms", fig6_ms.into()),
                ("fault_campaign_small_ms", campaign_ms.into()),
            ]),
        ),
        ("threads", (pool::threads() as u64).into()),
    ]);
    let rendered = doc.to_pretty();
    if out_path == "-" {
        println!("{rendered}");
    } else {
        std::fs::write(&out_path, format!("{rendered}\n")).expect("write BENCH_hotpath.json");
    }

    println!(
        "Hot path: μprogram execution, {LANES} lanes (scalar oracle → bitsliced interpreter; \
         zero-rate parity- and SECDED-armed interpreter)"
    );
    println!(
        "{}",
        render_table(
            &[
                "config",
                "scalar ns/cyc",
                "interp ns/cyc",
                "speedup",
                "parity ns/cyc",
                "secded ns/cyc"
            ],
            &table
        )
    );
    println!("geomean speedup: {}", fmt_x(geomean));
    println!(
        "geomean armed/healthy: parity {}, secded {}",
        fmt_x(parity_ratio),
        fmt_x(secded_ratio)
    );
    println!("fig6 --tiny sweep: {fig6_ms:.0} ms   fault campaign (small): {campaign_ms:.0} ms");
    if out_path != "-" {
        println!("wrote {out_path}");
    }
    if let Some(min) = assert_speedup {
        assert!(
            geomean >= min,
            "geomean speedup {geomean:.2}x below required {min:.2}x"
        );
    }
}
