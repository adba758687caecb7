//! The stall-attribution auditor over the whole tiny suite.
//!
//! Every workload runs traced on every system; the auditor then
//! replays each event stream and asserts the accounting identity —
//! every engine cycle lands in exactly one breakdown bucket, ordered
//! tracks never run backwards, and no event outlives the run. Each
//! cell also runs untraced, and tracing must only observe: the two
//! reports serialize identically once the traced counters are set
//! aside.

use eve_obs::Tracer;
use eve_sim::{audit_run, Runner, SystemKind};
use eve_workloads::Workload;

#[test]
fn every_workload_passes_the_attribution_audit() {
    for w in Workload::tiny_suite() {
        for sys in SystemKind::all() {
            let cell = format!("{sys} on {}", w.name());
            let tracer = Tracer::new();
            let mut report = Runner::with_tracer(&tracer)
                .run(sys, &w)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            let summary = audit_run(&tracer, &report).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(summary.events > 0, "{cell}: traced run emitted nothing");
            if report.breakdown.is_some() {
                assert!(
                    summary.tiled,
                    "{cell}: engine run did not tile its timeline"
                );
                assert_eq!(
                    summary.vsu.total(),
                    summary.vsu.end - summary.vsu.start,
                    "{cell}: tiling is not contiguous"
                );
            }
            let untraced = Runner::new()
                .run(sys, &w)
                .unwrap_or_else(|e| panic!("{cell} untraced: {e}"));
            report.counters = None;
            assert_eq!(
                report.to_json().to_compact(),
                untraced.to_json().to_compact(),
                "{cell}: tracing changed the report"
            );
        }
    }
}

/// The counter registry rides along in the report for traced runs.
#[test]
fn traced_reports_carry_counters() {
    let tracer = Tracer::new();
    let report = Runner::with_tracer(&tracer)
        .run(SystemKind::EveN(8), &Workload::vvadd(512))
        .unwrap();
    let reg = report.counters.as_ref().expect("traced run has counters");
    assert!(!reg.is_empty(), "registry should have counters");
    let doc = report.to_json().to_compact();
    assert!(doc.contains("\"counters\":{"), "{doc}");
}
