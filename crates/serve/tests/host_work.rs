//! An exact host-work guard for the serving loop: the heap
//! allocations `ClusterSim::run` makes per arrival, and those
//! `audit_cluster` makes per cell, counted under a counting global
//! allocator (this test binary only).
//!
//! Wall time flakes with the host; an allocation count does not. The
//! loop derives its shard-availability mask, prices and routes from
//! state it owns, so what it still allocates is one batch's member
//! list per dispatch plus amortised growth (the calendar heap, the
//! batch ledger, the trace buffer, the transport's idempotency
//! tables). One cell with the transport off and one lossy cell, each
//! shaped like a benchmark grid cell, must stay within the budget.

use eve_obs::Tracer;
use eve_serve::{
    tenant_mix, ClusterConfig, ClusterReport, ClusterSim, ClusterTraffic, FaultStorm, NetPolicy,
    ServiceProfile,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made on this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count() {
    // A const-initialized `Cell` has no destructor, so this neither
    // allocates nor fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Most allocations `ClusterSim::run` may make per arrival.
const BUDGET_PER_ARRIVAL: f64 = 2.0;

/// Four shards of four engines, three tenants and a mixed fault storm
/// over the traffic's horizon: the benchmark grid's `mixed` cell, on a
/// hand-built four-kernel profile.
fn cell(requests: usize, net: NetPolicy) -> (ClusterSim, Tracer) {
    let profile = ServiceProfile {
        eve_cycles: vec![900, 1_600, 2_400, 4_100],
        fallback_cycles: vec![5_200, 7_000, 9_800, 15_000],
        ..ServiceProfile::synthetic(4, 1, 1, 4)
    };
    let cfg = ClusterConfig {
        shards: 4,
        engines_per_shard: 4,
        net,
        seed: 0x5EED_0001,
        ..ClusterConfig::default()
    };
    let mean_gap = profile.mean_eve_cycles();
    let horizon = requests as u64 * mean_gap;
    let traffic = ClusterTraffic {
        requests,
        mean_gap,
        tenants: tenant_mix(3),
        seed: 0x5EED_0002,
        ..ClusterTraffic::default()
    };
    let storm = FaultStorm::synth(
        0x5EED_0003,
        cfg.shards * cfg.engines_per_shard,
        horizon,
        1.0,
    );
    let tracer = Tracer::new();
    let sim = ClusterSim::new(cfg, profile, traffic, storm)
        .expect("valid cell")
        .with_tracer(&tracer);
    (sim, tracer)
}

/// Runs `sim` and returns its report with the allocations `run` made
/// per arrival.
fn run_counted(sim: ClusterSim) -> (ClusterReport, f64) {
    let before = allocations();
    let report = sim.run();
    let made = allocations() - before;
    let per_arrival = made as f64 / report.arrivals as f64;
    (report, per_arrival)
}

#[test]
fn the_direct_loop_allocates_at_most_two_per_arrival() {
    let (sim, tracer) = cell(2_500, NetPolicy::default());
    let (report, per_arrival) = run_counted(sim);
    // The guard must not pass on a cell that does nothing.
    assert_eq!(report.arrivals, 2_500);
    assert!(
        report.dispatches > 1_000,
        "{} dispatches",
        report.dispatches
    );
    assert!(report.retries > 0, "the storm must cause retries");
    eve_serve::audit_cluster(&tracer, &report).expect("the cell audits");
    assert!(
        per_arrival <= BUDGET_PER_ARRIVAL,
        "ClusterSim::run made {per_arrival:.2} allocations per arrival with the transport off \
         (budget {BUDGET_PER_ARRIVAL})"
    );
}

#[test]
fn the_lossy_loop_allocates_at_most_two_per_arrival() {
    let (sim, tracer) = cell(1_500, NetPolicy::lossy(0.05));
    let (report, per_arrival) = run_counted(sim);
    assert_eq!(report.arrivals, 1_500);
    assert!(report.dispatches > 500, "{} dispatches", report.dispatches);
    assert!(report.net.retransmits > 0, "loss must cause retransmits");
    eve_serve::audit_cluster(&tracer, &report).expect("the cell audits");
    assert!(
        per_arrival <= BUDGET_PER_ARRIVAL,
        "ClusterSim::run made {per_arrival:.2} allocations per arrival at 5% loss \
         (budget {BUDGET_PER_ARRIVAL})"
    );
}

/// Most heap allocations `audit_cluster` may make on one cell. It
/// borrows the trace and the counter registry and formats the
/// per-shard counter keys into one buffer; copying the registry cost
/// 57 on either cell.
const AUDIT_BUDGET: u64 = 2;

#[test]
fn the_audit_reads_the_trace_and_registry_in_place() {
    for (requests, net) in [
        (2_500, NetPolicy::default()),
        (1_500, NetPolicy::lossy(0.05)),
    ] {
        let (sim, tracer) = cell(requests, net);
        let report = sim.run();
        // The registry cross-check, per-shard keys included, must run.
        assert!(tracer.with_registry(|reg| reg.counter("cluster.routed.s3") > 0));
        let before = allocations();
        eve_serve::audit_cluster(&tracer, &report).expect("the cell audits");
        let made = allocations() - before;
        assert!(
            made <= AUDIT_BUDGET,
            "audit_cluster made {made} allocations on a {requests}-arrival cell \
             (budget {AUDIT_BUDGET})"
        );
    }
}
