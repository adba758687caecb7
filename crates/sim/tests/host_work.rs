//! Exact host-work guards, counted under a counting global allocator
//! (this test binary only).
//!
//! **The per-instruction path allocates nothing.** `Runner::run`
//! builds a workload and its system and then steps, retires and issues
//! every instruction. The set-up allocates, but the step and issue path
//! of every system must not: the allocation calls of a run may not
//! grow with the kernel's dynamic instruction count.
//!
//! **The CMP path copies no memory image.** It counts the bytes the
//! contention sweep asks the allocator for.
//!
//! `run_cmp` builds core `c`'s copy of a workload at `c × 32 MiB`, so
//! its memory image spans address 0 up to that region. The image comes
//! zeroed from `alloc_zeroed`, whose untouched pages never become
//! resident, and the core's interpreter takes it by move. A copy would
//! ask `alloc` for the whole span and write every byte of it: 16·k(k−1)
//! MiB over a k-core sweep. Zeroed allocations are not counted, so the
//! budget sees every copy and every other allocation the sweep makes.

use eve_sim::{contention_profile, Runner, SystemKind};
use eve_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested through `alloc` and `realloc` on this thread.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Calls to `alloc` and `realloc` on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's requested bytes and
/// calls.
struct Counting;

fn count(bytes: usize) {
    // A const-initialized `Cell` has no destructor, so this neither
    // allocates nor fails during thread teardown.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Allocation calls one `Runner::run` makes, and its dynamic
/// instructions.
fn run_allocs(system: SystemKind, w: &Workload) -> (u64, u64) {
    let runner = Runner::new();
    let before = calls();
    let report = runner
        .run(system, w)
        .unwrap_or_else(|e| panic!("{system} on {}: {e}", w.name()));
    (calls() - before, report.dyn_insts)
}

/// How many more allocation calls the larger run may make: its larger
/// input and output arrays may regrow a few build-time buffers, but
/// nothing may scale with the instructions it runs.
const EXTRA_ALLOCS: u64 = 4;

#[test]
fn the_per_instruction_path_allocates_nothing() {
    // histogram runs unit-stride and indexed vector accesses, mask
    // logic and splat-fed compute on every vector system.
    let small = Workload::Histogram { n: 256, bins: 32 };
    let large = Workload::Histogram { n: 2048, bins: 32 };
    for system in SystemKind::all() {
        let (a, insts_a) = run_allocs(system, &small);
        let (b, insts_b) = run_allocs(system, &large);
        // The guard must not pass on a run that does not grow.
        assert!(
            insts_b > 4 * insts_a,
            "{system}: {insts_a} -> {insts_b} insts"
        );
        assert!(
            b <= a + EXTRA_ALLOCS,
            "{system}: {a} allocations over {insts_a} insts, {b} over {insts_b} \
             (at most {EXTRA_ALLOCS} more allowed)"
        );
    }
}

/// Most bytes the four-core sweep may request outside `alloc_zeroed`.
/// Copying each core's image would request 320 MiB more.
const BUDGET_MIB: f64 = 16.0;

#[test]
fn the_contention_sweep_copies_no_memory_image() {
    let before = bytes();
    let curve = contention_profile(SystemKind::EveN(8), &Workload::vvadd(300), 4).unwrap();
    let mib = (bytes() - before) as f64 / f64::from(1 << 20);
    // The guard must not pass on a sweep that measures nothing.
    let rounded: Vec<f64> = curve.iter().map(|x| (x * 1e4).round() / 1e4).collect();
    assert_eq!(rounded, [1.0, 1.2664, 1.5584, 1.9579]);
    assert!(
        mib <= BUDGET_MIB,
        "the 4-core contention sweep requested {mib:.1} MiB outside alloc_zeroed \
         (budget {BUDGET_MIB} MiB)"
    );
}
