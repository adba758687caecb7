//! An exact host-work guard for the CMP path: the bytes the contention
//! sweep asks the allocator for, counted under a counting global
//! allocator (this test binary only).
//!
//! `run_cmp` builds core `c`'s copy of a workload at `c × 32 MiB`, so
//! its memory image spans address 0 up to that region. The image comes
//! zeroed from `alloc_zeroed`, whose untouched pages never become
//! resident, and the core's interpreter takes it by move. A copy would
//! ask `alloc` for the whole span and write every byte of it: 16·k(k−1)
//! MiB over a k-core sweep. Zeroed allocations are not counted, so the
//! budget sees every copy and every other allocation the sweep makes.

use eve_sim::{contention_profile, SystemKind};
use eve_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested through `alloc` and `realloc` on this thread.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's requested bytes.
struct Counting;

fn count(bytes: usize) {
    // A const-initialized `Cell` has no destructor, so this neither
    // allocates nor fails during thread teardown.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
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
