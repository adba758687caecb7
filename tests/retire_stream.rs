//! Pins the interpreter's retire stream: every tiny-suite kernel, its
//! scalar program at hardware vector length 1 and its vector program
//! at 4, 64 and 2048, hashed record by record (every `Retired` field)
//! together with the final memory, against a committed fixture. Then
//! counts the heap allocations `Interpreter::step_into` makes into a
//! reused record, under a counting global allocator (this test binary
//! only).

use eve_common::fnv1a64;
use eve_isa::{Interpreter, MemEffect, Program, Retired};
use eve_workloads::{Built, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

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

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/retire_streams.txt"
);

const REGEN: &str = "EVE_UPDATE_FIXTURES=1 cargo test --test retire_stream";

/// The programs each kernel runs: `(label, vector program?, hw_vl)`.
const RUNS: [(&str, bool, u32); 4] = [
    ("scalar", false, 1),
    ("vector", true, 4),
    ("vector", true, 64),
    ("vector", true, 2048),
];

fn interpreter(built: &Built, vector: bool, hw_vl: u32) -> Interpreter {
    let prog: &Program = if vector { &built.vector } else { &built.scalar };
    Interpreter::new(prog.clone(), built.memory.clone(), hw_vl)
}

/// The final memory's fingerprint.
fn memory_hash(interp: &Interpreter) -> u64 {
    let mem = interp.memory();
    let bytes: Vec<u8> = (0..mem.size() as u64).map(|a| mem.load_u8(a)).collect();
    fnv1a64(&bytes)
}

/// One record's fields as a line of text, its memory footprint
/// spelled out variant by variant.
fn record_line(r: &Retired, text: &mut String) -> std::fmt::Result {
    write!(
        text,
        "{} {} {:?} {:?} {:?} {} {:?} {:?} ",
        r.seq, r.pc, r.inst, r.reads, r.write, r.vl, r.branch, r.scalar_operand
    )?;
    match &r.mem {
        MemEffect::None => writeln!(text, "-"),
        MemEffect::Scalar { addr, bytes, store } => {
            writeln!(text, "scalar {addr:#x} {bytes} {store}")
        }
        MemEffect::VecUnit { base, bytes, store } => {
            writeln!(text, "unit {base:#x} {bytes} {store}")
        }
        MemEffect::VecStrided {
            base,
            stride,
            count,
            store,
        } => writeln!(text, "strided {base:#x} {stride} {count} {store}"),
        MemEffect::VecIndexed { store } => writeln!(text, "indexed {store} {:x?}", r.addrs),
    }
}

/// Every retire record of a run, one line each.
fn stream_text(interp: &mut Interpreter, text: &mut String) {
    while let Some(r) = interp.step().expect("kernel runs") {
        record_line(&r, text).expect("writing to a String cannot fail");
    }
}

#[test]
fn retire_streams_match_the_pinned_hashes() {
    let mut got = String::from("# kernel program hw_vl insts fnv1a64(records) fnv1a64(memory)\n");
    let mut text = String::new();
    for w in Workload::tiny_suite() {
        let built = w.build();
        for (label, vector, hw_vl) in RUNS {
            let mut interp = interpreter(&built, vector, hw_vl);
            text.clear();
            stream_text(&mut interp, &mut text);
            built
                .verify(interp.memory())
                .unwrap_or_else(|e| panic!("{} {label} at {hw_vl}: {e}", built.name));
            writeln!(
                got,
                "{} {label} {hw_vl} {} {:016x} {:016x}",
                built.name,
                interp.retired_count(),
                fnv1a64(text.as_bytes()),
                memory_hash(&interp)
            )
            .expect("writing to a String cannot fail");
        }
    }
    if std::env::var_os("EVE_UPDATE_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &got).expect("fixture writes");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|_| panic!("missing fixture {FIXTURE}; regenerate with: {REGEN}"));
    assert_eq!(
        got, want,
        "retire streams changed; if intentional, regenerate with: {REGEN}"
    );
}

/// `step_into` with one record reused for every run retires the same
/// stream as `step` and leaves no stale addresses behind; once a
/// kernel has run into the record, a second run of it allocates
/// nothing.
#[test]
fn a_reused_record_retires_the_same_stream_without_allocating() {
    let mut r = Retired::default();
    let (mut want, mut got) = (String::new(), String::new());
    for w in Workload::tiny_suite() {
        let built = w.build();
        for (label, vector, hw_vl) in RUNS {
            let run = format!("{} {label} at {hw_vl}", built.name);
            want.clear();
            stream_text(&mut interpreter(&built, vector, hw_vl), &mut want);
            got.clear();
            let mut interp = interpreter(&built, vector, hw_vl);
            while interp.step_into(&mut r).expect("kernel runs") {
                if !matches!(r.mem, MemEffect::VecIndexed { .. }) {
                    assert!(r.addrs.is_empty(), "{run}: stale addresses at {}", r.seq);
                }
                record_line(&r, &mut got).expect("writing to a String cannot fail");
            }
            assert!(got == want, "{run}: step_into's stream differs from step's");

            let mut interp = interpreter(&built, vector, hw_vl);
            let before = allocations();
            while interp.step_into(&mut r).expect("kernel runs") {}
            let made = allocations() - before;
            assert_eq!(
                made, 0,
                "{run}: a second run into a reused record allocated"
            );
            built
                .verify(interp.memory())
                .unwrap_or_else(|e| panic!("{run}: {e}"));
        }
    }
}
