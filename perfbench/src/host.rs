//! Host-side measurement: resident-memory high-water marks and quiet
//! per-cell panic capture.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The resident high-water mark (`VmHWM`) of this process, in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn hwm_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Resets the high-water mark to the current resident size, so the next
/// [`hwm_mib`] reads the peak of what runs after this call alone.
///
/// # Errors
///
/// Fails when the kernel refuses the write.
pub fn reset_hwm() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

thread_local! {
    static IN_CELL: Cell<bool> = const { Cell::new(false) };
}

/// Installs a panic hook that keeps a cell's panic message for
/// [`catch_cell`] instead of printing it; panics outside a cell still
/// print as usual.
pub fn quiet_cell_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if IN_CELL.with(Cell::get) {
            if let Ok(mut slot) = LAST_PANIC.lock() {
                *slot = Some(info.to_string());
            }
        } else {
            default(info);
        }
    }));
}

/// Runs one simulation cell, turning a panic into `Err(message)`.
pub fn catch_cell<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    IN_CELL.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    IN_CELL.with(|c| c.set(false));
    result.map_err(|_| {
        LAST_PANIC
            .lock()
            .ok()
            .and_then(|mut slot| slot.take())
            .unwrap_or_else(|| "panic without a message".into())
    })
}
