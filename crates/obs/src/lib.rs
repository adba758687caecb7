//! Cross-layer observability for the EVE simulator.
//!
//! Timing models in this workspace keep meticulous cycle accounting —
//! the Fig 7 stall breakdown is the paper's headline figure — but until
//! now the only window into a run was its final counter totals. This
//! crate adds the missing structure:
//!
//! - [`TraceEvent`]: a cycle-stamped span or instant on a named track
//!   (`"vsu"`, `"vmu"`, `"o3"`, `"mem"`, …), with a category that maps
//!   straight onto the stall-breakdown buckets.
//! - [`TraceBuffer`]: a bounded ring buffer of events. Overflow drops
//!   the oldest events and counts them, so tracing never reallocates
//!   without bound; auditors refuse lossy traces.
//! - [`Tracer`]: a cheaply-cloneable shared handle (the same
//!   `Rc<RefCell<…>>` idiom as `SharedLlc`) threaded through the cores,
//!   hierarchy, and engines. Each model keeps an `Option<Tracer>` and
//!   every emit site checks it, so an untraced run pays one branch per
//!   site and builds no event.
//! - [`CounterRegistry`]: named counters and log2 histograms that
//!   serialize next to `StallBreakdown` in run reports.
//! - [`chrome_trace`]: a Chrome trace-event (`chrome://tracing` /
//!   Perfetto) JSON exporter.
//! - [`audit`]: replay checks over the event stream — monotonicity,
//!   bounds, and the span-tiling machinery the stall-attribution
//!   auditor uses to prove `total == busy + Σ stalls` per run.
//!
//! # Examples
//!
//! ```
//! use eve_obs::{audit, Tracer};
//!
//! let t = Tracer::new();
//! t.span("vsu", "busy", "uprog", 0, 9);
//! t.span("vsu", "ld_mem_stall", "ld_mem_stall", 9, 80);
//! t.count("vmu.lines", 4);
//!
//! let tiling = t.with_events(|events| audit::tile_track(events, "vsu")).unwrap();
//! assert_eq!(tiling.end - tiling.start, 89);
//! assert_eq!(tiling.by_cat["busy"], 9);
//! ```

pub mod audit;
mod buffer;
mod chrome;
mod event;
mod registry;
mod tracer;

pub use buffer::TraceBuffer;
pub use chrome::chrome_trace;
pub use event::{EventKind, TraceEvent};
pub use registry::{CounterRegistry, Histogram};
pub use tracer::Tracer;
