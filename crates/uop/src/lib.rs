//! EVE micro-operations and micro-programs (paper §IV).
//!
//! EVE controls its compute-in-memory SRAM through a μop abstraction.
//! Every cycle the vector sequencing unit (VSU) fetches one VLIW
//! [`Tuple`] containing a counter μop, an arithmetic μop, and a control
//! μop, and executes all three (counter first, then arithmetic, then
//! control — §IV-B). Incoming vector instructions become *macro-ops*,
//! each implemented by a [`MicroProgram`] from the [`ProgramLibrary`].
//!
//! One sequencer, [`walk`], runs the counter and control μops of every
//! μprogram; its callers differ only in what they do with each
//! arithmetic μop:
//!
//! * the bit-accurate SRAM model in `eve-sram` applies it to real bit
//!   cells;
//! * the energy model in `eve-analytical` sums its energy;
//! * the cycle counter in [`latency`] ignores it, measuring how many
//!   cycles a macro-op takes on a given EVE-*n* configuration — the
//!   numbers the engine timing model and the §II analytical model are
//!   built from.
//!
//! # Examples
//!
//! ```
//! use eve_uop::{HybridConfig, MacroOpKind, ProgramLibrary};
//!
//! let cfg = HybridConfig::new(8).unwrap(); // EVE-8: 8-bit segments
//! let lib = ProgramLibrary::new(cfg);
//! let add = lib.program(MacroOpKind::Add);
//! // Bit-hybrid addition iterates over 32/8 = 4 segments.
//! let cycles = eve_uop::latency::count_cycles(&add, cfg);
//! assert!(cycles.0 > 4, "must at least touch every segment");
//! ```

pub mod counter;
pub mod display;
pub mod latency;
pub mod library;
pub mod program;
pub mod uop;

pub use counter::{CounterFile, CounterId};
pub use display::listing;
pub use latency::{count_cycles, walk, LatencyTable};
pub use library::{MacroOpKind, ProgramLibrary};
pub use program::{HybridConfig, MicroProgram, ProgramBuilder};
pub use uop::{
    ArithUop, CarryIn, ComputeSrc, ControlUop, CounterUop, MaskSrc, Operand, SegSel, Tuple, VSlot,
    WbDest,
};
