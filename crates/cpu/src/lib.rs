//! Scalar core timing models: the in-order **IO** and out-of-order
//! **O3** baselines of Table III.
//!
//! Both models are *trace-driven*: they consume the committed
//! instruction stream from `eve-isa`'s functional interpreter and
//! charge cycles, owning a private `eve-mem` hierarchy for memory
//! timing. The O3 model exposes a [`VectorUnit`] socket; plugging in an
//! IV, DV, or EVE unit (from `eve-vector` / `eve-core`) produces the
//! paper's O3+IV, O3+DV, and O3+EVE systems.
//!
//! # Examples
//!
//! ```
//! use eve_cpu::{IoCore, O3Core};
//! use eve_isa::{Asm, Interpreter, Memory, xreg};
//!
//! let mut asm = Asm::new();
//! asm.li(xreg::T0, 1000);
//! asm.label("l");
//! asm.addi(xreg::T0, xreg::T0, -1);
//! asm.bnez(xreg::T0, "l");
//! asm.halt();
//! let prog = asm.assemble()?;
//!
//! let mut interp = Interpreter::new(prog.clone(), Memory::new(4096), 4);
//! let mut io = IoCore::new();
//! while let Some(r) = interp.step()? {
//!     io.retire(&r).expect("scalar program");
//! }
//! let io_cycles = io.finish();
//!
//! let mut interp = Interpreter::new(prog, Memory::new(4096), 4);
//! let mut o3 = O3Core::scalar();
//! while let Some(r) = interp.step()? {
//!     o3.retire(&r).expect("scalar program");
//! }
//! assert!(o3.finish() < io_cycles, "o3 overlaps what io serializes");
//! # Ok::<(), eve_isa::IsaError>(())
//! ```

pub mod branch;
pub mod io;
pub mod o3;
pub mod vector_if;

pub use branch::BranchPredictor;
pub use io::IoCore;
pub use o3::{O3Config, O3Core};
pub use vector_if::{fill_line_requests, EngineError, NoVector, VectorPlacement, VectorUnit};

/// Base address instruction fetches are mapped to (a code region
/// disjoint from workload data, so I-cache and D-cache traffic do not
/// alias).
pub const CODE_BASE: u64 = 0x4000_0000;
