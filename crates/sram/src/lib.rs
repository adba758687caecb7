//! Bit-accurate model of the EVE compute-in-memory SRAM (paper §III).
//!
//! EVE replaces the SRAM arrays in half the ways of a private L2 cache
//! with *EVE SRAM*: a 6T array whose sense amplifiers can operate
//! single-ended while two wordlines are asserted at once, computing the
//! bit-wise `and`/`nand`/`or`/`nor` of two rows in a single access
//! (bit-line compute, after Jeloka et al.). A stack of peripheral
//! circuit layers turns that primitive into a full vector unit:
//!
//! | layer | role |
//! |-------|------|
//! | bus logic | amplifies and selects the value written back |
//! | XOR/XNOR logic | derives `xor`/`xnor` from `nand` and `or` |
//! | add logic | *n*-bit Manchester carry chain per column group |
//! | XRegister | shift-right register; streams multiplier/sign bits |
//! | mask logic | per-column latch gating conditional writebacks |
//! | constant shifter | one-bit left/right shifts of a loaded segment |
//! | spare shifter | carries bits (and the add carry) across segments |
//!
//! [`EveArray`] implements all of this at bit granularity and executes
//! the μprograms from [`eve_uop`], so every macro-operation the engine
//! issues can be checked against plain Rust integer semantics — the
//! verification role the paper's SPICE/schematic simulations played.
//!
//! # Examples
//!
//! ```
//! use eve_sram::{Binding, EveArray};
//! use eve_uop::{HybridConfig, MacroOpKind, ProgramLibrary};
//!
//! let cfg = HybridConfig::new(8)?;
//! let mut array = EveArray::new(cfg, 4); // 4 lanes
//! array.write_element(1, 0, 1000);
//! array.write_element(2, 0, 234);
//! let prog = ProgramLibrary::new(cfg).program(MacroOpKind::Add);
//! array.execute(&prog, &Binding::new(3, 1, 2));
//! assert_eq!(array.read_element(3, 0), 1234);
//! # Ok::<(), eve_common::ConfigError>(())
//! ```

pub mod array;
pub mod ecc;
pub mod fault;
pub mod geometry;
pub mod scalar;

pub use array::{Binding, DetectionMode, EveArray, ScrubStats};
pub use ecc::{SecdedCode, SecdedVerdict};
pub use fault::{Fault, FaultConfig, FaultInjector, FaultKind, FaultLayer, FaultStats};
pub use geometry::{LayoutModel, SramGeometry, DEFAULT_SPARE_ROWS};
pub use scalar::ScalarArray;
