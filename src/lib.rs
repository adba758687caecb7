//! # EVE: Ephemeral Vector Engines — a Rust reproduction
//!
//! This crate re-exports the whole workspace behind one façade so the
//! examples and integration tests read naturally. See the individual
//! crates for the real APIs:
//!
//! * [`eve_isa`] — the RVV-like kernel IR and functional interpreter
//! * [`eve_uop`] — EVE μops and macro-op μprograms (paper §IV)
//! * [`eve_sram`] — the bit-accurate compute-in-memory SRAM (§III)
//! * [`eve_mem`] — cache hierarchy, MSHRs, DRAM
//! * [`eve_cpu`] — IO and O3 scalar core timing models
//! * [`eve_vector`] — the IV and DV baseline vector units
//! * [`eve_core`] — the EVE engine itself: VCU/VSU/VMU/VRU (§V)
//! * [`eve_analytical`] — §II taxonomy spectrum and §VI area/timing
//! * [`eve_workloads`] — the Rodinia/RiVEC-style kernels (Table IV)
//! * [`eve_sim`] — Table III system assembly and the experiment runner
//! * [`eve_serve`] — the resilient serving layer: one event loop from a
//!   one-shard engine pool to a sharded cluster (breakers, deadlines,
//!   fault storms)
//!
//! # Quickstart
//!
//! ```
//! use eve_sim::{SystemKind, Runner};
//! use eve_workloads::Workload;
//!
//! let report = Runner::new()
//!     .run(SystemKind::EveN(8), &Workload::vvadd(1 << 12))
//!     .expect("simulation succeeds");
//! assert!(report.cycles.0 > 0);
//! ```

pub use eve_analytical as analytical;
pub use eve_common as common;
pub use eve_core as core_engine;
pub use eve_cpu as cpu;
pub use eve_isa as isa;
pub use eve_mem as mem;
pub use eve_serve as serve;
pub use eve_sim as sim;
pub use eve_sram as sram;
pub use eve_uop as uop;
pub use eve_vector as vector;
pub use eve_workloads as workloads;
