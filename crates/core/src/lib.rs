//! The EVE engine: an ephemeral vector engine carved out of the
//! private L2 cache (paper §V).
//!
//! [`EveEngine`] implements [`eve_cpu::VectorUnit`], so it plugs into
//! the O3 control processor exactly like the IV/DV baselines. Inside,
//! it models the paper's micro-architecture (Fig 3a):
//!
//! * **VCU** — receives vector instructions at commit (§V-A), queues
//!   them, and spawns the engine on first use by way-partitioning the
//!   L2 (§V-E, charged through `eve_mem::Hierarchy::spawn_vector_mode`);
//! * **VSU** — sequences each macro-operation's μprogram; macro-op
//!   latencies come from actually executing the `eve-uop` programs
//!   (via [`eve_uop::LatencyTable`]), not hand-picked constants;
//! * **VMU** — generates line-aligned requests (one per cycle,
//!   translated through an always-hit TLB port) directly to the LLC —
//!   the engine's SRAM *is* the L2 ways — and tracks the issue stalls
//!   Fig 8 reports;
//! * **VRU** — streams elements segment-by-segment for reductions and
//!   cross-element operations (§V-D);
//! * **DTUs** — eight transpose units convert line-ordered data to the
//!   segment-per-row layout (and back on stores); EVE-32 needs no
//!   transpose (§VII-B).
//!
//! Every cycle of engine time is attributed to one of the Fig 7
//! categories in a [`StallBreakdown`].
//!
//! # Examples
//!
//! ```
//! use eve_core::EveEngine;
//! use eve_cpu::VectorUnit;
//!
//! let eve8 = EveEngine::new(8)?;
//! assert_eq!(eve8.hw_vl(), 1024); // Table III
//! let eve1 = EveEngine::new(1)?;
//! assert_eq!(eve1.hw_vl(), 2048);
//! # Ok::<(), eve_common::ConfigError>(())
//! ```

pub mod engine;
pub mod mapping;
pub mod stats;

pub use engine::{EccMode, EngineTuning, EveEngine, ResilienceConfig, EVE_ARRAYS};
pub use mapping::{macro_ops, MacroOps};
pub use stats::StallBreakdown;
