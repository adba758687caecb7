//! The kernel IR: an RVV-like vector ISA, assembler, and functional
//! interpreter.
//!
//! The paper evaluates EVE on Rodinia/RiVEC kernels hand-vectorized with
//! RISC-V vector intrinsics. This crate provides the equivalent
//! substrate: a small register machine with RV-style scalar instructions
//! plus the 32-bit integer subset of the RISC-V vector extension —
//! `vsetvl`, unit-stride / strided / indexed loads and stores, the full
//! integer ALU including multiply/divide, compares and mask registers,
//! predication, merges, reductions, slides and gathers, and the
//! scalar-vector memory fence (`vmfence`) EVE introduces (§V-A).
//!
//! Execution is *functional*: [`Interpreter`] runs a [`Program`] against
//! a [`Memory`] and emits one [`Retired`] record per committed
//! instruction. Timing models (in `eve-cpu`, `eve-vector`, `eve-core`)
//! consume that stream and charge cycles — the same
//! execution/timing split the paper's gem5 model uses (§VII-A).
//!
//! # Examples
//!
//! Vector-add two arrays with strip-mining, exactly as an RVV binary
//! would:
//!
//! ```
//! use eve_isa::{Asm, Interpreter, Memory, VOperand, xreg, vreg};
//!
//! let (a, b, n) = (0x1000u64, 0x2000u64, 64i64);
//! let mut asm = Asm::new();
//! asm.li(xreg::T0, n);            // remaining elements
//! asm.li(xreg::T1, a as i64);     // source/dest pointer
//! asm.li(xreg::T2, b as i64);
//! asm.label("strip");
//! asm.setvl(xreg::T3, xreg::T0);  // vl = min(remaining, hw vl)
//! asm.vload(vreg::V1, xreg::T1);
//! asm.vload(vreg::V2, xreg::T2);
//! asm.vadd(vreg::V3, vreg::V1, VOperand::Reg(vreg::V2));
//! asm.vstore(vreg::V3, xreg::T1);
//! // advance pointers by vl * 4 and loop
//! asm.slli(xreg::T4, xreg::T3, 2);
//! asm.add(xreg::T1, xreg::T1, xreg::T4);
//! asm.add(xreg::T2, xreg::T2, xreg::T4);
//! asm.sub(xreg::T0, xreg::T0, xreg::T3);
//! asm.bnez(xreg::T0, "strip");
//! asm.halt();
//!
//! let mut mem = Memory::new(1 << 16);
//! for i in 0..64 {
//!     mem.store_u32(a + i * 4, i as u32);
//!     mem.store_u32(b + i * 4, 100);
//! }
//! let mut interp = Interpreter::new(asm.assemble()?, mem, 8); // hw vl = 8
//! interp.run_to_halt()?;
//! assert_eq!(interp.memory().load_u32(a), 100);
//! assert_eq!(interp.memory().load_u32(a + 63 * 4), 163);
//! # Ok::<(), eve_isa::IsaError>(())
//! ```

pub mod asm;
pub mod characterize;
pub mod disasm;
pub mod inst;
pub mod interp;
pub mod mem;
pub mod reg;

pub use asm::{Asm, Program};
pub use characterize::{Characterization, InstClass};
pub use disasm::disasm;
pub use inst::{
    BranchCond, Inst, MaskOp, MemWidth, RedOp, ScalarOp, VArithOp, VCmpCond, VOperand, VStride,
};
pub use interp::{Interpreter, IsaError, MemEffect, Retired};
pub use mem::Memory;
pub use reg::{vreg, xreg, RegId, Vreg, Xreg};
