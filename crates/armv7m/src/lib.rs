//! # iw-armv7m — ARM Cortex-M4F subset simulator
//!
//! The ARM substrate of the InfiniWolf reproduction (Magno et al., DATE
//! 2020): a semantic-level simulator of the Thumb-2 + FPv4-SP subset that
//! the stress-detection inference kernels use, with the Cortex-M4 timing
//! model ([`CortexM4Timing`]) — single-cycle MAC, pipelined 2-cycle loads,
//! 3-cycle taken branches, 3-cycle `vmla.f32`.
//!
//! Programs are built with [`asm::ThumbAsm`] and run on [`CortexM4`]
//! against any [`iw_rv32::Bus`] data memory, so ARM and RISC-V kernels can
//! share identical memory images — a prerequisite for the bit-exactness
//! checks in `iw-kernels`.
//!
//! Instruction *semantics and timing* are modelled; the [`code`] module
//! adds a variable-length halfword encoding with the same shape as real
//! Thumb-2 (1–2 halfwords per instruction, pc-relative branches) without
//! claiming ARM bit-exactness. The assembler's `&[ThumbInstr]` compiles
//! straight into a [`BlockProgram`] (one slot per instruction, a loop op
//! at the head of each fixed-point dot-product loop) that
//! [`CortexM4::run_fused`] dispatches (under a recording sink it records
//! the same run, one instruction per dispatch; [`CortexM4::run`] compiles
//! and runs in one call); code
//! executes from immutable flash, so the compiled program never
//! invalidates. The per-halfword [`CortexM4::run_code`] path over the
//! encoding is the uncached reference, bit- and cycle-identical by
//! differential test. This is documented in DESIGN.md: the paper's
//! evaluation needs cycle counts and results of the kernels, which the
//! semantic model fully determines.
//!
//! # Examples
//!
//! A dot product with the single-cycle MAC:
//!
//! ```
//! use iw_armv7m::{asm::ThumbAsm, CortexM4, CortexM4Timing, Cond, LsWidth, R};
//! use iw_rv32::Ram;
//!
//! let mut ram = Ram::new(0, 256);
//! for i in 0..4u32 {
//!     ram.write_bytes(0x40 + 4 * i, &(i + 1).to_le_bytes()); // a = [1,2,3,4]
//!     ram.write_bytes(0x80 + 4 * i, &2u32.to_le_bytes());    // b = [2,2,2,2]
//! }
//!
//! let mut asm = ThumbAsm::new();
//! asm.li(R::R0, 0x40);
//! asm.li(R::R1, 0x80);
//! asm.li(R::R2, 4); // count
//! asm.li(R::R3, 0); // acc
//! let top = asm.here();
//! asm.ldr_post(LsWidth::W, R::R4, R::R0, 4);
//! asm.ldr_post(LsWidth::W, R::R5, R::R1, 4);
//! asm.mla(R::R3, R::R4, R::R5, R::R3);
//! asm.subs(R::R2, R::R2, 1);
//! asm.b_to(Cond::Ne, top);
//! asm.bkpt();
//!
//! let mut cpu = CortexM4::new();
//! cpu.run(&asm.finish()?, &mut ram, &CortexM4Timing::default(), 10_000)?;
//! assert_eq!(cpu.reg(R::R3), 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
mod block;
pub mod code;
mod cpu;
mod instr;
mod timing;

pub use block::{BlockProgram, FusedStats};
pub use code::{decode_at, encode_program, CodeError, DecodedProgram, EncodeError};
pub use cpu::{CortexM4, Flags, M4Error, RunResult};
pub use instr::{AddrMode, Cond, DpOp, LsWidth, ThumbInstr, R, S};
pub use timing::CortexM4Timing;
