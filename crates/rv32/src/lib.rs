//! # iw-rv32 — RV32IM + Xpulp instruction-set simulator
//!
//! This crate is the RISC-V substrate of the InfiniWolf reproduction
//! (Magno et al., *InfiniWolf*, DATE 2020). It models the two kinds of
//! cores found in the Mr. Wolf SoC:
//!
//! * the **Ibex** fabric controller — plain RV32IM ([`Cpu::new_rv32im`],
//!   [`Timing::ibex`]),
//! * the **RI5CY** cluster cores — RV32IM plus the Xpulp extension subset
//!   used by DSP kernels: hardware loops, post-increment memory accesses,
//!   MAC, clip/min/max and packed 16-bit SIMD ([`Cpu::new`],
//!   [`Timing::riscy`]).
//!
//! Instructions have real 32-bit binary encodings ([`encode`]/[`decode`]
//! round-trip, property-tested), programs are built with the [`asm::Asm`]
//! mini-assembler and executed by [`Cpu`] against any [`Bus`].
//!
//! Timing is instruction-granular: each retired instruction reports its
//! base cost from a [`Timing`] model, and memory accesses are surfaced via
//! [`Step::mem`] so the SoC model (`iw-mrwolf`) can add TCDM bank-conflict
//! stalls.
//!
//! Simulation throughput comes from translating each static instruction
//! once: a [`Program`] holds one pre-resolved op per PC, fusing the
//! kernels' inner-loop idioms into superinstructions, and
//! [`Cpu::run_program`] dispatches it with bit- and cycle-identical
//! results to the fetch-and-decode reference path ([`Cpu::run`]). It
//! takes an instrumentation sink: the no-op sink compiles away, and a
//! recording sink records the same run, one instruction per dispatch.
//!
//! # Examples
//!
//! Sum an array with a hardware loop and post-increment loads — the inner
//! loop is two cycles per element:
//!
//! ```
//! use iw_rv32::{asm::Asm, Cpu, Ram, Reg, Timing, MemWidth, LoopIdx};
//!
//! let mut ram = Ram::new(0, 4096);
//! for i in 0..10u32 {
//!     ram.write_bytes(0x100 + 4 * i, &(i + 1).to_le_bytes());
//! }
//!
//! let mut asm = Asm::new(0);
//! asm.li(Reg::A0, 0);       // sum
//! asm.li(Reg::A1, 0x100);   // cursor
//! asm.li(Reg::T0, 10);      // count
//! let end = asm.new_label();
//! asm.lp_setup_to(LoopIdx::L0, Reg::T0, end);
//! asm.load_post(MemWidth::W, Reg::A2, Reg::A1, 4);
//! asm.add(Reg::A0, Reg::A0, Reg::A2);
//! asm.bind(end);
//! asm.ecall();
//! ram.write_bytes(0, &asm.assemble()?);
//!
//! let mut cpu = Cpu::new(0);
//! cpu.run(&mut ram, &Timing::riscy(), 10_000)?;
//! assert_eq!(cpu.reg(Reg::A0), 55);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
mod block;
mod bus;
mod cpu;
mod decode;
mod encode;
mod instr;
mod profile;
mod timing;

pub use block::{dot_row, DotBody, Op, Program, ProgramStats};
pub use bus::{Bus, BusError, Ram, Rom};
pub use cpu::{Cpu, CpuError, HwLoop, MemAccess, RunResult, Step};
pub use decode::{decode, DecodeError};
pub use encode::{encode, EncodeError};
pub use instr::{
    AluImmOp, AluOp, BranchCond, Instr, LoopIdx, MemWidth, PulpAluOp, Reg, ShiftOp, SimdOp,
};
pub use profile::{ClassStats, ExecProfile, InstrClass};
pub use timing::Timing;
