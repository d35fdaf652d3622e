//! The instruction-set interpreter.

use crate::bus::{Bus, BusError};
use crate::decode::{decode, DecodeError};
use crate::instr::{AluImmOp, AluOp, BranchCond, Instr, MemWidth, PulpAluOp, Reg, ShiftOp, SimdOp};
use crate::profile::{ExecProfile, InstrClass};
use crate::timing::Timing;

/// Error raised while executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// The fetched word is not a supported instruction.
    Decode(DecodeError),
    /// A data access or fetch faulted.
    Bus(BusError),
    /// An Xpulp instruction was executed on a core without Xpulp support
    /// (the Ibex fabric controller).
    IllegalXpulp {
        /// Address of the offending instruction.
        pc: u32,
    },
    /// A data access was not naturally aligned.
    Misaligned {
        /// Faulting data address.
        addr: u32,
        /// Address of the offending instruction.
        pc: u32,
    },
    /// The run exceeded the caller-provided cycle budget.
    CycleLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl core::fmt::Display for CpuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CpuError::Decode(e) => write!(f, "{e}"),
            CpuError::Bus(e) => write!(f, "{e}"),
            CpuError::IllegalXpulp { pc } => {
                write!(f, "xpulp instruction on non-xpulp core at {pc:#010x}")
            }
            CpuError::Misaligned { addr, pc } => {
                write!(f, "misaligned access to {addr:#010x} at {pc:#010x}")
            }
            CpuError::CycleLimit { limit } => write!(f, "cycle limit of {limit} exceeded"),
        }
    }
}

impl std::error::Error for CpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CpuError::Decode(e) => Some(e),
            CpuError::Bus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BusError> for CpuError {
    fn from(e: BusError) -> CpuError {
        CpuError::Bus(e)
    }
}

impl From<DecodeError> for CpuError {
    fn from(e: DecodeError) -> CpuError {
        CpuError::Decode(e)
    }
}

/// One hardware-loop register set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwLoop {
    /// Address of the first instruction of the body.
    pub start: u32,
    /// Address of the first instruction *after* the body.
    pub end: u32,
    /// Remaining iterations (0 = inactive).
    pub count: u32,
}

/// Description of the data-memory access performed by a step, used by the
/// SoC model to charge TCDM bank-conflict stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Data address.
    pub addr: u32,
    /// `true` for stores.
    pub write: bool,
    /// Access width.
    pub width: MemWidth,
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The retired instruction.
    pub instr: Instr,
    /// Address it was fetched from.
    pub pc: u32,
    /// Base cycle cost from the [`Timing`] model (stalls not included).
    pub cycles: u32,
    /// The data access, if the instruction touched memory.
    pub mem: Option<MemAccess>,
    /// `true` once `ecall`/`ebreak` retired; further steps are no-ops.
    pub halted: bool,
}

/// An RV32IM(+Xpulp) hart.
///
/// The CPU owns architectural state only; memory is supplied per step so the
/// same core type can sit behind different memory systems (L2 for Ibex,
/// banked TCDM for cluster cores).
///
/// # Examples
///
/// ```
/// use iw_rv32::{Cpu, Ram, Timing, asm::Asm, Reg};
/// let mut asm = Asm::new(0);
/// asm.li(Reg::A0, 21);
/// asm.add(Reg::A0, Reg::A0, Reg::A0);
/// asm.ecall();
/// let mut ram = Ram::new(0, 64);
/// ram.write_bytes(0, &asm.assemble()?);
/// let mut cpu = Cpu::new(0);
/// let run = cpu.run(&mut ram, &Timing::riscy(), 1_000)?;
/// assert_eq!(cpu.reg(Reg::A0), 42);
/// assert!(run.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) regs: [u32; 32],
    pub(crate) pc: u32,
    pub(crate) hwloops: [HwLoop; 2],
    pub(crate) xpulp: bool,
    pub(crate) halted: bool,
    pub(crate) retired: u64,
    pub(crate) profile: ExecProfile,
}

/// Summary of a [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Total base cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
}

impl Cpu {
    /// Creates a hart with Xpulp extensions enabled (a RI5CY core), with
    /// `pc` as the reset address.
    #[must_use]
    pub fn new(pc: u32) -> Cpu {
        Cpu {
            regs: [0; 32],
            pc,
            hwloops: [HwLoop::default(); 2],
            xpulp: true,
            halted: false,
            retired: 0,
            profile: ExecProfile::new(),
        }
    }

    /// Creates a plain RV32IM hart (the Ibex fabric controller): Xpulp
    /// instructions raise [`CpuError::IllegalXpulp`].
    #[must_use]
    pub fn new_rv32im(pc: u32) -> Cpu {
        Cpu {
            xpulp: false,
            ..Cpu::new(pc)
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (e.g. to re-enter a routine).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
        self.halted = false;
    }

    /// Reads a register (`x0` always reads zero).
    #[inline]
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        // `Reg` guarantees index < 32; the mask lets the bounds check fold.
        self.regs[(r.index() & 31) as usize]
    }

    /// Writes a register (writes to `x0` are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r.index() != 0 {
            self.regs[(r.index() & 31) as usize] = value;
        }
    }

    /// `true` once an `ecall`/`ebreak` retired.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Per-class execution profile accumulated so far.
    #[must_use]
    pub fn profile(&self) -> &ExecProfile {
        &self.profile
    }

    /// Clears the execution profile.
    pub fn reset_profile(&mut self) {
        self.profile = ExecProfile::new();
    }

    /// Hardware-loop state (for tests and diagnostics).
    #[must_use]
    pub fn hwloop(&self, idx: usize) -> HwLoop {
        self.hwloops[idx]
    }

    /// Retires one instruction: applies the hardware-loop back-edge
    /// redirect, records the profile and advances `pc`.
    ///
    /// This is the exact tail of [`Cpu::execute`], factored out so the
    /// [`Program`](crate::Program) ops that have already performed an
    /// instruction's architectural effects can finish it identically —
    /// sub-instructions of a fused op each retire through here so a fault
    /// or budget stop between them leaves state exactly as the reference
    /// path would.
    #[inline(always)]
    pub(crate) fn retire(
        &mut self,
        class: InstrClass,
        cycles: u32,
        mut next_pc: u32,
        loop_redirect_allowed: bool,
    ) {
        if loop_redirect_allowed && !self.halted {
            for l in 0..2 {
                let hl = &mut self.hwloops[l];
                if hl.count > 0 && next_pc == hl.end {
                    if hl.count > 1 {
                        hl.count -= 1;
                        next_pc = hl.start;
                    } else {
                        hl.count = 0;
                    }
                    break;
                }
            }
        }
        self.profile.record(class, cycles);
        self.pc = next_pc;
        self.retired += 1;
    }

    pub(crate) fn mem_load<B: Bus>(
        &mut self,
        bus: &mut B,
        addr: u32,
        width: MemWidth,
    ) -> Result<u32, CpuError> {
        if !addr.is_multiple_of(width.bytes()) {
            return Err(CpuError::Misaligned { addr, pc: self.pc });
        }
        let raw = bus.load(addr, width)?;
        Ok(match width {
            MemWidth::B => raw as u8 as i8 as i32 as u32,
            MemWidth::H => raw as u16 as i16 as i32 as u32,
            MemWidth::W | MemWidth::Bu | MemWidth::Hu => raw,
        })
    }

    pub(crate) fn mem_store<B: Bus>(
        &mut self,
        bus: &mut B,
        addr: u32,
        width: MemWidth,
        value: u32,
    ) -> Result<(), CpuError> {
        if !addr.is_multiple_of(width.bytes()) {
            return Err(CpuError::Misaligned { addr, pc: self.pc });
        }
        bus.store(addr, width, value)?;
        Ok(())
    }

    /// Executes one instruction, fetching and decoding it from the bus.
    ///
    /// Returns the retired instruction, its base cycle cost and the data
    /// access it performed (if any), or `None` if the core is already
    /// halted (halt is a terminal state, not a retired instruction).
    ///
    /// # Errors
    ///
    /// Propagates decode faults, bus faults, alignment faults and illegal
    /// Xpulp usage; see [`CpuError`].
    pub fn step<B: Bus>(&mut self, bus: &mut B, timing: &Timing) -> Result<Option<Step>, CpuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let word = bus.fetch(pc)?;
        let instr = decode(word).map_err(|e| {
            CpuError::Decode(DecodeError {
                addr: Some(pc),
                ..e
            })
        })?;
        let (cycles, mem) = self.execute_reference(instr, pc, bus, timing)?;
        Ok(Some(Step {
            instr,
            pc,
            cycles,
            mem,
            halted: self.halted,
        }))
    }

    /// Reference implementation of one instruction, kept verbatim from the
    /// original straightforward interpreter: a full dispatch match followed
    /// by a separate classification match. [`Cpu::step`] and [`Cpu::run`]
    /// use it, so the uncached path stays a frozen golden model against
    /// which the optimised [`Cpu::execute`] is differentially tested —
    /// property tests in this crate and the cluster/SoC differential tests
    /// prove the two retire identical architectural state, cycles, memory
    /// accesses and profiles.
    fn execute_reference<B: Bus>(
        &mut self,
        instr: Instr,
        pc: u32,
        bus: &mut B,
        timing: &Timing,
    ) -> Result<(u32, Option<MemAccess>), CpuError> {
        if instr.is_xpulp() && !self.xpulp {
            return Err(CpuError::IllegalXpulp { pc });
        }

        let mut next_pc = pc.wrapping_add(4);
        let mut cycles = timing.alu;
        let mut mem = None;
        let mut loop_redirect_allowed = true;
        let mut branch_was_taken = false;

        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u32)),
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
                cycles = timing.jump;
                loop_redirect_allowed = false;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                cycles = timing.jump;
                loop_redirect_allowed = false;
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as u32);
                    cycles = timing.branch_taken;
                    branch_was_taken = true;
                } else {
                    cycles = timing.branch_not_taken;
                }
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let v = self.mem_load(bus, addr, width)?;
                self.set_reg(rd, v);
                cycles = timing.load;
                mem = Some(MemAccess {
                    addr,
                    write: false,
                    width,
                });
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                self.mem_store(bus, addr, width, self.reg(rs2))?;
                cycles = timing.store;
                mem = Some(MemAccess {
                    addr,
                    write: true,
                    width,
                });
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let v = match op {
                    AluImmOp::Addi => a.wrapping_add(imm as u32),
                    AluImmOp::Slti => u32::from((a as i32) < imm),
                    AluImmOp::Sltiu => u32::from(a < imm as u32),
                    AluImmOp::Xori => a ^ imm as u32,
                    AluImmOp::Ori => a | imm as u32,
                    AluImmOp::Andi => a & imm as u32,
                };
                self.set_reg(rd, v);
            }
            Instr::Shift { op, rd, rs1, shamt } => {
                let a = self.reg(rs1);
                let v = match op {
                    ShiftOp::Slli => a << shamt,
                    ShiftOp::Srli => a >> shamt,
                    ShiftOp::Srai => ((a as i32) >> shamt) as u32,
                };
                self.set_reg(rd, v);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Sll => a.wrapping_shl(b & 0x1f),
                    AluOp::Slt => u32::from((a as i32) < (b as i32)),
                    AluOp::Sltu => u32::from(a < b),
                    AluOp::Xor => a ^ b,
                    AluOp::Srl => a.wrapping_shr(b & 0x1f),
                    AluOp::Sra => ((a as i32) >> (b & 0x1f)) as u32,
                    AluOp::Or => a | b,
                    AluOp::And => a & b,
                    AluOp::Mul => {
                        cycles = timing.mul;
                        a.wrapping_mul(b)
                    }
                    AluOp::Mulh => {
                        cycles = timing.mul;
                        ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32
                    }
                    AluOp::Mulhsu => {
                        cycles = timing.mul;
                        ((i64::from(a as i32) * i64::from(b)) >> 32) as u32
                    }
                    AluOp::Mulhu => {
                        cycles = timing.mul;
                        ((u64::from(a) * u64::from(b)) >> 32) as u32
                    }
                    AluOp::Div => {
                        cycles = timing.div;
                        let (a, b) = (a as i32, b as i32);
                        if b == 0 {
                            u32::MAX
                        } else if a == i32::MIN && b == -1 {
                            a as u32
                        } else {
                            (a / b) as u32
                        }
                    }
                    AluOp::Divu => {
                        cycles = timing.div;
                        a.checked_div(b).unwrap_or(u32::MAX)
                    }
                    AluOp::Rem => {
                        cycles = timing.div;
                        let (a, b) = (a as i32, b as i32);
                        if b == 0 {
                            a as u32
                        } else if a == i32::MIN && b == -1 {
                            0
                        } else {
                            (a % b) as u32
                        }
                    }
                    AluOp::Remu => {
                        cycles = timing.div;
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                };
                self.set_reg(rd, v);
            }
            Instr::Ecall | Instr::Ebreak => {
                self.halted = true;
                next_pc = pc;
            }
            Instr::Fence => {}
            Instr::LoadPost {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let v = self.mem_load(bus, addr, width)?;
                self.set_reg(rd, v);
                // Post-increment happens after the load; if rd == rs1 the
                // loaded value wins (as on RI5CY).
                if rd != rs1 {
                    self.set_reg(rs1, addr.wrapping_add(offset as u32));
                }
                cycles = timing.load;
                mem = Some(MemAccess {
                    addr,
                    write: false,
                    width,
                });
            }
            Instr::StorePost {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                self.mem_store(bus, addr, width, self.reg(rs2))?;
                self.set_reg(rs1, addr.wrapping_add(offset as u32));
                cycles = timing.store;
                mem = Some(MemAccess {
                    addr,
                    write: true,
                    width,
                });
            }
            Instr::Mac { rd, rs1, rs2 } => {
                let v = self
                    .reg(rd)
                    .wrapping_add(self.reg(rs1).wrapping_mul(self.reg(rs2)));
                self.set_reg(rd, v);
                cycles = timing.xpulp;
            }
            Instr::Msu { rd, rs1, rs2 } => {
                let v = self
                    .reg(rd)
                    .wrapping_sub(self.reg(rs1).wrapping_mul(self.reg(rs2)));
                self.set_reg(rd, v);
                cycles = timing.xpulp;
            }
            Instr::Clip { rd, rs1, bits } => {
                let a = self.reg(rs1) as i32;
                let (lo, hi) = if bits == 0 {
                    (-1i32, 0i32)
                } else {
                    (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1)
                };
                self.set_reg(rd, a.clamp(lo, hi) as u32);
                cycles = timing.xpulp;
            }
            Instr::PulpAlu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let v = match op {
                    PulpAluOp::Abs => (a as i32).unsigned_abs(),
                    PulpAluOp::Min => (a as i32).min(b as i32) as u32,
                    PulpAluOp::Max => (a as i32).max(b as i32) as u32,
                    PulpAluOp::Minu => a.min(b),
                    PulpAluOp::Maxu => a.max(b),
                    PulpAluOp::Exths => a as u16 as i16 as i32 as u32,
                    PulpAluOp::Extuh => a & 0xffff,
                };
                self.set_reg(rd, v);
                cycles = timing.xpulp;
            }
            Instr::Simd { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let (a0, a1) = (a as u16 as i16, (a >> 16) as u16 as i16);
                let (b0, b1) = (b as u16 as i16, (b >> 16) as u16 as i16);
                let pack = |lo: i16, hi: i16| (lo as u16 as u32) | ((hi as u16 as u32) << 16);
                let v = match op {
                    SimdOp::AddH => pack(a0.wrapping_add(b0), a1.wrapping_add(b1)),
                    SimdOp::SubH => pack(a0.wrapping_sub(b0), a1.wrapping_sub(b1)),
                    SimdOp::MinH => pack(a0.min(b0), a1.min(b1)),
                    SimdOp::MaxH => pack(a0.max(b0), a1.max(b1)),
                    SimdOp::DotspH => (i32::from(a0) * i32::from(b0))
                        .wrapping_add(i32::from(a1) * i32::from(b1))
                        as u32,
                    SimdOp::SdotspH => self.reg(rd).wrapping_add(
                        (i32::from(a0) * i32::from(b0)).wrapping_add(i32::from(a1) * i32::from(b1))
                            as u32,
                    ),
                    SimdOp::PackH => pack(a0, b0),
                };
                self.set_reg(rd, v);
                cycles = timing.xpulp;
            }
            Instr::LpStarti { l, offset } => {
                self.hwloops[l.index()].start = pc.wrapping_add(offset as u32);
                cycles = timing.hwloop_setup;
            }
            Instr::LpEndi { l, offset } => {
                self.hwloops[l.index()].end = pc.wrapping_add(offset as u32);
                cycles = timing.hwloop_setup;
            }
            Instr::LpCount { l, rs1 } => {
                self.hwloops[l.index()].count = self.reg(rs1);
                cycles = timing.hwloop_setup;
            }
            Instr::LpCounti { l, count } => {
                self.hwloops[l.index()].count = count.into();
                cycles = timing.hwloop_setup;
            }
            Instr::LpSetup { l, rs1, offset } => {
                self.hwloops[l.index()] = HwLoop {
                    start: pc.wrapping_add(4),
                    end: pc.wrapping_add(offset as u32),
                    count: self.reg(rs1),
                };
                cycles = timing.hwloop_setup;
            }
            Instr::LpSetupi { l, count, offset } => {
                self.hwloops[l.index()] = HwLoop {
                    start: pc.wrapping_add(4),
                    end: pc.wrapping_add(offset as u32),
                    count: count.into(),
                };
                cycles = timing.hwloop_setup;
            }
        }

        // Hardware-loop back edges: when sequential flow reaches a loop end
        // with iterations remaining, jump back to the start for free.
        // Innermost loop (L0) has priority, as on RI5CY.
        if loop_redirect_allowed && !self.halted {
            for l in 0..2 {
                let hl = &mut self.hwloops[l];
                if hl.count > 0 && next_pc == hl.end {
                    if hl.count > 1 {
                        hl.count -= 1;
                        next_pc = hl.start;
                    } else {
                        hl.count = 0;
                    }
                    break;
                }
            }
        }

        let class = match instr {
            Instr::Alu { op, .. } => match op {
                AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => InstrClass::Mul,
                AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => InstrClass::Div,
                _ => InstrClass::Alu,
            },
            Instr::Lui { .. }
            | Instr::Auipc { .. }
            | Instr::AluImm { .. }
            | Instr::Shift { .. } => InstrClass::Alu,
            Instr::Load { .. } | Instr::LoadPost { .. } => InstrClass::Load,
            Instr::Store { .. } | Instr::StorePost { .. } => InstrClass::Store,
            Instr::Branch { .. } => {
                if branch_was_taken {
                    InstrClass::BranchTaken
                } else {
                    InstrClass::BranchNotTaken
                }
            }
            Instr::Jal { .. } | Instr::Jalr { .. } => InstrClass::Jump,
            Instr::Mac { .. } | Instr::Msu { .. } | Instr::Clip { .. } | Instr::PulpAlu { .. } => {
                InstrClass::Dsp
            }
            Instr::Simd { .. } => InstrClass::Simd,
            Instr::LpStarti { .. }
            | Instr::LpEndi { .. }
            | Instr::LpCount { .. }
            | Instr::LpCounti { .. }
            | Instr::LpSetup { .. }
            | Instr::LpSetupi { .. } => InstrClass::LoopSetup,
            Instr::Ecall | Instr::Ebreak | Instr::Fence => InstrClass::System,
        };
        self.profile.record(class, cycles);
        self.pc = next_pc;
        self.retired += 1;
        Ok((cycles, mem))
    }

    /// Executes an already-decoded instruction.
    ///
    /// `instr` must be the instruction fetched from `pc` (callers that
    /// pre-decode are responsible for coherence with code stores).
    /// Architectural state, the hardware-loop redirect, the execution
    /// profile, `pc` and the retired count are all updated exactly as
    /// [`Cpu::step`] would.
    ///
    /// # Errors
    ///
    /// Propagates bus faults, alignment faults and illegal Xpulp usage.
    pub(crate) fn execute<B: Bus>(
        &mut self,
        instr: Instr,
        pc: u32,
        bus: &mut B,
        timing: &Timing,
    ) -> Result<(u32, Option<MemAccess>), CpuError> {
        // Test the flag first: on Xpulp-enabled cores (every RI5CY core in
        // the cluster hot path) the per-instruction class test is skipped
        // entirely.
        if !self.xpulp && instr.is_xpulp() {
            return Err(CpuError::IllegalXpulp { pc });
        }

        let mut next_pc = pc.wrapping_add(4);
        let mut cycles = timing.alu;
        let mut mem = None;
        let mut loop_redirect_allowed = true;
        // Classified inline by each arm (one dispatch, not a second match).
        let mut class = InstrClass::Alu;

        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u32)),
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
                cycles = timing.jump;
                class = InstrClass::Jump;
                loop_redirect_allowed = false;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                cycles = timing.jump;
                class = InstrClass::Jump;
                loop_redirect_allowed = false;
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as u32);
                    cycles = timing.branch_taken;
                    class = InstrClass::BranchTaken;
                } else {
                    cycles = timing.branch_not_taken;
                    class = InstrClass::BranchNotTaken;
                }
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let v = self.mem_load(bus, addr, width)?;
                self.set_reg(rd, v);
                cycles = timing.load;
                class = InstrClass::Load;
                mem = Some(MemAccess {
                    addr,
                    write: false,
                    width,
                });
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                self.mem_store(bus, addr, width, self.reg(rs2))?;
                cycles = timing.store;
                class = InstrClass::Store;
                mem = Some(MemAccess {
                    addr,
                    write: true,
                    width,
                });
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let v = match op {
                    AluImmOp::Addi => a.wrapping_add(imm as u32),
                    AluImmOp::Slti => u32::from((a as i32) < imm),
                    AluImmOp::Sltiu => u32::from(a < imm as u32),
                    AluImmOp::Xori => a ^ imm as u32,
                    AluImmOp::Ori => a | imm as u32,
                    AluImmOp::Andi => a & imm as u32,
                };
                self.set_reg(rd, v);
            }
            Instr::Shift { op, rd, rs1, shamt } => {
                let a = self.reg(rs1);
                let v = match op {
                    ShiftOp::Slli => a << shamt,
                    ShiftOp::Srli => a >> shamt,
                    ShiftOp::Srai => ((a as i32) >> shamt) as u32,
                };
                self.set_reg(rd, v);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Sll => a.wrapping_shl(b & 0x1f),
                    AluOp::Slt => u32::from((a as i32) < (b as i32)),
                    AluOp::Sltu => u32::from(a < b),
                    AluOp::Xor => a ^ b,
                    AluOp::Srl => a.wrapping_shr(b & 0x1f),
                    AluOp::Sra => ((a as i32) >> (b & 0x1f)) as u32,
                    AluOp::Or => a | b,
                    AluOp::And => a & b,
                    AluOp::Mul => {
                        cycles = timing.mul;
                        class = InstrClass::Mul;
                        a.wrapping_mul(b)
                    }
                    AluOp::Mulh => {
                        cycles = timing.mul;
                        class = InstrClass::Mul;
                        ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32
                    }
                    AluOp::Mulhsu => {
                        cycles = timing.mul;
                        class = InstrClass::Mul;
                        ((i64::from(a as i32) * i64::from(b)) >> 32) as u32
                    }
                    AluOp::Mulhu => {
                        cycles = timing.mul;
                        class = InstrClass::Mul;
                        ((u64::from(a) * u64::from(b)) >> 32) as u32
                    }
                    AluOp::Div => {
                        cycles = timing.div;
                        class = InstrClass::Div;
                        let (a, b) = (a as i32, b as i32);
                        if b == 0 {
                            u32::MAX
                        } else if a == i32::MIN && b == -1 {
                            a as u32
                        } else {
                            (a / b) as u32
                        }
                    }
                    AluOp::Divu => {
                        cycles = timing.div;
                        class = InstrClass::Div;
                        a.checked_div(b).unwrap_or(u32::MAX)
                    }
                    AluOp::Rem => {
                        cycles = timing.div;
                        class = InstrClass::Div;
                        let (a, b) = (a as i32, b as i32);
                        if b == 0 {
                            a as u32
                        } else if a == i32::MIN && b == -1 {
                            0
                        } else {
                            (a % b) as u32
                        }
                    }
                    AluOp::Remu => {
                        cycles = timing.div;
                        class = InstrClass::Div;
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                };
                self.set_reg(rd, v);
            }
            Instr::Ecall | Instr::Ebreak => {
                self.halted = true;
                next_pc = pc;
                class = InstrClass::System;
            }
            Instr::Fence => class = InstrClass::System,
            Instr::LoadPost {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let v = self.mem_load(bus, addr, width)?;
                self.set_reg(rd, v);
                // Post-increment happens after the load; if rd == rs1 the
                // loaded value wins (as on RI5CY).
                if rd != rs1 {
                    self.set_reg(rs1, addr.wrapping_add(offset as u32));
                }
                cycles = timing.load;
                class = InstrClass::Load;
                mem = Some(MemAccess {
                    addr,
                    write: false,
                    width,
                });
            }
            Instr::StorePost {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                self.mem_store(bus, addr, width, self.reg(rs2))?;
                self.set_reg(rs1, addr.wrapping_add(offset as u32));
                cycles = timing.store;
                class = InstrClass::Store;
                mem = Some(MemAccess {
                    addr,
                    write: true,
                    width,
                });
            }
            Instr::Mac { rd, rs1, rs2 } => {
                let v = self
                    .reg(rd)
                    .wrapping_add(self.reg(rs1).wrapping_mul(self.reg(rs2)));
                self.set_reg(rd, v);
                cycles = timing.xpulp;
                class = InstrClass::Dsp;
            }
            Instr::Msu { rd, rs1, rs2 } => {
                let v = self
                    .reg(rd)
                    .wrapping_sub(self.reg(rs1).wrapping_mul(self.reg(rs2)));
                self.set_reg(rd, v);
                cycles = timing.xpulp;
                class = InstrClass::Dsp;
            }
            Instr::Clip { rd, rs1, bits } => {
                let a = self.reg(rs1) as i32;
                let (lo, hi) = if bits == 0 {
                    (-1i32, 0i32)
                } else {
                    (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1)
                };
                self.set_reg(rd, a.clamp(lo, hi) as u32);
                cycles = timing.xpulp;
                class = InstrClass::Dsp;
            }
            Instr::PulpAlu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let v = match op {
                    PulpAluOp::Abs => (a as i32).unsigned_abs(),
                    PulpAluOp::Min => (a as i32).min(b as i32) as u32,
                    PulpAluOp::Max => (a as i32).max(b as i32) as u32,
                    PulpAluOp::Minu => a.min(b),
                    PulpAluOp::Maxu => a.max(b),
                    PulpAluOp::Exths => a as u16 as i16 as i32 as u32,
                    PulpAluOp::Extuh => a & 0xffff,
                };
                self.set_reg(rd, v);
                cycles = timing.xpulp;
                class = InstrClass::Dsp;
            }
            Instr::Simd { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let (a0, a1) = (a as u16 as i16, (a >> 16) as u16 as i16);
                let (b0, b1) = (b as u16 as i16, (b >> 16) as u16 as i16);
                let pack = |lo: i16, hi: i16| (lo as u16 as u32) | ((hi as u16 as u32) << 16);
                let v = match op {
                    SimdOp::AddH => pack(a0.wrapping_add(b0), a1.wrapping_add(b1)),
                    SimdOp::SubH => pack(a0.wrapping_sub(b0), a1.wrapping_sub(b1)),
                    SimdOp::MinH => pack(a0.min(b0), a1.min(b1)),
                    SimdOp::MaxH => pack(a0.max(b0), a1.max(b1)),
                    SimdOp::DotspH => (i32::from(a0) * i32::from(b0))
                        .wrapping_add(i32::from(a1) * i32::from(b1))
                        as u32,
                    SimdOp::SdotspH => self.reg(rd).wrapping_add(
                        (i32::from(a0) * i32::from(b0)).wrapping_add(i32::from(a1) * i32::from(b1))
                            as u32,
                    ),
                    SimdOp::PackH => pack(a0, b0),
                };
                self.set_reg(rd, v);
                cycles = timing.xpulp;
                class = InstrClass::Simd;
            }
            Instr::LpStarti { l, offset } => {
                self.hwloops[l.index()].start = pc.wrapping_add(offset as u32);
                cycles = timing.hwloop_setup;
                class = InstrClass::LoopSetup;
            }
            Instr::LpEndi { l, offset } => {
                self.hwloops[l.index()].end = pc.wrapping_add(offset as u32);
                cycles = timing.hwloop_setup;
                class = InstrClass::LoopSetup;
            }
            Instr::LpCount { l, rs1 } => {
                self.hwloops[l.index()].count = self.reg(rs1);
                cycles = timing.hwloop_setup;
                class = InstrClass::LoopSetup;
            }
            Instr::LpCounti { l, count } => {
                self.hwloops[l.index()].count = count.into();
                cycles = timing.hwloop_setup;
                class = InstrClass::LoopSetup;
            }
            Instr::LpSetup { l, rs1, offset } => {
                self.hwloops[l.index()] = HwLoop {
                    start: pc.wrapping_add(4),
                    end: pc.wrapping_add(offset as u32),
                    count: self.reg(rs1),
                };
                cycles = timing.hwloop_setup;
                class = InstrClass::LoopSetup;
            }
            Instr::LpSetupi { l, count, offset } => {
                self.hwloops[l.index()] = HwLoop {
                    start: pc.wrapping_add(4),
                    end: pc.wrapping_add(offset as u32),
                    count: count.into(),
                };
                cycles = timing.hwloop_setup;
                class = InstrClass::LoopSetup;
            }
        }

        // Hardware-loop back edges: when sequential flow reaches a loop end
        // with iterations remaining, jump back to the start for free.
        // Innermost loop (L0) has priority, as on RI5CY.
        if loop_redirect_allowed && !self.halted {
            for l in 0..2 {
                let hl = &mut self.hwloops[l];
                if hl.count > 0 && next_pc == hl.end {
                    if hl.count > 1 {
                        hl.count -= 1;
                        next_pc = hl.start;
                    } else {
                        hl.count = 0;
                    }
                    break;
                }
            }
        }

        self.profile.record(class, cycles);
        self.pc = next_pc;
        self.retired += 1;
        Ok((cycles, mem))
    }

    /// Runs until the core halts (`ecall`/`ebreak`), fetching and decoding
    /// every dynamic instruction. This is the reference interpreter;
    /// [`Cpu::run_program`] is the fast path.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::CycleLimit`] if `max_cycles` elapses first, or
    /// any fault from [`Cpu::step`].
    pub fn run<B: Bus>(
        &mut self,
        bus: &mut B,
        timing: &Timing,
        max_cycles: u64,
    ) -> Result<RunResult, CpuError> {
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        while let Some(step) = self.step(bus, timing)? {
            cycles += u64::from(step.cycles);
            instructions += 1;
            if cycles > max_cycles {
                return Err(CpuError::CycleLimit { limit: max_cycles });
            }
        }
        Ok(RunResult {
            cycles,
            instructions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::bus::Ram;
    use crate::instr::LoopIdx;

    fn run_program(asm: &Asm, setup: impl FnOnce(&mut Cpu, &mut Ram)) -> (Cpu, Ram, RunResult) {
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cpu = Cpu::new(0);
        setup(&mut cpu, &mut ram);
        let res = cpu.run(&mut ram, &Timing::riscy(), 1_000_000).unwrap();
        (cpu, ram, res)
    }

    #[test]
    fn arithmetic_basics() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, -7);
        asm.li(Reg::A1, 3);
        asm.alu(AluOp::Mul, Reg::A2, Reg::A0, Reg::A1); // -21
        asm.alu(AluOp::Div, Reg::A3, Reg::A0, Reg::A1); // -2
        asm.alu(AluOp::Rem, Reg::A4, Reg::A0, Reg::A1); // -1
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::A2) as i32, -21);
        assert_eq!(cpu.reg(Reg::A3) as i32, -2);
        assert_eq!(cpu.reg(Reg::A4) as i32, -1);
    }

    #[test]
    fn div_by_zero_follows_spec() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 5);
        asm.li(Reg::A1, 0);
        asm.alu(AluOp::Div, Reg::A2, Reg::A0, Reg::A1);
        asm.alu(AluOp::Rem, Reg::A3, Reg::A0, Reg::A1);
        asm.alu(AluOp::Divu, Reg::A4, Reg::A0, Reg::A1);
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::A2), u32::MAX);
        assert_eq!(cpu.reg(Reg::A3), 5);
        assert_eq!(cpu.reg(Reg::A4), u32::MAX);
    }

    #[test]
    fn x0_is_hardwired() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 9);
        asm.alu(AluOp::Add, Reg::ZERO, Reg::A0, Reg::A0);
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn load_store_sign_extension() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A1, 0x100);
        asm.load(MemWidth::B, Reg::A2, Reg::A1, 0);
        asm.load(MemWidth::Bu, Reg::A3, Reg::A1, 0);
        asm.load(MemWidth::H, Reg::A4, Reg::A1, 0);
        asm.load(MemWidth::Hu, Reg::A5, Reg::A1, 0);
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, ram| {
            ram.write_bytes(0x100, &[0xfe, 0xff]);
        });
        assert_eq!(cpu.reg(Reg::A2) as i32, -2);
        assert_eq!(cpu.reg(Reg::A3), 0xfe);
        assert_eq!(cpu.reg(Reg::A4) as i32, -2);
        assert_eq!(cpu.reg(Reg::A5), 0xfffe);
    }

    #[test]
    fn misaligned_access_faults() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A1, 0x101);
        asm.load(MemWidth::W, Reg::A2, Reg::A1, 0);
        asm.ecall();
        let mut ram = Ram::new(0, 512);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cpu = Cpu::new(0);
        let err = cpu.run(&mut ram, &Timing::riscy(), 1000).unwrap_err();
        assert!(matches!(err, CpuError::Misaligned { addr: 0x101, .. }));
    }

    #[test]
    fn post_increment_load_walks_array() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A1, 0x200);
        asm.load_post(MemWidth::W, Reg::A2, Reg::A1, 4);
        asm.load_post(MemWidth::W, Reg::A3, Reg::A1, 4);
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, ram| {
            ram.write_bytes(0x200, &10u32.to_le_bytes());
            ram.write_bytes(0x204, &20u32.to_le_bytes());
        });
        assert_eq!(cpu.reg(Reg::A2), 10);
        assert_eq!(cpu.reg(Reg::A3), 20);
        assert_eq!(cpu.reg(Reg::A1), 0x208);
    }

    #[test]
    fn mac_and_simd_dot_product() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 100);
        asm.li(Reg::A1, 3);
        asm.li(Reg::A2, 4);
        asm.mac(Reg::A0, Reg::A1, Reg::A2); // 112
                                            // SIMD: a = (2, -3), b = (10, 10) -> dot = 20 - 30 = -10
        asm.li(Reg::A3, (((-3i16 as u16 as u32) << 16) | 2) as i32);
        asm.li(Reg::A4, ((10u32 << 16) | 10) as i32);
        asm.li(Reg::A5, 5);
        asm.simd(SimdOp::SdotspH, Reg::A5, Reg::A3, Reg::A4); // 5 - 10 = -5
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::A0), 112);
        assert_eq!(cpu.reg(Reg::A5) as i32, -5);
    }

    #[test]
    fn clip_saturates_both_sides() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 40000);
        asm.clip(Reg::A1, Reg::A0, 16);
        asm.li(Reg::A0, -40000);
        asm.clip(Reg::A2, Reg::A0, 16);
        asm.li(Reg::A0, 5);
        asm.clip(Reg::A3, Reg::A0, 16);
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::A1) as i32, 32767);
        assert_eq!(cpu.reg(Reg::A2) as i32, -32768);
        assert_eq!(cpu.reg(Reg::A3), 5);
    }

    #[test]
    fn hardware_loop_sums_without_branch_overhead() {
        // sum = 0; for i in 0..10 { sum += 3 } with a 1-instruction body.
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 0);
        asm.li(Reg::T0, 10);
        asm.lp_setup(LoopIdx::L0, Reg::T0, 8); // end = pc + 8 (one body instr)
        asm.addi(Reg::A0, Reg::A0, 3);
        asm.ecall();
        let (cpu, _, res) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::A0), 30);
        // li(2) + li(1..2) + setup(1) + 10 body instrs + ecall: no branches.
        assert!(res.cycles <= 16, "cycles = {}", res.cycles);
        assert_eq!(cpu.hwloop(0).count, 0);
    }

    #[test]
    fn nested_hardware_loops() {
        // for j in 0..4 { for i in 0..5 { a0 += 1 } ; a1 += 1 }
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 0);
        asm.li(Reg::A1, 0);
        asm.li(Reg::T0, 4);
        asm.li(Reg::T1, 5);
        // Outer loop body: lp.setup L0 + inner body + a1 increment = 3 instrs.
        asm.lp_setup(LoopIdx::L1, Reg::T0, 16);
        asm.lp_setup(LoopIdx::L0, Reg::T1, 8);
        asm.addi(Reg::A0, Reg::A0, 1);
        asm.addi(Reg::A1, Reg::A1, 1);
        asm.ecall();
        let (cpu, _, _) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::A0), 20);
        assert_eq!(cpu.reg(Reg::A1), 4);
    }

    #[test]
    fn ibex_rejects_xpulp() {
        let mut asm = Asm::new(0);
        asm.mac(Reg::A0, Reg::A1, Reg::A2);
        asm.ecall();
        let mut ram = Ram::new(0, 64);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cpu = Cpu::new_rv32im(0);
        let err = cpu.run(&mut ram, &Timing::ibex(), 100).unwrap_err();
        assert!(matches!(err, CpuError::IllegalXpulp { pc: 0 }));
    }

    #[test]
    fn branch_loop_executes() {
        // Classic countdown loop: a0 = 5; while (a0 != 0) { a1 += 2; a0 -= 1 }
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 5);
        asm.li(Reg::A1, 0);
        let top = asm.here();
        asm.addi(Reg::A1, Reg::A1, 2);
        asm.addi(Reg::A0, Reg::A0, -1);
        asm.bne_to(Reg::A0, Reg::ZERO, top);
        asm.ecall();
        let (cpu, _, res) = run_program(&asm, |_, _| {});
        assert_eq!(cpu.reg(Reg::A1), 10);
        // 2 li + 5*(2 alu) + 4 taken branches (3cy) + 1 not-taken + ecall(1)
        assert_eq!(res.cycles, 2 + 10 + 4 * 3 + 1 + 1);
    }

    #[test]
    fn cycle_limit_enforced() {
        // Infinite loop.
        let mut asm = Asm::new(0);
        let top = asm.here();
        asm.jal_to(Reg::ZERO, top);
        let mut ram = Ram::new(0, 64);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cpu = Cpu::new(0);
        let err = cpu.run(&mut ram, &Timing::riscy(), 100).unwrap_err();
        assert!(matches!(err, CpuError::CycleLimit { limit: 100 }));
    }

    #[test]
    fn halted_core_steps_are_inert() {
        let mut asm = Asm::new(0);
        asm.ecall();
        let mut ram = Ram::new(0, 64);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cpu = Cpu::new(0);
        cpu.run(&mut ram, &Timing::riscy(), 100).unwrap();
        // Halt is terminal: further steps retire nothing.
        let retired = cpu.retired();
        assert!(cpu.step(&mut ram, &Timing::riscy()).unwrap().is_none());
        assert_eq!(cpu.retired(), retired);
    }
}
