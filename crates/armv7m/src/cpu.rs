//! The Cortex-M4F interpreter.

use iw_rv32::{Bus, BusError, ExecProfile, InstrClass, MemWidth};
use iw_trace::{NoopSink, TrackId};

use crate::instr::{AddrMode, Cond, DpOp, LsWidth, ThumbInstr, R, S};
use crate::timing::CortexM4Timing;

/// Error raised while executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum M4Error {
    /// A data access faulted.
    Bus(BusError),
    /// Encoded code could not be decoded (see [`crate::code`]).
    Code(crate::code::CodeError),
    /// Execution ran past the end of the program without hitting `bkpt`.
    PcOutOfRange {
        /// The offending instruction index.
        pc: usize,
    },
    /// A data access was not naturally aligned.
    Misaligned {
        /// Faulting data address.
        addr: u32,
        /// Index of the offending instruction.
        pc: usize,
    },
    /// A store used a signed (load-only) width.
    BadStoreWidth {
        /// Index of the offending instruction.
        pc: usize,
    },
    /// The run exceeded the caller-provided cycle budget.
    CycleLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl core::fmt::Display for M4Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            M4Error::Bus(e) => write!(f, "{e}"),
            M4Error::Code(e) => write!(f, "{e}"),
            M4Error::PcOutOfRange { pc } => write!(f, "pc {pc} outside program"),
            M4Error::Misaligned { addr, pc } => {
                write!(f, "misaligned access to {addr:#010x} at instruction {pc}")
            }
            M4Error::BadStoreWidth { pc } => {
                write!(f, "signed width on store at instruction {pc}")
            }
            M4Error::CycleLimit { limit } => write!(f, "cycle limit of {limit} exceeded"),
        }
    }
}

impl std::error::Error for M4Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            M4Error::Bus(e) => Some(e),
            M4Error::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BusError> for M4Error {
    fn from(e: BusError) -> M4Error {
        M4Error::Bus(e)
    }
}

impl From<crate::code::CodeError> for M4Error {
    fn from(e: crate::code::CodeError) -> M4Error {
        M4Error::Code(e)
    }
}

/// NZCV condition flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Carry / no-borrow.
    pub c: bool,
    /// Overflow.
    pub v: bool,
}

impl Flags {
    pub(crate) fn from_sub(a: u32, b: u32) -> Flags {
        let r = a.wrapping_sub(b);
        Flags {
            n: (r as i32) < 0,
            z: r == 0,
            c: a >= b,
            v: (((a ^ b) & (a ^ r)) >> 31) != 0,
        }
    }

    /// Evaluates a condition code against these flags.
    #[must_use]
    pub fn check(self, cond: Cond) -> bool {
        match cond {
            Cond::Al => true,
            Cond::Eq => self.z,
            Cond::Ne => !self.z,
            Cond::Lt => self.n != self.v,
            Cond::Ge => self.n == self.v,
            Cond::Gt => !self.z && self.n == self.v,
            Cond::Le => self.z || self.n != self.v,
            Cond::Hs => self.c,
            Cond::Lo => !self.c,
            Cond::Mi => self.n,
            Cond::Pl => !self.n,
        }
    }
}

/// Summary of a [`CortexM4::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Total cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
}

/// An ARM Cortex-M4F core (integer + single-precision VFP).
///
/// Programs are lists of [`ThumbInstr`]; the program counter is an index
/// into that list. Data memory is any [`iw_rv32::Bus`].
///
/// # Examples
///
/// ```
/// use iw_armv7m::{CortexM4, CortexM4Timing, asm::ThumbAsm, R};
/// use iw_rv32::Ram;
/// let mut asm = ThumbAsm::new();
/// asm.li(R::R0, 6);
/// asm.li(R::R1, 7);
/// asm.mul(R::R0, R::R0, R::R1);
/// asm.bkpt();
/// let program = asm.finish()?;
/// let mut cpu = CortexM4::new();
/// let mut ram = Ram::new(0, 64);
/// cpu.run(&program, &mut ram, &CortexM4Timing::default(), 1_000)?;
/// assert_eq!(cpu.reg(R::R0), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CortexM4 {
    pub(crate) r: [u32; 15],
    pub(crate) s: [u32; 32],
    pub(crate) flags: Flags,
    pub(crate) fpscr: Flags,
    pub(crate) pc: usize,
    pub(crate) halted: bool,
    pub(crate) retired: u64,
    pub(crate) last_was_load: bool,
    pub(crate) profile: ExecProfile,
}

impl Default for CortexM4 {
    fn default() -> CortexM4 {
        CortexM4::new()
    }
}

impl CortexM4 {
    /// Creates a core with all registers zeroed and `pc = 0`.
    #[must_use]
    pub fn new() -> CortexM4 {
        CortexM4 {
            r: [0; 15],
            s: [0; 32],
            flags: Flags::default(),
            fpscr: Flags::default(),
            pc: 0,
            halted: false,
            retired: 0,
            last_was_load: false,
            profile: ExecProfile::new(),
        }
    }

    /// Reads a core register.
    #[must_use]
    pub fn reg(&self, r: R) -> u32 {
        self.r[r.index() as usize]
    }

    /// Writes a core register.
    pub fn set_reg(&mut self, r: R, value: u32) {
        self.r[r.index() as usize] = value;
    }

    /// Reads an FPU register as `f32`.
    #[must_use]
    pub fn sreg(&self, s: S) -> f32 {
        f32::from_bits(self.s[s.index() as usize])
    }

    /// Writes an FPU register from `f32`.
    pub fn set_sreg(&mut self, s: S, value: f32) {
        self.s[s.index() as usize] = value.to_bits();
    }

    /// Current program counter (instruction index).
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Sets the program counter and clears the halted state.
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
        self.halted = false;
    }

    /// Current APSR flags.
    #[must_use]
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// `true` once `bkpt` retired.
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

    fn ls_width(width: LsWidth) -> MemWidth {
        match width {
            LsWidth::B | LsWidth::Sb => MemWidth::B,
            LsWidth::H | LsWidth::Sh => MemWidth::H,
            LsWidth::W => MemWidth::W,
        }
    }

    /// Executes an already-decoded instruction.
    ///
    /// `pc` is the instruction's own position and `next_seq` the
    /// fall-through position — instruction indices when executing a
    /// `&[ThumbInstr]` slice, halfword offsets when executing encoded
    /// code (see [`crate::code`]). Branch targets inside `instr` must use
    /// the same unit.
    ///
    /// # Errors
    ///
    /// See [`M4Error`].
    pub fn exec_decoded<B: Bus>(
        &mut self,
        instr: ThumbInstr,
        pc: usize,
        next_seq: usize,
        bus: &mut B,
        t: &CortexM4Timing,
    ) -> Result<u32, M4Error> {
        let mut next_pc = next_seq;
        // The M4 AHB pipeline lets back-to-back loads issue every cycle
        // after the first: model as a 1-cycle discount on a load that
        // immediately follows another load.
        let load_cost = if self.last_was_load {
            t.ldr_pipelined
        } else {
            t.ldr
        };
        let vload_cost = if self.last_was_load {
            t.vldr_pipelined
        } else {
            t.vldr
        };
        self.last_was_load = instr.is_load();

        let cycles = match instr {
            ThumbInstr::Movw { rd, imm } => {
                self.set_reg(rd, imm.into());
                t.alu
            }
            ThumbInstr::Movt { rd, imm } => {
                let v = (self.reg(rd) & 0xffff) | (u32::from(imm) << 16);
                self.set_reg(rd, v);
                t.alu
            }
            ThumbInstr::MovReg { rd, rm } => {
                self.set_reg(rd, self.reg(rm));
                t.alu
            }
            ThumbInstr::Dp { op, rd, rn, rm } => {
                let a = self.reg(rn);
                let b = self.reg(rm);
                let (v, cost) = match op {
                    DpOp::Add => (a.wrapping_add(b), t.alu),
                    DpOp::Sub => (a.wrapping_sub(b), t.alu),
                    DpOp::And => (a & b, t.alu),
                    DpOp::Orr => (a | b, t.alu),
                    DpOp::Eor => (a ^ b, t.alu),
                    DpOp::Lsl => (a.wrapping_shl(b & 0xff), t.alu),
                    DpOp::Lsr => {
                        let sh = b & 0xff;
                        (if sh >= 32 { 0 } else { a >> sh }, t.alu)
                    }
                    DpOp::Asr => {
                        let sh = (b & 0xff).min(31);
                        (((a as i32) >> sh) as u32, t.alu)
                    }
                    DpOp::Mul => (a.wrapping_mul(b), t.mul),
                    DpOp::Sdiv => {
                        let (a, b) = (a as i32, b as i32);
                        let v = if b == 0 {
                            0
                        } else if a == i32::MIN && b == -1 {
                            a as u32
                        } else {
                            (a / b) as u32
                        };
                        (v, t.sdiv)
                    }
                    DpOp::Udiv => (a.checked_div(b).unwrap_or(0), t.sdiv),
                };
                self.set_reg(rd, v);
                cost
            }
            ThumbInstr::AddImm { rd, rn, imm } => {
                self.set_reg(rd, self.reg(rn).wrapping_add(imm as u32));
                t.alu
            }
            ThumbInstr::SubsImm { rd, rn, imm } => {
                let a = self.reg(rn);
                self.flags = Flags::from_sub(a, imm as u32);
                self.set_reg(rd, a.wrapping_sub(imm as u32));
                t.alu
            }
            ThumbInstr::LslImm { rd, rm, shamt } => {
                self.set_reg(rd, self.reg(rm) << shamt);
                t.alu
            }
            ThumbInstr::LsrImm { rd, rm, shamt } => {
                self.set_reg(rd, self.reg(rm) >> shamt);
                t.alu
            }
            ThumbInstr::AsrImm { rd, rm, shamt } => {
                self.set_reg(rd, ((self.reg(rm) as i32) >> shamt) as u32);
                t.alu
            }
            ThumbInstr::Mla { rd, rn, rm, ra } => {
                let v = self
                    .reg(ra)
                    .wrapping_add(self.reg(rn).wrapping_mul(self.reg(rm)));
                self.set_reg(rd, v);
                t.mla
            }
            ThumbInstr::Mls { rd, rn, rm, ra } => {
                let v = self
                    .reg(ra)
                    .wrapping_sub(self.reg(rn).wrapping_mul(self.reg(rm)));
                self.set_reg(rd, v);
                t.mla
            }
            ThumbInstr::Smull { rdlo, rdhi, rn, rm } => {
                let p = i64::from(self.reg(rn) as i32) * i64::from(self.reg(rm) as i32);
                self.set_reg(rdlo, p as u32);
                self.set_reg(rdhi, (p >> 32) as u32);
                t.smull
            }
            ThumbInstr::Smlal { rdlo, rdhi, rn, rm } => {
                let acc = ((u64::from(self.reg(rdhi)) << 32) | u64::from(self.reg(rdlo))) as i64;
                let p = i64::from(self.reg(rn) as i32) * i64::from(self.reg(rm) as i32);
                let v = acc.wrapping_add(p) as u64;
                self.set_reg(rdlo, v as u32);
                self.set_reg(rdhi, (v >> 32) as u32);
                t.smull
            }
            ThumbInstr::Smlad { rd, rn, rm, ra } => {
                let a = self.reg(rn);
                let b = self.reg(rm);
                let p0 = i32::from(a as u16 as i16) * i32::from(b as u16 as i16);
                let p1 = i32::from((a >> 16) as u16 as i16) * i32::from((b >> 16) as u16 as i16);
                let v = (self.reg(ra) as i32).wrapping_add(p0.wrapping_add(p1)) as u32;
                self.set_reg(rd, v);
                t.mla
            }
            ThumbInstr::Ssat { rd, sat, rn } => {
                let a = self.reg(rn) as i32;
                let hi = (1i32 << (sat - 1)) - 1;
                let lo = -(1i32 << (sat - 1));
                self.set_reg(rd, a.clamp(lo, hi) as u32);
                t.alu
            }
            ThumbInstr::Ldr {
                width,
                rt,
                rn,
                offset,
                mode,
            } => {
                let base = self.reg(rn);
                let addr = match mode {
                    AddrMode::Offset => base.wrapping_add(offset as u32),
                    AddrMode::PostInc => base,
                };
                let w = Self::ls_width(width);
                if addr % w.bytes() != 0 {
                    return Err(M4Error::Misaligned { addr, pc });
                }
                let raw = bus.load(addr, w)?;
                let v = match width {
                    LsWidth::Sb => raw as u8 as i8 as i32 as u32,
                    LsWidth::Sh => raw as u16 as i16 as i32 as u32,
                    _ => raw,
                };
                self.set_reg(rt, v);
                if mode == AddrMode::PostInc {
                    // Post-index writeback; if rt == rn the loaded value
                    // wins (writeback to the same register is unpredictable
                    // on real hardware — we resolve it deterministically).
                    if rt != rn {
                        self.set_reg(rn, base.wrapping_add(offset as u32));
                    }
                }
                load_cost
            }
            ThumbInstr::Str {
                width,
                rt,
                rn,
                offset,
                mode,
            } => {
                if matches!(width, LsWidth::Sb | LsWidth::Sh) {
                    return Err(M4Error::BadStoreWidth { pc });
                }
                let base = self.reg(rn);
                let addr = match mode {
                    AddrMode::Offset => base.wrapping_add(offset as u32),
                    AddrMode::PostInc => base,
                };
                let w = Self::ls_width(width);
                if addr % w.bytes() != 0 {
                    return Err(M4Error::Misaligned { addr, pc });
                }
                bus.store(addr, w, self.reg(rt))?;
                if mode == AddrMode::PostInc {
                    self.set_reg(rn, base.wrapping_add(offset as u32));
                }
                t.str
            }
            ThumbInstr::Cmp { rn, rm } => {
                self.flags = Flags::from_sub(self.reg(rn), self.reg(rm));
                t.alu
            }
            ThumbInstr::CmpImm { rn, imm } => {
                self.flags = Flags::from_sub(self.reg(rn), imm as u32);
                t.alu
            }
            ThumbInstr::B { cond, target } => {
                if self.flags.check(cond) {
                    next_pc = target;
                    t.branch_taken
                } else {
                    t.branch_not_taken
                }
            }
            ThumbInstr::Nop => t.alu,
            ThumbInstr::Bkpt => {
                self.halted = true;
                next_pc = pc;
                0
            }
            ThumbInstr::Vldr { sd, rn, offset } => {
                let addr = self.reg(rn).wrapping_add(offset as u32);
                if !addr.is_multiple_of(4) {
                    return Err(M4Error::Misaligned { addr, pc });
                }
                let raw = bus.load(addr, MemWidth::W)?;
                self.s[sd.index() as usize] = raw;
                vload_cost
            }
            ThumbInstr::VldrPost { sd, rn, offset } => {
                let addr = self.reg(rn);
                if !addr.is_multiple_of(4) {
                    return Err(M4Error::Misaligned { addr, pc });
                }
                let raw = bus.load(addr, MemWidth::W)?;
                self.s[sd.index() as usize] = raw;
                self.set_reg(rn, addr.wrapping_add(offset as u32));
                vload_cost
            }
            ThumbInstr::Vstr { sd, rn, offset } => {
                let addr = self.reg(rn).wrapping_add(offset as u32);
                if !addr.is_multiple_of(4) {
                    return Err(M4Error::Misaligned { addr, pc });
                }
                bus.store(addr, MemWidth::W, self.s[sd.index() as usize])?;
                t.str
            }
            ThumbInstr::VmovF { sd, sm } => {
                self.s[sd.index() as usize] = self.s[sm.index() as usize];
                t.alu
            }
            ThumbInstr::VmovToS { sd, rt } => {
                self.s[sd.index() as usize] = self.reg(rt);
                t.alu
            }
            ThumbInstr::VmovFromS { rt, sm } => {
                self.set_reg(rt, self.s[sm.index() as usize]);
                t.alu
            }
            ThumbInstr::Vadd { sd, sn, sm } => {
                let v = self.sreg(sn) + self.sreg(sm);
                self.set_sreg(sd, v);
                t.vfp_alu
            }
            ThumbInstr::Vsub { sd, sn, sm } => {
                let v = self.sreg(sn) - self.sreg(sm);
                self.set_sreg(sd, v);
                t.vfp_alu
            }
            ThumbInstr::Vmul { sd, sn, sm } => {
                let v = self.sreg(sn) * self.sreg(sm);
                self.set_sreg(sd, v);
                t.vfp_alu
            }
            ThumbInstr::Vmla { sd, sn, sm } => {
                // VMLA.F32 is a chained multiply-add: round after the
                // multiply, then after the add (not fused).
                let v = self.sreg(sd) + self.sreg(sn) * self.sreg(sm);
                self.set_sreg(sd, v);
                t.vmla
            }
            ThumbInstr::Vdiv { sd, sn, sm } => {
                let v = self.sreg(sn) / self.sreg(sm);
                self.set_sreg(sd, v);
                t.vdiv
            }
            ThumbInstr::Vabs { sd, sm } => {
                let v = self.sreg(sm).abs();
                self.set_sreg(sd, v);
                t.vfp_alu
            }
            ThumbInstr::Vneg { sd, sm } => {
                let v = -self.sreg(sm);
                self.set_sreg(sd, v);
                t.vfp_alu
            }
            ThumbInstr::VcvtF32S32 { sd, sm } => {
                let v = self.s[sm.index() as usize] as i32 as f32;
                self.set_sreg(sd, v);
                t.vfp_alu
            }
            ThumbInstr::VcvtS32F32 { sd, sm } => {
                let f = self.sreg(sm);
                let v = if f.is_nan() {
                    0
                } else if f >= i32::MAX as f32 {
                    i32::MAX
                } else if f <= i32::MIN as f32 {
                    i32::MIN
                } else {
                    f.trunc() as i32
                };
                self.s[sd.index() as usize] = v as u32;
                t.vfp_alu
            }
            ThumbInstr::Vcmp { sn, sm } => {
                let a = self.sreg(sn);
                let b = self.sreg(sm);
                self.fpscr = if a.is_nan() || b.is_nan() {
                    Flags {
                        n: false,
                        z: false,
                        c: true,
                        v: true,
                    }
                } else if a == b {
                    Flags {
                        n: false,
                        z: true,
                        c: true,
                        v: false,
                    }
                } else if a < b {
                    Flags {
                        n: true,
                        z: false,
                        c: false,
                        v: false,
                    }
                } else {
                    Flags {
                        n: false,
                        z: false,
                        c: true,
                        v: false,
                    }
                };
                t.vfp_alu
            }
            ThumbInstr::Vmrs => {
                self.flags = self.fpscr;
                t.alu
            }
        };

        let class = match instr {
            ThumbInstr::Dp { op, .. } => match op {
                DpOp::Mul => InstrClass::Mul,
                DpOp::Sdiv | DpOp::Udiv => InstrClass::Div,
                _ => InstrClass::Alu,
            },
            ThumbInstr::Movw { .. }
            | ThumbInstr::Movt { .. }
            | ThumbInstr::MovReg { .. }
            | ThumbInstr::AddImm { .. }
            | ThumbInstr::SubsImm { .. }
            | ThumbInstr::LslImm { .. }
            | ThumbInstr::LsrImm { .. }
            | ThumbInstr::AsrImm { .. }
            | ThumbInstr::Cmp { .. }
            | ThumbInstr::CmpImm { .. }
            | ThumbInstr::Nop => InstrClass::Alu,
            ThumbInstr::Mla { .. }
            | ThumbInstr::Mls { .. }
            | ThumbInstr::Smull { .. }
            | ThumbInstr::Smlal { .. }
            | ThumbInstr::Smlad { .. }
            | ThumbInstr::Ssat { .. } => InstrClass::Dsp,
            ThumbInstr::Ldr { .. } => InstrClass::Load,
            ThumbInstr::Str { .. } => InstrClass::Store,
            ThumbInstr::B { .. } => {
                if next_pc != next_seq {
                    InstrClass::BranchTaken
                } else {
                    InstrClass::BranchNotTaken
                }
            }
            ThumbInstr::Bkpt => InstrClass::System,
            ThumbInstr::Vldr { .. } | ThumbInstr::VldrPost { .. } => InstrClass::Load,
            ThumbInstr::Vstr { .. } => InstrClass::Store,
            ThumbInstr::VmovF { .. }
            | ThumbInstr::VmovToS { .. }
            | ThumbInstr::VmovFromS { .. }
            | ThumbInstr::Vadd { .. }
            | ThumbInstr::Vsub { .. }
            | ThumbInstr::Vmul { .. }
            | ThumbInstr::Vmla { .. }
            | ThumbInstr::Vdiv { .. }
            | ThumbInstr::Vabs { .. }
            | ThumbInstr::Vneg { .. }
            | ThumbInstr::VcvtF32S32 { .. }
            | ThumbInstr::VcvtS32F32 { .. }
            | ThumbInstr::Vcmp { .. }
            | ThumbInstr::Vmrs => InstrClass::Float,
        };
        self.profile.record(class, cycles);
        self.pc = next_pc;
        self.retired += 1;
        Ok(cycles)
    }

    /// Runs until `bkpt` over a pre-decoded program: compiles it into a
    /// [`BlockProgram`](crate::BlockProgram) and runs that
    /// ([`CortexM4::run_fused`]). A convenience for one-off runs; a caller
    /// that runs one program repeatedly compiles it once. The
    /// per-halfword decoding reference is [`CortexM4::run_code`].
    ///
    /// # Errors
    ///
    /// Returns [`M4Error::CycleLimit`] if `max_cycles` elapses first, or any
    /// other [`M4Error`] the program raises.
    pub fn run<B: Bus>(
        &mut self,
        program: &[ThumbInstr],
        bus: &mut B,
        t: &CortexM4Timing,
        max_cycles: u64,
    ) -> Result<RunResult, M4Error> {
        let prog = crate::BlockProgram::compile(program);
        let mut stats = crate::FusedStats::default();
        self.run_fused(
            &prog,
            bus,
            t,
            max_cycles,
            &mut stats,
            &mut NoopSink,
            TrackId::default(),
        )
    }

    /// Runs until `bkpt` over *encoded* code, decoding every dynamic
    /// instruction — the uncached reference for [`CortexM4::run_fused`]
    /// on the program the code encodes. The program counter is in
    /// halfword units here.
    ///
    /// # Errors
    ///
    /// As [`CortexM4::run`], plus [`M4Error::Code`] for malformed code.
    pub fn run_code<B: Bus>(
        &mut self,
        code: &[u16],
        bus: &mut B,
        t: &CortexM4Timing,
        max_cycles: u64,
    ) -> Result<RunResult, M4Error> {
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        while !self.halted {
            let pc = self.pc;
            if pc >= code.len() {
                return Err(M4Error::PcOutOfRange { pc });
            }
            let (instr, len) = crate::code::decode_at(code, pc)?;
            let cost = self.exec_decoded(instr, pc, pc + len, bus, t)?;
            cycles += u64::from(cost);
            instructions += 1;
            if cycles > max_cycles {
                return Err(M4Error::CycleLimit { limit: max_cycles });
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
    use crate::asm::ThumbAsm;
    use iw_rv32::Ram;

    fn run(
        asm: &ThumbAsm,
        setup: impl FnOnce(&mut CortexM4, &mut Ram),
    ) -> (CortexM4, Ram, RunResult) {
        let program = asm.finish().unwrap();
        let mut cpu = CortexM4::new();
        let mut ram = Ram::new(0, 4096);
        setup(&mut cpu, &mut ram);
        let res = cpu
            .run(&program, &mut ram, &CortexM4Timing::default(), 1_000_000)
            .unwrap();
        (cpu, ram, res)
    }

    #[test]
    fn movw_movt_builds_constants() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0xdead_beefu32 as i32);
        asm.li(R::R1, 42);
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, _| {});
        assert_eq!(cpu.reg(R::R0), 0xdead_beef);
        assert_eq!(cpu.reg(R::R1), 42);
    }

    #[test]
    fn mla_and_smlal() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, -3);
        asm.li(R::R1, 1000);
        asm.li(R::R2, 7);
        asm.mla(R::R3, R::R0, R::R1, R::R2); // 7 - 3000
                                             // 64-bit accumulate: r4:r5 = -1, add 2*3
        asm.li(R::R4, -1);
        asm.li(R::R5, -1);
        asm.li(R::R6, 2);
        asm.li(R::R7, 3);
        asm.emit(ThumbInstr::Smlal {
            rdlo: R::R4,
            rdhi: R::R5,
            rn: R::R6,
            rm: R::R7,
        });
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, _| {});
        assert_eq!(cpu.reg(R::R3) as i32, -2993);
        assert_eq!(cpu.reg(R::R4), 5);
        assert_eq!(cpu.reg(R::R5), 0);
    }

    #[test]
    fn smlad_dual_mac() {
        let mut asm = ThumbAsm::new();
        // rn = (3, -2), rm = (10, 100): 3·10 + (-2)·100 = -170; ra = 1000.
        asm.li(R::R0, ((-2i16 as u16 as u32) << 16 | 3) as i32);
        asm.li(R::R1, (100u32 << 16 | 10) as i32);
        asm.li(R::R2, 1000);
        asm.emit(ThumbInstr::Smlad {
            rd: R::R3,
            rn: R::R0,
            rm: R::R1,
            ra: R::R2,
        });
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, _| {});
        assert_eq!(cpu.reg(R::R3) as i32, 830);
    }

    #[test]
    fn ssat_saturates() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 100_000);
        asm.emit(ThumbInstr::Ssat {
            rd: R::R1,
            sat: 16,
            rn: R::R0,
        });
        asm.li(R::R0, -100_000);
        asm.emit(ThumbInstr::Ssat {
            rd: R::R2,
            sat: 16,
            rn: R::R0,
        });
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, _| {});
        assert_eq!(cpu.reg(R::R1) as i32, 32767);
        assert_eq!(cpu.reg(R::R2) as i32, -32768);
    }

    #[test]
    fn countdown_loop_with_flags() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 5);
        asm.li(R::R1, 0);
        let top = asm.here();
        asm.add_imm(R::R1, R::R1, 2);
        asm.subs(R::R0, R::R0, 1);
        asm.b_to(Cond::Ne, top);
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, _| {});
        assert_eq!(cpu.reg(R::R1), 10);
    }

    #[test]
    fn signed_loads() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x100);
        asm.ldr(LsWidth::Sh, R::R1, R::R0, 0);
        asm.ldr(LsWidth::H, R::R2, R::R0, 0);
        asm.ldr(LsWidth::Sb, R::R3, R::R0, 0);
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, ram| {
            ram.write_bytes(0x100, &[0xfe, 0xff]);
        });
        assert_eq!(cpu.reg(R::R1) as i32, -2);
        assert_eq!(cpu.reg(R::R2), 0xfffe);
        assert_eq!(cpu.reg(R::R3) as i32, -2);
    }

    #[test]
    fn post_increment_walks() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x200);
        asm.ldr_post(LsWidth::W, R::R1, R::R0, 4);
        asm.ldr_post(LsWidth::W, R::R2, R::R0, 4);
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, ram| {
            ram.write_bytes(0x200, &11u32.to_le_bytes());
            ram.write_bytes(0x204, &22u32.to_le_bytes());
        });
        assert_eq!(cpu.reg(R::R1), 11);
        assert_eq!(cpu.reg(R::R2), 22);
        assert_eq!(cpu.reg(R::R0), 0x208);
    }

    #[test]
    fn load_pipelining_discount() {
        // Two adjacent loads: second costs 1 instead of 2.
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x100); // 2 instrs (movw+movt? 0x100 has no high -> 1 movw)
        asm.ldr(LsWidth::W, R::R1, R::R0, 0);
        asm.ldr(LsWidth::W, R::R2, R::R0, 4);
        asm.bkpt();
        let (_, _, res) = run(&asm, |_, _| {});
        // movw(1) + ldr(2) + ldr(1) = 4 cycles.
        assert_eq!(res.cycles, 4);
    }

    #[test]
    fn float_mac_and_compare() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x100);
        asm.vldr(S::new(0), R::R0, 0); // 1.5
        asm.vldr(S::new(1), R::R0, 4); // 2.0
        asm.vldr(S::new(2), R::R0, 8); // 10.0
        asm.emit(ThumbInstr::Vmla {
            sd: S::new(2),
            sn: S::new(0),
            sm: S::new(1),
        }); // 13.0
        asm.emit(ThumbInstr::Vcmp {
            sn: S::new(2),
            sm: S::new(0),
        });
        asm.emit(ThumbInstr::Vmrs);
        let gt = asm.new_label();
        asm.b_to(Cond::Gt, gt);
        asm.li(R::R5, 0);
        asm.bind(gt);
        asm.li(R::R5, 1);
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, ram| {
            ram.write_bytes(0x100, &1.5f32.to_bits().to_le_bytes());
            ram.write_bytes(0x104, &2.0f32.to_bits().to_le_bytes());
            ram.write_bytes(0x108, &10.0f32.to_bits().to_le_bytes());
        });
        assert_eq!(cpu.sreg(S::new(2)), 13.0);
        assert_eq!(cpu.reg(R::R5), 1);
    }

    #[test]
    fn sdiv_truncates_and_handles_zero() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, -7);
        asm.li(R::R1, 2);
        asm.dp(DpOp::Sdiv, R::R2, R::R0, R::R1); // -3
        asm.li(R::R3, 0);
        asm.dp(DpOp::Sdiv, R::R4, R::R0, R::R3); // 0 (ARM semantics)
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, _| {});
        assert_eq!(cpu.reg(R::R2) as i32, -3);
        assert_eq!(cpu.reg(R::R4), 0);
    }

    #[test]
    fn vcvt_roundtrip() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, -42);
        asm.emit(ThumbInstr::VmovToS {
            sd: S::new(0),
            rt: R::R0,
        });
        asm.emit(ThumbInstr::VcvtF32S32 {
            sd: S::new(1),
            sm: S::new(0),
        });
        asm.emit(ThumbInstr::VcvtS32F32 {
            sd: S::new(2),
            sm: S::new(1),
        });
        asm.emit(ThumbInstr::VmovFromS {
            rt: R::R1,
            sm: S::new(2),
        });
        asm.bkpt();
        let (cpu, _, _) = run(&asm, |_, _| {});
        assert_eq!(cpu.sreg(S::new(1)), -42.0);
        assert_eq!(cpu.reg(R::R1) as i32, -42);
    }

    #[test]
    fn running_off_the_end_is_an_error() {
        let asm = ThumbAsm::new();
        let program = asm.finish().unwrap();
        let mut cpu = CortexM4::new();
        let mut ram = Ram::new(0, 16);
        let err = cpu
            .run(&program, &mut ram, &CortexM4Timing::default(), 100)
            .unwrap_err();
        assert!(matches!(err, M4Error::PcOutOfRange { pc: 0 }));
    }
}
