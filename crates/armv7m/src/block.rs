//! Superinstruction fusion for pre-decoded Thumb programs.
//!
//! The M4 executes from immutable flash, so a `&[ThumbInstr]` program can
//! be compiled **once** into a [`BlockProgram`]: a flat array, indexed by
//! the same instruction-index program counter, whose entries are either a
//! single instruction or a *fused* superinstruction covering the 2–3
//! instructions that start at that index. [`CortexM4::run_fused`] then
//! dispatches once per superinstruction instead of once per instruction,
//! executing the fused body as straight-line code.
//!
//! Fusion targets the dispatch shapes that dominate the InfiniWolf DSP
//! kernels:
//!
//! * `vldmia rn!, {sa}` + `vldmia rm!, {sb}` + `vmla.f32` — the f32 MAC
//!   inner loop,
//! * `ldr rt, [rn], #4` ×2 + `smlad` — the packed q15 MAC inner loop,
//! * `ldr rt, [rn], #4` ×2 — post-increment streaming pairs,
//! * `mul` + `asr #k` + `add` — the q15 requantisation tail,
//! * `subs` + `b.cc` — the loop back-edge.
//!
//! Every fused handler replays the exact per-instruction semantics of
//! [`CortexM4::exec_decoded`] — flag updates, the load-pipelining cycle
//! discount, per-class profile accounting, and fault ordering — so results,
//! cycle counts, and error states are bit-identical to the per-halfword
//! reference [`CortexM4::run_code`]. Indices *inside* a fused pattern keep
//! their unfused single entries, so a branch that jumps into the middle of
//! a pattern executes the remaining instructions individually; no
//! basic-block boundary analysis is needed. A recorded run
//! ([`CortexM4::run_fused_sink`]) executes only each slot's first
//! instruction, so every instruction gets its own PC sample.

use iw_rv32::{Bus, InstrClass, MemWidth};
use iw_trace::{NoopSink, TraceSink, TrackId};

use crate::cpu::{CortexM4, Flags, M4Error, RunResult};
use crate::instr::{AddrMode, Cond, DpOp, LsWidth, ThumbInstr, R, S};
use crate::timing::CortexM4Timing;

/// One slot of a [`BlockProgram`]: a single instruction or a fused
/// superinstruction starting at this index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FusedOp {
    /// No pattern starts here; execute one instruction.
    Single(ThumbInstr),
    /// `vldmia rn!, {sa}; vldmia rm!, {sb}; vmla.f32 sd, sn, sm`.
    VldrVldrVmla {
        sa: S,
        ra: R,
        offa: i32,
        sb: S,
        rb: R,
        offb: i32,
        sd: S,
        sn: S,
        sm: S,
    },
    /// `ldr rta, [ra], #offa; ldr rtb, [rb], #offb; smlad rd, rn, rm, racc`.
    LdrLdrSmlad {
        rta: R,
        ra: R,
        offa: i32,
        rtb: R,
        rb: R,
        offb: i32,
        rd: R,
        rn: R,
        rm: R,
        racc: R,
    },
    /// `ldr rta, [ra], #offa; ldr rtb, [rb], #offb`.
    LdrLdr {
        rta: R,
        ra: R,
        offa: i32,
        rtb: R,
        rb: R,
        offb: i32,
    },
    /// `mul rd, rn, rm; asr rd2, rm2, #shamt; add rd3, rn3, rm3`.
    MulAsrAdd {
        rd: R,
        rn: R,
        rm: R,
        rd2: R,
        rm2: R,
        shamt: u8,
        rd3: R,
        rn3: R,
        rm3: R,
    },
    /// `subs rd, rn, #imm; b.cond target`.
    SubsB {
        rd: R,
        rn: R,
        imm: i32,
        cond: Cond,
        target: usize,
    },
}

impl FusedOp {
    /// The instruction at this slot's own index: the single instruction,
    /// or the first instruction of the fused pattern.
    fn head(&self) -> ThumbInstr {
        match *self {
            FusedOp::Single(instr) => instr,
            FusedOp::VldrVldrVmla { sa, ra, offa, .. } => ThumbInstr::VldrPost {
                sd: sa,
                rn: ra,
                offset: offa,
            },
            FusedOp::LdrLdrSmlad { rta, ra, offa, .. } | FusedOp::LdrLdr { rta, ra, offa, .. } => {
                ThumbInstr::Ldr {
                    width: LsWidth::W,
                    rt: rta,
                    rn: ra,
                    offset: offa,
                    mode: AddrMode::PostInc,
                }
            }
            FusedOp::MulAsrAdd { rd, rn, rm, .. } => ThumbInstr::Dp {
                op: DpOp::Mul,
                rd,
                rn,
                rm,
            },
            FusedOp::SubsB { rd, rn, imm, .. } => ThumbInstr::SubsImm { rd, rn, imm },
        }
    }
}

/// Execution counters for [`CortexM4::run_fused`].
///
/// `dispatches` counts superinstruction slots entered (fused or single);
/// `instructions` counts instructions retired through them, so
/// [`FusedStats::avg_burst`] is the mean number of instructions executed
/// per dispatch — the dispatch-amortisation the fusion buys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Slots entered (one per dispatch-loop iteration).
    pub dispatches: u64,
    /// Instructions retired through those slots.
    pub instructions: u64,
    /// `vldr`+`vldr`+`vmla.f32` superinstructions executed.
    pub fused_vldr_vldr_vmla: u64,
    /// `ldr`+`ldr`+`smlad` superinstructions executed.
    pub fused_ldr_ldr_smlad: u64,
    /// `ldr`+`ldr` pair superinstructions executed.
    pub fused_ldr_ldr: u64,
    /// `mul`+`asr`+`add` superinstructions executed.
    pub fused_mul_asr_add: u64,
    /// `subs`+`b.cc` superinstructions executed.
    pub fused_subs_b: u64,
}

impl FusedStats {
    /// Total fused superinstructions executed.
    #[must_use]
    pub fn fused_total(&self) -> u64 {
        self.fused_vldr_vldr_vmla
            + self.fused_ldr_ldr_smlad
            + self.fused_ldr_ldr
            + self.fused_mul_asr_add
            + self.fused_subs_b
    }

    /// Mean instructions retired per dispatch (1.0 with no fusion).
    #[must_use]
    pub fn avg_burst(&self) -> f64 {
        if self.dispatches == 0 {
            1.0
        } else {
            self.instructions as f64 / self.dispatches as f64
        }
    }
}

/// A pre-decoded program compiled with superinstruction fusion.
///
/// Built once from a `&[ThumbInstr]` slice with [`BlockProgram::compile`];
/// run with [`CortexM4::run_fused`]. Compilation is greedy left-to-right:
/// when a fusion pattern matches at index `i` the slot at `i` becomes the
/// superinstruction and scanning resumes past it, while slots `i+1..i+k`
/// keep their single instructions for jump-into-pattern correctness.
///
/// # Examples
///
/// ```
/// use iw_armv7m::{asm::ThumbAsm, BlockProgram, CortexM4, CortexM4Timing, FusedStats};
/// use iw_armv7m::{Cond, LsWidth, R};
/// use iw_rv32::Ram;
/// let mut asm = ThumbAsm::new();
/// asm.li(R::R0, 6);
/// asm.li(R::R1, 7);
/// asm.mul(R::R0, R::R0, R::R1);
/// asm.bkpt();
/// let prog = BlockProgram::compile(&asm.finish()?);
/// let mut cpu = CortexM4::new();
/// let mut ram = Ram::new(0, 64);
/// let mut stats = FusedStats::default();
/// cpu.run_fused(&prog, &mut ram, &CortexM4Timing::default(), 1_000, &mut stats)?;
/// assert_eq!(cpu.reg(R::R0), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockProgram {
    ops: Vec<FusedOp>,
    fused_sites: usize,
    fused_instrs: usize,
}

impl BlockProgram {
    /// Compiles a pre-decoded program, fusing every pattern occurrence.
    #[must_use]
    pub fn compile(program: &[ThumbInstr]) -> BlockProgram {
        let mut ops: Vec<FusedOp> = program.iter().map(|i| FusedOp::Single(*i)).collect();
        let mut fused_sites = 0;
        let mut fused_instrs = 0;
        let mut i = 0;
        while i < program.len() {
            if let Some((op, len)) = try_fuse(&program[i..]) {
                ops[i] = op;
                fused_sites += 1;
                fused_instrs += len;
                i += len;
            } else {
                i += 1;
            }
        }
        BlockProgram {
            ops,
            fused_sites,
            fused_instrs,
        }
    }

    /// Number of slots (equal to the source program's instruction count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of fusion sites found at compile time.
    #[must_use]
    pub fn fused_sites(&self) -> usize {
        self.fused_sites
    }

    /// Number of source instructions covered by fusion sites.
    #[must_use]
    pub fn fused_instrs(&self) -> usize {
        self.fused_instrs
    }
}

/// Matches a fusion pattern at the start of `window`; returns the fused op
/// and how many instructions it covers.
fn try_fuse(window: &[ThumbInstr]) -> Option<(FusedOp, usize)> {
    use ThumbInstr as I;
    match *window {
        [I::VldrPost {
            sd: sa,
            rn: ra,
            offset: offa,
        }, I::VldrPost {
            sd: sb,
            rn: rb,
            offset: offb,
        }, I::Vmla { sd, sn, sm }, ..] => Some((
            FusedOp::VldrVldrVmla {
                sa,
                ra,
                offa,
                sb,
                rb,
                offb,
                sd,
                sn,
                sm,
            },
            3,
        )),
        [I::Ldr {
            width: LsWidth::W,
            rt: rta,
            rn: ra,
            offset: offa,
            mode: AddrMode::PostInc,
        }, I::Ldr {
            width: LsWidth::W,
            rt: rtb,
            rn: rb,
            offset: offb,
            mode: AddrMode::PostInc,
        }, ..] => {
            if let Some(&I::Smlad {
                rd,
                rn,
                rm,
                ra: racc,
            }) = window.get(2)
            {
                Some((
                    FusedOp::LdrLdrSmlad {
                        rta,
                        ra,
                        offa,
                        rtb,
                        rb,
                        offb,
                        rd,
                        rn,
                        rm,
                        racc,
                    },
                    3,
                ))
            } else {
                Some((
                    FusedOp::LdrLdr {
                        rta,
                        ra,
                        offa,
                        rtb,
                        rb,
                        offb,
                    },
                    2,
                ))
            }
        }
        [I::Dp {
            op: DpOp::Mul,
            rd,
            rn,
            rm,
        }, I::AsrImm {
            rd: rd2,
            rm: rm2,
            shamt,
        }, I::Dp {
            op: DpOp::Add,
            rd: rd3,
            rn: rn3,
            rm: rm3,
        }, ..] => Some((
            FusedOp::MulAsrAdd {
                rd,
                rn,
                rm,
                rd2,
                rm2,
                shamt,
                rd3,
                rn3,
                rm3,
            },
            3,
        )),
        [I::SubsImm { rd, rn, imm }, I::B { cond, target }, ..] => Some((
            FusedOp::SubsB {
                rd,
                rn,
                imm,
                cond,
                target,
            },
            2,
        )),
        _ => None,
    }
}

/// Partial result of one fused dispatch: cycles and instructions retired.
struct Burst {
    cycles: u64,
    retired: u64,
}

impl CortexM4 {
    #[inline]
    fn reg_i(&self, r: R) -> u32 {
        self.r[r.index() as usize]
    }

    #[inline]
    fn set_reg_i(&mut self, r: R, v: u32) {
        self.r[r.index() as usize] = v;
    }

    /// One post-increment word load sub-instruction, bit-identical to the
    /// `Ldr { mode: PostInc, width: W }` arm of [`CortexM4::exec_decoded`].
    #[inline]
    fn sub_ldr_post_w<B: Bus>(
        &mut self,
        rt: R,
        rn: R,
        offset: i32,
        bus: &mut B,
        t: &CortexM4Timing,
        pc: usize,
    ) -> Result<u32, M4Error> {
        let cost = if self.last_was_load {
            t.ldr_pipelined
        } else {
            t.ldr
        };
        self.last_was_load = true;
        let base = self.reg_i(rn);
        if !base.is_multiple_of(4) {
            return Err(M4Error::Misaligned { addr: base, pc });
        }
        let raw = bus.load(base, MemWidth::W)?;
        self.set_reg_i(rt, raw);
        if rt != rn {
            self.set_reg_i(rn, base.wrapping_add(offset as u32));
        }
        self.profile.record(InstrClass::Load, cost);
        self.pc = pc + 1;
        self.retired += 1;
        Ok(cost)
    }

    /// One `vldmia rn!, {sd}` sub-instruction, bit-identical to the
    /// `VldrPost` arm of [`CortexM4::exec_decoded`].
    #[inline]
    fn sub_vldr_post<B: Bus>(
        &mut self,
        sd: S,
        rn: R,
        offset: i32,
        bus: &mut B,
        t: &CortexM4Timing,
        pc: usize,
    ) -> Result<u32, M4Error> {
        let cost = if self.last_was_load {
            t.vldr_pipelined
        } else {
            t.vldr
        };
        self.last_was_load = true;
        let addr = self.reg_i(rn);
        if !addr.is_multiple_of(4) {
            return Err(M4Error::Misaligned { addr, pc });
        }
        let raw = bus.load(addr, MemWidth::W)?;
        self.s[sd.index() as usize] = raw;
        self.set_reg_i(rn, addr.wrapping_add(offset as u32));
        self.profile.record(InstrClass::Load, cost);
        self.pc = pc + 1;
        self.retired += 1;
        Ok(cost)
    }

    /// Executes one fused superinstruction starting at `pc`, stopping
    /// early if `budget` cycles are exceeded (the caller then raises
    /// `CycleLimit` with the partial state, exactly as the per-instruction
    /// reference would).
    fn exec_fused<B: Bus>(
        &mut self,
        op: &FusedOp,
        pc: usize,
        bus: &mut B,
        t: &CortexM4Timing,
        budget: u64,
        stats: &mut FusedStats,
    ) -> Result<Burst, M4Error> {
        let mut cycles: u64;
        let mut retired = 1u64;
        match *op {
            FusedOp::Single(_) => unreachable!("singles dispatch via exec_decoded"),
            FusedOp::VldrVldrVmla {
                sa,
                ra,
                offa,
                sb,
                rb,
                offb,
                sd,
                sn,
                sm,
            } => {
                stats.fused_vldr_vldr_vmla += 1;
                cycles = u64::from(self.sub_vldr_post(sa, ra, offa, bus, t, pc)?);
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                cycles += u64::from(self.sub_vldr_post(sb, rb, offb, bus, t, pc + 1)?);
                retired += 1;
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                self.last_was_load = false;
                let v = f32::from_bits(self.s[sd.index() as usize])
                    + f32::from_bits(self.s[sn.index() as usize])
                        * f32::from_bits(self.s[sm.index() as usize]);
                self.s[sd.index() as usize] = v.to_bits();
                self.profile.record(InstrClass::Float, t.vmla);
                self.pc = pc + 3;
                self.retired += 1;
                cycles += u64::from(t.vmla);
                retired += 1;
            }
            FusedOp::LdrLdrSmlad {
                rta,
                ra,
                offa,
                rtb,
                rb,
                offb,
                rd,
                rn,
                rm,
                racc,
            } => {
                stats.fused_ldr_ldr_smlad += 1;
                cycles = u64::from(self.sub_ldr_post_w(rta, ra, offa, bus, t, pc)?);
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                cycles += u64::from(self.sub_ldr_post_w(rtb, rb, offb, bus, t, pc + 1)?);
                retired += 1;
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                self.last_was_load = false;
                let a = self.reg_i(rn);
                let b = self.reg_i(rm);
                let p0 = i32::from(a as u16 as i16) * i32::from(b as u16 as i16);
                let p1 = i32::from((a >> 16) as u16 as i16) * i32::from((b >> 16) as u16 as i16);
                let v = (self.reg_i(racc) as i32).wrapping_add(p0.wrapping_add(p1)) as u32;
                self.set_reg_i(rd, v);
                self.profile.record(InstrClass::Dsp, t.mla);
                self.pc = pc + 3;
                self.retired += 1;
                cycles += u64::from(t.mla);
                retired += 1;
            }
            FusedOp::LdrLdr {
                rta,
                ra,
                offa,
                rtb,
                rb,
                offb,
            } => {
                stats.fused_ldr_ldr += 1;
                cycles = u64::from(self.sub_ldr_post_w(rta, ra, offa, bus, t, pc)?);
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                cycles += u64::from(self.sub_ldr_post_w(rtb, rb, offb, bus, t, pc + 1)?);
                retired += 1;
            }
            FusedOp::MulAsrAdd {
                rd,
                rn,
                rm,
                rd2,
                rm2,
                shamt,
                rd3,
                rn3,
                rm3,
            } => {
                stats.fused_mul_asr_add += 1;
                self.last_was_load = false;
                let v = self.reg_i(rn).wrapping_mul(self.reg_i(rm));
                self.set_reg_i(rd, v);
                self.profile.record(InstrClass::Mul, t.mul);
                self.pc = pc + 1;
                self.retired += 1;
                cycles = u64::from(t.mul);
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                let v = ((self.reg_i(rm2) as i32) >> shamt) as u32;
                self.set_reg_i(rd2, v);
                self.profile.record(InstrClass::Alu, t.alu);
                self.pc = pc + 2;
                self.retired += 1;
                cycles += u64::from(t.alu);
                retired += 1;
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                let v = self.reg_i(rn3).wrapping_add(self.reg_i(rm3));
                self.set_reg_i(rd3, v);
                self.profile.record(InstrClass::Alu, t.alu);
                self.pc = pc + 3;
                self.retired += 1;
                cycles += u64::from(t.alu);
                retired += 1;
            }
            FusedOp::SubsB {
                rd,
                rn,
                imm,
                cond,
                target,
            } => {
                stats.fused_subs_b += 1;
                self.last_was_load = false;
                let a = self.reg_i(rn);
                self.flags = Flags::from_sub(a, imm as u32);
                self.set_reg_i(rd, a.wrapping_sub(imm as u32));
                self.profile.record(InstrClass::Alu, t.alu);
                self.pc = pc + 1;
                self.retired += 1;
                cycles = u64::from(t.alu);
                if cycles > budget {
                    return Ok(Burst { cycles, retired });
                }
                let (cost, class) = if self.flags.check(cond) {
                    self.pc = target;
                    (t.branch_taken, InstrClass::BranchTaken)
                } else {
                    self.pc = pc + 2;
                    (t.branch_not_taken, InstrClass::BranchNotTaken)
                };
                self.profile.record(class, cost);
                self.retired += 1;
                cycles += u64::from(cost);
                retired += 1;
            }
        }
        Ok(Burst { cycles, retired })
    }

    /// Runs until `bkpt` over a fusion-compiled program — the M4's
    /// product interpreter. Results, cycle counts, profiles, and error
    /// states are bit-identical to running the source program's encoding
    /// on the reference ([`CortexM4::run_code`]); `stats` accumulates
    /// dispatch and per-pattern counters across calls.
    ///
    /// # Errors
    ///
    /// Returns [`M4Error::CycleLimit`] if `max_cycles` elapses first, or any
    /// other [`M4Error`] the program raises.
    pub fn run_fused<B: Bus>(
        &mut self,
        prog: &BlockProgram,
        bus: &mut B,
        t: &CortexM4Timing,
        max_cycles: u64,
        stats: &mut FusedStats,
    ) -> Result<RunResult, M4Error> {
        self.run_fused_sink(
            prog,
            bus,
            t,
            max_cycles,
            stats,
            &mut NoopSink,
            TrackId::default(),
        )
    }

    /// [`CortexM4::run_fused`] with an instrumentation sink attached.
    ///
    /// With the default [`NoopSink`] every emission site folds away and
    /// this *is* the fused hot loop. With a recording sink each dispatch
    /// executes only the first instruction of its slot, and the run emits
    /// one PC sample per retired instruction (PC in *instruction index*
    /// units — the same units [`crate::asm::ThumbAsm::mark`] records
    /// symbols in) plus a single `exec-batch` span covering the whole run:
    /// nRF52832 code executes from flash, which stores cannot reach, so
    /// the compiled program is never invalidated and the batch never
    /// breaks.
    ///
    /// # Errors
    ///
    /// Same as [`CortexM4::run_fused`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_fused_sink<B: Bus, S: TraceSink>(
        &mut self,
        prog: &BlockProgram,
        bus: &mut B,
        t: &CortexM4Timing,
        max_cycles: u64,
        stats: &mut FusedStats,
        sink: &mut S,
        track: TrackId,
    ) -> Result<RunResult, M4Error> {
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        while !self.halted {
            let pc = self.pc;
            let op = prog.ops.get(pc).ok_or(M4Error::PcOutOfRange { pc })?;
            stats.dispatches += 1;
            let (cost, retired) = match op {
                FusedOp::Single(instr) => {
                    let cost = self.exec_decoded(*instr, pc, pc + 1, bus, t)?;
                    (u64::from(cost), 1)
                }
                // A recording sink samples every instruction: execute the
                // fused pattern's first instruction alone.
                _ if S::ENABLED => {
                    let cost = self.exec_decoded(op.head(), pc, pc + 1, bus, t)?;
                    (u64::from(cost), 1)
                }
                _ => {
                    let burst = self.exec_fused(op, pc, bus, t, max_cycles - cycles, stats)?;
                    (burst.cycles, burst.retired)
                }
            };
            if S::ENABLED {
                sink.pc_sample(track, pc as u32, cycles, cost as u32);
            }
            cycles += cost;
            instructions += retired;
            stats.instructions += retired;
            if cycles > max_cycles {
                return Err(M4Error::CycleLimit { limit: max_cycles });
            }
        }
        if S::ENABLED && cycles > 0 {
            sink.span(track, "exec-batch", 0, cycles);
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
    use crate::code::{encode_program, instr_len};
    use iw_rv32::{Bus, Ram};

    /// Runs `program` on the fused path and its encoding on the
    /// per-halfword reference, and asserts every observable output is
    /// bit-identical (program counters compared in halfword units).
    fn compare(
        program: &[ThumbInstr],
        max_cycles: u64,
        setup: impl Fn(&mut CortexM4, &mut Ram),
    ) -> (CortexM4, FusedStats) {
        let code = encode_program(program).unwrap();
        let mut ref_cpu = CortexM4::new();
        let mut ref_ram = Ram::new(0, 4096);
        setup(&mut ref_cpu, &mut ref_ram);
        let t = CortexM4Timing::default();
        let ref_res = ref_cpu.run_code(&code, &mut ref_ram, &t, max_cycles);

        let prog = BlockProgram::compile(program);
        let mut cpu = CortexM4::new();
        let mut ram = Ram::new(0, 4096);
        setup(&mut cpu, &mut ram);
        let mut stats = FusedStats::default();
        let res = cpu.run_fused(&prog, &mut ram, &t, max_cycles, &mut stats);

        // Halfword offset of every instruction index, one past the end
        // included.
        let hw: Vec<usize> = core::iter::once(0)
            .chain(program.iter().scan(0, |at, i| {
                *at += instr_len(i);
                Some(*at)
            }))
            .collect();
        let res = res.map_err(|e| match e {
            M4Error::PcOutOfRange { pc } => M4Error::PcOutOfRange { pc: hw[pc] },
            M4Error::Misaligned { addr, pc } => M4Error::Misaligned { addr, pc: hw[pc] },
            M4Error::BadStoreWidth { pc } => M4Error::BadStoreWidth { pc: hw[pc] },
            e => e,
        });
        assert_eq!(res, ref_res);
        assert_eq!(hw[cpu.pc()], ref_cpu.pc());
        assert_eq!(cpu.is_halted(), ref_cpu.is_halted());
        assert_eq!(cpu.retired(), ref_cpu.retired());
        assert_eq!(cpu.flags(), ref_cpu.flags());
        assert_eq!(cpu.profile(), ref_cpu.profile());
        for i in 0..15 {
            assert_eq!(cpu.reg(R::new(i)), ref_cpu.reg(R::new(i)), "r{i}");
        }
        for i in 0..32 {
            assert_eq!(
                cpu.sreg(S::new(i)).to_bits(),
                ref_cpu.sreg(S::new(i)).to_bits(),
                "s{i}"
            );
        }
        for addr in (0..4096u32).step_by(4) {
            assert_eq!(
                ram.load(addr, MemWidth::W).unwrap(),
                ref_ram.load(addr, MemWidth::W).unwrap(),
                "ram word {addr:#x}"
            );
        }
        (cpu, stats)
    }

    fn q15_dot_kernel() -> Vec<ThumbInstr> {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x100);
        asm.li(R::R1, 0x200);
        asm.li(R::R2, 8); // packed-pair count
        asm.li(R::R3, 0); // acc
        let top = asm.here();
        asm.ldr_post(LsWidth::W, R::R4, R::R0, 4);
        asm.ldr_post(LsWidth::W, R::R5, R::R1, 4);
        asm.emit(ThumbInstr::Smlad {
            rd: R::R3,
            rn: R::R4,
            rm: R::R5,
            ra: R::R3,
        });
        asm.subs(R::R2, R::R2, 1);
        asm.b_to(Cond::Ne, top);
        // Requantisation tail: mul, asr, add (kept contiguous to fuse).
        asm.li(R::R6, 3);
        asm.li(R::R7, 100);
        asm.mul(R::R3, R::R3, R::R6);
        asm.asr_imm(R::R3, R::R3, 7);
        asm.dp(DpOp::Add, R::R3, R::R3, R::R7);
        asm.bkpt();
        asm.finish().unwrap()
    }

    fn fill_q15(ram: &mut Ram) {
        for i in 0..8u32 {
            let a = (i as u16 as u32) | (((i + 1) as u16 as u32) << 16);
            let b = (2u32) | (3u32 << 16);
            ram.write_bytes(0x100 + 4 * i, &a.to_le_bytes());
            ram.write_bytes(0x200 + 4 * i, &b.to_le_bytes());
        }
    }

    #[test]
    fn q15_dot_matches_reference_and_fuses() {
        let program = q15_dot_kernel();
        let (cpu, stats) = compare(&program, 1_000_000, |_, ram| fill_q15(ram));
        assert!(cpu.is_halted());
        assert_eq!(stats.fused_ldr_ldr_smlad, 8);
        assert_eq!(stats.fused_subs_b, 8);
        assert!(stats.fused_mul_asr_add >= 1);
        assert!(stats.avg_burst() > 1.5);
    }

    fn f32_mac_kernel() -> Vec<ThumbInstr> {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x100);
        asm.li(R::R1, 0x200);
        asm.li(R::R2, 6);
        let top = asm.here();
        asm.emit(ThumbInstr::VldrPost {
            sd: S::new(0),
            rn: R::R0,
            offset: 4,
        });
        asm.emit(ThumbInstr::VldrPost {
            sd: S::new(1),
            rn: R::R1,
            offset: 4,
        });
        asm.emit(ThumbInstr::Vmla {
            sd: S::new(2),
            sn: S::new(0),
            sm: S::new(1),
        });
        asm.subs(R::R2, R::R2, 1);
        asm.b_to(Cond::Ne, top);
        asm.bkpt();
        asm.finish().unwrap()
    }

    #[test]
    fn f32_mac_loop_matches_reference_and_fuses() {
        let program = f32_mac_kernel();
        let (cpu, stats) = compare(&program, 1_000_000, |_, ram| {
            for i in 0..6u32 {
                let a = (i as f32) * 0.5 + 1.0;
                ram.write_bytes(0x100 + 4 * i, &a.to_bits().to_le_bytes());
                ram.write_bytes(0x200 + 4 * i, &2.0f32.to_bits().to_le_bytes());
            }
        });
        assert!(cpu.is_halted());
        assert_eq!(stats.fused_vldr_vldr_vmla, 6);
        assert!(cpu.sreg(S::new(2)) > 0.0);
    }

    #[test]
    fn jump_into_pattern_middle_matches_reference() {
        // Branch lands on the second ldr of a fused (ldr, ldr, smlad)
        // triple: the fused slot is skipped and the retained singles run.
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x100);
        asm.li(R::R1, 0x200);
        asm.li(R::R3, 0);
        let mid = asm.new_label();
        asm.cmp_imm(R::R3, 0);
        asm.b_to(Cond::Eq, mid); // jump over the first ldr
        asm.ldr_post(LsWidth::W, R::R4, R::R0, 4);
        asm.bind(mid);
        asm.ldr_post(LsWidth::W, R::R5, R::R1, 4);
        asm.emit(ThumbInstr::Smlad {
            rd: R::R3,
            rn: R::R4,
            rm: R::R5,
            ra: R::R3,
        });
        asm.bkpt();
        let program = asm.finish().unwrap();
        let (cpu, _) = compare(&program, 1_000, |_, ram| fill_q15(ram));
        assert!(cpu.is_halted());
    }

    #[test]
    fn cycle_limit_stops_mid_fused_op_exactly() {
        let program = q15_dot_kernel();
        for limit in 1..120 {
            compare(&program, limit, |_, ram| fill_q15(ram));
        }
    }

    #[test]
    fn fault_mid_fused_op_matches_reference() {
        // Second post-increment load is misaligned: the fault must land
        // with the first load's writeback already applied.
        let mut asm = ThumbAsm::new();
        asm.ldr_post(LsWidth::W, R::R4, R::R0, 4);
        asm.ldr_post(LsWidth::W, R::R5, R::R1, 4);
        asm.emit(ThumbInstr::Smlad {
            rd: R::R3,
            rn: R::R4,
            rm: R::R5,
            ra: R::R3,
        });
        asm.bkpt();
        let program = asm.finish().unwrap();
        let (cpu, _) = compare(&program, 1_000_000, |cpu, ram| {
            fill_q15(ram);
            cpu.set_reg(R::R0, 0x100);
            cpu.set_reg(R::R1, 0x201);
        });
        assert!(!cpu.is_halted());
        assert_eq!(cpu.reg(R::R0), 0x104); // first load's writeback applied
    }

    #[test]
    fn subs_b_fused_loop_counts_match() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 5);
        asm.li(R::R1, 0);
        let top = asm.here();
        asm.add_imm(R::R1, R::R1, 2);
        asm.subs(R::R0, R::R0, 1);
        asm.b_to(Cond::Ne, top);
        asm.bkpt();
        let program = asm.finish().unwrap();
        let (cpu, stats) = compare(&program, 1_000, |_, _| {});
        assert_eq!(cpu.reg(R::R1), 10);
        assert_eq!(stats.fused_subs_b, 5);
    }

    #[test]
    fn compile_reports_fusion_sites() {
        let program = q15_dot_kernel();
        let prog = BlockProgram::compile(&program);
        assert_eq!(prog.len(), program.len());
        assert!(!prog.is_empty());
        assert!(prog.fused_sites() >= 3); // ldr/ldr/smlad + subs/b + mul/asr/add
        assert!(prog.fused_instrs() >= 8);
    }

    #[test]
    fn every_slot_heads_with_its_own_instruction() {
        // A recorded run executes `head()` at every pc, fused slots
        // included, so each must rebuild the source instruction exactly.
        for program in [q15_dot_kernel(), f32_mac_kernel()] {
            let prog = BlockProgram::compile(&program);
            assert!(prog.fused_sites() >= 2);
            for (i, instr) in program.iter().enumerate() {
                assert_eq!(prog.ops[i].head(), *instr, "index {i}");
            }
        }
    }

    #[test]
    fn empty_program_is_pc_out_of_range() {
        let prog = BlockProgram::compile(&[]);
        let mut cpu = CortexM4::new();
        let mut ram = Ram::new(0, 16);
        let mut stats = FusedStats::default();
        let err = cpu
            .run_fused(&prog, &mut ram, &CortexM4Timing::default(), 100, &mut stats)
            .unwrap_err();
        assert!(matches!(err, M4Error::PcOutOfRange { pc: 0 }));
    }
}
