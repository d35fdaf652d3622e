//! The dot-product loop op for pre-decoded Thumb programs.
//!
//! The M4 executes from immutable flash, so a `&[ThumbInstr]` program can
//! be compiled **once** into a [`BlockProgram`]: a flat array, indexed by
//! the same instruction-index program counter, whose slots each hold the
//! instruction at that index, except where the fixed-point kernel's
//! ×2-unrolled dot-product inner loop starts (`ldr`+`ldr`+`mul`+`asr`+`add`
//! twice, then `subs`+`b.ne` back to its own head). That slot holds a
//! *loop op*, which [`CortexM4::run_fused`] dispatches once per row: it
//! runs every pass of the row on locals and commits the registers, flags
//! and profile once, in closed form, where it stops. It fuses only over the
//! kernel's own register pattern (six distinct registers, post-increment
//! `+4`, a decrement by one); any other loop, the Q15 and float kernels'
//! included, runs one instruction per dispatch.
//!
//! When the row's two word streams lie in memory ([`Bus::span`]) and its
//! cycles through the last `subs` fit the budget, the loop op runs every
//! multiply-accumulate of the row in one loop over the two borrowed
//! slices and charges the cycles in closed form; the cycle count only
//! grows, so no per-sub-instruction check could have stopped it.
//! Otherwise it steps through the passes, checking the budget after every
//! sub-instruction.
//!
//! The loop op replays the exact per-instruction semantics of
//! [`CortexM4::exec_decoded`] — flag updates, the load-pipelining cycle
//! discount, per-class profile accounting, and fault ordering — so results,
//! cycle counts, and error states are bit-identical to the per-halfword
//! reference [`CortexM4::run_code`]. The slots inside the loop keep their
//! single instructions, so a branch into the middle of a pass, or a run
//! resumed there, executes the rest of the pass one instruction at a time
//! until the back edge; no basic-block boundary analysis is needed. A
//! recorded run ([`CortexM4::run_fused_sink`]) executes only each slot's
//! first instruction, so every instruction gets its own PC sample.

use iw_rv32::{dot_row, Bus, BusError, InstrClass, MemWidth};
use iw_trace::{NoopSink, TraceSink, TrackId};

use crate::cpu::{CortexM4, Flags, M4Error, RunResult};
use crate::instr::{AddrMode, Cond, DpOp, LsWidth, ThumbInstr, R};
use crate::timing::CortexM4Timing;

/// One slot of a [`BlockProgram`]: a single instruction or the
/// dot-product loop op headed at this index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FusedOp {
    /// No loop starts here; execute one instruction.
    Single(ThumbInstr),
    /// The fixed-point dot-product loop headed at this slot
    /// ([`dot_loop_body`]): `regs` are `[w, x, tw, tx, acc, n]`, distinct.
    DotLoop { regs: [R; 6], shamt: u8 },
}

// Every dispatch reads a slot: the loop op must not make them wider.
const _: () = assert!(core::mem::size_of::<FusedOp>() == 16);

impl FusedOp {
    /// The instruction at this slot's own index: the single instruction,
    /// or the first instruction of the loop.
    fn head(&self) -> ThumbInstr {
        match *self {
            FusedOp::Single(instr) => instr,
            FusedOp::DotLoop {
                regs: [w, _, tw, ..],
                ..
            } => ThumbInstr::Ldr {
                width: LsWidth::W,
                rt: tw,
                rn: w,
                offset: 4,
                mode: AddrMode::PostInc,
            },
        }
    }
}

/// Instructions in one pass of the dot-product loop op.
const DOT_LOOP_LEN: usize = 12;

/// The fixed-point kernel's ×2-unrolled dot-product loop headed at index
/// `at`, over `[w, x, tw, tx, acc, n]`: twice `ldr tw, [w], #4`,
/// `ldr tx, [x], #4`, `mul tw, tw, tx`, `asr tw, tw, #shamt`,
/// `add acc, acc, tw`, then `subs n, n, #1` and `b.ne at`.
fn dot_loop_body(regs: [R; 6], shamt: u8, at: usize) -> [ThumbInstr; DOT_LOOP_LEN] {
    let [w, x, tw, tx, acc, n] = regs;
    let ldr = |rt, rn| ThumbInstr::Ldr {
        width: LsWidth::W,
        rt,
        rn,
        offset: 4,
        mode: AddrMode::PostInc,
    };
    let mac = [
        ldr(tw, w),
        ldr(tx, x),
        ThumbInstr::Dp {
            op: DpOp::Mul,
            rd: tw,
            rn: tw,
            rm: tx,
        },
        ThumbInstr::AsrImm {
            rd: tw,
            rm: tw,
            shamt,
        },
        ThumbInstr::Dp {
            op: DpOp::Add,
            rd: acc,
            rn: acc,
            rm: tw,
        },
    ];
    let mut body = [ThumbInstr::Nop; DOT_LOOP_LEN];
    body[..5].copy_from_slice(&mac);
    body[5..10].copy_from_slice(&mac);
    body[10] = ThumbInstr::SubsImm {
        rd: n,
        rn: n,
        imm: 1,
    };
    body[11] = ThumbInstr::B {
        cond: Cond::Ne,
        target: at,
    };
    body
}

/// The dot-product loop op if `window`, starting at index `at`, is
/// exactly [`dot_loop_body`] over six distinct registers.
fn try_dot_loop(window: &[ThumbInstr], at: usize) -> Option<FusedOp> {
    use ThumbInstr as I;
    let body = window.get(..DOT_LOOP_LEN)?;
    let (
        &I::Ldr { rt: tw, rn: w, .. },
        &I::Ldr { rt: tx, rn: x, .. },
        &I::AsrImm { shamt, .. },
        &I::Dp { rd: acc, .. },
        &I::SubsImm { rd: n, .. },
    ) = (&body[0], &body[1], &body[3], &body[4], &body[10])
    else {
        return None;
    };
    let regs = [w, x, tw, tx, acc, n];
    let distinct = (1..regs.len()).all(|i| !regs[..i].contains(&regs[i]));
    (distinct && *body == dot_loop_body(regs, shamt, at))
        .then_some(FusedOp::DotLoop { regs, shamt })
}

/// Execution counters for [`CortexM4::run_fused`].
///
/// `dispatches` counts slots entered (single or loop op); `instructions`
/// counts instructions retired through them, so [`FusedStats::avg_burst`]
/// is the mean number of instructions executed per dispatch — the
/// dispatch-amortisation the loop op buys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Slots entered (one per dispatch-loop iteration).
    pub dispatches: u64,
    /// Instructions retired through those slots.
    pub instructions: u64,
    /// Dot-product loop op entries (one per dispatch).
    pub dot_loop_entries: u64,
    /// Whole loop passes the dot-product loop op ran.
    pub dot_loop_iterations: u64,
    /// Loop-op entries that ran their whole row as one pass over borrowed
    /// memory slices ([`Bus::span`]) with the row's cycles charged in
    /// closed form.
    pub whole_rows: u64,
}

impl FusedStats {
    /// Mean instructions retired per dispatch (1.0 with no loop op).
    #[must_use]
    pub fn avg_burst(&self) -> f64 {
        if self.dispatches == 0 {
            1.0
        } else {
            self.instructions as f64 / self.dispatches as f64
        }
    }
}

/// A pre-decoded program compiled with the dot-product loop op.
///
/// Built once from a `&[ThumbInstr]` slice with [`BlockProgram::compile`];
/// run with [`CortexM4::run_fused`]. Every slot holds its own instruction,
/// except that a dot-product loop op takes over the slot at its loop's
/// head; the slots inside the loop keep their single instructions, for
/// jump-into-loop correctness.
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
}

impl BlockProgram {
    /// Compiles a pre-decoded program, placing a loop op at the head of
    /// every dot-product loop.
    #[must_use]
    pub fn compile(program: &[ThumbInstr]) -> BlockProgram {
        let ops = (0..program.len())
            .map(|at| try_dot_loop(&program[at..], at).unwrap_or(FusedOp::Single(program[at])))
            .collect();
        BlockProgram { ops }
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
}

/// The dot-product loop op's registers as locals.
#[derive(Clone, Copy)]
struct DotRegs {
    w: u32,
    x: u32,
    tw: u32,
    tx: u32,
    acc: u32,
    n: u32,
}

impl DotRegs {
    fn read(cpu: &CortexM4, regs: [R; 6]) -> DotRegs {
        let [w, x, tw, tx, acc, n] = regs.map(|r| cpu.reg_i(r));
        DotRegs {
            w,
            x,
            tw,
            tx,
            acc,
            n,
        }
    }

    fn write(&self, cpu: &mut CortexM4, regs: [R; 6]) {
        let DotRegs {
            w,
            x,
            tw,
            tx,
            acc,
            n,
        } = *self;
        for (r, v) in regs.into_iter().zip([w, x, tw, tx, acc, n]) {
            cpu.set_reg_i(r, v);
        }
    }
}

/// Cycle costs of the dot-product loop op's sub-instructions.
struct DotCosts {
    ldr: u64,
    ldr_p: u64,
    mul: u64,
    alu: u64,
}

impl DotCosts {
    fn of(t: &CortexM4Timing) -> DotCosts {
        DotCosts {
            ldr: u64::from(t.ldr),
            ldr_p: u64::from(t.ldr_pipelined),
            mul: u64::from(t.mul),
            alu: u64::from(t.alu),
        }
    }

    /// A pass's cycles after its first load, through its `subs`.
    fn rest(&self) -> u64 {
        self.ldr + 2 * self.ldr_p + 2 * self.mul + 5 * self.alu
    }
}

/// One pass of the dot-product loop op through its `subs`, its first load
/// costing `load0`, adding its cycles to `c`. Returns `None` when the pass
/// reaches its `b.ne`, else where it stopped: after the first
/// sub-instruction that takes `c` past `budget`, or at a load that
/// faulted; the sub-instructions it retired and the fault, if any.
#[inline(always)]
fn dot_pass<B: Bus>(
    v: &mut DotRegs,
    c: &mut u64,
    load0: u64,
    shamt: u8,
    bus: &mut B,
    k: &DotCosts,
    budget: u64,
) -> Option<(usize, Result<(), BusError>)> {
    // The two multiply-accumulates, the second at sub-instruction 5.
    for (at, load) in [(0, load0), (5, k.ldr)] {
        match bus.load(v.w, MemWidth::W) {
            Ok(word) => (v.tw, v.w, *c) = (word, v.w.wrapping_add(4), *c + load),
            Err(e) => return Some((at, Err(e))),
        }
        if *c > budget {
            return Some((at + 1, Ok(())));
        }
        match bus.load(v.x, MemWidth::W) {
            Ok(word) => (v.tx, v.x, *c) = (word, v.x.wrapping_add(4), *c + k.ldr_p),
            Err(e) => return Some((at + 1, Err(e))),
        }
        if *c > budget {
            return Some((at + 2, Ok(())));
        }
        v.tw = v.tw.wrapping_mul(v.tx);
        *c += k.mul;
        if *c > budget {
            return Some((at + 3, Ok(())));
        }
        v.tw = ((v.tw as i32) >> shamt) as u32;
        *c += k.alu;
        if *c > budget {
            return Some((at + 4, Ok(())));
        }
        v.acc = v.acc.wrapping_add(v.tw);
        *c += k.alu;
        if *c > budget {
            return Some((at + 5, Ok(())));
        }
    }
    v.n = v.n.wrapping_sub(1);
    *c += k.alu;
    if *c > budget {
        return Some((11, Ok(())));
    }
    None
}

/// The word streams of a whole row at `v`'s pointers, `v.n` passes of
/// two words each, and the row's cycles through its last `subs`, its
/// first load costing `load0`: `Some` when `v.n` is at least 1 and below
/// 2^28, the bus hands out both spans ([`Bus::span`]; the M4 charges its
/// own load costs) and those cycles stay within `budget`.
fn whole_row<'b, B: Bus>(
    bus: &'b B,
    v: &DotRegs,
    load0: u64,
    k: &DotCosts,
    bt: u64,
    budget: u64,
) -> Option<(&'b [u8], &'b [u8], u64)> {
    let n = u64::from(v.n);
    if !(1..1 << 28).contains(&n) {
        return None;
    }
    let gaps = (n - 1).checked_mul(bt + k.ldr)?;
    let end = k
        .rest()
        .checked_mul(n)?
        .checked_add(gaps)?
        .checked_add(load0)?;
    if end > budget {
        return None;
    }
    let len = 8 * v.n;
    Some((bus.span(v.w, len, 0)?.0, bus.span(v.x, len, 0)?.0, end))
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

    /// Runs the dot-product loop op headed at `pc` over `regs`
    /// (`[w, x, tw, tx, acc, n]`, both pointers word-aligned) until its
    /// `b.ne` falls through, `budget` cycles are exceeded after a
    /// sub-instruction (the caller then raises `CycleLimit` with the
    /// partial state, exactly as the per-instruction reference would) or a
    /// load faults; returns the cycles and the instructions retired. The
    /// passes run on locals: the whole row over borrowed slices when no
    /// stop can end it ([`whole_row`]), else one bus load per access in
    /// program order. The registers, the `subs` flags, `pc`, the retired
    /// count and the profile are committed once, at the stop, in closed
    /// form.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn dot_loop<B: Bus>(
        &mut self,
        regs: [R; 6],
        shamt: u8,
        pc: usize,
        bus: &mut B,
        t: &CortexM4Timing,
        budget: u64,
        stats: &mut FusedStats,
    ) -> Result<(u64, u64), M4Error> {
        stats.dot_loop_entries += 1;
        let mut v = DotRegs::read(self, regs);
        // Only the first load of the first pass may follow a load; every
        // later pass's follows the back edge.
        let first = if self.last_was_load {
            t.ldr_pipelined
        } else {
            t.ldr
        };
        let mut load0 = u64::from(first);
        let k = DotCosts::of(t);
        let (bt, bnt) = (u64::from(t.branch_taken), u64::from(t.branch_not_taken));
        let (mut c, mut iters, mut exited) = (0u64, 0u64, false);
        // The whole row at once, when both word streams lie in memory and
        // the row's last budget check, after its last `subs`, passes: the
        // cycle count only grows, so no check before it could stop.
        let row = whole_row(bus, &v, load0, &k, bt, budget);
        // `r` counts the sub-instructions of the unfinished pass retired
        // at the stop; a fault stops at the load numbered `r`.
        let (r, res) = if let Some((ws, xs, end)) = row {
            (v.acc, v.tw, v.tx) = dot_row(ws, xs, shamt, v.acc);
            (c, iters, exited) = (end + bnt, u64::from(v.n), true);
            (v.w, v.x, v.n) = (v.w.wrapping_add(8 * v.n), v.x.wrapping_add(8 * v.n), 0);
            stats.whole_rows += 1;
            (0, Ok(()))
        } else {
            loop {
                if let Some(stop) = dot_pass(&mut v, &mut c, load0, shamt, bus, &k, budget) {
                    break stop;
                }
                iters += 1;
                if v.n == 0 {
                    exited = true;
                    c += bnt;
                    break (0, Ok(()));
                }
                c += bt;
                load0 = k.ldr;
                if c > budget {
                    break (0, Ok(()));
                }
            }
        };
        v.write(self, regs);
        let p = &mut self.profile;
        // The first load of every pass but the first costs `t.ldr`.
        let loads0 = iters + u64::from(r > 0);
        if loads0 > 0 {
            p.record(InstrClass::Load, first);
            p.record_n(InstrClass::Load, loads0 - 1, t.ldr);
        }
        let body = [
            (InstrClass::Load, t.ldr_pipelined),
            (InstrClass::Mul, t.mul),
            (InstrClass::Alu, t.alu),
            (InstrClass::Alu, t.alu),
            (InstrClass::Load, t.ldr),
            (InstrClass::Load, t.ldr_pipelined),
            (InstrClass::Mul, t.mul),
            (InstrClass::Alu, t.alu),
            (InstrClass::Alu, t.alu),
            (InstrClass::Alu, t.alu),
        ];
        for (k, (class, cycles)) in (1..).zip(body) {
            p.record_n(class, iters + u64::from(k < r), cycles);
        }
        // The `b.ne` closing each whole pass: taken but on the exit.
        let fell = u64::from(exited);
        p.record_n(InstrClass::BranchTaken, iters - fell, t.branch_taken);
        p.record_n(InstrClass::BranchNotTaken, fell, t.branch_not_taken);
        // The flags of the last `subs` retired, which left `n`.
        if iters > 0 || r == 11 {
            self.flags = Flags::from_sub(v.n.wrapping_add(1), 1);
        }
        let retired = DOT_LOOP_LEN as u64 * iters + r as u64;
        self.retired += retired;
        self.pc = if exited { pc + DOT_LOOP_LEN } else { pc + r };
        // The loads are sub-instructions 0, 1, 5 and 6; a fault is always
        // a load's, which set the flag before faulting.
        self.last_was_load = res.is_err() || matches!(r, 1 | 2 | 6 | 7);
        stats.dot_loop_iterations += iters;
        res?;
        Ok((c, retired))
    }

    /// Runs until `bkpt` over a fusion-compiled program — the M4's
    /// product interpreter. Results, cycle counts, profiles, and error
    /// states are bit-identical to running the source program's encoding
    /// on the reference ([`CortexM4::run_code`]); `stats` accumulates
    /// dispatch and loop-op counters across calls.
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
    /// this *is* the product hot loop. With a recording sink each dispatch
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
            let (cost, retired) = match *op {
                // The pointers only step by 4: aligned at entry, they stay
                // aligned. A misaligned one faults at its first access,
                // which the head and the slots after it reach one by one.
                // A recording sink samples every instruction, so it runs
                // the head alone too.
                FusedOp::DotLoop { regs, shamt }
                    if !S::ENABLED
                        && (self.reg_i(regs[0]) | self.reg_i(regs[1])).is_multiple_of(4) =>
                {
                    self.dot_loop(regs, shamt, pc, bus, t, max_cycles - cycles, stats)?
                }
                _ => {
                    let cost = self.exec_decoded(op.head(), pc, pc + 1, bus, t)?;
                    (u64::from(cost), 1)
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
    use crate::instr::S;
    use iw_rv32::Ram;
    use proptest::prelude::*;

    /// Everything a run leaves observable, program counters in halfword
    /// units, including the load-pipelining state a later run on the same
    /// core starts from.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        res: Result<RunResult, M4Error>,
        pc: usize,
        halted: bool,
        retired: u64,
        flags: Flags,
        last_was_load: bool,
        profile: iw_rv32::ExecProfile,
        r: [u32; 15],
        s: [u32; 32],
        ram: Vec<u8>,
    }

    /// Runs `program` on the fused path, on the fused path under a
    /// recording sink (one instruction per dispatch) and its encoding on
    /// the per-halfword reference, and asserts every observable output is
    /// bit-identical and that the recording sampled every instruction.
    fn compare(
        program: &[ThumbInstr],
        max_cycles: u64,
        setup: impl Fn(&mut CortexM4, &mut Ram),
    ) -> (CortexM4, FusedStats) {
        // Halfword offset of every instruction index, one past the end
        // included.
        let hw: Vec<usize> = core::iter::once(0)
            .chain(program.iter().scan(0, |at, i| {
                *at += instr_len(i);
                Some(*at)
            }))
            .collect();
        let observe =
            |cpu: &CortexM4, ram: &Ram, res: Result<RunResult, M4Error>, pc: usize| Outcome {
                res,
                pc,
                halted: cpu.is_halted(),
                retired: cpu.retired(),
                flags: cpu.flags(),
                last_was_load: cpu.last_was_load,
                profile: *cpu.profile(),
                r: cpu.r,
                s: cpu.s,
                ram: ram.read_bytes(0, 4096).to_vec(),
            };
        let fresh = || {
            let mut cpu = CortexM4::new();
            let mut ram = Ram::new(0, 4096);
            setup(&mut cpu, &mut ram);
            (cpu, ram)
        };
        let t = CortexM4Timing::default();

        let code = encode_program(program).unwrap();
        let (mut ref_cpu, mut ref_ram) = fresh();
        let ref_res = ref_cpu.run_code(&code, &mut ref_ram, &t, max_cycles);
        let reference = observe(&ref_cpu, &ref_ram, ref_res, ref_cpu.pc());

        let in_halfwords = |res: Result<RunResult, M4Error>| {
            res.map_err(|e| match e {
                M4Error::PcOutOfRange { pc } => M4Error::PcOutOfRange { pc: hw[pc] },
                M4Error::Misaligned { addr, pc } => M4Error::Misaligned { addr, pc: hw[pc] },
                M4Error::BadStoreWidth { pc } => M4Error::BadStoreWidth { pc: hw[pc] },
                e => e,
            })
        };
        let prog = BlockProgram::compile(program);
        let (mut cpu, mut ram) = fresh();
        let mut stats = FusedStats::default();
        let res = cpu.run_fused(&prog, &mut ram, &t, max_cycles, &mut stats);
        let fused = observe(&cpu, &ram, in_halfwords(res), hw[cpu.pc()]);
        assert_eq!(fused, reference, "fused");

        let (mut rec_cpu, mut rec_ram) = fresh();
        let mut rec = iw_trace::Recorder::new();
        let track = rec.track("m4", iw_trace::CYCLES);
        let res = rec_cpu.run_fused_sink(
            &prog,
            &mut rec_ram,
            &t,
            max_cycles,
            &mut FusedStats::default(),
            &mut rec,
            track,
        );
        let recorded = observe(&rec_cpu, &rec_ram, in_halfwords(res), hw[rec_cpu.pc()]);
        assert_eq!(recorded, reference, "recorded");
        let sampled: u64 = rec.pc_histogram().values().map(|s| s.count).sum();
        assert_eq!(sampled, rec_cpu.retired(), "PC samples vs retired");
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
    fn q15_dot_matches_reference() {
        let program = q15_dot_kernel();
        let (cpu, stats) = compare(&program, 1_000_000, |_, ram| fill_q15(ram));
        assert!(cpu.is_halted());
        assert_eq!(stats.dispatches, stats.instructions, "{stats:?}");
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
    fn f32_mac_loop_matches_reference() {
        let program = f32_mac_kernel();
        let (cpu, stats) = compare(&program, 1_000_000, |_, ram| {
            for i in 0..6u32 {
                let a = (i as f32) * 0.5 + 1.0;
                ram.write_bytes(0x100 + 4 * i, &a.to_bits().to_le_bytes());
                ram.write_bytes(0x200 + 4 * i, &2.0f32.to_bits().to_le_bytes());
            }
        });
        assert!(cpu.is_halted());
        assert_eq!(stats.dispatches, stats.instructions, "{stats:?}");
        assert!(cpu.sreg(S::new(2)) > 0.0);
    }

    #[test]
    fn jump_between_q15_loads_matches_reference() {
        // Branch lands on the second ldr of an (ldr, ldr, smlad) triple:
        // the first ldr's slot is skipped and the rest run.
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
    fn cycle_limit_stops_q15_kernel_exactly() {
        let program = q15_dot_kernel();
        for limit in 1..120 {
            compare(&program, limit, |_, ram| fill_q15(ram));
        }
    }

    #[test]
    fn fault_at_a_second_load_matches_reference() {
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
    fn subs_b_loop_counts_match() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 5);
        asm.li(R::R1, 0);
        let top = asm.here();
        asm.add_imm(R::R1, R::R1, 2);
        asm.subs(R::R0, R::R0, 1);
        asm.b_to(Cond::Ne, top);
        asm.bkpt();
        let program = asm.finish().unwrap();
        let (cpu, _) = compare(&program, 1_000, |_, _| {});
        assert_eq!(cpu.reg(R::R1), 10);
    }

    /// A fixed-point dot-product row as `emit_m4_fixed_kernel` emits it
    /// over `[w, x, tw, tx, acc, n]`: `n` passes of the loop op's body over
    /// the word vectors at `w` and `x`, then `bkpt`.
    fn dot_row(regs: [R; 6], w: u32, x: u32, n: i32, shamt: u8) -> Vec<ThumbInstr> {
        let mut asm = ThumbAsm::new();
        asm.li(regs[0], w as i32);
        asm.li(regs[1], x as i32);
        asm.li(regs[5], n);
        let top = asm.here();
        for instr in &dot_loop_body(regs, shamt, 0)[..11] {
            asm.emit(*instr);
        }
        asm.b_to(Cond::Ne, top);
        asm.bkpt();
        asm.finish().unwrap()
    }

    const KERNEL_REGS: [R; 6] = [R::R0, R::R1, R::R2, R::R3, R::R4, R::R5];

    /// `program` with `instr` inserted at index `at` and the branch
    /// targets it moves along shifted.
    fn inserted(mut program: Vec<ThumbInstr>, at: usize, instr: ThumbInstr) -> Vec<ThumbInstr> {
        for i in &mut program {
            if let ThumbInstr::B { target, .. } = i {
                if *target >= at {
                    *target += 1;
                }
            }
        }
        program.insert(at, instr);
        program
    }

    /// Fills RAM with words whose products and shifts are not trivial.
    fn fill_words(ram: &mut Ram) {
        for i in 0..1024u32 {
            let v = i.wrapping_mul(0x9e37_79b9) ^ (i << 3);
            ram.write_bytes(4 * i, &v.to_le_bytes());
        }
    }

    #[test]
    fn dot_loop_runs_each_row_in_one_dispatch() {
        let program = dot_row(KERNEL_REGS, 0x100, 0x300, 8, 7);
        let (cpu, stats) = compare(&program, 1_000_000, |_, ram| fill_words(ram));
        assert!(cpu.is_halted());
        assert_eq!((stats.dot_loop_entries, stats.dot_loop_iterations), (1, 8));
        // Three `movw`s, the loop op and `bkpt`.
        assert_eq!(stats.dispatches, 5);
        assert_eq!(stats.instructions, 3 + 8 * 12 + 1);
    }

    #[test]
    fn other_loops_run_one_instruction_per_dispatch() {
        // `tw` doubling as the accumulator, a decrement by two, a
        // condition other than `ne` and a branch elsewhere all miss.
        let aliased = dot_row(
            [R::R0, R::R1, R::R2, R::R3, R::R2, R::R5],
            0x100,
            0x300,
            8,
            7,
        );
        let mut by_two = dot_row(KERNEL_REGS, 0x100, 0x300, 8, 7);
        by_two[13] = ThumbInstr::SubsImm {
            rd: R::R5,
            rn: R::R5,
            imm: 2,
        };
        let mut ge = dot_row(KERNEL_REGS, 0x100, 0x300, 8, 7);
        ge[14] = ThumbInstr::B {
            cond: Cond::Ge,
            target: 3,
        };
        let mut elsewhere = dot_row(KERNEL_REGS, 0x100, 0x300, 8, 7);
        elsewhere[14] = ThumbInstr::B {
            cond: Cond::Ne,
            target: 8,
        };
        for program in [aliased, by_two, ge, elsewhere] {
            assert!(BlockProgram::compile(&program)
                .ops
                .iter()
                .all(|op| !matches!(op, FusedOp::DotLoop { .. })));
            let (_, stats) = compare(&program, 1_000_000, |_, ram| fill_words(ram));
            assert_eq!(stats.dot_loop_entries, 0);
            assert_eq!(stats.dispatches, stats.instructions, "{stats:?}");
        }
    }

    #[test]
    fn dot_loop_stops_exactly_at_every_cycle_limit() {
        // Entered right after a load too, whose pipelining discount the
        // first pass's first load takes.
        let load = ThumbInstr::Ldr {
            width: LsWidth::W,
            rt: R::R8,
            rn: R::R9,
            offset: 0,
            mode: AddrMode::Offset,
        };
        for n in [1, 2, 8] {
            let program = dot_row(KERNEL_REGS, 0x100, 0x300, n, 7);
            let after_load = inserted(program.clone(), 3, load);
            // The row runs whole exactly when the reference gets past the
            // last `subs`'s budget check: it then retires the `b.ne`.
            for (program, pre) in [(program, 3), (after_load, 4)] {
                for limit in 1..20 * n as u64 + 20 {
                    let (cpu, stats) = compare(&program, limit, |_, ram| fill_words(ram));
                    let whole = cpu.retired() >= pre + 12 * n as u64;
                    assert_eq!(stats.whole_rows, u64::from(whole), "n={n} limit={limit}");
                }
                let (_, stats) = compare(&program, 1_000_000, |_, ram| fill_words(ram));
                assert_eq!((stats.dot_loop_entries, stats.whole_rows), (1, 1));
            }
        }
    }

    #[test]
    fn dot_rows_ending_at_the_ram_end_run_whole_and_past_it_fault_exactly() {
        // Either stream ending one word before the end of RAM, exactly at
        // it, or one word past it: the last pass's second load of that
        // stream faults, as on the reference, and the row runs stepped.
        for n in [1, 2, 8] {
            for past in [-1, 0, 1] {
                let at = (4096 - 4 * (2 * n - past)) as u32;
                for (w, x) in [(at, 0x100), (0x100, at)] {
                    let program = dot_row(KERNEL_REGS, w, x, n, 7);
                    let (cpu, stats) = compare(&program, 1_000_000, |_, ram| fill_words(ram));
                    assert_eq!(cpu.is_halted(), past < 1, "n={n} {w:#x} {x:#x}");
                    assert_eq!(stats.whole_rows, u64::from(past < 1), "n={n} {w:#x} {x:#x}");
                }
            }
        }
    }

    #[test]
    fn dot_loop_faults_at_the_exact_sub_instruction() {
        // Each pointer running off the end of RAM at either load of a
        // pass, and each misaligned from the start.
        for (w, x) in [
            (4096 - 8, 0x100),
            (4096 - 12, 0x100),
            (0x100, 4096 - 8),
            (0x100, 4096 - 12),
            (0x102, 0x100),
            (0x100, 0x101),
            (0x5000, 0x100),
        ] {
            let program = dot_row(KERNEL_REGS, w, x, 8, 7);
            let (cpu, _) = compare(&program, 1_000_000, |_, ram| fill_words(ram));
            assert!(!cpu.is_halted(), "{w:#x} {x:#x}");
        }
    }

    #[test]
    fn dot_loop_entered_mid_pass_runs_on_from_its_head() {
        // A branch to the second multiply-accumulate runs the rest of the
        // first pass one instruction at a time, then every later pass in
        // the loop op.
        let to_mid = ThumbInstr::B {
            cond: Cond::Al,
            target: 3 + 1 + 5,
        };
        let program = inserted(dot_row(KERNEL_REGS, 0x100, 0x300, 8, 7), 3, to_mid);
        let (cpu, stats) = compare(&program, 1_000_000, |_, ram| fill_words(ram));
        assert!(cpu.is_halted());
        assert_eq!((stats.dot_loop_entries, stats.dot_loop_iterations), (1, 7));
    }

    #[test]
    fn compile_places_one_loop_op_per_dot_loop_head() {
        // The row's three `movw`s, then the loop op at the loop's head;
        // every other slot, the loop's own included, holds its single
        // instruction.
        let program = dot_row(KERNEL_REGS, 0x100, 0x300, 8, 7);
        let prog = BlockProgram::compile(&program);
        assert_eq!(prog.len(), program.len());
        assert!(!prog.is_empty());
        let loops: Vec<usize> = (0..prog.len())
            .filter(|&i| matches!(prog.ops[i], FusedOp::DotLoop { .. }))
            .collect();
        assert_eq!(loops, [3]);
        assert_eq!(
            prog.ops[3],
            FusedOp::DotLoop {
                regs: KERNEL_REGS,
                shamt: 7
            }
        );
        let prog = BlockProgram::compile(&q15_dot_kernel());
        assert!(prog.ops.iter().all(|op| matches!(op, FusedOp::Single(_))));
    }

    #[test]
    fn every_slot_heads_with_its_own_instruction() {
        // A recorded run executes `head()` at every pc, loop ops
        // included, so each must rebuild the source instruction exactly.
        let dot = dot_row(KERNEL_REGS, 0x100, 0x300, 8, 7);
        for program in [q15_dot_kernel(), f32_mac_kernel(), dot] {
            let prog = BlockProgram::compile(&program);
            for (i, instr) in program.iter().enumerate() {
                assert_eq!(prog.ops[i].head(), *instr, "index {i}");
            }
        }
    }

    /// One fragment of a random program: the loop op's shape, or nearly,
    /// or one of the Q15, float and requantisation shapes that run one
    /// instruction per dispatch, with its operands set up before it.
    #[derive(Debug, Clone)]
    enum Frag {
        /// A dot-product row over `regs` (`[w, x, tw, tx, acc, n]`, as
        /// register numbers) with `n` passes over the words at `w` and `x`.
        /// `miss` 1–3 bends one instruction out of the loop op's pattern;
        /// the row is entered after a load, or mid-pass by a branch to the
        /// second multiply-accumulate.
        Dot {
            regs: [u8; 6],
            ptrs: (u32, u32),
            n: i32,
            shamt: u8,
            entry: u8,
            miss: u8,
        },
        /// `ldr`+`ldr` with post-increments `offs`, then `smlad` over
        /// `regs[4..8]` if `smlad`.
        LdrPair {
            regs: [u8; 8],
            ptrs: (u32, u32),
            offs: (i32, i32),
            smlad: bool,
        },
        /// `vldmia`+`vldmia`+`vmla.f32` over core registers `regs` and
        /// FPU registers `sregs`.
        VldrPair {
            regs: [u8; 2],
            ptrs: (u32, u32),
            sregs: [u8; 5],
        },
        /// `mul`+`asr`+`add` over `regs`.
        MulAsrAdd { regs: [u8; 8], shamt: u8 },
        /// A counted loop over one `add`: `subs r, r, #imm; b.cond`.
        SubsLoop {
            reg: u8,
            n: i32,
            imm: i32,
            cond: Cond,
        },
    }

    fn reg() -> impl Strategy<Value = u8> {
        0u8..8
    }

    fn regs8() -> impl Strategy<Value = [u8; 8]> {
        ((reg(), reg(), reg(), reg()), (reg(), reg(), reg(), reg()))
            .prop_map(|((a, b, c, d), (e, f, g, h))| [a, b, c, d, e, f, g, h])
    }

    /// The kernel's six distinct registers, rotated, or any six.
    fn dot_regs() -> impl Strategy<Value = [u8; 6]> {
        let kernel = || reg().prop_map(|k| [0, 1, 2, 3, 4, 5].map(|r| (r + k) % 8));
        prop_oneof![
            kernel(),
            kernel(),
            (reg(), reg(), reg(), reg(), reg(), reg())
                .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f]),
        ]
    }

    /// An aligned pointer into the 4 KiB RAM (a loop may walk it off the
    /// end), a misaligned one, or one past the end.
    fn pointer() -> impl Strategy<Value = u32> {
        prop_oneof![
            (0u32..1024).prop_map(|k| 4 * k),
            (0u32..1024).prop_map(|k| 4 * k),
            (0u32..1024).prop_map(|k| 4 * k),
            (0u32..1024).prop_map(|k| 4 * k),
            (0u32..1024, 1u32..4).prop_map(|(k, m)| 4 * k + m),
            (1024u32..1100).prop_map(|k| 4 * k),
        ]
    }

    fn pointers() -> impl Strategy<Value = (u32, u32)> {
        (pointer(), pointer())
    }

    /// No pass at all (the count wraps), one, or many.
    fn passes() -> impl Strategy<Value = i32> {
        prop_oneof![Just(0), Just(1), 2i32..40]
    }

    fn cond() -> impl Strategy<Value = Cond> {
        prop_oneof![
            Just(Cond::Ne),
            Just(Cond::Ge),
            Just(Cond::Hs),
            Just(Cond::Gt)
        ]
    }

    /// A row's pointers: any two, or one whose stream ends one word
    /// before the end of RAM, exactly at it or one word past it after
    /// `n` passes.
    fn dot_frag() -> impl Strategy<Value = Frag> {
        let at_end = prop_oneof![Just(None), (any::<bool>(), -1i32..=1).prop_map(Some)];
        (
            dot_regs(),
            (pointers(), at_end),
            passes(),
            0u8..32,
            0u8..3,
            prop_oneof![Just(0), Just(0), Just(0), 1u8..4],
        )
            .prop_map(|(regs, (mut ptrs, at_end), n, shamt, entry, miss)| {
                if let Some((on_x, past)) = at_end {
                    let at = (4096 - 4 * (2 * n - past)) as u32;
                    *(if on_x { &mut ptrs.1 } else { &mut ptrs.0 }) = at;
                }
                Frag::Dot {
                    regs,
                    ptrs,
                    n,
                    shamt,
                    entry,
                    miss,
                }
            })
    }

    fn frag() -> impl Strategy<Value = Frag> {
        prop_oneof![
            dot_frag(),
            (
                regs8(),
                pointers(),
                (prop_oneof![Just(4), Just(-4), Just(8)], Just(4)),
                any::<bool>()
            )
                .prop_map(|(regs, ptrs, offs, smlad)| Frag::LdrPair {
                    regs,
                    ptrs,
                    offs,
                    smlad,
                }),
            (
                (reg(), reg()),
                pointers(),
                (0u8..4, 0u8..4, 0u8..4, 0u8..4, 0u8..4)
            )
                .prop_map(|((a, b), ptrs, (s0, s1, s2, s3, s4))| Frag::VldrPair {
                    regs: [a, b],
                    ptrs,
                    sregs: [s0, s1, s2, s3, s4],
                }),
            (regs8(), 0u8..32).prop_map(|(regs, shamt)| Frag::MulAsrAdd { regs, shamt }),
            (reg(), passes(), 1i32..3, cond())
                .prop_map(|(reg, n, imm, cond)| { Frag::SubsLoop { reg, n, imm, cond } }),
        ]
    }

    fn emit(asm: &mut ThumbAsm, frag: &Frag) {
        let r = |i: u8| R::new(i);
        match *frag {
            Frag::Dot {
                regs,
                ptrs: (w, x),
                n,
                shamt,
                entry,
                miss,
            } => {
                let regs = regs.map(r);
                asm.li(R::R9, 0x40);
                asm.li(regs[0], w as i32);
                asm.li(regs[1], x as i32);
                asm.li(regs[5], n);
                let mid = asm.new_label();
                match entry {
                    1 => asm.ldr(LsWidth::W, R::R8, R::R9, 0),
                    2 => asm.b(mid),
                    _ => {}
                }
                let top = asm.here();
                let mut body = dot_loop_body(regs, shamt, 0);
                match miss {
                    1 => {
                        body[6] = ThumbInstr::Ldr {
                            width: LsWidth::W,
                            rt: regs[3],
                            rn: regs[1],
                            offset: 8,
                            mode: AddrMode::PostInc,
                        }
                    }
                    2 => {
                        body[10] = ThumbInstr::SubsImm {
                            rd: regs[5],
                            rn: regs[5],
                            imm: 2,
                        }
                    }
                    3 => body[4] = ThumbInstr::Nop,
                    _ => {}
                }
                for (i, instr) in body[..11].iter().enumerate() {
                    if i == 5 {
                        asm.bind(mid);
                    }
                    asm.emit(*instr);
                }
                asm.b_to(Cond::Ne, top);
            }
            Frag::LdrPair {
                regs,
                ptrs: (a, b),
                offs: (offa, offb),
                smlad,
            } => {
                let [ta, ra, tb, rb, rd, rn, rm, racc] = regs.map(r);
                asm.li(ra, a as i32);
                asm.li(rb, b as i32);
                asm.ldr_post(LsWidth::W, ta, ra, offa);
                asm.ldr_post(LsWidth::W, tb, rb, offb);
                if smlad {
                    asm.emit(ThumbInstr::Smlad {
                        rd,
                        rn,
                        rm,
                        ra: racc,
                    });
                }
            }
            Frag::VldrPair {
                regs: [ra, rb],
                ptrs: (a, b),
                sregs,
            } => {
                let [sa, sb, sd, sn, sm] = sregs.map(S::new);
                asm.li(r(ra), a as i32);
                asm.li(r(rb), b as i32);
                asm.vldr_post(sa, r(ra), 4);
                asm.vldr_post(sb, r(rb), 4);
                asm.emit(ThumbInstr::Vmla { sd, sn, sm });
            }
            Frag::MulAsrAdd { regs, shamt } => {
                let [rd, rn, rm, rd2, rm2, rd3, rn3, rm3] = regs.map(r);
                asm.mul(rd, rn, rm);
                asm.asr_imm(rd2, rm2, shamt.max(1));
                asm.dp(DpOp::Add, rd3, rn3, rm3);
            }
            Frag::SubsLoop { reg, n, imm, cond } => {
                asm.li(r(reg), n);
                let top = asm.here();
                asm.add_imm(R::R7, R::R7, 3);
                asm.subs(r(reg), r(reg), imm);
                asm.b_to(cond, top);
            }
        }
    }

    /// A cycle budget inside the first few loop passes, further in, or
    /// one the program finishes within (a wrapped count of loop passes
    /// stops when a pointer leaves RAM, or at the budget).
    fn budget() -> impl Strategy<Value = u64> {
        prop_oneof![1u64..300, 300u64..3000, Just(20_000)]
    }

    /// Runs `frags` then `bkpt` through [`compare`] over RAM filled from
    /// `seed`, under `max_cycles` or, with `back = Some(k)`, `k` cycles
    /// short of the whole run's cycles (around the last budget checks of
    /// the program's last loop).
    fn compare_frags(
        frags: &[Frag],
        max_cycles: u64,
        back: Option<u64>,
        seed: u32,
    ) -> (CortexM4, FusedStats) {
        let mut asm = ThumbAsm::new();
        for frag in frags {
            emit(&mut asm, frag);
        }
        asm.bkpt();
        let program = asm.finish().unwrap();
        let fill = |_: &mut CortexM4, ram: &mut Ram| {
            for i in 0..1024u32 {
                let v = (i ^ seed).wrapping_mul(0x9e37_79b9).rotate_left(i % 32);
                ram.write_bytes(4 * i, &v.to_le_bytes());
            }
        };
        let max_cycles = match back {
            Some(k) => {
                let mut ram = Ram::new(0, 4096);
                let mut cpu = CortexM4::new();
                fill(&mut cpu, &mut ram);
                let full = cpu.run(&program, &mut ram, &CortexM4Timing::default(), 20_000);
                full.map_or(max_cycles, |run| run.cycles).saturating_sub(k)
            }
            None => max_cycles,
        };
        compare(&program, max_cycles, fill)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn fused_runs_match_the_reference(
            frags in prop::collection::vec(frag(), 1..4),
            max_cycles in budget(),
            seed in any::<u32>(),
        ) {
            compare_frags(&frags, max_cycles, None, seed);
        }

        #[test]
        fn dot_rows_match_the_reference(
            row in dot_frag(),
            max_cycles in budget(),
            back in prop_oneof![Just(None), (0u64..24).prop_map(Some)],
            seed in any::<u32>(),
        ) {
            compare_frags(&[row], max_cycles, back, seed);
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
