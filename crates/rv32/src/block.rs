//! Per-PC op program with superinstruction fusion.
//!
//! The reference interpreter ([`Cpu::run`]) pays a fetch, a decode and a
//! full dispatch `match` per *dynamic* instruction. A [`Program`] moves
//! translation to once per *static* instruction: an array indexed by
//! `(pc - base) / 4` whose slot holds the
//! pre-resolved [`Op`] that starts at that PC — register indices and
//! immediates already extracted, every memory form specialised. Where the
//! instructions at a PC form one of the inner-loop idioms of the InfiniWolf
//! fixed-point kernels, the slot holds a *fused* superinstruction instead:
//!
//! * `mul` + `srai` + `add` — the fixed-point requantisation tail,
//! * `addi` + branch — the counter back-edge,
//! * two *loop ops*, each a whole inner loop of the fixed-point
//!   dot product: `p.lw` + `p.lw` + `mul` + `srai` + `add` as the complete
//!   body of a hardware loop (RI5CY), and `lw` + `lw` + `addi` + `addi` +
//!   `mul` + `srai` + `add` + `addi −1` + `bne` back to the op's own PC
//!   (Ibex), each over the kernel's own distinct non-zero registers
//!   (other register patterns run as single ops, their tails fused as
//!   above). The hardware-loop op iterates natively, following its own
//!   back edge, until the loop exits or a stop rule fires; the counted op
//!   runs a row whole or not at all.
//!
//! Every other instruction, the Q15 (`pv.sdotsp.h`, `p.mac`) and
//! streaming-load shapes included, runs as its single op.
//!
//! A loop op whose bus hands out both of the row's word streams at a fixed
//! cost per access ([`Bus::span`]: a flat memory, or a single core that
//! nothing arbitrates) runs the whole row as one loop over the two
//! borrowed slices ([`dot_row`]) and charges its cycles in closed form,
//! when the row's last budget and memory-gate checks pass; the cycle
//! count only grows, so no earlier check could stop it. Otherwise the
//! hardware-loop op steps through the row one access at a time, and the
//! counted op runs its first load alone, leaving the rest of the pass up
//! to the back edge to the body's own slots.
//!
//! Every PC owns its slot, so a core can resume anywhere — after a taken
//! branch, a hardware-loop back edge, a partial fused op or a scheduler
//! switch — with one index and no block lookup; instructions *inside* a
//! fusion site keep their own slots. The single op of a fusion site's
//! first instruction stays reachable through [`Op::head`], for callers
//! that need one instruction per dispatch (recorded runs of
//! [`Cpu::run_program`] and of the cluster's bursts).
//!
//! Translation is lazy and per run: slots are decoded from the bus on
//! first execution, and the array grows to the highest PC reached, so it
//! is sized by the program rather than by its window.
//!
//! Memory timing is resolved per access by the bus ([`Bus::load_timed`],
//! [`Bus::store_timed`]): a handler returns the op's total cost, memory
//! latency and arbitration stalls included, and nothing else.
//!
//! Correctness contract: every sub-instruction of every op has exactly
//! the semantics of the frozen reference interpreter, one at a time, so a
//! fault, cycle-limit stop, gate stop or hardware-loop redirect between
//! sub-instructions leaves architectural state (registers, memory, `pc`,
//! profile, retired count, hardware-loop counts) bit-identical to
//! [`Cpu::run`]. Fused ops retire each sub-instruction through
//! [`Cpu::retire`]. Loop ops commit the bookkeeping that `Cpu::retire`
//! would have accumulated (profile, retired count, loop count, `pc`) in
//! closed form once, at the end of a whole row or, stepping, when they
//! stop. They run natively only when their own loop is the only one that
//! can redirect inside their body; otherwise the RI5CY op runs as its two
//! `p.lw`s and the Ibex op as its first `lw` alone, and the next slots run
//! the rest. A store into the translated range drops every slot whose op
//! covers the stored word, fused and loop ops included, so the next
//! dispatch re-decodes it from memory. The differential property tests in
//! `tests/proptests.rs` enforce all of this, self-modifying code included.

use crate::bus::Bus;
use crate::cpu::{Cpu, CpuError, RunResult};
use crate::decode::{decode, DecodeError};
use crate::instr::{AluImmOp, AluOp, BranchCond, Instr, MemWidth, Reg, ShiftOp, SimdOp};
use crate::profile::InstrClass;
use crate::timing::Timing;
use iw_trace::{TraceSink, TrackId};

/// Operands of one `p.lw rd, imm(rs1!)` sub-instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PostLoad {
    rd: Reg,
    rs1: Reg,
    imm: i32,
}

/// One pre-resolved slot: a single instruction or a fused superinstruction
/// starting at the slot's PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lui {
        rd: Reg,
        imm: i32,
    },
    Addi {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Add {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Slli {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    Srli {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    Srai {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    Load {
        width: MemWidth,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Store {
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        imm: i32,
    },
    LoadPost {
        width: MemWidth,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    StorePost {
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        imm: i32,
    },
    Mac {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sdotsp {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Jal {
        rd: Reg,
        imm: i32,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Halt,
    IllegalXpulp,
    /// Any other non-memory instruction, through [`Cpu::execute`].
    Other(Instr),
    MulSraiAdd {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        rd2: Reg,
        rs1b: Reg,
        shamt: u8,
        rd3: Reg,
        rs1c: Reg,
        rs2c: Reg,
    },
    AddiBranch {
        rd: Reg,
        rs1: Reg,
        imm: i32,
        cond: BranchCond,
        rs1b: Reg,
        rs2b: Reg,
        offset: i32,
    },
    HwLoopDot(HwLoopDot),
    CountedDot(CountedDot),
}

/// `p.lw tw, 4(w!)`, `p.lw tx, 4(x!)`, `mul tw, tw, tx`,
/// `srai tw, tw, shamt`, `add acc, acc, tw` over `regs = [w, x, tw, tx,
/// acc]`, five distinct non-zero registers: the whole body of a hardware
/// loop (the RI5CY dot-product row), run as a whole row while the loop's
/// own back edge alone redirects inside the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HwLoopDot {
    regs: [Reg; 5],
    shamt: u8,
}

/// `lw tw, 0(w)`, `lw tx, 0(x)`, `addi w, w, 4`, `addi x, x, 4`,
/// `mul tw, tw, tx`, `srai tw, tw, shamt`, `add acc, acc, tw`,
/// `addi n, n, -1` and `bne n, zero` back to the op over `regs = [w, x,
/// tw, tx, acc, n]`, six distinct non-zero registers (the Ibex
/// dot-product row): a counted loop, run natively while the branch is
/// taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CountedDot {
    regs: [Reg; 6],
    shamt: u8,
}

/// Most instruction words one op covers: the counted loop op's nine.
const MAX_OP_WORDS: usize = 9;

// A slot stays at 16 bytes, loop ops included.
const _: () = assert!(core::mem::size_of::<Option<Op>>() == 16);

/// The op starting at one PC of a [`Program`]: a single pre-resolved
/// instruction or a fused superinstruction. Obtained from
/// [`Program::fetch`], executed by [`Program::exec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(Kind);

impl Op {
    /// Instructions the op covers (1 for a single instruction).
    fn width(&self) -> usize {
        match self.0 {
            Kind::CountedDot(_) => 9,
            Kind::HwLoopDot(_) => 5,
            Kind::MulSraiAdd { .. } => 3,
            Kind::AddiBranch { .. } => 2,
            _ => 1,
        }
    }

    /// `true` if the op's first instruction touches state shared with
    /// other cores: a data access or a halt (`ecall`/`ebreak`).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        matches!(
            self.0,
            Kind::Load { .. }
                | Kind::Store { .. }
                | Kind::LoadPost { .. }
                | Kind::StorePost { .. }
                | Kind::Halt
                | Kind::HwLoopDot(_)
                | Kind::CountedDot(_)
        )
    }

    /// `true` if the op is the hardware-loop dot-product loop op, whose
    /// body [`Program::dot_body`] describes.
    #[must_use]
    pub fn is_hwloop_dot(&self) -> bool {
        matches!(self.0, Kind::HwLoopDot(_))
    }

    /// The single op of the first instruction: `self` unless the op is a
    /// fused superinstruction.
    #[must_use]
    pub fn head(self) -> Op {
        Op(match self.0 {
            Kind::HwLoopDot(HwLoopDot {
                regs: [w, _, tw, ..],
                ..
            }) => Kind::LoadPost {
                width: MemWidth::W,
                rd: tw,
                rs1: w,
                imm: 4,
            },
            Kind::CountedDot(CountedDot {
                regs: [w, _, tw, ..],
                ..
            }) => Kind::Load {
                width: MemWidth::W,
                rd: tw,
                rs1: w,
                imm: 0,
            },
            Kind::MulSraiAdd { rd, rs1, rs2, .. } => Kind::Mul { rd, rs1, rs2 },
            Kind::AddiBranch { rd, rs1, imm, .. } => Kind::Addi { rd, rs1, imm },
            k => k,
        })
    }
}

/// Dispatch counters of a [`Program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Ops dispatched (single or fused).
    pub dispatches: u64,
    /// Instructions retired through those ops.
    pub instructions: u64,
    /// Slots translated, re-decodes after code stores included.
    pub translations: u64,
    /// Translated slots dropped because a store rewrote a word they
    /// cover; each is re-decoded from memory if executed again.
    pub redecodes: u64,
    /// `mul` + `srai` + `add` superinstructions executed.
    pub fused_mul_srai_add: u64,
    /// `addi` + branch superinstructions executed.
    pub fused_addi_branch: u64,
    /// Hardware-loop dot-product loop ops executed (loop entries).
    pub hwloop_dot_entries: u64,
    /// Whole body passes those loop ops ran natively.
    pub hwloop_dot_iterations: u64,
    /// Counted dot-product loop ops executed, whole rows and first loads
    /// run alone.
    pub counted_dot_entries: u64,
    /// Passes of the rows those loop ops ran whole.
    pub counted_dot_iterations: u64,
    /// Loop-op entries, of either kind, that ran their whole row as one
    /// pass over borrowed memory slices ([`Bus::span`]) with the row's
    /// cycles charged in closed form.
    pub whole_rows: u64,
}

impl ProgramStats {
    /// Total fused superinstructions executed, loop ops (one per loop
    /// entry) included.
    #[must_use]
    pub fn fused_total(&self) -> u64 {
        self.fused_mul_srai_add
            + self.fused_addi_branch
            + self.hwloop_dot_entries
            + self.counted_dot_entries
    }

    /// Mean instructions retired per dispatched op (1.0 with no
    /// dispatches).
    #[must_use]
    pub fn avg_burst(&self) -> f64 {
        if self.dispatches == 0 {
            1.0
        } else {
            self.instructions as f64 / self.dispatches as f64
        }
    }
}

/// Per-PC op program over one word-aligned code window.
///
/// # Examples
///
/// ```
/// use iw_rv32::{asm::Asm, Cpu, Program, Ram, Reg, Timing};
/// use iw_trace::{NoopSink, TrackId};
/// let mut asm = Asm::new(0);
/// asm.li(Reg::A0, 21);
/// asm.add(Reg::A0, Reg::A0, Reg::A0);
/// asm.ecall();
/// let mut ram = Ram::new(0, 64);
/// ram.write_bytes(0, &asm.assemble()?);
/// let mut prog = Program::new(0, 64, true);
/// let mut cpu = Cpu::new(0);
/// let track = TrackId::default();
/// let run = cpu.run_program(&mut ram, &Timing::riscy(), 1_000, &mut prog, &mut NoopSink, track)?;
/// assert_eq!(cpu.reg(Reg::A0), 42);
/// assert_eq!(prog.stats().instructions, run.instructions);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    xpulp: bool,
    /// Largest number of slots the window allows.
    max_slots: usize,
    slots: Vec<Option<Op>>,
    ex: ExecState,
}

/// The part of a [`Program`] its ops update while they run, apart from
/// the slots they execute from.
#[derive(Debug, Clone)]
struct ExecState {
    base: u32,
    /// Bytes past `base` a store must land below to possibly rewrite a
    /// translated op: the slots plus the `MAX_OP_WORDS - 1` words an op in
    /// the last slot may cover past it.
    span: u32,
    /// A store the running op made into that span, for the caller to
    /// apply once the op's slot is no longer borrowed.
    code_store: Option<(u32, MemWidth)>,
    stats: ProgramStats,
}

impl ExecState {
    #[inline(always)]
    fn note_store(&mut self, addr: u32, width: MemWidth) {
        if addr.wrapping_sub(self.base) < self.span {
            self.code_store = Some((addr, width));
        }
    }
}

impl Program {
    /// Largest window a program will cover, in bytes.
    pub const MAX_WINDOW: u32 = 4 << 20;

    /// Creates an empty program over `[base, base + len)` (word-rounded,
    /// capped at [`Program::MAX_WINDOW`]); nothing is allocated until
    /// slots are translated. PCs outside the window still execute,
    /// translated afresh at every dispatch. `xpulp` must match the
    /// executing hart: on a non-Xpulp hart, Xpulp instructions translate
    /// to an op that raises [`CpuError::IllegalXpulp`], as the reference
    /// would.
    #[must_use]
    pub fn new(base: u32, len: u32, xpulp: bool) -> Program {
        let base = base & !3;
        let len = len.min(Self::MAX_WINDOW).min(u32::MAX - base);
        Program {
            xpulp,
            max_slots: (len / 4) as usize,
            slots: Vec::new(),
            ex: ExecState {
                base,
                span: 0,
                code_store: None,
                stats: ProgramStats::default(),
            },
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    #[inline]
    pub fn stats(&self) -> ProgramStats {
        self.ex.stats
    }

    /// Slots allocated so far (the highest translated PC's index + 1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` before the first slot is translated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The body of the hardware-loop dot-product op that `cpu` stands in,
    /// for a scheduler that runs the body's sub-instructions itself and
    /// commits them with [`DotBody::retire`]. `Some` only at one of the
    /// body's dispatch points (the op itself, its second `p.lw`, its
    /// `mul`/`srai`/`add` tail), with those three slots translated, and
    /// while the hart's own hardware loop alone can redirect inside the
    /// body: the condition under which the op may run a whole row.
    #[must_use]
    pub fn dot_body(&self, cpu: &Cpu) -> Option<DotBody> {
        let slot = |pc: u32| self.slots.get(self.slot_of(pc)).copied().flatten();
        // At most one loop op's body holds `pc`: its five words cannot
        // overlap another's.
        let (start, op) = (0..3).find_map(|p| {
            let start = cpu.pc.wrapping_sub(4 * p);
            match slot(start) {
                Some(Op(Kind::HwLoopDot(op))) => Some((start, op)),
                _ => None,
            }
        })?;
        let second = slot(start.wrapping_add(4));
        let tail = slot(start.wrapping_add(8));
        if !matches!(second, Some(Op(Kind::LoadPost { .. })))
            || !matches!(tail, Some(Op(Kind::MulSraiAdd { .. })))
        {
            return None;
        }
        let hwloop = own_hwloop(cpu, start, start.wrapping_add(20))?;
        Some(DotBody {
            start,
            regs: op.regs,
            shamt: op.shamt,
            hwloop,
        })
    }

    /// Slot index of `pc`: a misaligned offset rotates its low bits to
    /// the top, past any slot count, so one compare covers both the
    /// window and alignment.
    #[inline(always)]
    fn slot_of(&self, pc: u32) -> usize {
        pc.wrapping_sub(self.ex.base).rotate_right(2) as usize
    }

    /// The op starting at `pc`, translating its slot on first use.
    ///
    /// # Errors
    ///
    /// The fetch or decode fault the reference interpreter would raise at
    /// `pc`. A failed translation leaves the program unchanged.
    #[inline(always)]
    pub fn fetch<B: Bus>(&mut self, bus: &mut B, pc: u32) -> Result<Op, CpuError> {
        if let Some(Some(op)) = self.slots.get(self.slot_of(pc)) {
            return Ok(*op);
        }
        self.fetch_slow(bus, pc)
    }

    #[cold]
    #[inline(never)]
    fn fetch_slow<B: Bus>(&mut self, bus: &mut B, pc: u32) -> Result<Op, CpuError> {
        let op = self.translate(bus, pc)?;
        let k = self.slot_of(pc);
        if k < self.max_slots {
            if k >= self.slots.len() {
                self.slots.resize(k + 1, None);
                self.ex.span = ((k + MAX_OP_WORDS) as u32).saturating_mul(4);
            }
            self.slots[k] = Some(op);
            self.ex.stats.translations += 1;
        }
        Ok(op)
    }

    fn translate<B: Bus>(&self, bus: &mut B, pc: u32) -> Result<Op, CpuError> {
        let first = fetch_decode(bus, pc)?;
        if !self.xpulp && first.is_xpulp() {
            return Ok(Op(Kind::IllegalXpulp));
        }
        // Only fusion heads pay for the look-ahead, as far as their longest
        // pattern reaches; a look-ahead word that does not fetch or decode
        // simply ends the window.
        let reach = match first {
            Instr::Load {
                width: MemWidth::W, ..
            } => MAX_OP_WORDS,
            Instr::LoadPost {
                width: MemWidth::W, ..
            } => 5,
            Instr::Alu { op: AluOp::Mul, .. }
            | Instr::AluImm {
                op: AluImmOp::Addi, ..
            } => 3,
            _ => 1,
        };
        let mut window = [first; MAX_OP_WORDS];
        let mut len = 1;
        while len < reach {
            match fetch_decode(bus, pc.wrapping_add(4 * len as u32)) {
                Ok(instr) => window[len] = instr,
                Err(_) => break,
            }
            len += 1;
        }
        Ok(fuse(self.xpulp, &window[..len]).unwrap_or_else(|| single(first)))
    }

    /// Drops every translated slot whose op covers a word that a store of
    /// `width` bytes at `addr` touched; the next dispatch re-decodes them
    /// from memory. Returns `true` if any slot was dropped.
    ///
    /// The full byte span is walked, so a misaligned store straddling a
    /// word boundary (reported on behalf of another agent — the CPU's own
    /// stores fault on misalignment) drops slots on both sides.
    pub fn invalidate_store(&mut self, addr: u32, width: MemWidth) -> bool {
        let first = addr & !3;
        let last = addr.wrapping_add(width.bytes() - 1) & !3;
        let mut any = self.invalidate_word(first);
        if last != first {
            any |= self.invalidate_word(last);
        }
        any
    }

    fn invalidate_word(&mut self, w: u32) -> bool {
        let off = w.wrapping_sub(self.ex.base);
        if off >= self.ex.span {
            return false;
        }
        // An op covers at most `MAX_OP_WORDS` words: the slots that can
        // cover word `j` start at `j - (MAX_OP_WORDS - 1) ..= j`.
        let j = (off / 4) as usize;
        let mut any = false;
        let first = j.saturating_sub(MAX_OP_WORDS - 1);
        for s in first..=j.min(self.slots.len().saturating_sub(1)) {
            if let Some(op) = self.slots[s] {
                if s + op.width() > j {
                    self.slots[s] = None;
                    self.ex.stats.redecodes += 1;
                    any = true;
                }
            }
        }
        any
    }

    /// Applies the code store the last op made, if any.
    #[inline(always)]
    fn settle(&mut self, res: Result<u64, CpuError>) -> Result<u64, CpuError> {
        if let Some((addr, width)) = self.ex.code_store.take() {
            self.invalidate_store(addr, width);
        }
        res
    }

    /// Executes the op starting at the hart's PC, translating its slot on
    /// first use, and returns its cost in cycles: base costs plus whatever
    /// the bus charges per access ([`Bus::load_timed`],
    /// [`Bus::store_timed`]).
    ///
    /// `at` is the issue time of the op's first instruction; each later
    /// access of a fused or loop op issues at `at` plus the cost retired
    /// before it. An op stops early — returning the cost so far, with
    /// every retired sub-instruction complete — before a sub-instruction
    /// once its cost exceeds `budget` (so the caller's cycle-limit check
    /// fires between sub-instructions, as the reference's would) and
    /// before a memory sub-instruction once its cost reaches `mem_room` (so
    /// no access issues at or past a multi-core scheduling horizon). A
    /// fused op also stops when a hardware-loop back edge redirects the PC
    /// mid-pattern; a loop op follows its own back edge (the hardware
    /// loop's, or its `bne`'s) and stops when the loop exits. A store into
    /// translated code drops the slots it rewrote before this returns.
    ///
    /// # Errors
    ///
    /// The fetch or decode fault of an untranslatable PC, or any fault a
    /// sub-instruction raises; sub-instructions retired before the fault
    /// remain retired, as in the reference path.
    #[inline(always)]
    pub fn step<B: Bus>(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut B,
        t: &Timing,
        at: u64,
        budget: u64,
        mem_room: u64,
    ) -> Result<u64, CpuError> {
        // Match on the slot in place: copying the op out first costs a
        // store-forwarding stall on every dispatch.
        let res = match self.slots.get(self.slot_of(cpu.pc)) {
            Some(Some(op)) => run(&op.0, &mut self.ex, cpu, bus, t, at, budget, mem_room),
            _ => {
                let op = self.fetch_slow(bus, cpu.pc)?;
                run(&op.0, &mut self.ex, cpu, bus, t, at, budget, mem_room)
            }
        };
        self.settle(res)
    }

    /// Executes `op`, which must be the op [`Program::fetch`] returned for
    /// the hart's current PC or that op's [`Op::head`]; see
    /// [`Program::step`] for the cost, the early stops and the errors.
    ///
    /// # Errors
    ///
    /// Any fault a sub-instruction raises.
    #[allow(clippy::too_many_arguments)]
    pub fn exec<B: Bus>(
        &mut self,
        op: Op,
        cpu: &mut Cpu,
        bus: &mut B,
        t: &Timing,
        at: u64,
        budget: u64,
        mem_room: u64,
    ) -> Result<u64, CpuError> {
        let res = run(&op.0, &mut self.ex, cpu, bus, t, at, budget, mem_room);
        self.settle(res)
    }
}

/// Executes one op and counts it.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run<B: Bus>(
    kind: &Kind,
    ex: &mut ExecState,
    cpu: &mut Cpu,
    bus: &mut B,
    t: &Timing,
    at: u64,
    budget: u64,
    mem_room: u64,
) -> Result<u64, CpuError> {
    ex.stats.dispatches += 1;
    let before = cpu.retired;
    let res = run_op(kind, ex, cpu, bus, t, at, budget, mem_room);
    ex.stats.instructions += cpu.retired - before;
    res
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_op<B: Bus>(
    kind: &Kind,
    ex: &mut ExecState,
    cpu: &mut Cpu,
    bus: &mut B,
    t: &Timing,
    at: u64,
    budget: u64,
    mem_room: u64,
) -> Result<u64, CpuError> {
    let pc = cpu.pc;
    let next = pc.wrapping_add(4);
    let alu = |cpu: &mut Cpu, rd: Reg, v: u32| -> Result<u64, CpuError> {
        cpu.set_reg(rd, v);
        cpu.retire(InstrClass::Alu, t.alu, next, true);
        Ok(u64::from(t.alu))
    };
    match *kind {
        Kind::Lui { rd, imm } => alu(cpu, rd, imm as u32),
        Kind::Addi { rd, rs1, imm } => alu(cpu, rd, cpu.reg(rs1).wrapping_add(imm as u32)),
        Kind::Add { rd, rs1, rs2 } => alu(cpu, rd, cpu.reg(rs1).wrapping_add(cpu.reg(rs2))),
        Kind::Sub { rd, rs1, rs2 } => alu(cpu, rd, cpu.reg(rs1).wrapping_sub(cpu.reg(rs2))),
        Kind::Slli { rd, rs1, shamt } => alu(cpu, rd, cpu.reg(rs1) << shamt),
        Kind::Srli { rd, rs1, shamt } => alu(cpu, rd, cpu.reg(rs1) >> shamt),
        Kind::Srai { rd, rs1, shamt } => alu(cpu, rd, ((cpu.reg(rs1) as i32) >> shamt) as u32),
        Kind::Mul { rd, rs1, rs2 } => {
            cpu.set_reg(rd, cpu.reg(rs1).wrapping_mul(cpu.reg(rs2)));
            cpu.retire(InstrClass::Mul, t.mul, next, true);
            Ok(u64::from(t.mul))
        }
        Kind::Load {
            width,
            rd,
            rs1,
            imm,
        } => {
            let addr = cpu.reg(rs1).wrapping_add(imm as u32);
            load_op(cpu, bus, width, rd, addr, t, at)
        }
        Kind::Store {
            width,
            rs2,
            rs1,
            imm,
        } => {
            let addr = cpu.reg(rs1).wrapping_add(imm as u32);
            let cost = store(bus, addr, width, cpu.reg(rs2), t, at, pc)?;
            cpu.retire(InstrClass::Store, t.store, next, true);
            ex.note_store(addr, width);
            Ok(cost)
        }
        Kind::LoadPost {
            width,
            rd,
            rs1,
            imm,
        } => {
            let addr = cpu.reg(rs1);
            let (v, cost) = load(bus, addr, width, t, at, pc)?;
            cpu.set_reg(rd, v);
            // Post-increment happens after the load; if rd == rs1 the
            // loaded value wins (as on RI5CY).
            if rd != rs1 {
                cpu.set_reg(rs1, addr.wrapping_add(imm as u32));
            }
            cpu.retire(InstrClass::Load, t.load, next, true);
            Ok(cost)
        }
        Kind::StorePost {
            width,
            rs2,
            rs1,
            imm,
        } => {
            let addr = cpu.reg(rs1);
            let cost = store(bus, addr, width, cpu.reg(rs2), t, at, pc)?;
            cpu.set_reg(rs1, addr.wrapping_add(imm as u32));
            cpu.retire(InstrClass::Store, t.store, next, true);
            ex.note_store(addr, width);
            Ok(cost)
        }
        Kind::Mac { rd, rs1, rs2 } => {
            let v = cpu
                .reg(rd)
                .wrapping_add(cpu.reg(rs1).wrapping_mul(cpu.reg(rs2)));
            cpu.set_reg(rd, v);
            cpu.retire(InstrClass::Dsp, t.xpulp, next, true);
            Ok(u64::from(t.xpulp))
        }
        Kind::Sdotsp { rd, rs1, rs2 } => {
            cpu.set_reg(rd, sdotsp(cpu.reg(rd), cpu.reg(rs1), cpu.reg(rs2)));
            cpu.retire(InstrClass::Simd, t.xpulp, next, true);
            Ok(u64::from(t.xpulp))
        }
        Kind::Branch {
            cond,
            rs1,
            rs2,
            imm,
        } => Ok(branch(cpu, t, pc, cond, rs1, rs2, imm)),
        Kind::Jal { rd, imm } => {
            cpu.set_reg(rd, next);
            cpu.retire(InstrClass::Jump, t.jump, pc.wrapping_add(imm as u32), false);
            Ok(u64::from(t.jump))
        }
        Kind::Jalr { rd, rs1, imm } => {
            let target = cpu.reg(rs1).wrapping_add(imm as u32) & !1;
            cpu.set_reg(rd, next);
            cpu.retire(InstrClass::Jump, t.jump, target, false);
            Ok(u64::from(t.jump))
        }
        Kind::Halt => {
            cpu.halted = true;
            cpu.retire(InstrClass::System, t.alu, pc, true);
            Ok(u64::from(t.alu))
        }
        Kind::IllegalXpulp => Err(CpuError::IllegalXpulp { pc }),
        Kind::Other(instr) => {
            let (cycles, mem) = cpu.execute(instr, pc, bus, t)?;
            debug_assert!(mem.is_none(), "memory forms have their own ops");
            Ok(u64::from(cycles))
        }
        // Fused ops: between sub-instructions, stop on the cycle budget
        // and on a hardware-loop redirect away from the next
        // sub-instruction. Neither accesses memory.
        Kind::MulSraiAdd {
            rd,
            rs1,
            rs2,
            rd2,
            rs1b,
            shamt,
            rd3,
            rs1c,
            rs2c,
        } => {
            ex.stats.fused_mul_srai_add += 1;
            cpu.set_reg(rd, cpu.reg(rs1).wrapping_mul(cpu.reg(rs2)));
            cpu.retire(InstrClass::Mul, t.mul, next, true);
            let mut c = u64::from(t.mul);
            if c > budget || cpu.pc != next {
                return Ok(c);
            }
            cpu.set_reg(rd2, ((cpu.reg(rs1b) as i32) >> shamt) as u32);
            cpu.retire(InstrClass::Alu, t.alu, pc.wrapping_add(8), true);
            c += u64::from(t.alu);
            if c > budget || cpu.pc != pc.wrapping_add(8) {
                return Ok(c);
            }
            cpu.set_reg(rd3, cpu.reg(rs1c).wrapping_add(cpu.reg(rs2c)));
            cpu.retire(InstrClass::Alu, t.alu, pc.wrapping_add(12), true);
            Ok(c + u64::from(t.alu))
        }
        Kind::AddiBranch {
            rd,
            rs1,
            imm,
            cond,
            rs1b,
            rs2b,
            offset,
        } => {
            ex.stats.fused_addi_branch += 1;
            cpu.set_reg(rd, cpu.reg(rs1).wrapping_add(imm as u32));
            cpu.retire(InstrClass::Alu, t.alu, next, true);
            let c = u64::from(t.alu);
            if c > budget || cpu.pc != next {
                return Ok(c);
            }
            Ok(c + branch(cpu, t, next, cond, rs1b, rs2b, offset))
        }
        Kind::HwLoopDot(op) => op.run(ex, cpu, bus, t, at, budget, mem_room),
        Kind::CountedDot(op) => op.run(ex, cpu, bus, t, at, budget, mem_room),
    }
}

/// The hardware loop whose body is exactly `[start, end)` and through
/// which alone every retire in that body would redirect ([`Cpu::retire`]
/// checks the loops in index order, first match wins): it is the first
/// active loop ending in `(start, end]`, and every active loop that ends
/// there ends at `end`.
#[inline(always)]
fn own_hwloop(cpu: &Cpu, start: u32, end: u32) -> Option<usize> {
    let mut own = None;
    for (l, hl) in cpu.hwloops.iter().enumerate() {
        let inside = hl.end.wrapping_sub(start).wrapping_sub(1) < end.wrapping_sub(start);
        if hl.count == 0 || !inside {
            continue;
        }
        if hl.end != end || (own.is_none() && hl.start != start) {
            return None;
        }
        own.get_or_insert(l);
    }
    own
}

/// `true` if an active hardware loop ends in `[start, start + len]`,
/// where a retire of the counted loop op could be redirected.
#[inline(always)]
fn hwloop_ends_in(cpu: &Cpu, start: u32, len: u32) -> bool {
    cpu.hwloops
        .iter()
        .any(|hl| hl.count > 0 && hl.end.wrapping_sub(start) <= len)
}

/// Commits what [`Cpu::retire`] would have accumulated over `iters` whole
/// passes through a loop op's `body` (class and base cost per
/// sub-instruction) plus the first `r` sub-instructions of the next: the
/// profile and the retired count. The caller sets `pc` and loop counts.
fn retire_passes(cpu: &mut Cpu, body: &[(InstrClass, u32)], iters: u64, r: u32) {
    for (k, &(class, cycles)) in body.iter().enumerate() {
        cpu.profile
            .record_n(class, iters + u64::from(k < r as usize), cycles);
    }
    cpu.retired += iters * body.len() as u64 + u64::from(r);
}

impl Cpu {
    /// Runs until the core halts, dispatching the ops of `prog`.
    ///
    /// Architectural results — registers, memory, `pc`, cycle and
    /// instruction counts, the execution profile and any error — are
    /// bit-identical to [`Cpu::run`]: every sub-instruction retires
    /// individually, the cycle limit is re-checked between
    /// sub-instructions, and stores into translated code drop the slots
    /// they rewrite. Cycle costs are the bus's ([`Bus::load_timed`],
    /// [`Bus::store_timed`]); with the default bus timing they are the
    /// base costs [`Cpu::run`] charges.
    ///
    /// With [`NoopSink`](iw_trace::NoopSink) (`S::ENABLED == false`)
    /// every emission site folds away and this is the fused hot loop.
    /// With a recording sink each dispatch runs only the head instruction
    /// of its op ([`Op::head`]), so every retired instruction is sampled,
    /// and it emits on `track`:
    ///
    /// * one `exec-batch` span per uninterrupted stretch of translated
    ///   execution (batches end at stores that dropped translated slots,
    ///   flagged by a `decode-invalidate` instant),
    /// * one PC sample per retired instruction, feeding the hotspot
    ///   histogram and the symbolized region timeline.
    ///
    /// Results are the same under either sink.
    ///
    /// # Errors
    ///
    /// Same as [`Cpu::run`].
    pub fn run_program<B: Bus, S: TraceSink>(
        &mut self,
        bus: &mut B,
        timing: &Timing,
        max_cycles: u64,
        prog: &mut Program,
        sink: &mut S,
        track: TrackId,
    ) -> Result<RunResult, CpuError> {
        let start = self.retired;
        let mut cycles = 0u64;
        let mut batch_start = 0u64;
        while !self.halted {
            let budget = max_cycles - cycles;
            let cost = if S::ENABLED {
                let (pc, redecodes) = (self.pc, prog.ex.stats.redecodes);
                let op = prog.fetch(bus, pc)?.head();
                let cost = prog.exec(op, self, bus, timing, cycles, budget, u64::MAX)?;
                if prog.ex.stats.redecodes != redecodes {
                    let end = cycles + cost;
                    sink.span(track, "exec-batch", batch_start, end);
                    sink.instant(track, "decode-invalidate", end);
                    batch_start = end;
                }
                sink.pc_sample(track, pc, cycles, cost as u32);
                cost
            } else {
                prog.step(self, bus, timing, cycles, budget, u64::MAX)?
            };
            cycles += cost;
            if cycles > max_cycles {
                return Err(CpuError::CycleLimit { limit: max_cycles });
            }
        }
        if S::ENABLED && cycles > batch_start {
            sink.span(track, "exec-batch", batch_start, cycles);
        }
        Ok(RunResult {
            cycles,
            instructions: self.retired - start,
        })
    }
}

// ---------------------------------------------------------------------
// Loop ops. A row that no stop can end (both streams in fixed-cost
// spans, no other hardware loop ending in the body, the row's last budget
// and memory-gate checks passing: the cycle count only grows, so no
// earlier check could stop it) runs whole, over the spans, and commits
// the registers and the bookkeeping once, in closed form.
//
// Any other row: the op runs its first load alone, as the single `p.lw`
// or `lw`; the body's own slots step the row, and the op decides again at
// the next pass's head. On the 8-core cluster's arbitrating bus, which
// hands out no spans, every entry runs its first load alone; the
// cluster's scheduler runs the lockstep rows itself ([`DotBody`]).
// ---------------------------------------------------------------------

impl HwLoopDot {
    /// Runs the op: the whole row at once when no stop could end it
    /// ([`HwLoopDot::whole_row`]), else its first load alone, as the
    /// single `p.lw`; the body's own slots then step the pass, and the op
    /// decides again at the next pass's head.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run<B: Bus>(
        self,
        ex: &mut ExecState,
        cpu: &mut Cpu,
        bus: &mut B,
        t: &Timing,
        at: u64,
        budget: u64,
        mem_room: u64,
    ) -> Result<u64, CpuError> {
        ex.stats.hwloop_dot_entries += 1;
        if let Some(c) = self.whole_row(ex, cpu, bus, t, budget, mem_room) {
            return Ok(c);
        }
        // `p.lw tw, 4(w!)`: the op's registers are distinct.
        let [w, _, tw, ..] = self.regs;
        let (pc, addr) = (cpu.pc, cpu.reg(w));
        let (v, c) = load(bus, addr, MemWidth::W, t, at, pc)?;
        cpu.set_reg(tw, v);
        cpu.set_reg(w, addr.wrapping_add(4));
        cpu.retire(InstrClass::Load, t.load, pc.wrapping_add(4), true);
        Ok(c)
    }

    /// Runs the whole row over the two spans ([`row_spans`]) and commits
    /// it in closed form, returning its cost: `Some` when the op's own
    /// hardware loop alone can redirect inside the body, and the row's
    /// last budget check (at the last pass's `srai`; the exiting `add` is
    /// the caller's) and its last memory-gate check (before the last
    /// pass's second load) pass. The cycle count only grows, so no
    /// earlier check could stop the row.
    #[inline(never)]
    fn whole_row<B: Bus>(
        self,
        ex: &mut ExecState,
        cpu: &mut Cpu,
        bus: &B,
        t: &Timing,
        budget: u64,
        mem_room: u64,
    ) -> Option<u64> {
        let pc = cpu.pc;
        let l = own_hwloop(cpu, pc, pc.wrapping_add(20))?;
        let n = u64::from(cpu.hwloops[l].count);
        let [w, x, _, _, acc] = self.regs.map(|r| cpu.reg(r));
        let [(ws, kw), (xs, kx)] = row_spans(bus, w, x, n, t.load)?;
        // A pass costs its first load, then `pass`; the next pass's first
        // load comes between passes.
        let pass = u64::from(kx) + u64::from(t.mul) + 2 * u64::from(t.alu);
        let end = row_cycles(u64::from(kw), n, pass, u64::from(kw))?;
        if end - u64::from(t.alu) > budget || end - pass >= mem_room {
            return None;
        }
        let (acc, tw, tx) = dot_row(ws, xs, self.shamt, acc);
        let step = 4 * n as u32;
        for (reg, v) in
            self.regs
                .into_iter()
                .zip([w.wrapping_add(step), x.wrapping_add(step), tw, tx, acc])
        {
            cpu.set_reg(reg, v);
        }
        retire_passes(cpu, &hwloop_dot_body(t), n, 0);
        // Each pass retired through the loop's end: a back edge while
        // passes remained, the exit on the last one.
        cpu.hwloops[l].count = 0;
        cpu.pc = pc.wrapping_add(20);
        ex.stats.hwloop_dot_iterations += n;
        ex.stats.whole_rows += 1;
        Some(end)
    }
}

/// Class and base cost of each sub-instruction of the hardware-loop
/// dot-product body.
fn hwloop_dot_body(t: &Timing) -> [(InstrClass, u32); 5] {
    [
        (InstrClass::Load, t.load),
        (InstrClass::Load, t.load),
        (InstrClass::Mul, t.mul),
        (InstrClass::Alu, t.alu),
        (InstrClass::Alu, t.alu),
    ]
}

/// Where a hart runs the body of a hardware-loop dot-product op
/// ([`Program::dot_body`]): the five sub-instructions `p.lw tw, 4(w!)`,
/// `p.lw tx, 4(x!)`, `mul tw, tw, tx`, `srai tw, tw, shamt` and
/// `add acc, acc, tw` at `start .. start + 20`, closed by the hart's
/// hardware loop `hwloop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotBody {
    /// PC of the op, the body's first instruction.
    pub start: u32,
    /// The op's registers `[w, x, tw, tx, acc]`, distinct and non-zero.
    pub regs: [Reg; 5],
    /// The `srai` shift amount.
    pub shamt: u8,
    /// Index of the hardware loop whose back edge closes the body.
    pub hwloop: usize,
}

impl DotBody {
    /// Commits `k` body sub-instructions that `cpu` retired in program
    /// order from its current PC, none of them the loop's exit (the `add`
    /// of the last pass), leaving `vals` in `[w, x, tw, tx, acc]`: the
    /// registers plus what retiring them one at a time would have
    /// accumulated (profile, retired count, hardware-loop count, `pc`),
    /// in closed form.
    pub fn retire(&self, cpu: &mut Cpu, vals: [u32; 5], k: u64, t: &Timing) {
        for (reg, v) in self.regs.into_iter().zip(vals) {
            cpu.set_reg(reg, v);
        }
        let p0 = u64::from(cpu.pc.wrapping_sub(self.start) / 4);
        debug_assert!(p0 < 5, "pc {:#x} outside the body", cpu.pc);
        for (j, (class, cycles)) in hwloop_dot_body(t).into_iter().enumerate() {
            // Positions `p0 + d + 5m` below `p0 + k` hold sub-instruction
            // `j`, where `d` is `j`'s distance past `p0`.
            let d = (j as u64 + 5 - p0) % 5;
            cpu.profile.record_n(class, (k + 4 - d) / 5, cycles);
        }
        cpu.retired += k;
        // Every whole pass retired through a back edge.
        let (s, hl) = (p0 + k, &mut cpu.hwloops[self.hwloop]);
        debug_assert!(
            s / 5 < u64::from(hl.count),
            "the exit is not committed here"
        );
        hl.count -= (s / 5) as u32;
        cpu.pc = self.start.wrapping_add(4 * (s % 5) as u32);
    }
}

impl CountedDot {
    /// Runs the op: the whole row at once when no stop could end it
    /// ([`CountedDot::whole_row`]), else its first load alone, as the
    /// single `lw`; the body's own slots then step the row, and the op
    /// decides again at the back edge.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run<B: Bus>(
        self,
        ex: &mut ExecState,
        cpu: &mut Cpu,
        bus: &mut B,
        t: &Timing,
        at: u64,
        budget: u64,
        mem_room: u64,
    ) -> Result<u64, CpuError> {
        ex.stats.counted_dot_entries += 1;
        if let Some(c) = self.whole_row(ex, cpu, bus, t, budget, mem_room) {
            return Ok(c);
        }
        let [w, _, tw, ..] = self.regs;
        load_op(cpu, bus, MemWidth::W, tw, cpu.reg(w), t, at)
    }

    /// Runs the whole row over the two spans ([`row_spans`]) and commits
    /// it in closed form, returning its cost: `Some` when no active
    /// hardware loop ends in the body, where it could redirect a retire,
    /// and the row's last budget check (at the last pass's `addi n`; the
    /// exit `bne` is the caller's) and its last memory-gate check (before
    /// the last pass's second load) pass. The cycle count only grows, so
    /// no earlier check could stop the row.
    #[inline(never)]
    fn whole_row<B: Bus>(
        self,
        ex: &mut ExecState,
        cpu: &mut Cpu,
        bus: &B,
        t: &Timing,
        budget: u64,
        mem_room: u64,
    ) -> Option<u64> {
        let pc = cpu.pc;
        if hwloop_ends_in(cpu, pc, 36) {
            return None;
        }
        let [w, x, _, _, acc, n] = self.regs.map(|r| cpu.reg(r));
        let [(ws, kw), (xs, kx)] = row_spans(bus, w, x, u64::from(n), t.load)?;
        // A pass costs its first load, then `pass` through its `addi n`;
        // the taken `bne` and the next pass's first load come between
        // passes.
        let pass = u64::from(kx) + 5 * u64::from(t.alu) + u64::from(t.mul);
        let gap = u64::from(t.branch_taken) + u64::from(kw);
        let end = row_cycles(u64::from(kw), u64::from(n), pass, gap)?;
        if end > budget || end - pass >= mem_room {
            return None;
        }
        let (acc, tw, tx) = dot_row(ws, xs, self.shamt, acc);
        let step = 4 * n;
        for (reg, v) in
            self.regs
                .into_iter()
                .zip([w.wrapping_add(step), x.wrapping_add(step), tw, tx, acc, 0])
        {
            cpu.set_reg(reg, v);
        }
        let body = [
            (InstrClass::Load, t.load),
            (InstrClass::Load, t.load),
            (InstrClass::Alu, t.alu),
            (InstrClass::Alu, t.alu),
            (InstrClass::Mul, t.mul),
            (InstrClass::Alu, t.alu),
            (InstrClass::Alu, t.alu),
            (InstrClass::Alu, t.alu),
        ];
        let n = u64::from(n);
        retire_passes(cpu, &body, n, 0);
        // The `bne` closing each pass: taken but on the exit.
        cpu.profile
            .record_n(InstrClass::BranchTaken, n - 1, t.branch_taken);
        cpu.profile
            .record(InstrClass::BranchNotTaken, t.branch_not_taken);
        cpu.retired += n;
        cpu.pc = pc.wrapping_add(36);
        ex.stats.counted_dot_iterations += n;
        ex.stats.whole_rows += 1;
        Some(end + u64::from(t.branch_not_taken))
    }
}

/// The word streams at `w` and `x` of a whole row of `n` passes, one word
/// of each per pass, each with the cost its loads charge: `Some` when `n`
/// is at least 1 and below 2^28, both pointers are word-aligned and the
/// bus hands out both spans at a fixed cost ([`Bus::span`]), so no load
/// of the row can fault or stall.
#[inline(always)]
fn row_spans<B: Bus>(bus: &B, w: u32, x: u32, n: u64, base: u32) -> Option<[(&[u8], u32); 2]> {
    if n == 0 || n >= 1 << 28 || !(w | x).is_multiple_of(4) {
        return None;
    }
    let len = 4 * n as u32;
    Some([bus.span(w, len, base)?, bus.span(x, len, base)?])
}

/// `c0 + n * pass + (n - 1) * gap`: the cycles of `n ≥ 1` passes of
/// `pass` cycles each, `gap` cycles apart, after `c0`; `None` past
/// `u64::MAX`.
#[inline(always)]
fn row_cycles(c0: u64, n: u64, pass: u64, gap: u64) -> Option<u64> {
    n.checked_mul(pass)?
        .checked_add((n - 1).checked_mul(gap)?)?
        .checked_add(c0)
}

/// The fixed-point dot product both ISSs' loop ops run over a whole row:
/// for each pair of little-endian words of `ws` and `xs`, `tw = w * x`
/// (wrapping), `tw = tw >> shamt` (arithmetic) and `acc += tw`
/// (wrapping). Returns the final `acc` and the last pair's `tw` and `x`
/// (`tx`); with no words, `acc` and zeros.
#[must_use]
#[inline]
pub fn dot_row(ws: &[u8], xs: &[u8], shamt: u8, acc: u32) -> (u32, u32, u32) {
    let term = |w: &[u8; 4], x: &[u8; 4]| {
        let p = u32::from_le_bytes(*w).wrapping_mul(u32::from_le_bytes(*x));
        ((p as i32) >> shamt) as u32
    };
    let (ws, xs) = (ws.as_chunks::<4>().0, xs.as_chunks::<4>().0);
    let acc = ws
        .iter()
        .zip(xs)
        .fold(acc, |acc, (w, x)| acc.wrapping_add(term(w, x)));
    match ws.iter().zip(xs).next_back() {
        Some((w, x)) => (acc, term(w, x), u32::from_le_bytes(*x)),
        None => (acc, 0, 0),
    }
}

/// `true` if no two of `regs` are the same and none is `x0`.
fn distinct_nonzero(regs: &[Reg]) -> bool {
    regs.iter()
        .enumerate()
        .all(|(i, r)| *r != Reg::ZERO && !regs[..i].contains(r))
}

/// `(acc, shamt)` if `tail` is the loop ops' requantisation over their
/// loads' `tw` and `tx`: `mul tw, tw, tx`, `srai tw, tw, shamt`,
/// `add acc, acc, tw`.
fn dot_tail(tail: Option<Op>, tw: Reg, tx: Reg) -> Option<(Reg, u8)> {
    match tail?.0 {
        Kind::MulSraiAdd {
            rd,
            rs1,
            rs2,
            rd2,
            rs1b,
            shamt,
            rd3,
            rs1c,
            rs2c,
        } if (rd, rs1, rs2, rd2, rs1b, rs1c, rs2c) == (tw, tw, tx, tw, tw, rd3, tw) => {
            Some((rd3, shamt))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Translation.
// ---------------------------------------------------------------------

fn fetch_decode<B: Bus>(bus: &mut B, pc: u32) -> Result<Instr, CpuError> {
    let word = bus.fetch(pc)?;
    decode(word).map_err(|e| {
        CpuError::Decode(DecodeError {
            addr: Some(pc),
            ..e
        })
    })
}

/// The fused or loop op for the pattern at the start of `w`, the
/// decoded words from the op's PC on, if any.
fn fuse(xpulp: bool, w: &[Instr]) -> Option<Op> {
    let post_load = |i: Option<&Instr>| match i {
        Some(&Instr::LoadPost {
            width: MemWidth::W,
            rd,
            rs1,
            offset,
        }) if xpulp => Some(PostLoad {
            rd,
            rs1,
            imm: offset,
        }),
        _ => None,
    };
    // `mul` + `srai` + `add`: the requantisation tail, also of both loop
    // shapes.
    let tail = |w: &[Instr]| match *w {
        [Instr::Alu {
            op: AluOp::Mul,
            rd,
            rs1,
            rs2,
        }, Instr::Shift {
            op: ShiftOp::Srai,
            rd: rd2,
            rs1: rs1b,
            shamt,
        }, Instr::Alu {
            op: AluOp::Add,
            rd: rd3,
            rs1: rs1c,
            rs2: rs2c,
        }, ..] => Some(Op(Kind::MulSraiAdd {
            rd,
            rs1,
            rs2,
            rd2,
            rs1b,
            shamt,
            rd3,
            rs1c,
            rs2c,
        })),
        _ => None,
    };
    let addi = |rd: Reg, imm: i32| Instr::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1: rd,
        imm,
    };

    if let (Some(a), Some(b)) = (post_load(w.first()), post_load(w.get(1))) {
        let dot = dot_tail(w.get(2..).and_then(tail), a.rd, b.rd);
        if let (4, 4, Some((acc, shamt))) = (a.imm, b.imm, dot) {
            let regs = [a.rs1, b.rs1, a.rd, b.rd, acc];
            if distinct_nonzero(&regs) {
                return Some(Op(Kind::HwLoopDot(HwLoopDot { regs, shamt })));
            }
        }
    }
    if let [Instr::Load {
        width: MemWidth::W,
        rd: tw,
        rs1: wp,
        offset: 0,
    }, Instr::Load {
        width: MemWidth::W,
        rd: tx,
        rs1: xp,
        offset: 0,
    }, inc_a, inc_b, ref body @ .., dec, Instr::Branch {
        cond: BranchCond::Ne,
        rs1: n,
        rs2: Reg::ZERO,
        offset: -32,
    }] = *w
    {
        if let Some((acc, shamt)) = dot_tail(tail(body), tw, tx) {
            let regs = [wp, xp, tw, tx, acc, n];
            if [inc_a, inc_b, dec] == [addi(wp, 4), addi(xp, 4), addi(n, -1)]
                && distinct_nonzero(&regs)
            {
                return Some(Op(Kind::CountedDot(CountedDot { regs, shamt })));
            }
        }
    }
    if let Some(op) = tail(w) {
        return Some(op);
    }
    match *w {
        [Instr::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }, Instr::Branch {
            cond,
            rs1: rs1b,
            rs2: rs2b,
            offset,
        }, ..] => Some(Op(Kind::AddiBranch {
            rd,
            rs1,
            imm,
            cond,
            rs1b,
            rs2b,
            offset,
        })),
        _ => None,
    }
}

/// The single op of `instr` (already checked against the hart's ISA).
fn single(instr: Instr) -> Op {
    Op(match instr {
        Instr::Lui { rd, imm } => Kind::Lui { rd, imm },
        Instr::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        } => Kind::Addi { rd, rs1, imm },
        Instr::Alu { op, rd, rs1, rs2 } if matches!(op, AluOp::Add | AluOp::Sub | AluOp::Mul) => {
            match op {
                AluOp::Add => Kind::Add { rd, rs1, rs2 },
                AluOp::Sub => Kind::Sub { rd, rs1, rs2 },
                _ => Kind::Mul { rd, rs1, rs2 },
            }
        }
        Instr::Shift { op, rd, rs1, shamt } => match op {
            ShiftOp::Slli => Kind::Slli { rd, rs1, shamt },
            ShiftOp::Srli => Kind::Srli { rd, rs1, shamt },
            ShiftOp::Srai => Kind::Srai { rd, rs1, shamt },
        },
        Instr::Load {
            width,
            rd,
            rs1,
            offset,
        } => Kind::Load {
            width,
            rd,
            rs1,
            imm: offset,
        },
        Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        } => Kind::Store {
            width,
            rs2,
            rs1,
            imm: offset,
        },
        Instr::LoadPost {
            width,
            rd,
            rs1,
            offset,
        } => Kind::LoadPost {
            width,
            rd,
            rs1,
            imm: offset,
        },
        Instr::StorePost {
            width,
            rs2,
            rs1,
            offset,
        } => Kind::StorePost {
            width,
            rs2,
            rs1,
            imm: offset,
        },
        Instr::Mac { rd, rs1, rs2 } => Kind::Mac { rd, rs1, rs2 },
        Instr::Simd {
            op: SimdOp::SdotspH,
            rd,
            rs1,
            rs2,
        } => Kind::Sdotsp { rd, rs1, rs2 },
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => Kind::Branch {
            cond,
            rs1,
            rs2,
            imm: offset,
        },
        Instr::Jal { rd, offset } => Kind::Jal { rd, imm: offset },
        Instr::Jalr { rd, rs1, offset } => Kind::Jalr {
            rd,
            rs1,
            imm: offset,
        },
        Instr::Ecall | Instr::Ebreak => Kind::Halt,
        other => Kind::Other(other),
    })
}

// ---------------------------------------------------------------------
// Sub-instruction helpers. Each performs the exact architectural effects
// of the reference interpreter.
// ---------------------------------------------------------------------

#[inline]
fn sdotsp(acc: u32, a: u32, b: u32) -> u32 {
    let (a0, a1) = (a as u16 as i16, (a >> 16) as u16 as i16);
    let (b0, b1) = (b as u16 as i16, (b >> 16) as u16 as i16);
    acc.wrapping_add(
        (i32::from(a0) * i32::from(b0)).wrapping_add(i32::from(a1) * i32::from(b1)) as u32,
    )
}

#[inline]
fn branch_taken(cond: BranchCond, a: u32, b: u32) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i32) < (b as i32),
        BranchCond::Ge => (a as i32) >= (b as i32),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

/// Executes and retires the conditional branch at `pc`; returns its cost.
#[inline(always)]
fn branch(
    cpu: &mut Cpu,
    t: &Timing,
    pc: u32,
    cond: BranchCond,
    rs1: Reg,
    rs2: Reg,
    imm: i32,
) -> u64 {
    if branch_taken(cond, cpu.reg(rs1), cpu.reg(rs2)) {
        let target = pc.wrapping_add(imm as u32);
        cpu.retire(InstrClass::BranchTaken, t.branch_taken, target, true);
        u64::from(t.branch_taken)
    } else {
        let next = pc.wrapping_add(4);
        cpu.retire(InstrClass::BranchNotTaken, t.branch_not_taken, next, true);
        u64::from(t.branch_not_taken)
    }
}

/// A plain load of `width` at `addr` into `rd`, retired as the single op
/// at the hart's PC.
#[inline(always)]
fn load_op<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    width: MemWidth,
    rd: Reg,
    addr: u32,
    t: &Timing,
    at: u64,
) -> Result<u64, CpuError> {
    let pc = cpu.pc;
    let (v, cost) = load(bus, addr, width, t, at, pc)?;
    cpu.set_reg(rd, v);
    cpu.retire(InstrClass::Load, t.load, pc.wrapping_add(4), true);
    Ok(cost)
}

/// Aligned, timed, sign-extending data load of the instruction at `pc`.
#[inline(always)]
fn load<B: Bus>(
    bus: &mut B,
    addr: u32,
    width: MemWidth,
    t: &Timing,
    at: u64,
    pc: u32,
) -> Result<(u32, u64), CpuError> {
    if !addr.is_multiple_of(width.bytes()) {
        return Err(CpuError::Misaligned { addr, pc });
    }
    let (raw, cost) = bus.load_timed(addr, width, t.load, at)?;
    let v = match width {
        MemWidth::B => raw as u8 as i8 as i32 as u32,
        MemWidth::H => raw as u16 as i16 as i32 as u32,
        MemWidth::W | MemWidth::Bu | MemWidth::Hu => raw,
    };
    Ok((v, u64::from(cost)))
}

/// Aligned, timed data store of the instruction at `pc`.
#[inline(always)]
fn store<B: Bus>(
    bus: &mut B,
    addr: u32,
    width: MemWidth,
    value: u32,
    t: &Timing,
    at: u64,
    pc: u32,
) -> Result<u64, CpuError> {
    if !addr.is_multiple_of(width.bytes()) {
        return Err(CpuError::Misaligned { addr, pc });
    }
    Ok(u64::from(bus.store_timed(addr, width, value, t.store, at)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::bus::Ram;
    use crate::instr::LoopIdx;
    use iw_trace::NoopSink;

    fn outcome(cpu: &Cpu, res: &Result<RunResult, CpuError>) -> impl PartialEq + core::fmt::Debug {
        (
            *res,
            cpu.pc(),
            cpu.is_halted(),
            cpu.retired(),
            *cpu.profile(),
            (0..32).map(|i| cpu.reg(Reg::new(i))).collect::<Vec<_>>(),
        )
    }

    fn compare_against_reference(asm: &Asm, max_cycles: u64, xpulp: bool) {
        let image = asm.assemble().unwrap();
        let timing = if xpulp {
            Timing::riscy()
        } else {
            Timing::ibex()
        };
        let new_cpu = |pc| {
            if xpulp {
                Cpu::new(pc)
            } else {
                Cpu::new_rv32im(pc)
            }
        };

        let mut ram_a = Ram::new(0, 4096);
        ram_a.write_bytes(0, &image);
        let mut ref_cpu = new_cpu(0);
        let ref_res = ref_cpu.run(&mut ram_a, &timing, max_cycles);

        let mut ram_b = Ram::new(0, 4096);
        ram_b.write_bytes(0, &image);
        let mut cpu = new_cpu(0);
        let mut prog = Program::new(0, 4096, xpulp);
        let res = cpu.run_program(
            &mut ram_b,
            &timing,
            max_cycles,
            &mut prog,
            &mut NoopSink,
            TrackId::default(),
        );
        assert_eq!(outcome(&cpu, &res), outcome(&ref_cpu, &ref_res));
        assert_eq!(ram_b.read_bytes(0, 4096), ram_a.read_bytes(0, 4096));
    }

    fn dot_kernel() -> Asm {
        // The Q15 inner loop shape: hardware loop around
        // p.lw / p.lw / pv.sdotsp.h, then a fixed-point requantize tail.
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 0x200); // w cursor
        asm.li(Reg::A1, 0x300); // x cursor
        asm.li(Reg::A2, 0); // acc
        asm.li(Reg::T0, 8); // count
        let end = asm.new_label();
        asm.lp_setup_to(LoopIdx::L0, Reg::T0, end);
        asm.load_post(MemWidth::W, Reg::A3, Reg::A0, 4);
        asm.load_post(MemWidth::W, Reg::A4, Reg::A1, 4);
        asm.simd(SimdOp::SdotspH, Reg::A2, Reg::A3, Reg::A4);
        asm.bind(end);
        asm.li(Reg::A5, 3);
        asm.alu(AluOp::Mul, Reg::A6, Reg::A2, Reg::A5);
        asm.shift(ShiftOp::Srai, Reg::A6, Reg::A6, 7);
        asm.alu(AluOp::Add, Reg::A7, Reg::A6, Reg::A5);
        asm.ecall();
        asm
    }

    fn fill_data(ram: &mut Ram) {
        for i in 0..32u32 {
            ram.write_bytes(0x200 + 4 * i, &(0x0001_0002u32 + i).to_le_bytes());
            ram.write_bytes(0x300 + 4 * i, &(0x0003_0001u32 + i).to_le_bytes());
        }
    }

    #[test]
    fn dot_kernel_matches_reference_and_fuses() {
        let asm = dot_kernel();
        let image = asm.assemble().unwrap();
        let timing = Timing::riscy();

        let mut ram_a = Ram::new(0, 4096);
        ram_a.write_bytes(0, &image);
        fill_data(&mut ram_a);
        let mut ref_cpu = Cpu::new(0);
        let ref_res = ref_cpu.run(&mut ram_a, &timing, 100_000);

        let mut ram_b = Ram::new(0, 4096);
        ram_b.write_bytes(0, &image);
        fill_data(&mut ram_b);
        let mut cpu = Cpu::new(0);
        let mut prog = Program::new(0, 4096, true);
        let res = cpu.run_program(
            &mut ram_b,
            &timing,
            100_000,
            &mut prog,
            &mut NoopSink,
            TrackId::default(),
        );
        assert_eq!(outcome(&cpu, &res), outcome(&ref_cpu, &ref_res));
        let stats = prog.stats();
        // The loop body runs as single ops; the tail is one fused dispatch
        // in place of three.
        assert_eq!(stats.fused_mul_srai_add, 1, "{stats:?}");
        let instructions = res.unwrap().instructions;
        assert_eq!(stats.instructions, instructions);
        assert_eq!(stats.dispatches, instructions - 2, "{stats:?}");
        // Sized to the code actually reached; slots inside fusion sites
        // are never dispatched, so never translated.
        assert_eq!(prog.len(), image.len() / 4);
        assert!(stats.translations < prog.len() as u64, "{stats:?}");
    }

    #[test]
    fn branch_loop_matches_reference() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 5);
        asm.li(Reg::A1, 0);
        let top = asm.here();
        asm.addi(Reg::A1, Reg::A1, 2);
        asm.addi(Reg::A0, Reg::A0, -1);
        asm.bne_to(Reg::A0, Reg::ZERO, top);
        asm.ecall();
        compare_against_reference(&asm, 1_000_000, true);
        compare_against_reference(&asm, 1_000_000, false);
    }

    #[test]
    fn cycle_limit_stops_mid_fused_op_exactly() {
        let asm = dot_kernel();
        // Sweep limits across the whole run so some land inside fused
        // ops; state and error must match the reference at every cut.
        for limit in 1..80 {
            let image = asm.assemble().unwrap();
            let timing = Timing::riscy();
            let mut ram_a = Ram::new(0, 4096);
            ram_a.write_bytes(0, &image);
            fill_data(&mut ram_a);
            let mut ref_cpu = Cpu::new(0);
            let ref_res = ref_cpu.run(&mut ram_a, &timing, limit);

            let mut ram_b = Ram::new(0, 4096);
            ram_b.write_bytes(0, &image);
            fill_data(&mut ram_b);
            let mut cpu = Cpu::new(0);
            let mut prog = Program::new(0, 4096, true);
            let res = cpu.run_program(
                &mut ram_b,
                &timing,
                limit,
                &mut prog,
                &mut NoopSink,
                TrackId::default(),
            );
            assert_eq!(
                outcome(&cpu, &res),
                outcome(&ref_cpu, &ref_res),
                "limit = {limit}"
            );
        }
    }

    #[test]
    fn memory_gate_stops_before_a_second_access() {
        // The hardware-loop op given no room for a second access retires
        // its first load only, inside its own loop; the pc then indexes the
        // second load's own slot.
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &hwloop_row(8, false).assemble().unwrap());
        fill_data(&mut ram);
        let t = Timing::riscy();
        let mut cpu = Cpu::new(0);
        let mut prog = Program::new(0, 4096, true);
        // li, li, li, lp.setup: the hart stands at the loop op.
        for _ in 0..4 {
            let op = prog.fetch(&mut ram, cpu.pc()).unwrap();
            prog.exec(op, &mut cpu, &mut ram, &t, 0, u64::MAX, u64::MAX)
                .unwrap();
        }
        let start = cpu.pc();
        let op = prog.fetch(&mut ram, start).unwrap();
        assert!(op.is_hwloop_dot());
        assert_eq!(op.width(), 5);
        assert!(op.is_shared());
        assert_eq!(op.head().width(), 1);
        let cost = prog
            .exec(op, &mut cpu, &mut ram, &t, 1, u64::MAX, u64::from(t.load))
            .unwrap();
        assert_eq!(cost, u64::from(t.load));
        assert_eq!(cpu.pc(), start + 4);
        assert_eq!(cpu.reg(Reg::A0), 0x204);
        assert_eq!(cpu.retired(), 5);
        assert_eq!(cpu.hwloop(0).count, 8);
        assert_eq!(prog.fetch(&mut ram, start + 4).unwrap().width(), 1);
    }

    #[test]
    fn fault_at_a_second_post_load_matches_reference() {
        // Second p.lw reads a misaligned address: the first must stay
        // retired and the fault's pc must match the reference.
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 0x200);
        asm.li(Reg::A1, 0x301); // misaligned
        asm.li(Reg::A2, 0);
        asm.load_post(MemWidth::W, Reg::A3, Reg::A0, 4);
        asm.load_post(MemWidth::W, Reg::A4, Reg::A1, 4);
        asm.simd(SimdOp::SdotspH, Reg::A2, Reg::A3, Reg::A4);
        asm.ecall();
        compare_against_reference(&asm, 100_000, true);
    }

    #[test]
    fn self_modifying_store_redecodes_the_slot() {
        // Patch the *previous* loop body instruction mid-run and require
        // the next iteration to see the new bytes.
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 0); // 0x00
        asm.li(Reg::T0, 2); // 0x04
        let top = asm.here(); // 0x08
        asm.addi(Reg::A0, Reg::A0, 1); // 0x08 (patched to +7)
        asm.store(MemWidth::W, Reg::T2, Reg::T1, 0); // 0x0c
        asm.addi(Reg::T0, Reg::T0, -1); // 0x10
        asm.bne_to(Reg::T0, Reg::ZERO, top); // 0x14
        asm.ecall(); // 0x18
        let image = asm.assemble().unwrap();

        let mut patch = Asm::new(0);
        patch.addi(Reg::A0, Reg::A0, 7);
        let patch_word = u32::from_le_bytes(patch.assemble().unwrap()[..4].try_into().unwrap());

        let run = |program: bool| {
            let mut ram = Ram::new(0, 4096);
            ram.write_bytes(0, &image);
            let mut cpu = Cpu::new(0);
            cpu.set_reg(Reg::T1, 0x08);
            cpu.set_reg(Reg::T2, patch_word);
            let res = if program {
                let mut prog = Program::new(0, 4096, true);
                let r = cpu.run_program(
                    &mut ram,
                    &Timing::riscy(),
                    1_000_000,
                    &mut prog,
                    &mut NoopSink,
                    TrackId::default(),
                );
                assert!(prog.stats().redecodes > 0);
                r
            } else {
                cpu.run(&mut ram, &Timing::riscy(), 1_000_000)
            }
            .unwrap();
            (cpu.reg(Reg::A0), res)
        };

        let (a0_ref, res_ref) = run(false);
        let (a0_prog, res_prog) = run(true);
        assert_eq!(a0_ref, 1 + 7);
        assert_eq!(a0_prog, a0_ref);
        assert_eq!(res_prog, res_ref);
    }

    #[test]
    fn store_into_a_fused_tail_drops_the_fused_op() {
        // mul/srai/add fuse at 0; a store over the `add` at 8 must drop
        // the fused op at 0 and the `add`'s own slot, but neither the
        // single `srai` at 4 nor the `ecall` past it.
        let mut asm = Asm::new(0);
        asm.alu(AluOp::Mul, Reg::A6, Reg::A2, Reg::A5);
        asm.shift(ShiftOp::Srai, Reg::A6, Reg::A6, 7);
        asm.alu(AluOp::Add, Reg::A7, Reg::A6, Reg::A5);
        asm.ecall();
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut prog = Program::new(0, 4096, true);
        for pc in [0, 4, 8, 12] {
            prog.fetch(&mut ram, pc).unwrap();
        }
        assert_eq!(prog.fetch(&mut ram, 0).unwrap().width(), 3);
        assert!(prog.invalidate_store(8, MemWidth::W));
        assert_eq!(prog.stats().redecodes, 2);
        assert!(!prog.invalidate_store(8, MemWidth::W));
        assert!(!prog.invalidate_store(16, MemWidth::W));
        assert!(!prog.invalidate_store(0x800, MemWidth::W));
        // The next dispatch re-decodes the fused op from memory.
        assert_eq!(prog.fetch(&mut ram, 0).unwrap().width(), 3);
        assert_eq!(prog.stats().translations, 5);
    }

    #[test]
    fn ibex_rejects_xpulp_in_programs() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 1);
        asm.mac(Reg::A0, Reg::A1, Reg::A2);
        asm.ecall();
        compare_against_reference(&asm, 1_000, false);
    }

    #[test]
    fn out_of_window_pc_translates_without_a_slot() {
        let mut asm = Asm::new(0x100);
        asm.li(Reg::A0, 7);
        asm.ecall();
        let mut ram = Ram::new(0, 512);
        ram.write_bytes(0x100, &asm.assemble().unwrap());
        let mut cpu = Cpu::new(0x100);
        let mut prog = Program::new(0, 64, true); // window ends at 0x40
        let res = cpu
            .run_program(
                &mut ram,
                &Timing::riscy(),
                1_000,
                &mut prog,
                &mut NoopSink,
                TrackId::default(),
            )
            .unwrap();
        assert_eq!(cpu.reg(Reg::A0), 7);
        assert!(res.instructions > 0);
        assert_eq!(prog.stats().dispatches, res.instructions);
        assert!(prog.is_empty());
    }

    #[test]
    fn misaligned_spanning_store_drops_both_words() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 1);
        asm.li(Reg::A1, 2);
        asm.ecall();
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut prog = Program::new(0, 4096, true);
        prog.fetch(&mut ram, 0).unwrap();
        prog.fetch(&mut ram, 4).unwrap();
        // A word store at offset 2 touches words 0 and 4: both slots drop.
        assert!(prog.invalidate_store(2, MemWidth::W));
        assert_eq!(prog.stats().redecodes, 2);
        assert!(!prog.invalidate_store(2, MemWidth::W));
    }

    #[test]
    fn every_op_fits_the_invalidation_window() {
        // Code holding a site of every op kind; each PC translates to one.
        let (a0, a1, a2, a3) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3);
        let mut asm = Asm::new(0);
        asm.emit(Instr::Lui { rd: a0, imm: 4096 });
        asm.add(a0, a0, a1);
        asm.sub(a0, a0, a1);
        asm.slli(a0, a0, 1);
        asm.shift(ShiftOp::Srli, a0, a0, 1);
        asm.store_post(MemWidth::W, a0, a1, 4);
        asm.sw(a0, a1, 0);
        asm.jalr(Reg::ZERO, a1, 0);
        asm.emit(Instr::Fence);
        asm.load_post(MemWidth::W, a0, a1, 4);
        asm.mac(a2, a0, a1);
        // pv.sdotsp.h, mul/srai/add, li, ecall, then both loop ops (and
        // addi/bne inside the counted one).
        for part in [dot_kernel(), hwloop_row(8, false), counted_row(8, false)] {
            for instr in part.instructions().unwrap() {
                asm.emit(instr);
            }
        }
        let top = asm.here();
        asm.lw(a3, a0, 0); // alone: lw, mul, bne, jal
        asm.mul(a0, a0, a1);
        asm.bne_to(a0, a1, top);
        asm.jal_to(Reg::ZERO, top);
        let image = asm.assemble().unwrap();
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &image);
        let len = image.len() as u32;
        let mut kinds: Vec<Kind> = (0..len / 4)
            .map(|i| Program::new(0, len, true).fetch(&mut ram, 4 * i).unwrap().0)
            .collect();
        kinds.push(Program::new(0, len, false).fetch(&mut ram, 36).unwrap().0);
        let mut seen = [false; 24];
        for kind in kinds {
            assert!(Op(kind).width() <= MAX_OP_WORDS, "{kind:?}");
            seen[match kind {
                Kind::Lui { .. } => 0,
                Kind::Addi { .. } => 1,
                Kind::Add { .. } => 2,
                Kind::Sub { .. } => 3,
                Kind::Mul { .. } => 4,
                Kind::Slli { .. } => 5,
                Kind::Srli { .. } => 6,
                Kind::Srai { .. } => 7,
                Kind::Load { .. } => 8,
                Kind::Store { .. } => 9,
                Kind::LoadPost { .. } => 10,
                Kind::StorePost { .. } => 11,
                Kind::Mac { .. } => 12,
                Kind::Sdotsp { .. } => 13,
                Kind::Branch { .. } => 14,
                Kind::Jal { .. } => 15,
                Kind::Jalr { .. } => 16,
                Kind::Halt => 17,
                Kind::IllegalXpulp => 18,
                Kind::Other(_) => 19,
                Kind::MulSraiAdd { .. } => 20,
                Kind::AddiBranch { .. } => 21,
                Kind::HwLoopDot(_) => 22,
                Kind::CountedDot(_) => 23,
            }] = true;
        }
        let missing: Vec<usize> = (0..seen.len()).filter(|&k| !seen[k]).collect();
        assert!(missing.is_empty(), "no site of kinds {missing:?}");
    }

    /// Runs `asm` over the dot-product data on the reference and the op
    /// program under `limit`, asserts identical state and memory, and
    /// returns the program's counters.
    fn loop_matches_reference(asm: &Asm, xpulp: bool, limit: u64) -> ProgramStats {
        let (timing, new_cpu): (_, fn(u32) -> Cpu) = if xpulp {
            (Timing::riscy(), Cpu::new)
        } else {
            (Timing::ibex(), Cpu::new_rv32im)
        };
        let image = asm.assemble().unwrap();
        let fresh = || {
            let mut ram = Ram::new(0, 4096);
            ram.write_bytes(0, &image);
            fill_data(&mut ram);
            ram
        };
        let (mut ram_a, mut ref_cpu) = (fresh(), new_cpu(0));
        let ref_res = ref_cpu.run(&mut ram_a, &timing, limit);
        let (mut ram_b, mut cpu) = (fresh(), new_cpu(0));
        let mut prog = Program::new(0, 4096, xpulp);
        let res = cpu.run_program(
            &mut ram_b,
            &timing,
            limit,
            &mut prog,
            &mut NoopSink,
            TrackId::default(),
        );
        assert_eq!(
            outcome(&cpu, &res),
            outcome(&ref_cpu, &ref_res),
            "limit {limit}"
        );
        assert_eq!(
            (0..2).map(|l| cpu.hwloop(l)).collect::<Vec<_>>(),
            [0, 1].map(|l| ref_cpu.hwloop(l))
        );
        assert_eq!(ram_b.read_bytes(0, 4096), ram_a.read_bytes(0, 4096));
        prog.stats()
    }

    /// The RI5CY kernel row: a hardware loop of `n` passes over
    /// `p.lw`/`p.lw`/`mul`/`srai`/`add`; `alias` makes the multiply read
    /// the `x` pointer, off the kernel's own register pattern.
    fn hwloop_row(n: i32, alias: bool) -> Asm {
        hwloop_row_over(0x200, 0x300, n, alias)
    }

    fn hwloop_row_over(w: i32, x: i32, n: i32, alias: bool) -> Asm {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, w);
        asm.li(Reg::A1, x);
        asm.li(Reg::T0, n);
        let end = asm.new_label();
        asm.lp_setup_to(LoopIdx::L0, Reg::T0, end);
        asm.load_post(MemWidth::W, Reg::A3, Reg::A0, 4);
        asm.load_post(MemWidth::W, Reg::A4, Reg::A1, 4);
        let rs2 = if alias { Reg::A1 } else { Reg::A4 };
        asm.alu(AluOp::Mul, Reg::A3, Reg::A3, rs2);
        asm.shift(ShiftOp::Srai, Reg::A3, Reg::A3, 3);
        asm.alu(AluOp::Add, Reg::A2, Reg::A2, Reg::A3);
        asm.bind(end);
        asm.ecall();
        asm
    }

    /// The Ibex kernel row: a counted loop of `n` passes over
    /// `lw`/`lw`/`addi`/`addi`/`mul`/`srai`/`add`/`addi`/`bne`; `alias`
    /// makes the accumulator the counter.
    fn counted_row(n: i32, alias: bool) -> Asm {
        counted_row_over(0x200, 0x300, n, alias)
    }

    fn counted_row_over(w: i32, x: i32, n: i32, alias: bool) -> Asm {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, w);
        asm.li(Reg::A1, x);
        asm.li(Reg::T0, n);
        let top = asm.here();
        asm.lw(Reg::A3, Reg::A0, 0);
        asm.lw(Reg::A4, Reg::A1, 0);
        asm.addi(Reg::A0, Reg::A0, 4);
        asm.addi(Reg::A1, Reg::A1, 4);
        asm.alu(AluOp::Mul, Reg::A3, Reg::A3, Reg::A4);
        asm.shift(ShiftOp::Srai, Reg::A3, Reg::A3, 3);
        let acc = if alias { Reg::T0 } else { Reg::A2 };
        asm.alu(AluOp::Add, acc, acc, Reg::A3);
        asm.addi(Reg::T0, Reg::T0, -1);
        asm.bne_to(Reg::T0, Reg::ZERO, top);
        asm.ecall();
        asm
    }

    #[test]
    fn loop_ops_run_each_row_in_one_dispatch() {
        let stats = loop_matches_reference(&hwloop_row(8, false), true, 100_000);
        assert_eq!(stats.hwloop_dot_entries, 1, "{stats:?}");
        assert_eq!(stats.hwloop_dot_iterations, 8, "{stats:?}");
        // li, li, li, lp.setup, the loop op, ecall.
        assert_eq!(stats.dispatches, 6, "{stats:?}");
        let stats = loop_matches_reference(&counted_row(8, false), false, 100_000);
        assert_eq!(stats.counted_dot_entries, 1, "{stats:?}");
        assert_eq!(stats.counted_dot_iterations, 8, "{stats:?}");
        assert_eq!(stats.dispatches, 5, "{stats:?}");
        // Off the kernel's own registers, the rows run as single ops and
        // fused tails: li, li, li, lp.setup, then per pass p.lw, p.lw and
        // mul/srai/add, and ecall.
        let stats = loop_matches_reference(&hwloop_row(8, true), true, 100_000);
        assert_eq!(stats.hwloop_dot_entries, 0, "{stats:?}");
        assert_eq!(stats.dispatches, 4 + 8 * 3 + 1, "{stats:?}");
        let stats = loop_matches_reference(&counted_row(8, true), false, 100_000);
        assert_eq!(stats.counted_dot_entries, 0, "{stats:?}");
    }

    /// `DotBody::retire` commits `k` body sub-instructions exactly as the
    /// reference retires them one at a time, from every dispatch point.
    #[test]
    fn dot_body_retire_matches_the_reference_step_by_step() {
        let timing = Timing::riscy();
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &hwloop_row(8, false).assemble().unwrap());
        fill_data(&mut ram);
        let mut prog = Program::new(0, 4096, true);
        let mut entry = Cpu::new(0);
        // li, li, li, lp.setup: the hart stands at the loop op.
        for _ in 0..4 {
            entry.step(&mut ram, &timing).unwrap();
        }
        let start = entry.pc();
        prog.fetch(&mut ram, start).unwrap();
        // The body's other dispatch points are not translated yet.
        assert_eq!(prog.dot_body(&entry), None);
        for p in [4, 8] {
            prog.fetch(&mut ram, start + p).unwrap();
        }
        for p0 in 0..5u64 {
            let mut at = entry.clone();
            for _ in 0..p0 {
                at.step(&mut ram, &timing).unwrap();
            }
            let Some(body) = prog.dot_body(&at) else {
                assert!(p0 >= 3, "dispatch point {p0} not recognised");
                continue;
            };
            assert!(p0 < 3, "{p0} is not a dispatch point");
            assert_eq!((body.start, body.shamt, body.hwloop), (start, 3, 0));
            // Up to the last pass's `add`, the loop's exit.
            for k in 0..40 - p0 {
                let mut reference = at.clone();
                for _ in 0..k {
                    reference.step(&mut ram, &timing).unwrap();
                }
                let mut joint = at.clone();
                let vals = body.regs.map(|r| reference.reg(r));
                body.retire(&mut joint, vals, k, &timing);
                let state = |c: &Cpu| {
                    (
                        c.pc(),
                        c.retired(),
                        *c.profile(),
                        c.hwloop(0),
                        (0..32).map(|i| c.reg(Reg::new(i))).collect::<Vec<_>>(),
                    )
                };
                assert_eq!(state(&joint), state(&reference), "p0={p0} k={k}");
            }
        }
        // Past the loop no body holds the hart.
        let mut done = entry.clone();
        done.run(&mut ram, &timing, 100_000).unwrap();
        assert_eq!(prog.dot_body(&done), None);
    }

    /// Instructions the reference retires running `asm` over the
    /// dot-product data under `limit`.
    fn reference_retired(asm: &Asm, xpulp: bool, limit: u64) -> u64 {
        let (timing, mut cpu) = if xpulp {
            (Timing::riscy(), Cpu::new(0))
        } else {
            (Timing::ibex(), Cpu::new_rv32im(0))
        };
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &asm.assemble().unwrap());
        fill_data(&mut ram);
        let _ = cpu.run(&mut ram, &timing, limit);
        cpu.retired()
    }

    #[test]
    fn loop_ops_stop_exactly_at_every_cycle_limit() {
        // A whole row runs at once exactly when the reference gets past
        // the row's last budget check: it then retires the row's last
        // instruction (the hardware loop's `add`, the counted loop's
        // `bne`). Three `li`s (and an `lp.setup`) come first.
        for n in [1, 2, 8] {
            for alias in [false, true] {
                let rows = [
                    (hwloop_row(n, alias), true, 4 + 5 * n as u64),
                    (counted_row(n, alias), false, 3 + 9 * n as u64),
                    (counted_row(n, alias), true, 3 + 9 * n as u64),
                ];
                for (row, xpulp, last) in rows {
                    for limit in 1..20 * n as u64 + 30 {
                        let stats = loop_matches_reference(&row, xpulp, limit);
                        let whole = !alias && reference_retired(&row, xpulp, limit) >= last;
                        assert_eq!(stats.whole_rows, u64::from(whole), "n={n} limit={limit}");
                        // Short of a whole row, neither op retires a pass.
                        let passes = stats.hwloop_dot_iterations + stats.counted_dot_iterations;
                        assert_eq!(passes, n as u64 * stats.whole_rows, "n={n} limit={limit}");
                    }
                }
            }
        }
    }

    #[test]
    fn loop_ops_fault_at_the_exact_sub_instruction() {
        // The `x` stream runs off the end of memory after two passes, and
        // a misaligned `w` faults on the very first load.
        for (w, x) in [(0x200, 4096 - 8), (0x202, 0x300)] {
            loop_matches_reference(&hwloop_row_over(w, x, 8, false), true, 100_000);
            loop_matches_reference(&counted_row_over(w, x, 8, false), false, 100_000);
        }
    }

    #[test]
    fn rows_ending_at_the_memory_end_run_whole_and_past_it_fault_exactly() {
        // Either stream ending exactly at the end of memory, one word
        // before it, or one word past it: the last pass's load of that
        // stream faults, at the same sub-instruction as the reference's;
        // both loop ops leave such a row to single ops.
        for n in [1, 2, 8] {
            for past in [-1, 0, 1] {
                let at = 4096 - 4 * (n - past);
                for (w, x) in [(at, 0x300), (0x200, at)] {
                    let rows = [
                        (hwloop_row_over(w, x, n, false), true),
                        (counted_row_over(w, x, n, false), false),
                    ];
                    for (row, xpulp) in rows {
                        let stats = loop_matches_reference(&row, xpulp, 100_000);
                        assert_eq!(stats.whole_rows, u64::from(past < 1), "n={n} {w:#x} {x:#x}");
                        let passes = stats.hwloop_dot_iterations + stats.counted_dot_iterations;
                        assert_eq!(passes, n as u64 * stats.whole_rows, "n={n} {w:#x} {x:#x}");
                    }
                }
            }
        }
    }

    /// [`Ram`] that hands out no spans, so no loop op runs a row whole.
    struct Stepped<'a>(&'a mut Ram);

    impl Bus for Stepped<'_> {
        fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, crate::BusError> {
            self.0.load(addr, width)
        }
        fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), crate::BusError> {
            self.0.store(addr, width, value)
        }
    }

    /// `true` if the reference, stepping the row at `entry`'s pc under the
    /// loop ops' stops (the budget after every instruction, the memory
    /// gate before every load but the first), reaches the row's exit
    /// `len` bytes past its head.
    fn row_exits(
        entry: &Cpu,
        ram: &mut Ram,
        t: &Timing,
        budget: u64,
        mem_room: u64,
        len: u32,
    ) -> bool {
        let (mut cpu, start, mut cost) = (entry.clone(), entry.pc(), 0u64);
        loop {
            // The two loads open each pass.
            if cost > 0 && cpu.pc() - start < 8 && cost >= mem_room {
                return false;
            }
            cost += u64::from(cpu.step(ram, t).unwrap().unwrap().cycles);
            if cpu.pc() == start + len {
                return true;
            }
            if cost > budget {
                return false;
            }
        }
    }

    #[test]
    fn whole_rows_run_exactly_when_no_budget_or_gate_check_could_stop_them() {
        // Every budget and memory gate around both loop ops' rows. Each op
        // serves the row whole exactly when the reference, under the same
        // stops, reaches the exit, and otherwise runs its first load
        // alone, as it does over a bus without spans.
        for n in [1, 2, 8] {
            let rows = [
                (hwloop_row(n, false), true, 4, 20),
                (counted_row(n, false), false, 3, 36),
            ];
            for (row, xpulp, pre, len) in rows {
                let t = if xpulp {
                    Timing::riscy()
                } else {
                    Timing::ibex()
                };
                let mut ram = Ram::new(0, 4096);
                ram.write_bytes(0, &row.assemble().unwrap());
                fill_data(&mut ram);
                let mut entry = if xpulp {
                    Cpu::new(0)
                } else {
                    Cpu::new_rv32im(0)
                };
                for _ in 0..pre {
                    entry.step(&mut ram, &t).unwrap();
                }
                let (start, mut prog) = (entry.pc(), Program::new(0, 4096, xpulp));
                let op = prog.fetch(&mut ram, start).unwrap();
                let state = |c: &Cpu| {
                    let regs: Vec<u32> = (0..32).map(|i| c.reg(Reg::new(i))).collect();
                    (c.pc(), c.retired(), *c.profile(), c.hwloop(0), regs)
                };
                let mut done = entry.clone();
                let full = prog
                    .clone()
                    .exec(op, &mut done, &mut ram, &t, 0, u64::MAX, u64::MAX)
                    .unwrap();
                assert_eq!(done.pc(), start + len);
                for budget in 0..full + 2 {
                    for mem_room in 0..full + 2 {
                        let (mut a, mut b) = (entry.clone(), entry.clone());
                        let (mut pa, mut pb) = (prog.clone(), prog.clone());
                        let ca = pa.exec(op, &mut a, &mut ram, &t, 0, budget, mem_room);
                        let cb =
                            pb.exec(op, &mut b, &mut Stepped(&mut ram), &t, 0, budget, mem_room);
                        let what = format!("n={n} budget={budget} mem_room={mem_room}");
                        assert_eq!(pb.stats().whole_rows, 0, "{what}");
                        assert_eq!(b.retired(), entry.retired() + 1, "{what}");
                        let whole = row_exits(&entry, &mut ram, &t, budget, mem_room, len);
                        let expect = if whole {
                            (Ok(full), state(&done))
                        } else {
                            (cb, state(&b))
                        };
                        assert_eq!((ca, state(&a)), expect, "{what}");
                        assert_eq!(pa.stats().whole_rows, u64::from(whole), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn loop_ops_run_once_when_another_loop_can_redirect_inside() {
        // An outer hardware loop ending inside the body (at the `mul`),
        // and one ending exactly at the body's end (shared end, lower
        // priority than the body's own loop).
        for (outer_end, falls_back) in [(3, true), (5, false)] {
            let mut asm = Asm::new(0);
            asm.li(Reg::A0, 0x200);
            asm.li(Reg::A1, 0x300);
            asm.li(Reg::T0, 4);
            asm.li(Reg::T1, 3);
            // L1: [L0 setup, body...) ends `outer_end` words into the body.
            asm.lp_setup(LoopIdx::L1, Reg::T1, 4 * (2 + outer_end));
            asm.lp_setup(LoopIdx::L0, Reg::T0, 4 * 6);
            asm.load_post(MemWidth::W, Reg::A3, Reg::A0, 4);
            asm.load_post(MemWidth::W, Reg::A4, Reg::A1, 4);
            asm.alu(AluOp::Mul, Reg::A3, Reg::A3, Reg::A4);
            asm.shift(ShiftOp::Srai, Reg::A3, Reg::A3, 3);
            asm.alu(AluOp::Add, Reg::A2, Reg::A2, Reg::A3);
            asm.ecall();
            // Falling back, the rest of the body runs as the fused
            // `mul`/`srai`/`add` would.
            let stats = loop_matches_reference(&asm, true, 100_000);
            assert_eq!(stats.fused_mul_srai_add > 0, falls_back, "{stats:?}");
        }
        // A hardware loop whose body is the counted loop ends right after
        // its `bne` (or on its head): while it is active, the counted op
        // runs the body once per entry.
        for end_words in [10, 1] {
            let mut asm = Asm::new(0);
            asm.li(Reg::A0, 0x200);
            asm.li(Reg::A1, 0x300);
            asm.li(Reg::T1, 3);
            asm.li(Reg::T0, 4);
            asm.lp_setup(LoopIdx::L0, Reg::T1, 4 * end_words);
            let counted = counted_row(4, false).assemble().unwrap();
            for word in counted[12..].chunks_exact(4) {
                asm.emit(decode(u32::from_le_bytes(word.try_into().unwrap())).unwrap());
            }
            let stats = loop_matches_reference(&asm, true, 100_000);
            assert!(stats.fused_mul_srai_add > 0, "{stats:?}");
        }
    }
}
