//! Basic-block compilation with superinstruction fusion.
//!
//! The [`DecodeCache`](crate::DecodeCache) path still pays one dispatch
//! `match` plus cache lookup per *dynamic* instruction. This module moves
//! translation to once per *static* basic block: blocks are keyed by
//! entry PC, decoded straight from the bus into a flat array of
//! pre-resolved [`Op`] entries (a handler function pointer plus
//! immediates and register indices), and executed back to back with no
//! per-step `Instr` match. On top of the flat lowering, adjacent
//! instructions that form the inner-loop idioms of the InfiniWolf
//! kernels — post-increment load pairs feeding `pv.sdotsp.h` or `p.mac`,
//! `mul`/`srai`/`add` fixed-point chains, `addi`+branch counter tails —
//! are *fused* into single macro-op handlers, so a five-instruction loop
//! body costs one or two indirect calls instead of five matches.
//!
//! Correctness contract: every sub-instruction of every handler retires
//! through [`Cpu::retire`] with exactly the semantics of the frozen
//! reference interpreter, one at a time, so a fault, cycle-limit stop or
//! hardware-loop redirect between sub-instructions leaves architectural
//! state (registers, memory, `pc`, profile, retired count) bit-identical
//! to [`Cpu::run`]. The differential property tests in
//! `tests/proptests.rs` enforce this, including under self-modifying
//! code: stores report through [`BlockCache::invalidate_store`], which
//! demotes every compiled block covering the written word.

use std::rc::Rc;

use crate::bus::Bus;
use crate::cpu::{Cpu, CpuError, MemAccess, RunResult};
use crate::decode::{decode, DecodeError};
use crate::instr::{AluImmOp, AluOp, BranchCond, Instr, MemWidth, Reg, ShiftOp, SimdOp};
use crate::profile::InstrClass;
use crate::timing::Timing;

/// Longest block, in sub-instructions.
const MAX_BLOCK_INSTRS: usize = 32;

/// Result of executing one (possibly fused) block op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exec {
    /// Base cycles of all retired sub-instructions.
    pub cycles: u32,
    /// Sub-instructions retired (< the op's width if a hardware-loop
    /// redirect or the cycle budget stopped the op early).
    pub retired: u32,
    /// First data access, performed by the first sub-instruction that
    /// touches memory.
    pub mem: Option<MemAccess>,
    /// Base cycles of the sub-instruction behind [`Exec::mem`] — the
    /// cluster model replaces these with the L2 latency for L2 hits.
    pub mem_cycles: u32,
    /// Second data access (multi-load fused ops only).
    pub mem2: Option<MemAccess>,
    /// Base cycles of the sub-instruction behind [`Exec::mem2`].
    pub mem2_cycles: u32,
}

impl Exec {
    #[inline]
    fn one(cycles: u32) -> Exec {
        Exec {
            cycles,
            retired: 1,
            ..Exec::default()
        }
    }
}

type Handler<B> = fn(&mut Cpu, &mut B, &Op<B>, &Timing, u64) -> Result<Exec, CpuError>;

/// One pre-resolved entry of a compiled block: a handler pointer plus
/// the operands of up to three fused sub-instructions.
pub struct Op<B> {
    handler: Handler<B>,
    pc: u32,
    cond: BranchCond,
    /// First sub-instruction, kept decoded for the generic handler.
    instr: Instr,
    rd: Reg,
    rs1: Reg,
    rs2: Reg,
    imm: i32,
    rd2: Reg,
    rs1b: Reg,
    rs2b: Reg,
    imm2: i32,
    rd3: Reg,
    rs1c: Reg,
    rs2c: Reg,
}

fn op_base<B: Bus>(handler: Handler<B>, pc: u32, instr: Instr) -> Op<B> {
    Op {
        handler,
        pc,
        cond: BranchCond::Eq,
        instr,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        imm: 0,
        rd2: Reg::ZERO,
        rs1b: Reg::ZERO,
        rs2b: Reg::ZERO,
        imm2: 0,
        rd3: Reg::ZERO,
        rs1c: Reg::ZERO,
        rs2c: Reg::ZERO,
    }
}

/// A compiled basic block: straight-line code from its entry PC up to
/// (and including) its terminating branch/jump/halt, lowered to ops.
pub struct Block<B> {
    entry: u32,
    end: u32,
    ops: Vec<Op<B>>,
}

impl<B: Bus> Block<B> {
    /// Entry PC (address of the first sub-instruction).
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// First byte past the last sub-instruction.
    #[must_use]
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Number of (possibly fused) ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the block compiled to no ops (never produced by
    /// [`BlockCache::lookup`], which errors instead).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// PC of op `i`'s first sub-instruction.
    #[must_use]
    pub fn op_pc(&self, i: usize) -> u32 {
        self.ops[i].pc
    }

    /// Executes op `i`. `budget` is the remaining base-cycle budget; the
    /// op stops (returning a partial [`Exec`]) before starting a
    /// sub-instruction once the retired sub-instructions exceed it, so
    /// the caller's cycle-limit check fires between sub-instructions
    /// exactly as the reference interpreter's would.
    ///
    /// # Errors
    ///
    /// Any fault the sub-instructions raise; sub-instructions retired
    /// before the fault remain retired, as in the reference path.
    #[inline]
    pub fn exec_op(
        &self,
        i: usize,
        cpu: &mut Cpu,
        bus: &mut B,
        timing: &Timing,
        budget: u64,
    ) -> Result<Exec, CpuError> {
        let op = &self.ops[i];
        (op.handler)(cpu, bus, op, timing, budget)
    }
}

/// Per-cache counters: compilation, fusion, lookup and dispatch-loop
/// exit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks translated (recompiles after demotion count again).
    pub blocks_compiled: u64,
    /// Ops emitted across all compiled blocks.
    pub ops_lowered: u64,
    /// Sub-instructions across all compiled blocks.
    pub instrs_compiled: u64,
    /// Lookups served by an existing block.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Blocks dropped because a store overlapped them.
    pub demotions: u64,
    /// Single-stepped instructions at PCs outside the cache window.
    pub fallback_steps: u64,
    /// `p.lw` + `p.lw` + `pv.sdotsp.h` fusions emitted.
    pub fused_lp_lp_sdotsp: u64,
    /// `p.lw` + `p.lw` fusions emitted.
    pub fused_lp_lp: u64,
    /// `p.lw` + `pv.sdotsp.h` fusions emitted.
    pub fused_lp_sdotsp: u64,
    /// `p.lw` + `p.mac` fusions emitted.
    pub fused_lp_mac: u64,
    /// `mul` + `srai` + `add` fusions emitted.
    pub fused_mul_srai_add: u64,
    /// `addi` + branch fusions emitted.
    pub fused_addi_branch: u64,
    /// Dispatch loops that ran a block to its final op.
    pub exit_fallthrough: u64,
    /// Dispatch loops broken by a PC redirect (hardware-loop back edge
    /// or partial fused op) away from the next op.
    pub exit_redirect: u64,
    /// Dispatch loops broken by `ecall`/`ebreak`.
    pub exit_halt: u64,
    /// Dispatch loops broken because a store hit the executing block.
    pub exit_smc: u64,
}

impl BlockStats {
    /// Total fused macro-ops emitted at compile time.
    #[must_use]
    pub fn fused_total(&self) -> u64 {
        self.fused_lp_lp_sdotsp
            + self.fused_lp_lp
            + self.fused_lp_sdotsp
            + self.fused_lp_mac
            + self.fused_mul_srai_add
            + self.fused_addi_branch
    }

    /// Lookup hit rate in `[0, 1]` (1.0 when there were no lookups).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Basic-block cache over one word-aligned program window.
///
/// # Examples
///
/// ```
/// use iw_rv32::{asm::Asm, BlockCache, Cpu, Ram, Reg, Timing};
/// let mut asm = Asm::new(0);
/// asm.li(Reg::A0, 21);
/// asm.add(Reg::A0, Reg::A0, Reg::A0);
/// asm.ecall();
/// let mut ram = Ram::new(0, 64);
/// ram.write_bytes(0, &asm.assemble()?);
/// let mut cache = BlockCache::new(0, 64, true);
/// let mut cpu = Cpu::new(0);
/// let run = cpu.run_blocks(&mut ram, &Timing::riscy(), 1_000, &mut cache)?;
/// assert_eq!(cpu.reg(Reg::A0), 42);
/// assert!(run.instructions > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BlockCache<B> {
    base: u32,
    xpulp: bool,
    slots: Vec<Option<Rc<Block<B>>>>,
    covered: Vec<bool>,
    stats: BlockStats,
}

impl<B> core::fmt::Debug for BlockCache<B> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BlockCache")
            .field("base", &self.base)
            .field("words", &self.slots.len())
            .field("xpulp", &self.xpulp)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<B: Bus> BlockCache<B> {
    /// Largest window a cache will allocate, in bytes.
    pub const MAX_WINDOW: u32 = 4 << 20;

    /// Creates a cache over `[base, base + len)` (word-rounded, capped at
    /// [`BlockCache::MAX_WINDOW`]). `xpulp` must match the executing
    /// hart: on a non-Xpulp hart, Xpulp instructions compile to an op
    /// that raises [`CpuError::IllegalXpulp`], as the reference would.
    #[must_use]
    pub fn new(base: u32, len: u32, xpulp: bool) -> BlockCache<B> {
        let base = base & !3;
        let len = len.min(Self::MAX_WINDOW).min(u32::MAX - base);
        let words = (len / 4) as usize;
        BlockCache {
            base,
            xpulp,
            slots: vec![None; words],
            covered: vec![false; words],
            stats: BlockStats::default(),
        }
    }

    /// `true` if `pc` is word-aligned and inside the window.
    #[must_use]
    pub fn covers(&self, pc: u32) -> bool {
        pc & 3 == 0 && self.word_index(pc).is_some()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Mutable access to the counters, for embedders that drive compiled
    /// blocks through their own dispatch loop (the Mr. Wolf cluster
    /// scheduler records its fallback steps here).
    pub fn stats_mut(&mut self) -> &mut BlockStats {
        &mut self.stats
    }

    #[inline]
    fn word_index(&self, addr: u32) -> Option<usize> {
        let off = (addr.wrapping_sub(self.base) / 4) as usize;
        (addr >= self.base && off < self.slots.len()).then_some(off)
    }

    fn in_window(&self, pc: u32) -> bool {
        pc & 3 == 0 && self.word_index(pc).is_some()
    }

    /// The block entered at `pc`, compiling it on a miss.
    ///
    /// `pc` must satisfy [`BlockCache::covers`].
    ///
    /// # Errors
    ///
    /// Fetch or decode faults on the *first* instruction of the block —
    /// exactly the error the reference interpreter would raise at `pc`.
    /// (Faults further into a block truncate it instead and surface if
    /// and when execution reaches them.)
    pub fn lookup(&mut self, bus: &mut B, pc: u32) -> Result<Rc<Block<B>>, CpuError> {
        let idx = self.word_index(pc).expect("lookup pc outside window");
        if let Some(b) = &self.slots[idx] {
            self.stats.hits += 1;
            return Ok(Rc::clone(b));
        }
        self.stats.misses += 1;
        let block = Rc::new(self.compile(bus, pc)?);
        for w in (block.entry..block.end).step_by(4) {
            if let Some(i) = self.word_index(w) {
                self.covered[i] = true;
            }
        }
        self.slots[idx] = Some(Rc::clone(&block));
        Ok(block)
    }

    fn compile(&mut self, bus: &mut B, entry: u32) -> Result<Block<B>, CpuError> {
        let mut instrs: Vec<(u32, Instr)> = Vec::new();
        let mut pc = entry;
        while instrs.len() < MAX_BLOCK_INSTRS && self.in_window(pc) {
            let word = match bus.fetch(pc) {
                Ok(w) => w,
                Err(e) if instrs.is_empty() => return Err(e.into()),
                Err(_) => break,
            };
            let instr = match decode(word) {
                Ok(i) => i,
                Err(e) if instrs.is_empty() => {
                    return Err(CpuError::Decode(DecodeError {
                        addr: Some(pc),
                        ..e
                    }))
                }
                Err(_) => break,
            };
            let terminates = matches!(
                instr,
                Instr::Branch { .. }
                    | Instr::Jal { .. }
                    | Instr::Jalr { .. }
                    | Instr::Ecall
                    | Instr::Ebreak
            ) || (!self.xpulp && instr.is_xpulp());
            instrs.push((pc, instr));
            pc = pc.wrapping_add(4);
            if terminates {
                break;
            }
        }
        debug_assert!(!instrs.is_empty(), "covers() guaranteed a fetchable pc");
        let ops = lower(&instrs, self.xpulp, &mut self.stats);
        self.stats.blocks_compiled += 1;
        self.stats.ops_lowered += ops.len() as u64;
        self.stats.instrs_compiled += instrs.len() as u64;
        Ok(Block {
            entry,
            end: pc,
            ops,
        })
    }

    /// Demotes every block whose words a store of `width` bytes at
    /// `addr` touched. Returns `true` if any block was dropped.
    ///
    /// Like [`DecodeCache::invalidate_store`](crate::DecodeCache::invalidate_store),
    /// the full byte span is walked, so a misaligned store straddling a
    /// word boundary demotes blocks on both sides.
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
        let Some(wi) = self.word_index(w) else {
            return false;
        };
        if !self.covered[wi] {
            return false;
        }
        // Any block covering word `w` starts at most MAX_BLOCK_INSTRS - 1
        // words earlier and is registered at its entry slot.
        let lo = wi.saturating_sub(MAX_BLOCK_INSTRS - 1);
        let mut any = false;
        for slot in lo..=wi {
            let drop_it = match &self.slots[slot] {
                Some(b) => b.end > w,
                None => false,
            };
            if drop_it {
                self.slots[slot] = None;
                self.stats.demotions += 1;
                any = true;
            }
        }
        // Every block covering `w` is gone now; later stores to this word
        // can skip the scan until a new block covers it.
        self.covered[wi] = false;
        any
    }

    /// Drops every compiled block.
    pub fn invalidate_all(&mut self) {
        self.slots.fill(None);
        self.covered.fill(false);
    }
}

impl Cpu {
    /// Runs until the core halts, executing compiled basic blocks from
    /// `cache`.
    ///
    /// Architectural results — registers, memory, `pc`, cycle and
    /// instruction counts, the execution profile and any error — are
    /// bit-identical to [`Cpu::run`]: every sub-instruction retires
    /// individually, the cycle limit is re-checked between
    /// sub-instructions, stores demote overlapping blocks (including the
    /// one currently executing), and a PC that leaves the block (taken
    /// branch, hardware-loop back edge) re-enters through a fresh block
    /// lookup. PCs outside the cache window fall back to single
    /// fetch + decode + execute steps.
    ///
    /// # Errors
    ///
    /// Same as [`Cpu::run`].
    pub fn run_blocks<B: Bus>(
        &mut self,
        bus: &mut B,
        timing: &Timing,
        max_cycles: u64,
        cache: &mut BlockCache<B>,
    ) -> Result<RunResult, CpuError> {
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        // Most-recently-entered block: hardware-loop back edges re-enter
        // the same block every iteration, so the entry compare serves the
        // common case without touching the slot table. Any demotion
        // clears it (`invalidate_store` reports drops), so it can never
        // outlive its cache entry.
        let mut mru: Option<Rc<Block<B>>> = None;
        while !self.halted {
            let pc = self.pc;
            if !cache.covers(pc) {
                // Out-of-window (or misaligned) pc: plain reference step.
                let word = bus.fetch(pc)?;
                let instr = decode(word).map_err(|e| {
                    CpuError::Decode(DecodeError {
                        addr: Some(pc),
                        ..e
                    })
                })?;
                let (cost, mem) = self.execute(instr, pc, bus, timing)?;
                if let Some(m) = mem {
                    if m.write && cache.invalidate_store(m.addr, m.width) {
                        mru = None;
                    }
                }
                cycles += u64::from(cost);
                instructions += 1;
                cache.stats.fallback_steps += 1;
                if cycles > max_cycles {
                    return Err(CpuError::CycleLimit { limit: max_cycles });
                }
                continue;
            }
            let block = match &mru {
                Some(b) if b.entry == pc => {
                    cache.stats.hits += 1;
                    Rc::clone(b)
                }
                _ => {
                    let b = cache.lookup(bus, pc)?;
                    mru = Some(Rc::clone(&b));
                    b
                }
            };
            let (entry, end) = (block.entry, block.end);
            let mut i = 0;
            loop {
                if i >= block.ops.len() {
                    cache.stats.exit_fallthrough += 1;
                    break;
                }
                let op = &block.ops[i];
                if self.pc != op.pc {
                    cache.stats.exit_redirect += 1;
                    break;
                }
                let budget = max_cycles - cycles;
                let exec = (op.handler)(self, bus, op, timing, budget)?;
                cycles += u64::from(exec.cycles);
                instructions += u64::from(exec.retired);
                let mut smc = false;
                for m in [exec.mem, exec.mem2].into_iter().flatten() {
                    if m.write {
                        if cache.invalidate_store(m.addr, m.width) {
                            mru = None;
                        }
                        let span = m.width.bytes();
                        if m.addr < end && m.addr.saturating_add(span) > entry {
                            smc = true;
                        }
                    }
                }
                if cycles > max_cycles {
                    return Err(CpuError::CycleLimit { limit: max_cycles });
                }
                if self.halted {
                    cache.stats.exit_halt += 1;
                    break;
                }
                if smc {
                    // The store rewrote bytes of this very block: stop
                    // executing the stale translation and re-enter, which
                    // recompiles from the fresh bytes.
                    cache.stats.exit_smc += 1;
                    break;
                }
                i += 1;
            }
        }
        Ok(RunResult {
            cycles,
            instructions,
        })
    }
}

// ---------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------

fn lower<B: Bus>(instrs: &[(u32, Instr)], xpulp: bool, stats: &mut BlockStats) -> Vec<Op<B>> {
    let mut ops = Vec::with_capacity(instrs.len());
    let mut i = 0;
    while i < instrs.len() {
        let (pc, instr) = instrs[i];
        if let Some((op, width)) = try_fuse(instrs, i, xpulp, stats) {
            ops.push(op);
            i += width;
            continue;
        }
        ops.push(lower_single(pc, instr, xpulp));
        i += 1;
    }
    ops
}

/// Attempts a fusion starting at `instrs[i]`; returns the fused op and
/// the number of sub-instructions it consumed.
fn try_fuse<B: Bus>(
    instrs: &[(u32, Instr)],
    i: usize,
    xpulp: bool,
    stats: &mut BlockStats,
) -> Option<(Op<B>, usize)> {
    let (pc, first) = instrs[i];
    if !xpulp && first.is_xpulp() {
        return None;
    }
    // Three-wide patterns first.
    if i + 2 < instrs.len() {
        let (second, third) = (instrs[i + 1].1, instrs[i + 2].1);
        if xpulp {
            if let (
                Instr::LoadPost {
                    width: MemWidth::W,
                    rd: d1,
                    rs1: p1,
                    offset: o1,
                },
                Instr::LoadPost {
                    width: MemWidth::W,
                    rd: d2,
                    rs1: p2,
                    offset: o2,
                },
                Instr::Simd {
                    op: SimdOp::SdotspH,
                    rd: acc,
                    rs1: m1,
                    rs2: m2,
                },
            ) = (first, second, third)
            {
                let mut op = op_base(h_lp_lp_sdotsp::<B>, pc, first);
                op.rd = d1;
                op.rs1 = p1;
                op.imm = o1;
                op.rd2 = d2;
                op.rs1b = p2;
                op.imm2 = o2;
                op.rd3 = acc;
                op.rs1c = m1;
                op.rs2c = m2;
                stats.fused_lp_lp_sdotsp += 1;
                return Some((op, 3));
            }
        }
        if let (
            Instr::Alu {
                op: AluOp::Mul,
                rd: d1,
                rs1: a,
                rs2: b,
            },
            Instr::Shift {
                op: ShiftOp::Srai,
                rd: d2,
                rs1: s,
                shamt,
            },
            Instr::Alu {
                op: AluOp::Add,
                rd: d3,
                rs1: x,
                rs2: y,
            },
        ) = (first, second, third)
        {
            let mut op = op_base(h_mul_srai_add::<B>, pc, first);
            op.rd = d1;
            op.rs1 = a;
            op.rs2 = b;
            op.rd2 = d2;
            op.rs1b = s;
            op.imm2 = i32::from(shamt);
            op.rd3 = d3;
            op.rs1c = x;
            op.rs2c = y;
            stats.fused_mul_srai_add += 1;
            return Some((op, 3));
        }
    }
    // Two-wide patterns.
    if i + 1 < instrs.len() {
        let second = instrs[i + 1].1;
        if xpulp {
            if let Instr::LoadPost {
                width: MemWidth::W,
                rd: d1,
                rs1: p1,
                offset: o1,
            } = first
            {
                if let Instr::LoadPost {
                    width: MemWidth::W,
                    rd: d2,
                    rs1: p2,
                    offset: o2,
                } = second
                {
                    let mut op = op_base(h_lp_lp::<B>, pc, first);
                    op.rd = d1;
                    op.rs1 = p1;
                    op.imm = o1;
                    op.rd2 = d2;
                    op.rs1b = p2;
                    op.imm2 = o2;
                    stats.fused_lp_lp += 1;
                    return Some((op, 2));
                }
                if let Instr::Simd {
                    op: SimdOp::SdotspH,
                    rd: acc,
                    rs1: m1,
                    rs2: m2,
                } = second
                {
                    let mut op = op_base(h_lp_sdotsp::<B>, pc, first);
                    op.rd = d1;
                    op.rs1 = p1;
                    op.imm = o1;
                    op.rd2 = acc;
                    op.rs1b = m1;
                    op.rs2b = m2;
                    stats.fused_lp_sdotsp += 1;
                    return Some((op, 2));
                }
                if let Instr::Mac { rd, rs1, rs2 } = second {
                    let mut op = op_base(h_lp_mac::<B>, pc, first);
                    op.rd = d1;
                    op.rs1 = p1;
                    op.imm = o1;
                    op.rd2 = rd;
                    op.rs1b = rs1;
                    op.rs2b = rs2;
                    stats.fused_lp_mac += 1;
                    return Some((op, 2));
                }
            }
        }
        if let (
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1,
                imm,
            },
            Instr::Branch {
                cond,
                rs1: b1,
                rs2: b2,
                offset,
            },
        ) = (first, second)
        {
            let mut op = op_base(h_addi_branch::<B>, pc, first);
            op.cond = cond;
            op.rd = rd;
            op.rs1 = rs1;
            op.imm = imm;
            op.rs1b = b1;
            op.rs2b = b2;
            op.imm2 = offset;
            stats.fused_addi_branch += 1;
            return Some((op, 2));
        }
    }
    None
}

fn lower_single<B: Bus>(pc: u32, instr: Instr, xpulp: bool) -> Op<B> {
    if !xpulp && instr.is_xpulp() {
        return op_base(h_illegal_xpulp::<B>, pc, instr);
    }
    match instr {
        Instr::Lui { rd, imm } => {
            let mut op = op_base(h_lui::<B>, pc, instr);
            op.rd = rd;
            op.imm = imm;
            op
        }
        Instr::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        } => {
            let mut op = op_base(h_addi::<B>, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.imm = imm;
            op
        }
        Instr::Alu {
            op: alu_op,
            rd,
            rs1,
            rs2,
        } if matches!(alu_op, AluOp::Add | AluOp::Sub | AluOp::Mul) => {
            let handler = match alu_op {
                AluOp::Add => h_add::<B>,
                AluOp::Sub => h_sub::<B>,
                _ => h_mul::<B>,
            };
            let mut op = op_base(handler, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.rs2 = rs2;
            op
        }
        Instr::Shift {
            op: shift_op,
            rd,
            rs1,
            shamt,
        } => {
            let handler = match shift_op {
                ShiftOp::Slli => h_slli::<B>,
                ShiftOp::Srli => h_srli::<B>,
                ShiftOp::Srai => h_srai::<B>,
            };
            let mut op = op_base(handler, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.imm = i32::from(shamt);
            op
        }
        Instr::Load {
            width: MemWidth::W,
            rd,
            rs1,
            offset,
        } => {
            let mut op = op_base(h_lw::<B>, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.imm = offset;
            op
        }
        Instr::Store {
            width: MemWidth::W,
            rs2,
            rs1,
            offset,
        } => {
            let mut op = op_base(h_sw::<B>, pc, instr);
            op.rs1 = rs1;
            op.rs2 = rs2;
            op.imm = offset;
            op
        }
        Instr::LoadPost {
            width: MemWidth::W,
            rd,
            rs1,
            offset,
        } => {
            let mut op = op_base(h_load_post_w::<B>, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.imm = offset;
            op
        }
        Instr::Mac { rd, rs1, rs2 } => {
            let mut op = op_base(h_mac::<B>, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.rs2 = rs2;
            op
        }
        Instr::Simd {
            op: SimdOp::SdotspH,
            rd,
            rs1,
            rs2,
        } => {
            let mut op = op_base(h_sdotsp::<B>, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.rs2 = rs2;
            op
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let mut op = op_base(h_branch::<B>, pc, instr);
            op.cond = cond;
            op.rs1 = rs1;
            op.rs2 = rs2;
            op.imm = offset;
            op
        }
        Instr::Jal { rd, offset } => {
            let mut op = op_base(h_jal::<B>, pc, instr);
            op.rd = rd;
            op.imm = offset;
            op
        }
        Instr::Jalr { rd, rs1, offset } => {
            let mut op = op_base(h_jalr::<B>, pc, instr);
            op.rd = rd;
            op.rs1 = rs1;
            op.imm = offset;
            op
        }
        Instr::Ecall | Instr::Ebreak => op_base(h_halt::<B>, pc, instr),
        _ => op_base(h_generic::<B>, pc, instr),
    }
}

// ---------------------------------------------------------------------
// Handlers. Each performs the exact architectural effects of the
// reference interpreter and retires through `Cpu::retire`.
// ---------------------------------------------------------------------

#[inline]
fn sdotsp(acc: u32, a: u32, b: u32) -> u32 {
    let (a0, a1) = (a as u16 as i16, (a >> 16) as u16 as i16);
    let (b0, b1) = (b as u16 as i16, (b >> 16) as u16 as i16);
    acc.wrapping_add(
        (i32::from(a0) * i32::from(b0)).wrapping_add(i32::from(a1) * i32::from(b1)) as u32,
    )
}

/// Executes one `p.lw rd, imm(rs1!)` sub-instruction and retires it.
#[inline]
fn sub_load_post_w<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    rd: Reg,
    rs1: Reg,
    offset: i32,
    t: &Timing,
    next_pc: u32,
) -> Result<MemAccess, CpuError> {
    let addr = cpu.reg(rs1);
    let v = cpu.mem_load(bus, addr, MemWidth::W)?;
    cpu.set_reg(rd, v);
    if rd != rs1 {
        cpu.set_reg(rs1, addr.wrapping_add(offset as u32));
    }
    cpu.retire(InstrClass::Load, t.load, next_pc, true);
    Ok(MemAccess {
        addr,
        write: false,
        width: MemWidth::W,
    })
}

fn h_lui<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    cpu.set_reg(op.rd, op.imm as u32);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.alu))
}

fn h_addi<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = cpu.reg(op.rs1).wrapping_add(op.imm as u32);
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.alu))
}

fn h_add<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = cpu.reg(op.rs1).wrapping_add(cpu.reg(op.rs2));
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.alu))
}

fn h_sub<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = cpu.reg(op.rs1).wrapping_sub(cpu.reg(op.rs2));
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.alu))
}

fn h_mul<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = cpu.reg(op.rs1).wrapping_mul(cpu.reg(op.rs2));
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Mul, t.mul, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.mul))
}

fn h_slli<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = cpu.reg(op.rs1) << op.imm;
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.alu))
}

fn h_srli<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = cpu.reg(op.rs1) >> op.imm;
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.alu))
}

fn h_srai<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = ((cpu.reg(op.rs1) as i32) >> op.imm) as u32;
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.alu))
}

fn h_lw<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let addr = cpu.reg(op.rs1).wrapping_add(op.imm as u32);
    let v = cpu.mem_load(bus, addr, MemWidth::W)?;
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Load, t.load, op.pc.wrapping_add(4), true);
    Ok(Exec {
        cycles: t.load,
        retired: 1,
        mem: Some(MemAccess {
            addr,
            write: false,
            width: MemWidth::W,
        }),
        mem_cycles: t.load,
        ..Exec::default()
    })
}

fn h_sw<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let addr = cpu.reg(op.rs1).wrapping_add(op.imm as u32);
    cpu.mem_store(bus, addr, MemWidth::W, cpu.reg(op.rs2))?;
    cpu.retire(InstrClass::Store, t.store, op.pc.wrapping_add(4), true);
    Ok(Exec {
        cycles: t.store,
        retired: 1,
        mem: Some(MemAccess {
            addr,
            write: true,
            width: MemWidth::W,
        }),
        mem_cycles: t.store,
        ..Exec::default()
    })
}

fn h_load_post_w<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let mem = sub_load_post_w(cpu, bus, op.rd, op.rs1, op.imm, t, op.pc.wrapping_add(4))?;
    Ok(Exec {
        cycles: t.load,
        retired: 1,
        mem: Some(mem),
        mem_cycles: t.load,
        ..Exec::default()
    })
}

fn h_mac<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = cpu
        .reg(op.rd)
        .wrapping_add(cpu.reg(op.rs1).wrapping_mul(cpu.reg(op.rs2)));
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Dsp, t.xpulp, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.xpulp))
}

fn h_sdotsp<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let v = sdotsp(cpu.reg(op.rd), cpu.reg(op.rs1), cpu.reg(op.rs2));
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Simd, t.xpulp, op.pc.wrapping_add(4), true);
    Ok(Exec::one(t.xpulp))
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

fn h_branch<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    if branch_taken(op.cond, cpu.reg(op.rs1), cpu.reg(op.rs2)) {
        cpu.retire(
            InstrClass::BranchTaken,
            t.branch_taken,
            op.pc.wrapping_add(op.imm as u32),
            true,
        );
        Ok(Exec::one(t.branch_taken))
    } else {
        cpu.retire(
            InstrClass::BranchNotTaken,
            t.branch_not_taken,
            op.pc.wrapping_add(4),
            true,
        );
        Ok(Exec::one(t.branch_not_taken))
    }
}

fn h_jal<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    cpu.set_reg(op.rd, op.pc.wrapping_add(4));
    cpu.retire(
        InstrClass::Jump,
        t.jump,
        op.pc.wrapping_add(op.imm as u32),
        false,
    );
    Ok(Exec::one(t.jump))
}

fn h_jalr<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let target = cpu.reg(op.rs1).wrapping_add(op.imm as u32) & !1;
    cpu.set_reg(op.rd, op.pc.wrapping_add(4));
    cpu.retire(InstrClass::Jump, t.jump, target, false);
    Ok(Exec::one(t.jump))
}

fn h_halt<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    cpu.halted = true;
    cpu.retire(InstrClass::System, t.alu, op.pc, true);
    Ok(Exec::one(t.alu))
}

fn h_illegal_xpulp<B: Bus>(
    _cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    _t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    Err(CpuError::IllegalXpulp { pc: op.pc })
}

fn h_generic<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    _budget: u64,
) -> Result<Exec, CpuError> {
    let (cycles, mem) = cpu.execute(op.instr, op.pc, bus, t)?;
    Ok(Exec {
        cycles,
        retired: 1,
        mem,
        mem_cycles: cycles,
        ..Exec::default()
    })
}

// ---- Fused handlers -------------------------------------------------
//
// Between sub-instructions each handler re-checks (a) the cycle budget,
// because the reference interpreter tests the limit after every
// instruction, and (b) that `pc` still points at the next
// sub-instruction, because a hardware-loop back edge can redirect
// mid-pattern. Either condition returns a partial `Exec`; the dispatch
// loop re-enters at the architecturally-correct pc.

fn h_lp_lp_sdotsp<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    budget: u64,
) -> Result<Exec, CpuError> {
    let mut e = Exec::default();
    let m1 = sub_load_post_w(cpu, bus, op.rd, op.rs1, op.imm, t, op.pc.wrapping_add(4))?;
    e.cycles = t.load;
    e.retired = 1;
    e.mem = Some(m1);
    e.mem_cycles = t.load;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(4) {
        return Ok(e);
    }
    let m2 = sub_load_post_w(cpu, bus, op.rd2, op.rs1b, op.imm2, t, op.pc.wrapping_add(8))?;
    e.cycles += t.load;
    e.retired = 2;
    e.mem2 = Some(m2);
    e.mem2_cycles = t.load;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(8) {
        return Ok(e);
    }
    let v = sdotsp(cpu.reg(op.rd3), cpu.reg(op.rs1c), cpu.reg(op.rs2c));
    cpu.set_reg(op.rd3, v);
    cpu.retire(InstrClass::Simd, t.xpulp, op.pc.wrapping_add(12), true);
    e.cycles += t.xpulp;
    e.retired = 3;
    Ok(e)
}

fn h_lp_lp<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    budget: u64,
) -> Result<Exec, CpuError> {
    let mut e = Exec::default();
    let m1 = sub_load_post_w(cpu, bus, op.rd, op.rs1, op.imm, t, op.pc.wrapping_add(4))?;
    e.cycles = t.load;
    e.retired = 1;
    e.mem = Some(m1);
    e.mem_cycles = t.load;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(4) {
        return Ok(e);
    }
    let m2 = sub_load_post_w(cpu, bus, op.rd2, op.rs1b, op.imm2, t, op.pc.wrapping_add(8))?;
    e.cycles += t.load;
    e.retired = 2;
    e.mem2 = Some(m2);
    e.mem2_cycles = t.load;
    Ok(e)
}

fn h_lp_sdotsp<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    budget: u64,
) -> Result<Exec, CpuError> {
    let mut e = Exec::default();
    let m1 = sub_load_post_w(cpu, bus, op.rd, op.rs1, op.imm, t, op.pc.wrapping_add(4))?;
    e.cycles = t.load;
    e.retired = 1;
    e.mem = Some(m1);
    e.mem_cycles = t.load;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(4) {
        return Ok(e);
    }
    let v = sdotsp(cpu.reg(op.rd2), cpu.reg(op.rs1b), cpu.reg(op.rs2b));
    cpu.set_reg(op.rd2, v);
    cpu.retire(InstrClass::Simd, t.xpulp, op.pc.wrapping_add(8), true);
    e.cycles += t.xpulp;
    e.retired = 2;
    Ok(e)
}

fn h_lp_mac<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    budget: u64,
) -> Result<Exec, CpuError> {
    let mut e = Exec::default();
    let m1 = sub_load_post_w(cpu, bus, op.rd, op.rs1, op.imm, t, op.pc.wrapping_add(4))?;
    e.cycles = t.load;
    e.retired = 1;
    e.mem = Some(m1);
    e.mem_cycles = t.load;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(4) {
        return Ok(e);
    }
    let v = cpu
        .reg(op.rd2)
        .wrapping_add(cpu.reg(op.rs1b).wrapping_mul(cpu.reg(op.rs2b)));
    cpu.set_reg(op.rd2, v);
    cpu.retire(InstrClass::Dsp, t.xpulp, op.pc.wrapping_add(8), true);
    e.cycles += t.xpulp;
    e.retired = 2;
    Ok(e)
}

fn h_mul_srai_add<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    budget: u64,
) -> Result<Exec, CpuError> {
    let mut e = Exec::default();
    let v = cpu.reg(op.rs1).wrapping_mul(cpu.reg(op.rs2));
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Mul, t.mul, op.pc.wrapping_add(4), true);
    e.cycles = t.mul;
    e.retired = 1;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(4) {
        return Ok(e);
    }
    let v = ((cpu.reg(op.rs1b) as i32) >> op.imm2) as u32;
    cpu.set_reg(op.rd2, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(8), true);
    e.cycles += t.alu;
    e.retired = 2;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(8) {
        return Ok(e);
    }
    let v = cpu.reg(op.rs1c).wrapping_add(cpu.reg(op.rs2c));
    cpu.set_reg(op.rd3, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(12), true);
    e.cycles += t.alu;
    e.retired = 3;
    Ok(e)
}

fn h_addi_branch<B: Bus>(
    cpu: &mut Cpu,
    _bus: &mut B,
    op: &Op<B>,
    t: &Timing,
    budget: u64,
) -> Result<Exec, CpuError> {
    let mut e = Exec::default();
    let v = cpu.reg(op.rs1).wrapping_add(op.imm as u32);
    cpu.set_reg(op.rd, v);
    cpu.retire(InstrClass::Alu, t.alu, op.pc.wrapping_add(4), true);
    e.cycles = t.alu;
    e.retired = 1;
    if u64::from(e.cycles) > budget || cpu.pc != op.pc.wrapping_add(4) {
        return Ok(e);
    }
    let branch_pc = op.pc.wrapping_add(4);
    if branch_taken(op.cond, cpu.reg(op.rs1b), cpu.reg(op.rs2b)) {
        cpu.retire(
            InstrClass::BranchTaken,
            t.branch_taken,
            branch_pc.wrapping_add(op.imm2 as u32),
            true,
        );
        e.cycles += t.branch_taken;
    } else {
        cpu.retire(
            InstrClass::BranchNotTaken,
            t.branch_not_taken,
            branch_pc.wrapping_add(4),
            true,
        );
        e.cycles += t.branch_not_taken;
    }
    e.retired = 2;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::bus::Ram;
    use crate::instr::LoopIdx;

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
        let mut cache = BlockCache::new(0, 4096, xpulp);
        let res = cpu.run_blocks(&mut ram_b, &timing, max_cycles, &mut cache);
        assert_eq!(outcome(&cpu, &res), outcome(&ref_cpu, &ref_res));
        assert_eq!(ram_b.read_bytes(0, 4096), ram_a.read_bytes(0, 4096));
    }

    fn dot_kernel() -> Asm {
        // The Network-B inner loop shape: hardware loop around
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
        let mut cache = BlockCache::new(0, 4096, true);
        let res = cpu.run_blocks(&mut ram_b, &timing, 100_000, &mut cache);
        assert_eq!(outcome(&cpu, &res), outcome(&ref_cpu, &ref_res));
        let stats = cache.stats();
        assert!(stats.fused_lp_lp_sdotsp >= 1, "{stats:?}");
        assert!(stats.fused_mul_srai_add >= 1, "{stats:?}");
        assert!(stats.hits > 0, "hardware loop should re-enter its block");
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
            let mut cache = BlockCache::new(0, 4096, true);
            let res = cpu.run_blocks(&mut ram_b, &timing, limit, &mut cache);
            assert_eq!(
                outcome(&cpu, &res),
                outcome(&ref_cpu, &ref_res),
                "limit = {limit}"
            );
        }
    }

    #[test]
    fn fault_mid_fused_op_matches_reference() {
        // Second p.lw reads a misaligned address: the first sub must
        // stay retired and the fault's pc must match the reference.
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
    fn self_modifying_store_demotes_block() {
        // Same shape as the DecodeCache SMC test: patch the *previous*
        // loop body instruction mid-run and require the next iteration
        // to see the new bytes.
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

        let run = |blocks: bool| {
            let mut ram = Ram::new(0, 4096);
            ram.write_bytes(0, &image);
            let mut cpu = Cpu::new(0);
            cpu.set_reg(Reg::T1, 0x08);
            cpu.set_reg(Reg::T2, patch_word);
            let res = if blocks {
                let mut cache = BlockCache::new(0, 4096, true);
                let r = cpu.run_blocks(&mut ram, &Timing::riscy(), 1_000_000, &mut cache);
                assert!(cache.stats().demotions > 0);
                assert!(cache.stats().exit_smc > 0);
                r
            } else {
                cpu.run(&mut ram, &Timing::riscy(), 1_000_000)
            }
            .unwrap();
            (cpu.reg(Reg::A0), res)
        };

        let (a0_ref, res_ref) = run(false);
        let (a0_blocks, res_blocks) = run(true);
        assert_eq!(a0_ref, 1 + 7);
        assert_eq!(a0_blocks, a0_ref);
        assert_eq!(res_blocks, res_ref);
    }

    #[test]
    fn ibex_rejects_xpulp_in_blocks() {
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 1);
        asm.mac(Reg::A0, Reg::A1, Reg::A2);
        asm.ecall();
        compare_against_reference(&asm, 1_000, false);
    }

    #[test]
    fn out_of_window_pc_falls_back() {
        let mut asm = Asm::new(0x100);
        asm.li(Reg::A0, 7);
        asm.ecall();
        let mut ram = Ram::new(0, 512);
        ram.write_bytes(0x100, &asm.assemble().unwrap());
        let mut cpu = Cpu::new(0x100);
        let mut cache = BlockCache::new(0, 64, true); // window ends at 0x40
        let res = cpu
            .run_blocks(&mut ram, &Timing::riscy(), 1_000, &mut cache)
            .unwrap();
        assert_eq!(cpu.reg(Reg::A0), 7);
        assert!(res.instructions > 0);
        assert_eq!(cache.stats().fallback_steps, res.instructions);
        assert_eq!(cache.stats().blocks_compiled, 0);
    }

    #[test]
    fn misaligned_spanning_store_demotes_both_blocks() {
        let mut cache: BlockCache<Ram> = BlockCache::new(0, 4096, true);
        let mut asm = Asm::new(0);
        asm.li(Reg::A0, 1);
        asm.ecall();
        let mut ram = Ram::new(0, 4096);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let b = cache.lookup(&mut ram, 0).unwrap();
        assert!(b.end() >= 8);
        // A word store at offset 2 touches words 0 and 4 — both belong
        // to the compiled block, which must be demoted (once).
        assert!(cache.invalidate_store(2, MemWidth::W));
        assert_eq!(cache.stats().demotions, 1);
        assert!(!cache.invalidate_store(2, MemWidth::W));
    }
}
