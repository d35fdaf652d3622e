//! PC-indexed cache of pre-decoded instructions.
//!
//! The fetch-and-decode reference pays a `fetch` + [`decode`] pair for
//! every *dynamic* instruction. A [`DecodeCache`] moves that cost to once
//! per *static* instruction: a direct-mapped array of decoded [`Instr`]
//! values spanning a word-aligned window of the program region, filled
//! lazily on first execution, executed one instruction per step through
//! [`Cpu::execute`](crate::Cpu::execute).
//!
//! It backs the instrumented single-core loops ([`Cpu::run_cached_sink`],
//! [`Cpu::run_traced`], [`Cpu::step_cached`]), which need a per-step hook.
//! Product runs dispatch a [`Program`](crate::Program) instead: one
//! pre-resolved, possibly fused op per PC.
//!
//! [`Cpu::run_cached_sink`]: crate::Cpu::run_cached_sink
//! [`Cpu::run_traced`]: crate::Cpu::run_traced
//! [`Cpu::step_cached`]: crate::Cpu::step_cached
//!
//! Coherence: callers must report every store through
//! [`DecodeCache::invalidate_store`], which drops every line whose word
//! the byte range `[addr, addr + width)` overlaps. The CPU itself only
//! issues naturally aligned stores (it faults otherwise), so a store
//! from *this* core touches one word — but the invalidation API takes
//! the width and walks the full span so that callers reporting writes
//! from other agents (a DMA engine, another cluster core with laxer
//! alignment) cannot leave a stale line behind. Stores outside the
//! window and program counters outside the window are both legal —
//! lookups simply miss and the caller falls back to fetch + decode.

use crate::bus::Bus;
use crate::cpu::CpuError;
use crate::decode::{decode, DecodeError};
use crate::instr::{Instr, MemWidth};

/// Direct-mapped cache of pre-decoded instructions over one program window.
///
/// # Examples
///
/// ```
/// use iw_rv32::{Cpu, DecodeCache, Ram, Timing, asm::Asm, Reg};
/// let mut asm = Asm::new(0);
/// asm.li(Reg::A0, 21);
/// asm.add(Reg::A0, Reg::A0, Reg::A0);
/// asm.ecall();
/// let mut ram = Ram::new(0, 64);
/// ram.write_bytes(0, &asm.assemble()?);
/// let mut cache = DecodeCache::new(0, 64);
/// let mut cpu = Cpu::new(0);
/// let run = cpu.run_cached(&mut ram, &Timing::riscy(), 1_000, &mut cache)?;
/// assert_eq!(cpu.reg(Reg::A0), 42);
/// assert!(run.instructions > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecodeCache {
    base: u32,
    lines: Vec<Option<Instr>>,
}

impl DecodeCache {
    /// Largest window a cache will allocate, in bytes (1 Mi instructions).
    pub const MAX_WINDOW: u32 = 4 << 20;

    /// Creates a cache covering `[base, base + len)`, rounded to word
    /// boundaries and capped at [`DecodeCache::MAX_WINDOW`] bytes.
    #[must_use]
    pub fn new(base: u32, len: u32) -> DecodeCache {
        let base = base & !3;
        let len = len.min(Self::MAX_WINDOW).min(u32::MAX - base);
        DecodeCache {
            base,
            lines: vec![None; (len / 4) as usize],
        }
    }

    /// Start of the covered window.
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// `true` if `addr` falls inside the covered window.
    #[must_use]
    pub fn covers(&self, addr: u32) -> bool {
        self.line_index(addr).is_some()
    }

    #[inline]
    fn line_index(&self, addr: u32) -> Option<usize> {
        let off = addr.checked_sub(self.base)? / 4;
        ((off as usize) < self.lines.len()).then_some(off as usize)
    }

    /// Cached instruction at `pc`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, pc: u32) -> Option<Instr> {
        // Hot path: a wrapping subtract sends out-of-window pcs (including
        // pc < base) past `lines.len()`, folding the window test into the
        // slice bounds check.
        if pc & 3 != 0 {
            return None;
        }
        let off = (pc.wrapping_sub(self.base) / 4) as usize;
        self.lines.get(off).copied().flatten()
    }

    /// Returns the instruction at `pc`, decoding and caching on a miss.
    ///
    /// Program counters outside the window fall back to a plain
    /// fetch + decode without being cached.
    ///
    /// # Errors
    ///
    /// Propagates fetch faults and decode errors (tagged with `pc`).
    #[inline]
    pub fn fetch_decode<B: Bus>(&mut self, bus: &mut B, pc: u32) -> Result<Instr, CpuError> {
        if let Some(instr) = self.get(pc) {
            return Ok(instr);
        }
        let word = bus.fetch(pc)?;
        let instr = decode(word).map_err(|e| {
            CpuError::Decode(DecodeError {
                addr: Some(pc),
                ..e
            })
        })?;
        if pc.is_multiple_of(4) {
            if let Some(i) = self.line_index(pc) {
                self.lines[i] = Some(instr);
            }
        }
        Ok(instr)
    }

    /// Invalidates every line whose word a store of `width` bytes at
    /// `addr` touched.
    ///
    /// The byte range `[addr, addr + width)` can straddle a word boundary
    /// when the store is not naturally aligned (writes reported on behalf
    /// of other agents — the CPU's own stores fault on misalignment), so
    /// both the first and the last covered word are dropped; stores
    /// outside the window are no-ops. Returns whether a populated line
    /// was actually dropped — the trace layer uses this to emit
    /// invalidation instants only for stores that really punched a hole
    /// in the pre-decoded window.
    pub fn invalidate_store(&mut self, addr: u32, width: MemWidth) -> bool {
        let first = addr & !3;
        let last = addr.wrapping_add(width.bytes() - 1) & !3;
        let mut dropped = false;
        if let Some(i) = self.line_index(first) {
            dropped |= self.lines[i].take().is_some();
        }
        if last != first {
            if let Some(i) = self.line_index(last) {
                dropped |= self.lines[i].take().is_some();
            }
        }
        dropped
    }

    /// Drops every cached line.
    pub fn invalidate_all(&mut self) {
        self.lines.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::bus::Ram;
    use crate::instr::Reg;

    #[test]
    fn fills_lazily_and_hits() {
        let mut asm = Asm::new(0);
        asm.addi(Reg::A0, Reg::ZERO, 5);
        asm.ecall();
        let mut ram = Ram::new(0, 64);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cache = DecodeCache::new(0, 64);
        assert_eq!(cache.get(0), None);
        let i0 = cache.fetch_decode(&mut ram, 0).unwrap();
        assert_eq!(cache.get(0), Some(i0));
    }

    #[test]
    fn store_invalidates_single_line() {
        let mut asm = Asm::new(0);
        asm.addi(Reg::A0, Reg::ZERO, 5);
        asm.addi(Reg::A1, Reg::ZERO, 6);
        let mut ram = Ram::new(0, 64);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cache = DecodeCache::new(0, 64);
        cache.fetch_decode(&mut ram, 0).unwrap();
        cache.fetch_decode(&mut ram, 4).unwrap();
        // Byte store into the first word only drops that line.
        cache.invalidate_store(1, MemWidth::B);
        assert_eq!(cache.get(0), None);
        assert!(cache.get(4).is_some());
    }

    #[test]
    fn misaligned_store_invalidates_both_spanned_words() {
        // A word store at offset 2 overlaps bytes of words 0 and 4: both
        // cached lines must drop, or a stale decode of the second word
        // would survive the patch.
        let mut asm = Asm::new(0);
        asm.addi(Reg::A0, Reg::ZERO, 5);
        asm.addi(Reg::A1, Reg::ZERO, 6);
        let mut ram = Ram::new(0, 64);
        ram.write_bytes(0, &asm.assemble().unwrap());
        let mut cache = DecodeCache::new(0, 64);
        cache.fetch_decode(&mut ram, 0).unwrap();
        cache.fetch_decode(&mut ram, 4).unwrap();
        assert!(cache.invalidate_store(2, MemWidth::W));
        assert_eq!(cache.get(0), None);
        assert_eq!(cache.get(4), None);
    }

    #[test]
    fn spanning_store_at_window_edge_invalidates_inside_part() {
        let mut asm = Asm::new(0);
        asm.addi(Reg::A0, Reg::ZERO, 5);
        let mut ram = Ram::new(0, 64);
        ram.write_bytes(60, &asm.assemble().unwrap());
        let mut cache = DecodeCache::new(0, 64);
        cache.fetch_decode(&mut ram, 60).unwrap();
        // Spans the last cached word and the first word past the window.
        assert!(cache.invalidate_store(62, MemWidth::W));
        assert_eq!(cache.get(60), None);
    }

    #[test]
    fn out_of_window_pc_falls_back_uncached() {
        let mut asm = Asm::new(0x100);
        asm.addi(Reg::A0, Reg::ZERO, 5);
        let mut ram = Ram::new(0, 512);
        ram.write_bytes(0x100, &asm.assemble().unwrap());
        let mut cache = DecodeCache::new(0, 64); // window ends at 0x40
        assert!(!cache.covers(0x100));
        let instr = cache.fetch_decode(&mut ram, 0x100).unwrap();
        assert_eq!(cache.get(0x100), None, "fallback must not cache");
        assert_eq!(
            instr,
            crate::decode::decode(ram.load(0x100, crate::MemWidth::W).unwrap()).unwrap()
        );
    }

    #[test]
    fn misaligned_pc_is_never_cached() {
        let cache = DecodeCache::new(0, 64);
        assert_eq!(cache.get(2), None);
    }

    #[test]
    fn window_is_capped() {
        let cache = DecodeCache::new(0, u32::MAX);
        assert_eq!(cache.lines.len(), (DecodeCache::MAX_WINDOW / 4) as usize);
    }
}
