//! Memory-bus abstraction used by the CPU core.

use crate::instr::MemWidth;

/// Error for an access that no device claims or that a device rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusError {
    /// Faulting address.
    pub addr: u32,
    /// `true` for stores, `false` for loads/fetches.
    pub write: bool,
}

impl core::fmt::Display for BusError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "bus fault: {} at {:#010x}",
            if self.write { "store" } else { "load" },
            self.addr
        )
    }
}

impl std::error::Error for BusError {}

/// A data/instruction bus.
///
/// Loads return the raw (zero-extended) bytes; sign extension is performed by
/// the CPU. Implementations can be passed as `&mut B` thanks to the blanket
/// impl for mutable references.
///
/// The op program ([`Program`](crate::Program)) issues its data accesses
/// through the timed forms ([`Bus::load_timed`], [`Bus::store_timed`]),
/// so a bus with a memory system charges latency and arbitration per
/// access. Where a memory's per-access cost is fixed, [`Bus::span`] hands
/// out a whole span of it at once: the dot-product loop ops then run a
/// whole row over borrowed slices and charge its cycles in closed form.
pub trait Bus {
    /// Reads `width.bytes()` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the address is unmapped.
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError>;

    /// Writes the low `width.bytes()` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the address is unmapped or read-only.
    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError>;

    /// Instruction fetch. Defaults to a plain word load; timing models treat
    /// fetches as free (warm-cache assumption, as in the paper's
    /// measurements).
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the address is unmapped.
    fn fetch(&mut self, addr: u32) -> Result<u32, BusError> {
        self.load(addr, MemWidth::W)
    }

    /// Timed data load, used by the [`Program`](crate::Program)
    /// dispatcher: performs the load and returns the raw bytes plus the
    /// access's cycle cost, given the instruction's base cost `base` and
    /// its issue time `at` on the caller's clock. Buses with a memory
    /// system (latency, arbitration stalls) charge it here, once per
    /// access. Defaults to the base cost.
    ///
    /// # Errors
    ///
    /// Same as [`Bus::load`].
    #[inline(always)]
    fn load_timed(
        &mut self,
        addr: u32,
        width: MemWidth,
        base: u32,
        at: u64,
    ) -> Result<(u32, u32), BusError> {
        let _ = at;
        Ok((self.load(addr, width)?, base))
    }

    /// Timed data store: the store counterpart of [`Bus::load_timed`];
    /// returns the access's cycle cost.
    ///
    /// # Errors
    ///
    /// Same as [`Bus::store`].
    #[inline(always)]
    fn store_timed(
        &mut self,
        addr: u32,
        width: MemWidth,
        value: u32,
        base: u32,
        at: u64,
    ) -> Result<u32, BusError> {
        let _ = at;
        self.store(addr, width, value)?;
        Ok(base)
    }

    /// The `len` bytes at `addr` as one borrowed slice, plus the cost each
    /// [`Bus::load_timed`] of an access inside them would charge given the
    /// base cost `base`, when the whole span lies in one memory whose
    /// access cost does not depend on issue time. A loop op that reads only
    /// such spans can run a whole row over them and charge its cycles in
    /// closed form. `None` otherwise, and by default: the caller then
    /// issues every access through [`Bus::load_timed`].
    #[inline(always)]
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        let _ = (addr, len, base);
        None
    }
}

impl<B: Bus + ?Sized> Bus for &mut B {
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        (**self).load(addr, width)
    }
    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError> {
        (**self).store(addr, width, value)
    }
    fn fetch(&mut self, addr: u32) -> Result<u32, BusError> {
        (**self).fetch(addr)
    }
    fn load_timed(
        &mut self,
        addr: u32,
        width: MemWidth,
        base: u32,
        at: u64,
    ) -> Result<(u32, u32), BusError> {
        (**self).load_timed(addr, width, base, at)
    }
    fn store_timed(
        &mut self,
        addr: u32,
        width: MemWidth,
        value: u32,
        base: u32,
        at: u64,
    ) -> Result<u32, BusError> {
        (**self).store_timed(addr, width, value, base, at)
    }
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        (**self).span(addr, len, base)
    }
}

/// A flat RAM region with a base address.
///
/// # Examples
///
/// ```
/// use iw_rv32::{Bus, Ram, MemWidth};
/// let mut ram = Ram::new(0x1000, 64);
/// ram.store(0x1008, MemWidth::W, 0xdead_beef)?;
/// assert_eq!(ram.load(0x1008, MemWidth::Hu)?, 0xbeef);
/// # Ok::<(), iw_rv32::BusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ram {
    base: u32,
    data: Vec<u8>,
}

impl Ram {
    /// Creates a zero-filled RAM of `size` bytes starting at `base`.
    #[must_use]
    pub fn new(base: u32, size: usize) -> Ram {
        Ram {
            base,
            data: vec![0; size],
        }
    }

    /// Base address of the region.
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size of the region in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Whether `addr` (for an access of `len` bytes) lies inside the region.
    #[must_use]
    pub fn contains(&self, addr: u32, len: u32) -> bool {
        addr >= self.base && (addr - self.base) as usize + len as usize <= self.data.len()
    }

    /// Copies `bytes` into the RAM starting at absolute address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the region.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let off = (addr - self.base) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads `len` bytes starting at absolute address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the region.
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.data[off..off + len]
    }
}

impl Bus for Ram {
    #[inline]
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        // Little-endian, zero-extended.
        let tail = addr
            .checked_sub(self.base)
            .and_then(|off| self.data.get(off as usize..));
        tail.and_then(|b| match width {
            MemWidth::B | MemWidth::Bu => b.first().map(|&x| u32::from(x)),
            MemWidth::H | MemWidth::Hu => {
                b.first_chunk().map(|&h| u32::from(u16::from_le_bytes(h)))
            }
            MemWidth::W => b.first_chunk().map(|&w| u32::from_le_bytes(w)),
        })
        .ok_or(BusError { addr, write: false })
    }

    #[inline]
    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError> {
        let tail = addr
            .checked_sub(self.base)
            .and_then(|off| self.data.get_mut(off as usize..));
        tail.and_then(|b| match width {
            MemWidth::B | MemWidth::Bu => b.first_mut().map(|x| *x = value as u8),
            MemWidth::H | MemWidth::Hu => b
                .first_chunk_mut()
                .map(|h| *h = (value as u16).to_le_bytes()),
            MemWidth::W => b.first_chunk_mut().map(|w| *w = value.to_le_bytes()),
        })
        .ok_or(BusError { addr, write: true })
    }

    /// Every span inside the region, at the base cost.
    #[inline]
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        let off = addr.checked_sub(self.base)? as usize;
        let bytes = self.data.get(off..off.checked_add(len as usize)?)?;
        Some((bytes, base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_roundtrip_little_endian() {
        let mut ram = Ram::new(0, 16);
        ram.store(0, MemWidth::W, 0x0403_0201).unwrap();
        assert_eq!(ram.load(0, MemWidth::B).unwrap(), 0x01);
        assert_eq!(ram.load(1, MemWidth::B).unwrap(), 0x02);
        assert_eq!(ram.load(2, MemWidth::Hu).unwrap(), 0x0403);
    }

    #[test]
    fn ram_out_of_range_faults() {
        let mut ram = Ram::new(0x100, 8);
        assert!(ram.load(0x0, MemWidth::W).is_err());
        assert!(ram.load(0x106, MemWidth::W).is_err());
        assert!(ram.store(0x108, MemWidth::B, 0).is_err());
        assert!(ram.load(0x104, MemWidth::W).is_ok());
    }

    #[test]
    fn ram_spans_only_inside_the_region() {
        let mut ram = Ram::new(0x100, 16);
        ram.write_bytes(0x100, &(0u8..16).collect::<Vec<_>>());
        // At the base, and ending exactly at the end, at the base cost.
        assert_eq!(
            ram.span(0x100, 8, 3),
            Some((&[0, 1, 2, 3, 4, 5, 6, 7][..], 3))
        );
        assert_eq!(
            ram.span(0x108, 8, 1),
            Some((&[8, 9, 10, 11, 12, 13, 14, 15][..], 1))
        );
        assert_eq!(ram.span(0x100, 16, 1).map(|(b, _)| b.len()), Some(16));
        // Empty, at the end included.
        assert_eq!(ram.span(0x104, 0, 1), Some((&[][..], 1)));
        assert_eq!(ram.span(0x110, 0, 1), Some((&[][..], 1)));
        // One byte past the end, from below the base, and past the end of
        // the address space.
        assert_eq!(ram.span(0x109, 8, 1), None);
        assert_eq!(ram.span(0x111, 0, 1), None);
        assert_eq!(ram.span(0xfc, 8, 1), None);
        assert_eq!(ram.span(0x108, u32::MAX, 1), None);
        let top = Ram::new(0xffff_fff0, 16);
        assert_eq!(top.span(0xffff_fff8, 8, 1).map(|(b, _)| b.len()), Some(8));
        assert_eq!(top.span(0xffff_fff8, 12, 1), None);
        // Through the impl for mutable references too.
        let by_ref = &mut ram;
        assert_eq!(
            <&mut Ram as Bus>::span(&by_ref, 0x10c, 4, 2),
            Some((&[12, 13, 14, 15][..], 2))
        );
    }

    #[test]
    fn write_read_bytes() {
        let mut ram = Ram::new(0x10, 8);
        ram.write_bytes(0x12, &[1, 2, 3]);
        assert_eq!(ram.read_bytes(0x12, 3), &[1, 2, 3]);
    }
}
