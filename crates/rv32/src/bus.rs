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
    /// Panics, naming the address, the length and the region, if the
    /// range falls outside the region.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let range = self.offsets(addr, bytes.len());
        self.data[range].copy_from_slice(bytes);
    }

    /// Reads `len` bytes starting at absolute address `addr`.
    ///
    /// # Panics
    ///
    /// Panics, naming the address, the length and the region, if the
    /// range falls outside the region.
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        &self.data[self.offsets(addr, len)]
    }

    /// The offsets of the `len` bytes at `addr` into the region, checked
    /// in every build profile.
    fn offsets(&self, addr: u32, len: usize) -> std::ops::Range<usize> {
        addr.checked_sub(self.base)
            .and_then(|off| Some(off as usize..(off as usize).checked_add(len)?))
            .filter(|range| range.end <= self.data.len())
            .unwrap_or_else(|| {
                panic!(
                    "{len} bytes at {addr:#x} fall outside the RAM at {:#x}..{:#x}",
                    self.base,
                    u64::from(self.base) + self.data.len() as u64
                )
            })
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

/// A read-only region of `size` bytes at `base` whose content is a set
/// of borrowed, non-overlapping pieces, and 0 elsewhere: a flash image,
/// say, or the bytes an L2 starts with. Loads read it; stores fault.
///
/// # Examples
///
/// ```
/// use iw_rv32::{Bus, MemWidth, Rom};
/// let program = [1, 2, 3, 4];
/// let mut rom = Rom::new(0x1000, 64, vec![(0x1010, &program[..])])?;
/// assert_eq!(rom.load(0x1010, MemWidth::W)?, 0x0403_0201);
/// assert_eq!(rom.load(0x1014, MemWidth::W)?, 0);
/// assert!(rom.store(0x1010, MemWidth::W, 0).is_err());
/// assert!(rom.load(0x1040, MemWidth::B).is_err());
/// # Ok::<(), iw_rv32::BusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Rom<'a> {
    base: u32,
    size: usize,
    /// In address order.
    pieces: Vec<(u32, &'a [u8])>,
}

impl<'a> Rom<'a> {
    /// A region of `size` bytes at `base` that holds `pieces`, each
    /// `(address, bytes)`, and 0 elsewhere.
    ///
    /// # Errors
    ///
    /// A [`BusError`] store at the first piece, in address order, that
    /// does not lie whole inside the region or that overlaps the one
    /// before it.
    pub fn new(
        base: u32,
        size: usize,
        mut pieces: Vec<(u32, &'a [u8])>,
    ) -> Result<Rom<'a>, BusError> {
        pieces.sort_by_key(|&(addr, _)| addr);
        let end = u64::from(base) + size as u64;
        let mut free = u64::from(base);
        for &(addr, bytes) in &pieces {
            let piece_end = u64::from(addr) + bytes.len() as u64;
            if u64::from(addr) < free || piece_end > end {
                return Err(BusError { addr, write: true });
            }
            free = piece_end;
        }
        Ok(Rom { base, size, pieces })
    }

    /// The region's content copied into a RAM of the same place and size.
    #[must_use]
    pub fn to_ram(&self) -> Ram {
        let mut ram = Ram::new(self.base, self.size);
        for &(addr, bytes) in &self.pieces {
            ram.write_bytes(addr, bytes);
        }
        ram
    }

    /// The bytes from `addr` to the end of the piece that holds it: the
    /// last piece, in address order, that starts at or below `addr`
    /// (empty at its very end, `None` past it).
    #[inline(always)]
    #[must_use]
    pub fn piece_from(&self, addr: u32) -> Option<&'a [u8]> {
        for &(at, bytes) in self.pieces.iter().rev() {
            if let Some(off) = addr.checked_sub(at) {
                return bytes.get(off as usize..);
            }
        }
        None
    }

    /// A load of `len` bytes at `addr` assembled byte by byte: each from
    /// the piece that holds it, else 0; a fault unless the region holds
    /// the whole access. Off the hot path: kernels load inside pieces.
    #[cold]
    #[inline(never)]
    fn load_bytewise(&self, addr: u32, len: u32) -> Result<u32, BusError> {
        let fault = BusError { addr, write: false };
        let off = addr.checked_sub(self.base).ok_or(fault)? as usize;
        if off + len as usize > self.size {
            return Err(fault);
        }
        let mut word = [0u8; 4];
        for (i, byte) in word.iter_mut().take(len as usize).enumerate() {
            if let Some(&b) = self.piece_from(addr + i as u32).and_then(<[u8]>::first) {
                *byte = b;
            }
        }
        Ok(u32::from_le_bytes(word))
    }
}

impl Bus for Rom<'_> {
    /// Always inlined, with the byte-by-byte fallback kept out of line: a
    /// cluster's bus loads its weights through it one access at a time.
    #[inline(always)]
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        let bytes = self.piece_from(addr).unwrap_or_default();
        let value = match width {
            MemWidth::B | MemWidth::Bu => bytes.first().map(|&b| u32::from(b)),
            MemWidth::H | MemWidth::Hu => bytes
                .first_chunk()
                .map(|&h| u32::from(u16::from_le_bytes(h))),
            MemWidth::W => bytes.first_chunk().map(|&w| u32::from_le_bytes(w)),
        };
        match value {
            Some(value) => Ok(value),
            None => self.load_bytewise(addr, width.bytes()),
        }
    }

    /// Every store faults: the region is read-only.
    fn store(&mut self, addr: u32, _: MemWidth, _: u32) -> Result<(), BusError> {
        Err(BusError { addr, write: true })
    }

    /// Spans inside one piece, at the base cost.
    #[inline]
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        Some((self.piece_from(addr)?.get(..len as usize)?, base))
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
        // Ending exactly at the end, and empty at the end.
        ram.write_bytes(0x15, &[4, 5, 6]);
        assert_eq!(ram.read_bytes(0x12, 6), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(ram.read_bytes(0x18, 0), &[] as &[u8]);
    }

    #[test]
    #[should_panic(expected = "2 bytes at 0xe fall outside the RAM at 0x10..0x18")]
    fn write_bytes_below_the_base_panics() {
        Ram::new(0x10, 8).write_bytes(0xe, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "4 bytes at 0x16 fall outside the RAM at 0x10..0x18")]
    fn read_bytes_past_the_end_panics() {
        let _ = Ram::new(0x10, 8).read_bytes(0x16, 4);
    }

    #[test]
    #[should_panic(expected = "fall outside the RAM at 0xfffffff0..0x100000000")]
    fn read_bytes_past_the_address_space_panics() {
        let _ = Ram::new(0xffff_fff0, 16).read_bytes(0xffff_fff8, usize::MAX);
    }

    #[test]
    fn rom_reads_its_pieces_and_zero_between_them() {
        let (low, high) = ([1u8, 2, 3, 4, 5, 6], [9u8, 10, 11, 12]);
        let pieces = vec![(0x120, &high[..]), (0x100, &low[..])];
        let mut rom = Rom::new(0x100, 0x40, pieces).unwrap();
        let ram = rom.to_ram();
        // Each load reads what the copy holds: inside a piece, across a
        // piece's end, between pieces and at the region's end.
        for addr in [0x100, 0x102, 0x104, 0x106, 0x11e, 0x120, 0x122, 0x13c] {
            for width in [MemWidth::Bu, MemWidth::Hu, MemWidth::W] {
                let copy = ram.clone().load(addr, width);
                assert_eq!(rom.load(addr, width), copy, "{addr:#x} {width:?}");
            }
        }
        assert_eq!(rom.load(0x104, MemWidth::W), Ok(0x0605));
        assert_eq!(rom.load(0x11e, MemWidth::W), Ok(0x0a09_0000));
        for addr in [0xfc, 0x13e, 0x140] {
            assert!(rom.load(addr, MemWidth::W).is_err(), "{addr:#x}");
        }
        for addr in [0x100, 0x110, 0x140] {
            let fault = BusError { addr, write: true };
            assert_eq!(rom.store(addr, MemWidth::B, 0), Err(fault));
        }
    }

    #[test]
    fn rom_lends_only_inside_one_piece() {
        let bytes: Vec<u8> = (0..16).collect();
        let rom = Rom::new(0x100, 0x100, vec![(0x140, &bytes[..])]).unwrap();
        assert_eq!(rom.span(0x140, 16, 3), Some((&bytes[..], 3)));
        assert_eq!(rom.span(0x14c, 4, 3), Some((&bytes[12..], 3)));
        assert_eq!(rom.span(0x150, 0, 3), Some((&[][..], 3)));
        assert_eq!(rom.span(0x14c, 8, 3), None);
        assert_eq!(rom.span(0x13c, 8, 3), None);
        assert_eq!(rom.span(0x100, 4, 3), None);
        assert_eq!(rom.piece_from(0x144), Some(&bytes[4..]));
        assert_eq!(rom.piece_from(0x100), None);
    }

    #[test]
    fn rom_pieces_must_fit_and_not_overlap() {
        let bytes = [0u8; 8];
        let at = |addr| Rom::new(0x100, 0x40, vec![(addr, &bytes[..])]).err();
        let fault = |addr| Some(BusError { addr, write: true });
        assert_eq!(at(0x138), None);
        assert_eq!(at(0x13c), fault(0x13c));
        assert_eq!(at(0xfc), fault(0xfc));
        let pieces = |a, b| Rom::new(0x100, 0x40, vec![(a, &bytes[..]), (b, &bytes[..])]).err();
        assert_eq!(pieces(0x104, 0x100), fault(0x104));
        assert_eq!(pieces(0x108, 0x100), None);
    }
}
