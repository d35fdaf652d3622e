//! Mr. Wolf's L2 memory, served from a borrowed image until a store.

use iw_rv32::{Bus, BusError, MemWidth, Ram, Rom};

use crate::memmap::{L2_BASE, L2_SIZE};

/// What can back Mr. Wolf's L2 on the fabric controller's and the
/// cluster's buses: a [`Bus`] that also lends the bytes word loads from an
/// address upwards read (the cluster's period skip folds whole streams of
/// them). A plain [`Ram`] can, and so can an [`L2`].
pub trait L2Memory: Bus {
    /// The bytes from `addr` up to `end` at most, as far as this memory
    /// lends them in one slice: what word loads from `addr` upwards read.
    /// Empty where it holds nothing at `addr`.
    fn stream(&self, addr: u32, end: u32) -> &[u8];
}

impl L2Memory for Ram {
    fn stream(&self, addr: u32, end: u32) -> &[u8] {
        let ram_end = u64::from(self.base()) + self.size() as u64;
        let len = u64::from(end).min(ram_end).saturating_sub(u64::from(addr));
        self.span(addr, len as u32, 0)
            .map_or(&[], |(bytes, _)| bytes)
    }
}

/// Mr. Wolf's 512 KiB L2 at [`L2_BASE`].
///
/// It starts as a [`Rom`] image of borrowed, non-overlapping pieces (a
/// program and its weights, say) that reads 0 outside them. The first
/// store, or [`L2::ram_mut`], copies the image into an owned RAM, which
/// serves every access from then on. Both read the same bytes, so a run
/// cannot tell them apart, and a run that never stores to L2 never copies
/// it.
///
/// # Examples
///
/// ```
/// use iw_mrwolf::{memmap::L2_BASE, L2};
/// use iw_rv32::{Bus, MemWidth};
///
/// let program = [0x13, 0, 0, 0];
/// let mut l2 = L2::with_image(vec![(L2_BASE, &program[..])])?;
/// assert_eq!(l2.load(L2_BASE, MemWidth::W)?, 0x13);
/// assert_eq!(l2.load(L2_BASE + 4, MemWidth::W)?, 0);
/// assert!(!l2.is_copied());
/// l2.store(L2_BASE + 4, MemWidth::W, 7)?;
/// assert!(l2.is_copied());
/// assert_eq!(l2.load(L2_BASE, MemWidth::W)?, 0x13);
/// # Ok::<(), iw_rv32::BusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct L2<'a> {
    image: Rom<'a>,
    /// The owned copy, once a store made it.
    ram: Option<Ram>,
}

impl Default for L2<'static> {
    fn default() -> L2<'static> {
        L2::new()
    }
}

impl L2<'static> {
    /// A zeroed L2.
    #[must_use]
    pub fn new() -> L2<'static> {
        L2::with_image(Vec::new()).expect("an empty image fits the L2")
    }
}

impl<'a> L2<'a> {
    /// An L2 that holds `pieces`, each `(address, bytes)`, and 0 elsewhere.
    ///
    /// # Errors
    ///
    /// As [`Rom::new`]: a piece outside the L2 or overlapping another.
    pub fn with_image(pieces: Vec<(u32, &'a [u8])>) -> Result<L2<'a>, BusError> {
        Ok(L2 {
            image: Rom::new(L2_BASE, L2_SIZE, pieces)?,
            ram: None,
        })
    }

    /// Whether a store (or [`L2::ram_mut`]) has copied the image into an
    /// owned RAM.
    #[must_use]
    pub fn is_copied(&self) -> bool {
        self.ram.is_some()
    }

    /// The owned RAM, copying the image into it first if nothing has yet.
    pub fn ram_mut(&mut self) -> &mut Ram {
        let image = &self.image;
        self.ram.get_or_insert_with(|| image.to_ram())
    }
}

impl Bus for L2<'_> {
    /// Always inlined: the 8-core cluster loads its L2 weights through it
    /// one access at a time.
    #[inline(always)]
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        match &mut self.ram {
            Some(ram) => ram.load(addr, width),
            None => self.image.load(addr, width),
        }
    }

    /// Copies the image on the first store, then stores into the copy.
    #[inline]
    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError> {
        self.ram_mut().store(addr, width, value)
    }

    /// Spans inside the owned RAM or inside one piece of the image, at
    /// the base cost.
    #[inline]
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        match &self.ram {
            Some(ram) => ram.span(addr, len, base),
            None => self.image.span(addr, len, base),
        }
    }
}

impl L2Memory for L2<'_> {
    fn stream(&self, addr: u32, end: u32) -> &[u8] {
        if let Some(ram) = &self.ram {
            return ram.stream(addr, end);
        }
        let bytes = self.image.piece_from(addr).unwrap_or_default();
        let len = u64::from(end).saturating_sub(u64::from(addr));
        &bytes[..bytes.len().min(usize::try_from(len).unwrap_or(usize::MAX))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const END: u32 = L2_BASE + L2_SIZE as u32;

    #[test]
    fn the_image_reads_like_its_copy() {
        let (program, weights) = ([1u8, 2, 3, 4, 5, 6, 7, 8], [9u8, 10, 11, 12]);
        let pieces = vec![(L2_BASE + 0x100, &weights[..]), (L2_BASE, &program[..])];
        let mut image = L2::with_image(pieces).unwrap();
        let mut copy = image.clone();
        copy.ram_mut();
        assert!(copy.is_copied() && !image.is_copied());
        let addrs = [
            L2_BASE,
            L2_BASE + 2,
            L2_BASE + 6,
            L2_BASE + 8,
            L2_BASE + 0xfe,
        ];
        for addr in addrs.into_iter().chain([L2_BASE + 0x100, END - 4, END - 1]) {
            for width in [MemWidth::Bu, MemWidth::Hu, MemWidth::W] {
                assert_eq!(
                    image.load(addr, width),
                    copy.load(addr, width),
                    "{addr:#x} {width:?}"
                );
            }
            for end in [addr + 4, addr + 0x200, END] {
                let (a, b) = (image.stream(addr, end), copy.stream(addr, end));
                // The image lends its pieces only; where it does, the
                // copy lends the same bytes and maybe more.
                assert_eq!(a, &b[..a.len()], "{addr:#x}..{end:#x}");
            }
        }
        assert_eq!(image.load(L2_BASE + 6, MemWidth::W), Ok(0x0807));
        assert_eq!(image.load(L2_BASE + 0xfe, MemWidth::W), Ok(0x0a09_0000));
        // Nothing outside the L2, either way.
        for addr in [L2_BASE - 4, END, END - 2] {
            assert!(image.load(addr, MemWidth::W).is_err(), "{addr:#x}");
            assert!(copy.load(addr, MemWidth::W).is_err(), "{addr:#x}");
        }
        assert!(!image.is_copied());
    }

    #[test]
    fn the_image_streams_to_the_end_of_its_piece() {
        let weights: Vec<u8> = (0..16).collect();
        let image = L2::with_image(vec![(L2_BASE + 0x40, &weights[..])]).unwrap();
        let at = L2_BASE + 0x40;
        assert_eq!(image.stream(at + 4, END), &weights[4..]);
        assert_eq!(image.stream(at + 4, at + 8), &weights[4..8]);
        assert_eq!(image.stream(L2_BASE, END), &[] as &[u8]);
        assert_eq!(image.span(at + 12, 8, 3), None);
    }

    #[test]
    fn a_store_copies_the_image_once() {
        let program = [1u8, 2, 3, 4];
        let mut l2 = L2::with_image(vec![(L2_BASE, &program[..])]).unwrap();
        l2.store(END - 4, MemWidth::W, 0xdead_beef).unwrap();
        assert!(l2.is_copied());
        l2.store(L2_BASE, MemWidth::B, 9).unwrap();
        assert_eq!(l2.load(L2_BASE, MemWidth::W), Ok(0x0403_0209));
        assert_eq!(l2.load(END - 4, MemWidth::W), Ok(0xdead_beef));
        assert_eq!(program, [1, 2, 3, 4]);
        assert_eq!(
            l2.store(END, MemWidth::W, 0),
            Err(BusError {
                addr: END,
                write: true
            })
        );
    }
}
