//! Address map of the modelled Mr. Wolf SoC.
//!
//! The layout follows the PULP convention: L1 TCDM in the cluster at
//! `0x1000_0000`, cluster peripherals (event unit) above it, and L2 in the
//! SoC domain at `0x1C00_0000`.

/// Base address of the 64 kB level-1 tightly-coupled data memory.
pub const TCDM_BASE: u32 = 0x1000_0000;
/// Size of the TCDM in bytes (64 kB on Mr. Wolf).
pub const TCDM_SIZE: usize = 64 * 1024;

/// Base address of the 512 kB level-2 memory in the SoC domain.
pub const L2_BASE: u32 = 0x1C00_0000;
/// Size of the L2 memory in bytes (512 kB on Mr. Wolf).
pub const L2_SIZE: usize = 512 * 1024;

/// Size of the program region at the start of L2: kernel images are
/// assembled at [`L2_BASE`] and must end below `L2_BASE + PROGRAM_SIZE`,
/// where the spilled weights begin.
pub const PROGRAM_SIZE: usize = 128 * 1024;

/// Event-unit MMIO: a word store to this address signals barrier arrival;
/// the core then sleeps until every active core has arrived.
pub const BARRIER_ADDR: u32 = 0x1020_0000;

/// Which memory region an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Cluster L1 TCDM (single-cycle, banked).
    Tcdm,
    /// SoC L2 (multi-cycle from the cluster, shared port).
    L2,
    /// Event-unit MMIO.
    EventUnit,
}

/// Classifies an address.
///
/// Returns `None` for unmapped addresses.
///
/// # Examples
///
/// ```
/// use iw_mrwolf::memmap::{region_of, Region, TCDM_BASE, L2_BASE};
/// assert_eq!(region_of(TCDM_BASE + 16), Some(Region::Tcdm));
/// assert_eq!(region_of(L2_BASE), Some(Region::L2));
/// assert_eq!(region_of(0), None);
/// ```
#[must_use]
#[inline]
pub fn region_of(addr: u32) -> Option<Region> {
    if (TCDM_BASE..TCDM_BASE + TCDM_SIZE as u32).contains(&addr) {
        Some(Region::Tcdm)
    } else if (L2_BASE..L2_BASE + L2_SIZE as u32).contains(&addr) {
        Some(Region::L2)
    } else if addr == BARRIER_ADDR {
        Some(Region::EventUnit)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        assert_eq!(region_of(TCDM_BASE), Some(Region::Tcdm));
        assert_eq!(
            region_of(TCDM_BASE + TCDM_SIZE as u32 - 1),
            Some(Region::Tcdm)
        );
        assert_eq!(region_of(TCDM_BASE + TCDM_SIZE as u32), None);
        assert_eq!(region_of(L2_BASE + L2_SIZE as u32 - 1), Some(Region::L2));
        assert_eq!(region_of(BARRIER_ADDR), Some(Region::EventUnit));
    }
}
