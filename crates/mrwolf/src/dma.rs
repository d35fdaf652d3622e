//! The cluster DMA's transfer-cost model (µDMA-style L2 ↔ TCDM mover).
//!
//! Mr. Wolf's cluster DMA moves data between L2 and the TCDM at 64 bits per
//! cycle after a short programming/setup phase. The kernels use it to
//! stream per-layer weight tiles for networks that do not fit the 64 kB
//! TCDM (Network B); the transfer cost model lets the deployment driver
//! account for double-buffered prefetch overlap.

/// DMA transfer-cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaModel {
    /// Fixed cycles to program and start a transfer.
    pub setup_cycles: u32,
    /// Payload bytes moved per cycle once streaming.
    pub bytes_per_cycle: u32,
}

impl Default for DmaModel {
    fn default() -> DmaModel {
        DmaModel {
            setup_cycles: 12,
            bytes_per_cycle: 8,
        }
    }
}

impl DmaModel {
    /// Cycles to move `len` bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use iw_mrwolf::DmaModel;
    /// let dma = DmaModel::default();
    /// assert_eq!(dma.transfer_cycles(0), 12);
    /// assert_eq!(dma.transfer_cycles(64), 12 + 8);
    /// assert_eq!(dma.transfer_cycles(65), 12 + 9);
    /// ```
    #[must_use]
    pub fn transfer_cycles(&self, len: usize) -> u64 {
        u64::from(self.setup_cycles) + (len as u64).div_ceil(u64::from(self.bytes_per_cycle))
    }
}
