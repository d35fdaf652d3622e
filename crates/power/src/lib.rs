//! # iw-power — shared device power constants
//!
//! Single source of truth for the calibrated power constants of both SoCs
//! on the InfiniWolf bracelet. Before this crate existed the same numbers
//! lived twice — once in `iw-nrf52::power` and once in `iw-mrwolf::power`
//! — and the whole-device simulator had to reach into both. Now the SoC
//! crates *and* the event-driven device engine (`iw-sim`) all read from
//! here, so a recalibration is one edit.
//!
//! It holds plain `const` calibration values ([`nrf52`], [`mrwolf`]), a
//! few derived powers, and the shared `cycles / freq × power` energy
//! arithmetic in one place ([`active_energy_j`]). The SoC crates build
//! their typed models (`iw_nrf52::Nrf52Power`, `iw_mrwolf::OperatingPoint`)
//! from exactly these constants, so the numbers stay bit-identical to the
//! pre-split models.
//!
//! Calibration provenance for every number is documented in DESIGN.md §5.

#![warn(missing_docs)]

/// Energy in joules to run `cycles` cycles at `freq_hz` drawing `power_w`.
///
/// This is the one formula both SoC power models (and the event engine's
/// compute components) share: time = cycles / f, energy = time × P.
///
/// # Examples
///
/// ```
/// use iw_power::active_energy_j;
/// // 100k cycles at 100 MHz drawing 3.2 mW = 1 ms × 3.2 mW = 3.2 µJ.
/// let e = active_energy_j(100_000, 100.0e6, 3.2e-3);
/// assert!((e * 1e6 - 3.2).abs() < 1e-9);
/// ```
#[must_use]
pub fn active_energy_j(cycles: u64, freq_hz: f64, power_w: f64) -> f64 {
    cycles as f64 / freq_hz * power_w
}

/// nRF52832 calibration constants (datasheet system power; see the
/// `iw-nrf52` crate docs for why the marketing µW/MHz figure is not used).
pub mod nrf52 {
    /// CPU clock, hertz (64 MHz).
    pub const FREQ_HZ: f64 = 64.0e6;
    /// Supply voltage, volts.
    pub const SUPPLY_V: f64 = 3.0;
    /// Active current executing from flash at 64 MHz, DC/DC enabled,
    /// amperes (datasheet: ~3.6 mA at 3 V ≈ 10.8 mW system power).
    pub const ACTIVE_A: f64 = 3.6e-3;
    /// System ON idle current (RAM retained, RTC running), amperes.
    pub const IDLE_A: f64 = 1.9e-6;
    /// System OFF current with RAM retention, amperes.
    pub const SYSTEM_OFF_A: f64 = 0.7e-6;
    /// Radio RX current with the BLE scanner window open, DC/DC enabled,
    /// amperes (datasheet: ~5.4 mA at 3 V).
    pub const SCAN_A: f64 = 5.4e-3;
    /// One BLE scan window, seconds (a standard 512 ms scanWindow — the
    /// scanner stays in RX for the whole window).
    pub const SCAN_WINDOW_S: f64 = 0.512;

    /// System power with the BLE scanner in RX, watts.
    #[must_use]
    pub fn scan_power_w() -> f64 {
        SCAN_A * SUPPLY_V
    }

    /// Energy of one full scan window, joules.
    #[must_use]
    pub fn scan_window_energy_j() -> f64 {
        scan_power_w() * SCAN_WINDOW_S
    }
}

/// Mr. Wolf calibration constants at the most energy-efficient operating
/// point (100 MHz, Pullini et al., ESSCIRC 2018), fitted so the paper's
/// Table IV energies reproduce from Table III cycle counts.
pub mod mrwolf {
    /// Cluster/SoC clock at the efficient point, hertz (100 MHz).
    pub const FREQ_HZ: f64 = 100.0e6;
    /// SoC-domain active power (FC + L2 + interconnect), watts.
    pub const SOC_POWER_W: f64 = 3.2e-3;
    /// Extra power once the cluster domain is up (fabric, TCDM, event
    /// unit), watts.
    pub const CLUSTER_BASE_POWER_W: f64 = 8.5e-3;
    /// Incremental power per active RI5CY core, watts.
    pub const CORE_POWER_W: f64 = 1.0e-3;
    /// Deep-sleep power of the whole chip, watts.
    pub const SLEEP_POWER_W: f64 = 72.0e-6;

    /// Total power with the cluster up and `active_cores` cores running.
    ///
    /// # Panics
    ///
    /// Panics if `active_cores` is 0 or greater than 8.
    #[must_use]
    pub fn cluster_power_w(active_cores: usize) -> f64 {
        assert!(
            (1..=8).contains(&active_cores),
            "active_cores must be 1..=8"
        );
        SOC_POWER_W + CLUSTER_BASE_POWER_W + active_cores as f64 * CORE_POWER_W
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nrf52_active_power_near_datasheet() {
        let w = nrf52::ACTIVE_A * nrf52::SUPPLY_V;
        assert!((w - 10.8e-3).abs() < 0.1e-3, "active power {w}");
    }

    #[test]
    fn nrf52_scan_energy_is_rx_power_times_window() {
        let e = nrf52::scan_window_energy_j();
        assert!((e - 5.4e-3 * 3.0 * 0.512).abs() < 1e-12);
    }

    #[test]
    fn mrwolf_cluster_power_matches_calibration() {
        assert!((mrwolf::cluster_power_w(1) - 12.7e-3).abs() < 0.5e-3);
        assert!((mrwolf::cluster_power_w(8) - 19.7e-3).abs() < 0.5e-3);
    }

    #[test]
    #[should_panic(expected = "active_cores")]
    fn zero_cores_rejected() {
        let _ = mrwolf::cluster_power_w(0);
    }

    #[test]
    fn energy_formula_is_shared() {
        // 1 ms at 3.2 mW = 3.2 µJ.
        let e = active_energy_j(100_000, mrwolf::FREQ_HZ, mrwolf::SOC_POWER_W);
        assert!((e * 1e6 - 3.2).abs() < 1e-9);
    }
}
