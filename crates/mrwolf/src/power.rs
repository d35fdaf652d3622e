//! Power and energy model for Mr. Wolf's two power domains.
//!
//! The paper evaluates Mr. Wolf at its most energy-efficient operating
//! point, 100 MHz (Pullini et al., ESSCIRC 2018). Absolute silicon power is
//! not simulatable from first principles, so this model uses per-domain
//! constants calibrated such that the published energy-per-classification
//! numbers (Table IV of the paper) reproduce from the cycle counts of
//! Table III — the calibration is documented in DESIGN.md §5 and checked by
//! the tests below:
//!
//! * SoC domain only (Ibex computing, cluster power-gated): ≈ 3.2 mW.
//! * Cluster powered, one RI5CY core active: ≈ 12.7 mW.
//! * Cluster powered, eight cores active: ≈ 19.6 mW (matches the ~20 mW
//!   the paper assumes for parallel execution).
//!
//! The calibration constants live in [`iw_power::mrwolf`] — the one set
//! shared with the nRF52 model and the whole-device simulator — and this
//! module builds the typed operating point from them.

/// Which part of the SoC is doing the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WolfMode {
    /// Computation on the fabric controller; cluster power-gated.
    FcOnly,
    /// Computation on the cluster with `active_cores` RI5CY cores running
    /// (the remaining cores are clock-gated).
    Cluster {
        /// Number of active cores (1..=8).
        active_cores: usize,
    },
}

/// An operating point of the SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency in hertz.
    pub freq_hz: f64,
    /// SoC-domain active power (FC + L2 + interconnect), watts.
    pub soc_power_w: f64,
    /// Extra power once the cluster domain is up (fabric, TCDM, event
    /// unit), watts.
    pub cluster_base_power_w: f64,
    /// Incremental power per active RI5CY core, watts.
    pub core_power_w: f64,
    /// Deep-sleep power of the whole chip, watts.
    pub sleep_power_w: f64,
}

impl OperatingPoint {
    /// The most energy-efficient point reported for Mr. Wolf (100 MHz),
    /// used throughout the paper's evaluation.
    #[must_use]
    pub fn efficient() -> OperatingPoint {
        OperatingPoint {
            freq_hz: iw_power::mrwolf::FREQ_HZ,
            soc_power_w: iw_power::mrwolf::SOC_POWER_W,
            cluster_base_power_w: iw_power::mrwolf::CLUSTER_BASE_POWER_W,
            core_power_w: iw_power::mrwolf::CORE_POWER_W,
            sleep_power_w: iw_power::mrwolf::SLEEP_POWER_W,
        }
    }

    /// Total power drawn in `mode`, watts.
    ///
    /// # Panics
    ///
    /// Panics if `active_cores` is 0 or greater than 8.
    #[must_use]
    pub fn power_w(&self, mode: WolfMode) -> f64 {
        match mode {
            WolfMode::FcOnly => self.soc_power_w,
            WolfMode::Cluster { active_cores } => {
                assert!(
                    (1..=8).contains(&active_cores),
                    "active_cores must be 1..=8"
                );
                self.soc_power_w
                    + self.cluster_base_power_w
                    + active_cores as f64 * self.core_power_w
            }
        }
    }

    /// Energy to execute `cycles` cycles in `mode`.
    #[must_use]
    pub fn energy(&self, cycles: u64, mode: WolfMode) -> EnergyReport {
        let seconds = cycles as f64 / self.freq_hz;
        let power_w = self.power_w(mode);
        EnergyReport {
            cycles,
            seconds,
            power_w,
            energy_j: seconds * power_w,
        }
    }

    /// Energy to execute `cycles` cycles in `mode`, split by power domain.
    /// The total is computed exactly as [`OperatingPoint::energy`] computes
    /// `energy_j` (same float operations), so the two never disagree.
    #[must_use]
    pub fn domain_energy(&self, cycles: u64, mode: WolfMode) -> DomainEnergy {
        let seconds = cycles as f64 / self.freq_hz;
        let total_j = seconds * self.power_w(mode);
        let soc_j = seconds * self.soc_power_w;
        DomainEnergy {
            soc_j,
            cluster_j: total_j - soc_j,
            total_j,
        }
    }
}

/// Per-domain split of one run's energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainEnergy {
    /// SoC-domain share (FC + L2 + interconnect), joules.
    pub soc_j: f64,
    /// Cluster-domain share (zero when the cluster is power-gated), joules.
    pub cluster_j: f64,
    /// Total energy, joules — bit-identical to
    /// [`EnergyReport::energy_j`] for the same run.
    pub total_j: f64,
}

/// Energy accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Cycles executed.
    pub cycles: u64,
    /// Wall-clock time at the operating point.
    pub seconds: f64,
    /// Average power drawn.
    pub power_w: f64,
    /// Total energy in joules.
    pub energy_j: f64,
}

impl EnergyReport {
    /// Energy in microjoules (the unit of the paper's Table IV).
    #[must_use]
    pub fn microjoules(&self) -> f64 {
        self.energy_j * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_power_levels() {
        let op = OperatingPoint::efficient();
        let p1 = op.power_w(WolfMode::Cluster { active_cores: 1 });
        let p8 = op.power_w(WolfMode::Cluster { active_cores: 8 });
        assert!((p1 - 12.7e-3).abs() < 0.5e-3, "1-core power {p1}");
        assert!((p8 - 19.7e-3).abs() < 0.5e-3, "8-core power {p8}");
        assert!((op.power_w(WolfMode::FcOnly) - 3.2e-3).abs() < 1e-6);
    }

    #[test]
    fn energy_scales_linearly_with_cycles() {
        let op = OperatingPoint::efficient();
        let e1 = op.energy(100_000, WolfMode::FcOnly);
        let e2 = op.energy(200_000, WolfMode::FcOnly);
        assert!((e2.energy_j / e1.energy_j - 2.0).abs() < 1e-12);
        // 100k cycles @ 100 MHz = 1 ms @ 3.2 mW = 3.2 µJ.
        assert!((e1.microjoules() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn cluster_power_matches_shared_constants() {
        // The typed model and iw-power's cluster power must never disagree.
        let op = OperatingPoint::efficient();
        for cores in 1..=8 {
            assert_eq!(
                op.power_w(WolfMode::Cluster {
                    active_cores: cores
                }),
                iw_power::mrwolf::cluster_power_w(cores),
                "cluster power with {cores} cores"
            );
        }
    }

    #[test]
    #[should_panic(expected = "active_cores")]
    fn zero_cores_rejected() {
        let _ = OperatingPoint::efficient().power_w(WolfMode::Cluster { active_cores: 0 });
    }
}
