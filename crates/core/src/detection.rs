//! Per-detection energy budget — the paper's 602.2 µJ breakdown.

use iw_fann::FixedNet;
use iw_kernels::{FeatureCost, FixedTarget, MachineError, PreparedFixed};
use iw_mrwolf::OperatingPoint;
use iw_sensors::Acquisition;

/// Energy breakdown of one stress detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionBudget {
    /// Sensor acquisition (3 s of ECG + GSR), joules.
    pub acquisition_j: f64,
    /// Feature extraction on the cluster, joules.
    pub features_j: f64,
    /// Feature-extraction latency, seconds.
    pub features_s: f64,
    /// MLP classification, joules.
    pub classification_j: f64,
    /// Classification latency, seconds.
    pub classification_s: f64,
}

impl DetectionBudget {
    /// Total energy per detection, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.acquisition_j + self.features_j + self.classification_j
    }

    /// Total in microjoules (the paper's unit).
    #[must_use]
    pub fn total_uj(&self) -> f64 {
        self.total_j() * 1e6
    }

    /// The paper's published budget: 600 µJ acquisition + 1 µJ features +
    /// 1.2 µJ classification = 602.2 µJ.
    #[must_use]
    pub fn paper() -> DetectionBudget {
        DetectionBudget {
            acquisition_j: 600e-6,
            features_j: 1e-6,
            features_s: 50e-6,
            classification_j: 1.2e-6,
            classification_s: 6126.0 / 100e6,
        }
    }
}

/// Measures the detection budget with the classification executed on a
/// given target (the paper's best case is the 8-core cluster).
///
/// # Errors
///
/// Propagates [`MachineError`] from the classification run.
pub fn measure_detection_budget(
    fixed: &FixedNet,
    input: &[i32],
    target: FixedTarget,
) -> Result<DetectionBudget, MachineError> {
    let acquisition = Acquisition::default();
    let features = FeatureCost::default();
    let op = OperatingPoint::efficient();
    let machine = target.machine();
    let run = PreparedFixed::on(&*machine, fixed, input)?.run()?;
    Ok(DetectionBudget {
        acquisition_j: acquisition.energy_j(),
        features_j: features.energy_j(&op),
        features_s: features.seconds(&op),
        classification_j: run.energy_j,
        classification_s: run.cycles as f64 / machine.clock_hz(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_fann::presets::network_a;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn budget_close_to_paper_602_2_uj() {
        let mut net = network_a();
        net.randomize_weights(&mut StdRng::seed_from_u64(3), 0.1);
        let fixed = FixedNet::export(&net).unwrap();
        let input = fixed.quantize_input(&[0.2, -0.3, 0.5, 0.1, -0.8]);
        let budget =
            measure_detection_budget(&fixed, &input, FixedTarget::WolfCluster { cores: 8 })
                .unwrap();
        let total = budget.total_uj();
        assert!(
            (total - 602.2).abs() / 602.2 < 0.02,
            "total {total} µJ vs paper 602.2 µJ"
        );
        // Acquisition dominates by far.
        assert!(budget.acquisition_j > 100.0 * budget.classification_j);
    }

    #[test]
    fn acquisition_cost_is_target_independent() {
        let mut net = network_a();
        net.randomize_weights(&mut StdRng::seed_from_u64(4), 0.1);
        let fixed = FixedNet::export(&net).unwrap();
        let input = fixed.quantize_input(&[0.0; 5]);
        let a = measure_detection_budget(&fixed, &input, FixedTarget::CortexM4).unwrap();
        let b = measure_detection_budget(&fixed, &input, FixedTarget::WolfIbex).unwrap();
        assert_eq!(a.acquisition_j, b.acquisition_j);
        // The M4 classification costs more energy than Ibex (Table IV).
        assert!(a.classification_j > b.classification_j);
    }
}
