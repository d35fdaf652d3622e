//! Self-sustainability analysis — the paper's "up to 24 detections per
//! minute in indoor conditions" result, plus policy-level battery
//! simulations on the `iw-sim` discrete-event engine.

use iw_harvest::{daily_intake, Battery, EnvProfile, SimReport, SolarHarvester, TegHarvester};
use iw_sensors::Acquisition;
use iw_sim::{ComputeJob, DetectionCosts, DeviceConfig, NoopSink};

use crate::detection::DetectionBudget;

pub use iw_sim::PolicySpec;

/// Result of the steady-state sustainability analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SustainReport {
    /// Harvested energy per day, joules.
    pub intake_j_per_day: f64,
    /// Energy per detection, joules.
    pub energy_per_detection_j: f64,
    /// Detections per day covered by harvesting alone.
    pub detections_per_day: f64,
    /// Detections per minute (the paper's headline unit).
    pub detections_per_minute: f64,
}

/// Computes the maximum self-sustained detection rate, exactly as the
/// paper does: total daily intake divided by the per-detection energy.
///
/// # Examples
///
/// ```
/// use infiniwolf::{sustainability, DetectionBudget};
/// use iw_harvest::{EnvProfile, SolarHarvester, TegHarvester};
/// let report = sustainability(
///     &EnvProfile::paper_indoor_day(),
///     &SolarHarvester::infiniwolf(),
///     &TegHarvester::infiniwolf(),
///     &DetectionBudget::paper(),
/// );
/// assert!(report.detections_per_minute > 20.0);
/// ```
#[must_use]
pub fn sustainability(
    profile: &EnvProfile,
    solar: &SolarHarvester,
    teg: &TegHarvester,
    budget: &DetectionBudget,
) -> SustainReport {
    let intake = daily_intake(profile, solar, teg).total_j();
    let per_detection = budget.total_j();
    let days = profile.duration_s() / 86_400.0;
    let per_day = intake / days / per_detection;
    SustainReport {
        intake_j_per_day: intake / days,
        energy_per_detection_j: per_detection,
        detections_per_day: per_day,
        detections_per_minute: per_day / (24.0 * 60.0),
    }
}

/// Maps a [`DetectionBudget`] onto the event engine's per-detection cost
/// model: the acquisition energy spread over the sensor window, and
/// features + classification merged into one compute job.
#[must_use]
pub fn detection_costs(budget: &DetectionBudget) -> DetectionCosts {
    DetectionCosts {
        acquisition_j: budget.acquisition_j,
        acquisition_s: Acquisition::default().window_s,
        compute: ComputeJob::analytic(
            budget.features_s + budget.classification_s,
            budget.features_j + budget.classification_j,
        ),
    }
}

/// Simulates a policy over an environment profile and battery on the
/// discrete-event engine.
///
/// The load combines the detection duty cycle (3 s acquisition windows
/// feeding compute jobs, scheduled by `policy`) with a small always-on
/// sleep floor (BLE-off idle of both SoCs). The battery is updated in
/// place so callers can inspect its final state.
#[must_use]
pub fn simulate_policy(
    profile: &EnvProfile,
    solar: &SolarHarvester,
    teg: &TegHarvester,
    battery: &mut Battery,
    budget: &DetectionBudget,
    policy: PolicySpec,
    sleep_floor_w: f64,
) -> SimReport {
    let mut cfg = DeviceConfig::new(profile.clone(), policy, detection_costs(budget));
    cfg.solar = *solar;
    cfg.teg = *teg;
    cfg.battery = *battery;
    cfg.sleep_floor_w = sleep_floor_w;
    let report = cfg.run(&mut NoopSink);
    *battery = report.battery;
    report.sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_harvest::EnvProfile;

    #[test]
    fn paper_scenario_reaches_24_per_minute() {
        let report = sustainability(
            &EnvProfile::paper_indoor_day(),
            &SolarHarvester::infiniwolf(),
            &TegHarvester::infiniwolf(),
            &DetectionBudget::paper(),
        );
        assert!(
            (report.intake_j_per_day - 21.44).abs() / 21.44 < 0.05,
            "intake {}",
            report.intake_j_per_day
        );
        assert!(
            report.detections_per_minute > 23.0 && report.detections_per_minute < 27.0,
            "rate {}/min vs paper 'up to 24/min'",
            report.detections_per_minute
        );
    }

    #[test]
    fn sustainable_rate_survives_a_day_on_battery() {
        let profile = EnvProfile::paper_indoor_day();
        let budget = DetectionBudget::paper();
        let report = sustainability(
            &profile,
            &SolarHarvester::infiniwolf(),
            &TegHarvester::infiniwolf(),
            &budget,
        );
        let mut battery = Battery::infiniwolf();
        battery.set_soc(0.5);
        let sim = simulate_policy(
            &profile,
            &SolarHarvester::infiniwolf(),
            &TegHarvester::infiniwolf(),
            &mut battery,
            &budget,
            // Slightly below the steady-state limit: charge losses eat the
            // 5 % margin.
            PolicySpec::fixed_rate(report.detections_per_minute * 0.85),
            0.0,
        );
        assert!(!sim.browned_out);
        assert!(sim.final_soc > 0.45, "battery drained to {}", sim.final_soc);
        // The battery passed in reflects the run's final state.
        assert_eq!(battery.soc(), sim.final_soc);
    }

    #[test]
    fn doubled_rate_drains_the_battery() {
        let profile = EnvProfile::paper_indoor_day();
        let budget = DetectionBudget::paper();
        let report = sustainability(
            &profile,
            &SolarHarvester::infiniwolf(),
            &TegHarvester::infiniwolf(),
            &budget,
        );
        let mut battery = Battery::infiniwolf();
        battery.set_soc(0.5);
        let sim = simulate_policy(
            &profile,
            &SolarHarvester::infiniwolf(),
            &TegHarvester::infiniwolf(),
            &mut battery,
            &budget,
            PolicySpec::fixed_rate(report.detections_per_minute * 2.0),
            0.0,
        );
        assert!(sim.final_soc < 0.5, "soc should fall: {}", sim.final_soc);
    }

    #[test]
    fn costs_mapping_preserves_the_total_budget() {
        let budget = DetectionBudget::paper();
        let costs = detection_costs(&budget);
        assert!((costs.total_j() - budget.total_j()).abs() < 1e-15);
        assert!((costs.acquisition_s - 3.0).abs() < 1e-12);
        assert!(costs.compute.duration_s > 0.0);
    }
}
