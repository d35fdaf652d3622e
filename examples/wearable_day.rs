//! A day on the wrist: whole-device discrete-event simulation of
//! detection policies under the paper's indoor scenario and a darker
//! worst case.
//!
//! ```text
//! cargo run --release --example wearable_day
//! ```

use infiniwolf::{detection_costs, sustainability, DetectionBudget, InfiniWolf, PolicySpec};
use iw_harvest::{
    EnvProfile, EnvSegment, LightCondition, SolarHarvester, TegHarvester, ThermalCondition,
};
use iw_sim::{DeviceConfig, NoopSink};

fn sparkline(socs: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    socs.iter()
        .map(|&s| {
            if s.is_finite() {
                // Clamp before indexing: SoC outside [0, 1] (or a rounding
                // excursion) must never index past the bar table.
                BARS[(s.clamp(0.0, 1.0) * 7.0).round() as usize]
            } else {
                '?'
            }
        })
        .collect()
}

/// Down-samples the trace to at most `max` evenly spaced points. A trace
/// shorter than `max` is passed through untouched.
fn downsample(socs: &[f64], max: usize) -> Vec<f64> {
    if socs.len() <= max {
        return socs.to_vec();
    }
    let step = socs.len().div_ceil(max);
    socs.iter().step_by(step).copied().collect()
}

fn run_scenario(name: &str, profile: &EnvProfile, policy: PolicySpec, start_soc: f64) {
    let dev = InfiniWolf::new();
    let mut cfg = DeviceConfig::new(
        profile.clone(),
        policy,
        detection_costs(&DetectionBudget::paper()),
    );
    cfg.solar = dev.solar;
    cfg.teg = dev.teg;
    cfg.battery.set_soc(start_soc);
    cfg.sleep_floor_w = dev.battery_power_w(infiniwolf::DeviceMode::Sleep);
    let report = cfg.run(&mut NoopSink);
    let socs: Vec<f64> = report.sim.trace.iter().map(|p| p.soc).collect();
    println!("\n{name}");
    println!("  policy: {policy:?}");
    println!("  soc  {}", sparkline(&downsample(&socs, 48)));
    println!(
        "  start {:.0}% → end {:.0}%   harvested {:.2} J, consumed {:.2} J",
        start_soc * 100.0,
        report.sim.final_soc * 100.0,
        report.sim.stored_j,
        report.sim.consumed_j,
    );
    println!(
        "  {} detections across {} engine events{}",
        report.detections,
        report.events,
        if report.sim.browned_out {
            "  ⚠ BROWN-OUT"
        } else {
            ""
        }
    );
}

fn main() {
    let indoor = EnvProfile::paper_indoor_day();
    let report = sustainability(
        &indoor,
        &SolarHarvester::infiniwolf(),
        &TegHarvester::infiniwolf(),
        &DetectionBudget::paper(),
    );
    println!(
        "steady-state limit indoors: {:.1} detections/minute",
        report.detections_per_minute
    );

    run_scenario(
        "indoor day, sustainable fixed rate (80% of the limit)",
        &indoor,
        PolicySpec::fixed_rate(report.detections_per_minute * 0.8),
        0.5,
    );
    run_scenario(
        "indoor day, greedy fixed rate (3x the limit)",
        &indoor,
        PolicySpec::fixed_rate(report.detections_per_minute * 3.0),
        0.5,
    );

    // A dark week: the energy-aware policy throttles instead of dying.
    let dark_week = EnvProfile {
        segments: vec![EnvSegment {
            duration_s: 7.0 * 86_400.0,
            light: LightCondition::dark(),
            thermal: ThermalCondition::warm_room(),
        }],
    };
    run_scenario(
        "dark week, greedy fixed rate",
        &dark_week,
        PolicySpec::fixed_rate(60.0),
        0.9,
    );
    run_scenario(
        "dark week, energy-aware policy",
        &dark_week,
        PolicySpec::energy_aware(60.0, 0.15),
        0.9,
    );
}
