//! Integration tests of the harvesting + battery + policy stack, running
//! on the `iw-sim` discrete-event engine.

use infiniwolf::{
    detection_costs, simulate_policy, sustainability, DetectionBudget, InfiniWolf, PolicySpec,
};
use iw_harvest::{
    daily_intake, Battery, EnvProfile, EnvSegment, Illuminant, LightCondition, SolarHarvester,
    TegHarvester, ThermalCondition,
};
use iw_sim::{DeviceConfig, NoopSink};
use proptest::prelude::*;

#[test]
fn intake_scales_with_light_hours() {
    let solar = SolarHarvester::infiniwolf();
    let teg = TegHarvester::infiniwolf();
    let mut last = 0.0;
    for hours in [0.0, 2.0, 6.0, 12.0, 24.0] {
        let profile = EnvProfile {
            segments: vec![
                EnvSegment {
                    duration_s: hours * 3600.0,
                    light: LightCondition::indoor(),
                    thermal: ThermalCondition::warm_room(),
                },
                EnvSegment {
                    duration_s: (24.0 - hours) * 3600.0,
                    light: LightCondition::dark(),
                    thermal: ThermalCondition::warm_room(),
                },
            ],
        };
        let total = daily_intake(&profile, &solar, &teg).total_j();
        assert!(total >= last, "{hours} h: {total} J");
        last = total;
    }
}

#[test]
fn energy_aware_policy_never_browns_out() {
    // Even a month of darkness: the energy-aware policy throttles to the
    // TEG trickle instead of killing the battery.
    let profile = EnvProfile {
        segments: vec![EnvSegment {
            duration_s: 30.0 * 86_400.0,
            light: LightCondition::dark(),
            thermal: ThermalCondition::warm_room(),
        }],
    };
    let dev = InfiniWolf::new();
    let mut battery = Battery::infiniwolf();
    battery.set_soc(0.6);
    let sim = simulate_policy(
        &profile,
        &dev.solar,
        &dev.teg,
        &mut battery,
        &DetectionBudget::paper(),
        PolicySpec::energy_aware(24.0, 0.10),
        0.0,
    );
    assert!(!sim.browned_out, "final soc {}", sim.final_soc);
}

#[test]
fn office_week_is_comfortably_sustainable() {
    // A normal week (commutes + office light) harvests far more than the
    // paper's pessimistic indoor-only scenario.
    let report = sustainability(
        &EnvProfile::office_week(),
        &SolarHarvester::infiniwolf(),
        &TegHarvester::infiniwolf(),
        &DetectionBudget::paper(),
    );
    assert!(report.detections_per_minute > 50.0, "{report:?}");
    let dev = InfiniWolf::new();
    let mut battery = Battery::infiniwolf();
    battery.set_soc(0.3);
    let sim = simulate_policy(
        &EnvProfile::office_week(),
        &dev.solar,
        &dev.teg,
        &mut battery,
        &DetectionBudget::paper(),
        PolicySpec::fixed_rate(24.0),
        dev.battery_power_w(infiniwolf::DeviceMode::Sleep),
    );
    assert!(!sim.browned_out);
    assert!(sim.final_soc > 0.3, "soc {}", sim.final_soc);
}

#[test]
fn paper_numbers_compose() {
    // 21.44 J/day ÷ 602.2 µJ ≈ 35 600 detections/day ≈ 24.7/min — the
    // paper's own arithmetic, checked through the full stack.
    let report = sustainability(
        &EnvProfile::paper_indoor_day(),
        &SolarHarvester::infiniwolf(),
        &TegHarvester::infiniwolf(),
        &DetectionBudget::paper(),
    );
    assert!(
        (report.detections_per_day - 35_600.0).abs() < 2_000.0,
        "{report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn soc_stays_in_bounds_under_any_policy(
        start_soc in 0.05f64..1.0,
        rate in 0.0f64..200.0,
        light_hours in 0.0f64..24.0,
    ) {
        let profile = EnvProfile {
            segments: vec![
                EnvSegment {
                    duration_s: light_hours * 3600.0 + 1.0,
                    light: LightCondition::indoor(),
                    thermal: ThermalCondition::cool_room(),
                },
                EnvSegment {
                    duration_s: (24.0 - light_hours) * 3600.0 + 1.0,
                    light: LightCondition::dark(),
                    thermal: ThermalCondition::warm_room(),
                },
            ],
        };
        let dev = InfiniWolf::new();
        let mut battery = Battery::infiniwolf();
        battery.set_soc(start_soc);
        let sim = simulate_policy(
            &profile,
            &dev.solar,
            &dev.teg,
            &mut battery,
            &DetectionBudget::paper(),
            PolicySpec::fixed_rate(rate),
            5e-6,
        );
        prop_assert!((0.0..=1.0).contains(&sim.final_soc));
        for p in &sim.trace {
            prop_assert!((0.0..=1.0).contains(&p.soc));
        }
        // Energy conservation: consumed can never exceed initial charge +
        // stored intake.
        let initial = start_soc * battery.capacity_j();
        prop_assert!(sim.consumed_j <= initial + sim.stored_j + 1e-6);
    }

    /// The event engine's energy book-keeping balances exactly: over any
    /// random environment and policy, harvested-and-stored minus consumed
    /// equals the battery's energy delta (converter/charge losses are
    /// taken *before* `stored_j`, so the battery-side balance is exact).
    #[test]
    fn energy_balances_over_random_profiles(
        start_soc in 0.1f64..1.0,
        seg_hours in prop::collection::vec(0.2f64..4.0, 1..4),
        lux in 0.0f64..5_000.0,
        ambient_c in 15.0f64..30.0,
        max_rate in 0.0f64..60.0,
        min_soc in 0.0f64..0.5,
        energy_aware in any::<bool>(),
    ) {
        let segments: Vec<EnvSegment> = seg_hours
            .iter()
            .enumerate()
            .map(|(i, h)| EnvSegment {
                duration_s: h * 3600.0,
                // Alternate lit and dark segments.
                light: if i % 2 == 0 {
                    LightCondition { lux, illuminant: Illuminant::IndoorLed }
                } else {
                    LightCondition::dark()
                },
                thermal: ThermalCondition {
                    ambient_c,
                    skin_c: 34.0,
                    wind_kmh: 0.0,
                },
            })
            .collect();
        let profile = EnvProfile { segments };
        let policy = if energy_aware {
            PolicySpec::energy_aware(max_rate, min_soc)
        } else {
            PolicySpec::fixed_rate(max_rate)
        };
        let mut cfg = DeviceConfig::new(
            profile.clone(),
            policy,
            detection_costs(&DetectionBudget::paper()),
        );
        cfg.battery.set_soc(start_soc);
        let initial_j = cfg.battery.charge_j();
        let report = cfg.run(&mut NoopSink);
        // Stored − consumed = battery ΔE, to float roundoff.
        let delta = report.battery.charge_j() - initial_j;
        let balance = report.sim.stored_j - report.sim.consumed_j;
        prop_assert!(
            (balance - delta).abs() < 1e-6,
            "stored {} − consumed {} != ΔE {delta}",
            report.sim.stored_j,
            report.sim.consumed_j,
        );
        // Stored never exceeds the charge-efficiency-adjusted gross intake
        // (the 1 µJ slack covers the engine's microsecond-quantised
        // segment boundaries vs the analytic integral).
        let gross = daily_intake(&profile, &cfg.solar, &cfg.teg).total_j();
        prop_assert!(report.sim.stored_j <= 0.95 * gross + 1e-6);
    }
}
