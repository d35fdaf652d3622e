//! Fault-injection integration tests: the energy books must balance
//! under any fault plan, brownout must degrade gracefully and recover
//! once the lights come back, and the whole layer must be a pure
//! function of its seed.

use infiniwolf::{detection_costs, DetectionBudget};
use iw_harvest::{Battery, EnvProfile, EnvSegment, LightCondition, ThermalCondition};
use iw_sim::{DeviceConfig, FaultProfile, NoopSink, PolicySpec};
use proptest::prelude::*;

/// A short two-segment day: `lit_h` hours of indoor light, `dark_h`
/// hours of darkness, warm room throughout (TEG trickle only).
fn lit_then_dark(lit_h: f64, dark_h: f64) -> EnvProfile {
    EnvProfile {
        segments: vec![
            EnvSegment {
                duration_s: lit_h * 3600.0,
                light: LightCondition::indoor(),
                thermal: ThermalCondition::warm_room(),
            },
            EnvSegment {
                duration_s: dark_h * 3600.0,
                light: LightCondition::dark(),
                thermal: ThermalCondition::warm_room(),
            },
        ],
    }
}

fn faulted_config(profile: FaultProfile, seed: u64, env: EnvProfile) -> DeviceConfig {
    let duration_s = env.duration_s();
    let mut cfg = DeviceConfig::new(
        env,
        PolicySpec::fixed_rate(24.0),
        detection_costs(&DetectionBudget::paper()),
    );
    cfg.faults = profile.plan(seed, duration_s);
    cfg
}

#[test]
fn brownout_recovers_after_the_lights_come_back() {
    // A 2 J cell starting just above the restart threshold, one dark
    // hour to drain it through the 2% LDO cutoff, then an hour outdoors
    // to recharge past the 5% restart threshold and cold-start.
    let env = EnvProfile {
        segments: vec![
            EnvSegment {
                duration_s: 3600.0,
                light: LightCondition::dark(),
                thermal: ThermalCondition::warm_room(),
            },
            EnvSegment {
                duration_s: 3600.0,
                light: LightCondition::outdoor(),
                thermal: ThermalCondition::warm_room(),
            },
        ],
    };
    let mut cfg = faulted_config(FaultProfile::Clean, 1, env);
    cfg.battery = Battery::new(2.0);
    cfg.battery.set_soc(0.08);
    let report = cfg.run(&mut NoopSink);
    let rel = &report.reliability;
    assert!(rel.brownouts >= 1, "never browned out: {rel:?}");
    assert!(rel.recoveries >= 1, "never recovered: {rel:?}");
    assert!(rel.mean_recovery_s() > 0.0);
    assert!(
        report.uptime > 0.0 && report.uptime < 1.0,
        "{}",
        report.uptime
    );
    // While browned out the policy must not fire.
    assert!(rel.skipped_acquisitions > 0);
}

#[test]
fn harsh_profile_degrades_but_keeps_running() {
    let mut cfg = faulted_config(FaultProfile::Harsh, 7, lit_then_dark(12.0, 12.0));
    cfg.policy = PolicySpec::fixed_rate(24.0).with_sync_interval(300.0);
    cfg.notify_j = 10e-6;
    let report = cfg.run(&mut NoopSink);
    assert!(report.faults.total() > 0, "harsh plan injected nothing");
    assert!(report.reliability.degraded_windows > 0);
    assert!(report.detections > 0, "device must keep detecting");
    let rel = &report.reliability;
    assert_eq!(
        rel.sync_episodes,
        rel.sync_ok + rel.sync_dropped,
        "every sync episode must resolve"
    );
    assert!(rel.sync_dropped > 0, "35% loss must drop some episodes");
}

#[test]
fn duty_cycled_sync_reports_outcomes_even_fault_free() {
    let mut cfg = faulted_config(FaultProfile::Clean, 3, lit_then_dark(2.0, 0.5));
    cfg.policy = PolicySpec::fixed_rate(24.0).with_sync_interval(120.0);
    cfg.notify_j = 10e-6;
    let report = cfg.run(&mut NoopSink);
    let rel = &report.reliability;
    assert!(rel.sync_episodes > 0, "no sync episodes recorded");
    assert_eq!(rel.sync_ok, rel.sync_episodes, "clean runs never drop");
    assert_eq!(rel.sync_retried + rel.sync_dropped, 0);
    // Batched notifications flush on sync, so results still get out.
    assert!(report.notifications > 0);
}

#[test]
fn fault_runs_are_repeatable() {
    let run =
        || faulted_config(FaultProfile::Harsh, 99, lit_then_dark(4.0, 4.0)).run(&mut NoopSink);
    let (a, b) = (run(), run());
    assert_eq!(a.detections, b.detections);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.reliability, b.reliability);
    assert_eq!(a.sim.consumed_j.to_bits(), b.sim.consumed_j.to_bits());
    assert_eq!(a.sim.stored_j.to_bits(), b.sim.stored_j.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Energy conservation holds under *any* fault plan: faults derate
    /// harvest, gate acquisition, bias the gauge and cut the load, but
    /// they never create or destroy energy — the battery-side balance
    /// `initial + stored − consumed = final` stays exact.
    #[test]
    fn energy_conserved_under_random_fault_plans(
        profile_idx in 0usize..3,
        seed in any::<u64>(),
        start_soc in 0.05f64..1.0,
        capacity_j in 10.0f64..200.0,
        per_minute in 0.0f64..60.0,
        duty_cycled in any::<bool>(),
        lit_h in 0.2f64..3.0,
        dark_h in 0.2f64..3.0,
    ) {
        let profile = FaultProfile::ALL[profile_idx];
        let mut cfg = faulted_config(profile, seed, lit_then_dark(lit_h, dark_h));
        if duty_cycled {
            cfg.policy = PolicySpec::fixed_rate(per_minute).with_sync_interval(120.0);
            cfg.notify_j = 10e-6;
        } else {
            cfg.policy = PolicySpec::fixed_rate(per_minute);
        }
        cfg.battery = Battery::new(capacity_j);
        cfg.battery.set_soc(start_soc);
        let initial_j = cfg.battery.charge_j();
        let report = cfg.run(&mut NoopSink);
        let drift = (initial_j + report.sim.stored_j
            - report.sim.consumed_j
            - report.battery.charge_j())
        .abs();
        prop_assert!(
            drift < 1e-6,
            "conservation drift {drift} J (profile {}, seed {seed})",
            profile.label()
        );
        prop_assert!((0.0..=1.0).contains(&report.sim.final_soc));
        prop_assert!((0.0..=1.0).contains(&report.uptime));
    }
}
