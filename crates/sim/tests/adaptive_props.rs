//! Adaptive-policy integration properties: fault-aware backoff must
//! never deadlock acquisition once the faults clear, sync stretching
//! must fire on dead links and stay deterministic, and a fleet running
//! an adaptive policy must produce bit-identical digests across every
//! worker topology, and a spec that behaves like a preset must digest
//! like it.

use iw_harvest::{Battery, EnvProfile, EnvSegment, LightCondition, ThermalCondition};
use iw_nrf52::BleRadio;
use iw_sim::{
    BleSync, ComputeJob, DetectionCosts, DeviceConfig, FaultBackoff, FaultKind, FaultProfile,
    FaultWindow, FleetConfig, NoopSink, PolicySpec, RateRule, TargetRule,
};

fn lit_env(duration_s: f64) -> EnvProfile {
    EnvProfile {
        segments: vec![EnvSegment {
            duration_s,
            light: LightCondition::indoor(),
            thermal: ThermalCondition::warm_room(),
        }],
    }
}

fn costs() -> DetectionCosts {
    DetectionCosts {
        acquisition_j: 600e-6,
        acquisition_s: 3.0,
        compute: ComputeJob::analytic(1e-3, 2.2e-6),
    }
}

fn adaptive_spec() -> PolicySpec {
    PolicySpec::new(RateRule::SocRamp {
        max_per_minute: 24.0,
        min_soc: 0.10,
        full_soc: 0.40,
    })
    .with_sync_interval(300.0)
    .with_backoff(FaultBackoff {
        gate_acquisition: true,
        recheck_s: 20.0,
        sync_stretch: 3.0,
    })
    .with_targets(TargetRule {
        eco_below: 0.35,
        m4_above: 0.75,
        harvest_weight: 50.0,
        queue_cluster: 8,
    })
}

fn jobs() -> [ComputeJob; 3] {
    [
        ComputeJob::analytic(2.4e-3, 7.3e-6),
        ComputeJob::analytic(1.1e-3, 3.1e-6),
        ComputeJob::analytic(0.2e-3, 2.2e-6),
    ]
}

#[test]
fn sync_stretch_fires_on_gateway_outage_and_saves_bursts() {
    let run = |stretch: f64| {
        let spec = PolicySpec::fixed_rate(12.0).with_backoff(FaultBackoff {
            gate_acquisition: false,
            recheck_s: 20.0,
            sync_stretch: stretch,
        });
        let mut cfg = DeviceConfig::new(lit_env(3600.0), spec, costs());
        cfg.battery = Battery::new(40.0);
        cfg.battery.set_soc(0.9);
        cfg.sync = Some(BleSync::nrf52(&BleRadio::default(), 60.0, 32));
        // A 20-minute gateway outage mid-run: every sync inside it fails.
        cfg.faults
            .windows
            .push(FaultWindow::spanning(FaultKind::BleLoss, 600.0, 1800.0));
        cfg.run(&mut NoopSink)
    };
    let flat = run(1.0);
    let stretched = run(4.0);
    // The stretch factor fires on the same dead-link episodes either
    // way, but only a factor > 1 actually thins the burst cadence.
    assert!(stretched.sync_stretches > 0, "{stretched:?}");
    assert!(flat.sync_stretches > 0);
    assert!(
        stretched.reliability.sync_episodes < flat.reliability.sync_episodes,
        "stretch 4x must thin bursts: {} vs {}",
        stretched.reliability.sync_episodes,
        flat.reliability.sync_episodes
    );
    assert!(stretched.reliability.sync_dropped < flat.reliability.sync_dropped);
}

#[test]
fn adaptive_fleet_digest_is_topology_invariant() {
    for seed in [2020, 7, 99] {
        let mut digests = Vec::new();
        for threads in [1, 2, 4, 8] {
            let mut cfg = FleetConfig::paper(8, threads, seed, costs());
            cfg.policies = vec![("adaptive".into(), adaptive_spec())];
            cfg.target_jobs = Some(jobs());
            cfg.battery = Battery::new(40.0);
            cfg.notify_j = 10e-6;
            cfg.sync = Some(BleSync::nrf52(&BleRadio::default(), 300.0, 32));
            cfg.faults = FaultProfile::Harsh;
            digests.push(cfg.run().digest);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: digests diverge across topologies: {digests:x?}"
        );
    }
}

#[test]
fn full_battery_ramp_digests_like_the_energy_aware_preset() {
    // A ramp that reaches the full rate only at a full battery *is* the
    // energy-aware preset: same rate bits, so it must not fold the
    // adaptive-policy block either.
    let ramp = PolicySpec::new(RateRule::SocRamp {
        max_per_minute: 24.0,
        min_soc: 0.1,
        full_soc: 1.0,
    });
    let aware = PolicySpec::energy_aware(24.0, 0.1);
    let run = |spec: PolicySpec| {
        let mut cfg = FleetConfig::paper(6, 1, 2020, costs());
        cfg.policies = vec![("aware-24".into(), spec)];
        (0..cfg.devices)
            .map(|i| cfg.run_device(i))
            .collect::<Vec<_>>()
    };
    let (ramp, aware) = (run(ramp), run(aware));
    for (r, a) in ramp.iter().zip(&aware) {
        assert!(!r.adaptive && !a.adaptive);
        assert_eq!(r.digest(), a.digest(), "device {}", r.device);
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Fault-aware acquisition gating never deadlocks: whatever the
        /// signal-fault window's placement, length and the backoff's
        /// re-check period, detection resumes once the fault clears.
        /// The window ends at least 5 re-check periods plus 60 s before
        /// the run does, so a stuck gate would visibly zero the tail.
        #[test]
        fn backoff_never_deadlocks_after_faults_clear(
            start_s in 50.0f64..300.0,
            len_s in 10.0f64..600.0,
            recheck_s in 5.0f64..60.0,
            kind_idx in 0usize..3,
            seed_jitter in 0u64..8,
        ) {
            let kind = [
                FaultKind::EcgLeadOff,
                FaultKind::MotionArtifact,
                FaultKind::GsrDetach,
            ][kind_idx];
            let duration_s = start_s + len_s + recheck_s * 5.0 + 60.0;
            let spec = PolicySpec::fixed_rate(24.0)
                .with_backoff(FaultBackoff {
                    gate_acquisition: true,
                    recheck_s,
                    sync_stretch: 1.0,
                });
            let mut cfg = DeviceConfig::new(lit_env(duration_s), spec, costs());
            cfg.battery = Battery::new(40.0);
            cfg.battery.set_soc(0.5 + (seed_jitter as f64) * 0.05);
            cfg.faults.windows.push(FaultWindow::spanning(
                kind,
                start_s,
                start_s + len_s,
            ));
            let report = cfg.run(&mut NoopSink);
            // The gate engaged while the window was open...
            prop_assert!(report.backoff_skips > 0, "gate never engaged: {report:?}");
            // ...and acquisition came back: the fault-free head and tail
            // alone cover > 100 s at 24/min, so a deadlocked gate cannot
            // reach this floor.
            prop_assert!(
                report.detections >= 20,
                "only {} detections — acquisition looks deadlocked",
                report.detections
            );
        }
    }
}
