//! Property tests for the policy engine: every valid [`PolicySpec`]'s
//! rate law must be monotone non-decreasing in the state of charge,
//! validation must accept exactly the specs the generators produce, and
//! the three presets must evaluate the classic policies' float
//! expressions bit for bit.

use iw_policy::{FaultBackoff, PolicySpec, RateRule, TargetClass, TargetRule};
use proptest::prelude::*;

fn rate_rule() -> impl Strategy<Value = RateRule> {
    prop_oneof![
        (0.0f64..60.0).prop_map(|per_minute| RateRule::Fixed { per_minute }),
        (0.0f64..60.0, 0.0f64..0.99).prop_map(|(max_per_minute, min_soc)| {
            PolicySpec::energy_aware(max_per_minute, min_soc).rate
        }),
        (0.0f64..60.0, 0.0f64..0.9, 0.01f64..0.1).prop_map(|(max_per_minute, min_soc, step)| {
            RateRule::SocRamp {
                max_per_minute,
                min_soc,
                full_soc: (min_soc + step).min(1.0),
            }
        }),
    ]
}

/// The fixed-rate policy's rate expression, written out: the reference
/// [`PolicySpec::fixed_rate`] (with or without sync batching) must
/// match bit for bit.
fn reference_fixed_rate(per_minute: f64) -> f64 {
    per_minute / 60.0
}

/// The energy-aware policy's rate expression, written out: the
/// reference [`PolicySpec::energy_aware`] must match bit for bit.
fn reference_energy_aware(max_per_minute: f64, min_soc: f64, soc: f64) -> f64 {
    if soc <= min_soc || min_soc >= 1.0 {
        0.0
    } else {
        max_per_minute / 60.0 * ((soc - min_soc) / (1.0 - min_soc))
    }
}

fn policy_spec() -> impl Strategy<Value = PolicySpec> {
    (
        rate_rule(),
        (any::<bool>(), 1.0f64..3600.0),
        (any::<bool>(), any::<bool>(), 1.0f64..600.0, 1.0f64..8.0),
        (
            any::<bool>(),
            0.0f64..0.5,
            0.0f64..0.5,
            0.0f64..100.0,
            1u64..32,
        ),
    )
        .prop_map(|(rate, sync, backoff, targets)| {
            let (has_sync, interval_s) = sync;
            let (has_backoff, gate_acquisition, recheck_s, sync_stretch) = backoff;
            let (has_targets, eco_below, above, harvest_weight, queue_cluster) = targets;
            PolicySpec {
                rate,
                sync_interval_s: has_sync.then_some(interval_s),
                backoff: has_backoff.then_some(FaultBackoff {
                    gate_acquisition,
                    recheck_s,
                    sync_stretch,
                }),
                targets: has_targets.then_some(TargetRule {
                    eco_below,
                    m4_above: eco_below + above,
                    harvest_weight,
                    queue_cluster,
                }),
            }
        })
}

proptest! {
    /// The generators only produce valid specs, and `rate_per_s` is
    /// monotone non-decreasing in SoC for every one of them — the
    /// closed-loop engine never rewards a device for *losing* charge.
    #[test]
    fn rate_is_monotone_in_soc_for_every_valid_spec(
        spec in policy_spec(),
        mut a in 0.0f64..=1.0,
        mut b in 0.0f64..=1.0,
    ) {
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let (ra, rb) = (spec.rate_per_s(a), spec.rate_per_s(b));
        prop_assert!(ra >= 0.0 && rb >= 0.0);
        prop_assert!(ra <= rb, "rate({a}) = {ra} > rate({b}) = {rb} for {spec:?}");
    }

    /// Scaling the rate commutes with evaluating it, and never touches
    /// the sync interval or the closed-loop behaviours.
    #[test]
    fn scaling_scales_the_rate_and_nothing_else(
        spec in policy_spec(),
        factor in 0.0f64..4.0,
        soc in 0.0f64..=1.0,
    ) {
        let scaled = spec.scaled(factor);
        let expect = spec.rate_per_s(soc) * factor;
        prop_assert!((scaled.rate_per_s(soc) - expect).abs() <= 1e-12 * expect.abs().max(1.0));
        prop_assert_eq!(scaled.sync_interval_s, spec.sync_interval_s);
        prop_assert_eq!(scaled.backoff, spec.backoff);
        prop_assert_eq!(scaled.targets, spec.targets);
    }

    /// The presets reproduce the classic policies' rate expressions
    /// bit for bit at every state of charge, before and after scaling.
    #[test]
    fn presets_match_the_classic_expressions_bit_for_bit(
        min_soc in prop_oneof![Just(0.0), 0.0f64..1.0],
        soc_pick in 0u8..4,
        interior in 0.0f64..=1.0,
        rate in prop_oneof![Just(24.0), 0.0f64..6000.0],
        interval_s in 1.0f64..3600.0,
        factor in prop_oneof![Just(1.0), 0.0f64..4.0],
    ) {
        // 0, `min_soc` and a full battery exactly, as often as an
        // interior point.
        let soc = [0.0, min_soc, 1.0, interior][usize::from(soc_pick)];
        let fixed = PolicySpec::fixed_rate(rate);
        let duty = PolicySpec::fixed_rate(rate).with_sync_interval(interval_s);
        let aware = PolicySpec::energy_aware(rate, min_soc);
        for (spec, scale) in [(fixed, 1.0), (fixed.scaled(factor), factor), (duty.scaled(factor), factor)] {
            prop_assert_eq!(
                spec.rate_per_s(soc).to_bits(),
                reference_fixed_rate(rate * scale).to_bits()
            );
        }
        prop_assert_eq!(
            aware.rate_per_s(soc).to_bits(),
            reference_energy_aware(rate, min_soc, soc).to_bits(),
            "energy_aware({}, {}) at soc {}", rate, min_soc, soc
        );
        prop_assert_eq!(
            aware.scaled(factor).rate_per_s(soc).to_bits(),
            reference_energy_aware(rate * factor, min_soc, soc).to_bits()
        );
    }

    /// The presets are never adaptive; backoff or target selection makes
    /// any spec adaptive.
    #[test]
    fn presets_are_not_adaptive_and_closed_loops_are(
        spec in policy_spec(),
        rate in 0.0f64..60.0,
        min_soc in 0.0f64..0.99,
        interval_s in 1.0f64..3600.0,
    ) {
        let presets = [
            PolicySpec::fixed_rate(rate),
            PolicySpec::energy_aware(rate, min_soc),
            PolicySpec::fixed_rate(rate).with_sync_interval(interval_s),
        ];
        for preset in presets {
            prop_assert!(!preset.is_adaptive(), "{:?}", preset);
            if let Some(backoff) = spec.backoff {
                prop_assert!(preset.with_backoff(backoff).is_adaptive());
            }
            if let Some(targets) = spec.targets {
                prop_assert!(preset.with_targets(targets).is_adaptive());
            }
        }
        if spec.backoff.is_some() || spec.targets.is_some() {
            prop_assert!(spec.is_adaptive(), "{:?}", spec);
        }
    }

    /// Target selection is total: every (SoC, queue, harvest) triple
    /// lands on exactly one class, the queue override wins, and richer
    /// energy pressure never moves the choice *toward* the cluster.
    #[test]
    fn target_selection_is_total_and_pressure_monotone(
        eco_below in 0.0f64..0.5,
        above in 0.0f64..0.5,
        harvest_weight in 0.0f64..100.0,
        queue_cluster in 1u64..32,
        soc_lo in 0.0f64..=1.0,
        soc_hi in 0.0f64..=1.0,
        queue in 0u64..64,
        harvest in 0.0f64..0.01,
    ) {
        let rule = TargetRule {
            eco_below,
            m4_above: eco_below + above,
            harvest_weight,
            queue_cluster,
        };
        prop_assert!(rule.validate().is_ok());
        if queue >= queue_cluster {
            prop_assert_eq!(rule.select(soc_lo, queue, harvest), TargetClass::Cluster);
        } else {
            let (lo, hi) = if soc_lo <= soc_hi { (soc_lo, soc_hi) } else { (soc_hi, soc_lo) };
            let rank = |c: TargetClass| match c {
                TargetClass::Cluster => 0,
                TargetClass::Ibex => 1,
                TargetClass::M4 => 2,
            };
            prop_assert!(
                rank(rule.select(lo, queue, harvest)) <= rank(rule.select(hi, queue, harvest))
            );
        }
    }
}
