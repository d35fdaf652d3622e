//! # iw-policy — the detection-scheduling policy engine
//!
//! The paper's headline claim is that *opportunistic, energy-aware
//! scheduling* is what makes the bracelet self-sustaining. This crate
//! owns that scheduling vocabulary in one type, [`PolicySpec`]: a rate
//! law ([`RateRule`] — a fixed rate, or a ramp over the observed state
//! of charge), an optional duty-cycled BLE sync interval, and two
//! optional closed-loop behaviours — workload-adaptive compute-target
//! selection ([`TargetRule`]) and fault-aware backoff
//! ([`FaultBackoff`]).
//!
//! The three classic policies the experiment tables are frozen against
//! are presets: [`PolicySpec::fixed_rate`], [`PolicySpec::energy_aware`]
//! (a ramp that reaches the full rate only at a full battery) and the
//! duty-cycled `fixed_rate(pm).with_sync_interval(s)`.
//! [`PolicySpec::is_adaptive`] is true exactly when a spec behaves
//! differently from every preset; the fleet layer folds its
//! policy-attribution block into the digest only then.
//!
//! Everything here is a pure function of observable device state
//! (observed state of charge, queue depth, a trailing harvest average,
//! fault signals), so the simulation stays deterministic and the fleet
//! digest algebra is untouched.

#![warn(missing_docs)]

fn ensure_rate(what: &str, rate: f64) -> Result<(), String> {
    if rate.is_finite() && rate >= 0.0 {
        Ok(())
    } else {
        Err(format!("{what} must be finite and >= 0, got {rate}"))
    }
}

/// Accepts an interval the engine can schedule: finite and at least
/// 0.5 µs, so that it rounds to a whole microsecond tick or more. A
/// shorter one rounds to 0 µs and re-arms its event at the same instant
/// forever.
fn ensure_interval(what: &str, interval: f64) -> Result<(), String> {
    if interval.is_finite() && interval * 1e6 >= 0.5 {
        Ok(())
    } else {
        Err(format!(
            "{what} must be finite and at least 0.5 µs (it rounds to whole \
             microseconds, and 0 µs never advances), got {interval}"
        ))
    }
}

/// The rate law of a [`PolicySpec`]: how the instantaneous detection
/// rate responds to the observed state of charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateRule {
    /// A fixed detection rate, whatever the state of charge.
    Fixed {
        /// Detections per minute.
        per_minute: f64,
    },
    /// A two-knee ramp: zero at or below `min_soc`, the full rate at or
    /// above `full_soc`, linear in between. The energy-aware preset
    /// ([`PolicySpec::energy_aware`]) is the special case
    /// `full_soc = 1.0`, which scales the rate by the state of charge
    /// (the "opportunistic" acquisition the paper describes); pulling
    /// `full_soc` down runs the detector flat out over most of the
    /// usable charge range while still backing off before a brown-out.
    SocRamp {
        /// Rate at or above `full_soc`, detections per minute.
        max_per_minute: f64,
        /// State of charge at or below which detection stops entirely.
        min_soc: f64,
        /// State of charge at or above which the full rate applies.
        full_soc: f64,
    },
}

impl RateRule {
    /// Instantaneous detection rate at state of charge `soc`, per second.
    #[must_use]
    pub fn rate_per_s(&self, soc: f64) -> f64 {
        match *self {
            RateRule::Fixed { per_minute } => per_minute / 60.0,
            RateRule::SocRamp {
                max_per_minute,
                min_soc,
                full_soc,
            } => {
                if soc <= min_soc {
                    0.0
                } else if soc >= full_soc {
                    max_per_minute / 60.0
                } else {
                    max_per_minute / 60.0 * ((soc - min_soc) / (full_soc - min_soc))
                }
            }
        }
    }

    /// Scales the rule's rate by `factor`, keeping every threshold.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> RateRule {
        match *self {
            RateRule::Fixed { per_minute } => RateRule::Fixed {
                per_minute: per_minute * factor,
            },
            RateRule::SocRamp {
                max_per_minute,
                min_soc,
                full_soc,
            } => RateRule::SocRamp {
                max_per_minute: max_per_minute * factor,
                min_soc,
                full_soc,
            },
        }
    }

    /// Rejects malformed rules with a human-readable reason.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            RateRule::Fixed { per_minute } => ensure_rate("Fixed per_minute", per_minute),
            RateRule::SocRamp {
                max_per_minute,
                min_soc,
                full_soc,
            } => {
                ensure_rate("SocRamp max_per_minute", max_per_minute)?;
                if !min_soc.is_finite() || !(0.0..1.0).contains(&min_soc) {
                    return Err(format!(
                        "SocRamp min_soc must be in [0, 1), got {min_soc} \
                         (min_soc >= 1 never detects)"
                    ));
                }
                if !full_soc.is_finite() || full_soc <= min_soc || full_soc > 1.0 {
                    return Err(format!(
                        "SocRamp full_soc must be in (min_soc, 1], got {full_soc} \
                         with min_soc {min_soc}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Fault-aware backoff: reacts to the device's live fault signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultBackoff {
    /// Suppress acquisition entirely while a signal-quality fault
    /// (lead-off, motion artifact) is active — the window would come out
    /// degraded anyway, so don't pay its energy.
    pub gate_acquisition: bool,
    /// How long to wait before re-checking the fault signals while
    /// acquisition is suppressed, seconds.
    pub recheck_s: f64,
    /// Multiplier applied to the BLE sync interval while the link looks
    /// dead — a gateway-outage fault window is open, or a sync episode
    /// just exhausted its retry budget (≥ 1; `1.0` leaves the cadence
    /// alone). Stretching the cadence avoids burning retry bursts into
    /// a dead link.
    pub sync_stretch: f64,
}

impl FaultBackoff {
    /// Rejects malformed backoff rules with a human-readable reason.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        ensure_interval("FaultBackoff recheck_s", self.recheck_s)?;
        if !self.sync_stretch.is_finite() || self.sync_stretch < 1.0 {
            return Err(format!(
                "FaultBackoff sync_stretch must be finite and >= 1, got {}",
                self.sync_stretch
            ));
        }
        Ok(())
    }
}

/// The compute targets an adaptive policy can dispatch a classification
/// to, in registry order. Indices are stable: they key the per-policy
/// attribution counters in the fleet records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetClass {
    /// The always-on Cortex-M4 host (no cluster wake-up, highest energy
    /// per classification).
    M4 = 0,
    /// A single Ibex (zero-riscy) core of Mr. Wolf.
    Ibex = 1,
    /// The 8×RI5CY parallel cluster (cheapest energy and lowest latency,
    /// at the cost of the wake-up/offload machinery).
    Cluster = 2,
}

impl TargetClass {
    /// All classes, in attribution-counter order.
    pub const ALL: [TargetClass; 3] = [TargetClass::M4, TargetClass::Ibex, TargetClass::Cluster];

    /// The attribution-counter index of this class.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TargetClass::M4 => "m4",
            TargetClass::Ibex => "ibex",
            TargetClass::Cluster => "cluster",
        }
    }
}

/// Workload-adaptive target selection: picks the compute target per
/// classification from an *energy pressure* score — the observed state
/// of charge plus a weighted trailing harvest average — and the sync
/// queue depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetRule {
    /// Below this pressure, always take the cheapest-energy target (the
    /// 8-core cluster).
    pub eco_below: f64,
    /// At or above this pressure energy is plentiful: run on the host M4
    /// and keep Mr. Wolf asleep. Between the two thresholds a single
    /// Ibex core balances energy and wake-up cost.
    pub m4_above: f64,
    /// Weight of the trailing harvest average (watts) in the pressure
    /// score — a strong harvest forecast counts like spare charge.
    pub harvest_weight: f64,
    /// Queue depth at or above which the backlog forces the fast cluster
    /// regardless of pressure.
    pub queue_cluster: u64,
}

impl TargetRule {
    /// Selects the compute target for the next classification.
    #[must_use]
    pub fn select(&self, soc: f64, queue_depth: u64, harvest_avg_w: f64) -> TargetClass {
        if queue_depth >= self.queue_cluster {
            return TargetClass::Cluster;
        }
        let pressure = soc + self.harvest_weight * harvest_avg_w;
        if pressure < self.eco_below {
            TargetClass::Cluster
        } else if pressure >= self.m4_above {
            TargetClass::M4
        } else {
            TargetClass::Ibex
        }
    }

    /// Rejects malformed rules with a human-readable reason.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.eco_below.is_finite() || self.eco_below < 0.0 {
            return Err(format!(
                "TargetRule eco_below must be finite and >= 0, got {}",
                self.eco_below
            ));
        }
        if !self.m4_above.is_finite() || self.m4_above < self.eco_below {
            return Err(format!(
                "TargetRule m4_above must be finite and >= eco_below, got {} with eco_below {}",
                self.m4_above, self.eco_below
            ));
        }
        if !self.harvest_weight.is_finite() || self.harvest_weight < 0.0 {
            return Err(format!(
                "TargetRule harvest_weight must be finite and >= 0, got {}",
                self.harvest_weight
            ));
        }
        if self.queue_cluster == 0 {
            return Err("TargetRule queue_cluster must be >= 1 (0 would force \
                        the cluster unconditionally; use eco_below for that)"
                .into());
        }
        Ok(())
    }
}

/// A declarative, parameterized detection policy: a rate law plus
/// optional sync batching and closed-loop behaviours. The three classic
/// policies are the presets [`PolicySpec::fixed_rate`],
/// [`PolicySpec::energy_aware`] and
/// `fixed_rate(pm).with_sync_interval(s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// How the detection rate responds to the observed state of charge.
    pub rate: RateRule,
    /// Duty-cycled BLE sync interval, seconds. `Some` batches result
    /// notifications and flushes them at each successful sync burst,
    /// amortising radio wake-ups; `None` notifies per detection.
    pub sync_interval_s: Option<f64>,
    /// Fault-aware backoff, if enabled.
    pub backoff: Option<FaultBackoff>,
    /// Workload-adaptive compute-target selection, if enabled.
    pub targets: Option<TargetRule>,
}

impl PolicySpec {
    /// A spec with the given rate law and no closed-loop behaviours.
    #[must_use]
    pub fn new(rate: RateRule) -> PolicySpec {
        PolicySpec {
            rate,
            sync_interval_s: None,
            backoff: None,
            targets: None,
        }
    }

    /// The fixed-rate preset: `per_minute` detections per minute,
    /// whatever the state of charge.
    #[must_use]
    pub fn fixed_rate(per_minute: f64) -> PolicySpec {
        PolicySpec::new(RateRule::Fixed { per_minute })
    }

    /// The energy-aware preset: `max_per_minute` scaled by how far the
    /// state of charge sits between `min_soc` (nothing) and a full
    /// battery (the full rate) — a [`RateRule::SocRamp`] with
    /// `full_soc = 1.0`.
    #[must_use]
    pub fn energy_aware(max_per_minute: f64, min_soc: f64) -> PolicySpec {
        PolicySpec::new(RateRule::SocRamp {
            max_per_minute,
            min_soc,
            full_soc: 1.0,
        })
    }

    /// Adds duty-cycled sync batching at `interval_s`.
    #[must_use]
    pub fn with_sync_interval(mut self, interval_s: f64) -> PolicySpec {
        self.sync_interval_s = Some(interval_s);
        self
    }

    /// Adds fault-aware backoff.
    #[must_use]
    pub fn with_backoff(mut self, backoff: FaultBackoff) -> PolicySpec {
        self.backoff = Some(backoff);
        self
    }

    /// Adds workload-adaptive target selection.
    #[must_use]
    pub fn with_targets(mut self, targets: TargetRule) -> PolicySpec {
        self.targets = Some(targets);
        self
    }

    /// Instantaneous detection rate at state of charge `soc`, per
    /// second (monotone non-decreasing in `soc` for every valid spec).
    #[must_use]
    pub fn rate_per_s(&self, soc: f64) -> f64 {
        self.rate.rate_per_s(soc)
    }

    /// Scales the detection rate by `factor`, keeping thresholds,
    /// intervals and closed-loop behaviours (per-subject activity
    /// scaling in the fleet runner).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> PolicySpec {
        PolicySpec {
            rate: self.rate.scaled(factor),
            ..*self
        }
    }

    /// True when the spec behaves differently from every preset: it has
    /// fault backoff or target selection, or a ramp that either reaches
    /// the full rate below a full battery or batches sync. The fleet
    /// layer folds the policy-attribution block into the digest only
    /// for adaptive specs, so preset digests stay frozen.
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        let adaptive_rate = match self.rate {
            RateRule::Fixed { .. } => false,
            RateRule::SocRamp { full_soc, .. } => full_soc < 1.0 || self.sync_interval_s.is_some(),
        };
        adaptive_rate || self.backoff.is_some() || self.targets.is_some()
    }

    /// Rejects malformed specs with a human-readable reason.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.rate.validate()?;
        if let Some(interval) = self.sync_interval_s {
            ensure_interval("PolicySpec sync_interval_s", interval)?;
        }
        if let Some(backoff) = self.backoff {
            backoff.validate()?;
        }
        if let Some(targets) = self.targets {
            targets.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_ignores_soc() {
        let p = PolicySpec::fixed_rate(24.0);
        assert_eq!(p.rate_per_s(0.1), p.rate_per_s(0.9));
        assert!((p.rate_per_s(0.5) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn energy_aware_scales_and_cuts_off() {
        let p = PolicySpec::energy_aware(60.0, 0.2);
        assert_eq!(p.rate_per_s(0.2), 0.0);
        assert_eq!(p.rate_per_s(0.05), 0.0);
        assert!((p.rate_per_s(1.0) - 1.0).abs() < 1e-12);
        assert!((p.rate_per_s(0.6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_min_soc_never_detects() {
        assert_eq!(PolicySpec::energy_aware(60.0, 1.0).rate_per_s(1.0), 0.0);
    }

    #[test]
    fn scaling_multiplies_the_rate() {
        let p = PolicySpec::fixed_rate(10.0).scaled(1.5);
        assert!((p.rate_per_s(0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn duty_cycled_sync_rate_ignores_soc_and_keeps_interval() {
        let p = PolicySpec::fixed_rate(24.0).with_sync_interval(120.0);
        assert_eq!(p.rate_per_s(0.1), p.rate_per_s(0.9));
        assert!((p.rate_per_s(0.5) - 0.4).abs() < 1e-12);
        assert_eq!(p.sync_interval_s, Some(120.0));
        assert_eq!(PolicySpec::fixed_rate(1.0).sync_interval_s, None);
        let scaled = p.scaled(0.5);
        assert!((scaled.rate_per_s(0.5) - 0.2).abs() < 1e-12);
        assert_eq!(scaled.sync_interval_s, Some(120.0));
    }

    #[test]
    fn validate_catches_the_degenerate_min_soc() {
        assert!(PolicySpec::energy_aware(24.0, 1.0).validate().is_err());
        assert!(PolicySpec::energy_aware(24.0, 0.1).validate().is_ok());
        assert!(PolicySpec::fixed_rate(f64::NAN).validate().is_err());
        assert!(PolicySpec::fixed_rate(24.0)
            .with_sync_interval(0.0)
            .validate()
            .is_err());
    }

    /// An interval that rounds to 0 µs would re-arm its tick at the same
    /// instant forever; one that rounds to 1 µs is the shortest the
    /// engine can schedule.
    #[test]
    fn validate_rejects_intervals_that_round_to_zero_microseconds() {
        let backoff = |recheck_s| FaultBackoff {
            gate_acquisition: true,
            recheck_s,
            sync_stretch: 1.0,
        };
        let err = PolicySpec::fixed_rate(12.0)
            .with_backoff(backoff(1e-7))
            .validate()
            .unwrap_err();
        assert!(err.contains("recheck_s"), "{err}");
        let err = PolicySpec::fixed_rate(12.0)
            .with_sync_interval(4e-7)
            .validate()
            .unwrap_err();
        assert!(err.contains("sync_interval_s"), "{err}");
        for ok in [1e-6, 0.5e-6] {
            assert_eq!(
                PolicySpec::fixed_rate(12.0)
                    .with_backoff(backoff(ok))
                    .with_sync_interval(ok)
                    .validate(),
                Ok(())
            );
        }
    }

    #[test]
    fn soc_ramp_ramps_between_the_knees() {
        let spec = PolicySpec::new(RateRule::SocRamp {
            max_per_minute: 60.0,
            min_soc: 0.1,
            full_soc: 0.5,
        });
        assert_eq!(spec.rate_per_s(0.05), 0.0);
        assert_eq!(spec.rate_per_s(0.1), 0.0);
        assert!((spec.rate_per_s(0.3) - 0.5).abs() < 1e-12);
        assert!((spec.rate_per_s(0.5) - 1.0).abs() < 1e-12);
        assert!((spec.rate_per_s(0.9) - 1.0).abs() < 1e-12);
        assert!(spec.is_adaptive());
        assert!(spec.validate().is_ok());
        assert!(PolicySpec::new(RateRule::SocRamp {
            max_per_minute: 60.0,
            min_soc: 0.5,
            full_soc: 0.5,
        })
        .validate()
        .is_err());
    }

    #[test]
    fn target_rule_switches_on_pressure_and_queue() {
        let rule = TargetRule {
            eco_below: 0.3,
            m4_above: 0.7,
            harvest_weight: 100.0,
            queue_cluster: 16,
        };
        assert_eq!(rule.select(0.2, 0, 0.0), TargetClass::Cluster);
        assert_eq!(rule.select(0.5, 0, 0.0), TargetClass::Ibex);
        assert_eq!(rule.select(0.9, 0, 0.0), TargetClass::M4);
        // A strong harvest forecast counts like spare charge.
        assert_eq!(rule.select(0.5, 0, 0.003), TargetClass::M4);
        // Backlog forces the fast cluster regardless of pressure.
        assert_eq!(rule.select(0.9, 16, 0.0), TargetClass::Cluster);
        assert!(rule.validate().is_ok());
        assert!(TargetRule {
            queue_cluster: 0,
            ..rule
        }
        .validate()
        .is_err());
        assert!(TargetRule {
            m4_above: 0.1,
            ..rule
        }
        .validate()
        .is_err());
    }

    #[test]
    fn backoff_and_spec_validation_compose() {
        let spec = PolicySpec::new(RateRule::SocRamp {
            max_per_minute: 24.0,
            min_soc: 0.05,
            full_soc: 0.4,
        })
        .with_sync_interval(300.0)
        .with_backoff(FaultBackoff {
            gate_acquisition: true,
            recheck_s: 30.0,
            sync_stretch: 4.0,
        });
        assert!(spec.validate().is_ok());
        assert_eq!(spec.sync_interval_s, Some(300.0));
        assert!(spec.is_adaptive());
        assert!(spec
            .with_backoff(FaultBackoff {
                gate_acquisition: true,
                recheck_s: 30.0,
                sync_stretch: 0.5,
            })
            .validate()
            .is_err());
        assert!(spec.with_sync_interval(-1.0).validate().is_err());
    }
}
