//! The bracelet's fault part and the brownout-safe degradation state
//! machine.
//!
//! [`Faults`] plays a pre-materialised [`FaultPlan`] back into the
//! engine: scheduled fault windows become [`Event::FaultStart`] /
//! [`Event::FaultEnd`] pairs that flip the shared-state flags the other
//! parts react to (signal corruption for the sensor front end, harvest
//! derating for the environment, fuel-gauge bias for the policy). On top
//! of the plan it runs the always-armed brownout state machine:
//!
//! ```text
//!            soc ≤ cutoff                     soc ≥ restart
//! Operational ───────────▶ BrownedOut ───────────▶ ColdStart
//!      ▲                   (acquisition off,            │
//!      │                    leakage load only)          │ cold_start_s
//!      └────────────────────────────────────────────────┘
//! ```
//!
//! Entering brownout drops [`DeviceState::base_load_w`] to the plan's
//! leakage fraction of the sleep floor and clears
//! [`DeviceState::acquisition_enabled`]; the policy skips scheduling
//! while the flag is down. Once the battery recovers past the restart
//! threshold, a BQ25570-style cold-start delay elapses before the
//! device resumes — the full episode length is accounted as downtime
//! and recovery time in [`DeviceState::reliability`].

use iw_fault::{mix, FaultKind, FaultPlan, SplitMix64};
use iw_trace::TraceSink;

use crate::engine::{secs_to_us, DeviceState, Event, SimCtx};

/// Stream-derivation constant for the fuel-gauge noise stream (keeps it
/// decorrelated from the BLE-loss stream derived from the same plan
/// seed).
pub(crate) const GAUGE_STREAM: u64 = 0x6741_5547_4531; // "gAUGE1"

/// Stream-derivation constant for the BLE sync-loss stream.
pub(crate) const BLE_STREAM: u64 = 0x424c_4531; // "BLE1"

/// Plays a borrowed [`FaultPlan`] and runs the brownout state machine.
pub(crate) struct Faults<'a> {
    plan: &'a FaultPlan,
    gauge_rng: SplitMix64,
    gauge_interval_us: u64,
    sleep_floor_w: f64,
    /// The brownout thresholds as stored charges: `charge <= cutoff_j`
    /// exactly when `soc <= cutoff_soc`, and `charge >= restart_j`
    /// exactly when `soc >= restart_soc`, so the per-event poll compares
    /// without dividing.
    cutoff_j: f64,
    restart_j: f64,
    recovering: bool,
}

impl<'a> Faults<'a> {
    /// A fault part for `plan` on a cell of `capacity_j`. `sleep_floor_w`
    /// is the configured base load, restored when the device resumes from
    /// brownout.
    pub(crate) fn new(plan: &'a FaultPlan, sleep_floor_w: f64, capacity_j: f64) -> Faults<'a> {
        Faults {
            gauge_rng: SplitMix64::new(mix(plan.seed, GAUGE_STREAM)),
            gauge_interval_us: secs_to_us(plan.gauge_interval_s).max(1),
            sleep_floor_w,
            cutoff_j: charge_at_most(plan.brownout.cutoff_soc, capacity_j),
            restart_j: charge_at_least(plan.brownout.restart_soc, capacity_j),
            recovering: false,
            plan,
        }
    }

    /// Schedules the first fault window and, under gauge noise, the first
    /// gauge tick.
    pub(crate) fn start<S: TraceSink>(&self, ctx: &mut SimCtx<'_, S>) {
        if !self.plan.windows.is_empty() {
            ctx.schedule_at(
                self.plan.windows[0].start_us,
                Event::FaultStart { index: 0 },
            );
        }
        if self.plan.gauge_noise_soc > 0.0 {
            // One "episode" per run: the noise stream itself.
            ctx.state.faults.add(FaultKind::GaugeNoise);
            ctx.schedule_at(0, Event::GaugeTick);
        }
    }

    /// Window `index` opens: flips its flag, counts its episode, and
    /// schedules its end and the next window's start.
    #[inline]
    pub(crate) fn window_start<S: TraceSink>(&self, index: usize, ctx: &mut SimCtx<'_, S>) {
        let w = self.plan.windows[index];
        match w.kind {
            k if k.corrupts_signal() => ctx.state.signal_faults += 1,
            FaultKind::SolarOcclusion => ctx.state.solar_derate = w.severity,
            FaultKind::TegCollapse => ctx.state.teg_derate = w.severity,
            // Scenario-compiled gateway outage: while any such window is
            // open every sync attempt fails (the radio's retry/backoff
            // machinery absorbs it). Counted, so overlaps nest safely.
            FaultKind::BleLoss => ctx.state.gateway_down += 1,
            _ => {}
        }
        ctx.state.faults.add(w.kind);
        if S::ENABLED {
            let track = ctx.tracks.device;
            ctx.sink.instant(track, w.kind.label(), ctx.now_us);
        }
        ctx.schedule_at(w.end_us, Event::FaultEnd { index });
        if let Some(next) = self.plan.windows.get(index + 1) {
            ctx.schedule_at(next.start_us, Event::FaultStart { index: index + 1 });
        }
    }

    /// Window `index` closes: restores its flag.
    #[inline]
    pub(crate) fn window_end<S: TraceSink>(&self, index: usize, ctx: &mut SimCtx<'_, S>) {
        match self.plan.windows[index].kind {
            k if k.corrupts_signal() => ctx.state.signal_faults -= 1,
            FaultKind::SolarOcclusion => ctx.state.solar_derate = 1.0,
            FaultKind::TegCollapse => ctx.state.teg_derate = 1.0,
            FaultKind::BleLoss => ctx.state.gateway_down -= 1,
            _ => {}
        }
    }

    /// Fuel-gauge noise resamples the gauge's read error.
    #[inline]
    pub(crate) fn gauge<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        let a = self.plan.gauge_noise_soc;
        ctx.state.soc_bias = self.gauge_rng.range_f64(-a, a);
        ctx.schedule_in(self.gauge_interval_us, Event::GaugeTick);
    }

    /// The brownout state machine, evaluated against the *true* state of
    /// charge on every state-changing event (events are the only instants
    /// anything can change, so per-event polling is exact).
    #[inline]
    pub(crate) fn poll_brownout<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        let charge_j = ctx.state.battery.charge_j();
        let model = self.plan.brownout;
        if ctx.state.acquisition_enabled {
            if charge_j <= self.cutoff_j {
                ctx.state.acquisition_enabled = false;
                ctx.state.down_since_us = Some(ctx.now_us);
                ctx.state.base_load_w = self.sleep_floor_w * model.leakage_fraction;
                ctx.state.faults.add(FaultKind::Brownout);
                ctx.state.reliability.brownouts += 1;
                if S::ENABLED {
                    let track = ctx.tracks.device;
                    ctx.sink.instant(track, "brownout", ctx.now_us);
                }
            }
        } else if !self.recovering && charge_j >= self.restart_j {
            self.recovering = true;
            ctx.schedule_in(secs_to_us(model.cold_start_s), Event::BrownoutRecover);
        }
    }

    /// The cold-start delay elapsed: the device resumes if the battery is
    /// still above the restart threshold.
    #[inline]
    pub(crate) fn recover<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        self.recovering = false;
        // The cold start only sticks if the battery is still above the
        // restart threshold (a load spike during the delay re-arms).
        // `charge < restart_j` is `soc < restart_soc`: both are false
        // when the threshold is NaN, and otherwise the negation of the
        // `>=` pair above.
        if ctx.state.acquisition_enabled || ctx.state.battery.charge_j() < self.restart_j {
            return;
        }
        ctx.state.acquisition_enabled = true;
        ctx.state.base_load_w = self.sleep_floor_w;
        let down = ctx
            .state
            .down_since_us
            .take()
            .expect("brownout episode open");
        let episode_us = ctx.now_us - down;
        ctx.state.reliability.downtime_us += episode_us;
        ctx.state.reliability.recovery_us += episode_us;
        ctx.state.reliability.recoveries += 1;
        if S::ENABLED {
            let track = ctx.tracks.device;
            ctx.sink.instant(track, "resume", ctx.now_us);
        }
    }
}

/// The largest charge `x` whose state of charge `x / capacity_j` is at
/// most `soc`, so that `x <= charge_at_most(soc, capacity_j)` exactly when
/// `x / capacity_j <= soc`, for every charge. Correctly rounded division
/// by a positive capacity is monotone in the dividend, so the charges
/// that pass form a prefix of the floats in order, and a binary search
/// over their ordered bit patterns (at most 64 divisions) finds its end.
/// NaN when no charge passes, which only a NaN `soc` causes (`-inf`
/// always passes), so the compare is false for every charge, as the
/// division's is. `capacity_j` must be positive and finite, as
/// [`iw_harvest::Battery`] guarantees.
pub(crate) fn charge_at_most(soc: f64, capacity_j: f64) -> f64 {
    /// Increasing in the float's value over every non-NaN float, `-0.0`
    /// just below `+0.0`.
    fn key(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }
    fn value(key: u64) -> f64 {
        f64::from_bits(if key >> 63 == 1 {
            key & !(1 << 63)
        } else {
            !key
        })
    }
    let passes = |x: f64| x / capacity_j <= soc;
    let (mut lo, mut hi) = (key(f64::NEG_INFINITY), key(f64::INFINITY));
    if !passes(value(lo)) {
        return f64::NAN;
    }
    if passes(value(hi)) {
        return f64::INFINITY;
    }
    // `lo` passes and `hi` does not; every key between is a number.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(value(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    value(lo)
}

/// The smallest charge `x` whose state of charge `x / capacity_j` is at
/// least `soc`: `x >= charge_at_least(soc, capacity_j)` exactly when
/// `x / capacity_j >= soc`. Negation is exact and commutes with the
/// division, so this is [`charge_at_most`] mirrored through zero.
pub(crate) fn charge_at_least(soc: f64, capacity_j: f64) -> f64 {
    -charge_at_most(-soc, capacity_j)
}

/// Finalises the reliability accumulators after a run: closes a
/// still-open brownout episode against the run horizon `end_us`.
pub(crate) fn finalize_reliability(state: &mut DeviceState, end_us: u64) {
    if let Some(down) = state.down_since_us.take() {
        state.reliability.downtime_us += end_us.saturating_sub(down);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_fault::{FaultProfile, FaultWindow};

    #[test]
    fn streams_are_distinct_per_purpose() {
        let seed = 99;
        assert_ne!(mix(seed, GAUGE_STREAM), mix(seed, BLE_STREAM));
    }

    #[test]
    fn finalize_closes_open_episode() {
        let mut state = DeviceState::new(iw_harvest::Battery::new(10.0));
        state.down_since_us = Some(40);
        finalize_reliability(&mut state, 100);
        assert_eq!(state.reliability.downtime_us, 60);
        assert_eq!(state.down_since_us, None);
        // Idempotent on a closed episode.
        finalize_reliability(&mut state, 100);
        assert_eq!(state.reliability.downtime_us, 60);
    }

    #[test]
    fn component_construction_is_deterministic() {
        let plan = FaultProfile::Harsh.plan(5, 3600.0);
        let a = Faults::new(&plan, 1e-3, 40.0);
        let b = Faults::new(&plan, 1e-3, 40.0);
        assert_eq!(a.gauge_rng, b.gauge_rng);
        assert_eq!(a.gauge_interval_us, b.gauge_interval_us);
    }

    #[test]
    fn window_kinds_route_to_the_right_flags() {
        use FaultKind::*;
        // One window of each scheduled kind, then two overlapping signal
        // windows, opened at 0 µs and closed at 10 µs.
        let kinds = [
            EcgLeadOff,
            MotionArtifact,
            GsrDetach,
            SolarOcclusion,
            TegCollapse,
            BleLoss,
            EcgLeadOff,
            MotionArtifact,
        ];
        let plan = FaultPlan {
            windows: kinds
                .iter()
                .map(|&kind| FaultWindow {
                    kind,
                    start_us: 0,
                    end_us: 10,
                    severity: 0.25,
                })
                .collect(),
            ..FaultPlan::none()
        };
        let fault = Faults::new(&plan, 1e-3, 10.0);
        let mut state = DeviceState::new(iw_harvest::Battery::new(10.0));
        // (signal_faults, solar_derate, teg_derate, gateway_down)
        let flags = |s: &DeviceState| {
            (
                s.signal_faults,
                s.solar_derate,
                s.teg_derate,
                s.gateway_down,
            )
        };
        let clear = (0, 1.0, 1.0, 0);
        for (index, open) in [
            (1, 1.0, 1.0, 0),
            (1, 1.0, 1.0, 0),
            (1, 1.0, 1.0, 0),
            (0, 0.25, 1.0, 0),
            (0, 1.0, 0.25, 0),
            (0, 1.0, 1.0, 1),
        ]
        .into_iter()
        .enumerate()
        {
            let kind = kinds[index];
            state.with_ctx(0, |ctx| fault.window_start(index, ctx));
            assert_eq!(flags(&state), open, "{kind:?} open");
            assert_eq!(state.faults.get(kind), 1, "{kind:?} open");
            state.with_ctx(10, |ctx| fault.window_end(index, ctx));
            assert_eq!(flags(&state), clear, "{kind:?} closed");
            assert_eq!(state.faults.get(kind), 1, "{kind:?} closed");
        }
        // The two signal windows nest: the flag counts open windows.
        let mut signal = Vec::new();
        state.with_ctx(0, |ctx| fault.window_start(6, ctx));
        signal.push(state.signal_faults);
        state.with_ctx(0, |ctx| fault.window_start(7, ctx));
        signal.push(state.signal_faults);
        state.with_ctx(10, |ctx| fault.window_end(6, ctx));
        signal.push(state.signal_faults);
        state.with_ctx(10, |ctx| fault.window_end(7, ctx));
        signal.push(state.signal_faults);
        assert_eq!(signal, [1, 2, 1, 0]);
        assert_eq!(
            (
                state.faults.get(EcgLeadOff),
                state.faults.get(MotionArtifact)
            ),
            (2, 2)
        );
        assert_eq!(flags(&state), clear);
    }

    mod threshold_props {
        use super::*;
        use iw_fault::BrownoutModel;
        use iw_harvest::Battery;
        use proptest::prelude::*;

        /// The D5 stress cell, the 2 J recovery cell, the InfiniWolf
        /// battery, or a random capacity from 2^-20 to 2^20 J.
        fn capacity() -> impl Strategy<Value = f64> {
            (0u8..4, 1.0f64..2.0, -20i32..20).prop_map(|(pick, mantissa, exp)| match pick {
                0 => 40.0,
                1 => 2.0,
                2 => Battery::infiniwolf().capacity_j(),
                _ => mantissa * 2f64.powi(exp),
            })
        }

        /// The preset brownout thresholds, 0, 1, ±inf, NaN, or a random
        /// value from -2 to 3 (negative, inside `[0, 1]` and above 1).
        fn threshold() -> impl Strategy<Value = f64> {
            let preset = BrownoutModel::default();
            (0u8..9, -2.0f64..3.0).prop_map(move |(pick, random)| match pick {
                0 => preset.cutoff_soc,
                1 => preset.restart_soc,
                2 => 0.0,
                3 => 1.0,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                6 => f64::NAN,
                _ => random,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Comparing the charge with the thresholds decides exactly
            /// what comparing the state of charge with the SoC thresholds
            /// decides: for every charge within 64 ulps of `soc × cap`,
            /// the thresholds themselves and random charges in
            /// `[0, cap]`, in the `<=`, `>=` and `<` forms the brownout
            /// machine uses.
            #[test]
            fn charge_thresholds_decide_like_the_soc_compare(
                cap in capacity(),
                soc in threshold(),
                fractions in prop::collection::vec(0.0f64..=1.0, 16),
            ) {
                let cutoff_j = charge_at_most(soc, cap);
                let restart_j = charge_at_least(soc, cap);
                let mut charges = vec![cutoff_j, restart_j];
                let mut near = soc * cap;
                for _ in 0..64 {
                    near = near.next_down();
                }
                for _ in 0..=128 {
                    charges.push(near);
                    near = near.next_up();
                }
                charges.extend(fractions.iter().map(|f| f * cap));
                for charge in charges {
                    let soc_now = charge / cap;
                    prop_assert_eq!(charge <= cutoff_j, soc_now <= soc, "{} J of {} J", charge, cap);
                    prop_assert_eq!(charge >= restart_j, soc_now >= soc, "{} J of {} J", charge, cap);
                    prop_assert_eq!(charge < restart_j, soc_now < soc, "{} J of {} J", charge, cap);
                }
            }
        }
    }
}
