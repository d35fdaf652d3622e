//! The fault-injection component and the brownout-safe degradation
//! state machine.
//!
//! [`FaultComponent`] plays a pre-materialised [`FaultPlan`] back into
//! the engine: scheduled fault windows become [`Event::FaultStart`] /
//! [`Event::FaultEnd`] pairs that flip the shared-state flags the other
//! components react to (signal corruption for the sensor front end,
//! harvest derating for the environment, fuel-gauge bias for the
//! policy). On top of the plan it runs the always-armed brownout state
//! machine:
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

use crate::engine::{secs_to_us, Component, DeviceState, Event, EventKind, SimCtx};

/// Stream-derivation constant for the fuel-gauge noise stream (keeps it
/// decorrelated from the BLE-loss stream derived from the same plan
/// seed).
pub(crate) const GAUGE_STREAM: u64 = 0x6741_5547_4531; // "gAUGE1"

/// Stream-derivation constant for the BLE sync-loss stream.
pub(crate) const BLE_STREAM: u64 = 0x424c_4531; // "BLE1"

/// Plays a [`FaultPlan`] and runs the brownout state machine.
pub struct FaultComponent {
    plan: FaultPlan,
    gauge_rng: SplitMix64,
    gauge_interval_us: u64,
    sleep_floor_w: f64,
    recovering: bool,
    trace: bool,
}

impl FaultComponent {
    /// A component for `plan`. `sleep_floor_w` is the configured base
    /// load, restored when the device resumes from brownout.
    #[must_use]
    pub fn new(plan: FaultPlan, sleep_floor_w: f64, trace: bool) -> FaultComponent {
        let gauge_rng = SplitMix64::new(mix(plan.seed, GAUGE_STREAM));
        let gauge_interval_us = secs_to_us(plan.gauge_interval_s).max(1);
        FaultComponent {
            plan,
            gauge_rng,
            gauge_interval_us,
            sleep_floor_w,
            recovering: false,
            trace,
        }
    }

    fn apply_window<S: TraceSink>(&self, index: usize, ctx: &mut SimCtx<'_, S>) {
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
        if S::ENABLED && self.trace {
            let track = ctx.tracks.device;
            ctx.sink.instant(track, w.kind.label(), ctx.now_us);
        }
    }

    fn revert_window<S: TraceSink>(&self, index: usize, ctx: &mut SimCtx<'_, S>) {
        let w = self.plan.windows[index];
        match w.kind {
            k if k.corrupts_signal() => ctx.state.signal_faults -= 1,
            FaultKind::SolarOcclusion => ctx.state.solar_derate = 1.0,
            FaultKind::TegCollapse => ctx.state.teg_derate = 1.0,
            FaultKind::BleLoss => ctx.state.gateway_down -= 1,
            _ => {}
        }
    }

    /// The brownout state machine, evaluated against the *true* state of
    /// charge on every state-changing event (events are the only instants
    /// anything can change, so per-event polling is exact).
    fn poll_brownout<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        let soc = ctx.state.battery.soc();
        let model = self.plan.brownout;
        if ctx.state.acquisition_enabled {
            if soc <= model.cutoff_soc {
                ctx.state.acquisition_enabled = false;
                ctx.state.down_since_us = Some(ctx.now_us);
                ctx.state.base_load_w = self.sleep_floor_w * model.leakage_fraction;
                ctx.state.faults.add(FaultKind::Brownout);
                ctx.state.reliability.brownouts += 1;
                if S::ENABLED && self.trace {
                    let track = ctx.tracks.device;
                    ctx.sink.instant(track, "brownout", ctx.now_us);
                }
            }
        } else if !self.recovering && soc >= model.restart_soc {
            self.recovering = true;
            ctx.schedule_in(secs_to_us(model.cold_start_s), Event::BrownoutRecover);
        }
    }

    fn try_resume<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        self.recovering = false;
        // The cold start only sticks if the battery is still above the
        // restart threshold (a load spike during the delay re-arms).
        if ctx.state.acquisition_enabled || ctx.state.battery.soc() < self.plan.brownout.restart_soc
        {
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
        if S::ENABLED && self.trace {
            let track = ctx.tracks.device;
            ctx.sink.instant(track, "resume", ctx.now_us);
        }
    }
}

impl<S: TraceSink> Component<S> for FaultComponent {
    fn name(&self) -> &'static str {
        "faults"
    }

    /// Every kind but `Sample`: the brownout machine polls on every event
    /// that can change state. Trace sampling is pure observation — a
    /// `Sample` event exists only when a sampler is attached — so polling
    /// on it would let the *act of tracing* shift detection timestamps;
    /// leaving it out keeps a traced run bit-identical to the untraced one.
    fn subscriptions(&self) -> &'static [EventKind] {
        &[
            EventKind::EnvSegment,
            EventKind::PolicyTick,
            EventKind::AcquireStart,
            EventKind::AcquireEnd,
            EventKind::ComputeStart,
            EventKind::ComputeEnd,
            EventKind::BleSyncStart,
            EventKind::BleSyncEnd,
            EventKind::FaultStart,
            EventKind::FaultEnd,
            EventKind::ContactStart,
            EventKind::ContactEnd,
            EventKind::GaugeTick,
            EventKind::BrownoutRecover,
            EventKind::End,
        ]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
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

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        match ev {
            Event::FaultStart { index } => {
                self.apply_window(index, ctx);
                ctx.schedule_at(self.plan.windows[index].end_us, Event::FaultEnd { index });
                if index + 1 < self.plan.windows.len() {
                    ctx.schedule_at(
                        self.plan.windows[index + 1].start_us,
                        Event::FaultStart { index: index + 1 },
                    );
                }
            }
            Event::FaultEnd { index } => self.revert_window(index, ctx),
            Event::GaugeTick => {
                let a = self.plan.gauge_noise_soc;
                ctx.state.soc_bias = self.gauge_rng.range_f64(-a, a);
                ctx.schedule_in(self.gauge_interval_us, Event::GaugeTick);
            }
            Event::BrownoutRecover => self.try_resume(ctx),
            _ => {}
        }
        self.poll_brownout(ctx);
    }
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
        let a = FaultComponent::new(plan.clone(), 1e-3, false);
        let b = FaultComponent::new(plan, 1e-3, false);
        assert_eq!(a.gauge_rng, b.gauge_rng);
        assert_eq!(a.gauge_interval_us, b.gauge_interval_us);
    }

    #[test]
    fn window_kinds_route_to_the_right_flags() {
        let w = |kind| FaultWindow {
            kind,
            start_us: 0,
            end_us: 10,
            severity: 0.25,
        };
        for (kind, signal) in [
            (FaultKind::EcgLeadOff, true),
            (FaultKind::MotionArtifact, true),
            (FaultKind::GsrDetach, true),
            (FaultKind::SolarOcclusion, false),
            (FaultKind::TegCollapse, false),
        ] {
            assert_eq!(w(kind).kind.corrupts_signal(), signal);
        }
    }
}
