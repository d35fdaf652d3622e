//! The whole-device simulation: the InfiniWolf bracelet assembled from
//! event-engine components.
//!
//! Component wiring. Each component receives only the event kinds listed
//! on its rows (its subscriptions); arrows show what it does and
//! schedules in response. Components are added in this order, which is
//! also the order in which two subscribers of one kind run:
//!
//! ```text
//! FaultComponent    ── every kind but Sample ─▶ fault windows, gauge noise,
//!                                               brownout poll + recovery
//! EnvComponent      ── EnvSegment{i} ──▶ sets solar/TEG intake, End at t_end
//! PolicyComponent   ── PolicyTick ─────▶ AcquireStart + next PolicyTick
//! SensorComponent   ── AcquireStart ───▶ AFE load on, AcquireEnd at +3 s
//!                   ── AcquireEnd ─────▶ AFE load off, ComputeStart
//!                   ── FaultStart ─────▶ taints open windows (after faults)
//! ComputeComponent  ── ComputeStart ───▶ cluster load on, ComputeEnd at +T
//!                   ── ComputeEnd ─────▶ one detection retired
//! RadioComponent    ── ComputeEnd ─────▶ result-notification impulse
//!                   ── BleSyncStart ───▶ radio load on, BleSyncEnd at +burst
//!                   ── BleSyncEnd ─────▶ sync outcome, retry or next burst
//! BleScanComponent  ── ContactStart ───▶ scan load on, ContactEnd at +scan
//!                   ── ContactEnd ─────▶ contact observed or missed
//! SamplerComponent  ── Sample ─────────▶ TracePoint + harvest counters
//! ```
//!
//! Acquisition windows (and compute jobs) may overlap when the policy
//! rate exceeds `1 / window`; each component tracks its multiplicity and
//! sets its load slot to `count × unit_power`, so the integrated energy
//! is exactly `completed_detections × per-detection energy` — the same
//! arithmetic as the paper's steady-state analysis.

use std::collections::VecDeque;

use iw_fault::{
    mix, FaultCounters, FaultKind, FaultPlan, ReliabilityCounters, SplitMix64, SyncOutcome,
};
use iw_harvest::{Battery, EnvProfile, SimReport, SolarHarvester, TegHarvester, TracePoint};
use iw_kernels::MachineRun;
use iw_metrics::Histogram;
use iw_nrf52::BleRadio;
use iw_scenario::ContactPlan;
use iw_trace::TraceSink;

use crate::engine::{secs_to_us, Component, Engine, Event, EventKind, LoadSlot, SimCtx};
use crate::faults::{finalize_reliability, FaultComponent, BLE_STREAM};
use iw_policy::{PolicySpec, TargetRule};

/// One compute job dispatched per detection: duration and energy, derived
/// from a cycle count on a simulated machine (or given analytically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeJob {
    /// Job duration, seconds.
    pub duration_s: f64,
    /// Job energy, joules.
    pub energy_j: f64,
    /// Cycle count behind `duration_s` (0 when analytic).
    pub cycles: u64,
}

impl ComputeJob {
    /// A job from an explicit duration and energy.
    #[must_use]
    pub fn analytic(duration_s: f64, energy_j: f64) -> ComputeJob {
        ComputeJob {
            duration_s,
            energy_j,
            cycles: 0,
        }
    }

    /// A job from a finished [`MachineRun`]: cycles at `clock_hz` give the
    /// event duration, the run's energy breakdown gives the burst energy.
    #[must_use]
    pub fn from_run(run: &MachineRun, clock_hz: f64) -> ComputeJob {
        ComputeJob {
            duration_s: run.cycles as f64 / clock_hz,
            energy_j: run.energy.total_j,
            cycles: run.cycles,
        }
    }

    /// Average power during the job, watts (zero for zero-duration jobs,
    /// whose energy is drawn as an impulse instead).
    #[must_use]
    pub fn power_w(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.energy_j / self.duration_s
        } else {
            0.0
        }
    }
}

/// Per-detection costs: the sensor acquisition window plus the compute
/// job it feeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionCosts {
    /// Acquisition energy over the window (ECG + GSR front ends), joules.
    pub acquisition_j: f64,
    /// Acquisition window length, seconds (the paper's 3 s).
    pub acquisition_s: f64,
    /// The compute job (feature extraction + classification).
    pub compute: ComputeJob,
}

impl DetectionCosts {
    /// Total energy of one detection, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.acquisition_j + self.compute.energy_j
    }
}

/// A periodic BLE synchronisation burst: the radio keys on for `burst_s`
/// every `interval_s`, drawing `power_w` on top of everything else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BleSync {
    /// Time between burst starts, seconds.
    pub interval_s: f64,
    /// Burst length, seconds.
    pub burst_s: f64,
    /// Battery-side burst power, watts.
    pub power_w: f64,
}

impl BleSync {
    /// A sync burst sized from the nRF52832 radio model: `payload` bytes
    /// notified per burst, spread over one ~2.5 ms connection event.
    #[must_use]
    pub fn nrf52(radio: &BleRadio, interval_s: f64, payload: usize) -> BleSync {
        let burst_s = 2.5e-3;
        BleSync {
            interval_s,
            burst_s,
            power_w: radio.notify_energy_j(payload) / burst_s,
        }
    }
}

/// Everything the engine run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// The classic battery-trajectory report (same type the old
    /// fixed-timestep simulator produced, so downstream tooling is
    /// unchanged).
    pub sim: SimReport,
    /// Detections completed.
    pub detections: u64,
    /// Per-detection BLE result notifications sent.
    pub notifications: u64,
    /// Periodic BLE sync bursts completed.
    pub sync_bursts: u64,
    /// Events the engine processed (throughput accounting).
    pub events: u64,
    /// Peak event-queue depth over the run (engine instrumentation).
    pub queue_high_water: u64,
    /// Distribution of BLE transmission attempts per sync episode.
    pub sync_attempts: Histogram,
    /// Distribution of BLE retry backoff delays, µs.
    pub sync_backoff_us: Histogram,
    /// Per-fault-kind episode counters.
    pub faults: FaultCounters,
    /// Reliability accumulators (downtime, gated windows, sync outcomes).
    pub reliability: ReliabilityCounters,
    /// Fraction of the run the device was operational (not browned out).
    pub uptime: f64,
    /// The battery in its final state.
    pub battery: Battery,
    /// Scenario contacts observed (scan completed with the device up).
    pub contacts_observed: u64,
    /// Scenario contacts missed because the device was browned out.
    pub contacts_missed: u64,
    /// Observed contacts uplinked through a successful sync burst.
    pub contacts_uplinked: u64,
    /// Energy spent in BLE scan windows, joules.
    pub scan_energy_j: f64,
    /// Observed contact edges as `(epoch, peer)` pairs, in scan order.
    pub contact_edges: Vec<(u32, u32)>,
    /// Classifications dispatched per compute-target class
    /// ([`iw_policy::TargetClass`] order: M4, Ibex, cluster); all zero without an
    /// adaptive target rule.
    pub target_counts: [u64; 3],
    /// Acquisitions suppressed by fault-aware backoff.
    pub backoff_skips: u64,
    /// Sync intervals stretched while the gateway was unreachable.
    pub sync_stretches: u64,
}

/// Configuration of one whole-device run.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// The environment the device lives through.
    pub env: EnvProfile,
    /// Solar harvesting chain.
    pub solar: SolarHarvester,
    /// TEG harvesting chain.
    pub teg: TegHarvester,
    /// The battery, in its starting state.
    pub battery: Battery,
    /// Detection-scheduling policy.
    pub policy: PolicySpec,
    /// Per-detection costs.
    pub costs: DetectionCosts,
    /// Per-target-class compute jobs ([`iw_policy::TargetClass`] order: M4, Ibex,
    /// cluster), used when the policy carries a [`TargetRule`]. `None`
    /// (or a policy without a target rule) runs every classification on
    /// [`Self::costs`]' single compute job.
    pub target_jobs: Option<[ComputeJob; 3]>,
    /// Always-on battery-side sleep floor, watts.
    pub sleep_floor_w: f64,
    /// Energy to notify one detection result over BLE, joules (0 = off).
    pub notify_j: f64,
    /// Optional periodic BLE sync bursts.
    pub sync: Option<BleSync>,
    /// The fault plan this run plays back ([`FaultPlan::none`] keeps
    /// only the always-armed brownout state machine).
    pub faults: FaultPlan,
    /// The scenario-compiled contact plan this device plays back (empty
    /// = no scanning, the classic isolated-device run).
    pub contacts: ContactPlan,
    /// Target number of trace samples over the run (0 = no trace).
    pub trace_points: usize,
    /// Emit a span per acquisition window / compute job when tracing
    /// (disable for day-scale traces where only the counters matter).
    pub detection_spans: bool,
}

/// Battery-side sleep floor from the shared power tables: both SoCs idle
/// (nRF52832 system-ON idle + Mr. Wolf deep sleep).
#[must_use]
pub fn default_sleep_floor_w() -> f64 {
    iw_power::nrf52::table().power_w("idle") + iw_power::mrwolf::table().power_w("sleep")
}

impl DeviceConfig {
    /// A paper-configured device: InfiniWolf harvesters and battery, the
    /// shared-table sleep floor, no BLE, ~500 trace points.
    #[must_use]
    pub fn new(env: EnvProfile, policy: PolicySpec, costs: DetectionCosts) -> DeviceConfig {
        DeviceConfig {
            env,
            solar: SolarHarvester::infiniwolf(),
            teg: TegHarvester::infiniwolf(),
            battery: Battery::infiniwolf(),
            policy,
            costs,
            target_jobs: None,
            sleep_floor_w: default_sleep_floor_w(),
            notify_j: 0.0,
            sync: None,
            faults: FaultPlan::none(),
            contacts: ContactPlan::default(),
            trace_points: 500,
            detection_spans: true,
        }
    }

    /// Runs the device without tracing.
    #[must_use]
    pub fn run(&self) -> DeviceReport {
        self.run_traced(&mut iw_trace::NoopSink)
    }

    /// Runs the device with every component emitting into `sink`:
    /// `soc_pct` / `solar_mw` / `teg_mw` / `load_mw` counters on a
    /// `harvest` track (1 s ticks) and, when [`Self::detection_spans`] is
    /// set, `acquire` / `compute` / `ble-sync` spans plus `notify`
    /// instants on a `device` track (1 µs ticks).
    pub fn run_traced<S: TraceSink>(&self, sink: &mut S) -> DeviceReport {
        let mut engine: Engine<S> = Engine::new(self.battery);
        engine.state.base_load_w = self.sleep_floor_w;
        // The fault component goes first: state flips (brownout, signal
        // corruption, harvest derates) land before any same-timestamp
        // policy or sensor reads, which keeps runs order-deterministic.
        engine.add(Box::new(FaultComponent::new(
            self.faults.clone(),
            self.sleep_floor_w,
            self.detection_spans,
        )));
        engine.add(Box::new(EnvComponent::new(
            &self.env,
            &self.solar,
            &self.teg,
        )));
        engine.add(Box::new(PolicyComponent::new(self.policy)));
        engine.add(Box::new(SensorComponent::new(
            self.costs.acquisition_j,
            self.costs.acquisition_s,
            self.detection_spans,
        )));
        match (self.target_jobs, self.policy.targets) {
            (Some(jobs), Some(rule)) => engine.add(Box::new(ComputeComponent::adaptive(
                jobs,
                rule,
                self.detection_spans,
            ))),
            _ => engine.add(Box::new(ComputeComponent::new(
                self.costs.compute,
                self.detection_spans,
            ))),
        }
        // A duty-cycled policy always gets a radio: notifications are
        // batched into the periodic sync burst even when `sync` is unset
        // (a default nRF52 burst at the policy's interval).
        let batch_interval_s = self.policy.sync_interval_s;
        let sync = match (batch_interval_s, self.sync) {
            (Some(interval_s), Some(sync)) => Some(BleSync { interval_s, ..sync }),
            (Some(interval_s), None) => Some(BleSync::nrf52(&BleRadio::default(), interval_s, 32)),
            (None, sync) => sync,
        };
        if self.notify_j > 0.0 || sync.is_some() {
            engine.add(Box::new(RadioComponent::new(
                self.notify_j,
                sync,
                self.detection_spans,
                batch_interval_s.is_some(),
                &self.faults,
                self.policy.backoff.map(|b| b.sync_stretch),
            )));
        }
        if !self.contacts.is_empty() {
            engine.add(Box::new(BleScanComponent::new(
                self.contacts.clone(),
                self.detection_spans,
            )));
        }
        if self.trace_points > 0 {
            engine.add(Box::new(SamplerComponent::new(
                secs_to_us(self.env.duration_s()),
                self.trace_points,
            )));
        }
        let events = engine.run(sink);
        let end_us = engine.now_us();
        let queue_high_water = engine.queue_high_water();
        let mut state = engine.state;
        finalize_reliability(&mut state, end_us);
        let duration_us = secs_to_us(self.env.duration_s());
        let uptime = state.reliability.uptime_fraction(duration_us);
        DeviceReport {
            sim: SimReport {
                stored_j: state.stored_j,
                consumed_j: state.consumed_j,
                trace: state.trace,
                browned_out: state.browned_out,
                final_soc: state.battery.soc(),
            },
            detections: state.detections,
            notifications: state.notifications,
            sync_bursts: state.sync_bursts,
            events,
            queue_high_water,
            sync_attempts: state.sync_attempts,
            sync_backoff_us: state.sync_backoff_us,
            faults: state.faults,
            reliability: state.reliability,
            uptime,
            battery: state.battery,
            contacts_observed: state.contacts_observed,
            contacts_missed: state.contacts_missed,
            contacts_uplinked: state.contacts_uplinked,
            scan_energy_j: state.scan_energy_j,
            contact_edges: state.contact_edges,
            target_counts: state.target_counts,
            backoff_skips: state.backoff_skips,
            sync_stretches: state.sync_stretches,
        }
    }
}

// ---------------------------------------------------------------------------
// Components
// ---------------------------------------------------------------------------

/// Plays an [`EnvProfile`] back: at each segment boundary it sets the
/// battery-side intake of both harvesting chains, and it schedules
/// [`Event::End`] at the profile's end.
pub struct EnvComponent {
    /// `(start_us, solar_w, teg_w)` per segment.
    segments: Vec<(u64, f64, f64)>,
    end_us: u64,
}

impl EnvComponent {
    /// Precomputes the per-segment battery-side intakes.
    #[must_use]
    pub fn new(profile: &EnvProfile, solar: &SolarHarvester, teg: &TegHarvester) -> EnvComponent {
        let mut segments = Vec::with_capacity(profile.segments.len());
        let mut t_s = 0.0;
        for seg in &profile.segments {
            segments.push((
                secs_to_us(t_s),
                solar.battery_intake_w(&seg.light),
                teg.battery_intake_w(&seg.thermal),
            ));
            t_s += seg.duration_s;
        }
        EnvComponent {
            segments,
            end_us: secs_to_us(t_s),
        }
    }
}

impl<S: TraceSink> Component<S> for EnvComponent {
    fn name(&self) -> &'static str {
        "environment"
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::EnvSegment]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        // End is scheduled first: at a shared final timestamp it wins the
        // sequence tie-break, so no new work starts exactly at t_end.
        ctx.schedule_at(self.end_us, Event::End);
        if !self.segments.is_empty() {
            ctx.schedule_at(self.segments[0].0, Event::EnvSegment { index: 0 });
        }
    }

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        if let Event::EnvSegment { index } = ev {
            let (_, solar_w, teg_w) = self.segments[index];
            ctx.state.solar_w = solar_w;
            ctx.state.teg_w = teg_w;
            if let Some(&(next_us, ..)) = self.segments.get(index + 1) {
                ctx.schedule_at(next_us, Event::EnvSegment { index: index + 1 });
            }
        }
    }
}

/// Weight of the newest intake sample in the trailing harvest average
/// the policy component maintains (see
/// [`crate::DeviceState::harvest_avg_w`]).
const HARVEST_EWMA_ALPHA: f64 = 0.1;

/// Evaluates the [`PolicySpec`] and spaces acquisitions: at each tick it
/// reads the state of charge, triggers an acquisition when the rate
/// allows one, and schedules the next tick at the rate's period (or at a
/// fixed re-check interval while detection is paused). With fault-aware
/// backoff enabled, acquisitions are suppressed while a signal-quality
/// fault is active — the window would be gated as degraded anyway, so
/// its energy is saved; the tick keeps re-arming at the backoff's
/// re-check cadence, so acquisition always resumes once the fault
/// clears.
pub struct PolicyComponent {
    policy: PolicySpec,
    idle_recheck_us: u64,
    min_interval_us: u64,
}

impl PolicyComponent {
    /// A component for `policy` with a 10 s paused-state re-check (the
    /// old fixed-timestep simulator's granularity) and a 1 ms floor on
    /// the detection period.
    #[must_use]
    pub fn new(policy: PolicySpec) -> PolicyComponent {
        PolicyComponent {
            policy,
            idle_recheck_us: secs_to_us(10.0),
            min_interval_us: 1_000,
        }
    }
}

impl<S: TraceSink> Component<S> for PolicyComponent {
    fn name(&self) -> &'static str {
        "policy"
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::PolicyTick]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        ctx.schedule_at(0, Event::PolicyTick);
    }

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        debug_assert_eq!(ev, Event::PolicyTick);
        // Maintain the trailing harvest forecast on every evaluation, so
        // it is a pure function of the (deterministic) event sequence.
        ctx.state.harvest_avg_w = HARVEST_EWMA_ALPHA * ctx.state.intake_w()
            + (1.0 - HARVEST_EWMA_ALPHA) * ctx.state.harvest_avg_w;
        if !ctx.state.acquisition_enabled {
            // Browned out: no new work until the recovery state machine
            // re-enables acquisition. Each skipped evaluation is counted.
            ctx.state.reliability.skipped_acquisitions += 1;
            ctx.schedule_in(self.idle_recheck_us, Event::PolicyTick);
            return;
        }
        if let Some(backoff) = self.policy.backoff {
            if backoff.gate_acquisition && ctx.state.signal_faults > 0 {
                // Fault-aware backoff: the signal is known-corrupt, so
                // don't pay for a window that would be gated. The tick
                // always re-arms, so this can never deadlock detection.
                ctx.state.backoff_skips += 1;
                ctx.schedule_in(secs_to_us(backoff.recheck_s), Event::PolicyTick);
                return;
            }
        }
        // The policy reads the fuel gauge, not the true cell state.
        let rate = self.policy.rate_per_s(ctx.state.observed_soc());
        if rate > 0.0 {
            ctx.schedule_in(0, Event::AcquireStart);
            let period_us = secs_to_us(1.0 / rate).max(self.min_interval_us);
            ctx.schedule_in(period_us, Event::PolicyTick);
        } else {
            ctx.schedule_in(self.idle_recheck_us, Event::PolicyTick);
        }
    }
}

/// The ECG + GSR analog front ends: each [`Event::AcquireStart`] opens a
/// fixed-length window drawing the acquisition power; windows may overlap
/// (multiplicity-counted). Each closing window dispatches a compute job —
/// unless a signal-corrupting fault (lead-off, motion artifact, GSR
/// detach) overlapped the window, in which case the acquisition energy is
/// still paid but classification is skipped (signal-quality gating).
pub struct SensorComponent {
    energy_j: f64,
    window_us: u64,
    unit_power_w: f64,
    trace_spans: bool,
    slot: Option<LoadSlot>,
    active: u32,
    /// Open windows: `(start_us, corrupted)`.
    starts: VecDeque<(u64, bool)>,
}

impl SensorComponent {
    /// A front-end pair drawing `energy_j` over each `window_s` window.
    #[must_use]
    pub fn new(energy_j: f64, window_s: f64, trace_spans: bool) -> SensorComponent {
        let window_us = secs_to_us(window_s);
        SensorComponent {
            energy_j,
            window_us,
            unit_power_w: if window_s > 0.0 {
                energy_j / window_s
            } else {
                0.0
            },
            trace_spans,
            slot: None,
            active: 0,
            starts: VecDeque::new(),
        }
    }
}

impl<S: TraceSink> Component<S> for SensorComponent {
    fn name(&self) -> &'static str {
        "sensors"
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[
            EventKind::AcquireStart,
            EventKind::AcquireEnd,
            EventKind::FaultStart,
        ]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        self.slot = Some(ctx.state.register_load("afe"));
    }

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        let slot = self.slot.expect("started");
        match ev {
            Event::AcquireStart => {
                if self.window_us == 0 {
                    // Degenerate window: the energy is an impulse.
                    ctx.consume_j(self.energy_j);
                } else {
                    self.active += 1;
                    ctx.state
                        .set_load(slot, f64::from(self.active) * self.unit_power_w);
                }
                self.starts
                    .push_back((ctx.now_us, ctx.state.signal_faults > 0));
                ctx.schedule_in(self.window_us, Event::AcquireEnd);
            }
            Event::FaultStart { .. } if ctx.state.signal_faults > 0 => {
                // A signal-corrupting fault opened mid-window (the fault
                // component runs first, so the flag is already set):
                // every currently open window is now unusable.
                for open in &mut self.starts {
                    open.1 = true;
                }
            }
            Event::AcquireEnd => {
                if self.window_us > 0 {
                    self.active -= 1;
                    ctx.state
                        .set_load(slot, f64::from(self.active) * self.unit_power_w);
                }
                let (started, corrupt) = self.starts.pop_front().expect("balanced windows");
                if S::ENABLED && self.trace_spans {
                    let track = ctx.tracks.device;
                    ctx.sink.span(track, "acquire", started, ctx.now_us);
                }
                if corrupt {
                    // Signal-quality gate: the window's energy is spent
                    // but its samples are garbage — skip classification.
                    ctx.state.reliability.degraded_windows += 1;
                    if S::ENABLED && self.trace_spans {
                        let track = ctx.tracks.device;
                        ctx.sink.instant(track, "acq-gated", ctx.now_us);
                    }
                } else {
                    ctx.schedule_in(0, Event::ComputeStart);
                }
            }
            _ => {}
        }
    }
}

/// The compute target(s): each [`Event::ComputeStart`] dispatches one
/// [`ComputeJob`] (duration from its cycle count, power from its energy);
/// each completion retires one detection.
///
/// A single-target component ([`ComputeComponent::new`]) runs every
/// classification on one job. An adaptive component
/// ([`ComputeComponent::adaptive`]) holds one job per [`iw_policy::TargetClass`]
/// and picks the target *per classification* from the policy's
/// [`TargetRule`] over the observed state of charge, the sync queue
/// depth and the trailing harvest average. Jobs of different durations
/// may retire out of dispatch order, so [`Event::ComputeEnd`] carries
/// the job-slot index; within one slot every job has the same duration,
/// so per-slot FIFO start matching stays exact.
pub struct ComputeComponent {
    jobs: Vec<ComputeJob>,
    durations_us: Vec<u64>,
    powers_w: Vec<f64>,
    targets: Option<TargetRule>,
    trace_spans: bool,
    slot: Option<LoadSlot>,
    active: Vec<u32>,
    starts: Vec<VecDeque<u64>>,
}

impl ComputeComponent {
    /// A single compute target running `job` per detection.
    #[must_use]
    pub fn new(job: ComputeJob, trace_spans: bool) -> ComputeComponent {
        ComputeComponent {
            jobs: vec![job],
            durations_us: vec![secs_to_us(job.duration_s)],
            powers_w: vec![job.power_w()],
            targets: None,
            trace_spans,
            slot: None,
            active: vec![0],
            starts: vec![VecDeque::new()],
        }
    }

    /// An adaptive component: one job per [`iw_policy::TargetClass`] (M4, Ibex,
    /// cluster order), selected per classification by `rule`.
    #[must_use]
    pub fn adaptive(
        jobs: [ComputeJob; 3],
        rule: TargetRule,
        trace_spans: bool,
    ) -> ComputeComponent {
        ComputeComponent {
            durations_us: jobs.iter().map(|j| secs_to_us(j.duration_s)).collect(),
            powers_w: jobs.iter().map(ComputeJob::power_w).collect(),
            jobs: jobs.to_vec(),
            targets: Some(rule),
            trace_spans,
            slot: None,
            active: vec![0; 3],
            starts: vec![VecDeque::new(); 3],
        }
    }

    /// Total compute load right now: every slot's multiplicity times its
    /// unit power. For the single-target component this reduces to
    /// `active × power` — the same arithmetic as before targets existed.
    fn load_w(&self) -> f64 {
        self.active
            .iter()
            .zip(&self.powers_w)
            .map(|(&n, &power_w)| f64::from(n) * power_w)
            .sum()
    }
}

impl<S: TraceSink> Component<S> for ComputeComponent {
    fn name(&self) -> &'static str {
        "compute"
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::ComputeStart, EventKind::ComputeEnd]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        self.slot = Some(ctx.state.register_load("compute"));
    }

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        let slot = self.slot.expect("started");
        match ev {
            Event::ComputeStart => {
                let job = match self.targets {
                    Some(rule) => {
                        let class = rule.select(
                            ctx.state.observed_soc(),
                            ctx.state.queue_depth,
                            ctx.state.harvest_avg_w,
                        );
                        ctx.state.target_counts[class.index()] += 1;
                        if S::ENABLED && self.trace_spans {
                            let track = ctx.tracks.device;
                            ctx.sink.instant(track, class.label(), ctx.now_us);
                        }
                        class.index()
                    }
                    None => 0,
                };
                if self.durations_us[job] == 0 {
                    ctx.consume_j(self.jobs[job].energy_j);
                } else {
                    self.active[job] += 1;
                    ctx.state.set_load(slot, self.load_w());
                }
                self.starts[job].push_back(ctx.now_us);
                ctx.schedule_in(self.durations_us[job], Event::ComputeEnd { job });
            }
            Event::ComputeEnd { job } => {
                if self.durations_us[job] > 0 {
                    self.active[job] -= 1;
                    ctx.state.set_load(slot, self.load_w());
                }
                let started = self.starts[job].pop_front().expect("balanced jobs");
                if S::ENABLED && self.trace_spans {
                    let track = ctx.tracks.device;
                    ctx.sink.span(track, "compute", started, ctx.now_us);
                }
                ctx.state.detections += 1;
            }
            _ => {}
        }
    }
}

/// The BLE radio: an energy impulse per retired detection (the 4-byte
/// result notification) and, optionally, periodic sync bursts drawn as
/// timed load pulses.
///
/// Under a fault plan with a non-zero sync-loss probability each burst
/// may fail: the radio retries with exponential backoff
/// (`backoff × 2^(attempt−1)`) up to the plan's retry budget, then
/// records the episode as [`SyncOutcome::Dropped`] and waits for the next
/// interval. Under a duty-cycled policy (`batch`) per-detection
/// notifications are suppressed; results accumulate and their
/// notification energy is flushed on the next *successful* sync (dropped
/// episodes carry the backlog forward).
pub struct RadioComponent {
    notify_j: f64,
    sync: Option<BleSync>,
    trace_spans: bool,
    batch: bool,
    loss_prob: f64,
    max_retries: u32,
    backoff_us: u64,
    rng: SplitMix64,
    attempt: u32,
    pending: u64,
    sync_stretch: Option<f64>,
    slot: Option<LoadSlot>,
    burst_started_us: u64,
}

impl RadioComponent {
    /// A radio notifying `notify_j` per detection plus optional `sync`
    /// bursts. `batch` suppresses per-detection notifications in favour
    /// of flush-on-sync; `plan` supplies the loss probability, retry
    /// budget and backoff, and seeds the per-attempt loss stream.
    /// `sync_stretch` (≥ 1, from the policy's fault-aware backoff)
    /// multiplies the next sync interval whenever the episode resolves
    /// with the link still looking dead — the gateway unreachable, or
    /// the episode dropped after its whole retry budget — spending
    /// fewer bursts into a dead link.
    #[must_use]
    pub fn new(
        notify_j: f64,
        sync: Option<BleSync>,
        trace_spans: bool,
        batch: bool,
        plan: &FaultPlan,
        sync_stretch: Option<f64>,
    ) -> RadioComponent {
        RadioComponent {
            notify_j,
            sync,
            trace_spans,
            batch,
            loss_prob: plan.ble_loss_prob,
            max_retries: plan.ble_max_retries,
            backoff_us: secs_to_us(plan.ble_backoff_s).max(1),
            rng: SplitMix64::new(mix(plan.seed, BLE_STREAM)),
            attempt: 0,
            pending: 0,
            sync_stretch,
            slot: None,
            burst_started_us: 0,
        }
    }
}

impl<S: TraceSink> Component<S> for RadioComponent {
    fn name(&self) -> &'static str {
        "radio"
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[
            EventKind::ComputeEnd,
            EventKind::BleSyncStart,
            EventKind::BleSyncEnd,
        ]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        self.slot = Some(ctx.state.register_load("ble"));
        if let Some(sync) = self.sync {
            ctx.schedule_in(secs_to_us(sync.interval_s), Event::BleSyncStart);
        }
    }

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        let slot = self.slot.expect("started");
        match ev {
            Event::ComputeEnd { .. } if self.batch => {
                // Duty-cycled: the result queues for the next sync. The
                // backlog is mirrored into the shared state so adaptive
                // policies can read the queue depth.
                self.pending += 1;
                ctx.state.queue_depth = self.pending;
            }
            Event::ComputeEnd { .. } if self.notify_j > 0.0 => {
                ctx.consume_j(self.notify_j);
                ctx.state.notifications += 1;
                if S::ENABLED && self.trace_spans {
                    let track = ctx.tracks.device;
                    ctx.sink.instant(track, "notify", ctx.now_us);
                }
            }
            Event::BleSyncStart => {
                let sync = self.sync.expect("sync configured");
                ctx.state.set_load(slot, sync.power_w);
                self.burst_started_us = ctx.now_us;
                ctx.schedule_in(secs_to_us(sync.burst_s), Event::BleSyncEnd);
            }
            Event::BleSyncEnd => {
                let sync = self.sync.expect("sync configured");
                ctx.state.set_load(slot, 0.0);
                ctx.state.sync_bursts += 1;
                if S::ENABLED && self.trace_spans {
                    let track = ctx.tracks.device;
                    ctx.sink
                        .span(track, "ble-sync", self.burst_started_us, ctx.now_us);
                }
                // A scenario-compiled gateway outage forces the loss
                // without consuming a draw from the per-attempt loss
                // stream, so runs with and without outage windows stay
                // aligned outside them.
                let lost = ctx.state.gateway_down > 0
                    || (self.loss_prob > 0.0 && self.rng.chance(self.loss_prob));
                if lost {
                    ctx.state.faults.add(FaultKind::BleLoss);
                    if self.attempt < self.max_retries {
                        self.attempt += 1;
                        if S::ENABLED && self.trace_spans {
                            let track = ctx.tracks.device;
                            ctx.sink.instant(track, "sync-retry", ctx.now_us);
                        }
                        let backoff = self.backoff_us << (self.attempt - 1);
                        ctx.state.sync_backoff_us.record(backoff);
                        ctx.schedule_in(backoff, Event::BleSyncStart);
                        return;
                    }
                    // Retry budget exhausted: the episode is dropped; a
                    // batched backlog stays pending for the next interval.
                    ctx.state.reliability.record_sync(SyncOutcome::Dropped);
                    if S::ENABLED && self.trace_spans {
                        let track = ctx.tracks.device;
                        ctx.sink.instant(track, "sync-drop", ctx.now_us);
                    }
                } else {
                    let outcome = if self.attempt > 0 {
                        SyncOutcome::Retried
                    } else {
                        SyncOutcome::Ok
                    };
                    ctx.state.reliability.record_sync(outcome);
                    if self.batch && self.pending > 0 {
                        // Flush the backlog: one notification impulse per
                        // queued result, delivered inside this burst.
                        ctx.consume_j(self.pending as f64 * self.notify_j);
                        ctx.state.notifications += self.pending;
                        self.pending = 0;
                        ctx.state.queue_depth = 0;
                    }
                    if ctx.state.pending_contacts > 0 {
                        // Queued contact observations ride the same
                        // successful burst, one notification-sized
                        // impulse each.
                        ctx.consume_j(ctx.state.pending_contacts as f64 * self.notify_j);
                        ctx.state.contacts_uplinked += ctx.state.pending_contacts;
                        ctx.state.pending_contacts = 0;
                    }
                }
                // Episode resolved (delivered or dropped): its attempt
                // count feeds the fleet retry histogram.
                ctx.state.sync_attempts.record(u64::from(self.attempt) + 1);
                self.attempt = 0;
                let mut interval_s = (sync.interval_s - sync.burst_s).max(0.0);
                if let Some(stretch) = self.sync_stretch {
                    // Fault-aware backoff: the link looks dead — a
                    // scenario gateway outage is still open, or this
                    // episode just exhausted its retry budget — so
                    // stretch the cadence instead of burning the next
                    // burst into the same dead link. `lost` here can
                    // only mean "dropped": the retry path returned.
                    if ctx.state.gateway_down > 0 || lost {
                        interval_s *= stretch;
                        ctx.state.sync_stretches += 1;
                    }
                }
                ctx.schedule_in(secs_to_us(interval_s), Event::BleSyncStart);
            }
            _ => {}
        }
    }
}

/// Plays a scenario-compiled [`ContactPlan`] back: each contact window
/// opens a BLE scan (the nRF52832 scanner in RX, multiplicity-counted
/// when windows overlap) lasting the lesser of one standard scan window
/// and the co-location window itself. A scan that completes while the
/// device is operational *observes* the contact: the `(epoch, peer)`
/// edge is recorded and the observation queues for the next successful
/// sync burst (the radio component flushes the queue and counts the
/// uplinks). A scan the device was too browned out to start — or to
/// finish — is a *missed* contact; the epidemic fold never sees its
/// edge, so detection coverage degrades exactly where the power model
/// says the device was down.
pub struct BleScanComponent {
    plan: ContactPlan,
    scan_power_w: f64,
    trace_spans: bool,
    slot: Option<LoadSlot>,
    active: u32,
    /// Per-entry flag: did this contact's scan actually open?
    opened: Vec<bool>,
}

impl BleScanComponent {
    /// A scanner for `plan`, drawing the shared-table nRF52 scan power
    /// while windows are open.
    #[must_use]
    pub fn new(plan: ContactPlan, trace_spans: bool) -> BleScanComponent {
        let opened = vec![false; plan.entries.len()];
        BleScanComponent {
            plan,
            scan_power_w: iw_power::nrf52::scan_power_w(),
            trace_spans,
            slot: None,
            active: 0,
            opened,
        }
    }

    /// Scan length for entry `index`: one scan window, clipped to the
    /// co-location window.
    fn scan_us(&self, index: usize) -> u64 {
        let e = self.plan.entries[index];
        secs_to_us(iw_power::nrf52::SCAN_WINDOW_S).min(e.end_us.saturating_sub(e.start_us))
    }
}

impl<S: TraceSink> Component<S> for BleScanComponent {
    fn name(&self) -> &'static str {
        "ble-scan"
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::ContactStart, EventKind::ContactEnd]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        self.slot = Some(ctx.state.register_load("scan"));
        if !self.plan.entries.is_empty() {
            ctx.schedule_at(
                self.plan.entries[0].start_us,
                Event::ContactStart { index: 0 },
            );
        }
    }

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        let slot = self.slot.expect("started");
        match ev {
            Event::ContactStart { index } => {
                // Chained scheduling, same shape as the fault plan: the
                // next window is armed regardless of this one's fate.
                if index + 1 < self.plan.entries.len() {
                    ctx.schedule_at(
                        self.plan.entries[index + 1].start_us,
                        Event::ContactStart { index: index + 1 },
                    );
                }
                if !ctx.state.acquisition_enabled {
                    // Browned out: the peer passed by unseen.
                    ctx.state.contacts_missed += 1;
                    return;
                }
                self.opened[index] = true;
                self.active += 1;
                ctx.state
                    .set_load(slot, f64::from(self.active) * self.scan_power_w);
                ctx.schedule_in(self.scan_us(index), Event::ContactEnd { index });
            }
            Event::ContactEnd { index } => {
                debug_assert!(self.opened[index], "scan end without start");
                self.active -= 1;
                ctx.state
                    .set_load(slot, f64::from(self.active) * self.scan_power_w);
                let entry = self.plan.entries[index];
                let dur_us = self.scan_us(index);
                ctx.state.scan_energy_j += self.scan_power_w * dur_us as f64 * 1e-6;
                if S::ENABLED && self.trace_spans {
                    let track = ctx.tracks.device;
                    ctx.sink.span(track, "scan", entry.start_us, ctx.now_us);
                }
                if ctx.state.acquisition_enabled {
                    let epoch = (entry.start_us / self.plan.epoch_us.max(1)) as u32;
                    ctx.state.contact_edges.push((epoch, entry.peer));
                    ctx.state.contacts_observed += 1;
                    ctx.state.pending_contacts += 1;
                    if S::ENABLED && self.trace_spans {
                        let track = ctx.tracks.device;
                        ctx.sink.instant(track, "contact", ctx.now_us);
                    }
                } else {
                    // Browned out mid-scan: energy spent, contact lost.
                    ctx.state.contacts_missed += 1;
                }
            }
            _ => {}
        }
    }
}

/// Samples the battery trajectory at a fixed cadence into
/// [`crate::engine::DeviceState::trace`] and, when tracing, mirrors each
/// sample as counters on the `harvest` track (second ticks, same names
/// the fixed-timestep simulator used).
pub struct SamplerComponent {
    interval_us: u64,
}

impl SamplerComponent {
    /// A sampler spreading ~`points` samples over `duration_us`.
    #[must_use]
    pub fn new(duration_us: u64, points: usize) -> SamplerComponent {
        SamplerComponent {
            interval_us: (duration_us / points.max(1) as u64).max(1),
        }
    }
}

impl<S: TraceSink> Component<S> for SamplerComponent {
    fn name(&self) -> &'static str {
        "sampler"
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Sample]
    }

    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        ctx.schedule_at(0, Event::Sample);
    }

    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        debug_assert_eq!(ev, Event::Sample);
        let point = TracePoint {
            t_s: ctx.now_s(),
            soc: ctx.state.battery.soc(),
            solar_w: ctx.state.solar_w,
            teg_w: ctx.state.teg_w,
            consumed_w: ctx.state.load_w(),
        };
        ctx.state.trace.push(point);
        if S::ENABLED {
            let track = ctx.tracks.harvest;
            let t = point.t_s as u64;
            ctx.sink.counter(track, "soc_pct", t, point.soc * 100.0);
            ctx.sink.counter(track, "solar_mw", t, point.solar_w * 1e3);
            ctx.sink.counter(track, "teg_mw", t, point.teg_w * 1e3);
            ctx.sink
                .counter(track, "load_mw", t, point.consumed_w * 1e3);
        }
        ctx.schedule_in(self.interval_us, Event::Sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_policy::{FaultBackoff, RateRule, TargetClass};
    use iw_trace::{Event as TraceEvent, Recorder};

    fn micro_costs() -> DetectionCosts {
        DetectionCosts {
            acquisition_j: 600e-6,
            acquisition_s: 3.0,
            compute: ComputeJob::analytic(61e-6, 2.2e-6),
        }
    }

    /// The shared harvest-starvation profile (was a local copy before
    /// [`EnvProfile::dark_day`] existed).
    fn dark_day(duration_s: f64) -> EnvProfile {
        EnvProfile::dark_day(duration_s)
    }

    #[test]
    fn consumed_energy_is_detections_times_budget() {
        // In the dark with no sleep floor, everything consumed is
        // detection work: consumed == detections × per-detection energy,
        // exactly — the event engine's load multiplicity never loses or
        // double-counts an overlapping window.
        let costs = micro_costs();
        let mut cfg = DeviceConfig::new(dark_day(3600.0), PolicySpec::fixed_rate(24.0), costs);
        cfg.sleep_floor_w = 0.0;
        cfg.teg = TegHarvester {
            // Dead TEG: no intake at all.
            teg: iw_harvest::Teg {
                seebeck_v_per_k: 0.0,
                ..iw_harvest::Teg::matrix()
            },
            ..TegHarvester::infiniwolf()
        };
        cfg.battery.set_soc(0.9);
        let report = cfg.run();
        // 24/min with a 2.5 s period: windows started at 3597.5 s have not
        // retired by t_end and contribute only the time they were open.
        assert!(report.detections >= 24 * 60 - 2);
        let retired = report.detections as f64 * costs.total_j();
        assert!(
            report.sim.consumed_j >= retired - 1e-9,
            "consumed {} vs retired {retired}",
            report.sim.consumed_j
        );
        // The open tail is at most two windows' worth of energy.
        assert!(report.sim.consumed_j - retired < 2.0 * costs.total_j());
        assert!(!report.sim.browned_out);
    }

    #[test]
    fn hundreds_of_overlapping_windows_keep_exact_event_order() {
        // 6000/min = 10 ms period with 3 s windows: ~300 windows overlap,
        // so the engine queue holds hundreds of events, most of them in
        // its far tier, and the near tier refills every few events. The
        // counts and the exact energy bits pin the (time, sequence)
        // dispatch order.
        let mut cfg = DeviceConfig::new(
            dark_day(600.0),
            PolicySpec::fixed_rate(6000.0),
            micro_costs(),
        );
        cfg.battery = Battery::new(1e6);
        cfg.battery.set_soc(0.9);
        cfg.trace_points = 0;
        let report = cfg.run();
        assert_eq!(report.events, 299_102);
        assert_eq!(report.queue_high_water, 303);
        assert_eq!(report.detections, 59_700);
        assert_eq!(report.sim.consumed_j.to_bits(), 0x4042_0b4c_1a8a_bfcf);
    }

    #[test]
    fn thousands_of_overlapping_windows_keep_exact_event_order() {
        // 60000/min = 1 ms period with 3 s windows: ~3000 windows overlap,
        // the extreme of the test above. Same pins, ten times the depth.
        let mut cfg = DeviceConfig::new(
            dark_day(600.0),
            PolicySpec::fixed_rate(60000.0),
            micro_costs(),
        );
        cfg.battery = Battery::new(1e6);
        cfg.battery.set_soc(0.9);
        cfg.trace_points = 0;
        let report = cfg.run();
        assert_eq!(report.events, 2_991_002);
        assert_eq!(report.queue_high_water, 3003);
        assert_eq!(report.detections, 597_000);
        assert_eq!(report.sim.consumed_j.to_bits(), 0x4076_875d_7880_9f64);
    }

    #[test]
    fn overlapping_windows_draw_summed_power() {
        // 60/min = 1 s period with 3 s windows: three windows overlap at
        // any instant, so the average load must be ~3× the unit power.
        let costs = micro_costs();
        let mut cfg = DeviceConfig::new(dark_day(600.0), PolicySpec::fixed_rate(60.0), costs);
        cfg.sleep_floor_w = 0.0;
        cfg.battery.set_soc(0.9);
        let report = cfg.run();
        let expected = 600.0 * costs.total_j(); // 1/s × 600 s
        assert!(
            (report.sim.consumed_j - expected).abs() / expected < 0.02,
            "consumed {} vs expected {expected}",
            report.sim.consumed_j
        );
    }

    #[test]
    fn energy_is_conserved_exactly() {
        let cfg = DeviceConfig::new(
            EnvProfile::paper_indoor_day(),
            PolicySpec::fixed_rate(20.0),
            micro_costs(),
        );
        let initial_j = cfg.battery.charge_j();
        let report = cfg.run();
        let final_j = report.battery.charge_j();
        // stored − consumed == ΔE, to float roundoff.
        let drift = (initial_j + report.sim.stored_j - report.sim.consumed_j) - final_j;
        assert!(drift.abs() < 1e-6, "conservation drift {drift} J");
    }

    #[test]
    fn trace_is_sampled_and_ordered() {
        let mut cfg = DeviceConfig::new(
            EnvProfile::paper_indoor_day(),
            PolicySpec::fixed_rate(6.0),
            micro_costs(),
        );
        cfg.battery.set_soc(0.5);
        let report = cfg.run();
        assert!(report.sim.trace.len() > 100);
        for w in report.sim.trace.windows(2) {
            assert!(w[1].t_s > w[0].t_s);
        }
        assert!(report.sim.trace.iter().all(|p| p.consumed_w > 0.0));
        assert!(report.sim.trace.iter().any(|p| p.solar_w > p.teg_w));
        assert!(report.sim.trace.iter().any(|p| p.teg_w > 0.0));
    }

    #[test]
    fn tiny_battery_browns_out_under_load() {
        let mut cfg = DeviceConfig::new(
            dark_day(3600.0),
            PolicySpec::fixed_rate(60.0),
            micro_costs(),
        );
        cfg.battery = Battery::new(1.0);
        cfg.sleep_floor_w = 10e-3;
        let report = cfg.run();
        assert!(report.sim.browned_out);
        assert_eq!(report.sim.final_soc, 0.0);
    }

    #[test]
    fn ble_components_notify_and_sync() {
        let mut cfg =
            DeviceConfig::new(dark_day(600.0), PolicySpec::fixed_rate(12.0), micro_costs());
        cfg.battery.set_soc(0.9);
        cfg.notify_j = 1e-6;
        cfg.sync = Some(BleSync {
            interval_s: 60.0,
            burst_s: 5e-3,
            power_w: 5e-3,
        });
        let report = cfg.run();
        assert_eq!(report.notifications, report.detections);
        // Burst starts at 60, 120, ..., 540 s (the 600 s one ties with End).
        assert!(report.sync_bursts >= 8 && report.sync_bursts <= 10);
    }

    #[test]
    fn traced_run_emits_counters_and_spans() {
        let mut cfg =
            DeviceConfig::new(dark_day(120.0), PolicySpec::fixed_rate(4.0), micro_costs());
        cfg.battery.set_soc(0.8);
        cfg.notify_j = 1e-6;
        cfg.trace_points = 24;
        let mut rec = Recorder::new();
        let report = cfg.run_traced(&mut rec);
        let harvest = rec.find_track("harvest").expect("harvest track");
        let counters = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Counter { track, .. } if *track == harvest))
            .count();
        assert_eq!(counters, report.sim.trace.len() * 4);
        let device = rec.find_track("device").expect("device track");
        let spans: Vec<&str> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { track, name, .. } if *track == device => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(spans.contains(&"acquire"));
        assert!(spans.contains(&"compute"));
        // Tracing must not perturb the simulation.
        let untraced = cfg.run();
        assert_eq!(untraced.detections, report.detections);
        assert_eq!(untraced.sim.consumed_j, report.sim.consumed_j);
        assert_eq!(untraced.sim.final_soc, report.sim.final_soc);
    }

    #[test]
    fn contact_scans_cost_scan_energy_and_queue_for_sync() {
        let mut cfg =
            DeviceConfig::new(dark_day(600.0), PolicySpec::fixed_rate(2.0), micro_costs());
        cfg.battery.set_soc(0.9);
        cfg.notify_j = 1e-6;
        cfg.sync = Some(BleSync {
            interval_s: 60.0,
            burst_s: 5e-3,
            power_w: 5e-3,
        });
        cfg.contacts = ContactPlan {
            entries: vec![
                iw_scenario::ContactEntry {
                    start_us: secs_to_us(10.0),
                    end_us: secs_to_us(20.0),
                    peer: 7,
                    rssi_dbm: -60,
                },
                iw_scenario::ContactEntry {
                    start_us: secs_to_us(100.0),
                    end_us: secs_to_us(100.2),
                    peer: 3,
                    rssi_dbm: -72,
                },
            ],
            epoch_us: secs_to_us(60.0),
        };
        let report = cfg.run();
        assert_eq!(report.contacts_observed, 2);
        assert_eq!(report.contacts_missed, 0);
        assert_eq!(report.contacts_uplinked, 2);
        // The first scan runs a full 512 ms window; the second is clipped
        // to its 200 ms co-location window.
        let expected =
            iw_power::nrf52::scan_window_energy_j() + iw_power::nrf52::scan_power_w() * 0.2;
        assert!(
            (report.scan_energy_j - expected).abs() < 1e-9,
            "scan energy {}",
            report.scan_energy_j
        );
        assert_eq!(report.contact_edges, vec![(0, 7), (1, 3)]);
    }

    #[test]
    fn gateway_outage_forces_drops_and_defers_contact_uplink() {
        let mut cfg =
            DeviceConfig::new(dark_day(600.0), PolicySpec::fixed_rate(2.0), micro_costs());
        cfg.battery.set_soc(0.9);
        cfg.notify_j = 1e-6;
        cfg.sync = Some(BleSync {
            interval_s: 60.0,
            burst_s: 5e-3,
            power_w: 5e-3,
        });
        cfg.faults.windows.push(iw_fault::FaultWindow {
            kind: FaultKind::BleLoss,
            start_us: secs_to_us(50.0),
            end_us: secs_to_us(400.0),
            severity: 0.0,
        });
        cfg.contacts = ContactPlan {
            entries: vec![iw_scenario::ContactEntry {
                start_us: secs_to_us(100.0),
                end_us: secs_to_us(110.0),
                peer: 1,
                rssi_dbm: -55,
            }],
            epoch_us: secs_to_us(600.0),
        };
        let report = cfg.run();
        assert_eq!(report.contacts_observed, 1);
        // Bursts at 60..=360 s fall inside the outage: every one is
        // forced lost and dropped after the retry budget; the queued
        // contact only uplinks once the gateway is back (420 s burst).
        assert!(
            report.reliability.sync_dropped >= 5,
            "dropped {}",
            report.reliability.sync_dropped
        );
        assert!(report.reliability.sync_ok >= 1);
        assert_eq!(report.contacts_uplinked, 1);
        // The window itself plus every forced-lost attempt count BLE-loss
        // episodes.
        assert!(report.faults.get(FaultKind::BleLoss) > 1);
    }

    #[test]
    fn fault_backoff_skips_gated_windows_and_resumes() {
        // A 200 s ECG lead-off window mid-run: without backoff the
        // policy keeps paying for acquisition windows that come out
        // degraded; with backoff those acquisitions are skipped, and
        // detection must resume once the fault clears.
        let window = iw_fault::FaultWindow {
            kind: FaultKind::EcgLeadOff,
            start_us: secs_to_us(100.0),
            end_us: secs_to_us(300.0),
            severity: 0.0,
        };
        let run = |backoff: Option<FaultBackoff>| {
            let mut spec = PolicySpec::fixed_rate(12.0);
            spec.backoff = backoff;
            let mut cfg = DeviceConfig::new(dark_day(600.0), spec, micro_costs());
            cfg.sleep_floor_w = 0.0;
            cfg.battery.set_soc(0.9);
            cfg.faults.windows.push(window);
            cfg.run()
        };
        let plain = run(None);
        let backed = run(Some(FaultBackoff {
            gate_acquisition: true,
            recheck_s: 10.0,
            sync_stretch: 1.0,
        }));
        assert!(plain.reliability.degraded_windows > 10);
        assert_eq!(plain.backoff_skips, 0);
        assert_eq!(backed.reliability.degraded_windows, 0);
        assert!(backed.backoff_skips > 10);
        // No deadlock: the tick keeps re-arming, so the last 300 s still
        // detect at the full rate (≥ 2/5 of the fault-free total).
        assert!(backed.detections * 5 >= plain.detections * 2);
        // The skipped windows' energy was genuinely saved.
        assert!(backed.sim.consumed_j < plain.sim.consumed_j);
    }

    #[test]
    fn adaptive_targets_split_work_across_classes() {
        // Distinct per-class jobs and a rule whose thresholds the SoC
        // crosses as the battery drains: all three classes must be used,
        // and dispatches must balance retirements.
        let jobs = [
            ComputeJob::analytic(100e-6, 5.1e-6),
            ComputeJob::analytic(200e-6, 1.3e-6),
            ComputeJob::analytic(61e-6, 1.2e-6),
        ];
        let rule = TargetRule {
            eco_below: 0.4,
            m4_above: 0.7,
            harvest_weight: 0.0,
            queue_cluster: u64::MAX,
        };
        let spec = PolicySpec::fixed_rate(24.0).with_targets(rule);
        let mut cfg = DeviceConfig::new(dark_day(3600.0), spec, micro_costs());
        cfg.battery = Battery::new(2.0);
        cfg.battery.set_soc(0.9);
        cfg.sleep_floor_w = 0.2e-3;
        cfg.target_jobs = Some(jobs);
        let report = cfg.run();
        let dispatched: u64 = report.target_counts.iter().sum();
        assert!(dispatched >= report.detections);
        assert!(dispatched - report.detections <= 2, "open tail too long");
        for (class, &count) in TargetClass::ALL.iter().zip(&report.target_counts) {
            assert!(count > 0, "class {class:?} never selected");
        }
        // Without target jobs the same spec runs the single-target path
        // and attributes nothing.
        let mut single = cfg.clone();
        single.target_jobs = None;
        let single_report = single.run();
        assert_eq!(single_report.target_counts, [0, 0, 0]);
    }

    #[test]
    fn soc_ramp_spec_drives_the_device_like_a_policy() {
        let spec = PolicySpec::new(RateRule::SocRamp {
            max_per_minute: 24.0,
            min_soc: 0.05,
            full_soc: 0.4,
        });
        let mut cfg = DeviceConfig::new(dark_day(600.0), spec, micro_costs());
        cfg.sleep_floor_w = 0.0;
        cfg.battery.set_soc(0.9);
        let report = cfg.run();
        // Above full_soc the ramp runs flat out: same count a fixed 24/min
        // policy would deliver over 600 s (±2 for the open tail).
        assert!(report.detections >= 24 * 10 - 2, "{}", report.detections);
    }

    #[test]
    fn energy_aware_policy_throttles_in_the_dark() {
        let mut cfg = DeviceConfig::new(
            dark_day(7.0 * 86_400.0),
            PolicySpec::energy_aware(24.0, 0.15),
            micro_costs(),
        );
        cfg.battery.set_soc(0.6);
        cfg.sleep_floor_w = 0.0;
        let report = cfg.run();
        assert!(!report.sim.browned_out, "soc {}", report.sim.final_soc);
        assert!(report.sim.final_soc > 0.14);
        assert!(report.detections > 0);
    }
}
