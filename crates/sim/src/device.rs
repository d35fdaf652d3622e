//! The whole-device simulation: the InfiniWolf bracelet assembled from
//! its parts.
//!
//! Part wiring. The bracelet holds its parts as fields, plain state with
//! one method per event they react to, and routes each event with one
//! `match` in `Bracelet::handle`: a part sees only the events on its rows;
//! arrows name the method and what it does and schedules. Rows run top to
//! bottom, which is the order the parts start in and the order two
//! methods of one event run in:
//!
//! ```text
//! Faults   ── FaultStart/End{i} ──▶ window_start/end: signal flag, derates
//!          ── GaugeTick ──────────▶ gauge: fuel-gauge noise, next tick
//!          ── BrownoutRecover ────▶ recover: resume if still charged
//!          ── every event ────────▶ poll_brownout, after the above
//! Env      ── EnvSegment{i} ──▶ segment: solar/TEG intake, next segment
//! Policy   ── PolicyTick ─────▶ tick: AcquireStart + next PolicyTick
//! Sensor   ── AcquireStart ───▶ open: AFE load on, AcquireEnd at +3 s
//!          ── AcquireEnd ─────▶ close: AFE load off, ComputeStart
//!          ── FaultStart ─────▶ taint: open windows corrupt (after faults)
//! Compute  ── ComputeStart ───▶ dispatch: cluster load on, ComputeEnd at +T
//!          ── ComputeEnd ─────▶ retire: one detection retired
//! Radio    ── ComputeEnd ─────▶ retired: result-notification impulse
//!          ── BleSyncStart ───▶ sync_start: radio load on, BleSyncEnd
//!          ── BleSyncEnd ─────▶ sync_end: sync outcome, retry or next burst
//! Scanner  ── ContactStart{i} ▶ contact_start: scan load on, ContactEnd
//!          ── ContactEnd{i} ──▶ contact_end: contact observed or missed
//! ```
//!
//! The radio and scanner are present only when configured (BLE
//! notifications or sync, a contact plan). Trace points are no part: the
//! engine samples the battery between events without touching the run.
//!
//! Acquisition windows (and compute jobs) may overlap when the policy
//! rate exceeds `1 / window`; each part tracks its multiplicity and sets
//! its load slot to `count × unit_power`, so the integrated energy is
//! exactly `completed_detections × per-detection energy` — the same
//! arithmetic as the paper's steady-state analysis.

use iw_fault::{
    mix, FaultCounters, FaultKind, FaultPlan, ReliabilityCounters, SplitMix64, SyncOutcome,
};
use iw_harvest::{Battery, EnvProfile, SimReport, SolarHarvester, TegHarvester};
use iw_metrics::Histogram;
use iw_nrf52::BleRadio;
use iw_scenario::ContactPlan;
use iw_trace::TraceSink;

use crate::engine::{secs_to_us, Component, DeviceState, Engine, Event, LoadSlot, SimCtx};
use crate::faults::{finalize_reliability, Faults, BLE_STREAM};
use iw_policy::{PolicySpec, TargetRule};

/// One compute job dispatched per detection: duration and energy, as
/// the caller costs them (the detection budget of a simulated machine,
/// or an analytic figure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeJob {
    /// Job duration, seconds.
    pub duration_s: f64,
    /// Job energy, joules.
    pub energy_j: f64,
}

impl ComputeJob {
    /// A job from an explicit duration and energy.
    #[must_use]
    pub fn analytic(duration_s: f64, energy_j: f64) -> ComputeJob {
        ComputeJob {
            duration_s,
            energy_j,
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
}

/// Battery-side sleep floor from the shared power constants: both SoCs
/// idle (nRF52832 system-ON idle + Mr. Wolf deep sleep).
#[must_use]
pub fn default_sleep_floor_w() -> f64 {
    iw_power::nrf52::IDLE_A * iw_power::nrf52::SUPPLY_V + iw_power::mrwolf::SLEEP_POWER_W
}

impl DeviceConfig {
    /// A paper-configured device: InfiniWolf harvesters and battery, the
    /// shared-constant sleep floor, no BLE, ~500 trace points.
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
        }
    }

    /// Runs the device with every part emitting into `sink`: `soc_pct` /
    /// `solar_mw` / `teg_mw` / `load_mw` counters on a `harvest` track
    /// (1 s ticks, one set per trace point) and `acquire` / `compute` /
    /// `ble-sync` spans plus `notify` instants on a `device` track (1 µs
    /// ticks). Pass [`iw_trace::NoopSink`] to run without tracing. Neither
    /// the sink nor [`Self::trace_points`] changes anything in the report
    /// but `sim.trace`.
    #[must_use]
    pub fn run<S: TraceSink>(&self, sink: &mut S) -> DeviceReport {
        self.run_bracelet(sink, |_| {})
    }

    /// [`DeviceConfig::run`] with the sensor keeping every open
    /// window's start and corrupt flag in a queue, one by one, in place
    /// of its three counters.
    #[cfg(test)]
    fn run_reference<S: TraceSink>(&self, sink: &mut S) -> DeviceReport {
        self.run_bracelet(sink, |bracelet| {
            bracelet.sensor.reference = Some(std::collections::VecDeque::new());
        })
    }

    /// Builds the bracelet on a fresh engine, lets `prepare` adjust it,
    /// runs it and reports. The engine samples every
    /// `duration / trace_points` (at least 1 µs).
    fn run_bracelet<S: TraceSink>(
        &self,
        sink: &mut S,
        prepare: impl FnOnce(&mut Bracelet<'_>),
    ) -> DeviceReport {
        let mut engine = Engine::new(self.battery);
        engine.state.base_load_w = self.sleep_floor_w;
        let mut bracelet = Bracelet::new(self, &mut engine.state);
        prepare(&mut bracelet);
        let duration_us = secs_to_us(self.env.duration_s());
        let sample_us =
            (self.trace_points > 0).then(|| (duration_us / self.trace_points as u64).max(1));
        let events = engine.run(sink, &mut bracelet, sample_us);
        let end_us = engine.now_us();
        let queue_high_water = engine.queue_high_water();
        let mut state = engine.state;
        finalize_reliability(&mut state, end_us);
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

/// The bracelet: the device [`Engine::run`] drives, built from its parts
/// as fields. Only its `start` and `handle` call the parts' methods, so
/// every call is static and the whole event loop is one monomorphized
/// function. The fault and contact plans are borrowed from the
/// configuration, which outlives the run.
struct Bracelet<'a> {
    fault: Faults<'a>,
    env: Env,
    policy: Policy,
    sensor: Sensor,
    compute: Compute,
    radio: Option<Radio>,
    scan: Option<Scanner<'a>>,
}

impl<'a> Bracelet<'a> {
    /// The parts of the device `cfg` describes. The sensor, compute,
    /// radio and scanner register their load slots on `state` here, in
    /// that order; an absent part's slot stays unregistered and draws
    /// `-0.0`, the identity of the load sum.
    fn new(cfg: &'a DeviceConfig, state: &mut DeviceState) -> Bracelet<'a> {
        let sensor = Sensor::new(
            cfg.costs.acquisition_j,
            cfg.costs.acquisition_s,
            state.register_load(),
        );
        let compute = match (cfg.target_jobs, cfg.policy.targets) {
            (Some(jobs), Some(rule)) => Compute::adaptive(jobs, rule, state.register_load()),
            _ => Compute::new(cfg.costs.compute, state.register_load()),
        };
        // A duty-cycled policy always gets a radio: notifications are
        // batched into the periodic sync burst even when `sync` is unset
        // (a default nRF52 burst at the policy's interval).
        let batch_interval_s = cfg.policy.sync_interval_s;
        let sync = match (batch_interval_s, cfg.sync) {
            (Some(interval_s), Some(sync)) => Some(BleSync { interval_s, ..sync }),
            (Some(interval_s), None) => Some(BleSync::nrf52(&BleRadio::default(), interval_s, 32)),
            (None, sync) => sync,
        };
        let radio = (cfg.notify_j > 0.0 || sync.is_some()).then(|| Radio {
            notify_j: cfg.notify_j,
            sync,
            batch: batch_interval_s.is_some(),
            loss_prob: cfg.faults.ble_loss_prob,
            max_retries: cfg.faults.ble_max_retries,
            backoff_us: secs_to_us(cfg.faults.ble_backoff_s).max(1),
            rng: SplitMix64::new(mix(cfg.faults.seed, BLE_STREAM)),
            attempt: 0,
            pending: 0,
            sync_stretch: cfg.policy.backoff.map(|b| b.sync_stretch),
            load: state.register_load(),
            burst_started_us: 0,
        });
        let scan = (!cfg.contacts.is_empty()).then(|| Scanner {
            plan: &cfg.contacts,
            scan_power_w: iw_power::nrf52::scan_power_w(),
            load: state.register_load(),
            active: 0,
        });
        Bracelet {
            fault: Faults::new(&cfg.faults, cfg.sleep_floor_w, cfg.battery.capacity_j()),
            env: Env::new(&cfg.env, &cfg.solar, &cfg.teg),
            policy: Policy::new(cfg.policy),
            sensor,
            compute,
            radio,
            scan,
        }
    }
}

impl<S: TraceSink> Component<S> for Bracelet<'_> {
    /// Schedules the parts' first events in wiring order: fault, env,
    /// policy, radio, scanner (the sensor and compute wait for work). The
    /// order fixes the events' sequence numbers.
    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        self.fault.start(ctx);
        self.env.start(ctx);
        ctx.schedule_at(0, Event::PolicyTick);
        if let Some(radio) = &self.radio {
            radio.start(ctx);
        }
        if let Some(scan) = &self.scan {
            scan.start(ctx);
        }
    }

    // This and every part's event methods are `#[inline]`, so LLVM can
    // fold them into the engine loop rather than call each one out of
    // line (EXPERIMENTS.md, "One monomorphized device loop").
    //
    // The fault part goes first: its own event's method, then its
    // brownout poll, so state flips (brownout, signal corruption, harvest
    // derates) land before any same-timestamp policy or sensor reads,
    // which keeps runs order-deterministic.
    #[inline]
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
        let fault = &mut self.fault;
        match ev {
            Event::FaultStart { index } => {
                fault.window_start(index, ctx);
                fault.poll_brownout(ctx);
                self.sensor.taint(ctx);
            }
            Event::FaultEnd { index } => {
                fault.window_end(index, ctx);
                fault.poll_brownout(ctx);
            }
            Event::GaugeTick => {
                fault.gauge(ctx);
                fault.poll_brownout(ctx);
            }
            Event::BrownoutRecover => {
                fault.recover(ctx);
                fault.poll_brownout(ctx);
            }
            Event::EnvSegment { index } => {
                fault.poll_brownout(ctx);
                self.env.segment(index, ctx);
            }
            Event::PolicyTick => {
                fault.poll_brownout(ctx);
                self.policy.tick(ctx);
            }
            Event::AcquireStart => {
                fault.poll_brownout(ctx);
                self.sensor.open(ctx);
            }
            Event::AcquireEnd => {
                fault.poll_brownout(ctx);
                self.sensor.close(ctx);
            }
            Event::ComputeStart => {
                fault.poll_brownout(ctx);
                self.compute.dispatch(ctx);
            }
            Event::ComputeEnd { job } => {
                fault.poll_brownout(ctx);
                // The detection retires before the radio reports it.
                self.compute.retire(job, ctx);
                if let Some(radio) = &mut self.radio {
                    radio.retired(ctx);
                }
            }
            Event::BleSyncStart => {
                fault.poll_brownout(ctx);
                if let Some(radio) = &mut self.radio {
                    radio.sync_start(ctx);
                }
            }
            Event::BleSyncEnd => {
                fault.poll_brownout(ctx);
                if let Some(radio) = &mut self.radio {
                    radio.sync_end(ctx);
                }
            }
            Event::ContactStart { index } => {
                fault.poll_brownout(ctx);
                if let Some(scan) = &mut self.scan {
                    scan.contact_start(index, ctx);
                }
            }
            Event::ContactEnd { index } => {
                fault.poll_brownout(ctx);
                if let Some(scan) = &mut self.scan {
                    scan.contact_end(index, ctx);
                }
            }
            // `End` never reaches a device: the engine stops at it.
            Event::End => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Parts
// ---------------------------------------------------------------------------

/// Plays an [`EnvProfile`] back: at each segment boundary it sets the
/// battery-side intake of both harvesting chains, and it schedules
/// [`Event::End`] at the profile's end.
struct Env {
    /// `(start_us, solar_w, teg_w)` per segment.
    segments: Vec<(u64, f64, f64)>,
    end_us: u64,
}

impl Env {
    /// Precomputes the per-segment battery-side intakes.
    fn new(profile: &EnvProfile, solar: &SolarHarvester, teg: &TegHarvester) -> Env {
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
        Env {
            segments,
            end_us: secs_to_us(t_s),
        }
    }

    fn start<S: TraceSink>(&self, ctx: &mut SimCtx<'_, S>) {
        // End is scheduled first: at a shared final timestamp it wins the
        // sequence tie-break, so no new work starts exactly at t_end.
        ctx.schedule_at(self.end_us, Event::End);
        if !self.segments.is_empty() {
            ctx.schedule_at(self.segments[0].0, Event::EnvSegment { index: 0 });
        }
    }

    /// Segment `index` begins.
    #[inline]
    fn segment<S: TraceSink>(&self, index: usize, ctx: &mut SimCtx<'_, S>) {
        let (_, solar_w, teg_w) = self.segments[index];
        ctx.state.solar_w = solar_w;
        ctx.state.teg_w = teg_w;
        if let Some(&(next_us, ..)) = self.segments.get(index + 1) {
            ctx.schedule_at(next_us, Event::EnvSegment { index: index + 1 });
        }
    }
}

/// Weight of the newest intake sample in the trailing harvest average
/// the policy maintains (see [`DeviceState::harvest_avg_w`]).
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
struct Policy {
    policy: PolicySpec,
    idle_recheck_us: u64,
    min_interval_us: u64,
    /// The fault-aware backoff's re-check interval, at least 1 µs, when
    /// it gates acquisition.
    backoff_recheck_us: Option<u64>,
    /// The last positive rate's bits and the tick period it gave: most
    /// ticks see the same rate again and skip the division and rounding.
    last_rate_bits: u64,
    last_period_us: u64,
}

impl Policy {
    /// A policy part for `policy` with a 10 s paused-state re-check (the
    /// old fixed-timestep simulator's granularity) and a 1 ms floor on
    /// the detection period.
    fn new(policy: PolicySpec) -> Policy {
        Policy {
            policy,
            idle_recheck_us: secs_to_us(10.0),
            min_interval_us: 1_000,
            // Floored like the gauge and BLE backoff intervals: a spec
            // that skipped `PolicySpec::validate` may round to 0 µs, and a
            // tick re-armed at the same instant would never let time on.
            backoff_recheck_us: policy
                .backoff
                .filter(|b| b.gate_acquisition)
                .map(|b| secs_to_us(b.recheck_s).max(1)),
            // No positive rate has these bits (they are 0.0's).
            last_rate_bits: 0,
            last_period_us: 0,
        }
    }

    /// A policy tick.
    #[inline]
    fn tick<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
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
        if let Some(recheck_us) = self.backoff_recheck_us {
            if ctx.state.signal_faults > 0 {
                // Fault-aware backoff: the signal is known-corrupt, so
                // don't pay for a window that would be gated. The tick
                // always re-arms, so this can never deadlock detection.
                ctx.state.backoff_skips += 1;
                ctx.schedule_in(recheck_us, Event::PolicyTick);
                return;
            }
        }
        // The policy reads the fuel gauge, not the true cell state.
        let rate = self.policy.rate_per_s(ctx.state.observed_soc());
        if rate > 0.0 {
            ctx.schedule_in(0, Event::AcquireStart);
            if rate.to_bits() != self.last_rate_bits {
                self.last_rate_bits = rate.to_bits();
                self.last_period_us = secs_to_us(1.0 / rate).max(self.min_interval_us);
            }
            ctx.schedule_in(self.last_period_us, Event::PolicyTick);
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
///
/// Every window lasts `window_us`, so windows close in the order they
/// open, and a window that closes now opened `window_us` ago. A window is
/// corrupt when a signal fault was open at its start or opened during
/// it. The corrupt windows are always the first `tainted` in opening
/// order (see [`Sensor::open`]), so three counters stand for the open
/// windows and their flags.
struct Sensor {
    energy_j: f64,
    window_us: u64,
    unit_power_w: f64,
    load: LoadSlot,
    active: u32,
    /// Windows opened and closed so far.
    opened: u64,
    closed: u64,
    /// Windows `0..tainted` (in opening order) are corrupt.
    tainted: u64,
    /// Test-only reference: the open windows' `(start_us, corrupt)`,
    /// kept one by one as a queue; when present, its entries decide.
    #[cfg(test)]
    reference: Option<std::collections::VecDeque<(u64, bool)>>,
}

impl Sensor {
    /// A front-end pair drawing `energy_j` over each `window_s` window
    /// through `load`.
    fn new(energy_j: f64, window_s: f64, load: LoadSlot) -> Sensor {
        Sensor {
            energy_j,
            window_us: secs_to_us(window_s),
            unit_power_w: if window_s > 0.0 {
                energy_j / window_s
            } else {
                0.0
            },
            load,
            active: 0,
            opened: 0,
            closed: 0,
            tainted: 0,
            #[cfg(test)]
            reference: None,
        }
    }

    /// A window opens. Marking every open window corrupt when one opens
    /// under a signal fault changes no flag: a signal fault open now
    /// opened before an open window did (which then opened corrupt) or
    /// during it (whose `FaultStart` marked it). So the corrupt windows
    /// stay a prefix of the opening order.
    #[inline]
    fn open<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        if self.window_us == 0 {
            // Degenerate window: the energy is an impulse.
            ctx.consume_j(self.energy_j);
        } else {
            self.active += 1;
            ctx.state
                .set_load(self.load, f64::from(self.active) * self.unit_power_w);
        }
        self.opened += 1;
        if ctx.state.signal_faults > 0 {
            self.tainted = self.opened;
        }
        #[cfg(test)]
        if let Some(open) = &mut self.reference {
            open.push_back((ctx.now_us, ctx.state.signal_faults > 0));
        }
        ctx.schedule_in(self.window_us, Event::AcquireEnd);
    }

    /// A fault window opened, after the fault part handled it: when a
    /// signal-corrupting fault is now open, every open window is
    /// unusable.
    #[inline]
    fn taint<S: TraceSink>(&mut self, ctx: &SimCtx<'_, S>) {
        if ctx.state.signal_faults > 0 {
            self.tainted = self.opened;
            #[cfg(test)]
            if let Some(open) = &mut self.reference {
                for window in open {
                    window.1 = true;
                }
            }
        }
    }

    /// The oldest open window closes.
    #[inline]
    fn close<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        if self.window_us > 0 {
            self.active -= 1;
            ctx.state
                .set_load(self.load, f64::from(self.active) * self.unit_power_w);
        }
        let corrupt = self.closed < self.tainted;
        self.closed += 1;
        let started = ctx.now_us - self.window_us;
        #[cfg(test)]
        let (started, corrupt) = match &mut self.reference {
            Some(open) => open.pop_front().expect("balanced windows"),
            None => (started, corrupt),
        };
        if S::ENABLED {
            let track = ctx.tracks.device;
            ctx.sink.span(track, "acquire", started, ctx.now_us);
        }
        if corrupt {
            // Signal-quality gate: the window's energy is spent but its
            // samples are garbage — skip classification.
            ctx.state.reliability.degraded_windows += 1;
            if S::ENABLED {
                let track = ctx.tracks.device;
                ctx.sink.instant(track, "acq-gated", ctx.now_us);
            }
        } else {
            ctx.schedule_in(0, Event::ComputeStart);
        }
    }
}

/// The compute target(s): each [`Event::ComputeStart`] dispatches one
/// [`ComputeJob`] (duration from its cycle count, power from its energy);
/// each completion retires one detection.
///
/// A single-target part ([`Compute::new`]) runs every classification on
/// one job. An adaptive part ([`Compute::adaptive`]) holds one job per
/// [`iw_policy::TargetClass`] and picks the target *per classification*
/// from the policy's [`TargetRule`] over the observed state of charge,
/// the sync queue depth and the trailing harvest average. Jobs of
/// different durations may retire out of dispatch order, so
/// [`Event::ComputeEnd`] carries the job-slot index; within one slot
/// every job has the same duration, so a retiring job started its slot's
/// duration ago.
struct Compute {
    /// One per [`iw_policy::TargetClass`]; a single-target part uses
    /// slot 0 only.
    slots: [JobSlot; 3],
    targets: Option<TargetRule>,
    load: LoadSlot,
}

/// A job slot: its job's energy, duration and power, and how many of its
/// jobs are running.
#[derive(Debug, Clone, Copy)]
struct JobSlot {
    energy_j: f64,
    duration_us: u64,
    power_w: f64,
    /// Jobs running, as a float: the count is exact (far below 2^53), so
    /// `active × power` is `f64::from(count) × power` without the
    /// conversion, and every field is one 8-byte word (a wide load of
    /// two narrow counts right after one was stored stalls on store
    /// forwarding).
    active: f64,
}

impl JobSlot {
    fn new(job: ComputeJob) -> JobSlot {
        JobSlot {
            energy_j: job.energy_j,
            duration_us: secs_to_us(job.duration_s),
            power_w: job.power_w(),
            active: 0.0,
        }
    }
}

impl Compute {
    /// A single compute target running `job` per detection.
    fn new(job: ComputeJob, load: LoadSlot) -> Compute {
        // The unused slots draw `-0.0` W, the identity of the load sum,
        // so the sum is bit for bit slot 0's.
        let unused = JobSlot {
            power_w: -0.0,
            ..JobSlot::new(job)
        };
        Compute {
            slots: [JobSlot::new(job), unused, unused],
            targets: None,
            load,
        }
    }

    /// An adaptive part: one job per [`iw_policy::TargetClass`] (M4,
    /// Ibex, cluster order), selected per classification by `rule`.
    fn adaptive(jobs: [ComputeJob; 3], rule: TargetRule, load: LoadSlot) -> Compute {
        Compute {
            slots: jobs.map(JobSlot::new),
            targets: Some(rule),
            load,
        }
    }

    /// Total compute load right now: every slot's multiplicity times its
    /// unit power. For the single-target part this reduces to
    /// `active × power` — the same arithmetic as before targets existed.
    #[inline]
    fn load_w(&self) -> f64 {
        self.slots.iter().map(|s| s.active * s.power_w).sum()
    }

    /// A classification starts.
    #[inline]
    fn dispatch<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        let job = match self.targets {
            Some(rule) => {
                let class = rule.select(
                    ctx.state.observed_soc(),
                    ctx.state.queue_depth,
                    ctx.state.harvest_avg_w,
                );
                ctx.state.target_counts[class.index()] += 1;
                if S::ENABLED {
                    let track = ctx.tracks.device;
                    ctx.sink.instant(track, class.label(), ctx.now_us);
                }
                class.index()
            }
            None => 0,
        };
        let duration_us = self.slots[job].duration_us;
        if duration_us == 0 {
            ctx.consume_j(self.slots[job].energy_j);
        } else {
            self.slots[job].active += 1.0;
            ctx.state.set_load(self.load, self.load_w());
        }
        ctx.schedule_in(duration_us, Event::ComputeEnd { job });
    }

    /// A job of slot `job` retires: one detection is complete.
    #[inline]
    fn retire<S: TraceSink>(&mut self, job: usize, ctx: &mut SimCtx<'_, S>) {
        let duration_us = self.slots[job].duration_us;
        if duration_us > 0 {
            self.slots[job].active -= 1.0;
            ctx.state.set_load(self.load, self.load_w());
        }
        if S::ENABLED {
            let track = ctx.tracks.device;
            let started = ctx.now_us - duration_us;
            ctx.sink.span(track, "compute", started, ctx.now_us);
        }
        ctx.state.detections += 1;
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
struct Radio {
    notify_j: f64,
    sync: Option<BleSync>,
    batch: bool,
    /// The plan's loss probability, retry budget and backoff, and the
    /// per-attempt loss stream it seeds.
    loss_prob: f64,
    max_retries: u32,
    backoff_us: u64,
    rng: SplitMix64,
    attempt: u32,
    pending: u64,
    /// From the policy's fault-aware backoff (≥ 1): multiplies the next
    /// sync interval whenever the episode resolves with the link still
    /// looking dead — the gateway unreachable, or the episode dropped
    /// after its whole retry budget — spending fewer bursts into a dead
    /// link.
    sync_stretch: Option<f64>,
    load: LoadSlot,
    burst_started_us: u64,
}

impl Radio {
    fn start<S: TraceSink>(&self, ctx: &mut SimCtx<'_, S>) {
        if let Some(sync) = self.sync {
            ctx.schedule_in(secs_to_us(sync.interval_s), Event::BleSyncStart);
        }
    }

    /// A detection retired: notify it now, or queue it for the next sync
    /// under a duty-cycled policy.
    #[inline]
    fn retired<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        if self.batch {
            // Duty-cycled: the result queues for the next sync. The
            // backlog is mirrored into the shared state so adaptive
            // policies can read the queue depth.
            self.pending += 1;
            ctx.state.queue_depth = self.pending;
        } else if self.notify_j > 0.0 {
            ctx.consume_j(self.notify_j);
            ctx.state.notifications += 1;
            if S::ENABLED {
                let track = ctx.tracks.device;
                ctx.sink.instant(track, "notify", ctx.now_us);
            }
        }
    }

    /// A sync burst keys the radio on.
    #[inline]
    fn sync_start<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        let sync = self.sync.expect("sync configured");
        ctx.state.set_load(self.load, sync.power_w);
        self.burst_started_us = ctx.now_us;
        ctx.schedule_in(secs_to_us(sync.burst_s), Event::BleSyncEnd);
    }

    /// The sync burst ends: the attempt is delivered or lost, and the
    /// radio retries or waits for the next interval.
    #[inline]
    fn sync_end<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
        let sync = self.sync.expect("sync configured");
        ctx.state.set_load(self.load, 0.0);
        ctx.state.sync_bursts += 1;
        if S::ENABLED {
            let track = ctx.tracks.device;
            ctx.sink
                .span(track, "ble-sync", self.burst_started_us, ctx.now_us);
        }
        // A scenario-compiled gateway outage forces the loss without
        // consuming a draw from the per-attempt loss stream, so runs with
        // and without outage windows stay aligned outside them.
        let lost =
            ctx.state.gateway_down > 0 || (self.loss_prob > 0.0 && self.rng.chance(self.loss_prob));
        if lost {
            ctx.state.faults.add(FaultKind::BleLoss);
            if self.attempt < self.max_retries {
                self.attempt += 1;
                if S::ENABLED {
                    let track = ctx.tracks.device;
                    ctx.sink.instant(track, "sync-retry", ctx.now_us);
                }
                let backoff = self.backoff_us << (self.attempt - 1);
                ctx.state.sync_backoff_us.record(backoff);
                ctx.schedule_in(backoff, Event::BleSyncStart);
                return;
            }
            // Retry budget exhausted: the episode is dropped; a batched
            // backlog stays pending for the next interval.
            ctx.state.reliability.record_sync(SyncOutcome::Dropped);
            if S::ENABLED {
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
                // Flush the backlog: one notification impulse per queued
                // result, delivered inside this burst.
                ctx.consume_j(self.pending as f64 * self.notify_j);
                ctx.state.notifications += self.pending;
                self.pending = 0;
                ctx.state.queue_depth = 0;
            }
            if ctx.state.pending_contacts > 0 {
                // Queued contact observations ride the same successful
                // burst, one notification-sized impulse each.
                ctx.consume_j(ctx.state.pending_contacts as f64 * self.notify_j);
                ctx.state.contacts_uplinked += ctx.state.pending_contacts;
                ctx.state.pending_contacts = 0;
            }
        }
        // Episode resolved (delivered or dropped): its attempt count
        // feeds the fleet retry histogram.
        ctx.state.sync_attempts.record(u64::from(self.attempt) + 1);
        self.attempt = 0;
        let mut interval_s = (sync.interval_s - sync.burst_s).max(0.0);
        if let Some(stretch) = self.sync_stretch {
            // Fault-aware backoff: the link looks dead — a scenario
            // gateway outage is still open, or this episode just
            // exhausted its retry budget — so stretch the cadence instead
            // of burning the next burst into the same dead link. `lost`
            // here can only mean "dropped": the retry path returned.
            if ctx.state.gateway_down > 0 || lost {
                interval_s *= stretch;
                ctx.state.sync_stretches += 1;
            }
        }
        ctx.schedule_in(secs_to_us(interval_s), Event::BleSyncStart);
    }
}

/// Plays a scenario-compiled [`ContactPlan`] back: each contact window
/// opens a BLE scan (the nRF52832 scanner in RX, drawing the shared nRF52
/// scan power, multiplicity-counted when windows overlap) lasting the
/// lesser of one standard scan window and the co-location window itself.
/// A scan that completes while the device is operational *observes* the
/// contact: the `(epoch, peer)` edge is recorded and the observation
/// queues for the next successful sync burst (the radio flushes the queue
/// and counts the uplinks). A scan the device was too browned out to
/// start — or to finish — is a *missed* contact; the epidemic fold never
/// sees its edge, so detection coverage degrades exactly where the power
/// model says the device was down.
struct Scanner<'a> {
    plan: &'a ContactPlan,
    scan_power_w: f64,
    load: LoadSlot,
    active: u32,
}

impl Scanner<'_> {
    fn start<S: TraceSink>(&self, ctx: &mut SimCtx<'_, S>) {
        if !self.plan.entries.is_empty() {
            ctx.schedule_at(
                self.plan.entries[0].start_us,
                Event::ContactStart { index: 0 },
            );
        }
    }

    /// Scan length for entry `index`: one scan window, clipped to the
    /// co-location window.
    fn scan_us(&self, index: usize) -> u64 {
        let e = self.plan.entries[index];
        secs_to_us(iw_power::nrf52::SCAN_WINDOW_S).min(e.end_us.saturating_sub(e.start_us))
    }

    /// Contact `index` begins: scan, unless browned out.
    #[inline]
    fn contact_start<S: TraceSink>(&mut self, index: usize, ctx: &mut SimCtx<'_, S>) {
        // Chained scheduling, same shape as the fault plan: the next
        // window is armed regardless of this one's fate.
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
        self.active += 1;
        ctx.state
            .set_load(self.load, f64::from(self.active) * self.scan_power_w);
        ctx.schedule_in(self.scan_us(index), Event::ContactEnd { index });
    }

    /// The scan of contact `index` ends: observed, or missed if the
    /// device went down mid-scan. Only an opened scan schedules its end.
    #[inline]
    fn contact_end<S: TraceSink>(&mut self, index: usize, ctx: &mut SimCtx<'_, S>) {
        self.active -= 1;
        ctx.state
            .set_load(self.load, f64::from(self.active) * self.scan_power_w);
        let entry = self.plan.entries[index];
        let dur_us = self.scan_us(index);
        ctx.state.scan_energy_j += self.scan_power_w * dur_us as f64 * 1e-6;
        if S::ENABLED {
            let track = ctx.tracks.device;
            ctx.sink.span(track, "scan", entry.start_us, ctx.now_us);
        }
        if ctx.state.acquisition_enabled {
            let epoch = (entry.start_us / self.plan.epoch_us.max(1)) as u32;
            ctx.state.contact_edges.push((epoch, entry.peer));
            ctx.state.contacts_observed += 1;
            ctx.state.pending_contacts += 1;
            if S::ENABLED {
                let track = ctx.tracks.device;
                ctx.sink.instant(track, "contact", ctx.now_us);
            }
        } else {
            // Browned out mid-scan: energy spent, contact lost.
            ctx.state.contacts_missed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_policy::{FaultBackoff, RateRule, TargetClass};
    use iw_trace::{Event as TraceEvent, NoopSink, Recorder};

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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
        // 500 points, one every 172.8 s from 0: the one due at 86 400 s
        // falls on `End` and is not taken.
        assert_eq!(cfg.trace_points, 500);
        let instants: Vec<f64> = report.sim.trace.iter().map(|p| p.t_s).collect();
        let expected: Vec<f64> = (0..500u64)
            .map(|k| (k * 172_800_000) as f64 / 1e6)
            .collect();
        assert_eq!(instants, expected);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut rec);
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
        // The sink observes only: the untraced run reports the same.
        assert_eq!(cfg.run(&mut NoopSink), report);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
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
            cfg.run(&mut NoopSink)
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
    fn sub_microsecond_backoff_recheck_still_lets_time_advance() {
        // A spec built in code, never validated, whose 0.1 µs re-check
        // rounds to 0 µs, and a 2 ms lead-off window around the 10 s
        // tick: the re-check is floored at 1 µs, so the run skips the
        // 1 000 ticks from 10 s to the window's end and ends. On a thread
        // with a timeout, a tick re-armed at the same instant forever
        // fails instead of hanging.
        let (done, report) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut spec = PolicySpec::fixed_rate(12.0);
            spec.backoff = Some(FaultBackoff {
                gate_acquisition: true,
                recheck_s: 1e-7,
                sync_stretch: 1.0,
            });
            let mut cfg = DeviceConfig::new(dark_day(60.0), spec, micro_costs());
            cfg.sleep_floor_w = 0.0;
            cfg.battery.set_soc(0.9);
            cfg.faults.windows.push(iw_fault::FaultWindow {
                kind: FaultKind::EcgLeadOff,
                start_us: secs_to_us(9.999),
                end_us: secs_to_us(10.001),
                severity: 0.0,
            });
            done.send(cfg.run(&mut NoopSink)).unwrap();
        });
        let report = report
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run ends");
        // Detection resumes after the window: 12 windows a minute.
        assert_eq!((report.backoff_skips, report.detections), (1_000, 12));
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
        let report = cfg.run(&mut NoopSink);
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
        let single_report = single.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
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
        let report = cfg.run(&mut NoopSink);
        assert!(!report.sim.browned_out, "soc {}", report.sim.final_soc);
        assert!(report.sim.final_soc > 0.14);
        assert!(report.detections > 0);
    }

    /// The `brownout_recovers_after_the_lights_come_back` cell of
    /// `tests/faults.rs`: a 2 J cell at 8 % drains through the cutoff in
    /// a dark hour and recharges past the restart threshold in an hour
    /// outdoors, at the paper's detection costs.
    fn recovering_device() -> DeviceConfig {
        let env = EnvProfile {
            segments: vec![
                iw_harvest::EnvSegment {
                    duration_s: 3600.0,
                    light: iw_harvest::LightCondition::dark(),
                    thermal: iw_harvest::ThermalCondition::warm_room(),
                },
                iw_harvest::EnvSegment {
                    duration_s: 3600.0,
                    light: iw_harvest::LightCondition::outdoor(),
                    thermal: iw_harvest::ThermalCondition::warm_room(),
                },
            ],
        };
        let costs = DetectionCosts {
            acquisition_j: 600e-6,
            acquisition_s: 3.0,
            compute: ComputeJob::analytic(50e-6 + 6126.0 / 100e6, 1e-6 + 1.2e-6),
        };
        let duration_s = env.duration_s();
        let mut cfg = DeviceConfig::new(env, PolicySpec::fixed_rate(24.0), costs);
        cfg.faults = iw_fault::FaultProfile::Clean.plan(1, duration_s);
        cfg.battery = Battery::new(2.0);
        cfg.battery.set_soc(0.08);
        cfg
    }

    /// A D5-style closed-loop device on the harsh 40 J cell: an SoC ramp
    /// with batched sync, fault-aware backoff and per-classification
    /// target selection, under the harsh fault profile.
    fn adaptive_device() -> DeviceConfig {
        let spec = PolicySpec::new(RateRule::SocRamp {
            max_per_minute: 36.0,
            min_soc: 0.10,
            full_soc: 0.60,
        })
        .with_sync_interval(300.0)
        .with_backoff(FaultBackoff {
            gate_acquisition: true,
            recheck_s: 30.0,
            sync_stretch: 4.0,
        })
        .with_targets(TargetRule {
            eco_below: 0.35,
            m4_above: 0.75,
            harvest_weight: 50.0,
            queue_cluster: 8,
        });
        let env = EnvProfile::paper_indoor_day();
        let duration_s = env.duration_s();
        let mut cfg = DeviceConfig::new(env, spec, micro_costs());
        cfg.battery = Battery::new(40.0);
        cfg.battery.set_soc(0.9);
        cfg.notify_j = 10e-6;
        cfg.sync = Some(BleSync::nrf52(&BleRadio::default(), 300.0, 32));
        cfg.faults = iw_fault::FaultProfile::Harsh.plan(7, duration_s);
        cfg.target_jobs = Some([
            ComputeJob::analytic(100e-6, 5.1e-6),
            ComputeJob::analytic(200e-6, 1.3e-6),
            ComputeJob::analytic(61e-6, 1.2e-6),
        ]);
        cfg
    }

    /// Episodes per fault kind, in [`FaultKind::ALL`] order.
    fn fault_counts(report: &DeviceReport) -> [u64; FaultKind::COUNT] {
        FaultKind::ALL.map(|kind| report.faults.get(kind))
    }

    #[test]
    fn recovering_device_keeps_its_exact_run() {
        // Values measured with `trace_points = 0` before the components
        // were wired as fields of one statically routed device and before
        // trace samples left the event queue: the wiring, the brownout
        // compare, the policy's period cache and the device's default 500
        // trace points must not move any of them. This is the only pinned
        // device that crosses the restart threshold.
        let report = recovering_device().run(&mut NoopSink);
        assert_eq!(report.events, 8264);
        assert_eq!(report.queue_high_water, 5);
        assert_eq!(report.detections, 1587);
        assert_eq!(
            report.reliability,
            ReliabilityCounters {
                downtime_us: 3_230_000_000,
                brownouts: 1,
                recoveries: 1,
                recovery_us: 3_230_000_000,
                skipped_acquisitions: 323,
                ..ReliabilityCounters::default()
            }
        );
        assert_eq!(fault_counts(&report), [0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(report.target_counts, [0, 0, 0]);
        assert_eq!(report.backoff_skips, 0);
        assert_eq!(report.sync_stretches, 0);
        assert_eq!(report.sim.consumed_j.to_bits(), 0x3ff4_a2d0_347e_0825);
        assert_eq!(report.sim.final_soc.to_bits(), 0x3fef_fdb9_a738_e0ca);
    }

    #[test]
    fn adaptive_device_keeps_its_exact_run() {
        // Measured like `recovering_device_keeps_its_exact_run`.
        let report = adaptive_device().run(&mut NoopSink);
        assert_eq!(report.events, 180_732);
        assert_eq!(report.queue_high_water, 11);
        assert_eq!(report.detections, 33_671);
        assert_eq!(
            report.reliability,
            ReliabilityCounters {
                degraded_windows: 431,
                sync_episodes: 257,
                sync_ok: 247,
                sync_retried: 82,
                sync_dropped: 10,
                ..ReliabilityCounters::default()
            }
        );
        assert_eq!(fault_counts(&report), [49, 250, 28, 32, 13, 136, 1, 0]);
        assert_eq!(report.target_counts, [1034, 836, 31_801]);
        assert_eq!(report.backoff_skips, 928);
        assert_eq!(report.sync_stretches, 10);
        assert_eq!(report.sim.consumed_j.to_bits(), 0x403b_8f0b_52ed_b620);
        assert_eq!(report.sim.final_soc.to_bits(), 0x3fde_53bc_d6d3_acdd);
    }

    #[test]
    fn fault_runs_before_the_sensor_on_fault_start() {
        // 12/min from t = 0: windows open at 0, 5, 10, ... s for 3 s. A
        // lead-off from 6 s to 6.5 s opens inside the [5, 8] s window
        // only. The window opened clean, so it is gated only if the fault
        // part has raised the signal flag when the sensor handles
        // the same `FaultStart`.
        let run = |faulted: bool| {
            let mut cfg =
                DeviceConfig::new(dark_day(60.0), PolicySpec::fixed_rate(12.0), micro_costs());
            cfg.battery.set_soc(0.9);
            if faulted {
                cfg.faults.windows.push(iw_fault::FaultWindow {
                    kind: FaultKind::EcgLeadOff,
                    start_us: secs_to_us(6.0),
                    end_us: secs_to_us(6.5),
                    severity: 0.0,
                });
            }
            cfg.run(&mut NoopSink)
        };
        let clean = run(false);
        let faulted = run(true);
        assert_eq!(clean.reliability.degraded_windows, 0);
        assert_eq!(faulted.reliability.degraded_windows, 1);
        assert_eq!(faulted.detections + 1, clean.detections);
    }

    mod window_props {
        use super::*;
        use iw_fault::FaultWindow;
        use iw_scenario::ContactEntry;
        use proptest::prelude::*;

        /// A device drawn from `seed`: a fixed, SoC-ramped or dense rate
        /// (down to and past the 1 ms period floor), target selection
        /// with per-slot jobs of different lengths, fault-aware backoff,
        /// duty-cycled sync, overlapping fault windows of every scheduled
        /// kind, gauge noise, a lossy link, contacts and trace samples, on
        /// a cell small enough to brown out and recover now and then.
        /// Runs stay short: 10 minutes at up to 2 detections/s, or 4 s at
        /// a dense rate with windows short enough to keep the pending
        /// count in the tens.
        fn device(seed: u64) -> DeviceConfig {
            let mut rng = SplitMix64::new(seed);
            let mut pick =
                |options: &[f64]| options[(rng.next_u64() % options.len() as u64) as usize];
            let dense = pick(&[0.0, 0.0, 1.0]) == 1.0;
            let (horizon_s, window_s) = if dense {
                (4.0, pick(&[0.0, 0.004, 0.03]))
            } else {
                (600.0, pick(&[0.0, 0.5, 3.0]))
            };
            let mut rng = SplitMix64::new(mix(seed, 1));
            let rule = if dense {
                RateRule::Fixed {
                    per_minute: rng.range_f64(6000.0, 120_000.0),
                }
            } else if rng.chance(0.5) {
                RateRule::Fixed {
                    per_minute: rng.range_f64(1.0, 120.0),
                }
            } else {
                let min_soc = rng.range_f64(0.0, 0.5);
                RateRule::SocRamp {
                    max_per_minute: rng.range_f64(1.0, 120.0),
                    min_soc,
                    full_soc: min_soc + rng.range_f64(0.1, 0.6),
                }
            };
            let mut spec = PolicySpec::new(rule);
            if rng.chance(0.5) {
                spec.sync_interval_s = Some(if rng.chance(0.5) { 30.0 } else { 120.0 });
            }
            if rng.chance(0.5) {
                spec.backoff = Some(FaultBackoff {
                    gate_acquisition: rng.chance(0.7),
                    recheck_s: rng.range_f64(1.0, 30.0),
                    sync_stretch: rng.range_f64(1.0, 4.0),
                });
            }
            let mut target_jobs = None;
            if rng.chance(0.5) {
                spec.targets = Some(TargetRule {
                    eco_below: rng.range_f64(0.0, 0.6),
                    m4_above: rng.range_f64(0.3, 1.0),
                    harvest_weight: rng.range_f64(0.0, 100.0),
                    queue_cluster: rng.next_u64() % 12,
                });
                target_jobs = Some([(); 3].map(|()| {
                    let durations = [0.0, 61e-6, 1e-3, 5e-3];
                    let duration_s = durations[(rng.next_u64() % 4) as usize];
                    ComputeJob::analytic(duration_s, rng.range_f64(1e-7, 1e-5))
                }));
            }
            let env = if rng.chance(0.5) {
                let segment = |light| iw_harvest::EnvSegment {
                    duration_s: horizon_s / 2.0,
                    light,
                    thermal: iw_harvest::ThermalCondition::warm_room(),
                };
                EnvProfile {
                    segments: vec![
                        segment(iw_harvest::LightCondition::dark()),
                        segment(iw_harvest::LightCondition::outdoor()),
                    ],
                }
            } else {
                dark_day(horizon_s)
            };
            let costs = DetectionCosts {
                acquisition_j: 600e-6,
                acquisition_s: window_s,
                compute: ComputeJob::analytic(61e-6, 2.2e-6),
            };
            let mut cfg = DeviceConfig::new(env, spec, costs);
            cfg.battery = Battery::new(rng.range_f64(0.2, 40.0));
            cfg.battery.set_soc(rng.range_f64(0.02, 0.9));
            cfg.target_jobs = target_jobs;
            let kinds = [
                FaultKind::EcgLeadOff,
                FaultKind::MotionArtifact,
                FaultKind::GsrDetach,
                FaultKind::SolarOcclusion,
                FaultKind::TegCollapse,
                FaultKind::BleLoss,
            ];
            let mut windows: Vec<FaultWindow> = (0..rng.next_u64() % 12)
                .map(|_| {
                    let start_us = secs_to_us(rng.range_f64(0.0, horizon_s));
                    FaultWindow {
                        kind: kinds[(rng.next_u64() % 6) as usize],
                        start_us,
                        end_us: start_us + secs_to_us(rng.range_f64(0.001, 0.5) * horizon_s).max(1),
                        severity: rng.next_f64(),
                    }
                })
                .collect();
            windows.sort_by_key(|w| w.start_us);
            cfg.faults = FaultPlan {
                seed,
                windows,
                ble_loss_prob: rng.range_f64(0.0, 0.5),
                ble_max_retries: (rng.next_u64() % 3) as u32,
                gauge_noise_soc: if rng.chance(0.5) { 0.05 } else { 0.0 },
                gauge_interval_s: rng.range_f64(0.5, 60.0),
                ..FaultPlan::none()
            };
            let mut entries: Vec<ContactEntry> = (0..rng.next_u64() % 6)
                .map(|_| {
                    let start_us = secs_to_us(rng.range_f64(0.0, horizon_s));
                    ContactEntry {
                        start_us,
                        end_us: start_us + secs_to_us(rng.range_f64(0.0, 0.1) * horizon_s),
                        peer: (rng.next_u64() % 64) as u32,
                        rssi_dbm: -60,
                    }
                })
                .collect();
            entries.sort_by_key(|e| (e.start_us, e.peer));
            cfg.contacts = ContactPlan {
                entries,
                epoch_us: secs_to_us(60.0),
            };
            cfg.trace_points = (rng.next_u64() % 40) as usize;
            cfg.notify_j = if rng.chance(0.5) { 1e-6 } else { 0.0 };
            if rng.chance(0.5) {
                cfg.sync = Some(BleSync {
                    interval_s: 45.0,
                    burst_s: 5e-3,
                    power_w: 5e-3,
                });
            }
            cfg
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The sensor's three window counters decide every window's
            /// corrupt flag and span start as the reference queue of open
            /// windows does: the whole report is identical, events and
            /// queue high water included, traced and untraced, and so is
            /// the recorded timeline.
            #[test]
            fn window_counters_match_the_reference_queue(seed in any::<u64>()) {
                let cfg = device(seed);
                let fast = cfg.run(&mut NoopSink);
                let reference = cfg.run_reference(&mut NoopSink);
                prop_assert_eq!(format!("{fast:?}"), format!("{reference:?}"));
                let (mut fast_rec, mut reference_rec) = (Recorder::new(), Recorder::new());
                let fast_traced = cfg.run(&mut fast_rec);
                let reference_traced = cfg.run_reference(&mut reference_rec);
                prop_assert_eq!(format!("{fast_traced:?}"), format!("{reference_traced:?}"));
                prop_assert_eq!(format!("{fast_traced:?}"), format!("{fast:?}"));
                prop_assert_eq!(
                    format!("{:?}", fast_rec.events()),
                    format!("{:?}", reference_rec.events())
                );
            }
        }

        /// Runs `cfg` at `trace_points` into a recorder and checks its
        /// report against the unsampled, unsunk run's: equal in every
        /// field but `sim.trace`.
        fn samples_only_observe(mut cfg: DeviceConfig, trace_points: usize) -> Result<(), String> {
            cfg.trace_points = 0;
            let plain = cfg.run(&mut NoopSink);
            cfg.trace_points = trace_points;
            let mut sampled = cfg.run(&mut Recorder::new());
            prop_assert_eq!(sampled.sim.trace.is_empty(), trace_points == 0);
            sampled.sim.trace.clear();
            prop_assert_eq!(format!("{sampled:?}"), format!("{plain:?}"));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// Trace samples and the sink change nothing but the trace,
            /// on the devices of `window_counters_match_the_reference_queue`
            /// (down to one sample per millisecond of the dense runs).
            /// 1 024 cases: run it with `cargo test --release -p iw-sim --
            /// --ignored`.
            #[test]
            #[ignore = "1 024 cases: run in release with --ignored"]
            fn samples_leave_the_report_unchanged_1024(
                seed in any::<u64>(),
                trace_points in 0usize..4000,
            ) {
                samples_only_observe(device(seed), trace_points)?;
            }
        }
    }

    #[test]
    fn samples_leave_the_recovering_run_unchanged() {
        // The recovering device browns out and resumes between policy
        // ticks. A sample that polled the brownout machine would move
        // each threshold crossing to a sample instant, and one that split
        // an integration gap would move the energies' last bits: the
        // traced report must equal the unsampled one whole.
        let mut cfg = recovering_device();
        cfg.trace_points = 5000;
        let mut traced = cfg.run(&mut Recorder::new());
        assert_eq!(traced.sim.trace.len(), 5000);
        cfg.trace_points = 0;
        let untraced = cfg.run(&mut NoopSink);
        traced.sim.trace.clear();
        assert_eq!(traced, untraced);
    }
}
