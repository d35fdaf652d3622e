//! The discrete-event core: simulation clock, event queue, the
//! [`Component`] trait and the energy-integrating run loop.
//!
//! # Execution model
//!
//! Time is a monotone `u64` microsecond counter ([`SimClock`]). Components
//! schedule [`Event`]s into the engine's queue, which dispatches them in
//! (time, scheduling sequence number) order, so a run is a deterministic
//! function of the initial component state — independent of component
//! iteration order or host thread count.
//!
//! Between two consecutive events every power contribution is constant:
//! the harvest intake set by the environment component and the load
//! registered in named [`LoadSlot`]s. The engine therefore integrates the
//! battery *exactly* (power × elapsed time) when it advances the clock —
//! there is no fixed integration step and no step-size error. Power only
//! changes at an event; bookkeeping events (policy and gauge ticks, trace
//! samples) fall between changes and integrate a gap like any other.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use iw_fault::{FaultCounters, ReliabilityCounters};
use iw_harvest::{Battery, TracePoint};
use iw_metrics::Histogram;
use iw_trace::{TraceSink, TrackId};

/// Microseconds per second, the engine's tick rate.
pub const US_PER_S: f64 = 1e6;

/// Converts seconds to engine ticks (microseconds), rounding to nearest.
///
/// # Panics
///
/// Panics when `seconds` is negative or not finite.
#[must_use]
pub fn secs_to_us(seconds: f64) -> u64 {
    assert!(
        seconds.is_finite() && seconds >= 0.0,
        "duration must be a non-negative finite number of seconds"
    );
    (seconds * US_PER_S).round() as u64
}

/// The simulation clock: current time in microseconds since t = 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now_us: u64,
}

impl SimClock {
    /// Current time, microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Current time, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_us as f64 / US_PER_S
    }

    fn advance_to(&mut self, t_us: u64) -> f64 {
        debug_assert!(t_us >= self.now_us, "time must not run backwards");
        let dt_s = (t_us - self.now_us) as f64 / US_PER_S;
        self.now_us = t_us;
        dt_s
    }
}

/// The closed event vocabulary of the whole-device simulation.
///
/// Components communicate exclusively through these events. The engine
/// routes each event only to the components subscribed to its
/// [`EventKind`] (see [`Component::subscriptions`]), so the wiring between
/// environment, policy, sensors, compute and radio is visible in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// The environment entered segment `index` of its profile.
    EnvSegment {
        /// Index into the profile's segment list.
        index: usize,
    },
    /// The detection policy re-evaluates and may trigger an acquisition.
    PolicyTick,
    /// A 3 s ECG + GSR acquisition window opens.
    AcquireStart,
    /// An acquisition window closes (its samples are ready).
    AcquireEnd,
    /// Feature extraction + classification starts on the compute target.
    ComputeStart,
    /// The compute job retires: one detection is complete. `job` is the
    /// dispatching component's job-slot index (0 for the single-target
    /// device; the target-class index when an adaptive policy picks the
    /// compute target per classification), so concurrent jobs of
    /// different durations resolve to the right slot.
    ComputeEnd {
        /// Job-slot index within the compute component.
        job: usize,
    },
    /// A periodic BLE sync burst keys the radio on.
    BleSyncStart,
    /// The BLE sync burst ends.
    BleSyncEnd,
    /// A scheduled fault window opens (index into the fault plan).
    FaultStart {
        /// Index into the plan's window list.
        index: usize,
    },
    /// A scheduled fault window closes.
    FaultEnd {
        /// Index into the plan's window list.
        index: usize,
    },
    /// A scheduled contact window opens: the BLE scanner keys on
    /// (index into the device's contact plan).
    ContactStart {
        /// Index into the plan's entry list.
        index: usize,
    },
    /// The scan window for a contact closes: the peer is observed (or
    /// missed, if the device went down mid-scan).
    ContactEnd {
        /// Index into the plan's entry list.
        index: usize,
    },
    /// Fuel-gauge noise resamples the observed state of charge.
    GaugeTick,
    /// Cold-start delay elapsed: the device attempts to resume from
    /// brownout.
    BrownoutRecover,
    /// Trace sampling tick: record a [`TracePoint`].
    Sample,
    /// End of simulation: integrate up to here, then stop.
    End,
}

/// The field-less kind of an [`Event`]: a dense index into the engine's
/// routing table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`Event::EnvSegment`].
    EnvSegment,
    /// [`Event::PolicyTick`].
    PolicyTick,
    /// [`Event::AcquireStart`].
    AcquireStart,
    /// [`Event::AcquireEnd`].
    AcquireEnd,
    /// [`Event::ComputeStart`].
    ComputeStart,
    /// [`Event::ComputeEnd`].
    ComputeEnd,
    /// [`Event::BleSyncStart`].
    BleSyncStart,
    /// [`Event::BleSyncEnd`].
    BleSyncEnd,
    /// [`Event::FaultStart`].
    FaultStart,
    /// [`Event::FaultEnd`].
    FaultEnd,
    /// [`Event::ContactStart`].
    ContactStart,
    /// [`Event::ContactEnd`].
    ContactEnd,
    /// [`Event::GaugeTick`].
    GaugeTick,
    /// [`Event::BrownoutRecover`].
    BrownoutRecover,
    /// [`Event::Sample`].
    Sample,
    /// [`Event::End`] (consumed by the engine, never routed).
    End,
}

impl EventKind {
    /// Number of event kinds (`End` is the last variant).
    pub const COUNT: usize = EventKind::End as usize + 1;
}

impl Event {
    /// This event's kind.
    #[must_use]
    pub fn kind(self) -> EventKind {
        match self {
            Event::EnvSegment { .. } => EventKind::EnvSegment,
            Event::PolicyTick => EventKind::PolicyTick,
            Event::AcquireStart => EventKind::AcquireStart,
            Event::AcquireEnd => EventKind::AcquireEnd,
            Event::ComputeStart => EventKind::ComputeStart,
            Event::ComputeEnd { .. } => EventKind::ComputeEnd,
            Event::BleSyncStart => EventKind::BleSyncStart,
            Event::BleSyncEnd => EventKind::BleSyncEnd,
            Event::FaultStart { .. } => EventKind::FaultStart,
            Event::FaultEnd { .. } => EventKind::FaultEnd,
            Event::ContactStart { .. } => EventKind::ContactStart,
            Event::ContactEnd { .. } => EventKind::ContactEnd,
            Event::GaugeTick => EventKind::GaugeTick,
            Event::BrownoutRecover => EventKind::BrownoutRecover,
            Event::Sample => EventKind::Sample,
            Event::End => EventKind::End,
        }
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    t_us: u64,
    seq: u64,
    ev: Event,
}

/// Most future events kept in the sorted `near` tier.
const NEAR_CAP: usize = 16;
/// Events moved from `far` to `near` when `near` runs dry.
const REFILL: usize = 8;

/// The pending events, dispatched in (time, sequence) order.
///
/// Device runs keep only a handful of events pending, and a third of all
/// events are due at the current instant, so the queue has three parts:
///
/// - `lane`: events due *now*, in scheduling order. They were scheduled
///   at the current instant, so their sequence numbers exceed those of
///   every future-tier event due now (scheduled before the clock got
///   here); [`Queue::pop`] therefore drains those first, then the lane.
/// - `near`: at most [`NEAR_CAP`] future events, sorted by descending
///   (time, sequence), so the next one is the last element.
/// - `far`: a heap of every other future event.
///
/// Invariants: every `near` event precedes every `far` event, and `near`
/// is empty only when `far` is.
#[derive(Debug, Default)]
struct Queue {
    lane: VecDeque<Event>,
    near: Vec<Scheduled>,
    far: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl Queue {
    fn len(&self) -> usize {
        self.lane.len() + self.near.len() + self.far.len()
    }

    /// Queues `ev` at `t_us`, where the clock reads `now_us <= t_us`.
    fn push(&mut self, now_us: u64, t_us: u64, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        if t_us == now_us {
            self.lane.push_back(ev);
            return;
        }
        let s = Scheduled { t_us, seq, ev };
        // Later than every `near` event while `far` holds events: it may
        // sort after some of them, so it belongs in `far`.
        if !self.far.is_empty() && self.near.first().is_some_and(|latest| s > *latest) {
            self.far.push(Reverse(s));
            return;
        }
        let at = self.near.iter().rposition(|n| *n > s).map_or(0, |i| i + 1);
        self.near.insert(at, s);
        if self.near.len() > NEAR_CAP {
            let latest = self.near.remove(0);
            self.far.push(Reverse(latest));
        }
    }

    /// Takes the next event and its time, where the clock reads `now_us`.
    fn pop(&mut self, now_us: u64) -> Option<(u64, Event)> {
        if !self.lane.is_empty() && self.near.last().is_none_or(|s| s.t_us > now_us) {
            return self.lane.pop_front().map(|ev| (now_us, ev));
        }
        let next = self.near.pop()?;
        if self.near.is_empty() {
            while self.near.len() < REFILL {
                let Some(Reverse(s)) = self.far.pop() else {
                    break;
                };
                self.near.push(s);
            }
            self.near.reverse();
        }
        Some((next.t_us, next.ev))
    }
}

/// Handle to one named battery-side load contribution (see
/// [`DeviceState::register_load`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSlot(usize);

/// The shared mutable state every component sees: the battery, the
/// harvest intake, the load registry and the run's accumulators.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// The cell being charged and discharged.
    pub battery: Battery,
    /// Battery-side solar intake, watts (set by the environment).
    pub solar_w: f64,
    /// Battery-side TEG intake, watts (set by the environment).
    pub teg_w: f64,
    /// Remaining solar intake fraction under occlusion faults (1 = no
    /// fault active).
    pub solar_derate: f64,
    /// Remaining TEG intake fraction under ΔT-collapse faults.
    pub teg_derate: f64,
    /// Always-on baseline draw (sleep floor), watts.
    pub base_load_w: f64,
    /// Fuel-gauge read error currently applied to [`Self::observed_soc`].
    pub soc_bias: f64,
    /// `false` while the brownout state machine holds the device in
    /// acquisition-off (the policy must not start new work).
    pub acquisition_enabled: bool,
    /// Active signal-corrupting fault windows (ECG lead-off, motion
    /// artifact, GSR detach). Non-zero means open acquisition windows
    /// are unusable.
    pub signal_faults: u32,
    /// When browned out: the time the current episode began, µs.
    pub down_since_us: Option<u64>,
    /// Per-fault-kind episode counters.
    pub faults: FaultCounters,
    /// Reliability accumulators (downtime, gated windows, sync outcomes).
    pub reliability: ReliabilityCounters,
    /// Detections completed so far.
    pub detections: u64,
    /// Per-detection BLE result notifications sent.
    pub notifications: u64,
    /// Periodic BLE sync bursts completed.
    pub sync_bursts: u64,
    /// Distribution of BLE transmission attempts per sync episode
    /// (1 = first try succeeded; see `RadioComponent`).
    pub sync_attempts: Histogram,
    /// Distribution of BLE retry backoff delays, µs.
    pub sync_backoff_us: Histogram,
    /// Active gateway-outage fault windows (`FaultKind::BleLoss`
    /// windows). Non-zero forces every sync attempt to fail, pushing
    /// the radio into its retry/backoff path.
    pub gateway_down: u32,
    /// Contact windows whose scan completed with the peer observed.
    pub contacts_observed: u64,
    /// Contact windows missed (device down or mid-scan brownout).
    pub contacts_missed: u64,
    /// Observed contacts queued for uplink, awaiting the next
    /// successful sync flush.
    pub pending_contacts: u64,
    /// Contact reports delivered through the sync path.
    pub contacts_uplinked: u64,
    /// Energy spent in BLE scan windows, joules (also drawn from the
    /// battery through the scanner's load slot; this is the tally).
    pub scan_energy_j: f64,
    /// Results currently batched for the next sync flush (the radio
    /// mirrors its backlog here so adaptive policies can read the queue
    /// depth without reaching into the component).
    pub queue_depth: u64,
    /// Trailing exponentially-weighted average of the harvest intake,
    /// watts — the adaptive policies' harvest forecast. Updated by the
    /// policy component on its own ticks, so it is a deterministic
    /// function of the event sequence.
    pub harvest_avg_w: f64,
    /// Classifications dispatched per compute-target class
    /// (`iw_policy::TargetClass` order: M4, Ibex, cluster). All zero
    /// unless a target-selection rule is active.
    pub target_counts: [u64; 3],
    /// Acquisitions suppressed by fault-aware backoff (signal-quality
    /// fault active at the policy tick).
    pub backoff_skips: u64,
    /// Sync intervals stretched by fault-aware backoff (gateway
    /// unreachable at reschedule time).
    pub sync_stretches: u64,
    /// Observed contact-graph edges as `(epoch, peer)` pairs, in scan
    /// completion order — the fleet layer attaches the device index and
    /// feeds them to the epidemic fold.
    pub contact_edges: Vec<(u32, u32)>,
    /// `true` once a discharge request ever exceeded the stored energy.
    pub browned_out: bool,
    /// Energy actually stored into the cell (after charge losses), joules.
    pub stored_j: f64,
    /// Energy drawn from the cell, joules.
    pub consumed_j: f64,
    /// Sampled state-of-charge trajectory.
    pub trace: Vec<TracePoint>,
    loads: Vec<(&'static str, f64)>,
}

impl DeviceState {
    /// Fresh state around `battery`; no intake, no loads.
    #[must_use]
    pub fn new(battery: Battery) -> DeviceState {
        DeviceState {
            battery,
            solar_w: 0.0,
            teg_w: 0.0,
            solar_derate: 1.0,
            teg_derate: 1.0,
            base_load_w: 0.0,
            soc_bias: 0.0,
            acquisition_enabled: true,
            signal_faults: 0,
            down_since_us: None,
            faults: FaultCounters::default(),
            reliability: ReliabilityCounters::default(),
            detections: 0,
            notifications: 0,
            sync_bursts: 0,
            sync_attempts: Histogram::new(),
            sync_backoff_us: Histogram::new(),
            gateway_down: 0,
            contacts_observed: 0,
            contacts_missed: 0,
            pending_contacts: 0,
            contacts_uplinked: 0,
            scan_energy_j: 0.0,
            queue_depth: 0,
            harvest_avg_w: 0.0,
            target_counts: [0; 3],
            backoff_skips: 0,
            sync_stretches: 0,
            contact_edges: Vec::new(),
            browned_out: false,
            stored_j: 0.0,
            consumed_j: 0.0,
            trace: Vec::new(),
            loads: Vec::new(),
        }
    }

    /// Registers a named load slot, initially drawing nothing.
    pub fn register_load(&mut self, name: &'static str) -> LoadSlot {
        self.loads.push((name, 0.0));
        LoadSlot(self.loads.len() - 1)
    }

    /// Sets a slot's draw *absolutely* (not incrementally), watts.
    /// Components that overlap work (e.g. concurrent acquisition windows)
    /// set `count × unit_power`, so float error can never accumulate.
    ///
    /// # Panics
    ///
    /// Panics when `power_w` is negative or not finite.
    pub fn set_load(&mut self, slot: LoadSlot, power_w: f64) {
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "load power must be non-negative and finite"
        );
        self.loads[slot.0].1 = power_w;
    }

    /// Total battery-side load right now, watts.
    #[must_use]
    pub fn load_w(&self) -> f64 {
        self.base_load_w + self.loads.iter().map(|(_, w)| w).sum::<f64>()
    }

    /// Total battery-side harvest intake right now, watts (occlusion /
    /// ΔT-collapse derating applied).
    #[must_use]
    pub fn intake_w(&self) -> f64 {
        self.solar_w * self.solar_derate + self.teg_w * self.teg_derate
    }

    /// The state of charge the *device* observes: the true SoC plus the
    /// current fuel-gauge read error, clamped to `[0, 1]`. Policies read
    /// this, never the true value.
    #[must_use]
    pub fn observed_soc(&self) -> f64 {
        (self.battery.soc() + self.soc_bias).clamp(0.0, 1.0)
    }

    /// Integrates the piecewise-constant powers over `dt_s` seconds:
    /// charge first (losses + capacity clipping apply), then discharge.
    /// On brown-out the available energy is drained, the flag sticks, and
    /// the simulation continues (the device rides the harvest trickle).
    fn advance(&mut self, dt_s: f64) {
        if dt_s <= 0.0 {
            return;
        }
        self.stored_j += self.battery.charge(self.intake_w() * dt_s);
        self.draw(self.load_w() * dt_s);
    }

    /// Draws `energy_j` from the cell with brown-out semantics.
    fn draw(&mut self, energy_j: f64) {
        match self.battery.discharge(energy_j) {
            Ok(()) => self.consumed_j += energy_j,
            Err(e) => {
                let _ = self.battery.discharge(e.available_j);
                self.browned_out = true;
                self.consumed_j += e.available_j;
            }
        }
    }
}

/// Track handles the engine registers once per run and hands to every
/// component through [`SimCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracks {
    /// Device activity track (spans/instants), microsecond ticks.
    pub device: TrackId,
    /// Harvest counter track (`soc_pct`, `solar_mw`, ...), second ticks.
    pub harvest: TrackId,
}

/// What a component sees while handling an event: the clock, the shared
/// state, the sink, and the scheduling interface.
pub struct SimCtx<'a, S: TraceSink> {
    /// Current simulation time, microseconds.
    pub now_us: u64,
    /// The shared device state.
    pub state: &'a mut DeviceState,
    /// The trace sink (guard emissions with `if S::ENABLED`).
    pub sink: &'a mut S,
    /// Pre-registered track handles.
    pub tracks: Tracks,
    queue: &'a mut Queue,
    stopped: &'a mut bool,
}

impl<S: TraceSink> SimCtx<'_, S> {
    /// Current simulation time, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_us as f64 / US_PER_S
    }

    /// Schedules `ev` at absolute time `t_us`.
    ///
    /// # Panics
    ///
    /// Panics when `t_us` is in the past.
    pub fn schedule_at(&mut self, t_us: u64, ev: Event) {
        assert!(t_us >= self.now_us, "cannot schedule into the past");
        self.queue.push(self.now_us, t_us, ev);
    }

    /// Schedules `ev` after `delay_us` microseconds.
    pub fn schedule_in(&mut self, delay_us: u64, ev: Event) {
        self.schedule_at(self.now_us.saturating_add(delay_us), ev);
    }

    /// Draws an energy impulse from the battery right now (used for
    /// bursts too short to matter as a power level, e.g. a 4-byte BLE
    /// result notification). Brown-out semantics match continuous loads.
    pub fn consume_j(&mut self, energy_j: f64) {
        self.state.draw(energy_j);
    }

    /// Stops the run after the current event is fully dispatched.
    pub fn stop(&mut self) {
        *self.stopped = true;
    }
}

/// One piece of the simulated device. A component declares the event
/// kinds it handles, and the engine routes it only events of those kinds.
pub trait Component<S: TraceSink> {
    /// Name for diagnostics.
    fn name(&self) -> &'static str;

    /// The event kinds routed to [`Self::handle`], read once after
    /// [`Self::start`]. Events of any other kind never reach this
    /// component.
    fn subscriptions(&self) -> &'static [EventKind];

    /// Called once before the first event: register load slots and
    /// schedule the component's initial events.
    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        let _ = ctx;
    }

    /// Handles one event of a subscribed kind.
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>);
}

/// The discrete-event engine: owns the clock, the queue, the shared state
/// and the components, and runs events until [`Event::End`] (or until a
/// component calls [`SimCtx::stop`]).
pub struct Engine<S: TraceSink> {
    /// The shared device state (read the results out of here after
    /// [`Engine::run`]).
    pub state: DeviceState,
    clock: SimClock,
    queue: Queue,
    events_processed: u64,
    queue_high_water: u64,
    components: Vec<Box<dyn Component<S>>>,
}

impl<S: TraceSink> Engine<S> {
    /// A fresh engine around `battery` with no components.
    #[must_use]
    pub fn new(battery: Battery) -> Engine<S> {
        Engine {
            state: DeviceState::new(battery),
            clock: SimClock::default(),
            queue: Queue::default(),
            events_processed: 0,
            queue_high_water: 0,
            components: Vec::new(),
        }
    }

    /// Adds a component. Components subscribed to the same event kind
    /// handle it in insertion order, so a component may rely on an
    /// earlier-added one having already reacted to the same event.
    pub fn add(&mut self, component: Box<dyn Component<S>>) {
        self.components.push(component);
    }

    /// Events processed so far (the fleet throughput metric).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event-queue depth across the run so far.
    /// Components only push during dispatch (they cannot pop), so
    /// sampling the depth after each event is dispatched captures the
    /// true peak.
    #[must_use]
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water
    }

    /// Current simulation time, microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Runs to completion: pops events in (time, sequence) order,
    /// integrates the battery over each inter-event gap, and hands each
    /// event to the components subscribed to its kind, in insertion
    /// order. An event nobody subscribes to still advances the battery
    /// and counts as processed. Returns the number of events processed.
    pub fn run(&mut self, sink: &mut S) -> u64 {
        let tracks = Tracks {
            device: sink.track("device", 1.0),
            harvest: sink.track("harvest", 1e-6),
        };
        let mut components = std::mem::take(&mut self.components);
        let mut stopped = false;
        {
            let mut ctx = SimCtx {
                now_us: self.clock.now_us(),
                state: &mut self.state,
                sink,
                tracks,
                queue: &mut self.queue,
                stopped: &mut stopped,
            };
            for c in &mut components {
                c.start(&mut ctx);
            }
        }
        let mut routes: [Vec<usize>; EventKind::COUNT] = std::array::from_fn(|_| Vec::new());
        for (i, c) in components.iter().enumerate() {
            for &kind in c.subscriptions() {
                routes[kind as usize].push(i);
            }
        }
        self.queue_high_water = self.queue_high_water.max(self.queue.len() as u64);
        while let Some((t_us, ev)) = self.queue.pop(self.clock.now_us()) {
            if t_us > self.clock.now_us() {
                let dt_s = self.clock.advance_to(t_us);
                self.state.advance(dt_s);
            }
            self.events_processed += 1;
            if ev == Event::End {
                break;
            }
            let mut ctx = SimCtx {
                now_us: self.clock.now_us(),
                state: &mut self.state,
                sink,
                tracks,
                queue: &mut self.queue,
                stopped: &mut stopped,
            };
            for &i in &routes[ev.kind() as usize] {
                components[i].handle(ev, &mut ctx);
            }
            self.queue_high_water = self.queue_high_water.max(self.queue.len() as u64);
            if stopped {
                break;
            }
        }
        self.components = components;
        self.events_processed
    }
}

impl<S: TraceSink> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now_us", &self.clock.now_us())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .field(
                "components",
                &self.components.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_trace::NoopSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Draws a constant power, subscribes to nothing, and schedules one
    /// `last` event after a fixed time; the run ends there (at `End`, or
    /// when the queue drains).
    struct ConstantLoad {
        power_w: f64,
        duration_us: u64,
        last: Event,
        slot: Option<LoadSlot>,
    }

    impl<S: TraceSink> Component<S> for ConstantLoad {
        fn name(&self) -> &'static str {
            "constant-load"
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            &[]
        }
        fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
            let slot = ctx.state.register_load("constant");
            ctx.state.set_load(slot, self.power_w);
            self.slot = Some(slot);
            ctx.schedule_in(self.duration_us, self.last);
        }
        fn handle(&mut self, _ev: Event, _ctx: &mut SimCtx<'_, S>) {
            unreachable!("subscribed to nothing");
        }
    }

    #[test]
    fn integrates_power_exactly_between_events() {
        let mut battery = Battery::new(100.0);
        battery.set_soc(0.5);
        let mut engine: Engine<NoopSink> = Engine::new(battery);
        engine.add(Box::new(ConstantLoad {
            power_w: 1e-3,
            duration_us: secs_to_us(1000.0),
            last: Event::End,
            slot: None,
        }));
        engine.run(&mut NoopSink);
        // 1 mW × 1000 s = 1 J, no harvest.
        assert!((engine.state.consumed_j - 1.0).abs() < 1e-12);
        assert!((engine.state.battery.charge_j() - 49.0).abs() < 1e-12);
        assert!(!engine.state.browned_out);
        assert_eq!(engine.events_processed(), 1);
    }

    #[test]
    fn brown_out_drains_and_continues() {
        let mut battery = Battery::new(1.0);
        battery.set_soc(0.1);
        let mut engine: Engine<NoopSink> = Engine::new(battery);
        engine.add(Box::new(ConstantLoad {
            power_w: 1.0,
            duration_us: secs_to_us(10.0),
            last: Event::End,
            slot: None,
        }));
        engine.run(&mut NoopSink);
        assert!(engine.state.browned_out);
        assert!((engine.state.consumed_j - 0.1).abs() < 1e-12);
        assert_eq!(engine.state.battery.soc(), 0.0);
    }

    /// Every `(probe name, time, event)` the probes of one run handled,
    /// in dispatch order.
    type Log = Rc<RefCell<Vec<(&'static str, u64, Event)>>>;

    /// Schedules a fixed list of events at start and logs every event
    /// routed to it.
    struct Probe {
        name: &'static str,
        kinds: &'static [EventKind],
        schedule: Vec<(u64, Event)>,
        log: Log,
    }

    impl<S: TraceSink> Component<S> for Probe {
        fn name(&self) -> &'static str {
            self.name
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            self.kinds
        }
        fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
            for &(t_us, ev) in &self.schedule {
                ctx.schedule_at(t_us, ev);
            }
        }
        fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
            self.log.borrow_mut().push((self.name, ctx.now_us, ev));
        }
    }

    #[test]
    fn ties_dispatch_in_scheduling_order() {
        let log = Log::default();
        let mut engine: Engine<NoopSink> = Engine::new(Battery::new(10.0));
        engine.add(Box::new(Probe {
            name: "tie",
            kinds: &[EventKind::PolicyTick, EventKind::Sample],
            schedule: vec![(5, Event::PolicyTick), (5, Event::Sample), (6, Event::End)],
            log: Rc::clone(&log),
        }));
        engine.run(&mut NoopSink);
        // PolicyTick was scheduled first, so at the shared timestamp it
        // dispatches first — deterministically.
        assert_eq!(
            *log.borrow(),
            [("tie", 5, Event::PolicyTick), ("tie", 5, Event::Sample)]
        );
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn components_see_only_subscribed_kinds() {
        let log = Log::default();
        let mut engine: Engine<NoopSink> = Engine::new(Battery::new(10.0));
        engine.add(Box::new(Probe {
            name: "ticks",
            kinds: &[EventKind::PolicyTick],
            schedule: vec![
                (1, Event::Sample),
                (2, Event::PolicyTick),
                (3, Event::FaultStart { index: 4 }),
                (9, Event::End),
            ],
            log: Rc::clone(&log),
        }));
        engine.add(Box::new(Probe {
            name: "faults",
            kinds: &[EventKind::FaultStart, EventKind::FaultEnd],
            schedule: vec![(4, Event::FaultEnd { index: 4 })],
            log: Rc::clone(&log),
        }));
        engine.run(&mut NoopSink);
        assert_eq!(
            *log.borrow(),
            [
                ("ticks", 2, Event::PolicyTick),
                ("faults", 3, Event::FaultStart { index: 4 }),
                ("faults", 4, Event::FaultEnd { index: 4 }),
            ]
        );
        // The unrouted Sample still counts, as does End.
        assert_eq!(engine.events_processed(), 5);
    }

    #[test]
    fn subscribers_of_one_kind_run_in_insertion_order() {
        let log = Log::default();
        let mut engine: Engine<NoopSink> = Engine::new(Battery::new(10.0));
        for name in ["first", "second", "third"] {
            engine.add(Box::new(Probe {
                name,
                kinds: &[EventKind::ComputeEnd],
                schedule: Vec::new(),
                log: Rc::clone(&log),
            }));
        }
        engine.add(Box::new(Probe {
            name: "scheduler",
            kinds: &[],
            schedule: vec![(7, Event::ComputeEnd { job: 2 })],
            log: Rc::clone(&log),
        }));
        engine.run(&mut NoopSink);
        let ev = Event::ComputeEnd { job: 2 };
        assert_eq!(
            *log.borrow(),
            [("first", 7, ev), ("second", 7, ev), ("third", 7, ev)]
        );
    }

    #[test]
    fn unrouted_event_integrates_its_gap_and_counts() {
        let mut battery = Battery::new(100.0);
        battery.set_soc(0.5);
        let mut engine: Engine<NoopSink> = Engine::new(battery);
        // Nobody subscribes to GaugeTick, and the queue drains after it:
        // the run stops exactly at the unrouted event.
        engine.add(Box::new(ConstantLoad {
            power_w: 1e-3,
            duration_us: secs_to_us(1000.0),
            last: Event::GaugeTick,
            slot: None,
        }));
        engine.run(&mut NoopSink);
        assert_eq!(engine.now_us(), secs_to_us(1000.0));
        assert_eq!(engine.events_processed(), 1);
        // 1 mW × 1000 s = 1 J.
        assert!((engine.state.consumed_j - 1.0).abs() < 1e-12);
        assert!((engine.state.battery.charge_j() - 49.0).abs() < 1e-12);
    }

    mod queue_props {
        use super::*;
        use proptest::prelude::*;

        type Reference = BinaryHeap<Reverse<(u64, usize)>>;

        /// Dispatches the next event from both queues, moving the clock to
        /// its time, and checks both give the same `(time, sequence)`.
        fn pop_both(
            queue: &mut Queue,
            reference: &mut Reference,
            now_us: &mut u64,
        ) -> Result<(), String> {
            let got = queue.pop(*now_us).map(|(t_us, ev)| match ev {
                Event::FaultStart { index } => (t_us, index),
                other => unreachable!("only FaultStart is queued, got {other:?}"),
            });
            if let Some((t_us, _)) = got {
                *now_us = t_us;
            }
            prop_assert_eq!(got, reference.pop().map(|Reverse(next)| next));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The queue pops exactly the (time, sequence) order of a plain
            /// binary heap, across ties, same-instant pushes and enough
            /// pending events to evict into and refill from the far tier.
            /// Each step schedules an event a few µs (`op` 0–2, ties and
            /// same-instant pushes) or up to 0.1 s (`op` 3) after the
            /// clock, or dispatches the next one (`op` 4–5).
            #[test]
            fn queue_pops_in_time_then_sequence_order(
                ops in prop::collection::vec((0u8..6, 0u64..100_000), 0..400),
            ) {
                let mut queue = Queue::default();
                let mut reference = Reference::new();
                let mut now_us = 0;
                for (seq, (op, delay_us)) in ops.into_iter().enumerate() {
                    if op < 4 {
                        let t_us = now_us + if op < 3 { delay_us % 4 } else { delay_us };
                        queue.push(now_us, t_us, Event::FaultStart { index: seq });
                        reference.push(Reverse((t_us, seq)));
                    } else {
                        pop_both(&mut queue, &mut reference, &mut now_us)?;
                    }
                    prop_assert_eq!(queue.len(), reference.len());
                }
                while !reference.is_empty() {
                    pop_both(&mut queue, &mut reference, &mut now_us)?;
                }
                prop_assert_eq!(queue.pop(now_us), None);
            }
        }
    }

    #[test]
    fn impulse_consumption_matches_continuous() {
        /// Consumes 0.5 J as a single impulse at t = 1 s.
        struct Impulse;
        impl<S: TraceSink> Component<S> for Impulse {
            fn name(&self) -> &'static str {
                "impulse"
            }
            fn subscriptions(&self) -> &'static [EventKind] {
                &[EventKind::PolicyTick]
            }
            fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
                ctx.schedule_at(secs_to_us(1.0), Event::PolicyTick);
                ctx.schedule_at(secs_to_us(2.0), Event::End);
            }
            fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
                if ev == Event::PolicyTick {
                    ctx.consume_j(0.5);
                }
            }
        }
        let mut battery = Battery::new(10.0);
        battery.set_soc(0.5);
        let mut engine: Engine<NoopSink> = Engine::new(battery);
        engine.add(Box::new(Impulse));
        engine.run(&mut NoopSink);
        assert!((engine.state.consumed_j - 0.5).abs() < 1e-12);
        assert!((engine.state.battery.charge_j() - 4.5).abs() < 1e-12);
    }
}
