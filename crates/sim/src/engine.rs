//! The discrete-event core: simulation clock, event queue, the
//! [`Component`] trait and the energy-integrating run loop.
//!
//! # Execution model
//!
//! Time is a monotone `u64` microsecond counter ([`SimClock`]). The
//! device schedules [`Event`]s into the engine's queue, which dispatches
//! them in (time, scheduling sequence number) order, so a run is a
//! deterministic function of the device's initial state — independent of
//! host thread count.
//!
//! Between two consecutive events every power contribution is constant:
//! the harvest intake set by the device's environment and the load
//! registered in [`LoadSlot`]s. The engine therefore integrates the
//! battery *exactly* (power × elapsed time) when it advances the clock —
//! there is no fixed integration step and no step-size error. Power only
//! changes at an event; bookkeeping events (policy and gauge ticks) fall
//! between changes and integrate a gap like any other. Trace samples are
//! not events: they read the state without splitting a gap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use iw_fault::{FaultCounters, ReliabilityCounters};
use iw_harvest::{Battery, TracePoint};
use iw_metrics::Histogram;
use iw_trace::{TraceSink, TrackId};

/// Microseconds per second, the engine's tick rate.
pub const US_PER_S: f64 = 1e6;

/// Converts seconds to engine ticks (microseconds), rounding to nearest,
/// halves away from zero: `(seconds * 1e6).round() as u64`, without the
/// libm call.
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
    round_us(seconds * US_PER_S)
}

/// `x.round() as u64` for a non-negative `x` (or `-0.0`). Below 2^52 the
/// truncation `t` and the remainder `x - t` are exact (Sterbenz's lemma:
/// `t <= x <= 2t` once `x >= 1`, and `t = 0` below), so comparing the
/// remainder with one half decides the rounding; from 2^52 up every
/// float is an integer, and the cast saturates as `round`'s would.
#[inline]
fn round_us(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x < EXACT {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x as u64
    }
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
/// A device's parts communicate exclusively through these events. The
/// engine hands each one to the device it runs, whose
/// [`Component::handle`] routes it to the parts that react to it (for the
/// bracelet, one exhaustive `match` in `device.rs` that calls one method
/// per part), so the wiring between environment, policy, sensors, compute
/// and radio is visible in one place.
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
    /// dispatching compute part's job-slot index (0 for the single-target
    /// device; the target-class index when an adaptive policy picks the
    /// compute target per classification), so concurrent jobs of
    /// different durations resolve to the right slot.
    ComputeEnd {
        /// Job-slot index within the compute part.
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
    /// End of simulation: integrate up to here, then stop.
    End,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    t_us: u64,
    seq: u64,
    ev: Event,
}

/// Most events kept in the sorted `near` array.
const NEAR_CAP: usize = 16;
/// Events moved from `far` to `near` when `near` runs dry.
const REFILL: usize = 8;

/// The pending events, dispatched in (time, sequence) order.
///
/// Device runs keep only a handful of events pending, so the queue is a
/// fixed array of at most [`NEAR_CAP`] events, sorted by descending
/// (time, sequence) so the next one is the last, in front of a `far`
/// heap of every other event. An event scheduled at the current instant
/// needs no special case: its sequence number is the highest so far, so
/// it sorts after every pending event due now and before every later
/// one, a compare or two from the back of the array.
///
/// Invariants: every `near` event precedes every `far` event, and `near`
/// is empty only when `far` is.
#[derive(Debug)]
struct Queue {
    /// The array; only `near[..len]` holds events.
    near: [Scheduled; NEAR_CAP],
    len: usize,
    far: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl Default for Queue {
    fn default() -> Queue {
        let unused = Scheduled {
            t_us: 0,
            seq: 0,
            ev: Event::End,
        };
        Queue {
            near: [unused; NEAR_CAP],
            len: 0,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }
}

// `push` and `pop` run once per event, and `push` is called from the
// device's handlers in other codegen units, where LLVM keeps it out of
// line even when marked `#[inline]`; hence `#[inline(always)]`. Only the
// common case is inlined at each call site: the rest is `push_far`.
impl Queue {
    fn len(&self) -> usize {
        self.len + self.far.len()
    }

    /// Queues `ev` at `t_us`, no earlier than the current instant.
    #[inline(always)]
    fn push(&mut self, t_us: u64, ev: Event) {
        let s = Scheduled {
            t_us,
            seq: self.seq,
            ev,
        };
        self.seq += 1;
        let len = self.len;
        if len < NEAR_CAP && (len == 0 || self.far.is_empty() || s < self.near[0]) {
            // Room in `near`, and `s` belongs there: move each earlier
            // event one place towards the back until `s` fits.
            let mut i = len;
            while i > 0 && self.near[i - 1] < s {
                self.near[i] = self.near[i - 1];
                i -= 1;
            }
            self.near[i] = s;
            self.len = len + 1;
        } else {
            self.push_far(s);
        }
    }

    /// The rest of [`Queue::push`]: `s` belongs in `far`, or `near` is
    /// full and must evict its latest event there.
    #[cold]
    #[inline(never)]
    fn push_far(&mut self, s: Scheduled) {
        if s > self.near[0] {
            // Later than every `near` event, and either `near` is full
            // (so it would be the one evicted) or `far` holds events it
            // may sort after.
            self.far.push(Reverse(s));
        } else {
            // Full: evict the latest to `far`, then move each later
            // event one place towards the front until `s` fits.
            self.far.push(Reverse(self.near[0]));
            let mut i = 0;
            while i + 1 < NEAR_CAP && self.near[i + 1] > s {
                self.near[i] = self.near[i + 1];
                i += 1;
            }
            self.near[i] = s;
        }
    }

    /// Takes the next event and its time.
    #[inline(always)]
    fn pop(&mut self) -> Option<(u64, Event)> {
        self.len = self.len.checked_sub(1)?;
        let next = self.near[self.len];
        if self.len == 0 {
            // The heap pops in ascending order; `near` is descending.
            let n = REFILL.min(self.far.len());
            for slot in self.near[..n].iter_mut().rev() {
                if let Some(Reverse(s)) = self.far.pop() {
                    *slot = s;
                }
            }
            self.len = n;
        }
        Some((next.t_us, next.ev))
    }
}

/// Handle to one battery-side load contribution (see
/// [`DeviceState::register_load`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSlot(usize);

/// The shared mutable state every part of the device sees: the battery, the
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
    /// (1 = first try succeeded).
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
    /// depth without reaching into the radio).
    pub queue_depth: u64,
    /// Trailing exponentially-weighted average of the harvest intake,
    /// watts — the adaptive policies' harvest forecast. Updated by the
    /// policy on its own ticks, so it is a deterministic
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
    /// Load slots' draws; the first `registered` are in use. Unused
    /// slots draw `-0.0` W, the identity of the sum in
    /// [`DeviceState::load_w`], so a fixed array sums bit for bit like
    /// the registered slots alone.
    loads: [f64; MAX_LOADS],
    registered: usize,
}

/// Most load slots a device registers (the bracelet's front ends,
/// compute, radio and scanner).
const MAX_LOADS: usize = 4;

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
            loads: [-0.0; MAX_LOADS],
            registered: 0,
        }
    }

    /// Registers a load slot, initially drawing nothing. Slots are
    /// handed out in registration order.
    ///
    /// # Panics
    ///
    /// Panics when four slots are registered already.
    pub fn register_load(&mut self) -> LoadSlot {
        let slot = self.registered;
        assert!(slot < MAX_LOADS, "at most four load slots");
        self.registered += 1;
        self.loads[slot] = 0.0;
        LoadSlot(slot)
    }

    /// Sets a slot's draw *absolutely* (not incrementally), watts.
    /// Parts that overlap work (e.g. concurrent acquisition windows)
    /// set `count × unit_power`, so float error can never accumulate.
    ///
    /// # Panics
    ///
    /// Panics when `power_w` is negative or not finite.
    #[inline]
    pub fn set_load(&mut self, slot: LoadSlot, power_w: f64) {
        // `p.is_finite() && p >= 0.0` on the bits, in two integer
        // compares: below +inf's bits lie +0 and every positive finite
        // float; -0 is the one other float that passes.
        let bits = power_w.to_bits();
        assert!(
            bits < f64::INFINITY.to_bits() || bits == (-0.0f64).to_bits(),
            "load power must be non-negative and finite"
        );
        self.loads[slot.0] = power_w;
    }

    /// Total battery-side load right now, watts.
    #[must_use]
    pub fn load_w(&self) -> f64 {
        self.base_load_w + self.loads.iter().sum::<f64>()
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

    /// Records the trace sample due at `at_us`, inside the gap from the
    /// last event (at `from_us`) to the next, into [`Self::trace`] and
    /// `sink`'s `harvest` track. Intake and load hold over the gap, so its
    /// SoC is a copy of the battery integrated up to `at_us`.
    #[cold]
    fn sample<S: TraceSink>(&mut self, from_us: u64, at_us: u64, sink: &mut S, harvest: TrackId) {
        let mut battery = self.battery;
        let dt_s = (at_us - from_us) as f64 / US_PER_S;
        let _ = integrate(&mut battery, self.intake_w(), self.load_w(), dt_s);
        let point = TracePoint {
            t_s: at_us as f64 / US_PER_S,
            soc: battery.soc(),
            solar_w: self.solar_w,
            teg_w: self.teg_w,
            consumed_w: self.load_w(),
        };
        self.trace.push(point);
        if S::ENABLED {
            point.record(sink, harvest);
        }
    }

    /// Integrates the piecewise-constant powers over `dt_s` seconds
    /// ([`integrate`]). On brown-out the available energy is drained, the
    /// flag sticks, and the simulation continues (the device rides the
    /// harvest trickle).
    fn advance(&mut self, dt_s: f64) {
        if dt_s > 0.0 {
            let (intake_w, load_w) = (self.intake_w(), self.load_w());
            let (stored_j, drawn_j, short) = integrate(&mut self.battery, intake_w, load_w, dt_s);
            self.stored_j += stored_j;
            self.consumed_j += drawn_j;
            self.browned_out |= short;
        }
    }
}

/// Holds `intake_w` and `load_w` for `dt_s` seconds on `battery`: charge
/// first (losses and capacity clipping apply), then [`draw`]. Returns the
/// energy stored and drawn and whether the cell fell short. The run's
/// gaps and the trace samples both take this step.
#[inline]
fn integrate(battery: &mut Battery, intake_w: f64, load_w: f64, dt_s: f64) -> (f64, f64, bool) {
    let stored_j = battery.charge(intake_w * dt_s);
    let (drawn_j, short) = draw(battery, load_w * dt_s);
    (stored_j, drawn_j, short)
}

/// Draws `energy_j` from `battery`, or drains it when it holds less.
/// Returns the energy drawn and whether the cell fell short.
#[inline]
fn draw(battery: &mut Battery, energy_j: f64) -> (f64, bool) {
    match battery.discharge(energy_j) {
        Ok(()) => (energy_j, false),
        Err(e) => {
            let _ = battery.discharge(e.available_j);
            (e.available_j, true)
        }
    }
}

#[cfg(test)]
impl DeviceState {
    /// Runs `f` at `now_us` on a context over this state, as a handler
    /// runs, with no sink and a scratch queue whose events are dropped.
    pub(crate) fn with_ctx(
        &mut self,
        now_us: u64,
        f: impl FnOnce(&mut SimCtx<'_, iw_trace::NoopSink>),
    ) {
        f(&mut SimCtx {
            now_us,
            state: self,
            sink: &mut iw_trace::NoopSink,
            tracks: Tracks::default(),
            queue: &mut Queue::default(),
        })
    }
}

/// Track handles the engine registers once per run and hands to the
/// device through [`SimCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracks {
    /// Device activity track (spans/instants), microsecond ticks.
    pub device: TrackId,
    /// Harvest counter track (`soc_pct`, `solar_mw`, ...), second ticks.
    pub harvest: TrackId,
}

/// What the device sees while handling an event: the clock, the shared
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
    // Inlined into the handlers for the reason given on `impl Queue`.
    #[inline(always)]
    pub fn schedule_at(&mut self, t_us: u64, ev: Event) {
        assert!(t_us >= self.now_us, "cannot schedule into the past");
        self.queue.push(t_us, ev);
    }

    /// Schedules `ev` after `delay_us` microseconds.
    #[inline(always)]
    pub fn schedule_in(&mut self, delay_us: u64, ev: Event) {
        self.schedule_at(self.now_us.saturating_add(delay_us), ev);
    }

    /// Draws an energy impulse from the battery right now (used for
    /// bursts too short to matter as a power level, e.g. a 4-byte BLE
    /// result notification). Brown-out semantics match continuous loads.
    pub fn consume_j(&mut self, energy_j: f64) {
        let (drawn_j, short) = draw(&mut self.state.battery, energy_j);
        self.state.consumed_j += drawn_j;
        self.state.browned_out |= short;
    }
}

/// A device the engine drives. [`Engine::run`] starts one device and
/// hands it every event. The bracelet in `device.rs` is the one product
/// device: its parts are plain state, and its `handle` calls the one
/// method of each part that reacts to the event; the engine's tests drive
/// small devices of their own.
pub trait Component<S: TraceSink> {
    /// Called once before the first event: schedule the device's initial
    /// events (and register any load slot not registered yet).
    fn start(&mut self, ctx: &mut SimCtx<'_, S>);

    /// Handles one event.
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>);
}

/// The discrete-event engine: owns the clock, the queue and the shared
/// state, and runs one device's events until [`Event::End`] (or until the
/// queue drains).
pub struct Engine {
    /// The shared device state (read the results out of here after
    /// [`Engine::run`]).
    pub state: DeviceState,
    clock: SimClock,
    queue: Queue,
    events_processed: u64,
    queue_high_water: u64,
}

impl Engine {
    /// A fresh engine around `battery`.
    #[must_use]
    pub fn new(battery: Battery) -> Engine {
        Engine {
            state: DeviceState::new(battery),
            clock: SimClock::default(),
            queue: Queue::default(),
            events_processed: 0,
            queue_high_water: 0,
        }
    }

    /// Events processed so far (the fleet throughput metric).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event-queue depth across the run so far.
    /// The device only pushes during dispatch (it cannot pop), so
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

    /// Runs `device` to completion: starts it, then pops events in
    /// (time, sequence) order, integrates the battery over each
    /// inter-event gap and hands every event but [`Event::End`] to
    /// `device`. The run ends at `End`, which integrates its gap and
    /// counts as processed, or when the queue drains. Returns the number
    /// of events processed.
    ///
    /// With `sample_us`, a trace sample ([`TracePoint`] and `harvest`
    /// counters) is due at every multiple of it. Before integrating the
    /// gap up to an event at `t`, the run records each sample due before
    /// `t`, so a sample sees the state after every event at or before its
    /// instant, and none falls at or after `End`. Samples change no
    /// state, count or queue depth.
    pub fn run<S: TraceSink, C: Component<S>>(
        &mut self,
        sink: &mut S,
        device: &mut C,
        sample_us: Option<u64>,
    ) -> u64 {
        let tracks = Tracks {
            device: sink.track("device", 1.0),
            harvest: sink.track("harvest", 1e-6),
        };
        let mut ctx = SimCtx {
            now_us: self.clock.now_us(),
            state: &mut self.state,
            sink,
            tracks,
            queue: &mut self.queue,
        };
        device.start(&mut ctx);
        let mut high_water = self.queue_high_water.max(ctx.queue.len() as u64);
        let mut events = self.events_processed;
        let interval_us = sample_us.map_or(u64::MAX, |us| us.max(1));
        let mut next_sample_us = sample_us.map_or(u64::MAX, |_| {
            self.clock.now_us().next_multiple_of(interval_us)
        });
        while let Some((t_us, ev)) = ctx.queue.pop() {
            if t_us > self.clock.now_us() {
                while next_sample_us < t_us {
                    ctx.state
                        .sample(ctx.now_us, next_sample_us, ctx.sink, ctx.tracks.harvest);
                    next_sample_us = next_sample_us.saturating_add(interval_us);
                }
                let dt_s = self.clock.advance_to(t_us);
                ctx.now_us = t_us;
                ctx.state.advance(dt_s);
            }
            events += 1;
            if ev == Event::End {
                break;
            }
            device.handle(ev, &mut ctx);
            high_water = high_water.max(ctx.queue.len() as u64);
        }
        self.events_processed = events;
        self.queue_high_water = high_water;
        events
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now_us", &self.clock.now_us())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_trace::NoopSink;

    /// Draws a constant power, ignores every event it is handed, and
    /// schedules one `last` event after a fixed time; the run ends there
    /// (at `End`, or when the queue drains).
    struct ConstantLoad {
        power_w: f64,
        duration_us: u64,
        last: Event,
    }

    impl<S: TraceSink> Component<S> for ConstantLoad {
        fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
            let slot = ctx.state.register_load();
            ctx.state.set_load(slot, self.power_w);
            ctx.schedule_in(self.duration_us, self.last);
        }
        fn handle(&mut self, _ev: Event, _ctx: &mut SimCtx<'_, S>) {}
    }

    /// Runs a fresh engine around `battery` on `device`.
    fn run(battery: Battery, device: &mut impl Component<NoopSink>) -> Engine {
        sampled(battery, device, None)
    }

    /// [`run`] with a trace sample due every `sample_us`.
    fn sampled(
        battery: Battery,
        device: &mut impl Component<NoopSink>,
        sample_us: Option<u64>,
    ) -> Engine {
        let mut engine = Engine::new(battery);
        engine.run(&mut NoopSink, device, sample_us);
        engine
    }

    #[test]
    fn integrates_power_exactly_between_events() {
        let mut battery = Battery::new(100.0);
        battery.set_soc(0.5);
        let engine = run(
            battery,
            &mut ConstantLoad {
                power_w: 1e-3,
                duration_us: secs_to_us(1000.0),
                last: Event::End,
            },
        );
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
        let engine = run(
            battery,
            &mut ConstantLoad {
                power_w: 1.0,
                duration_us: secs_to_us(10.0),
                last: Event::End,
            },
        );
        assert!(engine.state.browned_out);
        assert!((engine.state.consumed_j - 0.1).abs() < 1e-12);
        assert_eq!(engine.state.battery.soc(), 0.0);
    }

    /// Schedules a fixed list of events at start and logs every
    /// `(time, event)` it is handed, in dispatch order.
    struct Probe {
        schedule: Vec<(u64, Event)>,
        log: Vec<(u64, Event)>,
    }

    impl Probe {
        fn new(schedule: Vec<(u64, Event)>) -> Probe {
            Probe {
                schedule,
                log: Vec::new(),
            }
        }
    }

    impl<S: TraceSink> Component<S> for Probe {
        fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
            for &(t_us, ev) in &self.schedule {
                ctx.schedule_at(t_us, ev);
            }
        }
        fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
            self.log.push((ctx.now_us, ev));
        }
    }

    #[test]
    fn ties_dispatch_in_scheduling_order() {
        let mut probe = Probe::new(vec![
            (5, Event::PolicyTick),
            (5, Event::GaugeTick),
            (6, Event::End),
        ]);
        let engine = run(Battery::new(10.0), &mut probe);
        // PolicyTick was scheduled first, so at the shared timestamp it
        // dispatches first — deterministically.
        assert_eq!(probe.log, [(5, Event::PolicyTick), (5, Event::GaugeTick)]);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn every_event_but_end_reaches_the_device() {
        let mut probe = Probe::new(vec![
            (1, Event::BrownoutRecover),
            (2, Event::PolicyTick),
            (3, Event::FaultStart { index: 4 }),
            (4, Event::FaultEnd { index: 4 }),
            (9, Event::End),
            (10, Event::GaugeTick),
        ]);
        let engine = run(Battery::new(10.0), &mut probe);
        assert_eq!(
            probe.log,
            [
                (1, Event::BrownoutRecover),
                (2, Event::PolicyTick),
                (3, Event::FaultStart { index: 4 }),
                (4, Event::FaultEnd { index: 4 }),
            ]
        );
        // End counts and stops the run: the later GaugeTick never pops.
        assert_eq!(engine.events_processed(), 5);
        assert_eq!(engine.now_us(), 9);
    }

    #[test]
    fn ignored_event_integrates_its_gap_and_counts() {
        let mut battery = Battery::new(100.0);
        battery.set_soc(0.5);
        // The device ignores GaugeTick, and the queue drains after it:
        // the run stops exactly at the ignored event.
        let engine = run(
            battery,
            &mut ConstantLoad {
                power_w: 1e-3,
                duration_us: secs_to_us(1000.0),
                last: Event::GaugeTick,
            },
        );
        assert_eq!(engine.now_us(), secs_to_us(1000.0));
        assert_eq!(engine.events_processed(), 1);
        // 1 mW × 1000 s = 1 J.
        assert!((engine.state.consumed_j - 1.0).abs() < 1e-12);
        assert!((engine.state.battery.charge_j() - 49.0).abs() < 1e-12);
    }

    /// Steps its load: at each `(t_us, power_w)` a `PolicyTick` sets the
    /// power, and the run ends at `end_us`. Intake comes from a fixed
    /// solar power.
    struct LoadSteps {
        steps: Vec<(u64, f64)>,
        end_us: u64,
        slot: Option<LoadSlot>,
        next: usize,
    }

    impl LoadSteps {
        fn new(steps: &[(u64, f64)], end_us: u64) -> LoadSteps {
            LoadSteps {
                steps: steps.to_vec(),
                end_us,
                slot: None,
                next: 0,
            }
        }
    }

    impl<S: TraceSink> Component<S> for LoadSteps {
        fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
            self.slot = Some(ctx.state.register_load());
            ctx.state.solar_w = 3e-4;
            ctx.schedule_at(self.end_us, Event::End);
            for &(t_us, _) in &self.steps {
                ctx.schedule_at(t_us, Event::PolicyTick);
            }
        }
        fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_, S>) {
            let slot = self.slot.expect("started");
            ctx.state.set_load(slot, self.steps[self.next].1);
            self.next += 1;
        }
    }

    fn half_full(capacity_j: f64) -> Battery {
        let mut battery = Battery::new(capacity_j);
        battery.set_soc(0.5);
        battery
    }

    const STEPS: [(u64, f64); 4] = [(0, 1e-3), (7, 2e-3), (20, 5e-4), (33, 4e-3)];

    #[test]
    fn samples_fall_on_multiples_of_the_interval_before_end() {
        for (end_us, expected) in [(40, 4), (41, 5), (1, 1), (0, 0)] {
            let mut device = LoadSteps::new(&STEPS[..1], end_us);
            let engine = sampled(half_full(1.0), &mut device, Some(10));
            let instants: Vec<f64> = engine.state.trace.iter().map(|p| p.t_s).collect();
            let want: Vec<f64> = (0..expected).map(|k| k as f64 * 10.0 / US_PER_S).collect();
            // The sample due at `End`'s instant (40 µs) is not taken.
            assert_eq!(instants, want, "end {end_us}");
        }
    }

    #[test]
    fn a_sample_sees_every_event_at_its_instant() {
        let mut device = LoadSteps::new(&STEPS, 50);
        let engine = sampled(half_full(1.0), &mut device, Some(10));
        let loads: Vec<f64> = engine.state.trace.iter().map(|p| p.consumed_w).collect();
        // The sample at 20 µs sees the step the tick at 20 µs sets, and
        // the one at 0 the step at 0.
        assert_eq!(loads, [1e-3, 2e-3, 5e-4, 5e-4, 4e-3]);
        assert!(engine.state.trace.iter().all(|p| p.solar_w == 3e-4));
    }

    #[test]
    fn samples_read_the_state_an_end_at_their_instant_leaves() {
        // The 10 nJ cell browns out early, so the look-ahead drains it
        // as the live run does.
        for capacity_j in [1.0, 1e-8] {
            let mut device = LoadSteps::new(&STEPS, 50);
            let engine = sampled(half_full(capacity_j), &mut device, Some(3));
            for point in &engine.state.trace {
                let at_us = (point.t_s * US_PER_S).round() as u64;
                let mut cut = LoadSteps::new(&STEPS, at_us);
                let until = run(half_full(capacity_j), &mut cut);
                assert_eq!(
                    point.soc.to_bits(),
                    until.state.battery.soc().to_bits(),
                    "{capacity_j} J at {at_us} µs"
                );
            }
        }
    }

    #[test]
    fn samples_change_no_state_or_count() {
        for capacity_j in [1.0, 1e-8] {
            let mut plain = LoadSteps::new(&STEPS, 50);
            let plain = run(half_full(capacity_j), &mut plain);
            let mut traced = LoadSteps::new(&STEPS, 50);
            let traced = sampled(half_full(capacity_j), &mut traced, Some(1));
            assert_eq!(traced.state.trace.len(), 50);
            assert!(plain.state.trace.is_empty());
            assert_eq!(plain.state.browned_out, capacity_j < 1.0);
            assert_eq!(traced.events_processed(), plain.events_processed());
            assert_eq!(traced.queue_high_water(), plain.queue_high_water());
            assert_eq!(traced.now_us(), plain.now_us());
            let (mut traced_state, plain_state) = (traced.state, plain.state);
            traced_state.trace.clear();
            assert_eq!(format!("{traced_state:?}"), format!("{plain_state:?}"));
        }
    }

    mod queue_props {
        use super::*;
        use proptest::prelude::*;

        /// The queue under test beside a plain binary heap of
        /// `(time, sequence)`, and the clock both share.
        #[derive(Default)]
        struct Pair {
            queue: Queue,
            reference: BinaryHeap<Reverse<(u64, usize)>>,
            pushed: usize,
            now_us: u64,
        }

        impl Pair {
            /// Schedules the next event (its index is its sequence number)
            /// `delay_us` after the clock in both queues.
            fn push(&mut self, delay_us: u64) {
                let t_us = self.now_us + delay_us;
                let seq = self.pushed;
                self.pushed += 1;
                self.queue.push(t_us, Event::FaultStart { index: seq });
                self.reference.push(Reverse((t_us, seq)));
            }

            /// Dispatches the next event from both queues, moving the clock
            /// to its time, and checks both give the same
            /// `(time, sequence)`.
            fn pop(&mut self) -> Result<(), String> {
                let got = self.queue.pop().map(|(t_us, ev)| match ev {
                    Event::FaultStart { index } => (t_us, index),
                    other => unreachable!("only FaultStart is queued, got {other:?}"),
                });
                if let Some((t_us, _)) = got {
                    self.now_us = t_us;
                }
                prop_assert_eq!(got, self.reference.pop().map(|Reverse(next)| next));
                Ok(())
            }

            /// Both queues hold the same number of events.
            fn check_len(&self) -> Result<(), String> {
                prop_assert_eq!(self.queue.len(), self.reference.len());
                Ok(())
            }

            /// Dispatches everything left, then checks both are empty.
            fn drain(&mut self) -> Result<(), String> {
                while !self.reference.is_empty() {
                    self.pop()?;
                    self.check_len()?;
                }
                prop_assert_eq!(self.queue.pop(), None);
                Ok(())
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The queue pops exactly the (time, sequence) order of a plain
            /// binary heap, across ties, same-instant pushes and enough
            /// pending events to evict into and refill from the far tier.
            /// Each step schedules an event a few µs (`op` 0–2, ties and
            /// same-instant pushes) or up to 0.1 s (`op` 3) after the
            /// clock, dispatches the next one (`op` 4–5), or, as a handler
            /// does, dispatches the next one, schedules up to 19 events
            /// 1 µs apart after it and then up to 4 at its instant (`op`
            /// 6): same-instant pushes into a full array with `far` in
            /// use, including ones earlier than every array event.
            #[test]
            fn queue_pops_in_time_then_sequence_order(
                ops in prop::collection::vec((0u8..7, 0u64..100_000), 0..400),
            ) {
                let mut pair = Pair::default();
                for (op, delay_us) in ops {
                    match op {
                        0..=2 => pair.push(delay_us % 4),
                        3 => pair.push(delay_us),
                        4 | 5 => pair.pop()?,
                        _ => {
                            pair.pop()?;
                            for k in 1..=delay_us % 20 {
                                pair.push(k);
                            }
                            for _ in 0..=delay_us / 20 % 4 {
                                pair.push(0);
                            }
                        }
                    }
                    pair.check_len()?;
                }
                pair.drain()?;
            }
        }

        #[test]
        fn same_instant_pushes_into_a_full_array_keep_heap_order() {
            let mut pair = Pair::default();
            for t_us in 1..=20 {
                pair.push(t_us);
                pair.check_len().unwrap();
            }
            assert_eq!(pair.queue.len, NEAR_CAP);
            assert!(!pair.queue.far.is_empty());
            for step in 0..20 {
                pair.push(0);
                pair.check_len().unwrap();
                for _ in 0..1 + step % 2 {
                    pair.pop().unwrap();
                    pair.check_len().unwrap();
                }
            }
            pair.drain().unwrap();
        }
    }

    mod secs_to_us_props {
        use super::*;
        use proptest::prelude::*;

        /// The libm rounding `secs_to_us` replaces.
        fn reference(seconds: f64) -> u64 {
            (seconds * US_PER_S).round() as u64
        }

        #[test]
        fn rounds_halves_and_their_neighbours_like_libm() {
            for k in [
                0u64,
                1,
                2,
                999,
                1_000_000,
                123_456_789,
                (1 << 51) - 1,
                (1 << 52) - 2,
            ] {
                let half = k as f64 + 0.5;
                for x in [half.next_down(), half, half.next_up()] {
                    assert_eq!(round_us(x), x.round() as u64, "{x:e}");
                    assert_eq!(secs_to_us(x / US_PER_S), reference(x / US_PER_S), "{x:e}");
                }
            }
            let big = [
                (1u64 << 52) as f64,
                ((1u64 << 52) as f64).next_down(),
                ((1u64 << 52) as f64).next_up(),
                (1u64 << 63) as f64,
                2f64.powi(64),
                1e300,
                f64::MAX,
            ];
            for x in big {
                assert_eq!(round_us(x), x.round() as u64, "{x:e}");
            }
            for s in [
                0.0,
                -0.0,
                1e-7,
                4.9999999e-7,
                5e-7,
                f64::MIN_POSITIVE,
                1e300,
                f64::MAX,
            ] {
                assert_eq!(secs_to_us(s), reference(s), "{s:e}");
            }
        }

        #[test]
        #[should_panic(expected = "non-negative finite")]
        fn negative_durations_panic() {
            let _ = secs_to_us(-1e-9);
        }

        #[test]
        #[should_panic(expected = "non-negative finite")]
        fn nan_durations_panic() {
            let _ = secs_to_us(f64::NAN);
        }

        #[test]
        #[should_panic(expected = "non-negative finite")]
        fn infinite_durations_panic() {
            let _ = secs_to_us(f64::INFINITY);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// Random durations across the whole exponent range, including
            /// the bit patterns of whole and half microseconds.
            #[test]
            fn matches_libm_round(bits in any::<u64>(), whole in 0u64..1 << 53, tenth in 0u64..10) {
                let s = f64::from_bits(bits & !(1 << 63));
                if s.is_finite() {
                    prop_assert_eq!(secs_to_us(s), reference(s));
                }
                let x = whole as f64 + tenth as f64 / 10.0;
                prop_assert_eq!(round_us(x), x.round() as u64);
                prop_assert_eq!(secs_to_us(x / US_PER_S), reference(x / US_PER_S));
            }
        }
    }

    #[test]
    fn load_slots_are_distinct_and_sum_exactly() {
        let mut state = DeviceState::new(Battery::new(10.0));
        state.base_load_w = 1e-3;
        let a = state.register_load();
        let b = state.register_load();
        let c = state.register_load();
        assert_ne!(a.0, b.0);
        assert_ne!(b.0, c.0);
        state.set_load(a, 0.1);
        state.set_load(b, 0.2);
        state.set_load(c, -0.0);
        assert_eq!(state.load_w().to_bits(), (1e-3 + (0.1 + 0.2f64)).to_bits());
        let _ = state.register_load();
    }

    #[test]
    #[should_panic(expected = "at most four load slots")]
    fn a_fifth_load_slot_panics() {
        let mut state = DeviceState::new(Battery::new(10.0));
        for _ in 0..5 {
            let _ = state.register_load();
        }
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn negative_loads_panic() {
        let mut state = DeviceState::new(Battery::new(10.0));
        let slot = state.register_load();
        state.set_load(slot, -1e-300);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn nan_loads_panic() {
        let mut state = DeviceState::new(Battery::new(10.0));
        let slot = state.register_load();
        state.set_load(slot, f64::NAN);
    }

    #[test]
    fn impulse_consumption_matches_continuous() {
        /// Consumes 0.5 J as a single impulse at t = 1 s.
        struct Impulse;
        impl<S: TraceSink> Component<S> for Impulse {
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
        let engine = run(battery, &mut Impulse);
        assert!((engine.state.consumed_j - 0.5).abs() < 1e-12);
        assert!((engine.state.battery.charge_j() - 4.5).abs() < 1e-12);
    }
}
