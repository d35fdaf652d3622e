//! Discrete-event whole-device co-simulation of the InfiniWolf bracelet.
//!
//! The crate replaces the old fixed-timestep battery loop with an event
//! engine ([`Engine`]): a monotonic [`SimClock`], an event queue with
//! deterministic (time, sequence) ordering, and one device, a
//! [`Component`] that reacts to [`Event`]s. Power is piecewise constant
//! between events and integrated *exactly* over each interval, so the
//! engine is both faster and more accurate than stepping a fixed `dt`.
//!
//! The device layer ([`DeviceConfig`]) wires the existing crates into
//! the bracelet's components, routed statically by event: dual-source
//! harvesting (`iw-harvest`), sensor acquisition
//! windows, compute jobs dispatched through the `iw-kernels`
//! machine/deployment registry, BLE sync bursts (`iw-nrf52`) and the
//! detection policies in [`PolicySpec`]. Runs can stream into any
//! `iw-trace` [`iw_trace::TraceSink`].
//!
//! The fleet layer ([`FleetConfig`]) sweeps N devices × wearer subjects
//! × environment profiles with deterministic per-device seeding. It is
//! a *streaming* service: workers own contiguous device-index shards,
//! fold every result into a bounded-memory, mergeable [`FleetAggregate`]
//! as it is produced, and shard aggregates merge hierarchically in
//! index order to a digest bit-identical to the serial fold
//! ([`FleetReport`]). The [`record`] module gives results a compact
//! binary wire form for multi-process runs, and the [`coord`] module
//! runs the coordinator/worker protocol over any `Read`/`Write`
//! streams.
//!
//! The fault layer (crate `iw-fault`, replayed by [`FaultComponent`])
//! injects deterministic fault plans — electrode lead-off, motion
//! artifacts, harvest occlusion, BLE sync loss, fuel-gauge noise — and
//! runs the brownout / cold-start degradation state machine; reliability
//! counters surface in [`DeviceReport`] and the fleet aggregates.
//!
//! The scenario layer (crate `iw-scenario`, played by
//! [`BleScanComponent`]) compiles fleet-wide scripts — mobility-driven
//! contact windows, weather fronts, regional gateway outages, epidemic
//! seeding — into per-device artifacts, so networked devices stay
//! independently simulable; the fleet fold then runs a deterministic
//! epidemic pass over the merged contact edges ([`run_epidemic`]).

#![warn(missing_docs)]

pub mod coord;
mod device;
mod engine;
mod faults;
mod fleet;
pub mod record;

pub use device::{
    default_sleep_floor_w, BleScanComponent, BleSync, ComputeJob, DetectionCosts, DeviceConfig,
    DeviceReport,
};
pub use engine::{
    secs_to_us, Component, DeviceState, Engine, Event, LoadSlot, SimClock, SimCtx, Tracks, US_PER_S,
};
pub use faults::FaultComponent;
pub use fleet::{
    fleet_snapshot, DeviceResult, DigestAccum, ExactSum, FleetAggregate, FleetConfig, FleetMetrics,
    FleetReport, MergeOverflow, PolicyAccum, PolicyStats, ScenarioTotals, SubjectProfile,
};
pub use iw_fault::{
    BrownoutModel, FaultCounters, FaultKind, FaultPlan, FaultProfile, FaultWindow,
    ReliabilityCounters, SyncOutcome,
};
pub use iw_policy::{FaultBackoff, PolicySpec, RateRule, TargetClass, TargetRule};
pub use iw_scenario::{
    paper_environments, run_epidemic, CompiledScenario, ContactEdge, ContactEntry, ContactPlan,
    EpidemicOutcome, EpidemicScript, Scenario,
};
