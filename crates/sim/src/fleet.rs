//! Streaming fleet runner: N devices × subjects × environments,
//! deterministically seeded, folded into a bounded-memory, mergeable
//! [`FleetAggregate`] as each device completes.
//!
//! # Determinism
//!
//! Every device's configuration (environment, subject, policy, start
//! state of charge, light-exposure jitter) is a pure function of the
//! fleet seed and the device index — never of the worker thread or
//! process it lands on. Workers own *contiguous* device-index ranges
//! ([`FleetConfig::shard_range`]), fold each [`DeviceResult`] into a
//! shard-local [`FleetAggregate`] the moment it is produced, and the
//! shard aggregates are merged hierarchically in ascending shard order.
//! The merge is associative and order-fixed (see [`DigestAccum`]), so
//! `--threads 1`, `--threads 8` and a 4-process coordinator/worker run
//! must all produce the same [`FleetReport::digest`] — bit for bit — or
//! something is wrong.
//!
//! # Bounded memory
//!
//! No path in this module retains a `Vec<DeviceResult>` proportional to
//! the fleet: per-device results exist only transiently (and may be
//! streamed to a sink via [`FleetConfig::run_chunk_with`], e.g. encoded
//! with [`crate::record`] onto a pipe). [`FleetReport::devices`] holds
//! only the opt-in sample of the first [`FleetConfig::sample_devices`]
//! devices (default 0). All floating-point aggregates accumulate in
//! 96.32 fixed point ([`ExactSum`]), so sums are *exact* integers and
//! therefore identical under any hierarchical merge tree — not just the
//! digest but every reported mean is topology-invariant.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use iw_fault::{mix, FaultCounters, FaultKind, FaultProfile, ReliabilityCounters};
use iw_harvest::{Battery, EnvProfile};
use iw_metrics::{Histogram, Snapshot, Value};
use iw_scenario::{run_epidemic, CompiledScenario, ContactEdge, EpidemicOutcome};
use iw_trace::{NoopSink, Recorder, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::device::{BleSync, ComputeJob, DetectionCosts, DeviceConfig};
use iw_policy::PolicySpec;

/// Stream-derivation constant separating each device's fault-plan seed
/// from its configuration-jitter seed.
const FAULT_STREAM: u64 = 0xfa17_0000_0000_0001;

/// FNV-1a 64-bit offset basis (digest starting state).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime; also the polynomial-merge radix of
/// [`DigestAccum`] (odd, hence invertible mod 2⁶⁴).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Trace samples per device when a device runs into a recording sink
/// ([`FleetConfig::trace_groups`]); the aggregate path samples nothing.
/// Samples only observe, so either run gives the same [`DeviceResult`].
const FLEET_TRACE_POINTS: usize = 256;

/// A wearer archetype: scales the policy's detection rate.
#[derive(Debug, Clone)]
pub struct SubjectProfile {
    /// Archetype name.
    pub name: String,
    /// Multiplier on the policy's detection rate.
    pub activity: f64,
}

/// Configuration of a fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub devices: usize,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Fleet seed: together with a device index it fully determines that
    /// device's run.
    pub seed: u64,
    /// Environment profiles devices cycle through.
    pub environments: Vec<(String, EnvProfile)>,
    /// Wearer archetypes devices cycle through.
    pub subjects: Vec<SubjectProfile>,
    /// Detection policy specs devices cycle through (the classic
    /// policies are the [`PolicySpec`] presets).
    pub policies: Vec<(String, PolicySpec)>,
    /// Per-target compute jobs (M4 / Ibex / 8×RI5CY cluster order) for
    /// policy specs that carry a target-selection rule; `None` keeps
    /// every device on the single `costs.compute` job.
    pub target_jobs: Option<[ComputeJob; 3]>,
    /// Per-detection costs (same for every device).
    pub costs: DetectionCosts,
    /// The cell every device starts from (the start state of charge is
    /// still jittered per device). Smaller cells make brownout and the
    /// recovery state machine reachable within a one-day sweep.
    pub battery: Battery,
    /// Always-on battery-side sleep floor, watts.
    pub sleep_floor_w: f64,
    /// Per-detection BLE notification energy, joules (0 = off).
    pub notify_j: f64,
    /// Optional periodic BLE sync bursts.
    pub sync: Option<BleSync>,
    /// Fault intensity every device's plan is materialised from (each
    /// device gets its own plan seed derived from the fleet seed).
    pub faults: FaultProfile,
    /// Retain the full [`DeviceResult`] of devices with index below this
    /// cap in [`FleetReport::devices`] (0 = retain nothing; the default).
    /// Aggregation never depends on the sample — it exists for tables
    /// and tests that want to inspect individual devices.
    pub sample_devices: usize,
    /// The compiled cross-device scenario this fleet plays (None = the
    /// classic isolated-device sweep). Per device the scenario adds
    /// correlated fault windows (weather fronts, gateway outages), a
    /// contact plan and an epidemic-seed flag — all pure functions of
    /// `(scenario seed, device index)`, so devices stay independently
    /// simulable and the digest stays shard-order invariant.
    pub scenario: Option<Arc<CompiledScenario>>,
}

/// One device's result in the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceResult {
    /// Device index in `0..devices`.
    pub device: usize,
    /// Environment name.
    pub env: String,
    /// Subject archetype name.
    pub subject: String,
    /// Policy name.
    pub policy: String,
    /// Simulated duration, days.
    pub days: f64,
    /// Detections completed.
    pub detections: u64,
    /// Whether the battery ever ran empty.
    pub browned_out: bool,
    /// Final state of charge.
    pub final_soc: f64,
    /// Energy stored from harvesting, joules.
    pub stored_j: f64,
    /// Energy consumed, joules.
    pub consumed_j: f64,
    /// Engine events processed.
    pub events: u64,
    /// Peak event-queue depth over the run.
    pub queue_high_water: u64,
    /// Distribution of BLE transmission attempts per sync episode.
    pub sync_attempts: Histogram,
    /// Distribution of BLE retry backoff delays, µs.
    pub sync_backoff_us: Histogram,
    /// Fraction of the run the device was operational.
    pub uptime: f64,
    /// Per-fault-kind episode counters.
    pub faults: FaultCounters,
    /// Reliability accumulators (downtime, gated windows, sync outcomes).
    pub reliability: ReliabilityCounters,
    /// Absolute energy-conservation drift
    /// `|initial + stored − consumed − final|`, joules (must stay at
    /// float roundoff even under fault injection).
    pub conservation_j: f64,
    /// Whether this result carries a networked-scenario block (contact
    /// counters, scan energy, edges). When false every scenario field
    /// below is at its default and the digest is byte-for-byte the
    /// pre-scenario digest.
    pub scenario: bool,
    /// Scenario contacts observed (scan completed with the device up).
    pub contacts_observed: u64,
    /// Scenario contacts missed while browned out.
    pub contacts_missed: u64,
    /// Observed contacts uplinked through a successful sync burst.
    pub contacts_uplinked: u64,
    /// Energy spent in BLE scan windows, joules.
    pub scan_energy_j: f64,
    /// Whether the epidemic script seeded this device infected.
    pub infected_seed: bool,
    /// Observed contact edges (`device` is always this device's index).
    pub contact_edges: Vec<ContactEdge>,
    /// Whether this result carries an adaptive-policy attribution block
    /// (the device ran a [`PolicySpec`] that behaves unlike every
    /// preset; see [`PolicySpec::is_adaptive`]).
    /// When false every attribution field below is zero and the digest
    /// is byte-for-byte the pre-policy-engine digest.
    pub adaptive: bool,
    /// Detections dispatched to the Cortex-M4 by target selection.
    pub target_m4: u64,
    /// Detections dispatched to the Ibex/Wolf controller.
    pub target_ibex: u64,
    /// Detections dispatched to the 8×RI5CY cluster.
    pub target_cluster: u64,
    /// Acquisition windows skipped by fault-aware backoff.
    pub backoff_skips: u64,
    /// Sync intervals stretched while the gateway link was down.
    pub sync_stretches: u64,
}

impl DeviceResult {
    /// The device's digest contribution: FNV-1a over the result's
    /// determinism-relevant fields (index, detections, brown-out flag,
    /// the exact bit patterns of the energy bookkeeping, and every
    /// fault / reliability counter). Engine-event counts, queue depth
    /// and the telemetry histograms are left out: they are engine
    /// instrumentation, not results. A traced re-run
    /// ([`FleetConfig::trace_groups`]) gives the same whole result.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a(h, &(self.device as u64).to_le_bytes());
        h = fnv1a(h, &self.detections.to_le_bytes());
        h = fnv1a(h, &[u8::from(self.browned_out)]);
        h = fnv1a(h, &self.final_soc.to_bits().to_le_bytes());
        h = fnv1a(h, &self.stored_j.to_bits().to_le_bytes());
        h = fnv1a(h, &self.consumed_j.to_bits().to_le_bytes());
        // Reliability results are part of the determinism contract:
        // every counter is folded bit-for-bit.
        for kind in FaultKind::ALL {
            h = fnv1a(h, &self.faults.get(kind).to_le_bytes());
        }
        let rel = &self.reliability;
        for v in [
            rel.downtime_us,
            rel.brownouts,
            rel.recoveries,
            rel.recovery_us,
            rel.degraded_windows,
            rel.skipped_acquisitions,
            rel.sync_episodes,
            rel.sync_ok,
            rel.sync_retried,
            rel.sync_dropped,
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
        // The scenario block is folded only when present, so an
        // isolated-device sweep (`--scenario none`) digests byte-for-byte
        // as it did before scenarios existed.
        if self.scenario {
            h = fnv1a(h, b"scn");
            h = fnv1a(h, &self.contacts_observed.to_le_bytes());
            h = fnv1a(h, &self.contacts_missed.to_le_bytes());
            h = fnv1a(h, &self.contacts_uplinked.to_le_bytes());
            h = fnv1a(h, &self.scan_energy_j.to_bits().to_le_bytes());
            h = fnv1a(h, &[u8::from(self.infected_seed)]);
            for edge in &self.contact_edges {
                h = fnv1a(h, &edge.epoch.to_le_bytes());
                h = fnv1a(h, &edge.device.to_le_bytes());
                h = fnv1a(h, &edge.peer.to_le_bytes());
            }
        }
        // Likewise the adaptive-policy attribution block: folded only
        // for adaptive specs, so every preset-policy sweep digests
        // exactly as it did before the policy engine existed.
        if self.adaptive {
            h = fnv1a(h, b"pol");
            h = fnv1a(h, &self.target_m4.to_le_bytes());
            h = fnv1a(h, &self.target_ibex.to_le_bytes());
            h = fnv1a(h, &self.target_cluster.to_le_bytes());
            h = fnv1a(h, &self.backoff_skips.to_le_bytes());
            h = fnv1a(h, &self.sync_stretches.to_le_bytes());
        }
        h
    }
}

/// Aggregated statistics for one policy across the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyStats {
    /// Policy name.
    pub name: String,
    /// Devices that ran this policy.
    pub devices: usize,
    /// Mean detections per simulated day.
    pub detections_per_day: f64,
    /// Fraction of devices that browned out.
    pub brown_out_rate: f64,
    /// Mean final state of charge.
    pub mean_final_soc: f64,
    /// Mean device uptime fraction.
    pub mean_uptime: f64,
    /// Total detections across this policy's devices.
    pub detections: u64,
    /// Total energy consumed across this policy's devices, joules.
    pub consumed_j: f64,
    /// Mean energy per detection, joules (`consumed_j / detections`;
    /// `f64::INFINITY` when the policy produced no detections at all —
    /// all energy, no work).
    pub energy_per_detection_j: f64,
    /// Detections dispatched to the Cortex-M4 by target selection.
    pub target_m4: u64,
    /// Detections dispatched to the Ibex/Wolf controller.
    pub target_ibex: u64,
    /// Detections dispatched to the 8×RI5CY cluster.
    pub target_cluster: u64,
    /// Acquisition windows skipped by fault-aware backoff.
    pub backoff_skips: u64,
    /// Sync intervals stretched during gateway loss.
    pub sync_stretches: u64,
    /// Summed reliability counters across this policy's devices.
    pub reliability: ReliabilityCounters,
}

/// Fleet-wide telemetry distributions, folded per device and merged
/// element-wise — the histogram face of the digest algebra. Every
/// histogram has exact `u64` buckets ([`Histogram::merge`] is
/// element-wise addition), so the merged distributions are bit-identical
/// across shard/thread topology, bucket for bucket.
///
/// Like `events`, none of this feeds [`DeviceResult::digest`]: the
/// distributions are *derived* observability, and the queue/event
/// histograms legitimately differ under tracing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetMetrics {
    /// Per-device uptime fraction, parts per million.
    pub uptime_ppm: Histogram,
    /// Per-device final state of charge, parts per million.
    pub final_soc_ppm: Histogram,
    /// Per-device detections completed.
    pub detections: Histogram,
    /// Per-device brownout downtime, µs.
    pub downtime_us: Histogram,
    /// Per-device engine events processed.
    pub events: Histogram,
    /// Per-device peak event-queue depth.
    pub queue_high_water: Histogram,
    /// BLE transmission attempts per sync episode (fleet-wide).
    pub sync_attempts: Histogram,
    /// BLE retry backoff delays, µs (fleet-wide).
    pub sync_backoff_us: Histogram,
    /// Per-device observed-contact count (scenario runs only; empty
    /// otherwise).
    pub contact_degree: Histogram,
    /// Per-device BLE scan energy, µJ (scenario runs only).
    pub scan_energy_uj: Histogram,
}

impl FleetMetrics {
    /// Folds one device's contribution (quantising the float statistics
    /// to parts per million — a pure function of the value, so folding
    /// is topology-invariant).
    pub fn fold(&mut self, result: &DeviceResult) {
        self.uptime_ppm
            .record((result.uptime.clamp(0.0, 1.0) * 1e6).round() as u64);
        self.final_soc_ppm
            .record((result.final_soc.clamp(0.0, 1.0) * 1e6).round() as u64);
        self.detections.record(result.detections);
        self.downtime_us.record(result.reliability.downtime_us);
        self.events.record(result.events);
        self.queue_high_water.record(result.queue_high_water);
        self.sync_attempts.merge(&result.sync_attempts);
        self.sync_backoff_us.merge(&result.sync_backoff_us);
        if result.scenario {
            self.contact_degree.record(result.contacts_observed);
            self.scan_energy_uj
                .record((result.scan_energy_j * 1e6).round() as u64);
        }
    }

    /// `true` when [`FleetMetrics::merge`] with `other` would overflow
    /// a histogram.
    fn merge_overflows(&self, other: &FleetMetrics) -> bool {
        self.histograms()
            .iter()
            .zip(other.histograms())
            .any(|((_, a), (_, b))| a.merge_overflows(b))
    }

    /// Element-wise merge of every histogram (exact, associative).
    pub fn merge(&mut self, other: &FleetMetrics) {
        self.uptime_ppm.merge(&other.uptime_ppm);
        self.final_soc_ppm.merge(&other.final_soc_ppm);
        self.detections.merge(&other.detections);
        self.downtime_us.merge(&other.downtime_us);
        self.events.merge(&other.events);
        self.queue_high_water.merge(&other.queue_high_water);
        self.sync_attempts.merge(&other.sync_attempts);
        self.sync_backoff_us.merge(&other.sync_backoff_us);
        self.contact_degree.merge(&other.contact_degree);
        self.scan_energy_uj.merge(&other.scan_energy_uj);
    }

    /// The histograms with their exported metric names, in wire order
    /// (the codec and every exporter iterate this).
    #[must_use]
    pub fn histograms(&self) -> [(&'static str, &Histogram); 10] {
        [
            ("fleet_device_uptime_ppm", &self.uptime_ppm),
            ("fleet_device_final_soc_ppm", &self.final_soc_ppm),
            ("fleet_device_detections", &self.detections),
            ("fleet_device_downtime_us", &self.downtime_us),
            ("fleet_device_events", &self.events),
            ("fleet_device_queue_high_water", &self.queue_high_water),
            ("fleet_sync_attempts", &self.sync_attempts),
            ("fleet_sync_backoff_us", &self.sync_backoff_us),
            ("fleet_device_contact_degree", &self.contact_degree),
            ("fleet_device_scan_energy_uj", &self.scan_energy_uj),
        ]
    }

    /// Rebuilds from histograms in the [`FleetMetrics::histograms`] wire
    /// order (the codec path).
    #[must_use]
    pub fn from_wire(hists: [Histogram; 10]) -> FleetMetrics {
        let [uptime_ppm, final_soc_ppm, detections, downtime_us, events, queue_high_water, sync_attempts, sync_backoff_us, contact_degree, scan_energy_uj] =
            hists;
        FleetMetrics {
            uptime_ppm,
            final_soc_ppm,
            detections,
            downtime_us,
            events,
            queue_high_water,
            sync_attempts,
            sync_backoff_us,
            contact_degree,
            scan_energy_uj,
        }
    }
}

/// A refused [`FleetAggregate::try_merge`]: the merged sum that would
/// overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOverflow {
    /// Which sum.
    pub sum: &'static str,
}

impl fmt::Display for MergeOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merging its aggregate overflows the fleet's {}",
            self.sum
        )
    }
}

impl std::error::Error for MergeOverflow {}

/// Fleet-wide totals of a networked-scenario sweep: the contact budget
/// and — when the finalising side held the [`CompiledScenario`] — the
/// epidemic fold's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTotals {
    /// Σ contacts observed across the fleet.
    pub contacts_observed: u64,
    /// Σ contacts missed (device browned out during the window).
    pub contacts_missed: u64,
    /// Σ observed contacts uplinked through sync bursts.
    pub contacts_uplinked: u64,
    /// Σ BLE scan energy, joules (exact-sum accumulated).
    pub scan_energy_j: f64,
    /// Devices the epidemic script seeded infected.
    pub seeded_devices: u64,
    /// Merged observed contact edges across the fleet.
    pub edge_count: u64,
    /// The epoch-barrier epidemic fold over the merged edges. `None`
    /// when the finaliser had no compiled scenario (e.g. a decoded
    /// aggregate inspected without its scenario).
    pub epidemic: Option<EpidemicOutcome>,
}

/// The merged fleet sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Devices aggregated into this report (the whole fleet).
    pub device_count: usize,
    /// The opt-in per-device sample: results of devices with index below
    /// [`FleetConfig::sample_devices`], in device-index order. Empty by
    /// default — the fleet never retains per-device results otherwise.
    pub devices: Vec<DeviceResult>,
    /// Per-policy aggregates, in the config's policy order.
    pub policies: Vec<PolicyStats>,
    /// Order-fixed determinism digest over every device result (see
    /// [`DigestAccum`] for the merge algebra).
    pub digest: u64,
    /// Total simulated time across the fleet, seconds.
    pub simulated_s: f64,
    /// Total engine events processed across the fleet.
    pub events: u64,
    /// Summed per-fault-kind counters across the fleet.
    pub faults: FaultCounters,
    /// Summed reliability counters across the fleet.
    pub reliability: ReliabilityCounters,
    /// Mean device uptime fraction across the fleet.
    pub mean_uptime: f64,
    /// Largest per-device energy-conservation drift, joules.
    pub max_conservation_j: f64,
    /// Fleet-wide telemetry distributions (topology-invariant buckets).
    pub metrics: FleetMetrics,
    /// Networked-scenario totals (`None` for isolated-device sweeps).
    pub scenario: Option<ScenarioTotals>,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The mergeable fleet digest: a polynomial hash over per-device FNV-1a
/// digests in device-index order.
///
/// With radix `R` = the FNV prime and per-device digests `d₀ … dₙ₋₁`
/// (see [`DeviceResult::digest`]), the fleet digest is
///
/// ```text
/// digest = basis·Rⁿ + d₀·Rⁿ⁻¹ + d₁·Rⁿ⁻² + … + dₙ₋₁   (mod 2⁶⁴)
/// ```
///
/// An accumulator carries `(h, pow)` where `h` is the polynomial of the
/// devices folded so far (from 0) and `pow = Rⁿ`. Folding one device is
/// `h ← h·R + d`, and merging the aggregate of range `A` with the
/// aggregate of the *immediately following* range `B` is
///
/// ```text
/// h ← h_A·pow_B + h_B        pow ← pow_A·pow_B
/// ```
///
/// Both operations are exact wrapping integer arithmetic, so the merge
/// is **associative** — any merge tree over contiguous, index-ordered
/// shards yields the same digest as the serial fold — and **order
/// fixed**: swapping two shards changes the digest (the polynomial is
/// position-dependent). `R` is odd, so multiplication by `pow` is a
/// bijection mod 2⁶⁴ and no device's contribution can vanish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestAccum {
    h: u64,
    pow: u64,
}

impl Default for DigestAccum {
    fn default() -> DigestAccum {
        DigestAccum { h: 0, pow: 1 }
    }
}

impl DigestAccum {
    /// The empty accumulator (identity of [`DigestAccum::merge`]).
    #[must_use]
    pub fn new() -> DigestAccum {
        DigestAccum::default()
    }

    /// Rebuilds an accumulator from its raw `(h, pow)` pair (the codec
    /// path; inverse of [`DigestAccum::raw`]).
    #[must_use]
    pub fn from_raw(h: u64, pow: u64) -> DigestAccum {
        DigestAccum { h, pow }
    }

    /// The raw `(h, pow)` pair for serialization.
    #[must_use]
    pub fn raw(&self) -> (u64, u64) {
        (self.h, self.pow)
    }

    /// Folds the next device digest (in index order).
    pub fn fold(&mut self, device_digest: u64) {
        self.h = self.h.wrapping_mul(FNV_PRIME).wrapping_add(device_digest);
        self.pow = self.pow.wrapping_mul(FNV_PRIME);
    }

    /// Appends `next` — the accumulator of the device-index range
    /// immediately following this one.
    pub fn merge(&mut self, next: &DigestAccum) {
        self.h = self.h.wrapping_mul(next.pow).wrapping_add(next.h);
        self.pow = self.pow.wrapping_mul(next.pow);
    }

    /// The finished digest (prefixes the FNV offset basis, so an empty
    /// fleet digests to the basis itself).
    #[must_use]
    pub fn digest(&self) -> u64 {
        FNV_OFFSET.wrapping_mul(self.pow).wrapping_add(self.h)
    }
}

/// Exact fixed-point accumulator for floating-point statistics: values
/// are quantised to 2⁻³² and summed in an `i128`, so accumulation is
/// exact integer arithmetic — associative and commutative — and every
/// hierarchical merge tree produces bit-identical means. Quantisation
/// error is ≤ 2⁻³³ per folded value, far below anything the reports
/// print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactSum {
    q: i128,
}

/// One unit of the last place of an [`ExactSum`]: 2³² quanta per 1.0.
const EXACT_ONE: f64 = 4_294_967_296.0;

impl ExactSum {
    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics when `v` is not finite (a non-finite statistic would
    /// poison the whole fleet aggregate).
    pub fn add(&mut self, v: f64) {
        assert!(v.is_finite(), "fleet statistics must be finite");
        self.q += (v * EXACT_ONE).round() as i128;
    }

    /// Folds another accumulator in (exact).
    pub fn merge(&mut self, other: &ExactSum) {
        self.q += other.q;
    }

    /// `true` when [`ExactSum::merge`] with `other` would overflow.
    fn merge_overflows(&self, other: &ExactSum) -> bool {
        self.q.checked_add(other.q).is_none()
    }

    /// The accumulated sum as `f64`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.q as f64 / EXACT_ONE
    }

    /// Raw quantum count for serialization.
    #[must_use]
    pub fn raw(&self) -> i128 {
        self.q
    }

    /// Rebuilds from a raw quantum count (the codec path).
    #[must_use]
    pub fn from_raw(q: i128) -> ExactSum {
        ExactSum { q }
    }
}

/// Streaming per-policy accumulator inside a [`FleetAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyAccum {
    /// Policy name (the merge key; aggregates must share policy order).
    pub name: String,
    /// Devices folded so far.
    pub devices: usize,
    /// Σ detections/day over this policy's devices.
    pub det_per_day: ExactSum,
    /// Devices that browned out.
    pub brown_outs: u64,
    /// Σ final state of charge.
    pub final_soc: ExactSum,
    /// Σ uptime fraction.
    pub uptime: ExactSum,
    /// Σ detections completed.
    pub detections: u64,
    /// Σ energy consumed (exact).
    pub consumed_j: ExactSum,
    /// Σ detections dispatched to the M4.
    pub target_m4: u64,
    /// Σ detections dispatched to the Ibex.
    pub target_ibex: u64,
    /// Σ detections dispatched to the 8×RI5CY cluster.
    pub target_cluster: u64,
    /// Σ acquisition windows skipped by fault-aware backoff.
    pub backoff_skips: u64,
    /// Σ sync intervals stretched during gateway loss.
    pub sync_stretches: u64,
    /// Summed reliability counters.
    pub reliability: ReliabilityCounters,
}

impl PolicyAccum {
    fn new(name: &str) -> PolicyAccum {
        PolicyAccum {
            name: name.to_string(),
            devices: 0,
            det_per_day: ExactSum::default(),
            brown_outs: 0,
            final_soc: ExactSum::default(),
            uptime: ExactSum::default(),
            detections: 0,
            consumed_j: ExactSum::default(),
            target_m4: 0,
            target_ibex: 0,
            target_cluster: 0,
            backoff_skips: 0,
            sync_stretches: 0,
            reliability: ReliabilityCounters::default(),
        }
    }

    /// `true` when merging `other` into this accumulator would overflow
    /// a sum.
    fn merge_overflows(&self, other: &PolicyAccum) -> bool {
        let counts = [
            (self.brown_outs, other.brown_outs),
            (self.detections, other.detections),
            (self.target_m4, other.target_m4),
            (self.target_ibex, other.target_ibex),
            (self.target_cluster, other.target_cluster),
            (self.backoff_skips, other.backoff_skips),
            (self.sync_stretches, other.sync_stretches),
        ];
        let sums = [
            (&self.det_per_day, &other.det_per_day),
            (&self.final_soc, &other.final_soc),
            (&self.uptime, &other.uptime),
            (&self.consumed_j, &other.consumed_j),
        ];
        self.devices.checked_add(other.devices).is_none()
            || counts.iter().any(|(a, b)| a.checked_add(*b).is_none())
            || sums.iter().any(|(a, b)| a.merge_overflows(b))
            || self.reliability.merge_overflows(&other.reliability)
    }

    fn stats(&self) -> PolicyStats {
        let nf = self.devices.max(1) as f64;
        let energy_per_detection_j = if self.detections > 0 {
            self.consumed_j.value() / self.detections as f64
        } else {
            f64::INFINITY
        };
        PolicyStats {
            name: self.name.clone(),
            devices: self.devices,
            detections_per_day: self.det_per_day.value() / nf,
            brown_out_rate: self.brown_outs as f64 / nf,
            mean_final_soc: self.final_soc.value() / nf,
            mean_uptime: self.uptime.value() / nf,
            detections: self.detections,
            consumed_j: self.consumed_j.value(),
            energy_per_detection_j,
            target_m4: self.target_m4,
            target_ibex: self.target_ibex,
            target_cluster: self.target_cluster,
            backoff_skips: self.backoff_skips,
            sync_stretches: self.sync_stretches,
            reliability: self.reliability,
        }
    }
}

/// The incremental, mergeable fleet aggregate: everything a
/// [`FleetReport`] is made of, folded one [`DeviceResult`] at a time in
/// bounded memory.
///
/// A worker folds each device of its contiguous index range as the
/// device completes ([`FleetAggregate::fold`]); the coordinator merges
/// shard aggregates in ascending shard order
/// ([`FleetAggregate::merge`]). All counters are exact integers
/// ([`ExactSum`] for float statistics, [`DigestAccum`] for the digest),
/// so the merged result is bit-identical to the serial fold for *every*
/// field, not just the digest.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregate {
    /// Devices folded so far.
    pub device_count: usize,
    /// The order-fixed digest accumulator.
    pub digest: DigestAccum,
    /// Σ simulated seconds.
    pub simulated_s: ExactSum,
    /// Σ engine events.
    pub events: u64,
    /// Summed per-fault-kind counters.
    pub faults: FaultCounters,
    /// Summed reliability counters.
    pub reliability: ReliabilityCounters,
    /// Σ uptime fraction.
    pub uptime: ExactSum,
    /// Largest per-device conservation drift, joules.
    pub max_conservation_j: f64,
    /// Fleet-wide telemetry distributions.
    pub metrics: FleetMetrics,
    /// Per-policy accumulators in config policy order.
    pub policies: Vec<PolicyAccum>,
    /// Devices with index below this cap are retained in
    /// [`FleetAggregate::sample`].
    pub sample_cap: usize,
    /// The retained sample, in fold order (== index order for
    /// contiguous shards merged in shard order).
    pub sample: Vec<DeviceResult>,
    /// Whether any folded result carried a scenario block.
    pub scenario: bool,
    /// Σ scenario contacts observed.
    pub contacts_observed: u64,
    /// Σ scenario contacts missed.
    pub contacts_missed: u64,
    /// Σ scenario contacts uplinked.
    pub contacts_uplinked: u64,
    /// Σ BLE scan energy (exact).
    pub scan_energy_j: ExactSum,
    /// Devices the epidemic script seeded infected.
    pub seeded_devices: u64,
    /// Observed contact edges, concatenated in fold order. This is the
    /// one deliberately fleet-proportional buffer: the epoch-barrier
    /// epidemic fold needs the full merged edge set (a fleet of a
    /// million devices at the default 6-contacts/epoch cap stays well
    /// under a gigabyte). Empty for isolated-device sweeps.
    pub edges: Vec<ContactEdge>,
}

impl FleetAggregate {
    /// An empty aggregate shaped for `config` (policy order and sample
    /// cap are taken from the config).
    #[must_use]
    pub fn new(config: &FleetConfig) -> FleetAggregate {
        FleetAggregate::with_policies(
            config.policies.iter().map(|(name, _)| name.as_str()),
            config.sample_devices,
        )
    }

    /// An empty aggregate over an explicit policy-name order (the codec
    /// path).
    pub fn with_policies<'a, I: IntoIterator<Item = &'a str>>(
        names: I,
        sample_cap: usize,
    ) -> FleetAggregate {
        FleetAggregate {
            device_count: 0,
            digest: DigestAccum::new(),
            simulated_s: ExactSum::default(),
            events: 0,
            faults: FaultCounters::default(),
            reliability: ReliabilityCounters::default(),
            uptime: ExactSum::default(),
            max_conservation_j: 0.0,
            metrics: FleetMetrics::default(),
            policies: names.into_iter().map(PolicyAccum::new).collect(),
            sample_cap,
            sample: Vec::new(),
            scenario: false,
            contacts_observed: 0,
            contacts_missed: 0,
            contacts_uplinked: 0,
            scan_energy_j: ExactSum::default(),
            seeded_devices: 0,
            edges: Vec::new(),
        }
    }

    /// Folds one device result. Devices must be folded in ascending
    /// index order within an aggregate (the digest is order-fixed).
    ///
    /// # Panics
    ///
    /// Panics when the result names a policy the aggregate was not
    /// shaped for.
    pub fn fold(&mut self, result: DeviceResult) {
        self.device_count += 1;
        self.digest.fold(result.digest());
        self.simulated_s.add(result.days * 86_400.0);
        self.events += result.events;
        self.faults.merge(&result.faults);
        self.reliability.merge(&result.reliability);
        self.uptime.add(result.uptime);
        self.max_conservation_j = self.max_conservation_j.max(result.conservation_j);
        self.metrics.fold(&result);
        if result.scenario {
            self.scenario = true;
            self.contacts_observed += result.contacts_observed;
            self.contacts_missed += result.contacts_missed;
            self.contacts_uplinked += result.contacts_uplinked;
            self.scan_energy_j.add(result.scan_energy_j);
            self.seeded_devices += u64::from(result.infected_seed);
            self.edges.extend(result.contact_edges.iter().copied());
        }
        let policy = self
            .policies
            .iter_mut()
            .find(|p| p.name == result.policy)
            .unwrap_or_else(|| panic!("unknown policy '{}' in device result", result.policy));
        policy.devices += 1;
        policy
            .det_per_day
            .add(result.detections as f64 / result.days.max(1e-9));
        policy.brown_outs += u64::from(result.browned_out);
        policy.final_soc.add(result.final_soc);
        policy.uptime.add(result.uptime);
        policy.detections += result.detections;
        policy.consumed_j.add(result.consumed_j);
        policy.target_m4 += result.target_m4;
        policy.target_ibex += result.target_ibex;
        policy.target_cluster += result.target_cluster;
        policy.backoff_skips += result.backoff_skips;
        policy.sync_stretches += result.sync_stretches;
        policy.reliability.merge(&result.reliability);
        if result.device < self.sample_cap {
            self.sample.push(result);
        }
    }

    /// Hierarchically merges `next` — the aggregate of the device-index
    /// range immediately following this one. Associative; see
    /// [`DigestAccum`] for the digest algebra. Every other field is an
    /// exact integer sum (or a max), so the merged aggregate is
    /// bit-identical to folding the union serially.
    ///
    /// # Panics
    ///
    /// Panics when the two aggregates were shaped for different policy
    /// sets, or when a sum overflows (see [`FleetAggregate::try_merge`]
    /// for aggregates decoded from outside the process).
    pub fn merge(&mut self, next: FleetAggregate) {
        if let Err(e) = self.try_merge(next) {
            panic!("{e}");
        }
    }

    /// [`FleetAggregate::merge`], refusing a `next` whose counters would
    /// overflow a merged sum (a corrupt or forged shard aggregate; folded
    /// devices cannot get there). A refused merge leaves `self` as it
    /// was.
    ///
    /// # Errors
    ///
    /// [`MergeOverflow`] naming the first sum that would overflow.
    ///
    /// # Panics
    ///
    /// Panics when the two aggregates were shaped for different policy
    /// sets.
    pub fn try_merge(&mut self, next: FleetAggregate) -> Result<(), MergeOverflow> {
        assert_eq!(
            self.policies.len(),
            next.policies.len(),
            "aggregates shaped for different policy sets"
        );
        if let Some(sum) = self.merge_overflow(&next) {
            return Err(MergeOverflow { sum });
        }
        self.device_count += next.device_count;
        self.digest.merge(&next.digest);
        self.simulated_s.merge(&next.simulated_s);
        self.events += next.events;
        self.faults.merge(&next.faults);
        self.reliability.merge(&next.reliability);
        self.uptime.merge(&next.uptime);
        self.max_conservation_j = self.max_conservation_j.max(next.max_conservation_j);
        self.metrics.merge(&next.metrics);
        for (mine, theirs) in self.policies.iter_mut().zip(next.policies) {
            assert_eq!(mine.name, theirs.name, "policy order mismatch in merge");
            mine.devices += theirs.devices;
            mine.det_per_day.merge(&theirs.det_per_day);
            mine.brown_outs += theirs.brown_outs;
            mine.final_soc.merge(&theirs.final_soc);
            mine.uptime.merge(&theirs.uptime);
            mine.detections += theirs.detections;
            mine.consumed_j.merge(&theirs.consumed_j);
            mine.target_m4 += theirs.target_m4;
            mine.target_ibex += theirs.target_ibex;
            mine.target_cluster += theirs.target_cluster;
            mine.backoff_skips += theirs.backoff_skips;
            mine.sync_stretches += theirs.sync_stretches;
            mine.reliability.merge(&theirs.reliability);
        }
        self.sample.extend(next.sample);
        self.scenario |= next.scenario;
        self.contacts_observed += next.contacts_observed;
        self.contacts_missed += next.contacts_missed;
        self.contacts_uplinked += next.contacts_uplinked;
        self.scan_energy_j.merge(&next.scan_energy_j);
        self.seeded_devices += next.seeded_devices;
        self.edges.extend(next.edges);
        Ok(())
    }

    /// The first sum that merging `next` would overflow, if any.
    fn merge_overflow(&self, next: &FleetAggregate) -> Option<&'static str> {
        let u64_sum = |a: u64, b: u64| a.checked_add(b).is_none();
        let (mine, theirs) = (&self.policies, &next.policies);
        let checks = [
            (
                "device count",
                self.device_count.checked_add(next.device_count).is_none(),
            ),
            (
                "simulated seconds",
                self.simulated_s.merge_overflows(&next.simulated_s),
            ),
            ("events", u64_sum(self.events, next.events)),
            ("fault counters", self.faults.merge_overflows(&next.faults)),
            (
                "reliability counters",
                self.reliability.merge_overflows(&next.reliability),
            ),
            ("uptime", self.uptime.merge_overflows(&next.uptime)),
            ("metrics", self.metrics.merge_overflows(&next.metrics)),
            (
                "policy counters",
                mine.iter().zip(theirs).any(|(a, b)| a.merge_overflows(b)),
            ),
            (
                "contacts observed",
                u64_sum(self.contacts_observed, next.contacts_observed),
            ),
            (
                "contacts missed",
                u64_sum(self.contacts_missed, next.contacts_missed),
            ),
            (
                "contacts uplinked",
                u64_sum(self.contacts_uplinked, next.contacts_uplinked),
            ),
            (
                "scan energy",
                self.scan_energy_j.merge_overflows(&next.scan_energy_j),
            ),
            (
                "seeded devices",
                u64_sum(self.seeded_devices, next.seeded_devices),
            ),
        ];
        checks
            .into_iter()
            .find_map(|(sum, over)| over.then_some(sum))
    }

    /// The finished fleet digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest.digest()
    }

    /// Finalises the aggregate into a [`FleetReport`] without running
    /// the epidemic fold (equivalent to
    /// [`FleetAggregate::into_report_with`]`(None)`).
    #[must_use]
    pub fn into_report(self) -> FleetReport {
        self.into_report_with(None)
    }

    /// Finalises the aggregate into a [`FleetReport`]. When the
    /// aggregate carries scenario results *and* `scenario` supplies the
    /// compiled scenario, the epoch-barrier epidemic fold runs over the
    /// merged edge set and its outcome is post-folded into the report
    /// digest — so the printed digest also certifies the cross-device
    /// exchange, on every worker topology.
    #[must_use]
    pub fn into_report_with(self, scenario: Option<&CompiledScenario>) -> FleetReport {
        let mean_uptime = self.uptime.value() / self.device_count.max(1) as f64;
        let mut digest = self.digest.digest();
        let totals = if self.scenario {
            let epidemic = scenario.map(|s| run_epidemic(s, &self.edges));
            if let Some(outcome) = &epidemic {
                digest = fnv1a(digest, b"epi");
                digest = fnv1a(digest, &outcome.seeded.to_le_bytes());
                digest = fnv1a(digest, &outcome.infected.to_le_bytes());
                for &n in &outcome.newly_per_epoch {
                    digest = fnv1a(digest, &n.to_le_bytes());
                }
            }
            Some(ScenarioTotals {
                contacts_observed: self.contacts_observed,
                contacts_missed: self.contacts_missed,
                contacts_uplinked: self.contacts_uplinked,
                scan_energy_j: self.scan_energy_j.value(),
                seeded_devices: self.seeded_devices,
                edge_count: self.edges.len() as u64,
                epidemic,
            })
        } else {
            None
        };
        FleetReport {
            device_count: self.device_count,
            policies: self.policies.iter().map(PolicyAccum::stats).collect(),
            digest,
            simulated_s: self.simulated_s.value(),
            events: self.events,
            faults: self.faults,
            reliability: self.reliability,
            mean_uptime,
            max_conservation_j: self.max_conservation_j,
            metrics: self.metrics,
            devices: self.sample,
            scenario: totals,
        }
    }
}

/// Renders the deterministic slice of a [`FleetReport`] as an
/// `iw-metrics` [`Snapshot`]: fleet counters, per-fault-kind and
/// per-sync-outcome totals, per-policy gauges and every
/// [`FleetMetrics`] histogram. Pure function of the report, so under a
/// fixed seed the Prometheus/JSON renders are byte-stable — the golden
/// exposition test in `iw-bench` pins the exact output.
#[must_use]
pub fn fleet_snapshot(report: &FleetReport) -> Snapshot {
    let mut snap = Snapshot::new();
    snap.push(
        "fleet_devices",
        &[],
        Value::Counter(report.device_count as u64),
    );
    snap.push(
        "fleet_digest_info",
        &[("digest", &format!("{:016x}", report.digest))],
        Value::Counter(1),
    );
    snap.push("fleet_events_total", &[], Value::Counter(report.events));
    snap.push(
        "fleet_simulated_seconds",
        &[],
        Value::Gauge(report.simulated_s),
    );
    snap.push("fleet_mean_uptime", &[], Value::Gauge(report.mean_uptime));
    snap.push(
        "fleet_max_conservation_joules",
        &[],
        Value::Gauge(report.max_conservation_j),
    );
    for kind in FaultKind::ALL {
        snap.push(
            "fleet_fault_episodes_total",
            &[("kind", kind.label())],
            Value::Counter(report.faults.get(kind)),
        );
    }
    let rel = &report.reliability;
    snap.push(
        "fleet_downtime_us_total",
        &[],
        Value::Counter(rel.downtime_us),
    );
    snap.push("fleet_brownouts_total", &[], Value::Counter(rel.brownouts));
    snap.push(
        "fleet_recoveries_total",
        &[],
        Value::Counter(rel.recoveries),
    );
    snap.push(
        "fleet_degraded_windows_total",
        &[],
        Value::Counter(rel.degraded_windows),
    );
    snap.push(
        "fleet_skipped_acquisitions_total",
        &[],
        Value::Counter(rel.skipped_acquisitions),
    );
    for (outcome, count) in [
        ("ok", rel.sync_ok),
        ("retried", rel.sync_retried),
        ("dropped", rel.sync_dropped),
    ] {
        snap.push(
            "fleet_sync_episodes_total",
            &[("outcome", outcome)],
            Value::Counter(count),
        );
    }
    for stats in &report.policies {
        let p = stats.name.as_str();
        snap.push(
            "fleet_policy_devices",
            &[("policy", p)],
            Value::Counter(stats.devices as u64),
        );
        snap.push(
            "fleet_policy_detections_per_day",
            &[("policy", p)],
            Value::Gauge(stats.detections_per_day),
        );
        snap.push(
            "fleet_policy_brownout_rate",
            &[("policy", p)],
            Value::Gauge(stats.brown_out_rate),
        );
        snap.push(
            "fleet_policy_mean_uptime",
            &[("policy", p)],
            Value::Gauge(stats.mean_uptime),
        );
    }
    if let Some(s) = &report.scenario {
        for (state, count) in [
            ("observed", s.contacts_observed),
            ("missed", s.contacts_missed),
            ("uplinked", s.contacts_uplinked),
        ] {
            snap.push(
                "fleet_contacts_total",
                &[("state", state)],
                Value::Counter(count),
            );
        }
        snap.push(
            "fleet_scan_energy_joules",
            &[],
            Value::Gauge(s.scan_energy_j),
        );
        snap.push(
            "fleet_contact_edges_total",
            &[],
            Value::Counter(s.edge_count),
        );
        if let Some(e) = &s.epidemic {
            snap.push("fleet_epidemic_seeded", &[], Value::Counter(e.seeded));
            snap.push("fleet_epidemic_infected", &[], Value::Counter(e.infected));
            snap.push(
                "fleet_epidemic_attack_rate",
                &[],
                Value::Gauge(e.attack_rate(report.device_count as u64)),
            );
        }
    }
    for (name, hist) in report.metrics.histograms() {
        snap.push(name, &[], Value::Histogram(hist.clone()));
    }
    snap.sort();
    snap
}

/// The env × subject × policy assignment of one device, derived from its
/// index by [`FleetConfig::device_setup`] and carried to the result.
struct DeviceAssignment {
    env: String,
    subject: String,
    policy: String,
    days: f64,
    adaptive: bool,
}

impl FleetConfig {
    /// The paper-flavoured sweep: indoor / sunny / dark days × sedentary,
    /// baseline and active wearers × the fixed-24 and energy-aware
    /// policies, with the 602.2 µJ detection budget shape in `costs`.
    #[must_use]
    pub fn paper(devices: usize, threads: usize, seed: u64, costs: DetectionCosts) -> FleetConfig {
        FleetConfig {
            devices,
            threads,
            seed,
            // The shared data-driven list (scenarios reuse the same one),
            // not a hardcoded copy.
            environments: iw_scenario::paper_environments(),
            subjects: vec![
                SubjectProfile {
                    name: "sedentary".into(),
                    activity: 0.5,
                },
                SubjectProfile {
                    name: "baseline".into(),
                    activity: 1.0,
                },
                SubjectProfile {
                    name: "active".into(),
                    activity: 1.5,
                },
            ],
            policies: vec![
                ("fixed-24".into(), PolicySpec::fixed_rate(24.0)),
                ("aware-24".into(), PolicySpec::energy_aware(24.0, 0.10)),
            ],
            target_jobs: None,
            costs,
            battery: Battery::infiniwolf(),
            sleep_floor_w: crate::device::default_sleep_floor_w(),
            notify_j: 0.0,
            sync: None,
            faults: FaultProfile::Clean,
            sample_devices: 0,
            scenario: None,
        }
    }

    /// Attaches a compiled cross-device scenario: the scenario's
    /// environment list replaces the config's (the scenario compiled
    /// its weather fronts and outages against *its* environments, so
    /// the two must agree), and every device additionally plays its
    /// scenario-compiled fault windows and contact plan.
    #[must_use]
    pub fn with_scenario(mut self, scenario: Arc<CompiledScenario>) -> FleetConfig {
        if !scenario.environments.is_empty() {
            self.environments = scenario.environments.clone();
        }
        self.scenario = Some(scenario);
        self
    }

    /// Builds the fully-derived configuration of one device: the
    /// env/subject/policy assignment (cross product in index order) plus
    /// the seeded per-device jitter and fault plan.
    ///
    /// # Panics
    ///
    /// Panics when the environment, subject or policy lists are empty.
    fn device_setup(&self, index: usize) -> (DeviceConfig, DeviceAssignment) {
        assert!(
            !self.environments.is_empty() && !self.subjects.is_empty() && !self.policies.is_empty(),
            "fleet sweep needs at least one environment, subject and policy"
        );
        // Cross-product assignment guarantees coverage of every
        // env × subject × policy combination once the fleet is large
        // enough; the RNG only jitters within a combination.
        let (env_name, env) = &self.environments[index % self.environments.len()];
        let subject = &self.subjects[(index / self.environments.len()) % self.subjects.len()];
        let (policy_name, policy) = &self.policies
            [(index / (self.environments.len() * self.subjects.len())) % self.policies.len()];
        let mut rng = StdRng::seed_from_u64(mix(self.seed, index as u64));
        let start_soc = rng.gen_range(0.35..0.85);
        let light_scale = rng.gen_range(0.8..1.2);

        let mut jittered = env.clone();
        for seg in &mut jittered.segments {
            seg.light.lux *= light_scale;
        }
        let days = jittered.duration_s() / 86_400.0;

        let mut cfg = DeviceConfig::new(jittered, policy.scaled(subject.activity), self.costs);
        cfg.target_jobs = self.target_jobs;
        cfg.battery = self.battery;
        cfg.battery.set_soc(start_soc);
        cfg.sleep_floor_w = self.sleep_floor_w;
        cfg.notify_j = self.notify_j;
        cfg.sync = self.sync;
        // Each device draws its fault plan from its own derived seed — a
        // pure function of (fleet seed, index), like everything else.
        cfg.faults = self.faults.plan(
            mix(self.seed ^ FAULT_STREAM, index as u64),
            cfg.env.duration_s(),
        );
        if let Some(scenario) = &self.scenario {
            // The scenario's correlated windows (weather fronts over this
            // device's environment, regional gateway outages) merge into
            // the same per-device plan the bracelet's fault part plays back.
            let extra = scenario.device_fault_windows(index);
            if !extra.is_empty() {
                cfg.faults.windows.extend_from_slice(extra);
                // Restore the plan's start-sorted invariant; the stable
                // sort keeps same-instant plan windows ahead of scenario
                // ones, so the merge is deterministic.
                cfg.faults.windows.sort_by_key(|w| w.start_us);
            }
            cfg.contacts = scenario.contact_plan(index);
        }
        (
            cfg,
            DeviceAssignment {
                env: env_name.clone(),
                subject: subject.name.clone(),
                policy: policy_name.clone(),
                days,
                adaptive: policy.is_adaptive(),
            },
        )
    }

    /// Runs one device of the sweep. Pure function of `(self, index)` —
    /// this is what makes the fleet digest worker-topology invariant.
    ///
    /// # Panics
    ///
    /// Panics when the environment, subject or policy lists are empty.
    #[must_use]
    pub fn run_device(&self, index: usize) -> DeviceResult {
        self.run_device_into(index, &mut NoopSink)
    }

    /// [`FleetConfig::run_device`] streaming the device's spans into
    /// `sink`, and its harvest counters at [`FLEET_TRACE_POINTS`] samples
    /// when the sink records. The result is the same either way.
    fn run_device_into<S: TraceSink>(&self, index: usize, sink: &mut S) -> DeviceResult {
        let (mut cfg, who) = self.device_setup(index);
        cfg.trace_points = if S::ENABLED { FLEET_TRACE_POINTS } else { 0 };
        let report = cfg.run(sink);
        let conservation_j = (cfg.battery.charge_j() + report.sim.stored_j
            - report.sim.consumed_j
            - report.battery.charge_j())
        .abs();
        let (scenario, infected_seed) = match &self.scenario {
            Some(s) => (true, s.seeded_infected(index)),
            None => (false, false),
        };
        DeviceResult {
            device: index,
            env: who.env,
            subject: who.subject,
            policy: who.policy,
            days: who.days,
            detections: report.detections,
            browned_out: report.sim.browned_out,
            final_soc: report.sim.final_soc,
            stored_j: report.sim.stored_j,
            consumed_j: report.sim.consumed_j,
            events: report.events,
            queue_high_water: report.queue_high_water,
            sync_attempts: report.sync_attempts,
            sync_backoff_us: report.sync_backoff_us,
            uptime: report.uptime,
            faults: report.faults,
            reliability: report.reliability,
            conservation_j,
            scenario,
            contacts_observed: report.contacts_observed,
            contacts_missed: report.contacts_missed,
            contacts_uplinked: report.contacts_uplinked,
            scan_energy_j: report.scan_energy_j,
            infected_seed,
            contact_edges: report
                .contact_edges
                .iter()
                .map(|&(epoch, peer)| ContactEdge {
                    epoch,
                    device: index as u32,
                    peer,
                })
                .collect(),
            adaptive: who.adaptive,
            target_m4: report.target_counts[0],
            target_ibex: report.target_counts[1],
            target_cluster: report.target_counts[2],
            backoff_skips: report.backoff_skips,
            sync_stretches: report.sync_stretches,
        }
    }

    /// The contiguous device-index range of `shard` out of `of` equal
    /// shards (balanced to within one device). Contiguity is what makes
    /// the hierarchical digest merge order-fixed: merging shard
    /// aggregates `0, 1, …, of−1` in order reproduces the serial fold.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= of` or `of == 0`.
    #[must_use]
    pub fn shard_range(&self, shard: usize, of: usize) -> Range<usize> {
        assert!(of > 0 && shard < of, "shard {shard} out of range 0..{of}");
        (self.devices * shard / of)..(self.devices * (shard + 1) / of)
    }

    /// Serially folds every device in `range`, calling `each` on every
    /// result *before* it is folded (the streaming hook: encode it, pipe
    /// it, count it — the aggregate itself never retains it). Memory is
    /// O(sample + policies), independent of `range.len()`.
    pub fn run_chunk_with<F: FnMut(&DeviceResult)>(
        &self,
        range: Range<usize>,
        mut each: F,
    ) -> FleetAggregate {
        let mut agg = FleetAggregate::new(self);
        for index in range {
            let result = self.run_device(index);
            each(&result);
            agg.fold(result);
        }
        agg
    }

    /// Runs shard `shard` of `of` on [`Self::threads`] worker threads
    /// (each thread folds a contiguous sub-chunk; chunk aggregates merge
    /// in index order) and returns the shard aggregate.
    #[must_use]
    pub fn run_shard(&self, shard: usize, of: usize) -> FleetAggregate {
        let range = self.shard_range(shard, of);
        let parts = self.threads.max(1).min(range.len().max(1));
        if parts <= 1 {
            return self.run_chunk_with(range, |_| {});
        }
        let lo = range.start;
        let n = range.len();
        let chunks: Vec<FleetAggregate> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..parts)
                .map(|p| {
                    let chunk = (lo + n * p / parts)..(lo + n * (p + 1) / parts);
                    scope.spawn(move || self.run_chunk_with(chunk, |_| {}))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("fleet worker panicked"))
                .collect()
        });
        let mut merged = FleetAggregate::new(self);
        for chunk in chunks {
            merged.merge(chunk);
        }
        merged
    }

    /// Runs the whole sweep on [`Self::threads`] workers and finalises
    /// the merged aggregate (including the epidemic fold when a
    /// scenario is attached).
    #[must_use]
    pub fn run(&self) -> FleetReport {
        self.run_shard(0, 1)
            .into_report_with(self.scenario.as_deref())
    }

    /// Renders the sampled fleet timeline: the first `devices` devices
    /// re-run with tracing into one Chrome-trace/Perfetto JSON document,
    /// one *process group* per device (`pid` = device index) with its
    /// `device` span track and `harvest` counter track as threads. Each
    /// re-run draws the history of the run the digest folds.
    #[must_use]
    pub fn trace_timeline(&self, devices: usize) -> String {
        iw_trace::merged_chrome_trace(&mut self.trace_groups(devices))
    }

    /// The process groups of [`FleetConfig::trace_timeline`]: the first
    /// `devices` devices re-run with tracing, each named
    /// `device i · env/subject/policy`. Callers may append groups of
    /// their own before merging them into one document.
    #[must_use]
    pub fn trace_groups(&self, devices: usize) -> Vec<(String, Recorder)> {
        (0..devices.min(self.devices))
            .map(|index| {
                let mut rec = Recorder::new();
                let r = self.run_device_into(index, &mut rec);
                let name = format!("device {index} · {}/{}/{}", r.env, r.subject, r.policy);
                (name, rec)
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::device::ComputeJob;

    fn costs() -> DetectionCosts {
        DetectionCosts {
            acquisition_j: 600e-6,
            acquisition_s: 3.0,
            compute: ComputeJob::analytic(61e-6, 2.2e-6),
        }
    }

    /// A small fleet over short days so the test stays fast.
    pub(crate) fn small_fleet(threads: usize) -> FleetConfig {
        let mut cfg = FleetConfig::paper(12, threads, 7, costs());
        cfg.sample_devices = cfg.devices;
        for (_, env) in &mut cfg.environments {
            for seg in &mut env.segments {
                seg.duration_s /= 24.0; // one-hour "days"
            }
        }
        cfg
    }

    #[test]
    fn digest_is_thread_count_invariant() {
        let serial = small_fleet(1).run();
        let parallel = small_fleet(4).run();
        assert_eq!(serial.digest, parallel.digest);
        // Exact aggregation: the whole report matches, not just the
        // digest — sampled devices, policy means, everything.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn same_seed_same_digest_different_seed_differs() {
        let a = small_fleet(2).run();
        let b = small_fleet(2).run();
        assert_eq!(a.digest, b.digest);
        let mut other = small_fleet(2);
        other.seed = 8;
        assert_ne!(a.digest, other.run().digest);
    }

    #[test]
    fn devices_are_retained_only_when_sampled() {
        let mut cfg = small_fleet(2);
        cfg.sample_devices = 0; // the default memory semantics
        let report = cfg.run();
        assert!(report.devices.is_empty());
        assert_eq!(report.device_count, 12);
        cfg.sample_devices = 5;
        let sampled = cfg.run();
        assert_eq!(sampled.devices.len(), 5);
        let indices: Vec<usize> = sampled.devices.iter().map(|d| d.device).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        // The sample never changes the aggregate.
        assert_eq!(report.digest, sampled.digest);
        assert_eq!(report.policies, sampled.policies);
    }

    #[test]
    fn cross_product_covers_every_combination() {
        let mut cfg = small_fleet(2);
        cfg.devices = 18; // 3 envs × 3 subjects × 2 policies
        cfg.sample_devices = 18;
        let report = cfg.run();
        let mut combos: Vec<(String, String, String)> = report
            .devices
            .iter()
            .map(|r| (r.env.clone(), r.subject.clone(), r.policy.clone()))
            .collect();
        combos.sort();
        combos.dedup();
        assert_eq!(combos.len(), 18);
        for stats in &report.policies {
            assert_eq!(stats.devices, 9);
        }
    }

    #[test]
    fn fault_digest_is_thread_count_invariant() {
        let harsh = |threads| {
            let mut cfg = small_fleet(threads);
            cfg.faults = FaultProfile::Harsh;
            cfg.notify_j = 1e-6;
            cfg.run()
        };
        let serial = harsh(1);
        for threads in [2, 4] {
            let parallel = harsh(threads);
            assert_eq!(serial.digest, parallel.digest, "threads {threads}");
            assert_eq!(serial, parallel, "threads {threads}");
        }
        assert!(serial.faults.total() > 0);
        assert!(serial.reliability.degraded_windows > 0);
    }

    #[test]
    fn fault_profile_changes_the_digest_and_clean_matches_default() {
        let base = small_fleet(2).run();
        let mut harsh_cfg = small_fleet(2);
        harsh_cfg.faults = FaultProfile::Harsh;
        let harsh = harsh_cfg.run();
        assert_ne!(base.digest, harsh.digest);
        // Clean injects nothing: only brownout accounting may appear.
        assert_eq!(base.reliability.degraded_windows, 0);
        assert!((0.0..=1.0).contains(&harsh.mean_uptime));
        assert!(harsh.max_conservation_j < 1e-6);
    }

    #[test]
    fn aggregates_are_consistent() {
        let report = small_fleet(3).run();
        assert_eq!(report.device_count, 12);
        assert!(report.simulated_s > 0.0);
        assert!(report.events > 0);
        let counted: usize = report.policies.iter().map(|p| p.devices).sum();
        assert_eq!(counted, 12);
        for stats in &report.policies {
            assert!((0.0..=1.0).contains(&stats.brown_out_rate));
            assert!((0.0..=1.0).contains(&stats.mean_final_soc));
        }
    }

    #[test]
    fn digest_merge_is_associative_and_order_fixed() {
        let mut a = DigestAccum::new();
        let mut b = DigestAccum::new();
        let mut c = DigestAccum::new();
        for d in [11, 22] {
            a.fold(d);
        }
        for d in [33, 44, 55] {
            b.fold(d);
        }
        c.fold(66);
        // Serial reference.
        let mut serial = DigestAccum::new();
        for d in [11, 22, 33, 44, 55, 66] {
            serial.fold(d);
        }
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == serial.
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left.digest(), serial.digest());
        assert_eq!(right.digest(), serial.digest());
        // Order-fixed: swapping shards changes the digest.
        let mut swapped = b;
        swapped.merge(&a);
        swapped.merge(&c);
        assert_ne!(swapped.digest(), serial.digest());
    }

    #[test]
    fn exact_sums_are_merge_invariant() {
        let values = [0.125, 0.7, 1.0 / 3.0, 0.99, 12.5, 1e-4];
        let mut serial = ExactSum::default();
        for v in values {
            serial.add(v);
        }
        let mut left = ExactSum::default();
        let mut right = ExactSum::default();
        for v in &values[..3] {
            left.add(*v);
        }
        for v in &values[3..] {
            right.add(*v);
        }
        left.merge(&right);
        assert_eq!(serial, left);
        assert!((serial.value() - values.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn shard_ranges_partition_the_fleet() {
        let mut cfg = small_fleet(1);
        cfg.devices = 37;
        let mut covered = Vec::new();
        for shard in 0..5 {
            covered.extend(cfg.shard_range(shard, 5));
        }
        assert_eq!(covered, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_runs_reproduce_the_serial_digest() {
        let cfg = small_fleet(1);
        let serial = cfg.run();
        for shards in [2, 3, 4] {
            let mut merged = FleetAggregate::new(&cfg);
            for shard in 0..shards {
                merged.merge(cfg.run_shard(shard, shards));
            }
            let report = merged.into_report();
            assert_eq!(report.digest, serial.digest, "{shards} shards");
            assert_eq!(report, serial, "{shards} shards");
        }
    }

    /// A dense one-hour scenario over the shortened small-fleet
    /// environments: a 30 m world packs the 12 devices close enough
    /// that contacts are guaranteed.
    pub(crate) fn scenario_fleet(threads: usize) -> FleetConfig {
        let cfg = small_fleet(threads);
        let mut sc = iw_scenario::Scenario::epidemic(cfg.devices, 7);
        sc.duration_s = 3600.0;
        sc.epoch_s = 600.0;
        sc.world_m = 30.0;
        sc.environments = cfg.environments.clone();
        cfg.with_scenario(Arc::new(sc.compile()))
    }

    #[test]
    fn scenario_report_is_topology_invariant() {
        let serial = scenario_fleet(1).run();
        let parallel = scenario_fleet(4).run();
        assert_eq!(serial, parallel);
        // Shard-merge path (the coordinator's shape) reproduces it too.
        let cfg = scenario_fleet(1);
        let mut merged = FleetAggregate::new(&cfg);
        for shard in 0..3 {
            merged.merge(cfg.run_shard(shard, 3));
        }
        assert_eq!(merged.into_report_with(cfg.scenario.as_deref()), serial);
    }

    #[test]
    fn overflowing_merges_are_refused_and_change_nothing() {
        let cfg = small_fleet(1);
        let (first, second) = (cfg.run_shard(0, 2), cfg.run_shard(1, 2));
        // Each forgery sets a sum to just over half its range on both
        // sides, so only the merged sum overflows.
        type Forge = fn(&mut FleetAggregate);
        let forgeries: [(&str, Forge); 6] = [
            ("events", |a| a.events = u64::MAX / 2 + 1),
            ("uptime", |a| {
                a.uptime = ExactSum::from_raw(i128::MAX / 2 + 1)
            }),
            ("device count", |a| a.device_count = usize::MAX / 2 + 1),
            ("fault counters", |a| {
                a.faults.set(FaultKind::ALL[0], u64::MAX / 2 + 1);
            }),
            ("metrics", |a| {
                a.metrics.events.record_n(1, u64::MAX / 2 + 1)
            }),
            ("policy counters", |a| {
                a.policies[0].detections = u64::MAX / 2 + 1;
            }),
        ];
        for (sum, forge) in forgeries {
            let (mut merged, mut next) = (first.clone(), second.clone());
            forge(&mut merged);
            forge(&mut next);
            let before = merged.clone();
            assert_eq!(merged.try_merge(next), Err(MergeOverflow { sum }));
            assert_eq!(merged, before, "{sum}");
        }
        let mut merged = first.clone();
        merged.try_merge(second).expect("fits");
        assert_eq!(merged.into_report(), cfg.run());
    }

    #[test]
    fn scenario_produces_contacts_and_an_epidemic_outcome() {
        let report = scenario_fleet(2).run();
        let totals = report.scenario.as_ref().expect("scenario totals");
        assert!(totals.contacts_observed > 0, "no contacts in dense world");
        assert_eq!(totals.edge_count, totals.contacts_observed);
        assert!(totals.scan_energy_j > 0.0);
        let epi = totals.epidemic.as_ref().expect("epidemic fold");
        assert_eq!(epi.seeded, totals.seeded_devices);
        assert!(epi.seeded >= 1);
        assert!(epi.infected >= epi.seeded);
        // The scenario block changes the digest vs the isolated sweep.
        assert_ne!(report.digest, small_fleet(2).run().digest);
        // And the isolated sweep still reports no scenario at all.
        assert!(small_fleet(2).run().scenario.is_none());
    }

    #[test]
    fn traced_device_matches_untraced_run() {
        let cfg = small_fleet(1);
        let mut rec = iw_trace::Recorder::new();
        let traced = cfg.run_device_into(3, &mut rec);
        // Tracing only observes: the result is the aggregate path's,
        // whole, events and queue depth included.
        assert_eq!(traced, cfg.run_device(3));
        // The trace itself is non-empty.
        assert!(rec.track_count() >= 2);
    }

    /// A D3-shaped reliability fleet over whole days: the paper fleet on
    /// a 40 J cell with BLE result notifications, 300 s sync bursts, a
    /// duty-cycled policy and `profile` faults.
    fn reliability_fleet(devices: usize, seed: u64, profile: FaultProfile) -> FleetConfig {
        let mut cfg = FleetConfig::paper(devices, 1, seed, costs());
        cfg.battery = Battery::new(40.0);
        cfg.notify_j = 10e-6;
        cfg.sync = Some(BleSync::nrf52(&iw_nrf52::BleRadio::default(), 300.0, 32));
        cfg.policies.push((
            "duty-300s".into(),
            PolicySpec::fixed_rate(24.0).with_sync_interval(300.0),
        ));
        cfg.faults = profile;
        cfg
    }

    #[test]
    fn traced_devices_match_the_aggregate_path_whole() {
        // Every device of a small fleet per fault profile and of the
        // networked harsh cell: SoC-ramped `aware-24` devices read the
        // fuel gauge on every tick, so a sample that moved the charge's
        // last bits would move their detections too.
        let mut fleets: Vec<FleetConfig> = FaultProfile::ALL
            .into_iter()
            .map(|profile| reliability_fleet(27, 2020, profile))
            .collect();
        let scenario = iw_scenario::Scenario::epidemic(27, 3).compile();
        fleets
            .push(reliability_fleet(27, 3, FaultProfile::Harsh).with_scenario(Arc::new(scenario)));
        for cfg in &fleets {
            for index in 0..cfg.devices {
                let mut rec = iw_trace::Recorder::new();
                let traced = cfg.run_device_into(index, &mut rec);
                assert_eq!(
                    traced,
                    cfg.run_device(index),
                    "{:?} device {index}",
                    cfg.faults
                );
            }
        }
    }

    #[test]
    fn fleet_timeline_is_valid_json_with_device_process_groups() {
        let mut cfg = small_fleet(1);
        cfg.notify_j = 1e-6;
        let json = cfg.trace_timeline(3);
        iw_trace::validate_json(&json).expect("well-formed timeline");
        for pid in 0..3 {
            assert!(json.contains(&format!("\"pid\":{pid},")), "pid {pid}");
        }
        assert!(json.contains("process_name"));
        assert!(json.contains("device 2"));
    }
}
