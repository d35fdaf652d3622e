//! Compact binary codec for streaming fleet results over pipes and
//! files.
//!
//! The fleet service never holds a `Vec<DeviceResult>` for a large
//! population: workers encode each result with [`encode_result`] the
//! moment it is produced and stream it out as a length-prefixed frame
//! ([`write_frame`]), and at end of stream ship their whole shard
//! [`FleetAggregate`] with [`encode_aggregate`].
//!
//! # Record layout (version 4)
//!
//! All integers are **little-endian**, all floats are IEEE-754 bit
//! patterns (`f64::to_bits`), so encode → decode is *exact* — the
//! decoded result digests identically to the original
//! ([`DeviceResult::digest`]).
//!
//! ```text
//! offset  size  field
//!      0     1  RECORD_VERSION (0x04)
//!      1     8  device index            u64
//!      9     8  days                    f64 bits
//!     17     8  detections              u64
//!     25     1  browned_out             u8 (0/1)
//!     26     8  final_soc               f64 bits
//!     34     8  stored_j                f64 bits
//!     42     8  consumed_j              f64 bits
//!     50     8  events                  u64
//!     58     8  uptime                  f64 bits
//!     66     8  conservation_j          f64 bits
//!     74  8×8   fault counters          u64 × FaultKind::ALL order
//!    138 10×8   reliability counters    u64 × 10 (struct field order)
//!    218     8  queue_high_water        u64
//!    226     …  sync_attempts           histogram (see below)
//!          …  sync_backoff_us         histogram
//!          …  env, subject, policy    3 × (u16 len + UTF-8 bytes)
//!          1  scenario flag           u8 (0/1); block below iff 1
//!          8  contacts_observed       u64
//!          8  contacts_missed         u64
//!          8  contacts_uplinked       u64
//!          8  scan_energy_j           f64 bits
//!          1  infected_seed           u8 (0/1)
//!          4  edge count              u32, then per edge:
//!        n×8  (epoch u32, peer u32)   the edge's device == the record's
//!          1  adaptive flag           u8 (0/1); block below iff 1
//!          8  target_m4               u64
//!          8  target_ibex             u64
//!          8  target_cluster          u64
//!          8  backoff_skips           u64
//!          8  sync_stretches          u64
//! ```
//!
//! The decoder accepts this layout only: any other leading byte is a
//! [`RecordError::Version`] error. Every stream is written and read by
//! the same binary within one run, so there are no older layouts to
//! replay.
//!
//! A histogram travels as its carried scalars plus *sparse* buckets —
//! `count u64 · sum u128 · min u64 · max u64 · n u16 ·
//! n × (bucket_index u16, bucket_count u64)` — and is validated on
//! decode ([`iw_metrics::Histogram::from_parts`]), so a corrupt frame
//! fails with [`RecordError::Malformed`] instead of mis-merging.
//!
//! Aggregate frames use the same primitives under [`AGGREGATE_VERSION`]
//! (exact-sum accumulators travel as raw `i128` quanta, the digest as
//! its raw `(h, pow)` pair, the [`FleetMetrics`] histograms in
//! [`FleetMetrics::histograms`] order), so a decoded aggregate merges
//! bit-identically.
//!
//! # Framing and stream tags
//!
//! A frame is `u32` little-endian payload length followed by the
//! payload. A zero-length frame is the end-of-records marker
//! ([`write_end`]): the worker protocol (`crate::coord`) is
//! *(records | heartbeats)… · end marker · aggregate frame · stats
//! frame*.
//!
//! Every payload's first byte is its **tag**. Result records carry
//! [`RECORD_VERSION`]; the heartbeats interleaved with them carry
//! [`HEARTBEAT_TAG`]. The stream decoder ([`decode_stream_frame`])
//! knows exactly these two tags: any other is a hard
//! [`RecordError::Version`] error.

use std::io::{Read, Write};

use iw_fault::{FaultCounters, FaultKind, ReliabilityCounters};
use iw_metrics::Histogram;

use iw_scenario::ContactEdge;

use crate::fleet::{
    DeviceResult, DigestAccum, ExactSum, FleetAggregate, FleetMetrics, PolicyAccum,
};

/// Version byte of a [`DeviceResult`] record.
pub const RECORD_VERSION: u8 = 0x04;

/// Version byte of a [`FleetAggregate`] frame.
pub const AGGREGATE_VERSION: u8 = 0x84;

/// Tag byte of a worker [`Heartbeat`] frame.
pub const HEARTBEAT_TAG: u8 = 0x48;

/// Tag byte of a worker [`WorkerStats`] frame.
pub const STATS_VERSION: u8 = 0x92;

/// Decode / framing failure.
#[derive(Debug)]
pub enum RecordError {
    /// The buffer ended before the field being read.
    Truncated,
    /// Unknown leading version byte.
    Version(u8),
    /// A string field was not valid UTF-8.
    Utf8,
    /// A field decoded but is internally inconsistent (e.g. histogram
    /// bucket counts that do not sum to the carried total).
    Malformed(&'static str),
    /// Bytes remained after the last field.
    Trailing(usize),
    /// Underlying pipe/file error while framing.
    Io(std::io::Error),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::Version(v) => write!(f, "unknown record version 0x{v:02x}"),
            RecordError::Utf8 => write!(f, "record string is not UTF-8"),
            RecordError::Malformed(what) => write!(f, "malformed record field: {what}"),
            RecordError::Trailing(n) => write!(f, "{n} trailing bytes after record"),
            RecordError::Io(e) => write!(f, "record i/o: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<std::io::Error> for RecordError {
    fn from(e: std::io::Error) -> RecordError {
        RecordError::Io(e)
    }
}

/// The 10 reliability counters in wire order (struct field order; also
/// the digest fold order in [`DeviceResult::digest`]).
fn reliability_fields(rel: &ReliabilityCounters) -> [u64; 10] {
    [
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
    ]
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_i128(out: &mut Vec<u8>, v: i128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("record string fits u16 length");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_reliability(out: &mut Vec<u8>, rel: &ReliabilityCounters) {
    for v in reliability_fields(rel) {
        put_u64(out, v);
    }
}

fn put_faults(out: &mut Vec<u8>, faults: &FaultCounters) {
    for kind in FaultKind::ALL {
        put_u64(out, faults.get(kind));
    }
}

fn put_hist(out: &mut Vec<u8>, h: &Histogram) {
    let (count, sum, min, max) = h.scalars();
    put_u64(out, count);
    out.extend_from_slice(&sum.to_le_bytes());
    put_u64(out, min);
    put_u64(out, max);
    let pairs: Vec<(u16, u64)> = h.sparse().collect();
    let n = u16::try_from(pairs.len()).expect("histogram buckets fit u16 count");
    out.extend_from_slice(&n.to_le_bytes());
    for (idx, c) in pairs {
        out.extend_from_slice(&idx.to_le_bytes());
        put_u64(out, c);
    }
}

/// Bounded-checked little-endian reader over a decode buffer.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.checked_add(n).ok_or(RecordError::Truncated)?;
        if end > self.buf.len() {
            return Err(RecordError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Takes exactly `N` bytes as a fixed-size array — the single home
    /// of the take-then-convert pattern every integer reader shares.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], RecordError> {
        Ok(self.take(N)?.try_into().expect("take yields N bytes"))
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RecordError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i128(&mut self) -> Result<i128, RecordError> {
        Ok(i128::from_le_bytes(self.array()?))
    }

    fn u128(&mut self) -> Result<u128, RecordError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, RecordError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, RecordError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RecordError::Utf8)
    }

    fn faults(&mut self) -> Result<FaultCounters, RecordError> {
        let mut faults = FaultCounters::default();
        for kind in FaultKind::ALL {
            faults.set(kind, self.u64()?);
        }
        Ok(faults)
    }

    fn reliability(&mut self) -> Result<ReliabilityCounters, RecordError> {
        Ok(ReliabilityCounters {
            downtime_us: self.u64()?,
            brownouts: self.u64()?,
            recoveries: self.u64()?,
            recovery_us: self.u64()?,
            degraded_windows: self.u64()?,
            skipped_acquisitions: self.u64()?,
            sync_episodes: self.u64()?,
            sync_ok: self.u64()?,
            sync_retried: self.u64()?,
            sync_dropped: self.u64()?,
        })
    }

    fn hist(&mut self) -> Result<Histogram, RecordError> {
        let count = self.u64()?;
        let sum = self.u128()?;
        let min = self.u64()?;
        let max = self.u64()?;
        let n = self.u16()? as usize;
        let mut pairs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let idx = self.u16()?;
            let c = self.u64()?;
            pairs.push((idx, c));
        }
        Histogram::from_parts(count, sum, min, max, &pairs)
            .ok_or(RecordError::Malformed("inconsistent histogram"))
    }

    fn done(&self) -> Result<(), RecordError> {
        if self.pos != self.buf.len() {
            return Err(RecordError::Trailing(self.buf.len() - self.pos));
        }
        Ok(())
    }
}

/// Encodes one device result into the version-4 wire layout (see the
/// module docs for the exact offsets).
#[must_use]
pub fn encode_result(r: &DeviceResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(328 + r.env.len() + r.subject.len() + r.policy.len());
    out.push(RECORD_VERSION);
    put_u64(&mut out, r.device as u64);
    put_f64(&mut out, r.days);
    put_u64(&mut out, r.detections);
    out.push(u8::from(r.browned_out));
    put_f64(&mut out, r.final_soc);
    put_f64(&mut out, r.stored_j);
    put_f64(&mut out, r.consumed_j);
    put_u64(&mut out, r.events);
    put_f64(&mut out, r.uptime);
    put_f64(&mut out, r.conservation_j);
    put_faults(&mut out, &r.faults);
    put_reliability(&mut out, &r.reliability);
    put_u64(&mut out, r.queue_high_water);
    put_hist(&mut out, &r.sync_attempts);
    put_hist(&mut out, &r.sync_backoff_us);
    put_str(&mut out, &r.env);
    put_str(&mut out, &r.subject);
    put_str(&mut out, &r.policy);
    out.push(u8::from(r.scenario));
    if r.scenario {
        put_u64(&mut out, r.contacts_observed);
        put_u64(&mut out, r.contacts_missed);
        put_u64(&mut out, r.contacts_uplinked);
        put_f64(&mut out, r.scan_energy_j);
        out.push(u8::from(r.infected_seed));
        let n = u32::try_from(r.contact_edges.len()).expect("edge count fits u32");
        out.extend_from_slice(&n.to_le_bytes());
        // Every edge of a per-device record names this device as its
        // observer, so only (epoch, peer) travel.
        for edge in &r.contact_edges {
            out.extend_from_slice(&edge.epoch.to_le_bytes());
            out.extend_from_slice(&edge.peer.to_le_bytes());
        }
    }
    // The adaptive-policy attribution block, behind a presence flag —
    // preset-policy records pay a single zero byte.
    out.push(u8::from(r.adaptive));
    if r.adaptive {
        put_u64(&mut out, r.target_m4);
        put_u64(&mut out, r.target_ibex);
        put_u64(&mut out, r.target_cluster);
        put_u64(&mut out, r.backoff_skips);
        put_u64(&mut out, r.sync_stretches);
    }
    out
}

/// Decodes one device result; the whole buffer must be consumed.
///
/// # Errors
///
/// [`RecordError::Version`] on an unknown leading byte,
/// [`RecordError::Truncated`] / [`RecordError::Utf8`] /
/// [`RecordError::Trailing`] on corrupt input.
pub fn decode_result(buf: &[u8]) -> Result<DeviceResult, RecordError> {
    let mut cur = Cur::new(buf);
    let version = cur.u8()?;
    if version != RECORD_VERSION {
        return Err(RecordError::Version(version));
    }
    let device = cur.u64()? as usize;
    let days = cur.f64()?;
    let detections = cur.u64()?;
    let browned_out = cur.u8()? != 0;
    let final_soc = cur.f64()?;
    let stored_j = cur.f64()?;
    let consumed_j = cur.f64()?;
    let events = cur.u64()?;
    let uptime = cur.f64()?;
    let conservation_j = cur.f64()?;
    let faults = cur.faults()?;
    let reliability = cur.reliability()?;
    let queue_high_water = cur.u64()?;
    let sync_attempts = cur.hist()?;
    let sync_backoff_us = cur.hist()?;
    let env = cur.string()?;
    let subject = cur.string()?;
    let policy = cur.string()?;
    // The scenario block, behind a presence flag.
    let mut scenario = false;
    let mut contacts_observed = 0;
    let mut contacts_missed = 0;
    let mut contacts_uplinked = 0;
    let mut scan_energy_j = 0.0;
    let mut infected_seed = false;
    let mut contact_edges = Vec::new();
    if cur.u8()? != 0 {
        scenario = true;
        contacts_observed = cur.u64()?;
        contacts_missed = cur.u64()?;
        contacts_uplinked = cur.u64()?;
        scan_energy_j = cur.f64()?;
        infected_seed = cur.u8()? != 0;
        let n = cur.u32()? as usize;
        contact_edges.reserve(n.min(4096));
        for _ in 0..n {
            contact_edges.push(ContactEdge {
                epoch: cur.u32()?,
                device: device as u32,
                peer: cur.u32()?,
            });
        }
    }
    // The adaptive-policy attribution block, behind a presence flag.
    let mut adaptive = false;
    let mut target_m4 = 0;
    let mut target_ibex = 0;
    let mut target_cluster = 0;
    let mut backoff_skips = 0;
    let mut sync_stretches = 0;
    if cur.u8()? != 0 {
        adaptive = true;
        target_m4 = cur.u64()?;
        target_ibex = cur.u64()?;
        target_cluster = cur.u64()?;
        backoff_skips = cur.u64()?;
        sync_stretches = cur.u64()?;
    }
    cur.done()?;
    Ok(DeviceResult {
        device,
        env,
        subject,
        policy,
        days,
        detections,
        browned_out,
        final_soc,
        stored_j,
        consumed_j,
        events,
        queue_high_water,
        sync_attempts,
        sync_backoff_us,
        uptime,
        faults,
        reliability,
        conservation_j,
        scenario,
        contacts_observed,
        contacts_missed,
        contacts_uplinked,
        scan_energy_j,
        infected_seed,
        contact_edges,
        adaptive,
        target_m4,
        target_ibex,
        target_cluster,
        backoff_skips,
        sync_stretches,
    })
}

fn put_policy(out: &mut Vec<u8>, p: &PolicyAccum) {
    put_str(out, &p.name);
    put_u64(out, p.devices as u64);
    put_i128(out, p.det_per_day.raw());
    put_u64(out, p.brown_outs);
    put_i128(out, p.final_soc.raw());
    put_i128(out, p.uptime.raw());
    put_reliability(out, &p.reliability);
    put_u64(out, p.detections);
    put_i128(out, p.consumed_j.raw());
    put_u64(out, p.target_m4);
    put_u64(out, p.target_ibex);
    put_u64(out, p.target_cluster);
    put_u64(out, p.backoff_skips);
    put_u64(out, p.sync_stretches);
}

/// Encodes a shard aggregate — the worker→coordinator handoff. All
/// accumulators travel in their raw exact-integer form, so the decoded
/// aggregate merges bit-identically to the in-process one.
#[must_use]
pub fn encode_aggregate(agg: &FleetAggregate) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.push(AGGREGATE_VERSION);
    put_u64(&mut out, agg.device_count as u64);
    let (h, pow) = agg.digest.raw();
    put_u64(&mut out, h);
    put_u64(&mut out, pow);
    put_i128(&mut out, agg.simulated_s.raw());
    put_u64(&mut out, agg.events);
    put_faults(&mut out, &agg.faults);
    put_reliability(&mut out, &agg.reliability);
    put_i128(&mut out, agg.uptime.raw());
    put_f64(&mut out, agg.max_conservation_j);
    for (_, hist) in agg.metrics.histograms() {
        put_hist(&mut out, hist);
    }
    let n = u16::try_from(agg.policies.len()).expect("policy count fits u16");
    out.extend_from_slice(&n.to_le_bytes());
    for p in &agg.policies {
        put_policy(&mut out, p);
    }
    put_u64(&mut out, agg.sample_cap as u64);
    let s = u32::try_from(agg.sample.len()).expect("sample count fits u32");
    out.extend_from_slice(&s.to_le_bytes());
    for r in &agg.sample {
        let rec = encode_result(r);
        let len = u32::try_from(rec.len()).expect("record fits u32 frame");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&rec);
    }
    // The scenario section, behind a presence flag.
    out.push(u8::from(agg.scenario));
    if agg.scenario {
        put_u64(&mut out, agg.contacts_observed);
        put_u64(&mut out, agg.contacts_missed);
        put_u64(&mut out, agg.contacts_uplinked);
        put_i128(&mut out, agg.scan_energy_j.raw());
        put_u64(&mut out, agg.seeded_devices);
        let n = u32::try_from(agg.edges.len()).expect("edge count fits u32");
        out.extend_from_slice(&n.to_le_bytes());
        for edge in &agg.edges {
            out.extend_from_slice(&edge.epoch.to_le_bytes());
            out.extend_from_slice(&edge.device.to_le_bytes());
            out.extend_from_slice(&edge.peer.to_le_bytes());
        }
    }
    out
}

/// Decodes a shard aggregate; the whole buffer must be consumed.
///
/// # Errors
///
/// Same failure modes as [`decode_result`].
pub fn decode_aggregate(buf: &[u8]) -> Result<FleetAggregate, RecordError> {
    let mut cur = Cur::new(buf);
    let version = cur.u8()?;
    if version != AGGREGATE_VERSION {
        return Err(RecordError::Version(version));
    }
    let device_count = cur.u64()? as usize;
    let h = cur.u64()?;
    let pow = cur.u64()?;
    let simulated_s = ExactSum::from_raw(cur.i128()?);
    let events = cur.u64()?;
    let faults = cur.faults()?;
    let reliability = cur.reliability()?;
    let uptime = ExactSum::from_raw(cur.i128()?);
    let max_conservation_j = cur.f64()?;
    let mut hists: [Histogram; 10] = std::array::from_fn(|_| Histogram::default());
    for h in &mut hists {
        *h = cur.hist()?;
    }
    let metrics = FleetMetrics::from_wire(hists);
    let n_policies = cur.u16()? as usize;
    let mut agg = FleetAggregate::with_policies(std::iter::empty(), 0);
    agg.device_count = device_count;
    agg.digest = DigestAccum::from_raw(h, pow);
    agg.simulated_s = simulated_s;
    agg.events = events;
    agg.faults = faults;
    agg.reliability = reliability;
    agg.uptime = uptime;
    agg.max_conservation_j = max_conservation_j;
    agg.metrics = metrics;
    for _ in 0..n_policies {
        let name = cur.string()?;
        let mut p = FleetAggregate::with_policies([name.as_str()], 0)
            .policies
            .pop()
            .expect("one policy accumulator");
        p.devices = cur.u64()? as usize;
        p.det_per_day = ExactSum::from_raw(cur.i128()?);
        p.brown_outs = cur.u64()?;
        p.final_soc = ExactSum::from_raw(cur.i128()?);
        p.uptime = ExactSum::from_raw(cur.i128()?);
        p.reliability = cur.reliability()?;
        p.detections = cur.u64()?;
        p.consumed_j = ExactSum::from_raw(cur.i128()?);
        p.target_m4 = cur.u64()?;
        p.target_ibex = cur.u64()?;
        p.target_cluster = cur.u64()?;
        p.backoff_skips = cur.u64()?;
        p.sync_stretches = cur.u64()?;
        agg.policies.push(p);
    }
    agg.sample_cap = cur.u64()? as usize;
    let n_sample = cur.u32()? as usize;
    for _ in 0..n_sample {
        let len = cur.u32()? as usize;
        let rec = cur.take(len)?;
        agg.sample.push(decode_result(rec)?);
    }
    if cur.u8()? != 0 {
        agg.scenario = true;
        agg.contacts_observed = cur.u64()?;
        agg.contacts_missed = cur.u64()?;
        agg.contacts_uplinked = cur.u64()?;
        agg.scan_energy_j = ExactSum::from_raw(cur.i128()?);
        agg.seeded_devices = cur.u64()?;
        let n = cur.u32()? as usize;
        agg.edges.reserve(n.min(65_536));
        for _ in 0..n {
            agg.edges.push(ContactEdge {
                epoch: cur.u32()?,
                device: cur.u32()?,
                peer: cur.u32()?,
            });
        }
    }
    cur.done()?;
    Ok(agg)
}

/// A periodic worker progress beat, interleaved with result records in
/// the worker→coordinator stream under [`HEARTBEAT_TAG`].
///
/// Heartbeats are *advisory*: they never feed the aggregate or the
/// digest (wall-clock timing is inherently non-deterministic), they
/// only drive the coordinator's progress board. The emitting shard and
/// its device count are known to the coordinator from its shard plan,
/// so the beat carries neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heartbeat {
    /// Worker wall-clock time since its run started, seconds.
    pub elapsed_s: f64,
    /// Devices completed by this worker so far.
    pub devices_done: u64,
}

/// Encodes a heartbeat frame payload.
#[must_use]
pub fn encode_heartbeat(hb: &Heartbeat) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.push(HEARTBEAT_TAG);
    put_f64(&mut out, hb.elapsed_s);
    put_u64(&mut out, hb.devices_done);
    out
}

/// Decodes a heartbeat frame payload; the whole buffer must be
/// consumed.
///
/// # Errors
///
/// Same failure modes as [`decode_result`].
pub fn decode_heartbeat(buf: &[u8]) -> Result<Heartbeat, RecordError> {
    let mut cur = Cur::new(buf);
    let tag = cur.u8()?;
    if tag != HEARTBEAT_TAG {
        return Err(RecordError::Version(tag));
    }
    let elapsed_s = cur.f64()?;
    let devices_done = cur.u64()?;
    cur.done()?;
    Ok(Heartbeat {
        elapsed_s,
        devices_done,
    })
}

/// End-of-shard worker runtime statistics, shipped as the final frame
/// of the worker protocol under [`STATS_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Worker peak RSS if the platform exposes it, bytes (`None` when
    /// `/proc/self/status` is unavailable or unparsable — rendered as
    /// "n/a", never as a bogus 0).
    pub peak_rss_bytes: Option<u64>,
    /// Worker wall-clock time, seconds.
    pub wall_s: f64,
    /// Result records the worker streamed.
    pub records: u64,
}

/// Encodes a worker-stats frame payload.
#[must_use]
pub fn encode_stats(s: &WorkerStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(26);
    out.push(STATS_VERSION);
    put_f64(&mut out, s.wall_s);
    put_u64(&mut out, s.records);
    match s.peak_rss_bytes {
        Some(rss) => {
            out.push(1);
            put_u64(&mut out, rss);
        }
        None => out.push(0),
    }
    out
}

/// Decodes a worker-stats frame payload; the whole buffer must be
/// consumed.
///
/// # Errors
///
/// Same failure modes as [`decode_result`], plus
/// [`RecordError::Malformed`] on an invalid RSS presence flag.
pub fn decode_stats(buf: &[u8]) -> Result<WorkerStats, RecordError> {
    let mut cur = Cur::new(buf);
    let tag = cur.u8()?;
    if tag != STATS_VERSION {
        return Err(RecordError::Version(tag));
    }
    let wall_s = cur.f64()?;
    let records = cur.u64()?;
    let peak_rss_bytes = match cur.u8()? {
        0 => None,
        1 => Some(cur.u64()?),
        _ => return Err(RecordError::Malformed("rss presence flag")),
    };
    cur.done()?;
    Ok(WorkerStats {
        peak_rss_bytes,
        wall_s,
        records,
    })
}

/// One decoded frame of the pre-end-marker worker stream.
///
/// The variant size skew is deliberate: a frame is decoded and consumed
/// immediately in the coordinator's stream loop, so boxing the
/// [`DeviceResult`] would buy nothing but a per-record allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFrame {
    /// A device result record.
    Result(DeviceResult),
    /// A worker progress heartbeat.
    Heartbeat(Heartbeat),
}

/// Decodes one worker-stream frame by its leading tag byte: a result
/// record or a heartbeat.
///
/// # Errors
///
/// [`RecordError::Version`] on any other tag, plus the usual decode
/// failures of the two frame kinds.
pub fn decode_stream_frame(buf: &[u8]) -> Result<StreamFrame, RecordError> {
    match buf.first().copied().ok_or(RecordError::Truncated)? {
        RECORD_VERSION => Ok(StreamFrame::Result(decode_result(buf)?)),
        HEARTBEAT_TAG => Ok(StreamFrame::Heartbeat(decode_heartbeat(buf)?)),
        tag => Err(RecordError::Version(tag)),
    }
}

/// Writes one `u32`-length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying write failure.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> Result<(), RecordError> {
    let len = u32::try_from(payload.len()).expect("frame fits u32 length");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Writes the zero-length end-of-records marker.
///
/// # Errors
///
/// Propagates the underlying write failure.
pub fn write_end<W: Write>(w: &mut W) -> Result<(), RecordError> {
    w.write_all(&0u32.to_le_bytes())?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on the zero-length end marker
/// **and** on clean EOF at a frame boundary (a worker that streamed
/// nothing).
///
/// # Errors
///
/// [`RecordError::Truncated`] when the stream ends mid-frame,
/// [`RecordError::Io`] on pipe failure.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, RecordError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None); // clean EOF at a frame boundary
            }
            return Err(RecordError::Truncated);
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Ok(None);
    }
    // The prefix is untrusted: grow the buffer only with bytes actually
    // received, so a corrupt length cannot allocate up to 4 GiB up front.
    let mut payload = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() as u64 != u64::from(len) {
        return Err(RecordError::Truncated);
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> DeviceResult {
        let mut faults = FaultCounters::default();
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            faults.set(kind, (i as u64 + 1) * 3);
        }
        let reliability = ReliabilityCounters {
            downtime_us: 123_456_789,
            sync_dropped: 7,
            ..ReliabilityCounters::default()
        };
        let mut sync_attempts = Histogram::new();
        sync_attempts.record_n(1, 40);
        sync_attempts.record_n(3, 2);
        let mut sync_backoff_us = Histogram::new();
        sync_backoff_us.record(2_000_000);
        sync_backoff_us.record(4_000_000);
        DeviceResult {
            device: 42,
            env: "indoor-6h".into(),
            subject: "baseline".into(),
            policy: "aware-24".into(),
            days: 1.0 / 24.0,
            detections: 987,
            browned_out: true,
            final_soc: 0.734_521,
            stored_j: 12.5e-3,
            consumed_j: f64::MIN_POSITIVE,
            events: 100_000,
            queue_high_water: 17,
            sync_attempts,
            sync_backoff_us,
            uptime: 0.999_999,
            faults,
            reliability,
            conservation_j: 1.3e-12,
            scenario: true,
            contacts_observed: 9,
            contacts_missed: 2,
            contacts_uplinked: 8,
            scan_energy_j: 0.042,
            infected_seed: true,
            contact_edges: vec![
                ContactEdge {
                    epoch: 0,
                    device: 42,
                    peer: 7,
                },
                ContactEdge {
                    epoch: 3,
                    device: 42,
                    peer: 11,
                },
            ],
            adaptive: true,
            target_m4: 600,
            target_ibex: 300,
            target_cluster: 87,
            backoff_skips: 5,
            sync_stretches: 2,
        }
    }

    /// The sample result with its scenario and adaptive-policy blocks
    /// stripped.
    fn plain_result() -> DeviceResult {
        DeviceResult {
            scenario: false,
            contacts_observed: 0,
            contacts_missed: 0,
            contacts_uplinked: 0,
            scan_energy_j: 0.0,
            infected_seed: false,
            contact_edges: Vec::new(),
            adaptive: false,
            target_m4: 0,
            target_ibex: 0,
            target_cluster: 0,
            backoff_skips: 0,
            sync_stretches: 0,
            ..sample_result()
        }
    }

    #[test]
    fn result_round_trips_exactly() {
        let r = sample_result();
        let bytes = encode_result(&r);
        assert_eq!(bytes[0], RECORD_VERSION);
        let back = decode_result(&bytes).expect("round trip");
        assert_eq!(r, back);
        assert_eq!(r.digest(), back.digest());
        assert_eq!(r.consumed_j.to_bits(), back.consumed_j.to_bits());
    }

    #[test]
    fn truncated_and_corrupt_inputs_error_cleanly() {
        let bytes = encode_result(&sample_result());
        for cut in [0, 1, 8, 73, 137, 218, bytes.len() - 1] {
            assert!(
                matches!(decode_result(&bytes[..cut]), Err(RecordError::Truncated)),
                "cut {cut}"
            );
        }
        let mut wrong = bytes.clone();
        wrong[0] = 0x7f;
        assert!(matches!(
            decode_result(&wrong),
            Err(RecordError::Version(0x7f))
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_result(&padded),
            Err(RecordError::Trailing(1))
        ));
    }

    #[test]
    fn heartbeat_round_trips_and_streams() {
        let hb = Heartbeat {
            elapsed_s: 1.25,
            devices_done: 512,
        };
        let bytes = encode_heartbeat(&hb);
        assert_eq!(bytes[0], HEARTBEAT_TAG);
        assert_eq!(bytes.len(), 17);
        assert_eq!(decode_heartbeat(&bytes).unwrap(), hb);
        match decode_stream_frame(&bytes).unwrap() {
            StreamFrame::Heartbeat(back) => assert_eq!(back, hb),
            other => panic!("expected heartbeat, got {other:?}"),
        }
    }

    #[test]
    fn worker_stats_round_trip_with_and_without_rss() {
        for rss in [Some(98_304_000), None] {
            let s = WorkerStats {
                peak_rss_bytes: rss,
                wall_s: 2.75,
                records: 4096,
            };
            let bytes = encode_stats(&s);
            assert_eq!(bytes[0], STATS_VERSION);
            assert_eq!(decode_stats(&bytes).unwrap(), s);
        }
        // A corrupt presence flag is Malformed, not a bogus value.
        let mut bytes = encode_stats(&WorkerStats {
            peak_rss_bytes: None,
            wall_s: 0.0,
            records: 0,
        });
        *bytes.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_stats(&bytes),
            Err(RecordError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_stream_tags_are_rejected() {
        // Telemetry-looking tags other than the two known ones are
        // errors like any other.
        for tag in [0x40, 0x45, 0x55, 0x7f] {
            assert!(matches!(
                decode_stream_frame(&[tag, 1, 2, 3]),
                Err(RecordError::Version(t)) if t == tag
            ));
        }
        assert!(matches!(
            decode_stream_frame(&[0x05]),
            Err(RecordError::Version(0x05))
        ));
        assert!(matches!(
            decode_stream_frame(&[0xff]),
            Err(RecordError::Version(0xff))
        ));
        assert!(matches!(
            decode_stream_frame(&[]),
            Err(RecordError::Truncated)
        ));
    }

    #[test]
    fn historical_versions_are_rejected() {
        // Older record (0x01–0x03) and aggregate (0x82–0x83) version
        // bytes are refused before any field is read, even in front of a
        // current-layout body.
        let mut record = encode_result(&plain_result());
        for version in 0x01..=0x03 {
            record[0] = version;
            assert!(matches!(
                decode_result(&record),
                Err(RecordError::Version(v)) if v == version
            ));
            assert!(matches!(
                decode_stream_frame(&record),
                Err(RecordError::Version(v)) if v == version
            ));
        }
        let mut agg = encode_aggregate(&FleetAggregate::with_policies(["fixed-24"], 0));
        for version in 0x82..=0x83 {
            agg[0] = version;
            assert!(matches!(
                decode_aggregate(&agg),
                Err(RecordError::Version(v)) if v == version
            ));
        }
    }

    #[test]
    fn plain_record_has_no_scenario_block_but_round_trips() {
        let r = plain_result();
        let bytes = encode_result(&r);
        // One flag byte each is the whole cost of the inactive scenario
        // and adaptive-policy blocks.
        assert_eq!(bytes[bytes.len() - 2..], [0, 0]);
        let back = decode_result(&bytes).expect("round trip");
        assert_eq!(back, r);
        assert_eq!(back.digest(), r.digest());
    }

    #[test]
    fn frames_round_trip_and_end_marker_terminates() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"abc").unwrap();
        write_frame(&mut pipe, b"").unwrap(); // zero-length payload == end
        let mut r = pipe.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"abc"[..]));
        assert!(read_frame(&mut r).unwrap().is_none());
        // Clean EOF at a boundary is also a terminator.
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        // Mid-frame EOF is an error.
        let mut cut = &pipe[..2];
        assert!(matches!(read_frame(&mut cut), Err(RecordError::Truncated)));
        // So is EOF inside the payload.
        let mut cut = &pipe[..5];
        assert!(matches!(read_frame(&mut cut), Err(RecordError::Truncated)));
    }

    #[test]
    fn corrupt_length_prefix_does_not_preallocate() {
        /// Reads from `data`, remembering the largest buffer it was handed.
        struct Offers<'a> {
            data: &'a [u8],
            largest: usize,
        }
        impl Read for Offers<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.data.read(buf)
            }
        }
        // A 0xFFFF_FFFF prefix followed by EOF.
        let prefix = u32::MAX.to_le_bytes();
        let mut r = Offers {
            data: &prefix,
            largest: 0,
        };
        assert!(matches!(read_frame(&mut r), Err(RecordError::Truncated)));
        // The payload buffer only grows with bytes received: no read was
        // handed anything near the 4 GiB the prefix claims.
        assert!(r.largest <= 64 * 1024, "read offered {} bytes", r.largest);
    }
}
