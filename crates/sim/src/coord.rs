//! The coordinator/worker protocol of a multi-process fleet run, over
//! any `Read`/`Write` streams.
//!
//! A worker ([`run_worker`]) serially folds one contiguous shard of the
//! fleet and writes its stream: each device's result record the moment
//! it is produced, a [`Heartbeat`] every [`HEARTBEAT_PERIOD`] and one
//! at shard completion, then the end marker, the shard
//! [`FleetAggregate`] and the [`WorkerStats`] frame ([`crate::record`]
//! has the frame layouts).
//!
//! The coordinator ([`coordinate`]) drains one stream per shard, each
//! on its own thread so a fast shard never backs up behind a slow one's
//! pipe. The shard plan is the stream count: stream `i` of `n` carries
//! the devices of [`FleetConfig::shard_range`]`(i, n)`, in order. A
//! shard is accepted only when
//! - every record is the next device of its range, and the range is
//!   complete at the end marker;
//! - its records, re-folded into an independent digest accumulator,
//!   agree with the shipped aggregate (an end-to-end check on the wire
//!   format), and the worker's record count agrees too;
//! - the aggregate carries the coordinator's own policy order.
//!
//! The shard aggregates then merge in shard order, which is
//! device-index order, and finalise into the report, with the epidemic
//! fold when the config carries a scenario. A failed read, decode or
//! check is an `Err` naming the shard, never a panic.
//!
//! Heartbeats feed the progress board: a stderr line at most once a
//! second (devices done, rate, ETA, stragglers) and one
//! `(elapsed µs, devices done)` series per shard for the caller to
//! render. They never touch an aggregate.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fleet::{DigestAccum, FleetAggregate, FleetConfig, FleetReport};
use crate::record::{
    decode_aggregate, decode_stats, decode_stream_frame, encode_aggregate, encode_heartbeat,
    encode_result, encode_stats, read_frame, write_end, write_frame, Heartbeat, RecordError,
    StreamFrame, WorkerStats,
};

/// Wall-clock period between a worker's heartbeats.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_millis(500);

/// Shards of a `devices`-device fleet run on `workers` workers: at
/// least one, and no more than there are devices.
#[must_use]
pub fn shard_count(devices: usize, workers: usize) -> usize {
    workers.clamp(1, devices.max(1))
}

/// Peak resident-set size of this process in bytes (Linux `VmHWM`);
/// `None` where `/proc` is unavailable or unparsable, so callers render
/// "n/a" rather than a bogus 0.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Worker side: serially folds shard `shard` of `of` and writes its
/// stream to `out` — (record | heartbeat) frames… · end marker ·
/// aggregate frame · stats frame — flushing after every heartbeat so
/// the coordinator sees it at once.
///
/// # Errors
///
/// The first write failure; the shard stops streaming at it.
///
/// # Panics
///
/// Panics when `shard >= of` (see [`FleetConfig::shard_range`]).
pub fn run_worker<W: Write>(
    cfg: &FleetConfig,
    shard: usize,
    of: usize,
    out: &mut W,
) -> Result<(), RecordError> {
    let range = cfg.shard_range(shard, of);
    let start = Instant::now();
    let mut last_beat = start;
    let mut beat = Heartbeat {
        elapsed_s: 0.0,
        devices_done: 0,
    };
    let mut stream_err: Option<RecordError> = None;
    let agg = cfg.run_chunk_with(range, |r| {
        if stream_err.is_some() {
            return;
        }
        beat.devices_done += 1;
        let mut send = || -> Result<(), RecordError> {
            write_frame(out, &encode_result(r))?;
            if last_beat.elapsed() >= HEARTBEAT_PERIOD {
                last_beat = Instant::now();
                beat.elapsed_s = start.elapsed().as_secs_f64();
                write_frame(out, &encode_heartbeat(&beat))?;
                out.flush()?;
            }
            Ok(())
        };
        stream_err = send().err();
    });
    if let Some(e) = stream_err {
        return Err(e);
    }
    // The final beat ends the board's series exactly at completion.
    beat.elapsed_s = start.elapsed().as_secs_f64();
    write_frame(out, &encode_heartbeat(&beat))?;
    write_end(out)?;
    write_frame(out, &encode_aggregate(&agg))?;
    let stats = WorkerStats {
        peak_rss_bytes: peak_rss_bytes(),
        wall_s: start.elapsed().as_secs_f64(),
        records: beat.devices_done,
    };
    write_frame(out, &encode_stats(&stats))?;
    out.flush()?;
    Ok(())
}

/// A coordinated run: the finalised report and the workers' telemetry.
#[derive(Debug)]
pub struct Coordinated {
    /// The merged fleet report, bit-identical to [`FleetConfig::run`].
    pub report: FleetReport,
    /// Each shard's end-of-stream statistics, in shard order.
    pub stats: Vec<WorkerStats>,
    /// Each shard's heartbeat series, `(elapsed µs, devices done)` by
    /// the worker's clock, in shard order.
    pub progress: Vec<Vec<(u64, f64)>>,
    /// Observed contact edges per scenario epoch, `(epoch, edges)` in
    /// epoch order; empty without a scenario.
    pub epoch_contacts: Vec<(u32, u64)>,
}

/// Coordinator side: drains `streams` (stream `i` is shard `i` of
/// `streams.len()`), verifies and merges the shards of `cfg`, and
/// finalises the report. Every record frame is copied to `records` as
/// it arrives, one whole frame at a time; frames of different shards
/// interleave there, and each record carries its device index.
///
/// # Errors
///
/// A message naming the shard, for a stream that cannot be read or
/// decoded, a record out of its shard's device order, an incomplete
/// shard, a shard whose re-fold, record count or policy order
/// disagrees with its aggregate, a shard aggregate whose counters would
/// overflow the merged sums, and a failed write to `records`; also when
/// `streams` is empty.
pub fn coordinate<R: Read + Send>(
    cfg: &FleetConfig,
    streams: Vec<R>,
    records: Option<&mut (dyn Write + Send)>,
) -> Result<Coordinated, String> {
    let of = streams.len();
    if of == 0 {
        return Err("no worker streams to coordinate".into());
    }
    let ranges: Vec<Range<usize>> = (0..of).map(|shard| cfg.shard_range(shard, of)).collect();
    let board = Mutex::new(ProgressBoard::new(&ranges));
    let sink = records.map(Mutex::new);
    let shards: Vec<Result<ShardResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&ranges)
            .enumerate()
            .map(|(shard, (mut stream, range))| {
                let (board, sink) = (&board, sink.as_ref());
                scope.spawn(move || read_shard(shard, range.clone(), &mut stream, sink, board))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard reader panicked"))
            .collect()
    });
    let mut merged = FleetAggregate::new(cfg);
    let mut stats = Vec::with_capacity(of);
    for (shard, result) in shards.into_iter().enumerate() {
        let ShardResult {
            aggregate,
            stats: shard_stats,
        } = result?;
        // `merge` asserts the policy order; the names are not covered
        // by the digest, so a corrupt name must be caught here.
        let names = |agg: &FleetAggregate| -> Vec<String> {
            agg.policies.iter().map(|p| p.name.clone()).collect()
        };
        let (ours, theirs) = (names(&merged), names(&aggregate));
        if ours != theirs {
            return Err(format!(
                "shard {shard}: aggregate policies {theirs:?}, expected {ours:?}"
            ));
        }
        merged
            .try_merge(aggregate)
            .map_err(|e| format!("shard {shard}: {e}"))?;
        stats.push(shard_stats);
    }
    let mut epochs: BTreeMap<u32, u64> = BTreeMap::new();
    for edge in &merged.edges {
        *epochs.entry(edge.epoch).or_insert(0) += 1;
    }
    let board = board.into_inner().expect("progress board lock");
    Ok(Coordinated {
        report: merged.into_report_with(cfg.scenario.as_deref()),
        stats,
        progress: board.shards.into_iter().map(|w| w.series).collect(),
        epoch_contacts: epochs.into_iter().collect(),
    })
}

/// One shard's verified handoff.
struct ShardResult {
    aggregate: FleetAggregate,
    stats: WorkerStats,
}

/// Drains shard `shard`'s stream (see [`coordinate`] for the checks).
fn read_shard<R: Read>(
    shard: usize,
    range: Range<usize>,
    stream: &mut R,
    sink: Option<&Mutex<&mut (dyn Write + Send)>>,
    board: &Mutex<ProgressBoard>,
) -> Result<ShardResult, String> {
    let mut refold = DigestAccum::new();
    let mut next = range.start;
    while let Some(frame) = read_frame(stream).map_err(|e| format!("shard {shard}: {e}"))? {
        match decode_stream_frame(&frame)
            .map_err(|e| format!("shard {shard} at device {next}: {e}"))?
        {
            StreamFrame::Result(result) => {
                if next == range.end {
                    return Err(format!(
                        "shard {shard}: device {} arrived after its range {range:?} was complete",
                        result.device
                    ));
                }
                if result.device != next {
                    return Err(format!(
                        "shard {shard}: device {} arrived where device {next} was due",
                        result.device
                    ));
                }
                next += 1;
                refold.fold(result.digest());
                if let Some(sink) = sink {
                    let mut sink = sink.lock().expect("record sink lock");
                    write_frame(&mut **sink, &frame)
                        .map_err(|e| format!("shard {shard}: record sink: {e}"))?;
                }
            }
            StreamFrame::Heartbeat(hb) => {
                board.lock().expect("progress board lock").beat(shard, &hb);
            }
        }
    }
    if next != range.end {
        return Err(format!(
            "shard {shard}: stream ended at device {next}, before the end of its range {range:?}"
        ));
    }
    let agg_frame = read_frame(stream)
        .map_err(|e| format!("shard {shard} aggregate: {e}"))?
        .ok_or_else(|| format!("shard {shard}: stream ended before aggregate"))?;
    let aggregate =
        decode_aggregate(&agg_frame).map_err(|e| format!("shard {shard} aggregate: {e}"))?;
    let stats_frame = read_frame(stream)
        .map_err(|e| format!("shard {shard} stats: {e}"))?
        .ok_or_else(|| format!("shard {shard}: stream ended before stats"))?;
    let stats = decode_stats(&stats_frame).map_err(|e| format!("shard {shard} stats: {e}"))?;
    if stats.records != range.len() as u64 {
        return Err(format!(
            "shard {shard}: worker reported {} records, coordinator saw {}",
            stats.records,
            range.len()
        ));
    }
    if refold.digest() != aggregate.digest() {
        return Err(format!(
            "shard {shard}: streamed records re-fold to digest {:016x} but the shard \
             aggregate says {:016x}",
            refold.digest(),
            aggregate.digest()
        ));
    }
    Ok(ShardResult { aggregate, stats })
}

/// One shard's live progress, folded from its heartbeats.
#[derive(Default)]
struct ShardProgress {
    done: u64,
    total: u64,
    /// Devices per second by the worker's own clock.
    rate: f64,
    /// `(elapsed µs, devices done)` heartbeat history.
    series: Vec<(u64, f64)>,
}

/// Coordinator-side live progress: one slot per shard, rendered to
/// stderr at most once a second when a heartbeat lands.
struct ProgressBoard {
    started: Instant,
    devices_total: u64,
    shards: Vec<ShardProgress>,
    last_render: Option<Instant>,
}

impl ProgressBoard {
    fn new(ranges: &[Range<usize>]) -> ProgressBoard {
        ProgressBoard {
            started: Instant::now(),
            devices_total: ranges.iter().map(|r| r.len() as u64).sum(),
            shards: ranges
                .iter()
                .map(|r| ShardProgress {
                    total: r.len() as u64,
                    ..ShardProgress::default()
                })
                .collect(),
            last_render: None,
        }
    }

    fn beat(&mut self, shard: usize, hb: &Heartbeat) {
        let w = &mut self.shards[shard];
        w.done = hb.devices_done;
        w.rate = if hb.elapsed_s > 0.0 {
            hb.devices_done as f64 / hb.elapsed_s
        } else {
            0.0
        };
        w.series
            .push(((hb.elapsed_s * 1e6) as u64, hb.devices_done as f64));
        self.maybe_render();
    }

    fn maybe_render(&mut self) {
        let now = Instant::now();
        if self
            .last_render
            .is_some_and(|t| now.duration_since(t).as_secs_f64() < 1.0)
        {
            return;
        }
        self.last_render = Some(now);
        let done: u64 = self.shards.iter().map(|w| w.done).sum();
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = done as f64 / elapsed.max(1e-9);
        let pct = 100.0 * done as f64 / self.devices_total.max(1) as f64;
        let remaining = self.devices_total.saturating_sub(done);
        let eta = if rate > 0.0 {
            format!("{:.0} s", remaining as f64 / rate)
        } else {
            "?".to_string()
        };
        let mut line = format!(
            "{done}/{} devices ({pct:.0}%) · {rate:.1} dev/s · ETA {eta}",
            self.devices_total
        );
        let stragglers = self.stragglers();
        if !stragglers.is_empty() {
            let list: Vec<String> = stragglers.iter().map(|s| format!("worker {s}")).collect();
            line.push_str(&format!(" · stragglers: {}", list.join(", ")));
        }
        eprintln!("fleet[coordinator][progress] {line}");
    }

    /// Shards whose own device rate has fallen more than 2× behind the
    /// median of all reporting shards (and are not yet done).
    fn stragglers(&self) -> Vec<usize> {
        let mut rates: Vec<f64> = self
            .shards
            .iter()
            .filter(|w| w.done > 0)
            .map(|w| w.rate)
            .collect();
        if rates.len() < 2 {
            return Vec::new();
        }
        rates.sort_by(f64::total_cmp);
        let median = rates[rates.len() / 2];
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, w)| w.done > 0 && w.done < w.total && w.rate * 2.0 < median)
            .map(|(shard, _)| shard)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::tests::{scenario_fleet, small_fleet};
    use crate::record::{decode_result, RECORD_VERSION};

    /// The small test fleet (12 devices, one-hour days) with or without
    /// the dense epidemic scenario, retaining no sample.
    fn fleet(scenario: bool) -> FleetConfig {
        let mut cfg = if scenario {
            scenario_fleet(1)
        } else {
            small_fleet(1)
        };
        cfg.sample_devices = 0;
        cfg
    }

    /// Every shard's worker stream for an `of`-shard run.
    fn streams(cfg: &FleetConfig, of: usize) -> Vec<Vec<u8>> {
        (0..of)
            .map(|shard| {
                let mut out = Vec::new();
                run_worker(cfg, shard, of, &mut out).expect("in-memory stream");
                out
            })
            .collect()
    }

    fn run(cfg: &FleetConfig, streams: &[Vec<u8>]) -> Result<Coordinated, String> {
        coordinate(cfg, streams.iter().map(Vec::as_slice).collect(), None)
    }

    /// A stream's frames before and after its end marker.
    fn split(stream: &[u8]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut r = stream;
        let mut frames =
            || std::iter::from_fn(|| read_frame(&mut r).expect("well-formed stream")).collect();
        let head = frames();
        (head, frames())
    }

    fn join(head: &[Vec<u8>], tail: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in head {
            write_frame(&mut out, frame).expect("in-memory write");
        }
        write_end(&mut out).expect("in-memory write");
        for frame in tail {
            write_frame(&mut out, frame).expect("in-memory write");
        }
        out
    }

    #[test]
    fn every_topology_lands_on_the_serial_report() {
        for scenario in [false, true] {
            let cfg = fleet(scenario);
            let reference = cfg.run();
            for of in 1..=3 {
                let run = run(&cfg, &streams(&cfg, of)).expect("clean streams");
                assert_eq!(run.report, reference, "{of} shards, scenario {scenario}");
                assert_eq!(run.stats.len(), of);
                let records: u64 = run.stats.iter().map(|s| s.records).sum();
                assert_eq!(records, cfg.devices as u64);
                // Every shard sends at least its final beat.
                assert!(run.progress.iter().all(|s| !s.is_empty()));
                let tallied: u64 = run.epoch_contacts.iter().map(|&(_, n)| n).sum();
                let edges = reference.scenario.as_ref().map_or(0, |s| s.edge_count);
                assert_eq!(tallied, edges);
                assert_eq!(run.epoch_contacts.is_empty(), !scenario);
            }
        }
    }

    #[test]
    fn record_sink_gets_one_frame_per_device() {
        let cfg = fleet(true);
        let streams = streams(&cfg, 3);
        let mut sink = Vec::new();
        coordinate(
            &cfg,
            streams.iter().map(Vec::as_slice).collect(),
            Some(&mut sink),
        )
        .expect("clean streams");
        let mut r = sink.as_slice();
        let mut devices: Vec<usize> =
            std::iter::from_fn(|| read_frame(&mut r).expect("whole frames"))
                .map(|frame| decode_result(&frame).expect("record frame").device)
                .collect();
        devices.sort_unstable();
        assert_eq!(devices, (0..cfg.devices).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_streams_are_errors_naming_the_shard() {
        let cfg = fleet(false);
        let good = streams(&cfg, 2);
        let first = cfg.shard_range(1, 2).start;
        let (head, tail) = split(&good[1]);
        let record_at = |i: usize| {
            head.iter()
                .enumerate()
                .filter(|(_, f)| f[0] == RECORD_VERSION)
                .nth(i)
                .expect("record frame")
                .0
        };

        let mut dup = head.clone();
        dup.insert(record_at(1), head[record_at(0)].clone());
        let mut short = head.clone();
        short.remove(record_at(cfg.shard_range(1, 2).len() - 1));
        let mut unknown = head.clone();
        unknown[0][0] = 0x45;
        let first_len = u32::from_le_bytes(good[1][..4].try_into().expect("length prefix"));
        let cut = good[1][..4 + first_len as usize / 2].to_vec();
        let mut renamed = tail.clone();
        let at = renamed[0]
            .windows(8)
            .position(|w| w == b"fixed-24")
            .expect("policy name in the aggregate");
        renamed[0][at] ^= 1;
        // The flipped name still decodes, and the digest does not cover
        // it: only the policy check can refuse it.
        assert_eq!(
            decode_aggregate(&renamed[0])
                .expect("still decodes")
                .digest(),
            decode_aggregate(&tail[0]).expect("decodes").digest()
        );

        // Counters the re-fold does not cover, large enough to overflow
        // the merged sum.
        let mut overflowing = tail.clone();
        let mut agg = decode_aggregate(&tail[0]).expect("decodes");
        agg.events = u64::MAX;
        overflowing[0] = encode_aggregate(&agg);

        let cases: [(&str, Vec<u8>, String); 8] = [
            (
                "ends before the aggregate",
                join(&head, &[]),
                "aggregate".into(),
            ),
            ("cut mid-frame", cut, "truncated".into()),
            ("unknown tag", join(&unknown, &tail), "0x45".into()),
            (
                "duplicated record",
                join(&dup, &tail),
                format!("device {}", first + 1),
            ),
            ("missing last record", join(&short, &tail), "range".into()),
            (
                "another shard's records",
                good[0].clone(),
                format!("device {first}"),
            ),
            (
                "flipped policy name",
                join(&head, &renamed),
                "gixed-24".into(),
            ),
            (
                "overflowing event count",
                join(&head, &overflowing),
                "overflows the fleet's events".into(),
            ),
        ];
        for (what, bad, detail) in cases {
            let err = run(&cfg, &[good[0].clone(), bad]).expect_err(what);
            assert!(
                err.starts_with("shard 1") && err.contains(&detail),
                "{what}: {err}"
            );
        }
        assert!(run(&cfg, &good).is_ok());
    }
}
