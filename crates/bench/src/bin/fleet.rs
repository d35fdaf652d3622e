//! Streaming fleet service CLI: sweep N simulated bracelets across
//! environments × wearers × policies with bounded memory, either
//! in-process (threads) or as a coordinator/worker process pair.
//!
//! ```text
//! cargo run --release -p iw-bench --bin fleet -- --devices 64
//! cargo run --release -p iw-bench --bin fleet -- --devices 4096 --workers 2 --check
//! cargo run --release -p iw-bench --bin fleet -- --devices 64 --faults harsh
//! cargo run --release -p iw-bench --bin fleet -- --devices 64 --trace fleet.json
//! cargo run --release -p iw-bench --bin fleet -- --devices 4096 --workers 2 --metrics m.prom
//! ```
//!
//! `--workers N` re-spawns this binary N times in `--shard i/N` mode.
//! Each worker serially folds its contiguous device-index shard,
//! streaming every per-device record as a length-prefixed binary frame
//! on stdout (`iw_sim::record`) with periodic heartbeat frames
//! interleaved (progress, sim-days/s, RSS — advisory telemetry that
//! never feeds the aggregate), followed by the end marker, its shard
//! `FleetAggregate`, and a stats frame (peak RSS, wall seconds, record
//! count). The coordinator counts records as they arrive — re-folding
//! each one into an independent digest accumulator that must agree with
//! the worker's shipped aggregate — folds heartbeats into a live
//! progress board (per-worker rate, ETA, stragglers), then merges the
//! shard aggregates hierarchically in shard order. No
//! `Vec<DeviceResult>` exists anywhere: per-worker memory is
//! independent of `--devices`.
//!
//! `--check` reruns the sweep serially in-process and exits non-zero
//! unless the aggregate digests are bit-identical — the CI determinism
//! gate. `--faults clean|moderate|harsh` injects the named fault
//! profile. `--scenario none|epidemic` attaches the compiled epidemic
//! scenario (mobility contacts, weather fronts, gateway outages,
//! scripted infection); workers then interleave per-epoch contact
//! tallies as epoch-beat frames (advisory — the epidemic fold
//! itself rides the merged aggregate edge set) and the coordinator
//! finalises the report with the epoch-barrier epidemic outcome. `--heartbeat-ms N` sets the worker heartbeat period (0
//! disables heartbeats). `--metrics PATH` exports the fleet metrics
//! snapshot — Prometheus text exposition, or JSON when the path ends in
//! `.json` — and prints the histogram summary table. `--trace PATH`
//! re-runs the first `--trace-devices K` devices with tracing enabled
//! and writes one Perfetto timeline with a process group per device
//! plus, after a worker run, a "fleet progress" counter group built
//! from the heartbeat series (off by default; never affects the
//! aggregate). `--record PATH` appends every streamed record frame to a
//! file (frames arrive interleaved across workers; each record carries
//! its device index).

use std::io::{BufWriter, Read, Write};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use iw_metrics::Registry;
use iw_sim::record::{
    decode_aggregate, decode_stats, decode_stream_frame, encode_aggregate, encode_epoch,
    encode_heartbeat, encode_result, encode_stats, read_frame, write_end, write_frame, EpochBeat,
    Heartbeat, RecordError, StreamFrame, WorkerStats,
};
use iw_sim::{fleet_snapshot, DigestAccum, FleetAggregate, FleetConfig, FleetReport};
use iw_trace::{merged_chrome_trace, Recorder};

use iw_sim::FaultProfile;

struct Args {
    devices: usize,
    threads: usize,
    seed: u64,
    faults: FaultProfile,
    scenario: bool,
    check: bool,
    workers: usize,
    shard: Option<(usize, usize)>,
    sample: usize,
    trace: Option<String>,
    trace_devices: usize,
    record: Option<String>,
    heartbeat_ms: u64,
    metrics: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        devices: 64,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        seed: iw_bench::SEED,
        faults: FaultProfile::Clean,
        scenario: false,
        check: false,
        workers: 0,
        shard: None,
        sample: 0,
        trace: None,
        trace_devices: 4,
        record: None,
        heartbeat_ms: 500,
        metrics: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("bad {name}: {e}"))
        };
        match flag.as_str() {
            "--devices" => args.devices = value("--devices")? as usize,
            "--threads" => args.threads = (value("--threads")? as usize).max(1),
            "--seed" => args.seed = value("--seed")?,
            "--workers" => args.workers = value("--workers")? as usize,
            "--sample" => args.sample = value("--sample")? as usize,
            "--trace-devices" => args.trace_devices = value("--trace-devices")? as usize,
            "--heartbeat-ms" => args.heartbeat_ms = value("--heartbeat-ms")?,
            "--shard" => {
                let spec = it.next().ok_or("--shard needs i/N")?;
                let (i, n) = spec.split_once('/').ok_or("--shard format is i/N")?;
                let i: usize = i.parse().map_err(|e| format!("bad shard index: {e}"))?;
                let n: usize = n.parse().map_err(|e| format!("bad shard count: {e}"))?;
                if n == 0 || i >= n {
                    return Err(format!("shard {i}/{n} out of range"));
                }
                args.shard = Some((i, n));
            }
            "--faults" => {
                let label = it.next().ok_or("--faults needs a value")?;
                args.faults = FaultProfile::parse(&label)
                    .ok_or_else(|| format!("bad --faults '{label}' (clean|moderate|harsh)"))?;
            }
            "--scenario" => {
                let label = it.next().ok_or("--scenario needs a value")?;
                args.scenario = match label.as_str() {
                    "none" => false,
                    "epidemic" => true,
                    other => return Err(format!("bad --scenario '{other}' (none|epidemic)")),
                };
            }
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a path")?),
            "--record" => args.record = Some(it.next().ok_or("--record needs a path")?),
            "--metrics" => args.metrics = Some(it.next().ok_or("--metrics needs a path")?),
            "--check" => args.check = true,
            other => {
                return Err(format!(
                    "unknown flag '{other}' (expected --devices N, --threads N, --seed N, \
                     --workers N, --shard i/N, --sample N, --faults clean|moderate|harsh, \
                     --scenario none|epidemic, --trace PATH, --trace-devices K, --record PATH, \
                     --metrics PATH, --heartbeat-ms N, --check)"
                ))
            }
        }
    }
    Ok(args)
}

/// Structured stderr log line: `fleet[role][phase] message`. Every
/// diagnostic from the coordinator and from any worker process goes
/// through here, so interleaved multi-process output stays
/// attributable to an emitting role and pipeline phase.
fn flog(role: &str, phase: &str, msg: &str) {
    eprintln!("fleet[{role}][{phase}] {msg}");
}

fn fleet_config(args: &Args, threads: usize) -> FleetConfig {
    // The scenario compiles deterministically from (devices, seed), so
    // every worker process recompiles the identical artifact — nothing
    // scenario-shaped crosses the pipe except edges and epoch beats.
    let mut cfg = if args.scenario {
        iw_bench::d4_fleet_config(args.devices, threads, args.seed, args.faults)
    } else {
        iw_bench::d3_fleet_config(args.devices, threads, args.seed, args.faults)
    };
    // A malformed policy (e.g. energy_aware with min_soc >= 1) silently
    // degenerates into a device that never detects — surface it as a
    // configuration error instead of a mysteriously idle sweep.
    for (name, spec) in &cfg.policies {
        if let Err(e) = spec.validate() {
            flog(
                "coordinator",
                "config",
                &format!("invalid policy '{name}': {e}"),
            );
            std::process::exit(2);
        }
    }
    cfg.sample_devices = args.sample;
    cfg
}

/// Peak resident-set size of this process in bytes (Linux `VmHWM`);
/// `None` where `/proc` is unavailable or unparsable — callers render
/// "n/a" rather than a bogus 0.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

fn human_rss(bytes: Option<u64>) -> String {
    bytes.map_or_else(|| "n/a".to_string(), human_bytes)
}

/// Worker mode: serially fold the shard, streaming each record as it is
/// produced, with heartbeat frames interleaved every `--heartbeat-ms`.
/// Protocol: (record | heartbeat) frames… · end marker · aggregate
/// frame · stats frame.
fn run_worker(args: &Args, shard: usize, of: usize) -> Result<(), RecordError> {
    let cfg = fleet_config(args, 1);
    let range = cfg.shard_range(shard, of);
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let start = Instant::now();
    let mut records = 0u64;
    let mut stream_err: Option<RecordError> = None;
    let mut beat = Heartbeat {
        shard: shard as u32,
        of: of as u32,
        elapsed_s: 0.0,
        devices_done: 0,
        devices_total: range.len() as u64,
        sim_days: 0.0,
        events: 0,
        fault_episodes: 0,
        brownouts: 0,
        rss_bytes: None,
    };
    let mut last_beat = Instant::now();
    // Per-epoch observed-contact tallies for this shard, emitted as
    // epoch-beat frames after the record stream.
    let mut epoch_contacts: std::collections::BTreeMap<u32, u64> =
        std::collections::BTreeMap::new();
    let agg = cfg.run_chunk_with(range, |r| {
        if stream_err.is_some() {
            return;
        }
        for edge in &r.contact_edges {
            *epoch_contacts.entry(edge.epoch).or_insert(0) += 1;
        }
        records += 1;
        beat.devices_done += 1;
        beat.sim_days += r.days;
        beat.events += r.events;
        beat.fault_episodes += r.faults.total();
        beat.brownouts += u64::from(r.browned_out);
        if let Err(e) = write_frame(&mut out, &encode_result(r)) {
            stream_err = Some(e);
            return;
        }
        if args.heartbeat_ms > 0 && last_beat.elapsed().as_millis() as u64 >= args.heartbeat_ms {
            last_beat = Instant::now();
            beat.elapsed_s = start.elapsed().as_secs_f64();
            beat.rss_bytes = peak_rss_bytes();
            // Flush so the coordinator sees the beat now, not whenever
            // the BufWriter next drains.
            if let Err(e) = write_frame(&mut out, &encode_heartbeat(&beat)) {
                stream_err = Some(e);
            } else if let Err(e) = out.flush() {
                stream_err = Some(e.into());
            }
        }
    });
    if let Some(e) = stream_err {
        return Err(e);
    }
    if args.heartbeat_ms > 0 {
        // Final beat: the progress board and any trace counter series
        // end exactly at shard completion.
        beat.elapsed_s = start.elapsed().as_secs_f64();
        beat.rss_bytes = peak_rss_bytes();
        write_frame(&mut out, &encode_heartbeat(&beat))?;
    }
    for (epoch, contacts) in &epoch_contacts {
        let eb = EpochBeat {
            shard: shard as u32,
            epoch: *epoch,
            contacts: *contacts,
            edges: *contacts,
        };
        write_frame(&mut out, &encode_epoch(&eb))?;
    }
    write_end(&mut out)?;
    write_frame(&mut out, &encode_aggregate(&agg))?;
    let stats = WorkerStats {
        peak_rss_bytes: peak_rss_bytes(),
        wall_s: start.elapsed().as_secs_f64(),
        records,
    };
    write_frame(&mut out, &encode_stats(&stats))?;
    out.flush()?;
    Ok(())
}

/// One worker's live progress, folded from its heartbeat stream.
#[derive(Clone, Default)]
struct WorkerProgress {
    done: u64,
    total: u64,
    /// Devices per second by the worker's own clock.
    rate: f64,
    /// `(elapsed µs, devices done)` heartbeat history — the Perfetto
    /// counter-series bridge consumes this.
    series: Vec<(u64, f64)>,
}

/// Coordinator-side live progress: one slot per worker, re-rendered (at
/// most once a second) whenever a heartbeat lands.
struct ProgressBoard {
    started: Instant,
    devices_total: u64,
    workers: Vec<WorkerProgress>,
    last_render: Option<Instant>,
    /// Suppress live rendering (still folds heartbeat history).
    quiet: bool,
    /// Cross-shard per-epoch contact tallies folded from epoch beats
    /// (advisory narration; the epidemic fold uses the aggregates).
    epoch_contacts: std::collections::BTreeMap<u32, u64>,
}

impl ProgressBoard {
    fn new(workers: usize, devices_total: u64, quiet: bool) -> ProgressBoard {
        ProgressBoard {
            started: Instant::now(),
            devices_total,
            workers: vec![WorkerProgress::default(); workers],
            last_render: None,
            quiet,
            epoch_contacts: std::collections::BTreeMap::new(),
        }
    }

    fn epoch_beat(&mut self, eb: &EpochBeat) {
        *self.epoch_contacts.entry(eb.epoch).or_insert(0) += eb.contacts;
    }

    fn beat(&mut self, hb: &Heartbeat) {
        let Some(w) = self.workers.get_mut(hb.shard as usize) else {
            return;
        };
        w.done = hb.devices_done;
        w.total = hb.devices_total;
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
        if self.quiet {
            return;
        }
        let now = Instant::now();
        if self
            .last_render
            .is_some_and(|t| now.duration_since(t).as_secs_f64() < 1.0)
        {
            return;
        }
        self.last_render = Some(now);
        let done: u64 = self.workers.iter().map(|w| w.done).sum();
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
        flog("coordinator", "progress", &line);
    }

    /// Workers whose own device rate has fallen more than 2× behind the
    /// median of all reporting workers (and are not yet done).
    fn stragglers(&self) -> Vec<usize> {
        let mut rates: Vec<f64> = self
            .workers
            .iter()
            .filter(|w| w.done > 0)
            .map(|w| w.rate)
            .collect();
        if rates.len() < 2 {
            return Vec::new();
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        let median = rates[rates.len() / 2];
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.done > 0 && w.done < w.total && w.rate * 2.0 < median)
            .map(|(shard, _)| shard)
            .collect()
    }
}

/// One worker's decoded handoff on the coordinator side.
struct ShardResult {
    aggregate: FleetAggregate,
    stats: WorkerStats,
}

/// Drains one worker's stdout: counts record frames (re-folding each
/// decoded record into an independent digest accumulator), folds
/// heartbeat and epoch-beat frames into the shared progress board, then
/// decodes the aggregate and stats frames. The re-folded digest must
/// match the worker's shipped aggregate — a per-shard integrity check
/// on the wire format itself.
fn read_worker<R: Read>(
    shard: usize,
    stream: &mut R,
    mut record_sink: Option<&mut dyn Write>,
    board: &Mutex<ProgressBoard>,
) -> Result<ShardResult, String> {
    let mut refold = DigestAccum::new();
    let mut records = 0u64;
    while let Some(frame) = read_frame(stream).map_err(|e| format!("shard {shard}: {e}"))? {
        match decode_stream_frame(&frame)
            .map_err(|e| format!("shard {shard} frame {records}: {e}"))?
        {
            StreamFrame::Result(result) => {
                refold.fold(result.digest());
                records += 1;
                if let Some(sink) = record_sink.as_deref_mut() {
                    write_frame(sink, &frame).map_err(|e| format!("--record write: {e}"))?;
                }
            }
            StreamFrame::Heartbeat(hb) => {
                board.lock().expect("progress board lock").beat(&hb);
            }
            StreamFrame::Epoch(eb) => {
                board.lock().expect("progress board lock").epoch_beat(&eb);
            }
        }
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
    if stats.records != records {
        return Err(format!(
            "shard {shard}: worker reported {} records, coordinator saw {records}",
            stats.records
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

/// Everything the coordinator hands back to `main`.
struct CoordinatorRun {
    report: FleetReport,
    wall_s: f64,
    stats: Vec<WorkerStats>,
    progress: Vec<WorkerProgress>,
    /// Per-epoch contact tallies folded from the workers' epoch beats.
    epoch_contacts: Vec<(u32, u64)>,
}

/// Coordinator mode: spawn `workers` copies of this binary in shard
/// mode, drain their streams concurrently (rendering live progress from
/// the interleaved heartbeats), verify and merge the shard aggregates
/// in shard order.
fn run_coordinator(args: &Args) -> Result<CoordinatorRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workers = args.workers.max(1).min(args.devices.max(1));
    let start = Instant::now();
    let mut children = Vec::new();
    for shard in 0..workers {
        let mut cmd = Command::new(&exe);
        cmd.arg("--devices")
            .arg(args.devices.to_string())
            .arg("--seed")
            .arg(args.seed.to_string())
            .arg("--sample")
            .arg(args.sample.to_string())
            .arg("--faults")
            .arg(args.faults.label())
            .arg("--scenario")
            .arg(if args.scenario { "epidemic" } else { "none" })
            .arg("--heartbeat-ms")
            .arg(args.heartbeat_ms.to_string())
            .arg("--shard")
            .arg(format!("{shard}/{workers}"))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn worker {shard}: {e}"))?;
        children.push(child);
    }
    let record_file: Option<Mutex<std::fs::File>> = match &args.record {
        Some(path) => Some(Mutex::new(
            std::fs::File::create(path).map_err(|e| format!("--record {path}: {e}"))?,
        )),
        None => None,
    };
    let board = Mutex::new(ProgressBoard::new(
        workers,
        args.devices as u64,
        args.heartbeat_ms == 0,
    ));
    // One reader per worker so a fast shard never backs up behind a
    // slow one's pipe buffer.
    let shard_results: Vec<Result<ShardResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = children
            .iter_mut()
            .enumerate()
            .map(|(shard, child)| {
                let mut stdout = child.stdout.take().expect("piped stdout");
                let record_file = record_file.as_ref();
                let board = &board;
                scope.spawn(move || match record_file {
                    Some(file) => {
                        // Frames interleave across workers; each record
                        // carries its device index, so order is
                        // recoverable.
                        let mut guard_adapter = LockedWriter(file);
                        read_worker(shard, &mut stdout, Some(&mut guard_adapter), board)
                    }
                    None => read_worker(shard, &mut stdout, None, board),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let mut stats = Vec::new();
    let cfg = fleet_config(args, 1);
    let mut merged = FleetAggregate::new(&cfg);
    for (shard, result) in shard_results.into_iter().enumerate() {
        let shard_result = result?;
        let status = children[shard]
            .wait()
            .map_err(|e| format!("wait worker {shard}: {e}"))?;
        if !status.success() {
            return Err(format!("worker {shard} exited with {status}"));
        }
        // Shard aggregates merge in ascending shard order — device-index
        // order, since shards are contiguous ranges.
        merged.merge(shard_result.aggregate);
        stats.push(shard_result.stats);
    }
    let board = board.into_inner().expect("progress board lock");
    Ok(CoordinatorRun {
        // Scenario runs finalise through the compiled scenario so the
        // epoch-barrier epidemic fold lands in the report (and its
        // digest), exactly as the in-process runner does.
        report: merged.into_report_with(cfg.scenario.as_deref()),
        wall_s: start.elapsed().as_secs_f64(),
        stats,
        progress: board.workers,
        epoch_contacts: board.epoch_contacts.into_iter().collect(),
    })
}

/// `Write` adapter taking the record-file mutex per frame.
struct LockedWriter<'a>(&'a Mutex<std::fs::File>);

impl Write for LockedWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("record file lock").write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("record file lock").flush()
    }
}

fn run_in_process(args: &Args, threads: usize) -> (FleetReport, f64) {
    let cfg = fleet_config(args, threads);
    let start = Instant::now();
    let report = cfg.run();
    (report, start.elapsed().as_secs_f64())
}

fn print_report(report: &FleetReport, parallelism: &str, wall_s: f64) {
    println!(
        "fleet: {} devices on {parallelism}: {:.1} simulated days, {} events in {:.2} s wall",
        report.device_count,
        report.simulated_s / 86_400.0,
        report.events,
        wall_s
    );
    println!(
        "  throughput: {:.0} simulated-seconds per wall-second ({:.1} device-days/s)",
        report.simulated_s / wall_s.max(1e-9),
        report.simulated_s / 86_400.0 / wall_s.max(1e-9)
    );
    for stats in report.policies.iter().filter(|s| s.devices > 0) {
        println!(
            "  {:<10} {:>3} devices  {:>9.0} det/day  {:>5.1}% brown-out  {:>5.1}% mean final SoC  {:>6.2}% uptime",
            stats.name,
            stats.devices,
            stats.detections_per_day,
            stats.brown_out_rate * 100.0,
            stats.mean_final_soc * 100.0,
            stats.mean_uptime * 100.0
        );
    }
    let rel = &report.reliability;
    println!(
        "  reliability: {:.2}% mean uptime, {} gated windows, {} skipped acquisitions, {} brownouts (mean recovery {:.1} s)",
        report.mean_uptime * 100.0,
        rel.degraded_windows,
        rel.skipped_acquisitions,
        rel.brownouts,
        rel.mean_recovery_s()
    );
    if rel.sync_episodes > 0 {
        println!(
            "  ble sync: {} episodes, {} ok ({} retried), {} dropped",
            rel.sync_episodes, rel.sync_ok, rel.sync_retried, rel.sync_dropped
        );
    }
    let episodes: Vec<String> = report
        .faults
        .iter_nonzero()
        .map(|(kind, count)| format!("{} {count}", kind.label()))
        .collect();
    if !episodes.is_empty() {
        println!("  fault episodes: {}", episodes.join(", "));
    }
    if let Some(scn) = &report.scenario {
        println!(
            "  contacts: {} observed, {} missed, {} uplinked, {} edges, {:.4} J scan energy",
            scn.contacts_observed,
            scn.contacts_missed,
            scn.contacts_uplinked,
            scn.edge_count,
            scn.scan_energy_j
        );
        if let Some(epi) = &scn.epidemic {
            println!(
                "  epidemic: {} seeded -> {} infected ({:.1}% attack rate)",
                epi.seeded,
                epi.infected,
                epi.attack_rate(report.device_count as u64) * 100.0
            );
        }
    }
    println!(
        "  max |conservation drift|: {:.1e} J",
        report.max_conservation_j
    );
    println!("  digest: {:016x}", report.digest);
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
    } else {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    }
}

/// Exports the fleet metrics snapshot plus a coordinator runtime
/// section: Prometheus text exposition, or JSON when `path` ends in
/// `.json`. Prints the histogram summary table to stdout.
fn write_metrics(
    path: &str,
    report: &FleetReport,
    wall_s: f64,
    worker_stats: &[WorkerStats],
) -> Result<(), String> {
    let reg = Registry::new();
    reg.gauge("fleet_wall_seconds", &[]).set(wall_s);
    reg.gauge("fleet_device_days_per_wall_second", &[])
        .set(report.simulated_s / 86_400.0 / wall_s.max(1e-9));
    for (shard, s) in worker_stats.iter().enumerate() {
        let shard = shard.to_string();
        let labels = [("shard", shard.as_str())];
        reg.counter("fleet_worker_records", &labels).add(s.records);
        reg.gauge("fleet_worker_wall_seconds", &labels)
            .set(s.wall_s);
        if let Some(rss) = s.peak_rss_bytes {
            reg.gauge("fleet_worker_peak_rss_bytes", &labels)
                .set(rss as f64);
        }
    }
    let mut snap = fleet_snapshot(report);
    snap.extend(reg.snapshot());
    let body = if path.ends_with(".json") {
        snap.to_json()
    } else {
        snap.to_prometheus()
    };
    std::fs::write(path, &body).map_err(|e| format!("--metrics {path}: {e}"))?;
    println!(
        "  metrics: {} samples exported to {path} ({} bytes)",
        snap.samples.len(),
        body.len()
    );
    print!("{}", snap.render_table());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            flog("coordinator", "args", &e);
            std::process::exit(2);
        }
    };

    if let Some((shard, of)) = args.shard {
        // Worker mode: frames on stdout, nothing else.
        if let Err(e) = run_worker(&args, shard, of) {
            flog(&format!("worker {shard}/{of}"), "stream", &e.to_string());
            std::process::exit(1);
        }
        return;
    }

    let mut worker_progress: Vec<WorkerProgress> = Vec::new();
    let (report, wall_s, parallelism) = if args.workers > 0 {
        let run = match run_coordinator(&args) {
            Ok(r) => r,
            Err(e) => {
                flog("coordinator", "run", &e);
                std::process::exit(1);
            }
        };
        let CoordinatorRun {
            report,
            wall_s,
            stats: worker_stats,
            progress,
            epoch_contacts,
        } = run;
        worker_progress = progress;
        let label = format!("{} worker process(es)", worker_stats.len());
        print_report(&report, &label, wall_s);
        let records: u64 = worker_stats.iter().map(|s| s.records).sum();
        println!(
            "  streamed: {records} records across {} workers (coordinator re-fold verified)",
            worker_stats.len()
        );
        if !epoch_contacts.is_empty() {
            let total: u64 = epoch_contacts.iter().map(|&(_, c)| c).sum();
            let &(peak_epoch, peak) = epoch_contacts
                .iter()
                .max_by_key(|&&(_, c)| c)
                .expect("non-empty epoch beats");
            println!(
                "  epoch beats: {total} contacts across {} epochs (peak {peak} in epoch {peak_epoch})",
                epoch_contacts.len()
            );
        }
        for (shard, s) in worker_stats.iter().enumerate() {
            println!(
                "  worker {shard}: {} records, peak RSS {}, {:.2} s wall ({:.1} device-days/s)",
                s.records,
                human_rss(s.peak_rss_bytes),
                s.wall_s,
                s.records as f64
                    * (report.simulated_s / 86_400.0 / report.device_count.max(1) as f64)
                    / s.wall_s.max(1e-9),
            );
        }
        println!(
            "  coordinator peak RSS {} (records streamed, never retained)",
            human_rss(peak_rss_bytes())
        );
        if let Some(path) = &args.metrics {
            if let Err(e) = write_metrics(path, &report, wall_s, &worker_stats) {
                flog("coordinator", "metrics", &e);
                std::process::exit(1);
            }
        }
        (report, wall_s, label)
    } else {
        let (report, wall_s) = run_in_process(&args, args.threads);
        let label = format!("{} thread(s)", args.threads);
        print_report(&report, &label, wall_s);
        if let Some(path) = &args.metrics {
            if let Err(e) = write_metrics(path, &report, wall_s, &[]) {
                flog("coordinator", "metrics", &e);
                std::process::exit(1);
            }
        }
        (report, wall_s, label)
    };

    if let Some(path) = &args.trace {
        let cfg = fleet_config(&args, 1);
        let k = args.trace_devices.min(args.devices);
        let mut groups: Vec<(String, Recorder)> = (0..k)
            .map(|index| {
                let mut rec = Recorder::new();
                let r = cfg.run_device_traced(index, &mut rec);
                let name = format!("device {index} · {}/{}/{}", r.env, r.subject, r.policy);
                (name, rec)
            })
            .collect();
        // Heartbeat history from a worker run becomes a "fleet
        // progress" process group: one devices-done counter track per
        // worker, timestamped in worker wall-clock µs.
        if worker_progress.iter().any(|w| !w.series.is_empty()) {
            let mut rec = Recorder::new();
            for (shard, w) in worker_progress.iter().enumerate() {
                rec.counter_series(&format!("worker {shard}"), "devices done", 1.0, &w.series);
            }
            groups.push(("fleet progress".to_string(), rec));
        }
        let json = merged_chrome_trace(&mut groups);
        if let Err(e) = std::fs::write(path, &json) {
            flog("coordinator", "trace", &format!("--trace {path}: {e}"));
            std::process::exit(1);
        }
        println!(
            "  trace: {} process group(s) written to {path} ({} bytes)",
            groups.len(),
            json.len()
        );
    }

    if args.check {
        let (serial, serial_wall) = run_in_process(&args, 1);
        println!(
            "check: serial rerun {:.2} s wall ({:.0} sim-s/wall-s, {:.2}x speedup over serial)",
            serial_wall,
            serial.simulated_s / serial_wall.max(1e-9),
            serial_wall / wall_s.max(1e-9)
        );
        if serial.digest == report.digest {
            println!(
                "check: OK — digest {:016x} identical on 1 thread and {parallelism}",
                report.digest
            );
        } else {
            flog(
                "coordinator",
                "check",
                &format!(
                    "FAILED — digest {:016x} on {parallelism} vs {:016x} serial",
                    report.digest, serial.digest
                ),
            );
            std::process::exit(1);
        }
    }
}
