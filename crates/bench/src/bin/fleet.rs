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
//! `--workers N` re-spawns this binary N times in `--shard i/N` mode and
//! hands the children's stdouts to `iw_sim::coord`, which holds the
//! protocol: each worker serially folds its contiguous device-index
//! shard and streams every per-device record as a length-prefixed
//! binary frame (`iw_sim::record`) with heartbeats interleaved, then its
//! shard `FleetAggregate` and a stats frame (peak RSS, wall seconds,
//! record count); the coordinator checks each shard's device order,
//! re-folds every record into an independent digest that must agree
//! with the shipped aggregate, renders live progress from the
//! heartbeats and merges the shard aggregates in shard order. This file
//! parses arguments, spawns the workers, checks their exit status and
//! prints. No `Vec<DeviceResult>` exists anywhere: per-worker memory is
//! independent of `--devices`.
//!
//! `--check` reruns the sweep serially in-process and exits non-zero
//! unless the aggregate digests are bit-identical — the CI determinism
//! gate. `--faults clean|moderate|harsh` injects the named fault
//! profile. `--scenario none|epidemic` attaches the compiled epidemic
//! scenario (mobility contacts, weather fronts, gateway outages,
//! scripted infection); the report then carries the epoch-barrier
//! epidemic outcome, and a worker run prints the merged contact edges
//! per epoch. `--metrics PATH` exports the fleet metrics
//! snapshot — Prometheus text exposition, or JSON when the path ends in
//! `.json` — and prints the histogram summary table. `--trace PATH`
//! re-runs the first `--trace-devices K` devices with tracing enabled
//! and writes one Perfetto timeline with a process group per device
//! plus, after a worker run, a "fleet progress" counter group built
//! from the heartbeat series (off by default; never affects the
//! aggregate). `--record PATH` writes every streamed record frame to a
//! file (frames arrive interleaved across workers; each record carries
//! its device index).

use std::io::{BufWriter, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use iw_metrics::Value;
use iw_sim::coord::{self, Coordinated};
use iw_sim::record::WorkerStats;
use iw_sim::{fleet_snapshot, FaultProfile, FleetConfig, FleetReport};
use iw_trace::{merged_chrome_trace, Recorder};

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
                     --metrics PATH, --check)"
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

/// Logs a coordinator failure and exits with `code`.
fn fail(phase: &str, msg: &str, code: i32) -> ! {
    flog("coordinator", phase, msg);
    std::process::exit(code)
}

/// The sweep on one thread. The scenario compiles deterministically
/// from (devices, seed), so every worker process recompiles the
/// identical artifact — nothing scenario-shaped crosses the pipe but
/// the records' contact edges.
///
/// A malformed policy (e.g. energy_aware with min_soc >= 1) silently
/// degenerates into a device that never detects, so it is refused here
/// as a configuration error instead of running a mysteriously idle
/// sweep.
fn fleet_config(args: &Args) -> Result<FleetConfig, String> {
    let mut cfg = if args.scenario {
        iw_bench::d4_fleet_config(args.devices, 1, args.seed, args.faults)
    } else {
        iw_bench::d3_fleet_config(args.devices, 1, args.seed, args.faults)
    };
    for (name, spec) in &cfg.policies {
        spec.validate()
            .map_err(|e| format!("invalid policy '{name}': {e}"))?;
    }
    cfg.sample_devices = args.sample;
    Ok(cfg)
}

fn human_rss(bytes: Option<u64>) -> String {
    bytes.map_or_else(|| "n/a".to_string(), human_bytes)
}

/// Coordinator mode: spawn one copy of this binary per shard in shard
/// mode, hand their stdouts to `iw_sim::coord`, then require every
/// worker to exit cleanly.
fn run_coordinator(args: &Args, cfg: &FleetConfig) -> Result<Coordinated, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut record_file = match &args.record {
        Some(path) => Some(BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("--record {path}: {e}"))?,
        )),
        None => None,
    };
    let workers = coord::shard_count(args.devices, args.workers);
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
            .arg("--shard")
            .arg(format!("{shard}/{workers}"))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn worker {shard}: {e}"))?;
        children.push(child);
    }
    let stdouts = children
        .iter_mut()
        .map(|child| child.stdout.take().expect("piped stdout"))
        .collect();
    let sink = record_file.as_mut().map(|f| f as &mut (dyn Write + Send));
    let run = coord::coordinate(cfg, stdouts, sink)?;
    for (shard, child) in children.iter_mut().enumerate() {
        let status = child
            .wait()
            .map_err(|e| format!("wait worker {shard}: {e}"))?;
        if !status.success() {
            return Err(format!("worker {shard} exited with {status}"));
        }
    }
    if let Some(file) = &mut record_file {
        file.flush().map_err(|e| format!("--record write: {e}"))?;
    }
    Ok(run)
}

fn run_in_process(cfg: &FleetConfig, threads: usize) -> (FleetReport, f64) {
    let cfg = FleetConfig {
        threads,
        ..cfg.clone()
    };
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
    let mut snap = fleet_snapshot(report);
    snap.push("fleet_wall_seconds", &[], Value::Gauge(wall_s));
    snap.push(
        "fleet_device_days_per_wall_second",
        &[],
        Value::Gauge(report.simulated_s / 86_400.0 / wall_s.max(1e-9)),
    );
    for (shard, s) in worker_stats.iter().enumerate() {
        let shard = shard.to_string();
        let labels = [("shard", shard.as_str())];
        snap.push("fleet_worker_records", &labels, Value::Counter(s.records));
        snap.push("fleet_worker_wall_seconds", &labels, Value::Gauge(s.wall_s));
        if let Some(rss) = s.peak_rss_bytes {
            snap.push(
                "fleet_worker_peak_rss_bytes",
                &labels,
                Value::Gauge(rss as f64),
            );
        }
    }
    snap.sort();
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
    let args = parse_args().unwrap_or_else(|e| fail("args", &e, 2));
    // The coordinator's wall time includes its own config build, as a
    // worker's set-up is inside the coordinator's wall too.
    let start = Instant::now();
    let cfg = fleet_config(&args).unwrap_or_else(|e| fail("config", &e, 2));

    if let Some((shard, of)) = args.shard {
        // Worker mode: frames on stdout, nothing else.
        let stdout = std::io::stdout();
        if let Err(e) = coord::run_worker(&cfg, shard, of, &mut BufWriter::new(stdout.lock())) {
            flog(&format!("worker {shard}/{of}"), "stream", &e.to_string());
            std::process::exit(1);
        }
        return;
    }

    let mut worker_progress: Vec<Vec<(u64, f64)>> = Vec::new();
    let (report, wall_s, parallelism) = if args.workers > 0 {
        let Coordinated {
            report,
            stats: worker_stats,
            progress,
            epoch_contacts,
        } = run_coordinator(&args, &cfg).unwrap_or_else(|e| fail("run", &e, 1));
        let wall_s = start.elapsed().as_secs_f64();
        worker_progress = progress;
        let label = format!("{} worker process(es)", worker_stats.len());
        print_report(&report, &label, wall_s);
        let records: u64 = worker_stats.iter().map(|s| s.records).sum();
        println!(
            "  streamed: {records} records across {} workers (coordinator re-fold verified)",
            worker_stats.len()
        );
        if let Some(&(peak_epoch, peak)) = epoch_contacts.iter().max_by_key(|&&(_, c)| c) {
            let total: u64 = epoch_contacts.iter().map(|&(_, c)| c).sum();
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
            human_rss(coord::peak_rss_bytes())
        );
        if let Some(path) = &args.metrics {
            write_metrics(path, &report, wall_s, &worker_stats)
                .unwrap_or_else(|e| fail("metrics", &e, 1));
        }
        (report, wall_s, label)
    } else {
        let (report, wall_s) = run_in_process(&cfg, args.threads);
        let label = format!("{} thread(s)", args.threads);
        print_report(&report, &label, wall_s);
        if let Some(path) = &args.metrics {
            write_metrics(path, &report, wall_s, &[]).unwrap_or_else(|e| fail("metrics", &e, 1));
        }
        (report, wall_s, label)
    };

    if let Some(path) = &args.trace {
        let mut groups = cfg.trace_groups(args.trace_devices);
        // Heartbeat history from a worker run becomes a "fleet
        // progress" process group: one devices-done counter track per
        // worker, timestamped in worker wall-clock µs.
        if !worker_progress.is_empty() {
            let mut rec = Recorder::new();
            for (shard, series) in worker_progress.iter().enumerate() {
                rec.counter_series(&format!("worker {shard}"), "devices done", 1.0, series);
            }
            groups.push(("fleet progress".to_string(), rec));
        }
        let json = merged_chrome_trace(&mut groups);
        if let Err(e) = std::fs::write(path, &json) {
            fail("trace", &format!("--trace {path}: {e}"), 1);
        }
        println!(
            "  trace: {} process group(s) written to {path} ({} bytes)",
            groups.len(),
            json.len()
        );
    }

    if args.check {
        let (serial, serial_wall) = run_in_process(&cfg, 1);
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
            fail(
                "check",
                &format!(
                    "FAILED — digest {:016x} on {parallelism} vs {:016x} serial",
                    report.digest, serial.digest
                ),
                1,
            );
        }
    }
}
