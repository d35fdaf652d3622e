//! `fleet-stream`: the shipped `fleet` binary as coordinator with two
//! worker processes, playing the epidemic scenario under harsh faults.
//! Coordinator runs repeat, closed loop, for the stated time; every run
//! must stream one record per device and land on the same digest as an
//! in-process fold of the same devices (topology invariance).

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use iw_bench::d4_fleet_config;
use iw_sim::record::{
    decode_aggregate, decode_stream_frame, encode_aggregate, encode_result, read_frame,
    write_frame, StreamFrame,
};
use iw_sim::{run_epidemic, DeviceResult, FaultProfile, FleetAggregate, FleetConfig, Scenario};
use iw_trace::TrackId;

use crate::common::{
    conserves, fastest, measure, median, min_of, out_dir, repo_root, secs, tail, Outcomes, Report,
    Spans,
};
use crate::Args;

const DEVICES: usize = 64;
const TINY_DEVICES: usize = 8;
/// Worker processes; fixed so results compare across hosts.
const WORKERS: usize = 2;

/// Builds (or finds up to date) the `fleet` binary of this checkout and
/// returns its path. Cargo resolves a relative `CARGO_TARGET_DIR`
/// against the working directory, and so does this.
pub fn fleet_binary() -> Result<PathBuf, String> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "iw-bench",
            "--bin",
            "fleet",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build of the fleet binary exited with {status}"
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("fleet"))
}

/// One coordinator run as the benchmark observed it.
struct CoordRun {
    wall_s: f64,
    digest: u64,
    records: u64,
    rss_mib: f64,
    conservation_j: f64,
    events: u64,
    days: f64,
    worker_wall_s: Vec<f64>,
    worker_rss_mib: Vec<f64>,
}

/// Runs the coordinator once, draining its stdout to EOF (the binary
/// panics on a closed stdout pipe), and reads its printed summary plus
/// its metrics export.
fn coordinate(bin: &Path, devices: usize, seed: u64, out: &Path) -> Result<CoordRun, String> {
    let metrics = out.join(format!("fleet-seed{seed}.prom"));
    let log = std::fs::File::create(out.join(format!("fleet-seed{seed}.stderr")))
        .map_err(|e| format!("stderr log: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args([
            "--workers",
            &WORKERS.to_string(),
            "--devices",
            &devices.to_string(),
        ])
        .args(["--scenario", "epidemic", "--faults", "harsh"])
        .args(["--seed", &seed.to_string()])
        .arg("--metrics")
        .arg(&metrics)
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stdout = String::new();
    let drained = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let status = child.wait().map_err(|e| format!("wait fleet: {e}"))?;
    let wall_s = secs(start, Instant::now());
    drained.map_err(|e| format!("read fleet stdout: {e}"))?;
    if !status.success() {
        return Err(format!("fleet exited with {status}"));
    }
    let mut run = CoordRun {
        wall_s,
        digest: 0,
        records: 0,
        rss_mib: 0.0,
        conservation_j: f64::NAN,
        events: 0,
        days: 0.0,
        worker_wall_s: Vec::new(),
        worker_rss_mib: Vec::new(),
    };
    for line in stdout.lines().map(str::trim) {
        if let Some(hex) = line.strip_prefix("digest: ") {
            run.digest = u64::from_str_radix(hex, 16).map_err(|e| format!("digest: {e}"))?;
        } else if let Some(rest) = line.strip_prefix("streamed: ") {
            run.records = first_number(rest)? as u64;
        } else if let Some(rest) = line.strip_prefix("coordinator peak RSS ") {
            let scale = if rest.contains("GiB") { 1024.0 } else { 1.0 };
            run.rss_mib = first_number(rest)? * scale;
        }
    }
    let text = std::fs::read_to_string(&metrics).map_err(|e| format!("metrics export: {e}"))?;
    let mut exported_digest = None;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().map_err(|e| format!("metric {key}: {e}"))?;
        let name = key.split('{').next().unwrap_or(key);
        match name {
            "fleet_events_total" => run.events = value as u64,
            "fleet_simulated_seconds" => run.days = value / 86_400.0,
            "fleet_max_conservation_joules" => run.conservation_j = value,
            "fleet_worker_wall_seconds" => run.worker_wall_s.push(value),
            "fleet_worker_peak_rss_bytes" => run.worker_rss_mib.push(value / (1024.0 * 1024.0)),
            "fleet_digest_info" => {
                exported_digest = key
                    .split('"')
                    .nth(1)
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok());
            }
            _ => {}
        }
    }
    if exported_digest != Some(run.digest) {
        return Err(format!(
            "printed digest {:016x} != exported {exported_digest:x?}",
            run.digest
        ));
    }
    if run.worker_wall_s.len() != WORKERS || run.events == 0 {
        return Err("metrics export lacks worker or event totals".into());
    }
    Ok(run)
}

fn first_number(s: &str) -> Result<f64, String> {
    s.split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("no number in '{s}'"))
}

/// Checks coordinator runs: one record per device, conservation within
/// bound, and every digest equal to `reference`. Returns the good runs.
fn check_runs(
    runs: Vec<Result<CoordRun, String>>,
    devices: usize,
    reference: u64,
    report: &mut Report,
) -> Vec<CoordRun> {
    let mut good = Vec::new();
    for (k, run) in runs.into_iter().enumerate() {
        report.attempted += devices as u64;
        match run {
            Err(e) => report.fail(devices as u64, format!("coordinator run {k}: {e}")),
            Ok(r) if r.records != devices as u64 => report.fail(
                devices as u64,
                format!(
                    "coordinator run {k}: {} records for {devices} devices",
                    r.records
                ),
            ),
            Ok(r) if !conserves(r.conservation_j) => report.fail(
                devices as u64,
                format!(
                    "coordinator run {k}: conservation drift {} J",
                    r.conservation_j
                ),
            ),
            Ok(r) if r.digest != reference => report.fail(
                devices as u64,
                format!(
                    "coordinator run {k}: digest {:016x} != in-process {reference:016x}",
                    r.digest
                ),
            ),
            Ok(r) => good.push(r),
        }
    }
    good
}

fn slowest_worker_s(run: &CoordRun) -> f64 {
    run.worker_wall_s.iter().copied().fold(0.0, f64::max)
}

/// A coordinator run with every part at its fastest repetition: the
/// slowest shard's best worker wall plus the best coordinator tail
/// (spawn, the workers' set-up, merge, report). Each worker has a vCPU
/// of its own, and each vCPU drifts in and out of the host's slow mode
/// independently, so a whole run seldom sees both at full speed while
/// each part alone nearly always does once.
fn best_run_s(runs: &[CoordRun]) -> f64 {
    let shard_best = fastest(runs.iter().map(|r| r.worker_wall_s.as_slice()));
    let tail = min_of(runs.iter().map(|r| r.wall_s - slowest_worker_s(r)));
    shard_best.iter().copied().fold(0.0, f64::max) + tail
}

/// The in-process reference: the same devices folded on one thread.
/// With spans, every record also round-trips through the wire codec
/// (frame encode, frame decode) before it is folded, and the aggregate
/// through its own codec, as worker and coordinator do.
struct InProcess {
    digest: u64,
    wall_s: f64,
    events: u64,
    days: f64,
    device_ms: Vec<f64>,
    record_bytes: usize,
    aggregate_bytes: usize,
    outcomes: Outcomes,
    edges: u64,
    observed_ratio: f64,
}

fn in_process(
    cfg: &FleetConfig,
    mut spans: Option<&mut (Spans, TrackId)>,
    report: &mut Report,
) -> InProcess {
    let start = Instant::now();
    let mut agg = FleetAggregate::new(cfg);
    let (mut events, mut days, mut record_bytes) = (0, 0.0, 0);
    let mut device_ms = Vec::new();
    let mut frame = Vec::new();
    for index in 0..cfg.devices {
        let t0 = Instant::now();
        let result = cfg.run_device(index);
        let t1 = Instant::now();
        device_ms.push(secs(t0, t1) * 1e3);
        events += result.events;
        days += result.days;
        report.attempted += 1;
        if !conserves(result.conservation_j) {
            report.fail(
                1,
                format!(
                    "device {index}: conservation drift {} J",
                    result.conservation_j
                ),
            );
        }
        let Some((s, track)) = spans.as_deref_mut() else {
            agg.fold(result);
            continue;
        };
        s.span(*track, "run_device", t0, t1);
        frame.clear();
        let t2 = Instant::now();
        let written = write_frame(&mut frame, &encode_result(&result));
        let t3 = Instant::now();
        let decoded = written
            .and_then(|()| read_frame(&mut frame.as_slice()))
            .and_then(|buf| decode_stream_frame(&buf.unwrap_or_default()));
        let t4 = Instant::now();
        s.span(*track, "encode_result", t2, t3);
        s.span(*track, "decode_stream_frame", t3, t4);
        record_bytes += frame.len();
        let decoded: Option<DeviceResult> = match decoded {
            Ok(StreamFrame::Result(r)) if r == result => Some(r),
            Ok(_) => {
                report.fail(1, format!("device {index}: record round trip changed it"));
                None
            }
            Err(e) => {
                report.fail(1, format!("device {index}: record round trip: {e}"));
                None
            }
        };
        let t5 = Instant::now();
        agg.fold(decoded.unwrap_or(result));
        s.span(*track, "fold", t5, Instant::now());
    }
    let mut aggregate_bytes = 0;
    if let Some((s, track)) = spans.as_deref_mut() {
        let t0 = Instant::now();
        let bytes = encode_aggregate(&agg);
        let t1 = Instant::now();
        let back = decode_aggregate(&bytes);
        s.span(*track, "encode_aggregate", t0, t1);
        s.span(*track, "decode_aggregate", t1, Instant::now());
        aggregate_bytes = bytes.len();
        if !matches!(back, Ok(ref b) if *b == agg) {
            report.fail(0, "aggregate codec round trip changed the aggregate".into());
        }
        if let Some(scenario) = cfg.scenario.as_deref() {
            let t0 = Instant::now();
            std::hint::black_box(run_epidemic(scenario, &agg.edges));
            s.span(*track, "run_epidemic", t0, Instant::now());
        }
    }
    let t0 = Instant::now();
    let fleet = agg.into_report_with(cfg.scenario.as_deref());
    if let Some((s, track)) = spans {
        s.span(*track, "into_report_with", t0, Instant::now());
    }
    let mut outcomes = Outcomes::default();
    outcomes.add(&fleet);
    let (edges, observed_ratio) = fleet.scenario.as_ref().map_or((0, 0.0), |s| {
        let seen = s.contacts_observed as f64;
        (
            s.edge_count,
            seen / (seen + s.contacts_missed as f64).max(1.0),
        )
    });
    InProcess {
        digest: fleet.digest,
        wall_s: secs(start, Instant::now()),
        events,
        days,
        device_ms,
        record_bytes,
        aggregate_bytes,
        outcomes,
        edges,
        observed_ratio,
    }
}

/// One closed-loop step: a set-up, then one coordinator run. Untraced,
/// the set-up is what every worker repays (`d4_fleet_config`: the
/// scenario compile plus the D3 cell's measured detection budget);
/// traced, it is the bare `Scenario::compile`, and both parts get spans.
fn step(
    bin: &Path,
    devices: usize,
    seed: u64,
    out: &Path,
    spans: Option<&mut (Spans, TrackId)>,
) -> (f64, Result<CoordRun, String>) {
    let t0 = Instant::now();
    if spans.is_some() {
        std::hint::black_box(Scenario::epidemic(devices, seed).compile());
    } else {
        std::hint::black_box(d4_fleet_config(devices, 1, seed, FaultProfile::Harsh));
    }
    let t1 = Instant::now();
    let run = coordinate(bin, devices, seed, out);
    if let Some((s, track)) = spans {
        s.span(*track, "Scenario::compile", t0, t1);
        s.span(*track, "fleet coordinator", t1, Instant::now());
    }
    (secs(t0, t1), run)
}

pub fn run(args: &Args, bin: &Path, report: &mut Report) {
    let devices = if args.tiny { TINY_DEVICES } else { DEVICES };
    let out = match out_dir() {
        Ok(dir) => dir,
        Err(e) => return report.fail(0, format!("output area: {e}")),
    };
    let cfg = d4_fleet_config(devices, 1, args.seed, FaultProfile::Harsh);

    let mut spans = (Spans::new(), TrackId::default());
    spans.1 = spans.0.track("fleet-stream");
    let (runs, traced) = measure(args, |traced| {
        step(bin, devices, args.seed, &out, traced.then_some(&mut spans))
    });
    let (setup_s, runs): (Vec<f64>, Vec<_>) = runs.into_iter().unzip();
    let (compile_s, traced): (Vec<f64>, Vec<_>) = traced.into_iter().unzip();

    let reference = in_process(&cfg, args.trace.then_some(&mut spans), report);
    report.digest = reference.digest;
    let runs = check_runs(runs, devices, reference.digest, report);
    if runs.is_empty() {
        return;
    }

    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let best_s = best_run_s(&runs);
    let (days, events) = (runs[0].days, runs[0].events as f64);
    let worker_rss = median(
        &runs
            .iter()
            .map(|r| r.worker_rss_mib.iter().copied().fold(0.0, f64::max))
            .collect::<Vec<_>>(),
    );
    let coord_rss = median(&runs.iter().map(|r| r.rss_mib).collect::<Vec<_>>());
    let setup_s = min_of(setup_s);
    let n = format!("n={} coordinator runs", runs.len());
    report.line("device_days_per_s", days / best_s, "1/s", n.clone());
    report.line(
        "device_days_per_s.median",
        days / median(&walls),
        "1/s",
        n.clone(),
    );
    report.line("ns_per_event", best_s * 1e9 / events, "ns", n.clone());
    report.line("fleet_ms.p50", median(&walls) * 1e3, "ms", n.clone());
    report.line(
        "peak_rss_mib",
        worker_rss,
        "MiB",
        format!("largest of {WORKERS} workers"),
    );
    report.line("coordinator_rss_mib", coord_rss, "MiB", n.clone());
    report.line("setup_s", setup_s, "s", n);
    report.e2e.insert("jobs_per_s", days / best_s);
    report.e2e.insert("ns_per_sim_op", best_s * 1e9 / events);
    report.e2e.insert("job_ms.p50", best_s * 1e3);
    report.e2e.insert("peak_rss_mib", worker_rss);
    report.e2e.insert("setup_s", setup_s);

    if !args.trace {
        return;
    }
    let (s, track) = &spans;
    let traced = check_runs(traced, devices, reference.digest, report);
    if traced.is_empty() {
        return;
    }

    let run_s = s.total_s(*track, "run_device");
    let records = devices as f64;
    report.layer("sim.run_device.busy_s", run_s);
    report.layer("sim.run_device.share", run_s / reference.wall_s);
    report.layer(
        "sim.run_device.ns_per_event",
        run_s * 1e9 / reference.events as f64,
    );
    report.layer("sim.run_device.ms_tail", tail(&reference.device_ms).1);
    report.layer(
        "sim.events_per_device_day",
        reference.events as f64 / reference.days,
    );
    report.layer(
        "sim.fold.us_per_device",
        s.total_s(*track, "fold") * 1e6 / records,
    );
    report.layer("sim.report_ms", s.total_s(*track, "into_report_with") * 1e3);
    reference.outcomes.layers(report);
    report.layer(
        "record.encode_us",
        s.total_s(*track, "encode_result") * 1e6 / records,
    );
    report.layer(
        "record.decode_us",
        s.total_s(*track, "decode_stream_frame") * 1e6 / records,
    );
    report.layer(
        "record.bytes_per_record",
        reference.record_bytes as f64 / records,
    );
    report.layer("record.aggregate_bytes", reference.aggregate_bytes as f64);
    report.layer(
        "record.aggregate_codec_ms",
        (s.total_s(*track, "encode_aggregate") + s.total_s(*track, "decode_aggregate")) * 1e3,
    );
    report.layer("scenario.compile_s", min_of(compile_s));
    report.layer(
        "scenario.epidemic_ms",
        s.total_s(*track, "run_epidemic") * 1e3,
    );
    report.layer("scenario.edges", reference.edges as f64);
    report.layer("scenario.contacts_observed_ratio", reference.observed_ratio);
    let per_run = |f: &dyn Fn(&CoordRun) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    report.layer("coord.worker_wall_s.max", per_run(&slowest_worker_s));
    report.layer(
        "coord.worker_wall_s.min",
        per_run(&|r| {
            r.worker_wall_s
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        }),
    );
    report.layer(
        "coord.straggler_ratio",
        per_run(&|r| {
            slowest_worker_s(r) * r.worker_wall_s.len() as f64 / r.worker_wall_s.iter().sum::<f64>()
        }),
    );
    report.layer("coord.tail_s", per_run(&|r| r.wall_s - slowest_worker_s(r)));
    report.layer("coord.records", traced[0].records as f64);
    report.layer("coord.rss_mib", per_run(&|r| r.rss_mib));
    report.layer("trace.overhead_frac", best_run_s(&traced) / best_s - 1.0);
    spans.0.save(args, report);
}
