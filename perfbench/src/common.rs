//! Shared plumbing: the metric catalogue, the run report and its JSON
//! line, order statistics, in-memory spans and process RSS.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use iw_sim::{FleetReport, ReliabilityCounters};
use iw_trace::{Recorder, TraceSink, TrackId};

use crate::Args;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// What a "job" and a "simulated op" are depends on the workload (see
/// the README).
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("ns_per_sim_op", "ns"),
    ("job_ms.p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Network and target keys of the eight ISS rows, in table order.
pub const NETS: [&str; 2] = ["neta", "netb"];
/// Target keys in `FixedTarget::paper_targets()` order.
pub const TARGETS: [&str; 4] = ["m4", "ibex", "riscy", "cl8"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer that is not on a workload's path reports 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 36] = [
        ("sim.run_device.busy_s", "s"),
        ("sim.run_device.share", "ratio"),
        ("sim.run_device.ns_per_event", "ns"),
        ("sim.run_device.ms_tail", "ms"),
        ("sim.events_per_device_day", "count"),
        ("sim.fold.us_per_device", "us"),
        ("sim.report_ms", "ms"),
        ("sim.sync_ok_ratio", "ratio"),
        ("sim.acq_useful_ratio", "ratio"),
        ("policy.target_m4", "count"),
        ("policy.target_ibex", "count"),
        ("policy.target_cluster", "count"),
        ("policy.backoff_skips", "count"),
        ("policy.sync_stretches", "count"),
        ("bench.target_jobs_s", "s"),
        ("bench.fleet_config_s", "s"),
        ("record.encode_us", "us"),
        ("record.decode_us", "us"),
        ("record.bytes_per_record", "B"),
        ("record.aggregate_bytes", "B"),
        ("record.aggregate_codec_ms", "ms"),
        ("scenario.compile_s", "s"),
        ("scenario.epidemic_ms", "ms"),
        ("scenario.edges", "count"),
        ("scenario.contacts_observed_ratio", "ratio"),
        ("coord.worker_wall_s.max", "s"),
        ("coord.worker_wall_s.min", "s"),
        ("coord.straggler_ratio", "ratio"),
        ("coord.tail_s", "s"),
        ("coord.records", "count"),
        ("coord.rss_mib", "MiB"),
        ("iss.minstr_per_s.single", "Minstr/s"),
        ("iss.minstr_per_s.cluster", "Minstr/s"),
        ("iss.paper_err_pct", "%"),
        ("trace.overhead_frac", "ratio"),
        ("failed_frac", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for net in NETS {
        for target in TARGETS {
            out.push((format!("iss.{net}.{target}.minstr_per_s"), "Minstr/s"));
            out.push((format!("iss.{net}.{target}.instructions"), "count"));
            out.push((format!("iss.{net}.{target}.cycles"), "count"));
            out.push((format!("kernels.deploy_ms.{net}.{target}"), "ms"));
        }
        out.push((format!("iss.{net}.cl8.busy_frac"), "ratio"));
    }
    out
}

/// Conservation drift a device may show, joules: `|initial + stored −
/// consumed − final|` sits at float roundoff (~1e-10 J) on every paper
/// configuration, so a drift this large means lost energy bookkeeping.
pub const CONSERVATION_BOUND_J: f64 = 1e-6;

/// Whether a device's conservation drift is within bound (NaN is not).
pub fn conserves(drift_j: f64) -> bool {
    drift_j <= CONSERVATION_BOUND_J
}

/// Exact device-outcome counters summed over fleet reports; a change to
/// the host side alone must leave every one of them identical.
#[derive(Default, Clone)]
pub struct Outcomes {
    detections: u64,
    target: [u64; 3],
    backoff_skips: u64,
    sync_stretches: u64,
    reliability: ReliabilityCounters,
}

impl Outcomes {
    /// Adds every policy of `fleet`.
    pub fn add(&mut self, fleet: &FleetReport) {
        for p in &fleet.policies {
            self.detections += p.detections;
            self.target[0] += p.target_m4;
            self.target[1] += p.target_ibex;
            self.target[2] += p.target_cluster;
            self.backoff_skips += p.backoff_skips;
            self.sync_stretches += p.sync_stretches;
        }
        self.reliability.merge(&fleet.reliability);
    }

    /// The `policy.*` counts and the `sim.*` useful-to-attempted ratios.
    /// An acquisition is attempted when it detects, is skipped (brownout
    /// or fault backoff) or is discarded by the signal-quality gate.
    pub fn layers(&self, report: &mut Report) {
        let rel = &self.reliability;
        report.layer("policy.target_m4", self.target[0] as f64);
        report.layer("policy.target_ibex", self.target[1] as f64);
        report.layer("policy.target_cluster", self.target[2] as f64);
        report.layer("policy.backoff_skips", self.backoff_skips as f64);
        report.layer("policy.sync_stretches", self.sync_stretches as f64);
        report.layer(
            "sim.sync_ok_ratio",
            rel.sync_ok as f64 / rel.sync_episodes.max(1) as f64,
        );
        let attempts =
            self.detections + rel.skipped_acquisitions + self.backoff_skips + rel.degraded_windows;
        report.layer(
            "sim.acq_useful_ratio",
            self.detections as f64 / attempts.max(1) as f64,
        );
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Items whose outputs were checked (devices, classifications).
    pub attempted: u64,
    /// Items that failed a check.
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub failures: Vec<String>,
    /// The workload's determinism digest (exact, seed-dependent).
    pub digest: u64,
    /// Human-readable metrics: `(name, value, unit, samples)`.
    pub lines: Vec<(String, f64, &'static str, String)>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<String, f64>,
}

impl Report {
    /// Records a failed check on `items` items.
    pub fn fail(&mut self, items: u64, why: String) {
        self.failed += items;
        self.failures.push(why);
    }

    /// Adds a human-readable metric line.
    pub fn line(&mut self, name: &str, value: f64, unit: &'static str, samples: impl Into<String>) {
        self.lines
            .push((name.to_string(), value, unit, samples.into()));
    }

    /// Adds the median and tail lines of a latency sample, in ms.
    pub fn latency_lines(&mut self, name: &str, ms: &[f64]) {
        let n = format!("n={}", ms.len());
        self.line(&format!("{name}.p50"), median(ms), "ms", n.clone());
        let (label, value) = tail(ms);
        if label != "p50" {
            self.line(&format!("{name}.{label}"), value, "ms", n);
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Checks the combined digest against an expected one, if given; a
    /// mismatch fails every attempted item.
    pub fn expect_digest(&mut self, expected: Option<u64>) {
        if let Some(want) = expected.filter(|&want| want != self.digest) {
            let items = self.attempted;
            self.fail(
                items,
                format!("digest {:016x} != expected {want:016x}", self.digest),
            );
        }
    }

    /// Share of attempted items that failed a check.
    pub fn failed_frac(&self) -> f64 {
        self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// The result line: one JSON object with the end-to-end metrics
    /// (untraced run) or the per-layer metrics (traced run). Missing or
    /// non-finite values are failures, never silently printed.
    pub fn json(&mut self, traced: bool) -> String {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let value = if traced {
                // A layer off this workload's path did no work here.
                Some(self.layers.get(&name).copied().unwrap_or(0.0))
            } else {
                self.e2e.get(name.as_str()).copied()
            };
            let value = match value {
                Some(v) if v.is_finite() => v,
                other => {
                    self.fail(0, format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted),
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p99.9/p99/p90 with at least ten samples beyond it, as
/// `(label, value)`; the median when there are fewer than 100 samples.
pub fn tail(xs: &[f64]) -> (&'static str, f64) {
    let n = xs.len() as f64;
    for (label, q) in [("p999", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        if n * (1.0 - q) >= 10.0 {
            return (label, quantile(xs, q));
        }
    }
    ("p50", median(xs))
}

/// Smallest of `xs` (infinity when empty).
pub fn min_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Element-wise minimum over repetitions of the same items: each item's
/// fastest repetition. The shared host alternates, on a scale of
/// seconds, between its normal speed and a mode about 1.7× slower; an
/// item repeated across a run nearly always gets one repetition in the
/// fast mode, so these minima hold still where medians follow the share
/// of slow seconds.
pub fn fastest<'a>(reps: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for rep in reps {
        if best.is_empty() {
            best = rep.to_vec();
        }
        for (b, &x) in best.iter_mut().zip(rep) {
            *b = b.min(x);
        }
    }
    best
}

/// Runs closed-loop steps for the run's stated time, at least once.
/// Untraced runs call `step(false)` throughout; traced runs alternate
/// `step(false)` and `step(true)`, so the untraced and traced halves
/// see the same host conditions and their difference is the tracing
/// overhead. Returns `(untraced, traced)` results.
pub fn measure<T>(args: &Args, mut step: impl FnMut(bool) -> T) -> (Vec<T>, Vec<T>) {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        plain.push(step(false));
        if args.trace {
            traced.push(step(true));
        }
        if start.elapsed() >= budget {
            return (plain, traced);
        }
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a step over a `u64`, for combined digests.
pub fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// In-memory spans recorded around the benchmark's calls into each
/// layer, stamped in nanoseconds since the recorder was created and
/// written out as one Perfetto timeline when the run ends.
pub struct Spans {
    rec: Recorder,
    base: Instant,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            rec: Recorder::new(),
            base: Instant::now(),
        }
    }

    /// A named track (one per layer group) with nanosecond ticks.
    pub fn track(&mut self, name: &str) -> TrackId {
        self.rec.track(name, 1e3)
    }

    fn tick(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    /// Records `[start, end)` as span `name` on `track`.
    pub fn span(&mut self, track: TrackId, name: &'static str, start: Instant, end: Instant) {
        let (s, e) = (self.tick(start), self.tick(end));
        self.rec.span(track, name, s, e);
    }

    /// Total seconds covered by spans `name` on `track`.
    pub fn total_s(&self, track: TrackId, name: &str) -> f64 {
        self.rec.span_ticks(track, name) as f64 * 1e-9
    }

    /// Writes the timeline as Chrome-trace JSON to
    /// `perfbench/out/<workload>-seed<N>.trace.json`; a failed write fails
    /// the run.
    pub fn save(mut self, args: &Args, report: &mut Report) {
        let written = out_dir().and_then(|dir| {
            let name = format!("{}-seed{}.trace.json", args.workload.name(), args.seed);
            std::fs::write(dir.join(name), self.rec.chrome_trace_json())
        });
        if let Err(e) = written {
            report.fail(0, format!("trace write: {e}"));
        }
    }
}

/// The checkout root (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The benchmark's own output area (traces, fleet metrics exports),
/// created on first use and ignored by git.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
