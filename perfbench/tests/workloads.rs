//! The benchmark's own test: every workload at a tiny size. Each test
//! uses its own seeds, so tests running in parallel never share an
//! output file.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["policy-sweep", "fleet-stream", "iss-classify"];
const END_TO_END: [&str; 5] = [
    "jobs_per_s",
    "ns_per_sim_op",
    "job_ms.p50",
    "peak_rss_mib",
    "setup_s",
];

/// The result line of one run.
struct Outcome {
    success: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: String,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
    }
}

fn bench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let digest = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("digest: "))
        .expect("a digest line")
        .to_string();
    let line = stdout.lines().last().expect("a result line");
    let field = |key: &str| -> &str {
        let start = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let end = start + line[start..].find([',', '}']).expect("field end");
        &line[start..end]
    };
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name");
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .expect("metric value");
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .expect("metric unit");
        metrics.push((
            name.to_string(),
            value.parse().expect("numeric value"),
            unit.to_string(),
        ));
    }
    Outcome {
        success: out.status.success(),
        correct: field("correct") == "true",
        attempted: field("attempted").parse().expect("attempted"),
        failed: field("failed").parse().expect("failed"),
        digest,
        metrics,
    }
}

#[test]
fn every_metric_is_present_finite_and_has_a_unit() {
    for workload in WORKLOADS {
        let plain = bench(workload, 11, false, &[]);
        assert!(
            plain.success && plain.correct && plain.failed == 0,
            "{workload}"
        );
        assert!(plain.attempted > 0);
        let names: Vec<&str> = plain.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END, "{workload}");
        for (name, value, unit) in &plain.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
            assert!(!unit.is_empty(), "{workload} {name}");
        }

        let traced = bench(workload, 11, true, &[]);
        assert!(traced.success && traced.correct, "{workload}");
        assert!(traced.metrics.len() > 60, "{workload}");
        for (name, value, unit) in &traced.metrics {
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert!(!unit.is_empty(), "{workload} {name}");
        }
        // Each workload reaches its own layers.
        let own: &[&str] = match workload {
            "policy-sweep" => &["sim.events_per_device_day", "bench.fleet_config_s"],
            "fleet-stream" => &["record.bytes_per_record", "scenario.edges", "coord.records"],
            _ => &["iss.netb.cl8.cycles", "iss.neta.m4.minstr_per_s"],
        };
        for name in own {
            assert!(traced.get(name) > 0.0, "{workload} {name}");
        }
    }
}

#[test]
fn exact_counts_and_digests_repeat_bit_for_bit() {
    for workload in WORKLOADS {
        let a = bench(workload, 12, true, &[]);
        let b = bench(workload, 12, true, &[]);
        assert!(a.correct && b.correct, "{workload}");
        assert_eq!(a.digest, b.digest, "{workload}");
        let exact = |o: &Outcome| -> Vec<(String, u64)> {
            o.metrics
                .iter()
                .filter(|(_, _, unit)| unit == "count" || unit == "B")
                .map(|(name, value, _)| (name.clone(), value.to_bits()))
                .collect()
        };
        assert_eq!(exact(&a), exact(&b), "{workload}");
        if workload == "fleet-stream" {
            assert_eq!(a.get("coord.records"), 8.0, "one record per device");
        }
    }
}

#[test]
fn a_wrong_expected_digest_fails_the_run() {
    for workload in WORKLOADS {
        let run = bench(workload, 13, false, &["--expect-digest", "0"]);
        assert!(!run.success, "{workload} must exit non-zero");
        assert!(!run.correct, "{workload}");
        assert!(run.failed > 0 && run.failed <= run.attempted, "{workload}");
    }
}
