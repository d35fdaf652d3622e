//! The coordinator's section of `fleet --metrics`: the samples the
//! `fleet` binary adds to the fleet snapshot after a coordinator/worker
//! run (wall time, throughput, and per-worker records, wall time and
//! peak RSS), in both exporters. `golden_metrics.rs` pins the snapshot
//! itself; this pins the names, kinds and labels of the runtime section
//! that benchmark harnesses parse, and that the exported
//! `fleet_digest_info` is the digest the run prints.

use std::path::PathBuf;
use std::process::Command;

const WORKERS: usize = 2;

/// Runs `fleet --workers 2 --devices 8 --metrics <file>` and returns
/// (stdout, export).
fn run_fleet(file: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fleet_metrics_cli_{}_{file}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--workers", &WORKERS.to_string(), "--devices", "8"])
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("run fleet");
    assert!(
        out.status.success(),
        "fleet exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let export = std::fs::read_to_string(&path).expect("read the metrics export");
    std::fs::remove_file(&path).expect("remove the metrics export");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), export)
}

/// The hex digest of the `digest:` line the run prints.
fn printed_digest(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("digest: "))
        .unwrap_or_else(|| panic!("no digest line in:\n{stdout}"))
}

#[test]
fn prometheus_export_carries_the_coordinator_section() {
    let (stdout, prom) = run_fleet("m.prom");
    for (name, kind) in [
        ("fleet_wall_seconds", "gauge"),
        ("fleet_device_days_per_wall_second", "gauge"),
        ("fleet_worker_records", "counter"),
        ("fleet_worker_wall_seconds", "gauge"),
        ("fleet_worker_peak_rss_bytes", "gauge"),
    ] {
        let type_line = format!("# TYPE {name} {kind}\n");
        assert!(
            prom.contains(&type_line),
            "missing `{type_line}` in:\n{prom}"
        );
    }
    for name in [
        "fleet_worker_records",
        "fleet_worker_wall_seconds",
        "fleet_worker_peak_rss_bytes",
    ] {
        let shards: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with(&format!("{name}{{")))
            .collect();
        assert_eq!(shards.len(), WORKERS, "{name}: {shards:?}");
        for (shard, line) in shards.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{name}{{shard=\"{shard}\"}} ")),
                "{line}"
            );
        }
    }
    let records: u64 = prom
        .lines()
        .filter_map(|l| l.strip_prefix("fleet_worker_records{"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(records, 8, "every device streams one record");
    let info = format!(
        "fleet_digest_info{{digest=\"{}\"}} 1\n",
        printed_digest(&stdout)
    );
    assert!(prom.contains(&info), "missing `{info}` in:\n{prom}");
}

#[test]
fn json_export_carries_the_coordinator_section() {
    let (stdout, json) = run_fleet("m.json");
    for (name, kind) in [
        ("fleet_wall_seconds", "gauge"),
        ("fleet_device_days_per_wall_second", "gauge"),
    ] {
        let head = format!("{{\"name\":\"{name}\",\"labels\":{{}},\"type\":\"{kind}\",");
        assert!(json.contains(&head), "missing `{head}` in:\n{json}");
    }
    for (name, kind) in [
        ("fleet_worker_records", "counter"),
        ("fleet_worker_wall_seconds", "gauge"),
        ("fleet_worker_peak_rss_bytes", "gauge"),
    ] {
        for shard in 0..WORKERS {
            let head = format!(
                "{{\"name\":\"{name}\",\"labels\":{{\"shard\":\"{shard}\"}},\"type\":\"{kind}\","
            );
            assert!(json.contains(&head), "missing `{head}` in:\n{json}");
        }
        let samples = json.matches(&format!("{{\"name\":\"{name}\",")).count();
        assert_eq!(samples, WORKERS, "{name}");
    }
    let info = format!(
        "{{\"name\":\"fleet_digest_info\",\"labels\":{{\"digest\":\"{}\"}},\"type\":\"counter\",\"value\":1}}",
        printed_digest(&stdout)
    );
    assert!(json.contains(&info), "missing `{info}` in:\n{json}");
}
