//! `fleet --trace` after a coordinator/worker run: the Perfetto timeline
//! holds one process group per traced device, with the bracelet's
//! `acquire` and `compute` spans, and one `fleet progress` group with a
//! devices-done track per worker; tracing leaves the digest alone.

use std::path::PathBuf;
use std::process::Command;

const WORKERS: usize = 2;

/// Runs `fleet --workers 2 --devices 8` plus `extra` and returns stdout.
fn run_fleet(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--workers", &WORKERS.to_string(), "--devices", "8"])
        .args(extra)
        .output()
        .expect("run fleet");
    assert!(
        out.status.success(),
        "fleet exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The hex digest of the `digest:` line the run prints.
fn printed_digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("digest: "))
        .unwrap_or_else(|| panic!("no digest line in:\n{stdout}"))
        .to_string()
}

/// The value of `"key":` in a one-event JSON line, up to the next `,` or
/// `}` (strings keep their quotes).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    Some(&rest[..rest.find([',', '}'])?])
}

/// The quoted name a metadata line (`process_name`, `thread_name`) gives.
fn meta_name(line: &str) -> &str {
    let at = line.find("\"args\":{\"name\":").expect("metadata name");
    line[at + 15..].trim_end_matches(['}', ','])
}

#[test]
fn trace_holds_device_and_progress_groups_and_keeps_the_digest() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fleet_trace_cli_{}.json", std::process::id()));
    let traced = run_fleet(&[
        "--trace",
        path.to_str().expect("utf-8 path"),
        "--trace-devices",
        "2",
    ]);
    let json = std::fs::read_to_string(&path).expect("read the trace");
    std::fs::remove_file(&path).expect("remove the trace");
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");

    // One event per line: the process groups by pid, then each group's
    // track names and span names.
    let lines: Vec<&str> = json.lines().collect();
    let groups: Vec<(&str, &str)> = lines
        .iter()
        .filter(|l| field(l, "name") == Some("\"process_name\""))
        .map(|l| (field(l, "pid").expect("pid"), meta_name(l)))
        .collect();
    let with = |pid: &str, ph: &str| -> Vec<&str> {
        lines
            .iter()
            .filter(|l| field(l, "pid") == Some(pid) && field(l, "ph") == Some(ph))
            .map(|l| field(l, "name").expect("name"))
            .collect()
    };
    assert_eq!(groups.len(), 3, "{groups:?}");
    for (device, &(pid, name)) in groups[..2].iter().enumerate() {
        assert!(name.starts_with(&format!("\"device {device} · ")), "{name}");
        let spans = with(pid, "\"X\"");
        for span in ["\"acquire\"", "\"compute\""] {
            assert!(spans.contains(&span), "device {device}: no {span} span");
        }
    }
    let (pid, name) = groups[2];
    assert_eq!(name, "\"fleet progress\"");
    let tracks: Vec<&str> = lines
        .iter()
        .filter(|l| field(l, "pid") == Some(pid) && field(l, "name") == Some("\"thread_name\""))
        .map(|l| meta_name(l))
        .collect();
    assert_eq!(tracks, ["\"worker 0\"", "\"worker 1\""]);
    assert!(!with(pid, "\"C\"").is_empty(), "no progress counters");

    assert_eq!(printed_digest(&traced), printed_digest(&run_fleet(&[])));
}
