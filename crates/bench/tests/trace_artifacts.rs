//! End-to-end checks of the observability artifacts: the `trace` binary's
//! flow must emit valid Chrome trace-event JSON with the full per-core
//! cluster timeline, a non-empty hotspot report, and must not perturb the
//! simulation it observes.

use iw_bench::trace_target;
use iw_kernels::{registry, PreparedFixed};
use iw_trace::{validate_json, NoopSink, Recorder, TraceSink};

fn neta_cluster8() -> iw_bench::TraceArtifacts {
    trace_target("neta", "cl8").expect("neta/cluster8 traces")
}

#[test]
fn cluster_trace_json_is_valid_with_one_track_per_core() {
    let art = neta_cluster8();
    validate_json(&art.chrome_json).expect("well-formed trace JSON");
    for core in 0..8 {
        let name = format!("\"cluster/core{core}\"");
        assert!(art.chrome_json.contains(&name), "missing track {name}");
    }
    // The per-core timeline carries the cycle classes Net A exercises
    // (its weights fit in TCDM, so no L2-port stalls here — see the
    // netb test for those)...
    for span in ["\"busy\"", "\"tcdm-stall\"", "\"barrier-wait\""] {
        assert!(art.chrome_json.contains(span), "missing {span} spans");
    }
    // ...plus SoC energy counters, harvest counters and derived per-layer
    // code tracks from the symbolized PC samples.
    for name in [
        "\"soc_uj\"",
        "\"cluster_uj\"",
        "\"solar_mw\"",
        "\"teg_mw\"",
        "\"soc_pct\"",
        "\"layer0;dot\"",
    ] {
        assert!(art.chrome_json.contains(name), "missing {name}");
    }
}

#[test]
fn folded_stacks_report_symbolized_hotspots() {
    let art = neta_cluster8();
    assert!(!art.folded.trim().is_empty());
    // Every line is "frames count"; the dot-product region dominates.
    let mut first_count = None;
    for line in art.folded.lines() {
        let (frames, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(frames.starts_with("neta/cluster8;"), "{line}");
        let count: u64 = count.parse().expect("cycle count");
        let first = *first_count.get_or_insert(count);
        assert!(count <= first, "not sorted hottest-first: {line}");
    }
    assert!(
        art.folded.lines().next().expect("rows").contains(";dot "),
        "hottest region should be a dot-product: {}",
        art.folded.lines().next().unwrap()
    );
}

#[test]
fn netb_trace_carries_l2_stall_spans() {
    // Network B spills its weights to L2, so its timeline must show the
    // shared-port contention.
    let art = trace_target("netb", "cl8").expect("netb/cluster8 traces");
    assert!(art.chrome_json.contains("\"l2-stall\""));
}

#[test]
fn m4_trace_has_code_track_and_soc_counter() {
    let art = trace_target("neta", "m4").expect("neta/m4 traces");
    validate_json(&art.chrome_json).expect("well-formed trace JSON");
    assert!(art.chrome_json.contains("\"m4 code\""));
    assert!(art.chrome_json.contains("\"soc_uj\""));
    assert!(art.folded.contains("layer0;dot"));
}

#[test]
fn recording_does_not_perturb_the_run() {
    // The iss_bench measurement path is PreparedFixed::run with the
    // NoopSink monomorphized in; the sink must be compile-time disabled
    // and the recorded run observationally identical. On the single-core
    // rows the two take different interpreters: recording runs the
    // instrumented pre-decoded loop, `run()` the block-compiled one.
    const { assert!(!NoopSink::ENABLED) };
    let [(_, _, fixed, qin), _] = iw_bench::evaluation_nets();
    for id in ["m4", "ibex", "riscy", "cluster8"] {
        let entry = registry()
            .into_iter()
            .find(|e| e.id == id)
            .expect("registered");
        let prep = PreparedFixed::on(&*entry.machine(), &fixed, &qin).expect("deploys");
        let plain = prep.run().expect("runs");
        let recorded = prep.run_recorded(&mut Recorder::new()).expect("runs");
        assert_eq!(recorded.cycles, plain.cycles, "{id}");
        assert_eq!(recorded.instructions, plain.instructions, "{id}");
        assert_eq!(recorded.outputs, plain.outputs, "{id}");
        assert_eq!(recorded.profile, plain.profile, "{id}");
        assert_eq!(recorded.cluster, plain.cluster, "{id}");
    }
}
