//! ISS-throughput bench: simulated instructions per second on the
//! product (`PreparedFixed::run`) and uncached reference paths, on both
//! evaluation networks and all four paper targets.
//!
//! The product path is each target's own interpreter: the fusion-compiled
//! program on the M4, and the per-PC RV32 op program on the Ibex FC, a
//! single RI5CY and the multi-core cluster (horizon bursts). The two paths
//! are timed **interleaved** — one sample of each per round — so the
//! reported ratios are within-run and immune to clock drift. Results land
//! in `BENCH_iss.json` at the repo root: per-target simulated Minstr/s for
//! both paths, the product/reference speedup and the product path's
//! dispatch statistics (mean burst, dispatches, gated breaks, and
//! instructions per dispatched op). EXPERIMENTS.md records the derived table.
//!
//! `--check` skips all timing and instead asserts that the product path
//! equals the reference on both networks for the fixed-point workload on
//! every registry target, the Q15 workload on the Q15 rows and the float
//! workload on the M4 — the fast identity smoke ci.sh runs:
//!
//! ```text
//! cargo bench -p iw-bench --bench iss_bench -- --check
//! ```

use std::time::Instant;

use iw_bench::check::first_difference;
use iw_bench::evaluation_nets;
use iw_fann::Q15Net;
use iw_kernels::{
    registry, targets_in, FixedTarget, FixedWorkload, FloatWorkload, M4Machine, Machine,
    PreparedFixed, ProductStats, Q15Workload, TargetGroup, Workload,
};
use iw_metrics::{Snapshot, Value};

/// Rounds of interleaved timing per (network, target) row. The product
/// rows run in well under a millisecond on a shared host whose speed
/// drifts between slow and fast phases, so each row keeps the best of
/// many rounds.
const ROUNDS: usize = 50;

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
    } else {
        bench();
    }
}

/// Identity smoke: on both evaluation networks, the product path must be
/// bit-identical to the reference for the fixed-point workload on every
/// registered target, the Q15 workload on the Q15 rows and the float
/// workload on the M4. No timing loops — this is the ci.sh gate.
fn check() {
    let mut rows = 0;
    for (name, net, fixed, qin) in evaluation_nets() {
        let q31 = FixedWorkload::new(&fixed, &qin).expect("input");
        for entry in registry() {
            check_workload(&*entry.machine(), &q31, &format!("{name}/{}", entry.id));
            rows += 1;
        }
        let q15 = Q15Net::export(&net).expect("q15 export");
        // The float input the fixed-point one quantises.
        let input = fixed.dequantize(&qin);
        let q15_workload = Q15Workload::new(&q15, &q15.quantize_input(&input)).expect("input");
        for entry in targets_in(TargetGroup::Q15) {
            let what = format!("{name}/{}/q15", entry.id);
            check_workload(&*entry.machine(), &q15_workload, &what);
            rows += 1;
        }
        let float = FloatWorkload::new(&net, &input).expect("input");
        check_workload(&M4Machine::new(), &float, &format!("{name}/m4/f32"));
        rows += 1;
    }
    println!("iss_bench --check: {rows} workload×target×network rows, product == reference");
}

/// Asserts that `workload` on `machine` runs the same on the product path
/// as on the reference, every observable of the run included; a failure
/// names the row and the first field that differs.
fn check_workload(machine: &dyn Machine, workload: &dyn Workload, what: &str) {
    let deployment = machine.deploy(workload).expect("deploys");
    let (product, _) = deployment.run().expect("product path runs");
    let reference = deployment.run_reference().expect("reference path runs");
    if let Some(diff) = first_difference(&product, &reference) {
        panic!("{what}: product != reference at {diff}");
    }
}

/// One timed sample: wall-clock seconds of a single simulated
/// classification.
fn sample<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

struct RowResult {
    target: String,
    instructions: u64,
    reference_s: f64,
    product_s: f64,
    stats: ProductStats,
}

impl RowResult {
    fn minstr(&self, seconds: f64) -> f64 {
        self.instructions as f64 / seconds / 1e6
    }

    /// Mean instructions per dispatched op of the fused program (RV32 op
    /// program or M4 `BlockProgram`).
    fn instrs_per_op(&self) -> Option<f64> {
        match (self.stats.rv32, self.stats.m4) {
            (Some(rv), _) => Some(rv.avg_burst()),
            (None, Some(m4)) => Some(m4.avg_burst()),
            (None, None) => None,
        }
    }
}

fn bench() {
    let mut out = String::from("{\n  \"workloads\": [\n");
    // Machine-readable mirror of the throughput table, in the same
    // sample schema the fleet `--metrics` exporter emits — one gauge
    // per (network, target, path) plus the dispatch statistics.
    let mut snap = Snapshot::new();
    let nets = evaluation_nets();
    for (ni, (name, _, fixed, qin)) in nets.iter().enumerate() {
        println!("== iss_throughput/{name} ==");
        let mut rows: Vec<RowResult> = Vec::new();
        for target in FixedTarget::paper_targets() {
            // Deployment (kernel emission, assembly, the M4's program
            // compilation, weight image) happens once, outside the timed
            // region: the bench measures simulator throughput, not code
            // generation. The RV32 op programs translate inside each run.
            let prep = PreparedFixed::new(target, fixed, qin).expect("deploys");
            let reference = prep.run_uncached().expect("target runs");
            let (product, stats) = prep.run_stats().expect("target runs");
            assert_eq!(product, reference, "product path must be bit-identical");

            // Interleaved best-of-N: one sample of each path per round.
            let (mut r, mut p) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..ROUNDS {
                r = r.min(sample(|| prep.run_uncached().expect("runs")));
                p = p.min(sample(|| prep.run().expect("runs")));
            }
            let row = RowResult {
                target: target.name(),
                instructions: reference.instructions,
                reference_s: r,
                product_s: p,
                stats,
            };
            println!(
                "{target:<20} instrs={instructions:>9}  reference={rm:>7.2}  product={pm:>7.2} \
                 Minstr/s  product/reference={x:.2}x  burst={burst:.2}  dispatches={d}",
                target = row.target,
                instructions = row.instructions,
                rm = row.minstr(r),
                pm = row.minstr(p),
                x = r / p,
                burst = row.stats.avg_burst,
                d = row.stats.dispatches,
            );
            for (path, seconds) in [("reference", r), ("product", p)] {
                snap.push(
                    "iss_minstr_per_s",
                    &[("network", name), ("target", &row.target), ("path", path)],
                    Value::Gauge(row.minstr(seconds)),
                );
            }
            let labels = [("network", name.as_str()), ("target", row.target.as_str())];
            snap.push(
                "iss_instructions",
                &labels,
                Value::Counter(row.instructions),
            );
            snap.push(
                "iss_product_avg_burst",
                &labels,
                Value::Gauge(row.stats.avg_burst),
            );
            if let Some(per_op) = row.instrs_per_op() {
                snap.push("iss_product_instrs_per_op", &labels, Value::Gauge(per_op));
            }
            rows.push(row);
        }

        out.push_str(&format!(
            "    {{\n      \"network\": {},\n      \"targets\": [\n",
            json_str(name)
        ));
        for (ri, row) in rows.iter().enumerate() {
            let per_op = row.instrs_per_op().map_or(String::new(), |per_op| {
                format!(",\n          \"instrs_per_op\": {per_op:.4}")
            });
            out.push_str(&format!(
                "        {{\n          \"target\": {target},\n          \"instructions\": {instructions},\n          \"minstr_per_s\": {{\"reference\": {rm:.3}, \"product\": {pm:.3}}},\n          \"speedup_product_vs_reference\": {x:.3},\n          \"avg_burst\": {burst:.4},\n          \"dispatches\": {dispatches},\n          \"gated_breaks\": {gated}{per_op}\n        }}{comma}\n",
                target = json_str(&row.target),
                instructions = row.instructions,
                rm = row.minstr(row.reference_s),
                pm = row.minstr(row.product_s),
                x = row.reference_s / row.product_s,
                burst = row.stats.avg_burst,
                dispatches = row.stats.dispatches,
                gated = row.stats.gated_breaks,
                comma = if ri + 1 < rows.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if ni + 1 < nets.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"metrics\": ");
    snap.sort();
    out.push_str(&snap.to_json());
    out.push_str("\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_iss.json");
    std::fs::write(path, out).expect("writes BENCH_iss.json");
    println!("wrote {path}");
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
