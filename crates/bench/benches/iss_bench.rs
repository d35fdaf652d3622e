//! ISS-throughput bench: simulated instructions per second on the
//! product (`PreparedFixed::run`) and uncached reference paths, on both
//! evaluation networks and all four paper targets.
//!
//! The product path is each target's own interpreter: the fusion-compiled
//! program on the M4, the block cache on the Ibex FC and a single RI5CY,
//! decode-cache horizon bursts on the multi-core cluster. The two paths
//! are timed **interleaved** — one sample of each per round — so the
//! reported ratios are within-run and immune to clock drift. Results land
//! in `BENCH_iss.json` at the repo root: per-target simulated Minstr/s for
//! both paths, the product/reference speedup and the product path's
//! dispatch statistics (mean burst, dispatches, gated breaks, block-cache
//! hit rate). EXPERIMENTS.md records the derived table.
//!
//! `--check` skips all timing and instead asserts that the product path
//! equals the reference for every registry target on both networks — the
//! fast identity smoke ci.sh runs:
//!
//! ```text
//! cargo bench -p iw-bench --bench iss_bench -- --check
//! ```

use std::time::Instant;

use iw_bench::evaluation_nets;
use iw_kernels::{registry, FixedTarget, PreparedFixed, ProductStats};
use iw_metrics::Registry;

/// Rounds of interleaved timing per (network, target) row.
const ROUNDS: usize = 5;

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
    } else {
        bench();
    }
}

/// Identity smoke: every registered target's product path must be
/// bit-identical to the reference, for both evaluation networks. No
/// timing loops — this is the ci.sh gate.
fn check() {
    let mut rows = 0;
    for (name, _, fixed, qin) in evaluation_nets() {
        for entry in registry() {
            let prep = PreparedFixed::on(&*entry.machine(), &fixed, &qin).expect("deploys");
            let product = prep.run().expect("product path runs");
            let reference = prep.run_uncached().expect("reference path runs");
            assert_eq!(
                product,
                reference,
                "{name}/{id}: product vs reference",
                id = entry.id
            );
            rows += 1;
        }
    }
    println!("iss_bench --check: {rows} target×network rows, product == reference");
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

    /// Block-cache hit rate, when the product path is block-compiled
    /// (the M4 program is compiled once up front and never misses).
    fn hit_rate(&self) -> Option<f64> {
        match (self.stats.rv32, self.stats.m4) {
            (Some(rv), _) => Some(rv.hit_rate()),
            (None, Some(_)) => Some(1.0),
            (None, None) => None,
        }
    }
}

fn bench() {
    let mut out = String::from("{\n  \"workloads\": [\n");
    // Machine-readable mirror of the throughput table, in the same
    // sample schema the fleet `--metrics` exporter emits — one gauge
    // per (network, target, path) plus the dispatch statistics.
    let reg = Registry::new();
    let nets = evaluation_nets();
    for (ni, (name, _, fixed, qin)) in nets.iter().enumerate() {
        println!("== iss_throughput/{name} ==");
        let mut rows: Vec<RowResult> = Vec::new();
        for target in FixedTarget::paper_targets() {
            // Deployment (kernel emission, assembly, block compilation,
            // weight image) happens once, outside the timed region: the
            // bench measures simulator throughput, not code generation.
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
                reg.gauge(
                    "iss_minstr_per_s",
                    &[("network", name), ("target", &row.target), ("path", path)],
                )
                .set(row.minstr(seconds));
            }
            let labels = [("network", name.as_str()), ("target", row.target.as_str())];
            reg.counter("iss_instructions", &labels)
                .add(row.instructions);
            reg.gauge("iss_product_avg_burst", &labels)
                .set(row.stats.avg_burst);
            if let Some(hit) = row.hit_rate() {
                reg.gauge("iss_block_hit_rate", &labels).set(hit);
            }
            rows.push(row);
        }

        out.push_str(&format!(
            "    {{\n      \"network\": {},\n      \"targets\": [\n",
            json_str(name)
        ));
        for (ri, row) in rows.iter().enumerate() {
            let hit = row.hit_rate().map_or(String::new(), |hit| {
                format!(",\n          \"block_hit_rate\": {hit:.4}")
            });
            out.push_str(&format!(
                "        {{\n          \"target\": {target},\n          \"instructions\": {instructions},\n          \"minstr_per_s\": {{\"reference\": {rm:.3}, \"product\": {pm:.3}}},\n          \"speedup_product_vs_reference\": {x:.3},\n          \"avg_burst\": {burst:.4},\n          \"dispatches\": {dispatches},\n          \"gated_breaks\": {gated}{hit}\n        }}{comma}\n",
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
    out.push_str(&reg.snapshot().to_json());
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
