//! Regenerates every table, figure and in-text result of the InfiniWolf
//! paper, plus the DESIGN.md ablations.
//!
//! ```text
//! cargo run --release -p iw-bench --bin tables            # everything
//! cargo run --release -p iw-bench --bin tables -- t3 x1   # a subset
//! ```

use iw_bench::Row;

fn print_rows(title: &str, rows: &[Row]) {
    print!("{}", iw_bench::render_rows(title, rows));
}

fn t1() {
    print_rows(
        "Table I — solar power generation (into battery)",
        &iw_bench::table1(),
    );
}

fn t2() {
    print_rows("Table II — wrist TEG power harvesting", &iw_bench::table2());
}

fn t3t4() {
    print!("{}", iw_bench::render_t3t4());
}

fn f3() {
    print_rows(
        "Fig. 3 — Network A architecture (5-50-50-3, tanh)",
        &iw_bench::fig3(),
    );
}

fn x1() {
    print_rows(
        "In-text X1 — M4F float vs fixed point (Network A)",
        &iw_bench::x1_float_vs_fixed(),
    );
}

fn x2() {
    let (_, rows) = iw_bench::x2_detection_budget();
    print_rows("In-text X2 — per-detection energy budget", &rows);
}

fn x3() {
    print_rows(
        "In-text X3 — self-sustainability (6 h indoor light)",
        &iw_bench::x3_sustainability(),
    );
}

fn a1() {
    println!("\n== A1 — cluster core-count sweep ==");
    for (name, rows) in iw_bench::a1_core_sweep() {
        println!("  {name}:");
        for (cores, cycles, speedup) in rows {
            println!("    {cores} core(s): {cycles:>8} cycles  ({speedup:.2}x vs 1 core)");
        }
    }
}

fn a2() {
    print!("{}", iw_bench::render_a2());
}

fn a3() {
    println!("\n== A3 — TCDM bank count (8 cores, Network A) ==");
    for (banks, cycles, stalls) in iw_bench::a3_tcdm_banks() {
        println!("    {banks:>2} banks: {cycles:>7} cycles, {stalls:>6} conflict stalls");
    }
}

fn a4() {
    let (lux, dt) = iw_bench::a4_harvest_sweeps();
    println!("\n== A4 — harvesting interpolation sweeps ==");
    println!("  solar (illuminance -> battery intake):");
    for (l, p) in lux {
        println!("    {l:>8.0} lx : {p:>8.3} mW");
    }
    println!("  TEG (skin-ambient gradient -> battery intake, still air):");
    for (d, p) in dt {
        println!("    dT {d:>4.1} K : {p:>8.2} uW");
    }
}

fn a5() {
    print_rows(
        "A5 — sustainable detection rate per environment",
        &iw_bench::a5_environment_rates(),
    );
}

fn a6() {
    print_rows(
        "A6 — local inference vs BLE raw streaming (per 3 s window)",
        &iw_bench::a6_local_vs_streaming(),
    );
}

fn a7() {
    print!("{}", iw_bench::render_a7());
}

fn a8() {
    println!("\n== A8 — extension: leave-one-subject-out generalisation ==");
    let report = iw_bench::a8_loso();
    for (i, acc) in report.per_subject_accuracy.iter().enumerate() {
        println!("    held-out subject {i}: {:.1}% accuracy", acc * 100.0);
    }
    println!("    mean: {:.1}%", report.mean_accuracy * 100.0);
}

fn a9() {
    println!("\n== A9 — extension: Network B weight streaming (8 cores) ==");
    let (direct, tiled, breakdown) = iw_bench::a9_netb_weight_streaming();
    println!("    direct L2 access : {direct:>7} cycles (paper-faithful kernel)");
    println!(
        "    DMA double-buffer: {tiled:>7} cycles estimate ({:.2}x faster)",
        direct as f64 / tiled as f64
    );
    let (compute, dma): (u64, u64) = breakdown
        .iter()
        .fold((0, 0), |(c, d), &(_, ci, di)| (c + ci, d + di));
    println!(
        "    totals: {compute} compute-in-TCDM cycles, {dma} DMA cycles across {} layers",
        breakdown.len()
    );
}

fn d1() {
    print!("{}", iw_bench::render_d1());
}

fn d2() {
    // 18 devices cover the full env × subject × policy cross product.
    print!("{}", iw_bench::render_d2(18, 4));
}

fn d3() {
    // 27 devices cover the cross product with the third (duty-cycled)
    // policy in the reliability sweep.
    print!("{}", iw_bench::render_d3(27, 4));
}

fn d4() {
    // Same 27-device cross product, joined into a network by the
    // epidemic scenario preset.
    print!("{}", iw_bench::render_d4(27, 4));
}

fn d5() {
    // The same 27-device stress cell as D3, one run per searched policy.
    print!("{}", iw_bench::render_d5(27, 4));
}

fn a10() {
    println!("\n== A10 — extension: cycle breakdown, Network A per target ==");
    for (target, wall_cycles, rows) in iw_bench::a10_cycle_breakdown() {
        println!("  {target} ({wall_cycles} wall cycles incl. stalls/offload):");
        for (label, cycles, share) in rows {
            println!(
                "    {label:<10} {cycles:>8} cycles  {:>5.1}%",
                share * 100.0
            );
        }
    }
}

/// A table: the ids that select it and the function that prints it.
type Table = (&'static [&'static str], fn());

/// Every table in print order (Tables III and IV come from the same
/// runs, so either id prints both).
const TABLES: &[Table] = &[
    (&["t1"], t1),
    (&["t2"], t2),
    (&["t3", "t4"], t3t4),
    (&["f3"], f3),
    (&["x1"], x1),
    (&["x2"], x2),
    (&["x3"], x3),
    (&["a1"], a1),
    (&["a2"], a2),
    (&["a3"], a3),
    (&["a4"], a4),
    (&["a5"], a5),
    (&["a6"], a6),
    (&["a7"], a7),
    (&["a8"], a8),
    (&["a9"], a9),
    (&["a10"], a10),
    (&["d1"], d1),
    (&["d2"], d2),
    (&["d3"], d3),
    (&["d4"], d4),
    (&["d5"], d5),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids = || TABLES.iter().flat_map(|(ids, _)| ids.iter().copied());
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !ids().any(|id| id == *a))
    {
        let valid: Vec<&str> = ids().collect();
        eprintln!(
            "tables: unknown table id `{bad}`; valid ids: {} (or `all`)",
            valid.join(" ")
        );
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");

    println!("InfiniWolf reproduction — experiment harness");
    println!("(absolute-number matches are not expected on a simulator; the");
    println!(" paper column is shown so the shape can be judged per row)");

    for (ids, print) in TABLES {
        if run_all || args.iter().any(|a| ids.contains(&a.as_str())) {
            print();
        }
    }
}
