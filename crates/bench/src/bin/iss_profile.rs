//! Manual timing harness for the ISS hot paths (`perf` is unavailable in
//! the build environment). Times the components of the product and
//! uncached interpreter loops on the Network A and B workloads so
//! optimisation work targets the real bottleneck; run with
//! `cargo run --release -p iw-bench --bin iss_profile`.

use std::time::Instant;

use iw_bench::evaluation_nets;
use iw_kernels::{registry, PreparedFixed, TargetGroup};
use iw_rv32::{decode, Bus, MemWidth, Ram};

fn time<R>(label: &str, per: u64, mut f: impl FnMut() -> R) -> f64 {
    // One warm-up pass, then report the best of three (least interference).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(r);
        best = best.min(dt);
    }
    let ns = best * 1e9 / per as f64;
    println!("{label:<44} {ns:>8.2} ns/op  ({:.3} ms total)", best * 1e3);
    ns
}

fn main() {
    // --- Component costs -------------------------------------------------
    let mut asm = iw_rv32::asm::Asm::new(0);
    {
        use iw_rv32::Reg;
        let top = asm.new_label();
        asm.bind(top);
        asm.lw(Reg::T0, Reg::A0, 0);
        asm.lw(Reg::T1, Reg::A1, 4);
        asm.mac(Reg::A2, Reg::T0, Reg::T1);
        asm.addi(Reg::A0, Reg::A0, 4);
        asm.addi(Reg::A1, Reg::A1, 4);
        asm.bne_to(Reg::A0, Reg::A3, top);
        asm.sw(Reg::A2, Reg::A4, 0);
        asm.ecall();
    }
    let image = asm.assemble().expect("assembles");
    let words: Vec<u32> = image
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();

    const N: u64 = 4_000_000;
    time("decode() on kernel-like word mix", N, || {
        let mut acc = 0u32;
        for i in 0..N {
            let w = words[(i as usize) % words.len()];
            if let Ok(ins) = decode(std::hint::black_box(w)) {
                acc = acc.wrapping_add(ins.is_mem() as u32);
            }
        }
        acc
    });

    let mut ram = Ram::new(0x1000_0000, 64 * 1024);
    time("Ram::load word", N, || {
        let mut acc = 0u32;
        for i in 0..N {
            let addr = 0x1000_0000 + ((i as u32 * 4) & 0xfff);
            acc = acc.wrapping_add(ram.load(std::hint::black_box(addr), MemWidth::W).unwrap());
        }
        acc
    });
    time("Ram::store word", N, || {
        for i in 0..N {
            let addr = 0x1000_0000 + ((i as u32 * 4) & 0xfff);
            ram.store(std::hint::black_box(addr), MemWidth::W, i as u32)
                .unwrap();
        }
    });

    // --- Full workloads --------------------------------------------------
    // Every paper-group registry target on both evaluation networks; the
    // same rows `iss_bench` measures.
    for (net, _, fixed, qin) in &evaluation_nets() {
        println!("== {net} ==");
        for entry in registry() {
            if entry.group != TargetGroup::Paper {
                continue;
            }
            let prep = PreparedFixed::on(&*entry.machine(), fixed, qin).expect("deploys");
            let instructions = prep.run().expect("runs").instructions;
            let name = entry.label;
            let p = time(&format!("{name}: product run"), instructions, || {
                prep.run().expect("runs")
            });
            let u = time(&format!("{name}: uncached run"), instructions, || {
                prep.run_uncached().expect("runs")
            });
            println!(
                "{name:<44} product {:.2}x over uncached ({instructions} instrs)",
                u / p
            );
            print_product_stats(&prep);
        }
    }
}

/// Dispatch report for one target's product path: burst length, how many
/// multi-core bursts the runner-up gate cut short, the 8-core split into
/// lockstep and generic picks with the lockstep's joins, period skips and
/// the picks they stood for, and, on the RV32
/// targets, the op program's counters (ops dispatched, instructions per
/// op, fused executions per pattern, loop-op entries, native iterations
/// and rows served whole over memory spans, translations and code-store
/// re-decodes); on the M4, the loop-op counters.
fn print_product_stats(prep: &PreparedFixed) {
    let (_, s) = prep.run_stats().expect("runs");
    println!(
        "  product: dispatches={} avg_burst={:.3} gated_breaks={} joint_picks={}",
        s.dispatches, s.avg_burst, s.gated_breaks, s.joint_picks
    );
    if s.joint_picks > 0 {
        println!(
            "  lockstep: picks={} generic picks={} joins={} period skips={} skipped picks={}",
            s.joint_picks,
            s.dispatches - s.joint_picks,
            s.joint_entries,
            s.period_skips,
            s.skipped_picks
        );
    }
    if let Some(r) = s.rv32 {
        println!(
            "  program: ops={} instrs/op={:.3} translations={} redecodes={}",
            r.dispatches,
            r.avg_burst(),
            r.translations,
            r.redecodes
        );
        println!(
            "  fused execs: mul+srai+add={} addi+branch={}",
            r.fused_mul_srai_add, r.fused_addi_branch
        );
        println!(
            "  loop ops: hwloop-dot entries={} iterations={} counted-dot entries={} iterations={} whole rows={}",
            r.hwloop_dot_entries,
            r.hwloop_dot_iterations,
            r.counted_dot_entries,
            r.counted_dot_iterations,
            r.whole_rows
        );
    }
    if let Some(m) = s.m4 {
        println!(
            "  loop ops: dot-loop entries={} iterations={} whole rows={}",
            m.dot_loop_entries, m.dot_loop_iterations, m.whole_rows
        );
    }
}
