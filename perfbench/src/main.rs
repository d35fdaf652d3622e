//! The repository benchmark: three closed-loop workloads over the
//! simulator stack, each checked for correct outputs, printing its
//! metrics by name and unit and, as the last line, one JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload policy-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` splits the
//! time between an untraced and a traced half and prints the per-layer
//! metrics, measured from spans the benchmark records around its calls
//! into each layer (written to `perfbench/out/`). `--tiny` shrinks every
//! workload for the package's own tests; `--expect-digest HEX` fails the
//! run unless the workload's determinism digest matches. The exit code
//! is non-zero when any output check fails.

mod common;
mod fleet_stream;
mod iss_classify;
mod policy_sweep;

use std::process::ExitCode;

use common::Report;

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PolicySweep,
    FleetStream,
    IssClassify,
}

impl Workload {
    const ALL: [(Workload, &'static str); 3] = [
        (Workload::PolicySweep, "policy-sweep"),
        (Workload::FleetStream, "fleet-stream"),
        (Workload::IssClassify, "iss-classify"),
    ];

    pub fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, n)| *n)
            .expect("every workload is named")
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub expect_digest: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PolicySweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        expect_digest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(_, n)| *n == name)
                        .map(|(w, _)| *w)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0|1)")),
                };
            }
            "--tiny" => args.tiny = true,
            "--expect-digest" => {
                let hex = value()?;
                args.expect_digest = Some(
                    u64::from_str_radix(&hex, 16)
                        .map_err(|e| format!("bad --expect-digest: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    args.workload =
        workload.ok_or("--workload policy-sweep|fleet-stream|iss-classify is required")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every run builds the shipped `fleet` binary first, so the first run
    // in a fresh checkout pays the whole build.
    let fleet = match fleet_stream::fleet_binary() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = Report::default();
    match args.workload {
        Workload::PolicySweep => policy_sweep::run(&args, &mut report),
        Workload::FleetStream => fleet_stream::run(&args, &fleet, &mut report),
        Workload::IssClassify => iss_classify::run(&args, &mut report),
    }
    report.expect_digest(args.expect_digest);
    report.layer("failed_frac", report.failed_frac());

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit, samples) in &report.lines {
        println!("  {name:<28} {value:>16.4} {unit:<9} {samples}");
    }
    println!(
        "  {:<28} {:>16.4} {:<9} n={} attempted",
        "failed_frac",
        report.failed_frac(),
        "ratio",
        report.attempted
    );
    println!("  digest: {:016x}", report.digest);
    if args.trace {
        for (name, value) in &report.layers {
            println!("  {name:<40} {value}");
        }
    }
    let json = report.json(args.trace);
    for why in &report.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
