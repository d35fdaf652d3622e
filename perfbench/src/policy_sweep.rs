//! `policy-sweep`: every D5 candidate policy on the harsh 40 J stress
//! cell, in process on one thread, through `d5_fleet_config` →
//! `run_device` → `fold` → `into_report_with`. A pass runs every
//! candidate's devices once; passes repeat, closed loop, for the stated
//! time, and every pass must reproduce the first pass's digests.

use std::time::Instant;

use iw_bench::{d5_candidates, d5_fleet_config, d5_target_jobs};
use iw_sim::{FleetAggregate, FleetConfig};
use iw_trace::TrackId;

use crate::common::{
    conserves, fastest, fnv, measure, median, min_of, peak_rss_mib, secs, tail, Outcomes, Report,
    Spans, FNV_BASIS,
};
use crate::Args;

/// Devices per candidate: one per environment × wearer pair, so a pass
/// of the 15 candidates is 135 device-days. Candidate `c` runs device
/// indices `9c..9c+9` of its fleet, so no two candidates share a
/// device's seeded start state and fault plan.
const DEVICES: usize = 9;
const TINY_DEVICES: usize = 1;

/// One closed-loop step: a fresh set-up, then every candidate's devices.
struct Pass {
    /// The whole pass, seconds.
    wall_s: f64,
    /// `d5_target_jobs` and all `d5_fleet_config` calls, seconds.
    setup_s: f64,
    jobs_s: f64,
    config_s: f64,
    /// Each device's `run_device` plus its fold, ms, in pass order.
    device_ms: Vec<f64>,
    days: f64,
    events: u64,
    /// Per-candidate fleet digests, in candidate order.
    digests: Vec<u64>,
    outcomes: Outcomes,
}

fn pass(
    devices: usize,
    seed: u64,
    mut spans: Option<&mut (Spans, TrackId)>,
    report: &mut Report,
) -> Pass {
    let t0 = Instant::now();
    let jobs = d5_target_jobs();
    let t1 = Instant::now();
    let candidates = d5_candidates(seed);
    let configs: Vec<FleetConfig> = candidates
        .iter()
        .map(|c| d5_fleet_config(devices * candidates.len(), 1, seed, c, jobs))
        .collect();
    let t2 = Instant::now();
    if let Some((s, track)) = spans.as_deref_mut() {
        s.span(*track, "d5_target_jobs", t0, t1);
        s.span(*track, "d5_fleet_config", t1, t2);
    }
    let mut p = Pass {
        wall_s: 0.0,
        setup_s: secs(t0, t2),
        jobs_s: secs(t0, t1),
        config_s: secs(t1, t2),
        device_ms: Vec::new(),
        days: 0.0,
        events: 0,
        digests: Vec::new(),
        outcomes: Outcomes::default(),
    };
    for (c, cfg) in configs.iter().enumerate() {
        let mut agg = FleetAggregate::new(cfg);
        for index in c * devices..(c + 1) * devices {
            let t0 = Instant::now();
            let result = cfg.run_device(index);
            let t1 = Instant::now();
            p.days += result.days;
            p.events += result.events;
            report.attempted += 1;
            if !conserves(result.conservation_j) {
                report.fail(
                    1,
                    format!(
                        "{} device {index}: conservation drift {} J",
                        result.policy, result.conservation_j
                    ),
                );
            }
            agg.fold(result);
            let t2 = Instant::now();
            p.device_ms.push(secs(t0, t2) * 1e3);
            if let Some((s, track)) = spans.as_deref_mut() {
                s.span(*track, "run_device", t0, t1);
                s.span(*track, "fold", t1, t2);
            }
        }
        let t0 = Instant::now();
        let fleet = agg.into_report_with(None);
        let t1 = Instant::now();
        if let Some((s, track)) = spans.as_deref_mut() {
            s.span(*track, "into_report_with", t0, t1);
        }
        p.digests.push(fleet.digest);
        p.outcomes.add(&fleet);
    }
    p.wall_s = secs(t0, Instant::now());
    p
}

/// Fails every device of a candidate whose digest differs from the
/// reference pass.
fn check_digests(
    reference: &[u64],
    passes: &[Pass],
    devices: usize,
    what: &str,
    report: &mut Report,
) {
    for (k, p) in passes.iter().enumerate() {
        for (c, (a, b)) in reference.iter().zip(&p.digests).enumerate() {
            if a != b {
                report.fail(
                    devices as u64,
                    format!("candidate {c}: {what} pass {k} digest {b:016x} != {a:016x}"),
                );
            }
        }
    }
}

/// Seconds of one pass with every device at its fastest repetition.
fn best_pass_s(passes: &[Pass]) -> f64 {
    fastest(passes.iter().map(|p| p.device_ms.as_slice()))
        .iter()
        .sum::<f64>()
        / 1e3
}

pub fn run(args: &Args, report: &mut Report) {
    let devices = if args.tiny { TINY_DEVICES } else { DEVICES };
    let mut spans = (Spans::new(), TrackId::default());
    spans.1 = spans.0.track("policy-sweep");
    let (passes, traced) = measure(args, |traced| {
        pass(devices, args.seed, traced.then_some(&mut spans), report)
    });
    let reference = passes[0].digests.clone();
    check_digests(&reference, &passes, devices, "untraced", report);
    report.digest = reference.iter().fold(FNV_BASIS, |h, &d| fnv(h, d));

    let p0 = &passes[0];
    let best_s = best_pass_s(&passes);
    let device_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.device_ms.iter().copied())
        .collect();
    let device_best_ms = fastest(passes.iter().map(|p| p.device_ms.as_slice()));
    let median_pass_s = median(
        &passes
            .iter()
            .map(|p| p.device_ms.iter().sum::<f64>() / 1e3)
            .collect::<Vec<f64>>(),
    );
    let setup_s = min_of(passes.iter().map(|p| p.setup_s));
    let n = format!("n={} passes", passes.len());
    report.line("device_days_per_s", p0.days / best_s, "1/s", n.clone());
    report.line(
        "device_days_per_s.median",
        p0.days / median_pass_s,
        "1/s",
        n.clone(),
    );
    report.line(
        "ns_per_event",
        best_s * 1e9 / p0.events as f64,
        "ns",
        n.clone(),
    );
    report.latency_lines("device_ms", &device_ms);
    report.line("setup_s", setup_s, "s", n);
    report.line("peak_rss_mib", peak_rss_mib(), "MiB", "1 process");
    report.e2e.insert("jobs_per_s", p0.days / best_s);
    report
        .e2e
        .insert("ns_per_sim_op", best_s * 1e9 / p0.events as f64);
    report.e2e.insert("job_ms.p50", median(&device_best_ms));
    report.e2e.insert("setup_s", setup_s);
    report.e2e.insert("peak_rss_mib", peak_rss_mib());

    if !args.trace {
        return;
    }
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    check_digests(&reference, &traced, devices, "traced", report);

    let (s, track) = &spans;
    let events: u64 = traced.iter().map(|p| p.events).sum();
    let run_s = s.total_s(*track, "run_device");
    let traced_ms: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.device_ms.iter().copied())
        .collect();
    report.layer("sim.run_device.busy_s", run_s / traced.len() as f64);
    report.layer("sim.run_device.share", run_s / traced_wall);
    report.layer("sim.run_device.ns_per_event", run_s * 1e9 / events as f64);
    report.layer("sim.run_device.ms_tail", tail(&traced_ms).1);
    report.layer("sim.events_per_device_day", p0.events as f64 / p0.days);
    let folds = (traced.len() * p0.device_ms.len()) as f64;
    let reports = (traced.len() * p0.digests.len()) as f64;
    report.layer(
        "sim.fold.us_per_device",
        s.total_s(*track, "fold") * 1e6 / folds,
    );
    report.layer(
        "sim.report_ms",
        s.total_s(*track, "into_report_with") * 1e3 / reports,
    );
    p0.outcomes.layers(report);
    report.layer(
        "bench.target_jobs_s",
        min_of(traced.iter().map(|p| p.jobs_s)),
    );
    report.layer(
        "bench.fleet_config_s",
        min_of(traced.iter().map(|p| p.config_s)),
    );
    report.layer("trace.overhead_frac", best_pass_s(&traced) / best_s - 1.0);
    spans.0.save(args, report);
}
