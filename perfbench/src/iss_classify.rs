//! `iss-classify`: single fixed-point classifications through
//! `PreparedFixed::run` (the product execution path) on Networks A and B
//! × the four paper targets. Inputs are quantised from feature vectors
//! drawn from the seed; deployment happens in set-up. A round runs every
//! prepared (row, input) once; rounds repeat, closed loop, for the
//! stated time and must reproduce the checked first run bit for bit.

use std::time::Instant;

use iw_bench::{evaluation_nets, table3_and_4};
use iw_kernels::{FixedRun, FixedTarget, PreparedFixed};
use iw_trace::TrackId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    fastest, fnv, measure, median, min_of, peak_rss_mib, secs, Report, Spans, FNV_BASIS, NETS,
    TARGETS,
};
use crate::Args;

const INPUTS: usize = 3;
const TINY_INPUTS: usize = 1;

/// One (network, target) row with its deployed inputs.
struct Row {
    net: usize,
    target: usize,
    preps: Vec<PreparedFixed>,
}

impl Row {
    fn is_cluster(&self) -> bool {
        matches!(
            FixedTarget::paper_targets()[self.target],
            FixedTarget::WolfCluster { .. }
        )
    }

    fn name(&self) -> String {
        format!("iss.{}.{}", NETS[self.net], TARGETS[self.target])
    }
}

/// Deploys every (row, input); returns the rows and each deployment's
/// seconds, row-major.
fn deploy(inputs: &[Vec<Vec<i32>>]) -> (Vec<Row>, Vec<f64>) {
    let nets = evaluation_nets();
    let mut rows = Vec::new();
    let mut deploy_s = Vec::new();
    for (net, (_, _, fixed, _)) in nets.iter().enumerate() {
        for (target, &t) in FixedTarget::paper_targets().iter().enumerate() {
            let mut row = Row {
                net,
                target,
                preps: Vec::new(),
            };
            for qin in &inputs[net] {
                let t0 = Instant::now();
                let prep = PreparedFixed::new(t, fixed, qin).expect("paper targets deploy");
                deploy_s.push(secs(t0, Instant::now()));
                row.preps.push(prep);
            }
            rows.push(row);
        }
    }
    (rows, deploy_s)
}

/// Feature vectors drawn from the seed, quantised per network.
fn draw_inputs(seed: u64, per_net: usize) -> Vec<Vec<Vec<i32>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    evaluation_nets()
        .iter()
        .map(|(_, net, fixed, _)| {
            (0..per_net)
                .map(|_| {
                    let x: Vec<f32> = (0..net.num_inputs())
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();
                    fixed.quantize_input(&x)
                })
                .collect()
        })
        .collect()
}

/// Checks every prepared input once and returns its result, row-major:
/// the product path must equal the uncached reference interpreter, and
/// its argmax the `iw-fann` fixed-point reference.
fn check(rows: &[Row], inputs: &[Vec<Vec<i32>>], report: &mut Report) -> Option<Vec<FixedRun>> {
    let nets = evaluation_nets();
    let mut expected = Vec::new();
    for row in rows {
        let fixed = &nets[row.net].2;
        for (k, prep) in row.preps.iter().enumerate() {
            report.attempted += 1;
            let what = format!("{} input {k}", row.name());
            let (a, b) = match (prep.run(), prep.run_uncached()) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    report.fail(1, format!("{what}: {e}"));
                    return None;
                }
            };
            if a != b {
                report.fail(1, format!("{what}: product run != uncached reference"));
            } else if a.class() != fixed.classify(&inputs[row.net][k]) {
                report.fail(1, format!("{what}: argmax differs from iw-fann"));
            }
            expected.push(a);
        }
    }
    Some(expected)
}

/// One closed-loop round: deploy every (row, input) afresh, then run
/// each once. Times are seconds, row-major.
struct Round {
    setup_s: f64,
    deploy_s: Vec<f64>,
    run_s: Vec<f64>,
}

fn round(
    inputs: &[Vec<Vec<i32>>],
    expected: &[FixedRun],
    mut spans: Option<&mut (Spans, Vec<TrackId>)>,
    report: &mut Report,
) -> Round {
    let (rows, deploy_s) = deploy(inputs);
    let mut run_s = Vec::new();
    let mut item = 0;
    for (i, row) in rows.iter().enumerate() {
        for prep in &row.preps {
            let t0 = Instant::now();
            let run = prep.run();
            let t1 = Instant::now();
            report.attempted += 1;
            if run.as_ref().ok() != Some(&expected[item]) {
                report.fail(
                    1,
                    format!("{}: run differs from its checked result", row.name()),
                );
            }
            run_s.push(secs(t0, t1));
            item += 1;
            if let Some((s, tracks)) = spans.as_deref_mut() {
                s.span(tracks[i], "PreparedFixed::run", t0, t1);
            }
        }
    }
    Round {
        setup_s: deploy_s.iter().sum(),
        deploy_s,
        run_s,
    }
}

/// Simulated instructions per host second over the selected items, at
/// each item's fastest repetition, in millions.
fn minstr_per_s(best_s: &[f64], expected: &[FixedRun], pick: impl Fn(usize) -> bool) -> f64 {
    let (mut instr, mut s) = (0u64, 0.0);
    for (k, (t, run)) in best_s.iter().zip(expected).enumerate() {
        if pick(k) {
            instr += run.instructions;
            s += t;
        }
    }
    instr as f64 / s / 1e6
}

/// Largest |ours/paper − 1| over the Table III and IV rows, percent.
fn paper_err_pct() -> f64 {
    table3_and_4()
        .iter()
        .flat_map(|(_, rows)| rows.iter().flat_map(|(t3, t4)| [t3.ratio(), t4.ratio()]))
        .flatten()
        .map(|r| (r - 1.0).abs() * 100.0)
        .fold(0.0, f64::max)
}

pub fn run(args: &Args, report: &mut Report) {
    let per_net = if args.tiny { TINY_INPUTS } else { INPUTS };
    let inputs = draw_inputs(args.seed, per_net);
    let (rows, _) = deploy(&inputs);
    let Some(expected) = check(&rows, &inputs, report) else {
        return;
    };
    report.digest = expected.iter().fold(FNV_BASIS, |h, run| {
        let h = fnv(fnv(h, run.cycles), run.instructions);
        run.outputs.iter().fold(h, |h, &o| fnv(h, o as u64))
    });
    let paper_err = paper_err_pct();
    // Row-major item index -> row index, and which items run on the cluster.
    let row_of = |k: usize| k / per_net;
    let cluster = |k: usize| rows[row_of(k)].is_cluster();

    let mut spans = (Spans::new(), Vec::new());
    spans.1 = rows.iter().map(|row| spans.0.track(&row.name())).collect();
    let (rounds, traced) = measure(args, |traced| {
        round(&inputs, &expected, traced.then_some(&mut spans), report)
    });
    let best_s = fastest(rounds.iter().map(|r| r.run_s.as_slice()));
    let total_s: f64 = best_s.iter().sum();
    let instructions: u64 = expected.iter().map(|r| r.instructions).sum();
    let classify_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.run_s.iter().map(|s| s * 1e3))
        .collect();
    let setup_s = min_of(rounds.iter().map(|r| r.setup_s));
    let n = format!("n={} rounds", rounds.len());
    let single = minstr_per_s(&best_s, &expected, |k| !cluster(k));
    let cl8 = minstr_per_s(&best_s, &expected, cluster);
    report.line("minstr_per_s.single", single, "Minstr/s", n.clone());
    report.line("minstr_per_s.cluster", cl8, "Minstr/s", n.clone());
    report.line(
        "classifications_per_s",
        best_s.len() as f64 / total_s,
        "1/s",
        n.clone(),
    );
    report.latency_lines("classify_ms", &classify_ms);
    report.line(
        "paper_err_pct",
        paper_err,
        "%",
        "16 T3/T4 rows (simulated, exact)",
    );
    report.line("peak_rss_mib", peak_rss_mib(), "MiB", "1 process");
    report.line("setup_s", setup_s, "s", n);
    report
        .e2e
        .insert("jobs_per_s", best_s.len() as f64 / total_s);
    report
        .e2e
        .insert("ns_per_sim_op", total_s * 1e9 / instructions as f64);
    report.e2e.insert("job_ms.p50", median(&best_s) * 1e3);
    report.e2e.insert("peak_rss_mib", peak_rss_mib());
    report.e2e.insert("setup_s", setup_s);

    if !args.trace {
        return;
    }
    let traced_best = fastest(traced.iter().map(|r| r.run_s.as_slice()));
    let deploy_best = fastest(traced.iter().map(|r| r.deploy_s.as_slice()));
    for (i, row) in rows.iter().enumerate() {
        let name = row.name();
        let first = &expected[i * per_net];
        let items = |k: usize| row_of(k) == i;
        report.layer(
            &format!("{name}.minstr_per_s"),
            minstr_per_s(&traced_best, &expected, items),
        );
        report.layer(&format!("{name}.instructions"), first.instructions as f64);
        report.layer(&format!("{name}.cycles"), first.cycles as f64);
        report.layer(
            &format!(
                "kernels.deploy_ms.{}.{}",
                NETS[row.net], TARGETS[row.target]
            ),
            median(&deploy_best[i * per_net..(i + 1) * per_net]) * 1e3,
        );
        if let (true, Some(cl)) = (row.is_cluster(), &first.cluster) {
            let core_cycles: u64 = cl.per_core_cycles.iter().sum();
            report.layer(
                &format!("{name}.busy_frac"),
                cl.busy_cycles as f64 / core_cycles as f64,
            );
        }
    }
    report.layer(
        "iss.minstr_per_s.single",
        minstr_per_s(&traced_best, &expected, |k| !cluster(k)),
    );
    report.layer(
        "iss.minstr_per_s.cluster",
        minstr_per_s(&traced_best, &expected, cluster),
    );
    report.layer("iss.paper_err_pct", paper_err);
    report.layer(
        "trace.overhead_frac",
        traced_best.iter().sum::<f64>() / total_s - 1.0,
    );
    spans.0.save(args, report);
}
