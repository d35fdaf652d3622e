//! Pins the 8-core cluster's burst schedule on Network B. The product
//! path's loop ops must stop at the runner-up gate exactly where the fused
//! load pair did, so the scheduler makes the same picks and the same
//! gated breaks.

use iw_bench::evaluation_nets;
use iw_kernels::{registry, PreparedFixed};

#[test]
fn network_b_eight_core_schedule_is_unchanged() {
    let nets = evaluation_nets();
    let (_, _, fixed, qin) = &nets[1];
    let entry = registry()
        .into_iter()
        .find(|e| e.id == "cluster8")
        .expect("8-core target registered");
    let prep = PreparedFixed::on(&*entry.machine(), fixed, qin).expect("deploys");
    let (run, stats) = prep.run_stats().expect("runs");
    assert_eq!(run.cycles, 93_930);
    assert_eq!(stats.dispatches, 162_407, "scheduler picks: {stats:?}");
    assert_eq!(stats.gated_breaks, 162_207, "{stats:?}");
}
