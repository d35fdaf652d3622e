//! Pins the 8-core cluster's burst schedule on Network B. The product
//! path's loop ops must stop at the runner-up gate exactly where the fused
//! load pair did, so the scheduler makes the same picks and the same
//! gated breaks, and the run's cluster accounting (instructions, stalls,
//! busy and barrier cycles) must not move. The lockstep (cores in a
//! dot-product row's body) must serve most of those picks.

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
    let cluster = run.cluster.as_ref().expect("cluster run");
    assert_eq!(cluster.instructions, 436_688);
    assert_eq!(cluster.tcdm_conflict_stalls, 4);
    assert_eq!(cluster.l2_port_stalls, 81_380);
    assert_eq!(cluster.busy_cycles, 647_336);
    assert_eq!(cluster.barrier_wait_cycles, 2_692);
    assert_eq!(cluster.barriers, 24);
    assert_eq!(stats.dispatches, 162_407, "scheduler picks: {stats:?}");
    assert_eq!(stats.gated_breaks, 162_207, "{stats:?}");
}

/// Network A's lockstep has a different period shape (256 picks, 80
/// cycles) and charges TCDM bank conflicts, which Network B barely does:
/// its accounting pins the bank half of the lockstep's period state.
#[test]
fn network_a_eight_core_schedule_is_unchanged() {
    let nets = evaluation_nets();
    let (_, _, fixed, qin) = &nets[0];
    let entry = registry()
        .into_iter()
        .find(|e| e.id == "cluster8")
        .expect("8-core target registered");
    let prep = PreparedFixed::on(&*entry.machine(), fixed, qin).expect("deploys");
    let (run, stats) = prep.run_stats().expect("runs");
    assert_eq!(run.cycles, 5_725);
    let cluster = run.cluster.as_ref().expect("cluster run");
    assert_eq!(cluster.instructions, 17_633);
    assert_eq!(cluster.tcdm_conflict_stalls, 105);
    assert_eq!(cluster.l2_port_stalls, 0);
    assert_eq!(cluster.busy_cycles, 21_622);
    assert_eq!(cluster.barrier_wait_cycles, 2_500);
    assert_eq!(cluster.barriers, 2);
    assert_eq!(stats.dispatches, 5_926, "scheduler picks: {stats:?}");
    assert_eq!(stats.gated_breaks, 5_902, "{stats:?}");
}

#[test]
fn network_b_eight_core_picks_are_served_by_the_joint_mode() {
    let nets = evaluation_nets();
    let (_, _, fixed, qin) = &nets[1];
    let entry = registry()
        .into_iter()
        .find(|e| e.id == "cluster8")
        .expect("8-core target registered");
    let prep = PreparedFixed::on(&*entry.machine(), fixed, qin).expect("deploys");
    let (_, stats) = prep.run_stats().expect("runs");
    // Every core sits in a dot-product row's body for all but its own
    // row boundaries: 159 117 of the 162 407 picks.
    assert!(
        stats.joint_picks * 100 > stats.dispatches * 90,
        "joint picks {} of {}",
        stats.joint_picks,
        stats.dispatches
    );
}
