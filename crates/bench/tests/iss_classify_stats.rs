//! Pins the product path's dispatch counters on the eight iss-classify
//! rows (Networks A and B × the four paper targets): scheduler picks,
//! gated breaks, lockstep picks, instructions and joins, the lockstep's
//! period skips and the picks they stood for, and every counter of
//! the RV32 op program or the M4 fused program, the rows each loop op
//! served whole over borrowed memory slices included (every dot-product
//! row on the three single-core targets, none on eight cores, whose bus
//! arbitrates). A change to which ops the
//! programs fuse or dispatch shows here first, row by row; the cycle
//! counts and outputs of the same rows are pinned by the Table III/IV
//! goldens, `m4_rows.rs` and `cluster_schedule.rs`.

use iw_armv7m::FusedStats;
use iw_bench::evaluation_nets;
use iw_kernels::{FixedTarget, PreparedFixed, ProductStats};
use iw_rv32::ProgramStats;

/// The product stats of `target` on evaluation network `net`.
fn stats(net: usize, target: FixedTarget) -> ProductStats {
    let nets = evaluation_nets();
    let (_, _, fixed, qin) = &nets[net];
    let prep = PreparedFixed::new(target, fixed, qin).expect("deploys");
    prep.run_stats().expect("runs").1
}

/// Asserts the scheduler-level counters `(dispatches, gated_breaks,
/// joint_picks, joint_instructions, joint_entries, period_skips,
/// skipped_picks)` and the one program's counters.
fn assert_row(
    s: &ProductStats,
    sched: (u64, u64, u64, u64, u64, u64, u64),
    rv32: Option<ProgramStats>,
    m4: Option<FusedStats>,
) {
    let got = (
        s.dispatches,
        s.gated_breaks,
        s.joint_picks,
        s.joint_instructions,
        s.joint_entries,
        s.period_skips,
        s.skipped_picks,
    );
    assert_eq!(got, sched, "{s:?}");
    assert_eq!(s.rv32, rv32);
    assert_eq!(s.m4, m4);
}

#[test]
fn network_a_m4_counters() {
    let m4 = FusedStats {
        dispatches: 3_671,
        instructions: 20_668,
        dot_loop_entries: 103,
        dot_loop_iterations: 1_425,
        whole_rows: 103,
    };
    let s = stats(0, FixedTarget::CortexM4);
    assert_row(&s, (3_671, 0, 0, 0, 0, 0, 0), None, Some(m4));
}

#[test]
fn network_b_m4_counters() {
    let m4 = FusedStats {
        dispatches: 41_636,
        instructions: 519_036,
        dot_loop_entries: 1_256,
        dot_loop_iterations: 39_888,
        whole_rows: 1_256,
    };
    let s = stats(1, FixedTarget::CortexM4);
    assert_row(&s, (41_636, 0, 0, 0, 0, 0, 0), None, Some(m4));
}

#[test]
fn network_a_ibex_counters() {
    let rv = ProgramStats {
        dispatches: 2_700,
        instructions: 28_800,
        translations: 100,
        redecodes: 0,
        fused_mul_srai_add: 0,
        fused_addi_branch: 103,
        hwloop_dot_entries: 0,
        hwloop_dot_iterations: 0,
        counted_dot_entries: 103,
        counted_dot_iterations: 2_900,
        whole_rows: 103,
    };
    let s = stats(0, FixedTarget::WolfIbex);
    assert_row(&s, (2_700, 0, 0, 0, 0, 0, 0), Some(rv), None);
}

#[test]
fn network_b_ibex_counters() {
    let rv = ProgramStats {
        dispatches: 32_829,
        instructions: 750_813,
        translations: 823,
        redecodes: 0,
        fused_mul_srai_add: 0,
        fused_addi_branch: 1_256,
        hwloop_dot_entries: 0,
        hwloop_dot_iterations: 0,
        counted_dot_entries: 1_256,
        counted_dot_iterations: 79_776,
        whole_rows: 1_256,
    };
    let s = stats(1, FixedTarget::WolfIbex);
    assert_row(&s, (32_829, 0, 0, 0, 0, 0, 0), Some(rv), None);
}

#[test]
fn network_a_riscy_counters() {
    let rv = ProgramStats {
        dispatches: 2_700,
        instructions: 17_200,
        translations: 100,
        redecodes: 0,
        fused_mul_srai_add: 0,
        fused_addi_branch: 103,
        hwloop_dot_entries: 103,
        hwloop_dot_iterations: 2_900,
        counted_dot_entries: 0,
        counted_dot_iterations: 0,
        whole_rows: 103,
    };
    // The single core runs the whole program in one scheduler pick; its
    // dispatches are the op program's.
    let s = stats(0, FixedTarget::WolfRiscy);
    assert_row(&s, (2_700, 0, 0, 0, 0, 0, 0), Some(rv), None);
}

#[test]
fn network_b_riscy_counters() {
    let rv = ProgramStats {
        dispatches: 32_829,
        instructions: 431_709,
        translations: 823,
        redecodes: 0,
        fused_mul_srai_add: 0,
        fused_addi_branch: 1_256,
        hwloop_dot_entries: 1_256,
        hwloop_dot_iterations: 79_776,
        counted_dot_entries: 0,
        counted_dot_iterations: 0,
        whole_rows: 1_256,
    };
    let s = stats(1, FixedTarget::WolfRiscy);
    assert_row(&s, (32_829, 0, 0, 0, 0, 0, 0), Some(rv), None);
}

#[test]
fn network_a_cluster8_counters() {
    // The op program dispatches only the picks outside the lockstep: row
    // boundaries, prologue and barriers. The hardware-loop op runs its
    // first load alone there, the body's slots the rest of the pass.
    let rv = ProgramStats {
        dispatches: 3_182,
        instructions: 3_537,
        translations: 130,
        redecodes: 0,
        fused_mul_srai_add: 122,
        fused_addi_branch: 111,
        hwloop_dot_entries: 19,
        hwloop_dot_iterations: 0,
        counted_dot_entries: 0,
        counted_dot_iterations: 0,
        whole_rows: 0,
    };
    let s = stats(0, FixedTarget::WolfCluster { cores: 8 });
    assert_row(
        &s,
        (5_926, 5_902, 5_636, 14_096, 103, 8, 4_615),
        Some(rv),
        None,
    );
}

#[test]
fn network_b_cluster8_counters() {
    let rv = ProgramStats {
        dispatches: 38_776,
        instructions: 42_576,
        translations: 1_105,
        redecodes: 0,
        fused_mul_srai_add: 1_456,
        fused_addi_branch: 888,
        hwloop_dot_entries: 200,
        hwloop_dot_iterations: 0,
        counted_dot_entries: 0,
        counted_dot_iterations: 0,
        whole_rows: 0,
    };
    // Every core joins the lockstep once per row it computes.
    let s = stats(1, FixedTarget::WolfCluster { cores: 8 });
    assert_row(
        &s,
        (162_407, 162_207, 159_117, 394_112, 1_256, 157, 147_776),
        Some(rv),
        None,
    );
}
