//! Pins the Cortex-M4 rows of Tables III/IV on both evaluation networks:
//! cycles, instructions, every execution-profile class (count and base
//! cycles) and the outputs of the product interpreter. A change to how
//! the fusion-compiled program dispatches must leave all of them as they
//! are; only the dispatch counters may move.

use iw_bench::evaluation_nets;
use iw_kernels::{registry, FixedRun, PreparedFixed};
use iw_rv32::InstrClass;

fn m4_run(net: usize) -> FixedRun {
    let nets = evaluation_nets();
    let (_, _, fixed, qin) = &nets[net];
    let entry = registry()
        .into_iter()
        .find(|e| e.id == "m4")
        .expect("M4 target registered");
    let prep = PreparedFixed::on(&*entry.machine(), fixed, qin).expect("deploys");
    prep.run().expect("runs")
}

/// Asserts `run`'s profile holds exactly `classes` (instructions, base
/// cycles) and nothing in any other class.
fn assert_profile(run: &FixedRun, classes: &[(InstrClass, u64, u64)]) {
    for class in InstrClass::ALL {
        let want = classes
            .iter()
            .find(|(c, ..)| *c == class)
            .map_or((0, 0), |&(_, n, c)| (n, c));
        let got = run.profile.class(class);
        assert_eq!((got.instructions, got.cycles), want, "{class:?}");
    }
}

#[test]
fn network_a_m4_row_is_unchanged() {
    let run = m4_run(0);
    assert_eq!(run.cycles, 27_544);
    assert_eq!(run.instructions, 20_668);
    assert_eq!(run.outputs, [-357, -281, 148]);
    assert_profile(
        &run,
        &[
            (InstrClass::Alu, 9_512, 9_512),
            (InstrClass::Load, 5_903, 8_906),
            (InstrClass::Store, 103, 103),
            (InstrClass::Mul, 3_003, 3_003),
            (InstrClass::Div, 103, 721),
            (InstrClass::BranchTaken, 1_628, 4_884),
            (InstrClass::BranchNotTaken, 415, 415),
            (InstrClass::System, 1, 0),
        ],
    );
}

#[test]
fn network_b_m4_row_is_unchanged() {
    let run = m4_run(1);
    assert_eq!(run.cycles, 692_353);
    assert_eq!(run.instructions, 519_036);
    assert_eq!(run.outputs, [41, -256, -195, -367, 84, 252, -193, -269]);
    assert_profile(
        &run,
        &[
            (InstrClass::Alu, 227_259, 227_259),
            (InstrClass::Load, 160_808, 241_840),
            (InstrClass::Store, 1_256, 1_256),
            (InstrClass::Mul, 81_032, 81_032),
            (InstrClass::Div, 1_256, 8_792),
            (InstrClass::BranchTaken, 42_375, 127_125),
            (InstrClass::BranchNotTaken, 5_049, 5_049),
            (InstrClass::System, 1, 0),
        ],
    );
}
