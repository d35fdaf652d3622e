//! Conformance harness for the execution layer: every backend registered
//! in [`iw_kernels::registry`] must honour the [`Machine`] contract —
//! bit- and cycle-identical product/reference paths, correct outputs
//! against the crate-independent forward pass, sane energy accounting,
//! and typed errors for inputs that cannot run.

use iw_fann::{presets::network_a, presets::network_b, FixedNet, Mlp, Q15Net};
use iw_kernels::{
    registry, FeatureWorkload, FixedWorkload, FloatWorkload, M4Machine, Machine, MachineError,
    Q15Workload, TargetGroup,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixed_net(seed: u64) -> FixedNet {
    let mut net = network_a();
    net.randomize_weights(&mut StdRng::seed_from_u64(seed), 0.1);
    FixedNet::export(&net).expect("export network A")
}

/// Product and reference interpreters must agree on every observable —
/// the whole [`MachineRun`](iw_kernels::MachineRun): retired work, cycle
/// count, profile, energy split, cluster accounting and output bytes —
/// on every registered backend, not just the four paper targets.
#[test]
fn fixed_product_path_matches_reference_on_every_backend() {
    let fixed = fixed_net(11);
    let input = fixed.quantize_input(&[0.3, -0.2, 0.8, 0.1, -0.6]);
    let expect = fixed.forward(&input);
    for entry in registry() {
        let machine = entry.machine();
        let workload = FixedWorkload::new(&fixed, &input).expect("valid input");
        let deployment = machine.deploy(&workload).expect("deploy");
        let (product, _) = deployment.run().expect("product run");
        let reference = deployment.run_reference().expect("reference run");
        assert_eq!(product, reference, "{}", entry.id);
        assert_eq!(
            FixedWorkload::decode_outputs(&product.output),
            expect,
            "{}: forward-pass outputs",
            entry.id
        );
    }
}

/// Energy must be split into SoC and cluster domains that sum to the
/// total, and a strictly larger network must cost strictly more cycles
/// and energy on the same machine.
#[test]
fn energy_is_decomposed_and_monotone_in_cycles() {
    let small = fixed_net(12);
    let mut big = network_b();
    big.randomize_weights(&mut StdRng::seed_from_u64(12), 0.1);
    let big = FixedNet::export(&big).expect("export network B");
    let small_input = small.quantize_input(&[0.3, -0.2, 0.8, 0.1, -0.6]);
    let big_input = big.quantize_input(&[0.1; 100]);
    for entry in registry() {
        let machine = entry.machine();
        let run = |net: &FixedNet, input: &[i32]| {
            let workload = FixedWorkload::new(net, input).expect("valid input");
            machine
                .deploy(&workload)
                .expect("deploy")
                .run()
                .expect("run")
                .0
        };
        let a = run(&small, &small_input);
        let b = run(&big, &big_input);
        for r in [&a, &b] {
            let sum = r.energy.soc_j + r.energy.cluster_j;
            assert!(
                (sum - r.energy.total_j).abs() <= 1e-12 * r.energy.total_j.abs(),
                "{}: domain energies must sum to the total",
                entry.id
            );
            assert!(r.energy.soc_j > 0.0, "{}: SoC domain energy", entry.id);
            assert!(r.energy.cluster_j >= 0.0, "{}: cluster energy", entry.id);
        }
        assert!(b.cycles > a.cycles, "{}: bigger net, more cycles", entry.id);
        assert!(
            b.energy.total_j > a.energy.total_j,
            "{}: energy monotone in cycles",
            entry.id
        );
    }
}

/// The Q15 rows must run the packed-SIMD workload and agree with the
/// 16-bit reference forward pass on both paths.
#[test]
fn q15_workload_conforms_on_q15_targets() {
    let mut net = network_a();
    net.randomize_weights(&mut StdRng::seed_from_u64(13), 0.1);
    let q15 = Q15Net::export(&net).expect("export q15");
    let input = q15.quantize_input(&[0.3, -0.2, 0.8, 0.1, -0.6]);
    let expect = q15.forward(&input);
    let entries = iw_kernels::targets_in(TargetGroup::Q15);
    assert_eq!(entries.len(), 3, "three Q15 rows");
    for entry in entries {
        let machine = entry.machine();
        let workload = Q15Workload::new(&q15, &input).expect("valid input");
        let deployment = machine.deploy(&workload).expect("deploy");
        let (product, _) = deployment.run().expect("product run");
        let reference = deployment.run_reference().expect("reference run");
        assert_eq!(product.cycles, reference.cycles, "{}: cycles", entry.id);
        assert_eq!(
            product.output, reference.output,
            "{}: output bytes",
            entry.id
        );
        assert_eq!(
            Q15Workload::decode_outputs(&product.output),
            expect,
            "{}: q15 outputs",
            entry.id
        );
    }
}

/// The float workload must run the same on the M4's product path as on
/// its reference, every observable of the run compared, on both
/// evaluation networks: its inner loop runs one instruction per dispatch.
#[test]
fn float_workload_conforms_on_the_m4() {
    for (seed, mut net) in [(17, network_a()), (18, network_b())] {
        net.randomize_weights(&mut StdRng::seed_from_u64(seed), 0.1);
        let input: Vec<f32> = (0..net.num_inputs())
            .map(|i| ((i * 7) % 11) as f32 / 5.0 - 1.0)
            .collect();
        let workload = FloatWorkload::new(&net, &input).expect("valid input");
        let deployment = M4Machine::new().deploy(&workload).expect("deploy");
        let (product, _) = deployment.run().expect("product run");
        let reference = deployment.run_reference().expect("reference run");
        assert_eq!(product, reference, "{} inputs", net.num_inputs());
        assert!(product.instructions > 0);
    }
}

/// The feature-extraction workload (RR + GSR statistics) is plain
/// RV32IM/Thumb-2, so it must run — and agree with the Rust reference —
/// on every backend.
#[test]
fn feature_workload_conforms_on_every_backend() {
    let rr: Vec<i32> = (0..40).map(|i| 800 + 67 * ((i * i) % 13) - 150).collect();
    let gsr: Vec<i32> = (0..60).map(|i| 5000 + 311 * (i % 17) - 900).collect();
    let workload = FeatureWorkload::new(&rr, &gsr).expect("valid windows");
    let expect = workload.reference();
    for entry in registry() {
        let machine = entry.machine();
        let deployment = machine.deploy(&workload).expect("deploy");
        let (product, _) = deployment.run().expect("product run");
        let reference = deployment.run_reference().expect("reference run");
        assert_eq!(product.cycles, reference.cycles, "{}: cycles", entry.id);
        assert_eq!(
            product.output, reference.output,
            "{}: output bytes",
            entry.id
        );
        assert_eq!(
            iw_kernels::FeatureSummary::decode(&product.output),
            expect,
            "{}: feature summary",
            entry.id
        );
    }
}

/// Profile conservation: on every backend, the per-class execution
/// profile must account for every retired instruction; on cluster
/// targets, the busy/stall/barrier counters must partition the summed
/// per-core cycles exactly and the profile's base cycles must equal the
/// busy cycles.
#[test]
fn profile_counts_account_for_every_instruction_and_cycle() {
    let fixed = fixed_net(16);
    let input = fixed.quantize_input(&[0.3, -0.2, 0.8, 0.1, -0.6]);
    for entry in registry() {
        let machine = entry.machine();
        let workload = FixedWorkload::new(&fixed, &input).expect("valid input");
        let run = machine
            .deploy(&workload)
            .expect("deploy")
            .run()
            .expect("run")
            .0;
        let total = run.profile.total();
        assert_eq!(
            total.instructions, run.instructions,
            "{}: profile instruction counts must sum to retired instructions",
            entry.id
        );
        if let Some(cluster) = &run.cluster {
            let pool: u64 = cluster.per_core_cycles.iter().sum();
            assert_eq!(
                cluster.busy_cycles
                    + cluster.tcdm_conflict_stalls
                    + cluster.l2_port_stalls
                    + cluster.barrier_wait_cycles,
                pool,
                "{}: cycle classes must partition the per-core cycle pool",
                entry.id
            );
            assert_eq!(
                total.cycles, cluster.busy_cycles,
                "{}: profile base cycles must equal busy cycles",
                entry.id
            );
            assert_eq!(
                total.instructions, cluster.instructions,
                "{}: profile vs cluster instruction count",
                entry.id
            );
        } else {
            // Single-core targets have no memory-system stalls in the
            // model, so base cycles are wall cycles.
            assert_eq!(
                total.cycles, run.cycles,
                "{}: profile cycles must sum to wall cycles",
                entry.id
            );
        }
    }
}

/// A mismatched input length must surface as [`MachineError::BadInput`]
/// at workload construction, before any machine is involved.
#[test]
fn bad_input_is_rejected_as_typed_error() {
    let fixed = fixed_net(14);
    let err = FixedWorkload::new(&fixed, &[1, 2, 3]).unwrap_err();
    match err {
        MachineError::BadInput { expected, got } => {
            assert_eq!(expected, 5);
            assert_eq!(got, 3);
        }
        other => panic!("expected BadInput, got {other}"),
    }
}

/// A network whose weights exceed every memory map (~816 kB > 496 kB M4
/// flash window, > 384 kB Wolf L2 window) must be refused with
/// [`MachineError::DoesNotFit`] by every backend at deploy time.
#[test]
fn oversized_workload_does_not_fit_anywhere() {
    let mut net = Mlp::new(&[100, 400, 400, 8]);
    net.randomize_weights(&mut StdRng::seed_from_u64(15), 0.01);
    let fixed = FixedNet::export(&net).expect("export oversized net");
    let input = vec![0_i32; 100];
    for entry in registry() {
        let machine = entry.machine();
        let workload = FixedWorkload::new(&fixed, &input).expect("valid input");
        match machine.deploy(&workload) {
            Err(MachineError::DoesNotFit {
                required,
                available,
            }) => {
                assert!(
                    required > available,
                    "{}: required {required} <= available {available}",
                    entry.id
                );
            }
            Err(other) => panic!("{}: expected DoesNotFit, got {other}", entry.id),
            Ok(_) => panic!("{}: oversized workload deployed", entry.id),
        }
    }
}
