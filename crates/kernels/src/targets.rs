//! High-level runners: deploy a network to a platform, execute one
//! classification, and report cycles + energy.
//!
//! These are thin, typed views over the execution layer in
//! [`crate::machine`]: every target is a [`Machine`], every network+input
//! pair a [`Workload`](crate::machine::Workload). There is one way to run
//! a fixed-point classification: deploy it once with [`PreparedFixed::new`]
//! (a paper target) or [`PreparedFixed::on`] (any [`Machine`], registry
//! rows and custom Mr. Wolf options included), then run it through the
//! product interpreter, the reference, with dispatch statistics or with a
//! recorder. [`run_fixed`] and [`run_m4_float`] are the one-shot forms
//! for a single run.

use iw_fann::{FixedNet, Mlp};
use iw_mrwolf::ClusterRun;
use iw_rv32::ExecProfile;

use crate::machine::{
    Deployment, M4Machine, Machine, MachineError, MachineRun, ProductStats, WolfMachine,
};
use crate::workloads::{FixedWorkload, FloatWorkload};

/// Result of one fixed-point classification on a target.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedRun {
    /// Wall-clock cycles of the inference.
    pub cycles: u64,
    /// Instructions retired (all cores).
    pub instructions: u64,
    /// The raw fixed-point outputs.
    pub outputs: Vec<i32>,
    /// Energy of the compute phase, joules.
    pub energy_j: f64,
    /// Cluster statistics when the target was the cluster.
    pub cluster: Option<ClusterRun>,
    /// Per-class execution profile (base cycles, stalls excluded).
    pub profile: ExecProfile,
}

impl FixedRun {
    fn from_machine(run: MachineRun) -> FixedRun {
        FixedRun {
            cycles: run.cycles,
            instructions: run.instructions,
            outputs: FixedWorkload::decode_outputs(&run.output),
            energy_j: run.energy.total_j,
            cluster: run.cluster,
            profile: run.profile,
        }
    }

    /// Predicted class (argmax, first maximal index — FANN semantics).
    ///
    /// # Panics
    ///
    /// Panics if the output vector is empty.
    #[must_use]
    pub fn class(&self) -> usize {
        assert!(!self.outputs.is_empty(), "at least one output");
        let mut best = 0;
        for (i, &v) in self.outputs.iter().enumerate().skip(1) {
            if v > self.outputs[best] {
                best = i;
            }
        }
        best
    }
}

/// Result of one float classification on the Cortex-M4F.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatRun {
    /// Cycles of the inference.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The float outputs.
    pub outputs: Vec<f32>,
    /// Energy of the compute phase, joules.
    pub energy_j: f64,
    /// Per-class execution profile.
    pub profile: ExecProfile,
}

/// A fixed-point deployment target, matching the columns of the paper's
/// Tables III and IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedTarget {
    /// ARM Cortex-M4 on the nRF52832 at 64 MHz.
    CortexM4,
    /// Mr. Wolf fabric controller (Ibex, RV32IM), cluster power-gated.
    WolfIbex,
    /// A single RI5CY cluster core with full Xpulp.
    WolfRiscy,
    /// The RI5CY cluster with `cores` active cores.
    WolfCluster {
        /// Active cores (1..=8).
        cores: usize,
    },
}

impl FixedTarget {
    /// All four configurations the paper tabulates.
    #[must_use]
    pub fn paper_targets() -> [FixedTarget; 4] {
        [
            FixedTarget::CortexM4,
            FixedTarget::WolfIbex,
            FixedTarget::WolfRiscy,
            FixedTarget::WolfCluster { cores: 8 },
        ]
    }

    /// Builds the [`Machine`] implementing this target.
    #[must_use]
    pub fn machine(&self) -> Box<dyn Machine> {
        match self {
            FixedTarget::CortexM4 => Box::new(M4Machine::new()),
            FixedTarget::WolfIbex => Box::new(WolfMachine::ibex()),
            FixedTarget::WolfRiscy => Box::new(WolfMachine::riscy()),
            FixedTarget::WolfCluster { cores } => Box::new(WolfMachine::cluster(*cores)),
        }
    }

    /// Human-readable name matching the paper's column headers.
    #[must_use]
    pub fn name(&self) -> String {
        self.machine().name()
    }
}

/// Places a fixed network on Mr. Wolf via the shared placement policy
/// ([`wolf_layout`]). Returns the placement and whether the weights landed
/// in TCDM.
#[cfg(test)]
fn place_on_wolf(net: &FixedNet) -> Result<(crate::layout::Placement, bool), MachineError> {
    use crate::layout::place_fixed;
    use crate::machine::{wolf_layout, WorkloadFootprint};
    let probe = place_fixed(net, 0, 0);
    let fp = WorkloadFootprint {
        weight_bytes: probe.weight_bytes,
        buf_bytes: ((probe.bufs[1] - probe.bufs[0]) * 2) as usize,
    };
    let (layout, in_tcdm) = wolf_layout(&fp)?;
    Ok((
        place_fixed(net, layout.weights_base, layout.buf_base),
        in_tcdm,
    ))
}

/// A fixed-point network deployed to one target.
///
/// Deployment work — kernel emission, assembly/encoding, pre-decoding and
/// rendering the weight/bias image — happens once, in the constructors
/// (one [`Machine::deploy`] call). Each [`PreparedFixed::run`] then maps
/// the deployment's read-only image (the nRF52's flash, Mr. Wolf's L2),
/// stages the input into a fresh RAM (the nRF52's RAM, Mr. Wolf's TCDM)
/// and simulates a single classification, so repeated inference (and the
/// ISS-throughput bench, whose timed region is exactly one `run`) does
/// not re-pay code generation or the image.
///
/// # Examples
///
/// ```
/// use iw_fann::{presets::network_a, FixedNet};
/// use iw_kernels::{FixedTarget, PreparedFixed};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut net = network_a();
/// net.randomize_weights(&mut StdRng::seed_from_u64(1), 0.1);
/// let fixed = FixedNet::export(&net)?;
/// let input = fixed.quantize_input(&[0.1, -0.3, 0.7, 0.2, -0.5]);
/// let prep = PreparedFixed::new(FixedTarget::CortexM4, &fixed, &input)?;
/// let first = prep.run()?;
/// assert_eq!(prep.run()?, first); // deterministic, no re-deployment
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PreparedFixed {
    deployment: Box<dyn Deployment>,
}

impl PreparedFixed {
    /// Deploys `net` to `target` with the target's default kernel options.
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn new(
        target: FixedTarget,
        net: &FixedNet,
        input: &[i32],
    ) -> Result<PreparedFixed, MachineError> {
        PreparedFixed::on(&*target.machine(), net, input)
    }

    /// Deploys `net` to any [`Machine`] — registry rows included.
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn on(
        machine: &dyn Machine,
        net: &FixedNet,
        input: &[i32],
    ) -> Result<PreparedFixed, MachineError> {
        let workload = FixedWorkload::new(net, input)?;
        Ok(PreparedFixed {
            deployment: machine.deploy(&workload)?,
        })
    }

    /// Simulates one classification through the target's product
    /// interpreter ([`Deployment::run`]).
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn run(&self) -> Result<FixedRun, MachineError> {
        Ok(FixedRun::from_machine(self.deployment.run()?.0))
    }

    /// Simulates one classification through the uncached reference
    /// interpreters (per-instruction fetch + decode, no batching). Bit-
    /// and cycle-identical to [`PreparedFixed::run`]; only slower — the
    /// baseline side of the ISS-throughput bench.
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn run_uncached(&self) -> Result<FixedRun, MachineError> {
        Ok(FixedRun::from_machine(self.deployment.run_reference()?))
    }

    /// [`PreparedFixed::run`] plus the product path's dispatch statistics
    /// (burst length, block-cache and fusion counters).
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn run_stats(&self) -> Result<(FixedRun, ProductStats), MachineError> {
        let (run, stats) = self.deployment.run()?;
        Ok((FixedRun::from_machine(run), stats))
    }

    /// Simulates one classification with `rec` recording the full
    /// timeline (see
    /// [`Deployment::run_recorded`]). Observationally identical to
    /// [`PreparedFixed::run`].
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn run_recorded(&self, rec: &mut iw_trace::Recorder) -> Result<FixedRun, MachineError> {
        Ok(FixedRun::from_machine(self.deployment.run_recorded(rec)?))
    }
}

/// Runs one float (FPU) classification on the nRF52832's Cortex-M4F.
///
/// # Errors
///
/// See [`MachineError`].
///
/// # Panics
///
/// Panics if the network uses non-tanh activations (see
/// [`crate::emit_m4_float_kernel`]).
pub fn run_m4_float(net: &Mlp, input: &[f32]) -> Result<FloatRun, MachineError> {
    let workload = FloatWorkload::new(net, input)?;
    let (run, _) = M4Machine::new().deploy(&workload)?.run()?;
    Ok(FloatRun {
        cycles: run.cycles,
        instructions: run.instructions,
        outputs: FloatWorkload::decode_outputs(&run.output),
        energy_j: run.energy.total_j,
        profile: run.profile,
    })
}

/// Runs one fixed-point classification on any of the paper's targets.
///
/// # Errors
///
/// See [`MachineError`].
pub fn run_fixed(
    target: FixedTarget,
    net: &FixedNet,
    input: &[i32],
) -> Result<FixedRun, MachineError> {
    PreparedFixed::new(target, net, input)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rv::RvKernelOpts;
    use iw_mrwolf::memmap::L2_BASE;
    use iw_mrwolf::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_net(seed: u64) -> (Mlp, FixedNet, Vec<i32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&[5, 12, 12, 3]);
        net.randomize_weights(&mut rng, 0.4);
        let fixed = FixedNet::export(&net).unwrap();
        let input: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let qin = fixed.quantize_input(&input);
        (net, fixed, qin)
    }

    #[test]
    fn all_targets_agree_bit_exactly() {
        let (_, fixed, qin) = small_net(101);
        let expected = fixed.forward(&qin);
        for target in FixedTarget::paper_targets() {
            let run = run_fixed(target, &fixed, &qin).unwrap();
            assert_eq!(run.outputs, expected, "target {target:?}");
            assert!(run.cycles > 0);
            assert!(run.energy_j > 0.0);
        }
    }

    #[test]
    fn cluster_uses_all_cores() {
        let (_, fixed, qin) = small_net(102);
        let run = run_fixed(FixedTarget::WolfCluster { cores: 8 }, &fixed, &qin).unwrap();
        let stats = run.cluster.expect("cluster stats");
        assert_eq!(stats.per_core_cycles.len(), 8);
        assert!(stats.barriers >= 1);
    }

    #[test]
    fn multicore_is_faster_than_single() {
        let mut rng = StdRng::seed_from_u64(103);
        let mut net = Mlp::new(&[5, 50, 50, 3]);
        net.randomize_weights(&mut rng, 0.3);
        let fixed = FixedNet::export(&net).unwrap();
        let qin = fixed.quantize_input(&[0.3, -0.1, 0.8, -0.5, 0.0]);
        let single = run_fixed(FixedTarget::WolfRiscy, &fixed, &qin).unwrap();
        let multi = run_fixed(FixedTarget::WolfCluster { cores: 8 }, &fixed, &qin).unwrap();
        assert_eq!(single.outputs, multi.outputs);
        assert!(
            multi.cycles * 2 < single.cycles,
            "8 cores ({}) should be >2x faster than 1 ({})",
            multi.cycles,
            single.cycles
        );
    }

    #[test]
    fn uncached_reference_matches_cached_on_all_targets() {
        let (_, fixed, qin) = small_net(108);
        for target in FixedTarget::paper_targets() {
            let prep = PreparedFixed::new(target, &fixed, &qin).unwrap();
            let fast = prep.run().unwrap();
            let reference = prep.run_uncached().unwrap();
            assert_eq!(fast, reference, "target {target:?}");
        }
    }

    #[test]
    fn product_stats_match_run_and_report_fusion() {
        let (_, fixed, qin) = small_net(109);
        for target in FixedTarget::paper_targets() {
            let prep = PreparedFixed::new(target, &fixed, &qin).unwrap();
            let plain = prep.run().unwrap();
            let (run, stats) = prep.run_stats().unwrap();
            assert_eq!(run, plain, "target {target:?}");
            assert!(stats.avg_burst >= 1.0, "target {target:?}: {stats:?}");
            // Every product path dispatches a fused program, and every
            // single-core one executes its loop ops.
            let fused = match (stats.rv32, stats.m4) {
                (Some(rv), None) => rv.fused_total(),
                (None, Some(m4)) => m4.dot_loop_entries,
                _ => panic!("target {target:?}: one program's counters: {stats:?}"),
            };
            let multi_core = matches!(target, FixedTarget::WolfCluster { cores } if cores > 1);
            if !multi_core {
                assert!(fused > 0, "target {target:?}: {stats:?}");
            }
            // The RISC-V op programs account for every instruction the
            // cluster's joint mode did not retire, run more than one per
            // dispatch on one core, and translate each slot once (no code
            // stores), so translations stay far below dispatches.
            if let Some(rv) = stats.rv32 {
                assert_eq!(
                    rv.instructions + stats.joint_instructions,
                    run.instructions,
                    "target {target:?}"
                );
                assert!(rv.dispatches > 0, "target {target:?}: {stats:?}");
                assert!(rv.translations > 0, "target {target:?}: {stats:?}");
                assert!(
                    rv.translations < rv.dispatches,
                    "target {target:?}: {stats:?}"
                );
                assert_eq!(rv.redecodes, 0, "target {target:?}: {stats:?}");
                if !multi_core {
                    assert!(rv.avg_burst() > 1.0, "target {target:?}: {stats:?}");
                }
            }
        }
    }

    #[test]
    fn m4_generated_kernel_survives_encoding_roundtrip() {
        // The generated fixed kernel must be expressible in the halfword
        // encoding, and the per-halfword-decode path must reproduce the
        // pre-decoded run exactly (cycles, instructions, outputs).
        use crate::layout::{fixed_image, place_fixed};
        use crate::m4::emit_m4_fixed_kernel;
        use crate::machine::MAX_CYCLES;
        use iw_armv7m::asm::ThumbAsm;
        use iw_nrf52::{Nrf52, FLASH_BASE, RAM_BASE};

        let (_, fixed, qin) = small_net(107);
        let placement = place_fixed(&fixed, FLASH_BASE + 0x4000, RAM_BASE);
        let mut asm = ThumbAsm::new();
        emit_m4_fixed_kernel(&mut asm, &fixed, &placement);
        let program = asm.finish().unwrap();
        let code = iw_armv7m::encode_program(&program).unwrap();
        let decoded = iw_armv7m::DecodedProgram::decode(&code).unwrap();
        assert_eq!(decoded.instrs(), &program[..]);

        let (at, weights) = fixed_image(&fixed, &placement);
        let mut soc = Nrf52::with_flash(vec![(at, &weights[..])]).unwrap();
        for (i, &v) in qin.iter().enumerate() {
            soc.mem_mut()
                .ram_mut()
                .write_bytes(placement.input_addr() + 4 * i as u32, &v.to_le_bytes());
        }
        let encoded_run = soc.run_code(&code, MAX_CYCLES).unwrap();
        let reference = run_fixed(FixedTarget::CortexM4, &fixed, &qin).unwrap();
        assert_eq!(encoded_run.result.cycles, reference.cycles);
        assert_eq!(encoded_run.result.instructions, reference.instructions);
        assert_eq!(encoded_run.profile, reference.profile);
    }

    #[test]
    fn bad_input_rejected() {
        let (_, fixed, _) = small_net(104);
        let err = run_fixed(FixedTarget::CortexM4, &fixed, &[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            MachineError::BadInput {
                expected: 5,
                got: 2
            }
        ));
    }

    #[test]
    fn argmax_ties_break_to_first_index() {
        // FANN's argmax keeps the first maximal output; `max_by_key` keeps
        // the last. The tie must resolve to the first index.
        let run = FixedRun {
            cycles: 1,
            instructions: 1,
            outputs: vec![3, 7, 7, 2],
            energy_j: 0.0,
            cluster: None,
            profile: ExecProfile::default(),
        };
        assert_eq!(run.class(), 1);
        let all_equal = FixedRun {
            outputs: vec![5, 5, 5],
            ..run.clone()
        };
        assert_eq!(all_equal.class(), 0);
        let single = FixedRun {
            outputs: vec![-1],
            ..run
        };
        assert_eq!(single.class(), 0);
    }

    #[test]
    fn severe_tcdm_contention_stays_bit_exact() {
        // A single TCDM bank maximises conflicts; results must not change,
        // only timing.
        let (_, fixed, qin) = small_net(105);
        let expected = fixed.forward(&qin);
        let starved = WolfMachine::with_opts(
            "one TCDM bank",
            RvKernelOpts::cluster(8),
            Some(ClusterConfig {
                tcdm_banks: 1,
                ..ClusterConfig::default()
            }),
            false,
        );
        let starved = PreparedFixed::on(&starved, &fixed, &qin)
            .unwrap()
            .run()
            .unwrap();
        let roomy = run_fixed(FixedTarget::WolfCluster { cores: 8 }, &fixed, &qin).unwrap();
        assert_eq!(starved.outputs, expected);
        assert_eq!(roomy.outputs, expected);
        assert!(starved.cycles > roomy.cycles);
    }

    #[test]
    fn network_b_weights_go_to_l2() {
        // Network B (324 kB of weights) cannot fit TCDM: the placement
        // must spill to L2 and the kernel must still be bit-exact.
        let mut rng = StdRng::seed_from_u64(106);
        let mut net = iw_fann::presets::network_b();
        net.randomize_weights(&mut rng, 0.1);
        let fixed = FixedNet::export(&net).unwrap();
        let (placement, in_tcdm) = place_on_wolf(&fixed).unwrap();
        assert!(!in_tcdm);
        assert!(placement.layer_weights[0] >= L2_BASE);
        let input: Vec<f32> = (0..100).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let qin = fixed.quantize_input(&input);
        let run = run_fixed(FixedTarget::WolfCluster { cores: 8 }, &fixed, &qin).unwrap();
        assert_eq!(run.outputs, fixed.forward(&qin));
        // …and the L2 port must actually have been contended.
        assert!(run.cluster.unwrap().l2_port_stalls > 0);
    }
}
