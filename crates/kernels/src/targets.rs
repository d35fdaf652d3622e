//! High-level runners: deploy a network to a platform, execute one
//! classification, and report cycles + energy.
//!
//! These are thin, typed views over the execution layer in
//! [`crate::machine`]: every target is a [`Machine`], every network+input
//! pair a [`Workload`](crate::machine::Workload), and the per-target
//! staging/run/energy logic that used to live here is gone — the same
//! deployment path serves the paper tables, the ablations and the bench.

use iw_fann::{FixedNet, Mlp};
use iw_mrwolf::ClusterRun;
use iw_rv32::ExecProfile;

use iw_mrwolf::ClusterConfig;

use crate::machine::{
    Deployment, ExecPath, M4Machine, Machine, MachineError, MachineRun, ProductStats, WolfMachine,
};
use crate::rv::RvKernelOpts;
use crate::workloads::{FixedWorkload, FloatWorkload};

/// Error produced while deploying or running a kernel.
///
/// Alias of the execution layer's [`MachineError`] — the historical name,
/// kept for the public API.
pub type KernelError = MachineError;

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
fn place_on_wolf(net: &FixedNet) -> Result<(crate::layout::Placement, bool), KernelError> {
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
/// (one [`Machine::deploy`] call). Each [`PreparedFixed::run`] then stages
/// fresh memories and simulates a single classification, so repeated
/// inference (and the ISS-throughput bench, whose timed region is exactly
/// one `run`) does not re-pay code generation.
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
    /// See [`KernelError`].
    pub fn new(
        target: FixedTarget,
        net: &FixedNet,
        input: &[i32],
    ) -> Result<PreparedFixed, KernelError> {
        PreparedFixed::on(&*target.machine(), net, input)
    }

    /// Deploys `net` to any [`Machine`] — registry rows included.
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn on(
        machine: &dyn Machine,
        net: &FixedNet,
        input: &[i32],
    ) -> Result<PreparedFixed, KernelError> {
        let workload = FixedWorkload::new(net, input)?;
        Ok(PreparedFixed {
            deployment: machine.deploy(&workload)?,
        })
    }

    /// Deploys `net` to the nRF52832's Cortex-M4.
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn m4(net: &FixedNet, input: &[i32]) -> Result<PreparedFixed, KernelError> {
        PreparedFixed::on(&M4Machine::new(), net, input)
    }

    /// Deploys `net` to Mr. Wolf with explicit kernel options (used
    /// directly by the Xpulp/TCDM ablations).
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn wolf(
        net: &FixedNet,
        input: &[i32],
        opts: &RvKernelOpts,
        cluster_cfg: Option<ClusterConfig>,
        on_fc: bool,
    ) -> Result<PreparedFixed, KernelError> {
        let machine = WolfMachine::with_opts("Mr. Wolf (custom)", *opts, cluster_cfg, on_fc);
        PreparedFixed::on(&machine, net, input)
    }

    /// Simulates one classification through the target's product
    /// interpreter ([`ExecPath::Product`]).
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn run(&self) -> Result<FixedRun, KernelError> {
        Ok(FixedRun::from_machine(
            self.deployment.run(ExecPath::Product)?,
        ))
    }

    /// Simulates one classification through the uncached reference
    /// interpreters (per-instruction fetch + decode, no batching). Bit-
    /// and cycle-identical to [`PreparedFixed::run`]; only slower — the
    /// baseline side of the ISS-throughput bench.
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn run_uncached(&self) -> Result<FixedRun, KernelError> {
        Ok(FixedRun::from_machine(
            self.deployment.run(ExecPath::Reference)?,
        ))
    }

    /// [`PreparedFixed::run`] plus the product path's dispatch statistics
    /// (burst length, block-cache and fusion counters).
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn run_stats(&self) -> Result<(FixedRun, ProductStats), KernelError> {
        let (run, stats) = self.deployment.run_stats()?;
        Ok((FixedRun::from_machine(run), stats))
    }

    /// Simulates one classification with `rec` recording the full
    /// timeline (see
    /// [`Deployment::run_recorded`]). Observationally identical to
    /// [`PreparedFixed::run`].
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn run_recorded(&self, rec: &mut iw_trace::Recorder) -> Result<FixedRun, KernelError> {
        Ok(FixedRun::from_machine(self.deployment.run_recorded(rec)?))
    }
}

/// Runs one fixed-point classification on an arbitrary [`Machine`] — the
/// primary entry point for registry-driven experiments.
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_fixed_on(
    machine: &dyn Machine,
    net: &FixedNet,
    input: &[i32],
) -> Result<FixedRun, KernelError> {
    PreparedFixed::on(machine, net, input)?.run()
}

/// Runs one fixed-point classification on Mr. Wolf with explicit kernel
/// options (used directly by the Xpulp/TCDM ablations).
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_wolf_fixed_with(
    net: &FixedNet,
    input: &[i32],
    opts: &RvKernelOpts,
    cluster_cfg: Option<ClusterConfig>,
    on_fc: bool,
) -> Result<FixedRun, KernelError> {
    PreparedFixed::wolf(net, input, opts, cluster_cfg, on_fc)?.run()
}

/// Runs one fixed-point classification on the nRF52832's Cortex-M4.
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_m4_fixed(net: &FixedNet, input: &[i32]) -> Result<FixedRun, KernelError> {
    PreparedFixed::m4(net, input)?.run()
}

/// Reference Cortex-M4 run: the generated kernel is lowered to halfword
/// code and every dynamic instruction is decoded during execution —
/// the uncached baseline for [`run_m4_fixed`], bit- and cycle-identical.
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_m4_fixed_uncached(net: &FixedNet, input: &[i32]) -> Result<FixedRun, KernelError> {
    PreparedFixed::m4(net, input)?.run_uncached()
}

/// Runs one float (FPU) classification on the nRF52832's Cortex-M4F.
///
/// # Errors
///
/// See [`KernelError`].
///
/// # Panics
///
/// Panics if the network uses non-tanh activations (see
/// [`crate::emit_m4_float_kernel`]).
pub fn run_m4_float(net: &Mlp, input: &[f32]) -> Result<FloatRun, KernelError> {
    let workload = FloatWorkload::new(net, input)?;
    let run = M4Machine::new().deploy(&workload)?.run(ExecPath::Product)?;
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
/// See [`KernelError`].
pub fn run_fixed(
    target: FixedTarget,
    net: &FixedNet,
    input: &[i32],
) -> Result<FixedRun, KernelError> {
    PreparedFixed::new(target, net, input)?.run()
}

/// Runs one fixed-point classification on any target using the *uncached*
/// reference interpreters (no pre-decoding, no batching). Results are bit-
/// and cycle-identical to [`run_fixed`]; only the simulator is slower.
/// Exists as the baseline for the ISS-throughput bench.
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_fixed_uncached(
    target: FixedTarget,
    net: &FixedNet,
    input: &[i32],
) -> Result<FixedRun, KernelError> {
    PreparedFixed::new(target, net, input)?.run_uncached()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_mrwolf::memmap::L2_BASE;
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
            let fast = run_fixed(target, &fixed, &qin).unwrap();
            let reference = run_fixed_uncached(target, &fixed, &qin).unwrap();
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
            // Every single-core product path is block-compiled and fuses.
            let fused = match (stats.rv32, stats.m4) {
                (Some(rv), None) => rv.fused_total(),
                (None, Some(m4)) => m4.fused_total(),
                _ => 0,
            };
            let multi_core = matches!(target, FixedTarget::WolfCluster { cores } if cores > 1);
            assert_eq!(fused > 0, !multi_core, "target {target:?}: {stats:?}");
            // The RISC-V block caches compile each block once and then hit.
            if let Some(rv) = stats.rv32 {
                assert!(rv.hit_rate() > 0.5, "target {target:?}: {stats:?}");
                assert!(rv.blocks_compiled > 0, "target {target:?}: {stats:?}");
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

        let mut soc = Nrf52::new();
        for (addr, bytes) in fixed_image(&fixed, &placement) {
            soc.mem_mut().write_bytes(addr, &bytes);
        }
        for (i, &v) in qin.iter().enumerate() {
            soc.mem_mut()
                .write_bytes(placement.input_addr() + 4 * i as u32, &v.to_le_bytes());
        }
        let encoded_run = soc.run_code(&code, MAX_CYCLES).unwrap();
        let reference = run_m4_fixed(&fixed, &qin).unwrap();
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
            KernelError::BadInput {
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
        let starved = run_wolf_fixed_with(
            &fixed,
            &qin,
            &RvKernelOpts::cluster(8),
            Some(ClusterConfig {
                tcdm_banks: 1,
                ..ClusterConfig::default()
            }),
            false,
        )
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
