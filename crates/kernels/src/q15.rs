//! 16-bit SIMD kernels — the PULP-NN / CMSIS-NN style deployment path.
//!
//! Two dual-MAC kernels for [`iw_fann::Q15Net`]:
//!
//! * **RI5CY**: `p.lw` weight pair + `p.lw` activation pair +
//!   `pv.sdotsp.h` — 3 cycles per 2 MACs inside a hardware loop,
//! * **Cortex-M4**: `ldr` + `ldr` + `smlad` — the `arm_fully_connected_q15`
//!   inner loop.
//!
//! Both are bit-exact against [`Q15Net::forward`] (same pairwise wrapping
//! accumulation, same shift-back, same stepwise activation). This is the
//! "extension" experiment A7: what the paper's numbers would look like had
//! the authors quantised to 16 bits.

use iw_armv7m::asm::ThumbAsm;
use iw_armv7m::{Cond, LsWidth, ThumbInstr, R};
use iw_fann::Q15Net;
use iw_mrwolf::memmap::BARRIER_ADDR;
use iw_rv32::asm::Asm;
use iw_rv32::{BranchCond, LoopIdx, MemWidth, Reg, ShiftOp, SimdOp};

use crate::layout::Placement;
use crate::machine::{ExecPath, M4Machine, Machine, MachineRun, WolfMachine};
use crate::targets::KernelError;
use crate::workloads::Q15Workload;

/// Assigns addresses for a Q15 network: halfword weights, halfword
/// activation buffers (widths padded to even).
#[must_use]
pub fn place_q15(net: &Q15Net, weights_base: u32, buf_base: u32) -> Placement {
    let width = net
        .layers
        .iter()
        .map(|l| l.in_padded.max(l.out_count.div_ceil(2) * 2))
        .chain([net.num_inputs.div_ceil(2) * 2])
        .max()
        .unwrap_or(0);
    let buf_bytes = ((width * 2).div_ceil(16) * 16) as u32;
    let mut layer_weights = Vec::with_capacity(net.layers.len());
    let mut addr = weights_base;
    for layer in &net.layers {
        layer_weights.push(addr);
        addr += (layer.weights.len() * 2) as u32;
    }
    Placement {
        layer_weights,
        bufs: [buf_base, buf_base + buf_bytes],
        buf_width: width,
        weight_bytes: (addr - weights_base) as usize,
    }
}

/// Serialises a Q15 network's weights (little-endian halfwords).
#[must_use]
pub fn q15_image(net: &Q15Net, placement: &Placement) -> Vec<(u32, Vec<u8>)> {
    net.layers
        .iter()
        .zip(&placement.layer_weights)
        .map(|(layer, &addr)| {
            let mut bytes = Vec::with_capacity(layer.weights.len() * 2);
            for w in &layer.weights {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            (addr, bytes)
        })
        .collect()
}

const W_PTR: Reg = Reg::T0;
const X_PTR: Reg = Reg::T1;
const TMP_W: Reg = Reg::T2;
const TMP_X: Reg = Reg::T3;
const ACC: Reg = Reg::T4;
const COUNT: Reg = Reg::T5;
const OUT_PTR: Reg = Reg::T6;
const OUT_END: Reg = Reg::S2;
const SCRATCH: Reg = Reg::S3;
const OFFSET: Reg = Reg::S5;

fn add_const_rv(asm: &mut Asm, reg: Reg, imm: i32) {
    if imm == 0 {
        return;
    }
    if (-2048..2048).contains(&imm) {
        asm.addi(reg, reg, imm);
    } else {
        asm.li(OFFSET, imm);
        asm.add(reg, reg, OFFSET);
    }
}

/// Emits the RI5CY SIMD inference kernel for `cores` SPMD cores.
///
/// # Panics
///
/// Panics if `cores` is outside `1..=8`.
pub fn emit_riscy_q15_kernel(asm: &mut Asm, net: &Q15Net, placement: &Placement, cores: usize) {
    assert!((1..=8).contains(&cores), "cores must be 1..=8");
    let n = cores as i32;
    let f = net.frac_bits;
    let num_layers = net.layers.len();

    for (li, layer) in net.layers.iter().enumerate() {
        let w_addr = placement.layer_weights[li] as i32;
        let in_buf = placement.in_buf(li) as i32;
        let out_buf = placement.out_buf(li) as i32;
        let out_count = layer.out_count as i32;
        let row_bytes = (layer.row_halfwords() * 2) as i32;
        let pairs = (layer.in_padded / 2) as i32;

        asm.li(W_PTR, w_addr);
        asm.li(OUT_PTR, out_buf);
        asm.li(OUT_END, out_buf + 2 * out_count);
        if n > 1 {
            asm.li(OFFSET, row_bytes);
            asm.mul(OFFSET, Reg::A0, OFFSET);
            asm.add(W_PTR, W_PTR, OFFSET);
            asm.slli(OFFSET, Reg::A0, 1);
            asm.add(OUT_PTR, OUT_PTR, OFFSET);
        }
        asm.li(X_PTR, in_buf);

        let layer_end = asm.new_label();
        if n > 1 {
            asm.branch_to(BranchCond::Geu, OUT_PTR, OUT_END, layer_end);
        }
        let row_top = asm.here();

        // Bias halfword; the post-increment of 4 skips the alignment pad.
        asm.load_post(MemWidth::H, ACC, W_PTR, 4);
        asm.shift(ShiftOp::Slli, ACC, ACC, f);
        // Dual-MAC loop: 3 cycles per weight pair.
        asm.li(COUNT, pairs);
        let loop_end = asm.new_label();
        asm.lp_setup_to(LoopIdx::L0, COUNT, loop_end);
        asm.load_post(MemWidth::W, TMP_W, W_PTR, 4);
        asm.load_post(MemWidth::W, TMP_X, X_PTR, 4);
        asm.simd(SimdOp::SdotspH, ACC, TMP_W, TMP_X);
        asm.bind(loop_end);
        asm.srai(ACC, ACC, f);

        crate::rv::emit_stepwise_public(asm, &layer.activation);

        asm.store_post(MemWidth::H, TMP_W, OUT_PTR, 2 * n);
        add_const_rv(asm, X_PTR, -2 * (layer.in_padded as i32));
        if n > 1 {
            add_const_rv(asm, W_PTR, (n - 1) * row_bytes);
        }
        asm.branch_to(BranchCond::Ltu, OUT_PTR, OUT_END, row_top);
        asm.bind(layer_end);

        // Zero the tail pad slot when the layer width is odd, so the next
        // layer's pair loads see a clean buffer (all cores write zero —
        // harmless and keeps the kernel SPMD-uniform).
        if out_count % 2 == 1 {
            asm.li(SCRATCH, out_buf + 2 * out_count);
            asm.store(MemWidth::H, Reg::ZERO, SCRATCH, 0);
        }
        if n > 1 && li + 1 < num_layers {
            asm.li(SCRATCH, BARRIER_ADDR as i32);
            asm.sw(Reg::ZERO, SCRATCH, 0);
        }
    }
    asm.ecall();
}

const M4_W: R = R::R0;
const M4_X: R = R::R1;
const M4_TW: R = R::R2;
const M4_TX: R = R::R3;
const M4_ACC: R = R::R4;
const M4_CNT: R = R::R5;
const M4_OUT: R = R::R6;
const M4_SCRATCH: R = R::R7;
const M4_END: R = R::R9;

/// Emits the Cortex-M4 `smlad` inference kernel.
pub fn emit_m4_q15_kernel(asm: &mut ThumbAsm, net: &Q15Net, placement: &Placement) {
    let f = net.frac_bits;
    for (li, layer) in net.layers.iter().enumerate() {
        let w_addr = placement.layer_weights[li] as i32;
        let in_buf = placement.in_buf(li) as i32;
        let out_buf = placement.out_buf(li) as i32;
        let out_count = layer.out_count as i32;
        let pairs = (layer.in_padded / 2) as i32;

        asm.li(M4_W, w_addr);
        asm.li(M4_OUT, out_buf);
        asm.li(M4_END, out_buf + 2 * out_count);
        asm.li(M4_X, in_buf);

        let row_top = asm.here();
        asm.ldr_post(LsWidth::Sh, M4_ACC, M4_W, 4); // bias, skip the pad
        asm.lsl_imm(M4_ACC, M4_ACC, f);
        asm.li(M4_CNT, pairs);
        let inner = asm.here();
        asm.ldr_post(LsWidth::W, M4_TW, M4_W, 4);
        asm.ldr_post(LsWidth::W, M4_TX, M4_X, 4);
        asm.emit(ThumbInstr::Smlad {
            rd: M4_ACC,
            rn: M4_TW,
            rm: M4_TX,
            ra: M4_ACC,
        });
        asm.subs(M4_CNT, M4_CNT, 1);
        asm.b_to(Cond::Ne, inner);
        asm.asr_imm(M4_ACC, M4_ACC, f);

        crate::m4::emit_stepwise_m4_public(asm, &layer.activation);

        asm.str_post(LsWidth::H, M4_TW, M4_OUT, 2);
        asm.add_imm(M4_X, M4_X, -2 * (layer.in_padded as i32));
        asm.cmp(M4_OUT, M4_END);
        asm.b_to(Cond::Lo, row_top);

        if out_count % 2 == 1 {
            asm.li(M4_SCRATCH, out_buf + 2 * out_count);
            asm.li(M4_TW, 0);
            asm.str(LsWidth::H, M4_TW, M4_SCRATCH, 0);
        }
    }
    asm.bkpt();
}

/// Result of a Q15 run.
#[derive(Debug, Clone, PartialEq)]
pub struct Q15Run {
    /// Wall-clock cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The raw Q15 outputs.
    pub outputs: Vec<i16>,
    /// Compute energy, joules.
    pub energy_j: f64,
}

impl Q15Run {
    fn from_machine(run: MachineRun) -> Q15Run {
        Q15Run {
            cycles: run.cycles,
            instructions: run.instructions,
            outputs: Q15Workload::decode_outputs(&run.output),
            energy_j: run.energy.total_j,
        }
    }
}

/// Runs a Q15 classification on an arbitrary [`Machine`] — the registry
/// entry point experiment A7 iterates.
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_q15_on(
    machine: &dyn Machine,
    net: &Q15Net,
    input: &[i16],
) -> Result<Q15Run, KernelError> {
    let workload = Q15Workload::new(net, input)?;
    Ok(Q15Run::from_machine(
        machine.deploy(&workload)?.run(ExecPath::Product)?,
    ))
}

/// Runs a Q15 classification on the RI5CY cluster (`cores` = 1 for the
/// single-core comparison).
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_wolf_q15(net: &Q15Net, input: &[i16], cores: usize) -> Result<Q15Run, KernelError> {
    run_q15_on(&WolfMachine::cluster(cores), net, input)
}

/// Runs a Q15 classification on the nRF52832's Cortex-M4 (`smlad` path).
///
/// # Errors
///
/// See [`KernelError`].
pub fn run_m4_q15(net: &Q15Net, input: &[i16]) -> Result<Q15Run, KernelError> {
    run_q15_on(&M4Machine::new(), net, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_fann::Mlp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn net_and_input(seed: u64, sizes: &[usize]) -> (Q15Net, Vec<i16>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(sizes);
        net.randomize_weights(&mut rng, 0.4);
        let q = Q15Net::export(&net).unwrap();
        let input: Vec<f32> = (0..sizes[0]).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let qin = q.quantize_input(&input);
        (q, qin)
    }

    #[test]
    fn riscy_q15_bit_exact() {
        for (seed, sizes) in [
            (1u64, vec![5, 9, 3]),
            (2, vec![6, 14, 14, 2]),
            (3, vec![7, 7, 7, 7, 5]),
        ] {
            let (q, qin) = net_and_input(seed, &sizes);
            let expected = q.forward(&qin);
            let run = run_wolf_q15(&q, &qin, 1).unwrap();
            assert_eq!(run.outputs, expected, "sizes {sizes:?}");
        }
    }

    #[test]
    fn cluster_q15_bit_exact_and_faster() {
        let (q, qin) = net_and_input(4, &[5, 50, 50, 3]);
        let expected = q.forward(&qin);
        let single = run_wolf_q15(&q, &qin, 1).unwrap();
        let multi = run_wolf_q15(&q, &qin, 8).unwrap();
        assert_eq!(single.outputs, expected);
        assert_eq!(multi.outputs, expected);
        assert!(multi.cycles < single.cycles);
    }

    #[test]
    fn m4_q15_bit_exact() {
        for (seed, sizes) in [(5u64, vec![5, 9, 3]), (6, vec![4, 16, 16, 2])] {
            let (q, qin) = net_and_input(seed, &sizes);
            let expected = q.forward(&qin);
            let run = run_m4_q15(&q, &qin).unwrap();
            assert_eq!(run.outputs, expected, "sizes {sizes:?}");
        }
    }

    #[test]
    fn q15_simd_beats_q31_scalar_on_riscy() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Mlp::new(&[5, 50, 50, 3]);
        net.randomize_weights(&mut rng, 0.3);
        let q15 = Q15Net::export(&net).unwrap();
        let q31 = iw_fann::FixedNet::export(&net).unwrap();
        let input = vec![0.2f32, -0.4, 0.6, 0.1, -0.7];
        let r15 = run_wolf_q15(&q15, &q15.quantize_input(&input), 1).unwrap();
        let r31 = crate::targets::run_fixed(
            crate::targets::FixedTarget::WolfRiscy,
            &q31,
            &q31.quantize_input(&input),
        )
        .unwrap();
        assert!(
            (r15.cycles as f64) < 0.7 * r31.cycles as f64,
            "q15 {} vs q31 {}",
            r15.cycles,
            r31.cycles
        );
    }

    #[test]
    fn odd_width_layers_pad_correctly() {
        // Odd hidden width forces the pad-zeroing path.
        let (q, qin) = net_and_input(11, &[4, 9, 9, 3]);
        let expected = q.forward(&qin);
        assert_eq!(run_wolf_q15(&q, &qin, 8).unwrap().outputs, expected);
        assert_eq!(run_m4_q15(&q, &qin).unwrap().outputs, expected);
    }

    #[test]
    fn bad_input_rejected() {
        let (q, _) = net_and_input(12, &[5, 4, 2]);
        assert!(matches!(
            run_wolf_q15(&q, &[1, 2], 1),
            Err(KernelError::BadInput { .. })
        ));
    }
}
