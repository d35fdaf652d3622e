//! ARM Cortex-M4F kernel generators: the paper's baseline platform.
//!
//! Two kernels are generated, matching the two implementations the paper
//! compares in-text (38478 float vs 30210 fixed cycles for Network A):
//!
//! * **fixed-point** — FANN's fixed `fann_run` structure, bit-exact against
//!   [`iw_fann::FixedNet::forward`] (same wrapping multiplies, arithmetic
//!   shifts, truncating `sdiv` in the stepwise activation);
//! * **float (FPU)** — `vmla.f32` inner products and a faithful software
//!   `tanh` (range-reduced polynomial `exp`, as a libm on a Cortex-M4F
//!   would compute it), validated against [`iw_fann::Mlp::forward`] within
//!   a small tolerance.

use iw_armv7m::asm::{Label, ThumbAsm};
use iw_armv7m::{Cond, DpOp, LsWidth, ThumbInstr, R, S};
use iw_fann::{Activation, FixedActivation, FixedNet, Mlp};

use crate::layout::Placement;

const W_PTR: R = R::R0;
const X_PTR: R = R::R1;
const TMP_W: R = R::R2;
const TMP_X: R = R::R3;
const ACC: R = R::R4;
const COUNT: R = R::R5;
const OUT_PTR: R = R::R6;
const SCRATCH: R = R::R7;
const INTERP: R = R::R8;
const OUT_END: R = R::R9;

fn add_const(asm: &mut ThumbAsm, reg: R, imm: i32) {
    if imm != 0 {
        asm.add_imm(reg, reg, imm);
    }
}

/// Emits the fixed stepwise activation: reads `ACC`, result in `TMP_W`.
fn emit_stepwise_m4(asm: &mut ThumbAsm, act: &FixedActivation) {
    emit_stepwise_m4_public(asm, act);
}

/// Crate-public stepwise emitter shared with the Q15 kernel (sum in `r4`,
/// result in `r2`, scratch `r7`/`r8`).
pub(crate) fn emit_stepwise_m4_public(asm: &mut ThumbAsm, act: &FixedActivation) {
    let done = asm.new_label();
    let lmin = asm.new_label();
    let segs: Vec<Label> = (0..5).map(|_| asm.new_label()).collect();

    asm.li(SCRATCH, act.v[0]);
    asm.cmp(ACC, SCRATCH);
    asm.b_to(Cond::Lt, lmin);
    for (k, &seg) in segs.iter().enumerate() {
        asm.li(SCRATCH, act.v[k + 1]);
        asm.cmp(ACC, SCRATCH);
        asm.b_to(Cond::Lt, seg);
    }
    asm.li(TMP_W, act.max);
    asm.b(done);
    asm.bind(lmin);
    asm.li(TMP_W, act.min);
    asm.b(done);
    for (k, &seg) in segs.iter().enumerate() {
        asm.bind(seg);
        asm.li(SCRATCH, act.v[k]);
        asm.dp(DpOp::Sub, INTERP, ACC, SCRATCH);
        asm.li(SCRATCH, act.r[k + 1].wrapping_sub(act.r[k]));
        asm.dp(DpOp::Mul, INTERP, INTERP, SCRATCH);
        asm.li(SCRATCH, act.v[k + 1] - act.v[k]);
        asm.dp(DpOp::Sdiv, INTERP, INTERP, SCRATCH);
        asm.li(SCRATCH, act.r[k]);
        asm.dp(DpOp::Add, TMP_W, INTERP, SCRATCH);
        if k < 4 {
            asm.b(done);
        }
    }
    asm.bind(done);
}

/// Generates the fixed-point inference kernel for the Cortex-M4.
pub fn emit_m4_fixed_kernel(asm: &mut ThumbAsm, net: &FixedNet, placement: &Placement) {
    let dp = net.decimal_point;
    for (li, layer) in net.layers.iter().enumerate() {
        let w_addr = placement.layer_weights[li] as i32;
        let in_buf = placement.in_buf(li) as i32;
        let out_buf = placement.out_buf(li) as i32;
        let in_count = layer.in_count as i32;
        let out_count = layer.out_count as i32;

        asm.mark(&format!("layer{li};setup"));
        asm.li(W_PTR, w_addr);
        asm.li(OUT_PTR, out_buf);
        asm.li(OUT_END, out_buf + 4 * out_count);
        asm.li(X_PTR, in_buf);

        asm.mark(&format!("layer{li};dot"));
        let row_top = asm.here();
        asm.ldr_post(LsWidth::W, ACC, W_PTR, 4); // bias
                                                 // CMSIS-style ×2 unroll: same MAC order as the reference (so the
                                                 // result stays bit-exact), half the loop-control overhead.
        let mac = |asm: &mut ThumbAsm| {
            asm.ldr_post(LsWidth::W, TMP_W, W_PTR, 4);
            asm.ldr_post(LsWidth::W, TMP_X, X_PTR, 4);
            asm.dp(DpOp::Mul, TMP_W, TMP_W, TMP_X);
            asm.asr_imm(TMP_W, TMP_W, dp);
            asm.dp(DpOp::Add, ACC, ACC, TMP_W);
        };
        let pairs = in_count / 2;
        if pairs > 0 {
            asm.li(COUNT, pairs);
            let inner_top = asm.here();
            mac(asm);
            mac(asm);
            asm.subs(COUNT, COUNT, 1);
            asm.b_to(Cond::Ne, inner_top);
        }
        if in_count % 2 == 1 {
            mac(asm);
        }

        asm.mark(&format!("layer{li};act"));
        emit_stepwise_m4(asm, &layer.activation);

        asm.mark(&format!("layer{li};store"));
        asm.str_post(LsWidth::W, TMP_W, OUT_PTR, 4);
        add_const(asm, X_PTR, -(4 * in_count));
        asm.cmp(OUT_PTR, OUT_END);
        asm.b_to(Cond::Lo, row_top);
    }
    asm.mark("halt");
    asm.bkpt();
}

// FPU register plan for the float kernel.
const F_ACC: S = S::new(0);
const F_W: S = S::new(1);
const F_X: S = S::new(2);
const F_Z: S = S::new(3);
const F_AZ: S = S::new(4);
const F_Y: S = S::new(5);
const F_K: S = S::new(6);
const F_R: S = S::new(7);
const F_P: S = S::new(8);
const F_T: S = S::new(9);
const C_LOG2E: S = S::new(10);
const C_LN2: S = S::new(11);
const C_HALF: S = S::new(12);
const C_SIXTH: S = S::new(13);
const C_24TH: S = S::new(14);
const C_ONE: S = S::new(15);
const C_TWO: S = S::new(16);
const C_STEEP: S = S::new(17);
const C_NINE: S = S::new(18);
const C_RND: S = S::new(19);
const F_TMP: S = S::new(20);
const C_ZERO: S = S::new(21);

fn load_fconst(asm: &mut ThumbAsm, s: S, value: f32) {
    asm.li(SCRATCH, value.to_bits() as i32);
    asm.emit(ThumbInstr::VmovToS { sd: s, rt: SCRATCH });
}

/// Emits `tanh(steepness · F_ACC)` into `F_T` (see module docs for the
/// algorithm). Clobbers `F_Z..F_TMP` and `SCRATCH`.
fn emit_tanh(asm: &mut ThumbAsm) {
    let sat = asm.new_label();
    let sign = asm.new_label();
    let store = asm.new_label();

    asm.emit(ThumbInstr::Vmul {
        sd: F_Z,
        sn: F_ACC,
        sm: C_STEEP,
    });
    asm.emit(ThumbInstr::Vabs { sd: F_AZ, sm: F_Z });
    asm.emit(ThumbInstr::Vcmp {
        sn: F_AZ,
        sm: C_NINE,
    });
    asm.emit(ThumbInstr::Vmrs);
    asm.b_to(Cond::Gt, sat);
    // y = 2·|z| ; k = ⌊y·log2e + ½⌋ ; r = y − k·ln2
    asm.emit(ThumbInstr::Vadd {
        sd: F_Y,
        sn: F_AZ,
        sm: F_AZ,
    });
    asm.emit(ThumbInstr::Vmul {
        sd: F_K,
        sn: F_Y,
        sm: C_LOG2E,
    });
    asm.emit(ThumbInstr::Vadd {
        sd: F_K,
        sn: F_K,
        sm: C_RND,
    });
    asm.emit(ThumbInstr::VcvtS32F32 { sd: F_K, sm: F_K });
    asm.emit(ThumbInstr::VmovFromS {
        rt: SCRATCH,
        sm: F_K,
    });
    asm.emit(ThumbInstr::VcvtF32S32 { sd: F_TMP, sm: F_K });
    asm.emit(ThumbInstr::Vmul {
        sd: F_TMP,
        sn: F_TMP,
        sm: C_LN2,
    });
    asm.emit(ThumbInstr::Vsub {
        sd: F_R,
        sn: F_Y,
        sm: F_TMP,
    });
    // p = exp(r) by 4th-order Horner polynomial.
    asm.emit(ThumbInstr::Vmul {
        sd: F_P,
        sn: F_R,
        sm: C_24TH,
    });
    asm.emit(ThumbInstr::Vadd {
        sd: F_P,
        sn: F_P,
        sm: C_SIXTH,
    });
    asm.emit(ThumbInstr::Vmul {
        sd: F_P,
        sn: F_P,
        sm: F_R,
    });
    asm.emit(ThumbInstr::Vadd {
        sd: F_P,
        sn: F_P,
        sm: C_HALF,
    });
    asm.emit(ThumbInstr::Vmul {
        sd: F_P,
        sn: F_P,
        sm: F_R,
    });
    asm.emit(ThumbInstr::Vadd {
        sd: F_P,
        sn: F_P,
        sm: C_ONE,
    });
    asm.emit(ThumbInstr::Vmul {
        sd: F_P,
        sn: F_P,
        sm: F_R,
    });
    asm.emit(ThumbInstr::Vadd {
        sd: F_P,
        sn: F_P,
        sm: C_ONE,
    });
    // e = p · 2^k  (exponent bits built in the integer pipe)
    asm.add_imm(SCRATCH, SCRATCH, 127);
    asm.lsl_imm(SCRATCH, SCRATCH, 23);
    asm.emit(ThumbInstr::VmovToS {
        sd: F_TMP,
        rt: SCRATCH,
    });
    asm.emit(ThumbInstr::Vmul {
        sd: F_T,
        sn: F_P,
        sm: F_TMP,
    });
    // t = 1 − 2/(e + 1)
    asm.emit(ThumbInstr::Vadd {
        sd: F_T,
        sn: F_T,
        sm: C_ONE,
    });
    asm.emit(ThumbInstr::Vdiv {
        sd: F_T,
        sn: C_TWO,
        sm: F_T,
    });
    asm.emit(ThumbInstr::Vsub {
        sd: F_T,
        sn: C_ONE,
        sm: F_T,
    });
    asm.b(sign);
    asm.bind(sat);
    asm.emit(ThumbInstr::VmovF { sd: F_T, sm: C_ONE });
    asm.bind(sign);
    asm.emit(ThumbInstr::Vcmp {
        sn: F_Z,
        sm: C_ZERO,
    });
    asm.emit(ThumbInstr::Vmrs);
    asm.b_to(Cond::Ge, store);
    asm.emit(ThumbInstr::Vneg { sd: F_T, sm: F_T });
    asm.bind(store);
}

/// Generates the float (FPU) inference kernel for the Cortex-M4F.
///
/// # Panics
///
/// Panics if any layer uses an activation other than
/// [`Activation::SigmoidSymmetric`] — the float kernel implements the
/// paper's tanh networks only.
pub fn emit_m4_float_kernel(asm: &mut ThumbAsm, net: &Mlp, placement: &Placement) {
    // Constants shared by every layer.
    load_fconst(asm, C_LOG2E, std::f32::consts::LOG2_E);
    load_fconst(asm, C_LN2, std::f32::consts::LN_2);
    load_fconst(asm, C_HALF, 0.5);
    load_fconst(asm, C_SIXTH, 1.0 / 6.0);
    load_fconst(asm, C_24TH, 1.0 / 24.0);
    load_fconst(asm, C_ONE, 1.0);
    load_fconst(asm, C_TWO, 2.0);
    load_fconst(asm, C_NINE, 9.0);
    load_fconst(asm, C_RND, 0.5);
    load_fconst(asm, C_ZERO, 0.0);

    for (li, layer) in net.layers().iter().enumerate() {
        assert_eq!(
            layer.activation(),
            Activation::SigmoidSymmetric,
            "float kernel supports tanh (symmetric sigmoid) layers only"
        );
        load_fconst(asm, C_STEEP, layer.steepness());
        let w_addr = placement.layer_weights[li] as i32;
        let in_buf = placement.in_buf(li) as i32;
        let out_buf = placement.out_buf(li) as i32;
        let in_count = layer.in_count() as i32;
        let out_count = layer.out_count() as i32;

        asm.li(W_PTR, w_addr);
        asm.li(OUT_PTR, out_buf);
        asm.li(OUT_END, out_buf + 4 * out_count);
        asm.li(X_PTR, in_buf);

        let row_top = asm.here();
        asm.vldr_post(F_ACC, W_PTR, 4); // bias
        asm.li(COUNT, in_count);
        let inner_top = asm.here();
        asm.vldr_post(F_W, W_PTR, 4);
        asm.vldr_post(F_X, X_PTR, 4);
        asm.emit(ThumbInstr::Vmla {
            sd: F_ACC,
            sn: F_W,
            sm: F_X,
        });
        asm.subs(COUNT, COUNT, 1);
        asm.b_to(Cond::Ne, inner_top);

        emit_tanh(asm);

        asm.vstr(F_T, OUT_PTR, 0);
        add_const(asm, OUT_PTR, 4);
        add_const(asm, X_PTR, -(4 * in_count));
        asm.cmp(OUT_PTR, OUT_END);
        asm.b_to(Cond::Lo, row_top);
    }
    asm.bkpt();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{fixed_image, float_image, place_fixed, place_float};
    use iw_armv7m::{CortexM4, CortexM4Timing};
    use iw_nrf52::{Nrf52Memory, FLASH_BASE, RAM_BASE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn m4_fixed_bit_exact() {
        let mut rng = StdRng::seed_from_u64(21);
        for sizes in [vec![5, 9, 3], vec![4, 16, 16, 2]] {
            let mut net = Mlp::new(&sizes);
            net.randomize_weights(&mut rng, 0.4);
            let fixed = FixedNet::export(&net).unwrap();
            let placement = place_fixed(&fixed, FLASH_BASE + 0x4000, RAM_BASE);
            let mut asm = ThumbAsm::new();
            emit_m4_fixed_kernel(&mut asm, &fixed, &placement);
            let program = asm.finish().unwrap();

            let (at, weights) = fixed_image(&fixed, &placement);
            let mut mem = Nrf52Memory::new(vec![(at, &weights[..])]).unwrap();
            let input: Vec<f32> = (0..sizes[0]).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let qin = fixed.quantize_input(&input);
            for (i, &v) in qin.iter().enumerate() {
                mem.ram_mut()
                    .write_bytes(placement.input_addr() + 4 * i as u32, &v.to_le_bytes());
            }

            let mut cpu = CortexM4::new();
            cpu.run(&program, &mut mem, &CortexM4Timing::default(), 100_000_000)
                .unwrap();

            let expected = fixed.forward(&qin);
            let out_addr = placement.output_addr(fixed.layers.len());
            for (i, &e) in expected.iter().enumerate() {
                let got = i32::from_le_bytes(
                    mem.ram()
                        .read_bytes(out_addr + 4 * i as u32, 4)
                        .try_into()
                        .unwrap(),
                );
                assert_eq!(got, e, "sizes {sizes:?} output {i}");
            }
        }
    }

    #[test]
    fn m4_float_matches_reference_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut net = Mlp::new(&[5, 20, 10, 3]);
        net.randomize_weights(&mut rng, 0.4);
        let placement = place_float(&net, FLASH_BASE + 0x4000, RAM_BASE);
        let mut asm = ThumbAsm::new();
        emit_m4_float_kernel(&mut asm, &net, &placement);
        let program = asm.finish().unwrap();

        let (at, weights) = float_image(&net, &placement);
        for trial in 0..10 {
            let mut mem = Nrf52Memory::new(vec![(at, &weights[..])]).unwrap();
            let input: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for (i, x) in input.iter().enumerate() {
                mem.ram_mut().write_bytes(
                    placement.input_addr() + 4 * i as u32,
                    &x.to_bits().to_le_bytes(),
                );
            }
            let mut cpu = CortexM4::new();
            cpu.run(&program, &mut mem, &CortexM4Timing::default(), 100_000_000)
                .unwrap();

            let expected = net.forward(&input);
            let out_addr = placement.output_addr(net.layers().len());
            for (i, &e) in expected.iter().enumerate() {
                let bits = u32::from_le_bytes(
                    mem.ram()
                        .read_bytes(out_addr + 4 * i as u32, 4)
                        .try_into()
                        .unwrap(),
                );
                let got = f32::from_bits(bits);
                assert!(
                    (got - e).abs() < 2e-2,
                    "trial {trial} output {i}: kernel {got} vs reference {e}"
                );
            }
        }
    }

    #[test]
    fn fixed_is_faster_than_float_on_m4() {
        // The in-text claim: fixed ~1.3× faster than float for Network A.
        let mut rng = StdRng::seed_from_u64(55);
        let mut net = Mlp::new(&[5, 25, 25, 3]);
        net.randomize_weights(&mut rng, 0.3);
        let fixed = FixedNet::export(&net).unwrap();
        let pf = place_fixed(&fixed, FLASH_BASE + 0x4000, RAM_BASE);
        let pl = place_float(&net, FLASH_BASE + 0x4000, RAM_BASE);

        let mut asm_fixed = ThumbAsm::new();
        emit_m4_fixed_kernel(&mut asm_fixed, &fixed, &pf);
        let mut asm_float = ThumbAsm::new();
        emit_m4_float_kernel(&mut asm_float, &net, &pl);

        let run = |program: &[ThumbInstr],
                   (at, weights): (u32, Vec<u8>),
                   input_words: Vec<u32>,
                   in_addr: u32| {
            let mut mem = Nrf52Memory::new(vec![(at, &weights[..])]).unwrap();
            for (i, w) in input_words.iter().enumerate() {
                mem.ram_mut()
                    .write_bytes(in_addr + 4 * i as u32, &w.to_le_bytes());
            }
            let mut cpu = CortexM4::new();
            cpu.run(program, &mut mem, &CortexM4Timing::default(), 100_000_000)
                .unwrap()
                .cycles
        };

        let input = vec![0.1f32, -0.4, 0.7, 0.0, -0.9];
        let qin = fixed.quantize_input(&input);
        let fixed_cycles = run(
            &asm_fixed.finish().unwrap(),
            fixed_image(&fixed, &pf),
            qin.iter().map(|&v| v as u32).collect(),
            pf.input_addr(),
        );
        let float_cycles = run(
            &asm_float.finish().unwrap(),
            float_image(&net, &pl),
            input.iter().map(|x| x.to_bits()).collect(),
            pl.input_addr(),
        );
        assert!(
            float_cycles > fixed_cycles,
            "float {float_cycles} should be slower than fixed {fixed_cycles}"
        );
    }
}
