//! RISC-V kernel generator: fixed-point MLP inference for the Ibex fabric
//! controller, a single RI5CY core, or the SPMD 8-core cluster.
//!
//! The generated code follows the structure of FANN's fixed `fann_run`
//! (row-major weight walk, per-connection `(w·x) >> dp`, stepwise-linear
//! activation with a runtime division) and is **bit-exact** against
//! [`iw_fann::FixedNet::forward`]: identical 32-bit wrapping multiplies,
//! arithmetic shifts and truncating divisions.

use iw_fann::{FixedActivation, FixedNet};
use iw_mrwolf::memmap::BARRIER_ADDR;
use iw_rv32::asm::{Asm, Label};
use iw_rv32::{AluOp, BranchCond, LoopIdx, MemWidth, Reg};

use crate::layout::Placement;

/// Xpulp feature toggles (the ablation knobs of experiment A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XpulpOpts {
    /// Use zero-overhead hardware loops for the inner product.
    pub hw_loops: bool,
    /// Use post-increment loads for the weight/activation walks.
    pub post_increment: bool,
}

impl XpulpOpts {
    /// Everything on — a RI5CY core.
    #[must_use]
    pub fn full() -> XpulpOpts {
        XpulpOpts {
            hw_loops: true,
            post_increment: true,
        }
    }

    /// Everything off — plain RV32IM (the Ibex fabric controller).
    #[must_use]
    pub fn none() -> XpulpOpts {
        XpulpOpts {
            hw_loops: false,
            post_increment: false,
        }
    }
}

/// Kernel-generation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvKernelOpts {
    /// Xpulp features to use.
    pub xpulp: XpulpOpts,
    /// Number of SPMD cores the program will run on (1 = single core).
    /// Multi-core kernels stride rows across cores and synchronise with the
    /// event-unit barrier between layers.
    pub cores: usize,
}

impl RvKernelOpts {
    /// Single Ibex-style core (no Xpulp).
    #[must_use]
    pub fn ibex() -> RvKernelOpts {
        RvKernelOpts {
            xpulp: XpulpOpts::none(),
            cores: 1,
        }
    }

    /// Single RI5CY core (full Xpulp).
    #[must_use]
    pub fn riscy() -> RvKernelOpts {
        RvKernelOpts {
            xpulp: XpulpOpts::full(),
            cores: 1,
        }
    }

    /// SPMD cluster kernel on `cores` RI5CY cores.
    #[must_use]
    pub fn cluster(cores: usize) -> RvKernelOpts {
        RvKernelOpts {
            xpulp: XpulpOpts::full(),
            cores,
        }
    }
}

// Register convention (cluster entry provides a0 = core id, a1 = #cores):
const W_PTR: Reg = Reg::T0;
const X_PTR: Reg = Reg::T1;
const TMP_W: Reg = Reg::T2;
const TMP_X: Reg = Reg::T3;
const ACC: Reg = Reg::T4;
const COUNT: Reg = Reg::T5;
const OUT_PTR: Reg = Reg::T6;
const OUT_END: Reg = Reg::S2;
const SCRATCH: Reg = Reg::S3;
const INTERP: Reg = Reg::S4;
const OFFSET: Reg = Reg::S5;

/// Adds `imm` to `reg`, via `li`+`add` when the immediate is too wide.
fn add_const(asm: &mut Asm, reg: Reg, imm: i32) {
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

/// Emits the stepwise activation: reads `ACC`, leaves the result in
/// `TMP_W`. Mirrors [`iw_fann::FixedActivation::eval`] exactly.
fn emit_stepwise(asm: &mut Asm, act: &FixedActivation) {
    emit_stepwise_public(asm, act);
}

/// Crate-public stepwise emitter shared with the Q15 kernel (same register
/// convention: sum in `t4`, result in `t2`, scratch `s3`/`s4`).
pub(crate) fn emit_stepwise_public(asm: &mut Asm, act: &FixedActivation) {
    let done = asm.new_label();
    let lmin = asm.new_label();
    let segs: Vec<Label> = (0..5).map(|_| asm.new_label()).collect();

    asm.li(SCRATCH, act.v[0]);
    asm.blt_to(ACC, SCRATCH, lmin);
    for (k, &seg) in segs.iter().enumerate() {
        asm.li(SCRATCH, act.v[k + 1]);
        asm.blt_to(ACC, SCRATCH, seg);
    }
    asm.li(TMP_W, act.max);
    asm.jal_to(Reg::ZERO, done);
    asm.bind(lmin);
    asm.li(TMP_W, act.min);
    asm.jal_to(Reg::ZERO, done);
    for (k, &seg) in segs.iter().enumerate() {
        asm.bind(seg);
        // (r[k+1]-r[k]) * (sum - v[k]) / (v[k+1]-v[k]) + r[k]
        asm.li(SCRATCH, act.v[k]);
        asm.sub(INTERP, ACC, SCRATCH);
        asm.li(SCRATCH, act.r[k + 1].wrapping_sub(act.r[k]));
        asm.mul(INTERP, INTERP, SCRATCH);
        asm.li(SCRATCH, act.v[k + 1] - act.v[k]);
        asm.alu(AluOp::Div, INTERP, INTERP, SCRATCH);
        asm.li(SCRATCH, act.r[k]);
        asm.add(TMP_W, INTERP, SCRATCH);
        if k < 4 {
            asm.jal_to(Reg::ZERO, done);
        }
    }
    asm.bind(done);
}

/// Generates the complete inference program for `net` at the placement's
/// addresses, starting at `asm`'s base, ending in `ecall` on every core.
///
/// # Panics
///
/// Panics if `opts.cores` is 0 or greater than 8.
pub fn emit_fixed_kernel(
    asm: &mut Asm,
    net: &FixedNet,
    placement: &Placement,
    opts: &RvKernelOpts,
) {
    assert!(
        (1..=8).contains(&opts.cores),
        "cores must be 1..=8, got {}",
        opts.cores
    );
    let n = opts.cores as i32;
    let dp = net.decimal_point;
    let num_layers = net.layers.len();

    for (li, layer) in net.layers.iter().enumerate() {
        let w_addr = placement.layer_weights[li] as i32;
        let in_buf = placement.in_buf(li) as i32;
        let out_buf = placement.out_buf(li) as i32;
        let in_count = layer.in_count as i32;
        let out_count = layer.out_count as i32;
        let row_stride = (layer.row_len() * 4) as i32;

        asm.mark(&format!("layer{li};setup"));
        asm.li(W_PTR, w_addr);
        asm.li(OUT_PTR, out_buf);
        asm.li(OUT_END, out_buf + 4 * out_count);
        if n > 1 {
            // Strided partition: core c starts at row c, steps by n rows.
            asm.li(OFFSET, row_stride);
            asm.mul(OFFSET, Reg::A0, OFFSET);
            asm.add(W_PTR, W_PTR, OFFSET);
            asm.slli(OFFSET, Reg::A0, 2);
            asm.add(OUT_PTR, OUT_PTR, OFFSET);
        }
        asm.li(X_PTR, in_buf);

        let layer_end = asm.new_label();
        if n > 1 {
            // Core may have no rows at all in narrow layers.
            asm.branch_to(BranchCond::Geu, OUT_PTR, OUT_END, layer_end);
        }
        asm.mark(&format!("layer{li};dot"));
        let row_top = asm.here();

        // Bias (stored first in the row): acc = w_bias.
        if opts.xpulp.post_increment {
            asm.load_post(MemWidth::W, ACC, W_PTR, 4);
        } else {
            asm.lw(ACC, W_PTR, 0);
            asm.addi(W_PTR, W_PTR, 4);
        }

        // Inner product: acc += (w * x) >> dp, FANN fixed semantics.
        if opts.xpulp.hw_loops {
            asm.li(COUNT, in_count);
            let loop_end = asm.new_label();
            asm.lp_setup_to(LoopIdx::L0, COUNT, loop_end);
            if opts.xpulp.post_increment {
                asm.load_post(MemWidth::W, TMP_W, W_PTR, 4);
                asm.load_post(MemWidth::W, TMP_X, X_PTR, 4);
            } else {
                asm.lw(TMP_W, W_PTR, 0);
                asm.lw(TMP_X, X_PTR, 0);
                asm.addi(W_PTR, W_PTR, 4);
                asm.addi(X_PTR, X_PTR, 4);
            }
            asm.mul(TMP_W, TMP_W, TMP_X);
            asm.srai(TMP_W, TMP_W, dp);
            asm.add(ACC, ACC, TMP_W);
            asm.bind(loop_end);
        } else {
            asm.li(COUNT, in_count);
            let inner_top = asm.here();
            if opts.xpulp.post_increment {
                asm.load_post(MemWidth::W, TMP_W, W_PTR, 4);
                asm.load_post(MemWidth::W, TMP_X, X_PTR, 4);
            } else {
                asm.lw(TMP_W, W_PTR, 0);
                asm.lw(TMP_X, X_PTR, 0);
                asm.addi(W_PTR, W_PTR, 4);
                asm.addi(X_PTR, X_PTR, 4);
            }
            asm.mul(TMP_W, TMP_W, TMP_X);
            asm.srai(TMP_W, TMP_W, dp);
            asm.add(ACC, ACC, TMP_W);
            asm.addi(COUNT, COUNT, -1);
            asm.bne_to(COUNT, Reg::ZERO, inner_top);
        }

        asm.mark(&format!("layer{li};act"));
        emit_stepwise(asm, &layer.activation);

        asm.mark(&format!("layer{li};store"));
        asm.sw(TMP_W, OUT_PTR, 0);
        add_const(asm, OUT_PTR, 4 * n);
        // Rewind the input pointer for the next row.
        add_const(asm, X_PTR, -(4 * in_count));
        // Skip the rows owned by the other cores.
        if n > 1 {
            add_const(asm, W_PTR, (n - 1) * row_stride);
        }
        asm.branch_to(BranchCond::Ltu, OUT_PTR, OUT_END, row_top);
        asm.bind(layer_end);

        // Synchronise before the next layer reads this one's outputs.
        if n > 1 && li + 1 < num_layers {
            asm.mark(&format!("layer{li};barrier"));
            asm.li(SCRATCH, BARRIER_ADDR as i32);
            asm.sw(Reg::ZERO, SCRATCH, 0);
        }
    }
    asm.mark("halt");
    asm.ecall();
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_fann::Mlp;
    use iw_mrwolf::memmap::{L2_BASE, TCDM_BASE};
    use iw_rv32::{Cpu, Ram, Timing};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs the generated kernel on a bare single CPU with a flat memory
    /// window covering both regions, checking bit-exactness.
    fn check_single(opts: &RvKernelOpts, sizes: &[usize], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(sizes);
        net.randomize_weights(&mut rng, 0.4);
        let fixed = FixedNet::export(&net).unwrap();

        let placement = crate::layout::place_fixed(&fixed, TCDM_BASE + 0x2000, TCDM_BASE);
        let mut asm = Asm::new(L2_BASE);
        emit_fixed_kernel(&mut asm, &fixed, &placement, opts);

        // Flat RAM spanning TCDM..L2+program for the bare-CPU test.
        let mut tcdm = Ram::new(TCDM_BASE, 64 * 1024);
        let (addr, bytes) = crate::layout::fixed_image(&fixed, &placement);
        tcdm.write_bytes(addr, &bytes);
        let input: Vec<f32> = (0..sizes[0]).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let qin = fixed.quantize_input(&input);
        for (i, &v) in qin.iter().enumerate() {
            tcdm.write_bytes(placement.input_addr() + 4 * i as u32, &v.to_le_bytes());
        }

        // Compose a bus: program RAM + data RAM.
        struct TwoRams {
            a: Ram,
            b: Ram,
        }
        impl iw_rv32::Bus for TwoRams {
            fn load(&mut self, addr: u32, w: MemWidth) -> Result<u32, iw_rv32::BusError> {
                if self.a.contains(addr, w.bytes()) {
                    self.a.load(addr, w)
                } else {
                    self.b.load(addr, w)
                }
            }
            fn store(&mut self, addr: u32, w: MemWidth, v: u32) -> Result<(), iw_rv32::BusError> {
                if self.a.contains(addr, w.bytes()) {
                    self.a.store(addr, w, v)
                } else {
                    self.b.store(addr, w, v)
                }
            }
        }
        let mut prog = Ram::new(L2_BASE, 256 * 1024);
        prog.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let mut bus = TwoRams { a: tcdm, b: prog };

        let timing = if opts.xpulp == XpulpOpts::none() {
            Timing::ibex()
        } else {
            Timing::riscy()
        };
        let mut cpu = if opts.xpulp == XpulpOpts::none() {
            Cpu::new_rv32im(L2_BASE)
        } else {
            Cpu::new(L2_BASE)
        };
        cpu.run(&mut bus, &timing, 100_000_000).unwrap();

        let expected = fixed.forward(&qin);
        let out_addr = placement.output_addr(fixed.layers.len());
        for (i, &e) in expected.iter().enumerate() {
            let got = i32::from_le_bytes(
                bus.a
                    .read_bytes(out_addr + 4 * i as u32, 4)
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(got, e, "output {i} (opts {opts:?})");
        }
    }

    #[test]
    fn ibex_kernel_bit_exact() {
        check_single(&RvKernelOpts::ibex(), &[5, 9, 4], 1);
        check_single(&RvKernelOpts::ibex(), &[7, 13, 13, 3], 2);
    }

    #[test]
    fn riscy_kernel_bit_exact() {
        check_single(&RvKernelOpts::riscy(), &[5, 9, 4], 3);
        check_single(&RvKernelOpts::riscy(), &[6, 20, 10, 2], 4);
    }

    #[test]
    fn partial_xpulp_variants_bit_exact() {
        check_single(
            &RvKernelOpts {
                xpulp: XpulpOpts {
                    hw_loops: true,
                    post_increment: false,
                },
                cores: 1,
            },
            &[4, 8, 3],
            5,
        );
        check_single(
            &RvKernelOpts {
                xpulp: XpulpOpts {
                    hw_loops: false,
                    post_increment: true,
                },
                cores: 1,
            },
            &[4, 8, 3],
            6,
        );
    }

    #[test]
    fn riscy_is_faster_than_ibex_style() {
        // Cycle comparison on identical networks.
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Mlp::new(&[5, 30, 30, 3]);
        net.randomize_weights(&mut rng, 0.3);
        let fixed = FixedNet::export(&net).unwrap();
        let placement = crate::layout::place_fixed(&fixed, TCDM_BASE + 0x2000, TCDM_BASE);

        let cycles_of = |opts: &RvKernelOpts| {
            let mut asm = Asm::new(L2_BASE);
            emit_fixed_kernel(&mut asm, &fixed, &placement, opts);
            let mut mem = Ram::new(TCDM_BASE, 64 * 1024);
            let (addr, bytes) = crate::layout::fixed_image(&fixed, &placement);
            mem.write_bytes(addr, &bytes);
            let mut prog = Ram::new(L2_BASE, 128 * 1024);
            prog.write_bytes(L2_BASE, &asm.assemble().unwrap());
            struct TwoRams {
                a: Ram,
                b: Ram,
            }
            impl iw_rv32::Bus for TwoRams {
                fn load(&mut self, addr: u32, w: MemWidth) -> Result<u32, iw_rv32::BusError> {
                    if self.a.contains(addr, w.bytes()) {
                        self.a.load(addr, w)
                    } else {
                        self.b.load(addr, w)
                    }
                }
                fn store(
                    &mut self,
                    addr: u32,
                    w: MemWidth,
                    v: u32,
                ) -> Result<(), iw_rv32::BusError> {
                    if self.a.contains(addr, w.bytes()) {
                        self.a.store(addr, w, v)
                    } else {
                        self.b.store(addr, w, v)
                    }
                }
            }
            let mut bus = TwoRams { a: mem, b: prog };
            let (mut cpu, timing) = if opts.xpulp == XpulpOpts::none() {
                (Cpu::new_rv32im(L2_BASE), Timing::ibex())
            } else {
                (Cpu::new(L2_BASE), Timing::riscy())
            };
            cpu.run(&mut bus, &timing, 100_000_000).unwrap().cycles
        };

        let ibex = cycles_of(&RvKernelOpts::ibex());
        let riscy = cycles_of(&RvKernelOpts::riscy());
        assert!(
            riscy * 3 < ibex * 2,
            "expected ≥1.5× speedup: riscy {riscy} vs ibex {ibex}"
        );
    }
}
