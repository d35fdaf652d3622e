//! Concrete [`Workload`] implementations: everything that can be deployed
//! to a [`Machine`](crate::machine::Machine).
//!
//! * [`FixedWorkload`] — 32-bit fixed-point MLP inference (the paper's
//!   Tables III/IV numbers),
//! * [`FloatWorkload`] — float (FPU) inference on the Cortex-M4F,
//! * [`Q15Workload`] — 16-bit SIMD inference (experiment A7),
//! * [`FeatureWorkload`](crate::features::FeatureWorkload) — HRV/GSR
//!   feature extraction (experiment X2), defined next to its cost model.
//!
//! Each workload lowers its kernel per instruction set and serialises its
//! data image against the [`DataLayout`] the machine chose, so the same
//! workload object runs unmodified on every registered backend.

use iw_armv7m::asm::ThumbAsm;
use iw_fann::{FixedNet, Mlp, Q15Net};
use iw_rv32::asm::Asm;

use crate::layout::{fixed_image, float_image, place_fixed, place_float, Placement};
use crate::m4::{emit_m4_fixed_kernel, emit_m4_float_kernel};
use crate::machine::{DataLayout, Isa, LoweredProgram, MachineError, Workload, WorkloadFootprint};
use crate::q15::{emit_m4_q15_kernel, emit_riscy_q15_kernel, place_q15, q15_image};
use crate::rv::emit_fixed_kernel;

fn check_input(expected: usize, got: usize) -> Result<(), MachineError> {
    if expected != got {
        return Err(MachineError::BadInput { expected, got });
    }
    Ok(())
}

/// Total read-write bytes of a placement's two ping-pong buffers.
fn placement_buf_bytes(p: &Placement) -> usize {
    ((p.bufs[1] - p.bufs[0]) * 2) as usize
}

fn thumb_lowering(asm: ThumbAsm) -> LoweredProgram {
    let symbols = asm.symbols().to_vec();
    let program = asm.finish().expect("kernel generator binds every label");
    let code = iw_armv7m::encode_program(&program).expect("generated kernels are encodable");
    LoweredProgram::Thumb {
        program,
        code,
        symbols,
    }
}

fn rv32_lowering(asm: Asm) -> Result<LoweredProgram, MachineError> {
    let image = asm.assemble()?;
    Ok(LoweredProgram::Rv32 {
        image,
        symbols: asm.symbols().to_vec(),
    })
}

// ---------------------------------------------------------------------------
// 32-bit fixed-point inference
// ---------------------------------------------------------------------------

/// One fixed-point classification: a [`FixedNet`] plus a quantised input.
#[derive(Debug, Clone)]
pub struct FixedWorkload<'a> {
    net: &'a FixedNet,
    input: Vec<i32>,
}

impl<'a> FixedWorkload<'a> {
    /// Binds `net` and `input` into a deployable workload.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadInput`] when the input length does not match.
    pub fn new(net: &'a FixedNet, input: &[i32]) -> Result<FixedWorkload<'a>, MachineError> {
        check_input(net.num_inputs, input.len())?;
        Ok(FixedWorkload {
            net,
            input: input.to_vec(),
        })
    }

    fn place(&self, layout: &DataLayout) -> Placement {
        place_fixed(self.net, layout.weights_base, layout.buf_base)
    }

    /// Decodes a machine's raw output bytes back into fixed-point values.
    #[must_use]
    pub fn decode_outputs(bytes: &[u8]) -> Vec<i32> {
        bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }
}

impl Workload for FixedWorkload<'_> {
    fn name(&self) -> &'static str {
        "fixed-inference"
    }

    fn footprint(&self) -> WorkloadFootprint {
        let probe = place_fixed(self.net, 0, 0);
        WorkloadFootprint {
            weight_bytes: probe.weight_bytes,
            buf_bytes: placement_buf_bytes(&probe),
        }
    }

    fn lower(&self, isa: &Isa, layout: &DataLayout) -> Result<LoweredProgram, MachineError> {
        let placement = self.place(layout);
        match isa {
            Isa::Thumb2 => {
                let mut asm = ThumbAsm::new();
                emit_m4_fixed_kernel(&mut asm, self.net, &placement);
                Ok(thumb_lowering(asm))
            }
            Isa::Rv32 { opts, entry } => {
                let mut asm = Asm::new(*entry);
                emit_fixed_kernel(&mut asm, self.net, &placement, opts);
                rv32_lowering(asm)
            }
        }
    }

    fn image(&self, layout: &DataLayout) -> Vec<(u32, Vec<u8>)> {
        let placement = self.place(layout);
        let weights = fixed_image(self.net, &placement);
        let mut staged = Vec::with_capacity(self.input.len() * 4);
        for v in &self.input {
            staged.extend_from_slice(&v.to_le_bytes());
        }
        vec![weights, (placement.input_addr(), staged)]
    }

    fn output_window(&self, layout: &DataLayout) -> (u32, usize) {
        let placement = self.place(layout);
        let out_count = self.net.layers.last().map_or(0, |l| l.out_count);
        (placement.output_addr(self.net.layers.len()), out_count * 4)
    }
}

// ---------------------------------------------------------------------------
// Float (FPU) inference
// ---------------------------------------------------------------------------

/// One float classification on an FPU-equipped machine (the Cortex-M4F).
#[derive(Debug, Clone)]
pub struct FloatWorkload<'a> {
    net: &'a Mlp,
    input: Vec<f32>,
}

impl<'a> FloatWorkload<'a> {
    /// Binds `net` and `input` into a deployable workload.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadInput`] when the input length does not match.
    pub fn new(net: &'a Mlp, input: &[f32]) -> Result<FloatWorkload<'a>, MachineError> {
        check_input(net.num_inputs(), input.len())?;
        Ok(FloatWorkload {
            net,
            input: input.to_vec(),
        })
    }

    fn place(&self, layout: &DataLayout) -> Placement {
        place_float(self.net, layout.weights_base, layout.buf_base)
    }

    /// Decodes a machine's raw output bytes back into floats.
    #[must_use]
    pub fn decode_outputs(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect()
    }
}

impl Workload for FloatWorkload<'_> {
    fn name(&self) -> &'static str {
        "float-inference"
    }

    fn footprint(&self) -> WorkloadFootprint {
        let probe = place_float(self.net, 0, 0);
        WorkloadFootprint {
            weight_bytes: probe.weight_bytes,
            buf_bytes: placement_buf_bytes(&probe),
        }
    }

    fn lower(&self, isa: &Isa, layout: &DataLayout) -> Result<LoweredProgram, MachineError> {
        match isa {
            Isa::Thumb2 => {
                let mut asm = ThumbAsm::new();
                emit_m4_float_kernel(&mut asm, self.net, &self.place(layout));
                Ok(thumb_lowering(asm))
            }
            Isa::Rv32 { .. } => Err(MachineError::Unsupported {
                workload: self.name(),
                isa: isa.name(),
            }),
        }
    }

    fn image(&self, layout: &DataLayout) -> Vec<(u32, Vec<u8>)> {
        let placement = self.place(layout);
        let weights = float_image(self.net, &placement);
        let mut staged = Vec::with_capacity(self.input.len() * 4);
        for x in &self.input {
            staged.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        vec![weights, (placement.input_addr(), staged)]
    }

    fn output_window(&self, layout: &DataLayout) -> (u32, usize) {
        let placement = self.place(layout);
        (
            placement.output_addr(self.net.layers().len()),
            self.net.num_outputs() * 4,
        )
    }
}

// ---------------------------------------------------------------------------
// Q15 SIMD inference
// ---------------------------------------------------------------------------

/// One Q15 (16-bit SIMD) classification — experiment A7's workload.
#[derive(Debug, Clone)]
pub struct Q15Workload<'a> {
    net: &'a Q15Net,
    input: Vec<i16>,
}

impl<'a> Q15Workload<'a> {
    /// Binds `net` and `input` into a deployable workload.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadInput`] when the input length does not match.
    pub fn new(net: &'a Q15Net, input: &[i16]) -> Result<Q15Workload<'a>, MachineError> {
        check_input(net.num_inputs, input.len())?;
        Ok(Q15Workload {
            net,
            input: input.to_vec(),
        })
    }

    fn place(&self, layout: &DataLayout) -> Placement {
        place_q15(self.net, layout.weights_base, layout.buf_base)
    }

    /// Decodes a machine's raw output bytes back into Q15 values.
    #[must_use]
    pub fn decode_outputs(bytes: &[u8]) -> Vec<i16> {
        bytes
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes(c.try_into().expect("2 bytes")))
            .collect()
    }
}

impl Workload for Q15Workload<'_> {
    fn name(&self) -> &'static str {
        "q15-inference"
    }

    fn footprint(&self) -> WorkloadFootprint {
        let probe = place_q15(self.net, 0, 0);
        WorkloadFootprint {
            weight_bytes: probe.weight_bytes,
            buf_bytes: placement_buf_bytes(&probe),
        }
    }

    fn lower(&self, isa: &Isa, layout: &DataLayout) -> Result<LoweredProgram, MachineError> {
        let placement = self.place(layout);
        match isa {
            Isa::Thumb2 => {
                let mut asm = ThumbAsm::new();
                emit_m4_q15_kernel(&mut asm, self.net, &placement);
                Ok(thumb_lowering(asm))
            }
            Isa::Rv32 { opts, entry } => {
                let mut asm = Asm::new(*entry);
                emit_riscy_q15_kernel(&mut asm, self.net, &placement, opts.cores);
                rv32_lowering(asm)
            }
        }
    }

    fn image(&self, layout: &DataLayout) -> Vec<(u32, Vec<u8>)> {
        let placement = self.place(layout);
        let weights = q15_image(self.net, &placement);
        // Inputs are staged padded to an even count so the pair loads of
        // the SIMD kernels see a clean tail slot.
        let padded = self.net.num_inputs.div_ceil(2) * 2;
        let mut staged = Vec::with_capacity(padded * 2);
        for i in 0..padded {
            let v = self.input.get(i).copied().unwrap_or(0);
            staged.extend_from_slice(&v.to_le_bytes());
        }
        vec![weights, (placement.input_addr(), staged)]
    }

    fn output_window(&self, layout: &DataLayout) -> (u32, usize) {
        let placement = self.place(layout);
        let out_count = self.net.layers.last().map_or(0, |l| l.out_count);
        (placement.output_addr(self.net.layers.len()), out_count * 2)
    }
}
