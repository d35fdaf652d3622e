//! 16-bit (Q15-style) quantisation — the SIMD deployment path.
//!
//! The paper's kernels use FANN's 32-bit fixed point; RI5CY's packed-SIMD
//! ISA (`pv.sdotsp.h`) and the Cortex-M4's `smlad` can process **two
//! 16-bit MACs per cycle** if weights and activations are quantised to
//! 16 bits — exactly what PULP-NN and CMSIS-NN do. This module provides
//! that representation and its bit-exact reference:
//!
//! * weights and activations are `i16` with `frac_bits` fractional bits,
//! * a neuron accumulates `Σ w·x` **pairwise** in wrapping 32-bit
//!   arithmetic (the dual-MAC order), starting from `bias << frac_bits`,
//! * the sum is shifted back by `frac_bits` and pushed through the same
//!   six-breakpoint stepwise activation as the 32-bit path,
//! * rows are padded to an even number of inputs so every pair maps to one
//!   32-bit load on the target.

use crate::activation::Activation;
use crate::fixed::{ExportError, FixedActivation};
use crate::net::Mlp;

/// One Q15 layer. Row layout (halfwords): `[bias, 0-pad, w0, w1, …]` with
/// the weight count padded to even — so the bias+pad occupy one aligned
/// word and each weight pair the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q15Layer {
    /// Real number of inputs (pre padding).
    pub in_count: usize,
    /// Inputs padded to even.
    pub in_padded: usize,
    /// Number of output neurons.
    pub out_count: usize,
    /// Row-major weights: `out_count` rows of `2 + in_padded` halfwords.
    pub weights: Vec<i16>,
    /// Stepwise activation in the `frac_bits` domain.
    pub activation: FixedActivation,
}

impl Q15Layer {
    /// Row length in halfwords (bias + pad + padded weights).
    #[must_use]
    pub fn row_halfwords(&self) -> usize {
        2 + self.in_padded
    }
}

/// A 16-bit quantised network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q15Net {
    /// Fractional bits of weights and activations.
    pub frac_bits: u8,
    /// Number of network inputs (pre padding).
    pub num_inputs: usize,
    /// The layers.
    pub layers: Vec<Q15Layer>,
}

impl Q15Net {
    /// Quantises a float network to 16 bits.
    ///
    /// `frac_bits` is chosen so that (a) every weight fits `i16` and
    /// (b) the worst-case pairwise accumulator stays within `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`ExportError`] under the same conditions as the 32-bit
    /// export (unbounded activation, oversized weights).
    pub fn export(net: &Mlp) -> Result<Q15Net, ExportError> {
        let mut max_w = 0.0f32;
        let mut max_sum = 1.0f32;
        for layer in net.layers() {
            let row_len = layer.row_len();
            for j in 0..layer.out_count() {
                let row = &layer.weights()[j * row_len..(j + 1) * row_len];
                let sum: f32 = row.iter().map(|w| w.abs()).sum();
                max_sum = max_sum.max(sum);
                for w in row {
                    max_w = max_w.max(w.abs());
                }
            }
        }
        // Weights must fit i16: |w|·2^f < 2^15.
        let f_weights = 14 - (max_w.max(1.0)).log2().ceil() as i32;
        // Accumulator: max_sum · 2^(2f) < 2^31.
        let f_acc = (30 - (max_sum.log2().ceil().max(0.0) as i32)) / 2;
        let f = f_weights.min(f_acc).min(13);
        if f < 4 {
            return Err(ExportError::WeightsTooLarge { max_sum });
        }
        let frac_bits = f as u8;
        let mult = f64::from(1i32 << f);

        let layers = net
            .layers()
            .iter()
            .map(|layer| {
                if layer.activation() == Activation::Linear {
                    return Err(ExportError::UnboundedActivation);
                }
                let in_count = layer.in_count();
                let in_padded = in_count.div_ceil(2) * 2;
                let row_len = layer.row_len();
                let mut weights = Vec::with_capacity(layer.out_count() * (2 + in_padded));
                for j in 0..layer.out_count() {
                    let row = &layer.weights()[j * row_len..(j + 1) * row_len];
                    let q = |w: f32| -> i16 {
                        (f64::from(w) * mult)
                            .round()
                            .clamp(f64::from(i16::MIN), f64::from(i16::MAX))
                            as i16
                    };
                    weights.push(q(row[0])); // bias
                    weights.push(0); // alignment pad
                    for &w in &row[1..] {
                        weights.push(q(w));
                    }
                    weights.extend(std::iter::repeat_n(0, in_padded.saturating_sub(in_count)));
                }
                Ok(Q15Layer {
                    in_count,
                    in_padded,
                    out_count: layer.out_count(),
                    weights,
                    activation: FixedActivation::for_q15(
                        layer.activation(),
                        layer.steepness(),
                        frac_bits,
                    )?,
                })
            })
            .collect::<Result<Vec<_>, ExportError>>()?;
        Ok(Q15Net {
            frac_bits,
            num_inputs: net.num_inputs(),
            layers,
        })
    }

    /// Quantises a float input vector (padded slot handling is the
    /// caller's concern when staging buffers; the reference pads
    /// internally).
    #[must_use]
    pub fn quantize_input(&self, input: &[f32]) -> Vec<i16> {
        let mult = f64::from(1i32 << self.frac_bits);
        input
            .iter()
            .map(|&x| {
                (f64::from(x) * mult)
                    .round()
                    .clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
            })
            .collect()
    }

    /// Dequantises outputs back to floats.
    #[must_use]
    pub fn dequantize(&self, fixed: &[i16]) -> Vec<f32> {
        let mult = f64::from(1i32 << self.frac_bits);
        fixed
            .iter()
            .map(|&x| (f64::from(x) / mult) as f32)
            .collect()
    }

    /// Runs the network — the golden reference for the SIMD kernels.
    /// Accumulation is pairwise, exactly like `pv.sdotsp.h`/`smlad`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.num_inputs`.
    #[must_use]
    pub fn forward(&self, input: &[i16]) -> Vec<i16> {
        assert_eq!(input.len(), self.num_inputs, "input length mismatch");
        let f = self.frac_bits;
        let mut cur: Vec<i16> = input.to_vec();
        for layer in &self.layers {
            cur.resize(layer.in_padded, 0);
            let row_hw = layer.row_halfwords();
            let mut out = Vec::with_capacity(layer.out_count);
            for j in 0..layer.out_count {
                let row = &layer.weights[j * row_hw..(j + 1) * row_hw];
                let mut acc: i32 = i32::from(row[0]) << f;
                for p in 0..layer.in_padded / 2 {
                    let w0 = i32::from(row[2 + 2 * p]);
                    let w1 = i32::from(row[3 + 2 * p]);
                    let x0 = i32::from(cur[2 * p]);
                    let x1 = i32::from(cur[2 * p + 1]);
                    // One dual MAC: both products summed, then accumulated
                    // (wrapping, as the SIMD unit does).
                    acc = acc.wrapping_add((w0 * x0).wrapping_add(w1 * x1));
                }
                let sum = acc >> f;
                let y = layer.activation.eval(sum);
                out.push(y.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16);
            }
            cur = out;
        }
        cur
    }

    /// Predicted class (argmax).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.num_inputs`.
    #[must_use]
    pub fn classify(&self, input: &[i16]) -> usize {
        let out = self.forward(input);
        out.iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(i, _)| i)
            .expect("at least one output")
    }
}

impl FixedActivation {
    /// Builds a stepwise table in the Q15 `frac_bits` domain (same
    /// sampling as the 32-bit path).
    pub(crate) fn for_q15(
        activation: Activation,
        steepness: f32,
        frac_bits: u8,
    ) -> Result<FixedActivation, ExportError> {
        FixedActivation::from_float(activation, steepness, frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_net(seed: u64, sizes: &[usize]) -> Mlp {
        let mut net = Mlp::new(sizes);
        net.randomize_weights(&mut StdRng::seed_from_u64(seed), 0.4);
        net
    }

    #[test]
    fn export_pads_odd_inputs() {
        let net = random_net(1, &[5, 7, 2]);
        let q = Q15Net::export(&net).unwrap();
        assert_eq!(q.layers[0].in_padded, 6);
        assert_eq!(q.layers[0].row_halfwords(), 8);
        assert_eq!(q.layers[1].in_padded, 8);
        // Pad weights are zero.
        let row = &q.layers[0].weights[0..8];
        assert_eq!(row[1], 0, "alignment pad");
        assert_eq!(row[7], 0, "tail pad");
    }

    #[test]
    fn q15_tracks_float() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = random_net(3, &[5, 20, 3]);
        let q = Q15Net::export(&net).unwrap();
        for _ in 0..50 {
            let input: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let fout = net.forward(&input);
            let qout = q.dequantize(&q.forward(&q.quantize_input(&input)));
            for (f, v) in fout.iter().zip(&qout) {
                assert!((f - v).abs() < 0.08, "float {f} vs q15 {v}");
            }
        }
    }

    #[test]
    fn q15_and_q31_classifications_mostly_agree() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = random_net(7, &[5, 30, 30, 3]);
        let q15 = Q15Net::export(&net).unwrap();
        let q31 = crate::fixed::FixedNet::export(&net).unwrap();
        let mut agree = 0;
        let n = 100;
        for _ in 0..n {
            let input: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            if q15.classify(&q15.quantize_input(&input))
                == q31.classify(&q31.quantize_input(&input))
            {
                agree += 1;
            }
        }
        assert!(agree >= n * 9 / 10, "{agree}/{n}");
    }

    #[test]
    fn frac_bits_bounded_for_big_sums() {
        // Large weights force fewer fractional bits.
        let mut net = Mlp::new(&[4, 4]);
        for w in net.layers_mut()[0].weights_mut() {
            *w = 1.5;
        }
        let q = Q15Net::export(&net).unwrap();
        assert!(q.frac_bits <= 13);
        // Gigantic weights fail cleanly.
        for w in net.layers_mut()[0].weights_mut() {
            *w = 1.0e8;
        }
        assert!(Q15Net::export(&net).is_err());
    }

    #[test]
    fn outputs_saturate_to_i16() {
        let net = random_net(9, &[3, 2]);
        let q = Q15Net::export(&net).unwrap();
        let out = q.forward(&[i16::MAX, i16::MIN, i16::MAX]);
        for &o in &out {
            // The symmetric sigmoid range is ±1.0 ≈ ±2^frac_bits, well
            // inside i16 for frac_bits ≤ 13.
            assert!(o.unsigned_abs() <= 1 << q.frac_bits);
        }
    }
}
