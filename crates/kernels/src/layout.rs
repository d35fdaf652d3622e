//! Memory placement of a network image on a target.
//!
//! Layouts are target-agnostic: [`Placement`] assigns addresses, and the
//! weight image is produced as one `(address, bytes)` chunk that the
//! target maps or copies into its memories.
//!
//! Weight rows are laid out exactly as [`iw_fann::FixedLayer`] stores them:
//! row-major, one row per output neuron, **bias first**, 4 bytes per value,
//! consecutive layers back to back. Activations use two ping-pong buffers;
//! layer `i` reads buffer `i % 2` and writes buffer `(i+1) % 2`, with the
//! network input staged into buffer 0.

use iw_fann::{FixedNet, Mlp};

/// Addresses assigned to a network image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Start address of the weight block (the first layer's weights).
    pub weights_base: u32,
    /// Start address of each layer's weight block.
    pub layer_weights: Vec<u32>,
    /// The two ping-pong activation buffers.
    pub bufs: [u32; 2],
    /// Width (in values) of each buffer.
    pub buf_width: usize,
    /// Total weight bytes.
    pub weight_bytes: usize,
}

impl Placement {
    /// Buffer the given layer reads from.
    #[must_use]
    pub fn in_buf(&self, layer: usize) -> u32 {
        self.bufs[layer % 2]
    }

    /// Buffer the given layer writes to.
    #[must_use]
    pub fn out_buf(&self, layer: usize) -> u32 {
        self.bufs[(layer + 1) % 2]
    }

    /// Address where the network input is staged.
    #[must_use]
    pub fn input_addr(&self) -> u32 {
        self.bufs[0]
    }

    /// Address of the final outputs after running `num_layers` layers.
    #[must_use]
    pub fn output_addr(&self, num_layers: usize) -> u32 {
        self.bufs[num_layers % 2]
    }
}

fn widths_fixed(net: &FixedNet) -> usize {
    net.layers
        .iter()
        .map(|l| l.out_count)
        .chain([net.num_inputs])
        .max()
        .unwrap_or(0)
}

/// Assigns addresses for a fixed-point network: activation buffers at
/// `buf_base`, weights at `weights_base`.
///
/// # Examples
///
/// ```
/// use iw_fann::{FixedNet, Mlp};
/// use iw_kernels::layout::place_fixed;
/// let net = FixedNet::export(&Mlp::new(&[5, 50, 50, 3]))?;
/// let p = place_fixed(&net, 0x1000_8000, 0x1000_0000);
/// assert_eq!(p.layer_weights.len(), 3);
/// assert_eq!(p.weight_bytes, 3003 * 4);
/// # Ok::<(), iw_fann::ExportError>(())
/// ```
#[must_use]
pub fn place_fixed(net: &FixedNet, weights_base: u32, buf_base: u32) -> Placement {
    let width = widths_fixed(net);
    let buf_bytes = ((width * 4).div_ceil(16) * 16) as u32;
    let mut layer_weights = Vec::with_capacity(net.layers.len());
    let mut addr = weights_base;
    for layer in &net.layers {
        layer_weights.push(addr);
        addr += (layer.weights.len() * 4) as u32;
    }
    Placement {
        weights_base,
        layer_weights,
        bufs: [buf_base, buf_base + buf_bytes],
        buf_width: width,
        weight_bytes: (addr - weights_base) as usize,
    }
}

/// Serialises a fixed-point network's weights into one `(address, bytes)`
/// chunk at `placement.weights_base`, every layer back to back as
/// [`place_fixed`] lays them out.
///
/// # Panics
///
/// Panics if `placement` holds fewer weight bytes than `net` has (it was
/// placed for another network).
#[must_use]
pub fn fixed_image(net: &FixedNet, placement: &Placement) -> (u32, Vec<u8>) {
    render(
        placement,
        net.layers.iter().map(|l| &l.weights[..]),
        i32::to_le_bytes,
    )
}

/// Renders `layers`' values, little endian, back to back into one buffer
/// of `placement.weight_bytes` bytes at `placement.weights_base`.
pub(crate) fn render<'a, T: Copy + 'a, const N: usize>(
    placement: &Placement,
    layers: impl Iterator<Item = &'a [T]>,
    le_bytes: impl Fn(T) -> [u8; N],
) -> (u32, Vec<u8>) {
    let mut bytes = vec![0; placement.weight_bytes];
    let mut rest = &mut bytes[..];
    for values in layers {
        let (layer, tail) = rest.split_at_mut(values.len() * N);
        for (dst, &v) in layer.chunks_exact_mut(N).zip(values) {
            dst.copy_from_slice(&le_bytes(v));
        }
        rest = tail;
    }
    (placement.weights_base, bytes)
}

/// Assigns addresses for a float network (the M4F FPU kernel). Same scheme
/// as [`place_fixed`] with `f32` values.
#[must_use]
pub fn place_float(net: &Mlp, weights_base: u32, buf_base: u32) -> Placement {
    let width = net
        .layers()
        .iter()
        .map(iw_fann::Layer::out_count)
        .chain([net.num_inputs()])
        .max()
        .unwrap_or(0);
    let buf_bytes = ((width * 4).div_ceil(16) * 16) as u32;
    let mut layer_weights = Vec::with_capacity(net.layers().len());
    let mut addr = weights_base;
    for layer in net.layers() {
        layer_weights.push(addr);
        addr += (layer.weights().len() * 4) as u32;
    }
    Placement {
        weights_base,
        layer_weights,
        bufs: [buf_base, buf_base + buf_bytes],
        buf_width: width,
        weight_bytes: (addr - weights_base) as usize,
    }
}

/// Serialises a float network's weights (IEEE-754 single, little endian)
/// into one chunk, as [`fixed_image`] does.
///
/// # Panics
///
/// As [`fixed_image`].
#[must_use]
pub fn float_image(net: &Mlp, placement: &Placement) -> (u32, Vec<u8>) {
    render(
        placement,
        net.layers().iter().map(iw_fann::Layer::weights),
        f32::to_le_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_fann::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn buffers_do_not_overlap_weights() {
        let mut net = Mlp::new(&[5, 50, 50, 3]);
        net.randomize_weights(&mut StdRng::seed_from_u64(1), 0.1);
        let fixed = FixedNet::export(&net).unwrap();
        let p = place_fixed(&fixed, 0x2000, 0x1000);
        assert!(p.bufs[1] + (p.buf_width * 4) as u32 <= 0x2000);
        // Layers contiguous.
        assert_eq!(p.layer_weights[0], 0x2000);
        // Layer 0 is 5→50: 50 rows of (5+1) weights.
        assert_eq!(p.layer_weights[1], 0x2000 + (6 * 50 * 4) as u32);
    }

    #[test]
    fn ping_pong_alternates() {
        let net = FixedNet::export(&Mlp::new(&[4, 4, 4, 4])).unwrap();
        let p = place_fixed(&net, 0x1000, 0);
        assert_eq!(p.in_buf(0), p.bufs[0]);
        assert_eq!(p.out_buf(0), p.bufs[1]);
        assert_eq!(p.in_buf(1), p.bufs[1]);
        assert_eq!(p.out_buf(1), p.bufs[0]);
        assert_eq!(p.output_addr(3), p.bufs[1]);
    }

    #[test]
    fn image_covers_all_weights_in_one_chunk() {
        let mut net = Mlp::new(&[3, 5, 2]);
        net.randomize_weights(&mut StdRng::seed_from_u64(2), 0.3);
        let fixed = FixedNet::export(&net).unwrap();
        let p = place_fixed(&fixed, 0x100, 0);
        let (addr, bytes) = fixed_image(&fixed, &p);
        assert_eq!(addr, 0x100);
        assert_eq!(bytes.len(), fixed.num_weights() * 4);
        // First word of layer 0 is the bias of neuron 0; every layer
        // starts at its placed address.
        let word = |at: u32| {
            let off = (at - addr) as usize;
            i32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
        };
        for (layer, &at) in fixed.layers.iter().zip(&p.layer_weights) {
            assert_eq!(word(at), layer.weights[0]);
            let last = at + 4 * (layer.weights.len() as u32 - 1);
            assert_eq!(word(last), *layer.weights.last().unwrap());
        }
        // The float image lays the same values out the same way.
        let pf = place_float(&net, 0x100, 0);
        let (faddr, fbytes) = float_image(&net, &pf);
        assert_eq!((faddr, fbytes.len()), (addr, bytes.len()));
        let first = f32::from_le_bytes(fbytes[0..4].try_into().unwrap());
        assert_eq!(first, net.layers()[0].weights()[0]);
    }
}
