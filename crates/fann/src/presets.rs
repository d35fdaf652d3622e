//! The two networks evaluated in the InfiniWolf paper.

use crate::net::Mlp;

/// **Network A** — the stress-detection network of Fig. 3: 5 input features
/// (RMSSD, SDSD, NN50, GSRL, GSRH), two hidden layers of 50, and 3 output
/// classes (stress / medium stress / no stress), tanh activations.
/// 108 neurons, 3003 weights, ~14 kB.
#[must_use]
pub fn network_a() -> Mlp {
    Mlp::new(&[5, 50, 50, 3])
}

/// **Network B** — the larger benchmark network: 100 inputs, 8 outputs and
/// 24 hidden layers in pairs of increasing width (8, 8, 16, 16, …, 96, 96).
/// 1356 neurons, 81032 weights, ~353 kB — sized to still fit Mr. Wolf's
/// 512 kB L2 but not its 64 kB TCDM.
#[must_use]
pub fn network_b() -> Mlp {
    Mlp::new(&network_b_sizes())
}

/// Layer sizes of Network B, input first.
#[must_use]
pub fn network_b_sizes() -> Vec<usize> {
    let mut sizes = vec![100];
    for pair in 1..=12 {
        sizes.push(8 * pair);
        sizes.push(8 * pair);
    }
    sizes.push(8);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_b_structure() {
        let sizes = network_b_sizes();
        assert_eq!(sizes.len(), 26); // input + 24 hidden + output
        assert_eq!(sizes[0], 100);
        assert_eq!(sizes[1], 8);
        assert_eq!(sizes[2], 8);
        assert_eq!(sizes[23], 96);
        assert_eq!(sizes[24], 96);
        assert_eq!(sizes[25], 8);
        let net = network_b();
        assert_eq!(net.num_weights(), 81032);
        assert_eq!(net.num_neurons(), 1356);
    }
}
