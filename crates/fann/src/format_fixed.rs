//! The FANN fixed-point `.net` format (`FANN_FIX_2.1`).
//!
//! `fann_save_to_fixed` writes the quantised network that FANNCortexM
//! flashes onto the microcontroller. This writer/reader round-trips
//! [`FixedNet`] exactly. Layout follows the float format with two
//! fixed-specific additions, as in FANN: a `decimal_point` header and
//! integer connection weights. The stepwise activation tables (which FANN
//! re-derives at load time from the activation code) are serialised
//! explicitly in `stepwise=` lines so the round-trip is bit-exact without
//! needing the original float network.

use std::fmt::Write as _;

use crate::fixed::{FixedActivation, FixedLayer, FixedNet};
use crate::format::{connection_count, ParseError};

/// Serialises a fixed-point network in `FANN_FIX_2.1` format.
///
/// # Examples
///
/// ```
/// use iw_fann::{format_fixed, FixedNet, Mlp};
/// let fixed = FixedNet::export(&Mlp::new(&[2, 3, 1]))?;
/// let text = format_fixed::write_fixed_net(&fixed);
/// assert!(text.starts_with("FANN_FIX_2.1"));
/// let back = format_fixed::read_fixed_net(&text)?;
/// assert_eq!(back, fixed);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn write_fixed_net(net: &FixedNet) -> String {
    let mut s = String::new();
    s.push_str("FANN_FIX_2.1\n");
    let _ = writeln!(s, "decimal_point={}", net.decimal_point);
    let _ = writeln!(s, "num_layers={}", net.layers.len() + 1);
    s.push_str("network_type=0\n");
    let _ = write!(s, "layer_sizes={}", net.num_inputs + 1);
    for layer in &net.layers {
        let _ = write!(s, " {}", layer.out_count + 1);
    }
    s.push('\n');
    for (li, layer) in net.layers.iter().enumerate() {
        let a = &layer.activation;
        let _ = write!(s, "stepwise layer {li}=");
        for v in a.v {
            let _ = write!(s, "{v} ");
        }
        for r in a.r {
            let _ = write!(s, "{r} ");
        }
        let _ = writeln!(s, "{} {}", a.min, a.max);
    }
    s.push_str("connections (connected_to_neuron, weight)=");
    // Same neuron numbering convention as the float writer: inputs first,
    // bias connection last per neuron; bias stored first in memory.
    let mut firsts = vec![0usize];
    let mut acc = net.num_inputs + 1;
    for layer in &net.layers {
        firsts.push(acc);
        acc += layer.out_count + 1;
    }
    for (li, layer) in net.layers.iter().enumerate() {
        let prev_first = firsts[li];
        let bias_idx = prev_first + layer.in_count;
        let row_len = layer.row_len();
        for j in 0..layer.out_count {
            let row = &layer.weights[j * row_len..(j + 1) * row_len];
            for (i, w) in row[1..].iter().enumerate() {
                let _ = write!(s, "({}, {w}) ", prev_first + i);
            }
            let _ = write!(s, "({bias_idx}, {}) ", row[0]);
        }
    }
    s.push('\n');
    s
}

fn field<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix('=')))
        .map(str::trim)
}

/// Parses a `FANN_FIX_2.1` file.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed or inconsistent input.
pub fn read_fixed_net(text: &str) -> Result<FixedNet, ParseError> {
    let first = text.lines().next().ok_or(ParseError::BadHeader)?;
    if !first.trim().starts_with("FANN_FIX_2") {
        return Err(ParseError::BadHeader);
    }
    let decimal_point: u8 = field(text, "decimal_point")
        .ok_or(ParseError::MissingField("decimal_point"))?
        .parse()
        .map_err(|_| ParseError::BadValue {
            field: "decimal_point",
        })?;
    let sizes_with_bias: Vec<usize> = field(text, "layer_sizes")
        .ok_or(ParseError::MissingField("layer_sizes"))?
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>().map_err(|_| ParseError::BadValue {
                field: "layer_sizes",
            })
        })
        .collect::<Result<_, _>>()?;
    if sizes_with_bias.len() < 2 || sizes_with_bias.iter().any(|&n| n < 2) {
        return Err(ParseError::Inconsistent("layer sizes"));
    }
    let sizes: Vec<usize> = sizes_with_bias.iter().map(|n| n - 1).collect();

    // Stepwise tables.
    let mut activations = Vec::new();
    for li in 0..sizes.len() - 1 {
        let key = format!("stepwise layer {li}");
        let body = field(text, &key).ok_or(ParseError::MissingField("stepwise"))?;
        let nums: Vec<i32> = body
            .split_whitespace()
            .map(|t| {
                t.parse::<i32>()
                    .map_err(|_| ParseError::BadValue { field: "stepwise" })
            })
            .collect::<Result<_, _>>()?;
        if nums.len() != 14 {
            return Err(ParseError::Inconsistent("stepwise table"));
        }
        let mut v = [0i32; 6];
        let mut r = [0i32; 6];
        v.copy_from_slice(&nums[0..6]);
        r.copy_from_slice(&nums[6..12]);
        activations.push(FixedActivation {
            v,
            r,
            min: nums[12],
            max: nums[13],
        });
    }

    // Connections.
    let conn_body = field(text, "connections (connected_to_neuron, weight)")
        .ok_or(ParseError::MissingField("connections"))?;
    let mut weights_flat = Vec::new();
    let mut rest = conn_body;
    while let Some(open) = rest.find('(') {
        let close = rest[open..]
            .find(')')
            .ok_or(ParseError::Inconsistent("connections"))?;
        let inner = &rest[open + 1..open + close];
        let w = inner
            .split(',')
            .nth(1)
            .and_then(|t| t.trim().parse::<i32>().ok())
            .ok_or(ParseError::BadValue { field: "weight" })?;
        weights_flat.push(w);
        rest = &rest[open + close + 1..];
    }
    // The weights are bounded by the text, the sizes are not: they must
    // agree before any layer is allocated.
    if connection_count(&sizes_with_bias) != Some(weights_flat.len()) {
        return Err(ParseError::Inconsistent("connection count"));
    }

    let mut layers = Vec::new();
    let mut cursor = 0usize;
    for (li, w) in sizes.windows(2).enumerate() {
        let (in_count, out_count) = (w[0], w[1]);
        let row_len = in_count + 1;
        let mut weights = vec![0i32; row_len * out_count];
        for j in 0..out_count {
            for i in 0..row_len {
                let w = weights_flat[cursor];
                cursor += 1;
                // Inputs first, bias last in the file; bias first in memory.
                let slot = if i == in_count { 0 } else { i + 1 };
                weights[j * row_len + slot] = w;
            }
        }
        layers.push(FixedLayer {
            in_count,
            out_count,
            weights,
            activation: activations[li].clone(),
        });
    }
    Ok(FixedNet {
        decimal_point,
        num_inputs: sizes[0],
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_is_exact() {
        let mut net = Mlp::new(&[4, 7, 7, 2]);
        net.randomize_weights(&mut StdRng::seed_from_u64(42), 0.6);
        let fixed = FixedNet::export(&net).unwrap();
        let text = write_fixed_net(&fixed);
        let back = read_fixed_net(&text).unwrap();
        assert_eq!(back, fixed);
    }

    #[test]
    fn roundtripped_network_computes_identically() {
        let mut net = Mlp::new(&[5, 12, 3]);
        net.randomize_weights(&mut StdRng::seed_from_u64(7), 0.4);
        let fixed = FixedNet::export(&net).unwrap();
        let back = read_fixed_net(&write_fixed_net(&fixed)).unwrap();
        let input = fixed.quantize_input(&[0.3, -0.5, 0.7, 0.0, -0.2]);
        assert_eq!(back.forward(&input), fixed.forward(&input));
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(read_fixed_net("nope"), Err(ParseError::BadHeader));
        assert!(read_fixed_net("FANN_FIX_2.1\nnum_layers=2\n").is_err());
        // Truncated connections.
        let mut net = Mlp::new(&[2, 2]);
        net.randomize_weights(&mut StdRng::seed_from_u64(1), 0.3);
        let fixed = FixedNet::export(&net).unwrap();
        let text = write_fixed_net(&fixed);
        let cut = &text[..text.len() - 30];
        assert!(read_fixed_net(cut).is_err());
    }

    #[test]
    fn sizes_that_disagree_with_the_connections_are_rejected_before_allocating() {
        // One stepwise table and two connections on the records.
        let text = write_fixed_net(&FixedNet::export(&Mlp::new(&[1, 1])).unwrap());
        for sizes in [
            "3000000001 3000000001".to_string(),
            format!("{} 3", usize::MAX),
            // About 40 GB of weights, were they allocated.
            "100000 100000".to_string(),
        ] {
            let file: String = text
                .lines()
                .map(|l| match l.strip_prefix("layer_sizes=") {
                    Some(_) => format!("layer_sizes={sizes}\n"),
                    None => format!("{l}\n"),
                })
                .collect();
            assert_eq!(
                read_fixed_net(&file),
                Err(ParseError::Inconsistent("connection count")),
                "{sizes}"
            );
        }
    }
}
