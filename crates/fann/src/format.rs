//! FANN text file formats: the `.net` network file and the `.data`
//! training-data file.
//!
//! The writer emits the `FANN_FLO_2.1` layout (header fields, `layer_sizes`,
//! per-neuron records, per-connection records); the reader accepts what the
//! writer produces plus the field reordering FANN itself tolerates. Only the
//! features this crate models are serialised (fully-connected layered
//! networks, the three activations of [`Activation`]).

use std::fmt::Write as _;

use crate::activation::Activation;
use crate::net::Mlp;
use crate::train::TrainData;

/// Error produced while parsing a `.net` or `.data` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The FANN version header is missing or unsupported.
    BadHeader,
    /// A required field is missing.
    MissingField(&'static str),
    /// A numeric value failed to parse or is out of range.
    BadValue {
        /// Name of the offending field.
        field: &'static str,
    },
    /// Structural inconsistency (counts that do not add up).
    Inconsistent(&'static str),
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::BadHeader => f.write_str("missing or unsupported FANN header"),
            ParseError::MissingField(name) => write!(f, "missing field {name}"),
            ParseError::BadValue { field } => write!(f, "bad value for {field}"),
            ParseError::Inconsistent(what) => write!(f, "inconsistent file: {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialises a network in FANN `.net` (floating-point) format.
///
/// # Examples
///
/// ```
/// use iw_fann::{Mlp, format};
/// let net = Mlp::new(&[2, 3, 1]);
/// let text = format::write_net(&net);
/// assert!(text.starts_with("FANN_FLO_2.1"));
/// let back = format::read_net(&text)?;
/// assert_eq!(back, net);
/// # Ok::<(), iw_fann::format::ParseError>(())
/// ```
#[must_use]
pub fn write_net(net: &Mlp) -> String {
    let mut s = String::new();
    let sizes = net.layer_sizes();
    s.push_str("FANN_FLO_2.1\n");
    let _ = writeln!(s, "num_layers={}", sizes.len());
    s.push_str("learning_rate=0.700000\n");
    s.push_str("connection_rate=1.000000\n");
    s.push_str("network_type=0\n");
    let _ = write!(s, "layer_sizes=");
    for (i, n) in sizes.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        // FANN counts the bias neuron in every layer except (in layered
        // nets) none — every written layer size includes +1 bias.
        let _ = write!(s, "{}", n + 1);
    }
    s.push('\n');
    // Neuron records: (num_inputs, activation, steepness) per neuron.
    s.push_str("neurons (num_inputs, activation_function, activation_steepness)=");
    // Input layer neurons (incl. bias) have no inputs.
    for _ in 0..=net.num_inputs() {
        s.push_str("(0, 0, 0.000000) ");
    }
    for layer in net.layers() {
        for _ in 0..layer.out_count() {
            let _ = write!(
                s,
                "({}, {}, {:.6}) ",
                layer.row_len(),
                layer.activation().fann_code(),
                layer.steepness()
            );
        }
        // The layer's bias neuron.
        s.push_str("(0, 0, 0.000000) ");
    }
    s.push('\n');
    s.push_str("connections (connected_to_neuron, weight)=");
    // Neuron numbering: input layer first (bias last in each layer).
    let mut layer_first = vec![0usize];
    let mut acc = 0usize;
    for n in &sizes {
        acc += n + 1;
        layer_first.push(acc);
    }
    for (li, layer) in net.layers().iter().enumerate() {
        let prev_first = layer_first[li];
        let bias_idx = prev_first + layer.in_count();
        let row_len = layer.row_len();
        for j in 0..layer.out_count() {
            let row = &layer.weights()[j * row_len..(j + 1) * row_len];
            // FANN writes inputs first, then the bias connection; our rows
            // store bias first — reorder on the way out.
            for (i, w) in row[1..].iter().enumerate() {
                let _ = write!(s, "({}, {:.20e}) ", prev_first + i, w);
            }
            let _ = write!(s, "({}, {:.20e}) ", bias_idx, row[0]);
        }
    }
    s.push('\n');
    s
}

fn field<'a>(text: &'a str, name: &'static str) -> Result<&'a str, ParseError> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(v) = rest.strip_prefix('=') {
                return Ok(v.trim());
            }
        }
    }
    Err(ParseError::MissingField(name))
}

/// The connections of a layered network with `sizes_with_bias` neurons
/// per layer, bias neurons included: each non-input neuron connects to
/// every neuron of the layer before it. `None` where that overflows.
pub(crate) fn connection_count(sizes_with_bias: &[usize]) -> Option<usize> {
    sizes_with_bias.windows(2).try_fold(0usize, |total, w| {
        total.checked_add(w[0].checked_mul(w[1] - 1)?)
    })
}

fn parse_paren_pairs(body: &str) -> Vec<Vec<String>> {
    // Splits "(a, b, c) (d, e) ..." into [[a,b,c],[d,e],...].
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('(') {
        let Some(close) = rest[open..].find(')') else {
            break;
        };
        let inner = &rest[open + 1..open + close];
        out.push(
            inner
                .split(',')
                .map(|t| t.trim().to_string())
                .collect::<Vec<_>>(),
        );
        rest = &rest[open + close + 1..];
    }
    out
}

/// Parses a FANN `.net` (floating-point) file.
///
/// # Errors
///
/// Returns [`ParseError`] for missing headers/fields or inconsistent
/// structure.
pub fn read_net(text: &str) -> Result<Mlp, ParseError> {
    let first = text.lines().next().ok_or(ParseError::BadHeader)?;
    if !first.trim().starts_with("FANN_FLO_2") {
        return Err(ParseError::BadHeader);
    }
    let sizes_with_bias: Vec<usize> = field(text, "layer_sizes")?
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

    // Neuron records give per-layer activation/steepness. The sizes must
    // match the records (and the connections below) before the network
    // is allocated: the records are bounded by the text, the sizes are
    // not.
    let neurons_body = field(
        text,
        "neurons (num_inputs, activation_function, activation_steepness)",
    )?;
    let neuron_recs = parse_paren_pairs(neurons_body);
    let expected_neurons = sizes_with_bias
        .iter()
        .try_fold(0usize, |total, &n| total.checked_add(n));
    if expected_neurons != Some(neuron_recs.len()) {
        return Err(ParseError::Inconsistent("neuron count"));
    }
    let conn_body = field(text, "connections (connected_to_neuron, weight)")?;
    let conns = parse_paren_pairs(conn_body);
    if connection_count(&sizes_with_bias) != Some(conns.len()) {
        return Err(ParseError::Inconsistent("connection count"));
    }
    let mut net = Mlp::new(&sizes);
    let mut cursor = sizes_with_bias[0]; // skip input layer (incl. bias)
    for li in 0..sizes.len() - 1 {
        let rec = &neuron_recs[cursor];
        if rec.len() != 3 {
            return Err(ParseError::Inconsistent("neuron record"));
        }
        let code: u8 = rec[1].parse().map_err(|_| ParseError::BadValue {
            field: "activation",
        })?;
        let act = Activation::from_fann_code(code).ok_or(ParseError::BadValue {
            field: "activation",
        })?;
        let steep: f32 = rec[2]
            .parse()
            .map_err(|_| ParseError::BadValue { field: "steepness" })?;
        // Apply activation/steepness to the whole layer (FANN stores them
        // per neuron; this crate models them per layer).
        if li == sizes.len() - 2 {
            net.set_output_activation(act);
        } else {
            // set on this hidden layer only
            net.layers_mut()[li].set_activation_internal(act);
        }
        net.layers_mut()[li].set_steepness_internal(steep);
        cursor += sizes_with_bias[li + 1];
    }

    // Connections, in FANN order: for each non-input layer, for each neuron,
    // inputs then bias.
    let mut it = conns.iter();
    for li in 0..sizes.len() - 1 {
        let (in_count, out_count) = {
            let layer = &net.layers()[li];
            (layer.in_count(), layer.out_count())
        };
        let row_len = in_count + 1;
        for j in 0..out_count {
            for i in 0..row_len {
                let rec = it.next().ok_or(ParseError::Inconsistent("connections"))?;
                if rec.len() != 2 {
                    return Err(ParseError::Inconsistent("connection record"));
                }
                let w: f32 = rec[1]
                    .parse()
                    .map_err(|_| ParseError::BadValue { field: "weight" })?;
                // Inputs first, bias last in the file; bias first in memory.
                let slot = if i == in_count { 0 } else { i + 1 };
                net.layers_mut()[li].weights_mut()[j * row_len + slot] = w;
            }
        }
    }
    Ok(net)
}

/// Serialises training data in FANN `.data` format.
#[must_use]
pub fn write_data(data: &TrainData) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} {} {}",
        data.len(),
        data.num_inputs(),
        data.num_outputs()
    );
    for (input, output) in data.iter() {
        for (i, x) in input.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            let _ = write!(s, "{x:.8}");
        }
        s.push('\n');
        for (i, y) in output.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            let _ = write!(s, "{y:.8}");
        }
        s.push('\n');
    }
    s
}

/// Parses FANN `.data` training data.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed headers or short files.
pub fn read_data(text: &str) -> Result<TrainData, ParseError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or(ParseError::BadHeader)?;
    let mut parts = header.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or(ParseError::BadValue { field: "num_pairs" })?;
    let ni: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or(ParseError::BadValue { field: "num_input" })?;
    let no: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or(ParseError::BadValue {
            field: "num_output",
        })?;
    let mut data = TrainData::new();
    for _ in 0..n {
        let in_line = lines
            .next()
            .ok_or(ParseError::Inconsistent("missing input line"))?;
        let out_line = lines
            .next()
            .ok_or(ParseError::Inconsistent("missing output line"))?;
        let input: Vec<f32> = in_line
            .split_whitespace()
            .map(|t| {
                t.parse()
                    .map_err(|_| ParseError::BadValue { field: "input" })
            })
            .collect::<Result<_, _>>()?;
        let output: Vec<f32> = out_line
            .split_whitespace()
            .map(|t| {
                t.parse()
                    .map_err(|_| ParseError::BadValue { field: "output" })
            })
            .collect::<Result<_, _>>()?;
        if input.len() != ni || output.len() != no {
            return Err(ParseError::Inconsistent("sample dimensions"));
        }
        data.push(input, output);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn net_roundtrip_preserves_weights_exactly() {
        let mut net = Mlp::new(&[4, 7, 7, 2]);
        net.randomize_weights(&mut StdRng::seed_from_u64(77), 0.9);
        net.set_output_activation(Activation::Sigmoid);
        net.set_steepness(0.5);
        let text = write_net(&net);
        let back = read_net(&text).unwrap();
        assert_eq!(back, net);
    }

    #[test]
    fn net_rejects_garbage() {
        assert_eq!(read_net("hello"), Err(ParseError::BadHeader));
        assert!(read_net("FANN_FLO_2.1\nnum_layers=3\n").is_err());
    }

    /// A written file with its `layer_sizes` line replaced.
    fn with_layer_sizes(text: &str, sizes: &str) -> String {
        text.lines()
            .map(|l| {
                if l.starts_with("layer_sizes=") {
                    format!("layer_sizes={sizes}")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn net_sizes_that_disagree_with_the_records_are_rejected_before_allocating() {
        // Two neurons and two connections on the records.
        let text = write_net(&Mlp::new(&[1, 1]));
        for sizes in [
            "3000000001 3000000001".to_string(),
            format!("{} 3", usize::MAX),
            // About 40 GB of weights, were they allocated.
            "100000 100000".to_string(),
        ] {
            assert!(
                matches!(
                    read_net(&with_layer_sizes(&text, &sizes)),
                    Err(ParseError::Inconsistent(_))
                ),
                "{sizes}"
            );
        }
        assert_eq!(connection_count(&[usize::MAX, 3]), None);
        assert_eq!(connection_count(&[3, 4, 2]), Some(3 * 3 + 4));
    }

    #[test]
    fn data_roundtrip() {
        let mut d = TrainData::new();
        d.push(vec![0.5, -0.25], vec![1.0]);
        d.push(vec![-1.0, 0.125], vec![-1.0]);
        let text = write_data(&d);
        let back = read_data(&text).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in d.iter().zip(back.iter()) {
            for (x, y) in a.0.iter().zip(b.0) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn data_rejects_dimension_mismatch() {
        let text = "1 2 1\n0.5\n1.0\n";
        assert!(matches!(read_data(text), Err(ParseError::Inconsistent(_))));
    }
}
