//! `iw-metrics`: operational telemetry for the InfiniWolf fleet stack.
//!
//! Two layers, both dependency-free:
//!
//! 1. [`Histogram`] — log-linear, `u64`-valued, with *exact* mergeable
//!    buckets (element-wise `u64` addition), so fleet-level
//!    distributions are bit-identical across shard/thread topology just
//!    like the scalar digest algebra in `iw-sim::fleet`.
//! 2. [`Snapshot`] — a set of samples, built with [`Snapshot::push`] and
//!    put in canonical order with [`Snapshot::sort`], with
//!    [Prometheus text exposition](Snapshot::to_prometheus), a
//!    [JSON export](Snapshot::to_json) of the same schema, and a
//!    human [summary table](Snapshot::render_table).
//!
//! Snapshots sort samples by `(name, labels)`, so two snapshots built
//! from the same values render byte-identically — the property the
//! golden Prometheus test in `iw-bench` pins down.

#![warn(missing_docs)]

mod hist;

pub use hist::{bucket_bounds, bucket_index, Histogram, MAX_BUCKETS};

/// One sampled value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(f64),
    /// Full distribution.
    Histogram(Histogram),
}

/// A named sample: metric name, sorted label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`snake_case`, no label braces).
    pub name: String,
    /// Label `(key, value)` pairs; kept sorted by key.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: Value,
}

/// A frozen, renderable set of metric samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The samples, sorted by `(name, labels)`.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample (call [`Snapshot::sort`] after bulk insertion).
    pub fn push(&mut self, name: &str, labels: &[(&str, &str)], value: Value) {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }

    /// Sorts samples into the canonical `(name, labels)` order that
    /// makes renders deterministic.
    pub fn sort(&mut self) {
        self.samples
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
            .collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{}\"", escape(&v)));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// Renders the [Prometheus text exposition format]. Histograms emit
    /// cumulative `_bucket{le=…}` series over the non-empty buckets
    /// (bucket upper bounds as `le`), a `+Inf` bucket, `_sum` and
    /// `_count`. Deterministic: same samples → same bytes.
    ///
    /// [Prometheus text exposition format]:
    ///     https://prometheus.io/docs/instrumenting/exposition_formats/
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for s in &self.samples {
            let kind = match s.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            if s.name != last_name {
                out.push_str(&format!("# TYPE {} {kind}\n", s.name));
                last_name = &s.name;
            }
            match &s.value {
                Value::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        s.name,
                        Self::label_block(&s.labels, None)
                    ));
                }
                Value::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        Self::label_block(&s.labels, None),
                        fmt_f64(*v)
                    ));
                }
                Value::Histogram(h) => {
                    let mut cum = 0u64;
                    for (_, upper, n) in h.nonzero_buckets() {
                        cum += n;
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            s.name,
                            Self::label_block(&s.labels, Some(("le", upper.to_string())))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        Self::label_block(&s.labels, Some(("le", "+Inf".into()))),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        s.name,
                        Self::label_block(&s.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        s.name,
                        Self::label_block(&s.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Renders the same data as a JSON array — one object per sample
    /// with `name`, `labels`, `type`, and a type-specific payload
    /// (histograms carry scalars plus sparse `[index, count]` buckets).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\":");
            out.push_str(&json_str(&s.name));
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(k));
                out.push(':');
                out.push_str(&json_str(v));
            }
            out.push('}');
            match &s.value {
                Value::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"));
                }
                Value::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{}", fmt_f64(*v)));
                }
                Value::Histogram(h) => {
                    let (count, sum, min, max) = h.scalars();
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{count},\"sum\":{sum}"
                    ));
                    if count > 0 {
                        out.push_str(&format!(",\"min\":{min},\"max\":{max}"));
                    }
                    out.push_str(",\"buckets\":[");
                    for (j, (idx, n)) in h.sparse().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{idx},{n}]"));
                    }
                    out.push_str("]}");
                    continue;
                }
            }
            out.push('}');
        }
        out.push_str("\n]");
        out
    }

    /// Renders a human summary table: scalars as `name value`,
    /// histograms as count/mean/quantile rows.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<[String; 7]> = vec![[
            "metric".into(),
            "count".into(),
            "mean".into(),
            "p50".into(),
            "p99".into(),
            "min".into(),
            "max".into(),
        ]];
        let mut scalars: Vec<(String, String)> = Vec::new();
        for s in &self.samples {
            let labeled = format!("{}{}", s.name, Self::label_block(&s.labels, None));
            match &s.value {
                Value::Counter(v) => scalars.push((labeled, v.to_string())),
                Value::Gauge(v) => scalars.push((labeled, fmt_f64(*v))),
                Value::Histogram(h) => rows.push([
                    labeled,
                    h.count().to_string(),
                    format!("{:.1}", h.mean()),
                    h.quantile(0.5).map_or("-".into(), |v| v.to_string()),
                    h.quantile(0.99).map_or("-".into(), |v| v.to_string()),
                    h.min().map_or("-".into(), |v| v.to_string()),
                    h.max().map_or("-".into(), |v| v.to_string()),
                ]),
            }
        }
        let mut widths = [0usize; 7];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for (k, v) in &scalars {
            out.push_str(&format!("{k} = {v}\n"));
        }
        if rows.len() > 1 {
            for row in &rows {
                let line: Vec<String> = row
                    .iter()
                    .zip(widths)
                    .map(|(cell, w)| format!("{cell:<w$}"))
                    .collect();
                out.push_str(line.join("  ").trim_end());
                out.push('\n');
            }
        }
        out
    }
}

/// Formats an `f64` the way both exporters need it: shortest lossless
/// decimal via Rust's `{}` (which round-trips), with non-finite values
/// spelled for JSON-compat as quoted-free Prometheus tokens.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else {
        format!("{v}")
    }
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Minimal JSON string quoting (control chars, quote, backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_render_is_deterministic_and_sorted() {
        let mut snap = Snapshot::new();
        snap.push("b_total", &[], Value::Counter(2));
        snap.push("a_gauge", &[("zz", "1"), ("aa", "2")], Value::Gauge(1.5));
        snap.sort();
        let text = snap.to_prometheus();
        assert_eq!(
            text,
            "# TYPE a_gauge gauge\na_gauge{aa=\"2\",zz=\"1\"} 1.5\n\
             # TYPE b_total counter\nb_total 2\n"
        );
        assert_eq!(text, snap.clone().to_prometheus());
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let mut snap = Snapshot::new();
        snap.push("lat_us", &[], Value::Histogram(h));
        let text = snap.to_prometheus();
        assert!(text.contains("lat_us_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_us_sum 102\n"), "{text}");
        assert!(text.contains("lat_us_count 3\n"), "{text}");
        // The le=100-containing bucket is cumulative (2 + 1).
        let le_100: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lat_us_bucket") && !l.contains("+Inf"))
            .collect();
        assert_eq!(le_100.len(), 2);
        assert!(le_100[1].ends_with(" 3"), "{le_100:?}");
    }

    #[test]
    fn json_render_carries_sparse_buckets() {
        let mut h = Histogram::new();
        h.record_n(3, 4);
        let mut snap = Snapshot::new();
        snap.push("x", &[("k", "v\"q")], Value::Histogram(h));
        let json = snap.to_json();
        assert!(json.contains("\"buckets\":[[3,4]]"), "{json}");
        assert!(json.contains("\"k\":\"v\\\"q\""), "{json}");
        iw_validate_json(&json);
    }

    /// Tiny structural JSON validator mirroring iw-trace's: brackets,
    /// braces and strings must balance.
    fn iw_validate_json(s: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '[' | '{' => depth += 1,
                ']' | '}' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn table_renders_scalars_and_histograms() {
        let mut h = Histogram::new();
        h.record(10);
        let mut snap = Snapshot::new();
        snap.push("events_total", &[], Value::Counter(5));
        snap.push("depth", &[], Value::Histogram(h));
        snap.sort();
        let table = snap.render_table();
        assert!(table.contains("events_total = 5"), "{table}");
        assert!(table.contains("depth"), "{table}");
        assert!(table.contains("p99"), "{table}");
    }
}
