//! Prometheus text-exposition rendering (version 0.0.4).
//!
//! Just enough of the format for `/metrics` to be scrapeable by
//! standard tooling: `# TYPE` headers, gauge/counter samples with
//! labels, and full histogram families (`_bucket{le=...}` cumulative
//! counts, `_sum`, `_count`). Metric and label names are validated —
//! and sanitized where they derive from runtime strings like shard
//! addresses — so a scrape never emits a line a Prometheus parser
//! would reject.

use crate::hist::HistSnapshot;
use crate::registry::{Snapshot, Value};
use std::fmt::Write as _;

/// Is `s` a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
pub fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Is `s` a valid Prometheus label name (`[a-zA-Z_][a-zA-Z0-9_]*`)?
pub fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Coerce an arbitrary string into a valid metric-name fragment:
/// every invalid character becomes `_`, and a leading digit gains a
/// `_` prefix. Returns `_` for an empty input.
pub fn sanitize_name(s: &str) -> String {
    if s.is_empty() {
        return "_".to_string();
    }
    let mut out = String::with_capacity(s.len() + 1);
    for (i, c) in s.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escape a label value for the exposition format (`\`, `"`, newline).
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format a sample value the way Prometheus expects: integral values
/// without a decimal point, everything else in shortest-roundtrip
/// float form.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        debug_assert!(valid_label_name(k), "bad label name {k}");
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Accumulates exposition text. One `# TYPE` header is emitted per
/// metric family, before that family's first sample, regardless of
/// how many label variants follow.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    typed: Vec<String>,
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn type_header(&mut self, name: &str, kind: &str) {
        if !self.typed.iter().any(|t| t == name) {
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
            self.typed.push(name.to_string());
        }
    }

    /// Emit one sample of a family with the given type (`gauge`,
    /// `counter`, `untyped`). Panics in debug builds on an invalid
    /// metric name — callers sanitize runtime-derived names first.
    pub fn sample(&mut self, name: &str, kind: &str, labels: &[(&str, &str)], value: f64) {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.type_header(name, kind);
        let _ = writeln!(
            self.out,
            "{name}{} {}",
            render_labels(labels),
            format_value(value)
        );
    }

    /// Emit a full histogram family from a snapshot: cumulative
    /// `_bucket` samples per recorded bound, the `+Inf` bucket, and
    /// the `_sum` / `_count` pair, all carrying `labels`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistSnapshot) {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.type_header(name, "histogram");
        let bucket = format!("{name}_bucket");
        let mut cum = 0u64;
        for &(bound, count) in &snap.buckets {
            cum += count;
            let le = format_value(bound as f64);
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", &le));
            let _ = writeln!(self.out, "{bucket}{} {cum}", render_labels(&ls));
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        let _ = writeln!(self.out, "{bucket}{} {}", render_labels(&ls), snap.count);
        let _ = writeln!(self.out, "{name}_sum{} {}", render_labels(labels), snap.sum);
        let _ = writeln!(
            self.out,
            "{name}_count{} {}",
            render_labels(labels),
            snap.count
        );
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Render a snapshot as exposition text, every family under the
/// `dahlia` prefix. A sample's name is its dotted path joined with `_`
/// (each segment sanitized); counters and gauges are `gauge` samples,
/// flags `0`/`1` gauges, histograms full histogram families, and a
/// table's rows samples labelled with their label value (see
/// [`crate::Table::export`] for which fields export).
pub fn render(snapshot: &Snapshot) -> String {
    let mut w = PromWriter::new();
    for (name, value) in snapshot.iter() {
        let family = name.split('.').fold(String::from("dahlia"), |acc, seg| {
            acc + "_" + &sanitize_name(seg)
        });
        match value {
            Value::Histogram(h) => w.histogram(&family, &[], h),
            Value::Table(t) => {
                for row in &t.rows {
                    let labels = [(t.label, row.label.as_str())];
                    for (field, v) in &row.fields {
                        let Some(x) = v.as_f64() else { continue };
                        match t.export {
                            Some(f) if f == *field => w.sample(&family, "gauge", &labels, x),
                            Some(_) => {}
                            None => {
                                let name = format!("{family}_{}", sanitize_name(field));
                                w.sample(&name, "gauge", &labels, x);
                            }
                        }
                    }
                }
            }
            v => {
                if let Some(x) = v.as_f64() {
                    w.sample(&family, "gauge", &[], x);
                }
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::registry::{Row, Table};

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("dahlia_requests_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
        assert!(valid_label_name("stage"));
        assert!(!valid_label_name("le!"));
    }

    #[test]
    fn sanitize_produces_valid_names() {
        for raw in ["127.0.0.1:4500", "9lives", "", "ok_name", "a b"] {
            let s = sanitize_name(raw);
            assert!(valid_metric_name(&s), "{raw} -> {s}");
        }
        assert_eq!(sanitize_name("127.0.0.1:4500"), "_127_0_0_1_4500");
    }

    #[test]
    fn escape_and_format() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(0.5), "0.5");
    }

    #[test]
    fn one_type_header_per_family() {
        let mut w = PromWriter::new();
        w.sample("dahlia_x", "counter", &[("stage", "parse")], 1.0);
        w.sample("dahlia_x", "counter", &[("stage", "check")], 2.0);
        let text = w.finish();
        assert_eq!(text.matches("# TYPE dahlia_x counter").count(), 1);
        assert!(text.contains("dahlia_x{stage=\"parse\"} 1\n"));
        assert!(text.contains("dahlia_x{stage=\"check\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.histogram("dahlia_latency_us", &[], &h.snapshot());
        let text = w.finish();
        assert!(text.contains("# TYPE dahlia_latency_us histogram"));
        assert!(text.contains("dahlia_latency_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("dahlia_latency_us_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("dahlia_latency_us_bucket{le=\"127\"} 4\n"));
        assert!(text.contains("dahlia_latency_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("dahlia_latency_us_sum 106\n"));
        assert!(text.contains("dahlia_latency_us_count 4\n"));
    }

    #[test]
    fn render_names_families_by_path_and_labels_table_rows() {
        let mut s = Snapshot::new();
        s.counter("disk.hits", 3);
        s.push("up", Value::Flag(true));
        let row = |label: &str, v: f64| Row {
            label: label.to_string(),
            fields: vec![("state", Value::Gauge(v)), ("value", Value::Gauge(9.5))],
        };
        s.push(
            "alert_state",
            Value::Table(Table {
                key: "rule",
                label: "rule",
                export: Some("state"),
                rows: vec![row("a > 1", 2.0)],
            }),
        );
        s.push(
            "gateway.shards",
            Value::Table(Table {
                key: "addr",
                label: "shard",
                export: None,
                rows: vec![row("127.0.0.1:1", 0.0)],
            }),
        );
        let text = render(&s);
        assert!(text.contains("# TYPE dahlia_disk_hits gauge\ndahlia_disk_hits 3\n"));
        assert!(text.contains("dahlia_up 1\n"));
        assert!(text.contains("dahlia_alert_state{rule=\"a > 1\"} 2\n"));
        assert!(!text.contains("alert_state_value"), "{text}");
        assert!(text.contains("dahlia_gateway_shards_value{shard=\"127.0.0.1:1\"} 9.5\n"));
    }
}
