//! The typed metrics registry every host fills once, at construction.
//!
//! A [`Registry`] is an ordered list of named sources — counters,
//! histograms, windows, and collectors over state the host already
//! keeps. Hot paths hold the registered handles (a [`Counter`] is one
//! relaxed atomic add), so recording never locks or looks a name up.
//! [`Registry::snapshot`] reads them into a [`Snapshot`] of ordered,
//! typed samples that every export derives from — the stats JSON,
//! Prometheus ([`crate::prom::render`]), history, and alert series —
//! and that merges across a cluster ([`Snapshot::merge`]) without ever
//! touching a percentile.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::{HistSnapshot, Histogram};
use crate::window::{Window, WindowSnapshot};

/// A monotonic counter, or an up/down level (in-flight requests): one
/// relaxed atomic. Clones share the count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one; returns the new value.
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Add `n`; returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed).wrapping_add(n)
    }

    /// Subtract `n` (levels only).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrite the value.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A real-valued gauge (a weight, a rate) as `f64` bits in one atomic.
/// Clones share the value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge holding `v`.
    pub fn new(v: f64) -> Gauge {
        Gauge(Arc::new(AtomicU64::new(v.to_bits())))
    }

    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// One typed sample. The variant is the sample's kind: what a decoder
/// reads it back as, and how it merges.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer count or level; merges by adding.
    Counter(u64),
    /// A real-valued gauge; merges by adding.
    Gauge(f64),
    /// A boolean; a merge keeps the first.
    Flag(bool),
    /// A log-bucketed distribution; merges bucket-wise.
    Histogram(HistSnapshot),
    /// Labelled rows; a merge keeps the first.
    Table(Table),
}

impl Value {
    /// The numeric reading (what alert rules, history, and Prometheus
    /// read): flags as `0`/`1`; `None` for histograms and tables.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Counter(n) => Some(*n as f64),
            Value::Gauge(v) => Some(*v),
            Value::Flag(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    fn merge(&mut self, other: &Value) {
        match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => *a = a.saturating_add(*b),
            (Value::Gauge(a), Value::Gauge(b)) => *a += b,
            (Value::Histogram(a), Value::Histogram(b)) => a.merge(b),
            _ => {}
        }
    }
}

/// Labelled rows under one name — the gateway's shard table, the alert
/// rules' states — each identified by its label value.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The JSON field carrying a row's label value (`addr`).
    pub key: &'static str,
    /// The Prometheus label carrying it (`shard`).
    pub label: &'static str,
    /// Which fields Prometheus exports: `None`, every numeric field as
    /// `<name>_<field>{label=...}`; `Some(field)`, that one field as
    /// `<name>{label=...}`.
    pub export: Option<&'static str>,
    /// The rows, in order.
    pub rows: Vec<Row>,
}

/// One row of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The row's label value (a shard address, a rule's text).
    pub label: String,
    /// Scalar fields, in order.
    pub fields: Vec<(&'static str, Value)>,
}

/// An ordered, typed copy of a host's metrics. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    samples: Vec<(String, Value)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Append a sample under a dotted name (`window.rate`).
    pub fn push(&mut self, name: impl Into<String>, value: Value) {
        self.samples.push((name.into(), value));
    }

    /// Append a [`Value::Counter`].
    pub fn counter(&mut self, name: impl Into<String>, n: u64) {
        self.push(name, Value::Counter(n));
    }

    /// Append a [`Value::Gauge`].
    pub fn gauge(&mut self, name: impl Into<String>, v: f64) {
        self.push(name, Value::Gauge(v));
    }

    /// Append a sliding window's fields under `prefix`: windowed counts
    /// and per-second rates, the host's `in_flight`/`queue_depth`
    /// levels, and the windowed latency histogram — all of which merge
    /// soundly across shards (rates of disjoint traffic add). The
    /// window's coverage does not, so it is not a sample.
    pub fn window(&mut self, prefix: &str, w: &WindowSnapshot, in_flight: u64, queue_depth: u64) {
        self.counter(format!("{prefix}.requests"), w.requests);
        self.counter(format!("{prefix}.errors"), w.errors);
        self.gauge(format!("{prefix}.rate"), w.rate_per_s());
        self.gauge(format!("{prefix}.error_rate"), w.error_rate_per_s());
        self.counter(format!("{prefix}.in_flight"), in_flight);
        self.counter(format!("{prefix}.queue_depth"), queue_depth);
        let hist = Value::Histogram(w.hist.clone());
        self.push(format!("{prefix}.latency_us"), hist);
    }

    /// Append every sample of `other`, in order.
    pub fn extend(&mut self, other: Snapshot) {
        self.samples.extend(other.samples);
    }

    /// The samples, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.samples.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// The sample named `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.samples.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The numeric reading of `name`: how alert rules resolve a series.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }

    /// The cluster merge: fold `other` in sample by sample (see
    /// [`Value`] for how each kind merges) and append the samples
    /// `self` lacks.
    pub fn merge(&mut self, other: &Snapshot) {
        for (i, (name, value)) in other.samples.iter().enumerate() {
            // Snapshots of one host kind line up index for index.
            let slot = match self.samples.get_mut(i) {
                Some((n, v)) if n == name => Some(v),
                _ => self
                    .samples
                    .iter_mut()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v),
            };
            match slot {
                Some(v) => v.merge(value),
                None => self.samples.push((name.clone(), value.clone())),
            }
        }
    }
}

type Source = Box<dyn Fn(&mut Snapshot) + Send + Sync>;

/// A host's metrics: sources filled once at construction, read in
/// registration order by [`Registry::snapshot`].
#[derive(Default)]
pub struct Registry {
    sources: Vec<Source>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register `counter` under `name`.
    pub fn counter(&mut self, name: &str, counter: &Counter) {
        let (name, c) = (name.to_string(), counter.clone());
        self.collect(move |s| s.counter(name.as_str(), c.get()));
    }

    /// Register `hist` under `name`.
    pub fn histogram(&mut self, name: &str, hist: &Arc<Histogram>) {
        let (name, h) = (name.to_string(), Arc::clone(hist));
        self.collect(move |s| s.push(name.as_str(), Value::Histogram(h.snapshot())));
    }

    /// Register a sliding window with the host's in-flight and
    /// queue-depth levels under `prefix` (see [`Snapshot::window`]).
    pub fn window(&mut self, prefix: &str, w: &Arc<Window>, in_flight: &Counter, queue: &Counter) {
        let (prefix, w) = (prefix.to_string(), Arc::clone(w));
        let (in_flight, queue) = (in_flight.clone(), queue.clone());
        self.collect(move |s| s.window(&prefix, &w.snapshot(), in_flight.get(), queue.get()));
    }

    /// Register a collector: a closure appending samples read from
    /// state the host already keeps — the same names and kinds on every
    /// call, or nothing for a section that is off.
    pub fn collect(&mut self, f: impl Fn(&mut Snapshot) + Send + Sync + 'static) {
        self.sources.push(Box::new(f));
    }

    /// Read every source, in registration order.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        for source in &self.sources {
            source(&mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::TestClock;

    #[test]
    fn snapshots_keep_registration_order_and_kinds() {
        let mut reg = Registry::new();
        let requests = Counter::new();
        let hist = Arc::new(Histogram::new());
        let window = Arc::new(Window::new(Arc::new(TestClock::new()), 4, 1000));
        reg.counter("requests", &requests);
        reg.histogram("hist.latency_us", &hist);
        reg.window("window", &window, &Counter::new(), &Counter::new());
        reg.collect(|s| s.gauge("weight", 2.5));
        requests.add(3);
        hist.record(40);
        window.record(40, false);

        let s = reg.snapshot();
        let names: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "requests",
                "hist.latency_us",
                "window.requests",
                "window.errors",
                "window.rate",
                "window.error_rate",
                "window.in_flight",
                "window.queue_depth",
                "window.latency_us",
                "weight"
            ]
        );
        assert_eq!(s.value("requests"), Some(3.0));
        assert_eq!(s.value("window.errors"), Some(1.0));
        assert_eq!(s.value("weight"), Some(2.5));
        assert_eq!(s.value("hist.latency_us"), None, "not a scalar");
        assert!(matches!(s.get("hist.latency_us"), Some(Value::Histogram(h)) if h.count == 1));
    }

    #[test]
    fn merge_adds_scalars_merges_buckets_and_appends_missing_names() {
        let mut a = Snapshot::new();
        a.counter("n", 2);
        a.gauge("rate", 0.5);
        a.push("flag", Value::Flag(true));
        let mut b = Snapshot::new();
        b.counter("n", 3);
        b.gauge("rate", 1.0);
        b.push("flag", Value::Flag(false));
        b.counter("extra", 7);
        a.merge(&b);
        assert_eq!(a.get("n"), Some(&Value::Counter(5)));
        assert_eq!(a.value("rate"), Some(1.5));
        assert_eq!(a.get("flag"), Some(&Value::Flag(true)), "first wins");
        assert_eq!(a.value("extra"), Some(7.0));
    }
}
