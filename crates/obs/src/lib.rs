//! Observability primitives for the Dahlia compile cluster,
//! dependency-free and `std`-only like the rest of the workspace:
//!
//! * [`Registry`] / [`Snapshot`] — the one typed metrics model. Each
//!   host registers its counters, histograms, windows, and collectors
//!   once; every export (stats JSON, Prometheus, history, alert rules)
//!   reads the same ordered [`Snapshot`], and snapshots merge across a
//!   cluster without ever summing a percentile.
//! * [`Histogram`] — a lock-free, log-bucketed (power-of-two bounds)
//!   latency/cost histogram: a couple of relaxed atomic adds per
//!   observation. Its snapshots ([`HistSnapshot`]) merge by adding
//!   buckets; percentiles come after the merge, never before.
//! * [`Window`] — a sliding window (ring of fixed-duration buckets of
//!   counters + histograms, rotated by a pluggable [`Clock`]): windowed
//!   throughput, error rate, and percentiles over the last couple of
//!   minutes instead of since process start.
//! * [`Ring`] — the bounded, sequence-numbered ring behind the trace
//!   [`Journal`] (client-traced requests and their [`Span`]s), the
//!   [`SlowLog`] (requests over a latency threshold, captured
//!   retroactively from always-on spans), and the alert journal.
//! * [`prom`] — Prometheus text exposition of a [`Snapshot`].
//! * [`Tsdb`] / [`Sampler`] — durable telemetry: a crash-safe,
//!   append-only on-disk ring of periodic stats snapshots (checksummed
//!   records, byte-bounded segment rotation, torn-tail recovery after
//!   SIGKILL) fed by a fixed-interval sampler thread, plus
//!   [`downsample`] for the bins the `{"op":"history"}` op answers.
//! * [`AlertEngine`] — declarative threshold rules
//!   (`window.error_rate > 0.05 for 30s`) with for-duration
//!   hysteresis, a transition journal read via `{"op":"alerts"}`, and
//!   optional remediation-action bindings (the gateway binds `drain`).
//!
//! This crate deliberately knows nothing about JSON or the wire
//! protocol: `dahlia-server` depends on it (never the reverse) and
//! owns the encoding of these types into stats objects and trace
//! responses.

#![warn(missing_docs)]

mod alert;
mod hist;
pub mod prom;
mod registry;
mod ring;
mod slowlog;
mod trace;
mod tsdb;
mod window;

pub use alert::{AlertEngine, AlertEvent, AlertState, Cmp, Rule, RuleState};
pub use hist::{bucket_upper_bound, HistSnapshot, Histogram, BUCKETS};
pub use registry::{Counter, Gauge, Registry, Row, Snapshot, Table, Value};
pub use ring::{Ring, RingSnapshot};
pub use slowlog::SlowLog;
pub use trace::{next_trace_id, Journal, Span, Tier, TraceEntry};
pub use tsdb::{
    downsample, Bin, Sampler, Tsdb, TsdbOptions, TsdbStats, DEFAULT_RETAIN_BYTES,
    DEFAULT_SEGMENT_BYTES, TSDB_VERSION,
};
pub use window::{
    Clock, MonotonicClock, TestClock, WallClock, Window, WindowSnapshot, DEFAULT_WINDOW_BUCKETS,
    DEFAULT_WINDOW_BUCKET_MS,
};
