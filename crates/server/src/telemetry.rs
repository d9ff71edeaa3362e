//! The host scaffold every [`crate::Server`] and gateway shares: one
//! [`TelemetryConfig`] (trace-journal size, slow threshold, telemetry
//! directory, sampling interval, alert rules) and the [`Telemetry`] it
//! builds — the trace journal, the slow-request log, the optional
//! on-disk sample ring, and the alert engine, plus the control ops
//! answered straight from them.

use std::path::PathBuf;
use std::sync::Arc;

use dahlia_obs::{
    AlertEngine, Clock, Journal, Registry, Rule, Sampler, SlowLog, Snapshot, Span, TraceEntry,
    Tsdb, Value, WallClock,
};

use crate::json::{obj, Json};
use crate::{obs_json, ControlOp, Request};

/// Default trace-journal retention (ring buffer; pushing beyond this
/// evicts the oldest entry). Shared by the server and the gateway so
/// `{"op":"trace"}` answers are comparably sized across the cluster;
/// override with `--trace-journal` ([`TelemetryConfig::trace_journal`]).
pub const TRACE_JOURNAL_CAP: usize = 256;

/// Slow-request log retention: captures beyond this evict the oldest
/// (counted in `dropped`; sequence numbers keep advancing).
pub const SLOWLOG_CAP: usize = 256;

/// Default slow-request capture threshold, milliseconds: a request
/// whose wall latency exceeds this lands in the slow log with its full
/// span breakdown, traced by the client or not. Override with
/// `--slow-threshold-ms` ([`TelemetryConfig::slow_threshold_ms`]).
pub const DEFAULT_SLOW_THRESHOLD_MS: u64 = 1_000;

/// Default telemetry sampling interval, milliseconds: how often the
/// sampler thread snapshots the stats object into the on-disk ring and
/// evaluates the alert rules. Override with `--telemetry-interval-ms`
/// ([`TelemetryConfig::interval_ms`]).
pub const DEFAULT_TELEMETRY_INTERVAL_MS: u64 = 1_000;

/// Alert-journal retention: firing/resolved transitions beyond this
/// evict the oldest (counted in `dropped`; sequence numbers keep
/// advancing), mirroring the slow log's cursor contract.
pub const ALERT_JOURNAL_CAP: usize = 256;

/// The telemetry settings of one host, server or gateway alike.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    trace_journal: usize,
    slow_threshold_ms: u64,
    dir: Option<PathBuf>,
    interval_ms: u64,
    alert_rules: Vec<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_journal: TRACE_JOURNAL_CAP,
            slow_threshold_ms: DEFAULT_SLOW_THRESHOLD_MS,
            dir: None,
            interval_ms: DEFAULT_TELEMETRY_INTERVAL_MS,
            alert_rules: Vec::new(),
        }
    }
}

impl TelemetryConfig {
    /// Defaults: a [`TRACE_JOURNAL_CAP`]-entry journal, a
    /// [`DEFAULT_SLOW_THRESHOLD_MS`] slow threshold, no on-disk ring,
    /// and no alert rules.
    pub fn new() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    /// Retain `cap` client-traced requests in the trace journal (the
    /// `{"op":"trace"}` ring; a gateway's holds its hops plus the
    /// shards' spans). Clamped to at least 1; the CLI rejects
    /// `--trace-journal 0` with a usage error.
    pub fn trace_journal(mut self, cap: usize) -> TelemetryConfig {
        self.trace_journal = cap.max(1);
        self
    }

    /// Capture requests slower than `ms` milliseconds of host-observed
    /// wall time into the slow log with their span breakdown, traced or
    /// not. Zero captures every request that takes any measurable time
    /// at all, which is what benches and tests want.
    pub fn slow_threshold_ms(mut self, ms: u64) -> TelemetryConfig {
        self.slow_threshold_ms = ms;
        self
    }

    /// Keep durable telemetry under `dir` (created on demand): the
    /// crash-safe sample ring `{"op":"history"}` answers from, reopened
    /// across restarts. A gateway also keeps its warm-key ledger and
    /// sweep journals there.
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> TelemetryConfig {
        self.dir = Some(dir.into());
        self
    }

    /// Sample (and evaluate alert rules) every `ms` milliseconds.
    /// Clamped to at least 1ms.
    pub fn interval_ms(mut self, ms: u64) -> TelemetryConfig {
        self.interval_ms = ms.max(1);
        self
    }

    /// Add a declarative alert rule (`window.error_rate > 0.05 for
    /// 30s`; a gateway also binds `-> drain`). Repeatable; bad grammar
    /// fails [`TelemetryConfig::open`] with `InvalidInput`.
    pub fn alert_rule(mut self, rule: impl Into<String>) -> TelemetryConfig {
        self.alert_rules.push(rule.into());
        self
    }

    /// Open the host's telemetry: parse the alert rules (reporting the
    /// first bad one), open the on-disk ring, and start the wall clock
    /// that stamps both. A sampler runs only with a ring or a rule to
    /// feed. Fails if the directory cannot be opened or a rule does not
    /// parse.
    pub fn open(&self) -> std::io::Result<Telemetry> {
        let rules = self
            .alert_rules
            .iter()
            .map(|t| Rule::parse(t))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let tsdb = match &self.dir {
            Some(dir) => Some(Arc::new(Tsdb::open(dir)?)),
            None => None,
        };
        let sample_every_ms = (tsdb.is_some() || !rules.is_empty()).then_some(self.interval_ms);
        // Alert timestamps and on-disk sample timestamps share a wall
        // clock so history `since` cursors stay meaningful across
        // restarts (a per-process monotonic origin would restart at 0).
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        Ok(Telemetry {
            journal: Journal::new(self.trace_journal),
            slowlog: SlowLog::new(SLOWLOG_CAP),
            tsdb,
            engine: Arc::new(AlertEngine::new(
                rules,
                Arc::clone(&clock),
                ALERT_JOURNAL_CAP,
            )),
            dir: self.dir.clone(),
            clock,
            slow_threshold_us: self.slow_threshold_ms.saturating_mul(1_000),
            sample_every_ms,
        })
    }
}

/// The observability state every host keeps — the trace journal, the
/// slow-request log, the optional on-disk sample ring, and the alert
/// engine — and the control ops answered straight from it. The server
/// and the gateway both carry one, so `trace`, `slowlog`, `history`,
/// `alerts`, and `/healthz` answer identically from either.
pub struct Telemetry {
    /// Client-traced requests with their span breakdowns.
    pub journal: Journal,
    /// Requests slower than the host's threshold, traced or not.
    pub slowlog: SlowLog,
    /// The on-disk sample ring (`--telemetry-dir`), if any.
    pub tsdb: Option<Arc<Tsdb>>,
    /// Alert rules and their event journal (with zero rules, just the
    /// journal).
    pub engine: Arc<AlertEngine>,
    /// The durable telemetry directory, if any.
    pub dir: Option<PathBuf>,
    /// Wall clock shared by the sample ring and the alert journal.
    pub clock: Arc<dyn Clock>,
    slow_threshold_us: u64,
    /// The sampling interval, when there is a ring or a rule to feed.
    sample_every_ms: Option<u64>,
}

impl Telemetry {
    /// Record one finished request: into the slow log when `wall_us`
    /// crosses the threshold, and into the trace journal when the
    /// client traced it. `spans` is the request's full breakdown; on
    /// the fast path (neither) it is simply dropped.
    pub fn record(&self, req: &Request, ok: bool, wall_us: u64, mut spans: Vec<Span>) {
        let slow = wall_us > self.slow_threshold_us;
        if !slow && req.trace.is_none() {
            return;
        }
        let entry = |spans| TraceEntry {
            trace: req.trace.clone().unwrap_or_default(),
            id: req.id.clone(),
            stage: req.stage.name().to_string(),
            ok,
            wall_us,
            spans,
        };
        if slow {
            let captured = match req.trace {
                Some(_) => spans.clone(),
                None => std::mem::take(&mut spans),
            };
            self.slowlog.push(entry(captured));
        }
        if req.trace.is_some() {
            self.journal.push(entry(spans));
        }
    }

    /// Answer an op that only reads these rings: `trace`, `slowlog`,
    /// `history`, or `alerts`. `sample` looks a history series up in
    /// the host's metrics, for its kind (a series the host does not
    /// know reads as a scalar). Any other op answers `null`.
    pub fn read(&self, op: &ControlOp, sample: impl FnOnce(&str) -> Option<Value>) -> Json {
        match op {
            ControlOp::Trace => obs_json::journal_to_json(&self.journal),
            ControlOp::Slowlog { since } => obs_json::slowlog_to_json(&self.slowlog.since(*since)),
            ControlOp::History {
                series,
                since,
                step,
            } => {
                let kind = sample(series).unwrap_or(Value::Gauge(0.0));
                let samples = match &self.tsdb {
                    Some(tsdb) => obs_json::decode_samples(tsdb.scan_since(*since)),
                    None => Vec::new(),
                };
                obs_json::history_to_json(series, &kind, *since, *step, &samples)
            }
            ControlOp::Alerts { since } => obs_json::alertlog_to_json(
                &self.engine.snapshot_since(*since),
                &self.engine.states(),
            ),
            _ => Json::Null,
        }
    }

    /// The liveness object `/healthz` serves: `ok`, the host's `extra`
    /// fields, then the rings' drop counters and the firing-rule count.
    pub fn health(&self, extra: Vec<(&'static str, Json)>) -> Json {
        let mut fields = vec![("ok", Json::Bool(true))];
        fields.extend(extra);
        fields.extend([
            ("trace_dropped", Json::Num(self.journal.dropped() as f64)),
            ("slowlog_dropped", Json::Num(self.slowlog.dropped() as f64)),
            ("alerts_firing", Json::Num(self.engine.firing() as f64)),
        ]);
        obj(fields)
    }

    /// Register the `<prefix>.trace_dropped` / `.slowlog_dropped`
    /// counters: lifetime evictions of the bounded rings, surfaced so
    /// silent overflow is alertable.
    pub fn register_journals(self: &Arc<Self>, reg: &mut Registry, prefix: &'static str) {
        let t = Arc::clone(self);
        reg.collect(move |s| {
            s.counter(format!("{prefix}.trace_dropped"), t.journal.dropped());
            s.counter(format!("{prefix}.slowlog_dropped"), t.slowlog.dropped());
        });
    }

    /// Register the `telemetry` section (with an on-disk ring) and the
    /// `alerts` and `alert_state` sections (with rules).
    pub fn register_sections(self: &Arc<Self>, reg: &mut Registry) {
        if let Some(tsdb) = &self.tsdb {
            let tsdb = Arc::clone(tsdb);
            reg.collect(move |s| {
                let st = tsdb.stats();
                for (name, n) in [
                    ("telemetry.segments", st.segments),
                    ("telemetry.bytes", st.bytes),
                    ("telemetry.recovered_records", st.recovered_records),
                    ("telemetry.torn_records", st.torn_records),
                    ("telemetry.appended", st.appended),
                    ("telemetry.write_errors", st.write_errors),
                    ("telemetry.dropped_segments", st.dropped_segments),
                ] {
                    s.counter(name, n);
                }
            });
        }
        if self.engine.rule_count() > 0 {
            let engine = Arc::clone(&self.engine);
            reg.collect(move |s| {
                s.counter("alerts.rules", engine.rule_count() as u64);
                s.counter("alerts.firing", engine.firing() as u64);
                s.push(
                    "alert_state",
                    Value::Table(obs_json::alert_states_table(&engine.states())),
                );
            });
        }
    }

    /// Start the sampler thread running `tick` every interval — when
    /// there is a ring or a rule to feed; otherwise `None`. Dropping
    /// the sampler stops and joins it.
    pub fn spawn_sampler(&self, tick: impl FnMut() + Send + 'static) -> Option<Sampler> {
        self.sample_every_ms.map(|ms| Sampler::spawn(ms, tick))
    }

    /// One sampler tick: append `snap` to the on-disk ring (encoded as
    /// the stats object, stamped by the wall clock) and evaluate the
    /// alert rules against it. Returns the rules that started firing.
    pub fn tick(&self, snap: &Snapshot) -> Vec<Rule> {
        if let Some(tsdb) = &self.tsdb {
            tsdb.append(
                self.clock.now_ms(),
                obs_json::snapshot_to_json(snap).emit().as_bytes(),
            );
        }
        self.engine.eval(&|series| snap.value(series))
    }
}
