//! # dahlia-server
//!
//! A concurrent, content-addressed, **persistent** compilation service
//! for the full Dahlia pipeline. The paper's pitch is *predictable*
//! accelerator design: parse → affine typecheck → desugar → lower →
//! emit C++ → estimate is a deterministic function of the source text,
//! which makes the whole pipeline memoizable, durable, and the service
//! trivially scalable — exactly what a DSE sweep (thousands of
//! near-identical programs) or a high-traffic playground deployment
//! needs.
//!
//! ## The three-tier store
//!
//! Every stage artifact is cached under `(source digest, stage, options
//! digest)` and looked up through three tiers (see [`store`]):
//!
//! 1. **memory** — a size-aware LRU ([`evict`]), bounded by entry count
//!    and approximate bytes; a hit is a pointer clone;
//! 2. **disk** — an optional crash-safe artifact store ([`disk`]):
//!    read-through on a memory miss, write-behind after a compute, so a
//!    fresh process inherits every prior process's `check`, `cpp` and
//!    `est` results (`dahliac batch --cache-dir` against a warm
//!    directory runs zero pipeline stages); `parse`, `desugar` and
//!    `lower` stay in memory and are recomputed from source;
//! 3. **compute** — the stage itself, under **single-flight** dedup:
//!    concurrent identical requests run the compiler once and share the
//!    result.
//!
//! The cache directory layout is
//! `<dir>/v<N>/<stage>/<ss>/<source digest>-<options digest>` — one
//! file per entry, atomic write-rename, versioned headers with
//! checksums; corrupt or stale entries read as misses and are
//! recomputed (see [`disk`] for the format).
//!
//! ## Transports
//!
//! * **library** — [`Server::submit`] / [`Server::submit_batch`];
//! * **stdio** — [`Server::serve`] (strict request/response order, the
//!   original protocol) and [`Server::serve_pipelined`];
//! * **socket** — `dahliac serve --listen <addr>` ([`net`]): a TCP
//!   listener where every connection runs a pipelined session against
//!   the shared store, with graceful shutdown via `{"op":"shutdown"}`.
//!
//! Pipelined sessions answer **out of order**: requests dispatch to the
//! worker pool as they are read and responses are written as they
//! complete, correlated by `id` — a slow compile no longer convoys the
//! fast requests behind it.
//!
//! ## Quickstart
//!
//! ```
//! use dahlia_server::{Request, Server, Stage};
//!
//! let server = Server::with_threads(4);
//! let src = "let A: float[16 bank 4];
//!            for (let i = 0..16) unroll 4 { A[i] := 1.0; }";
//!
//! // A batch of identical requests: the pipeline runs once, everyone
//! // shares the artifacts.
//! let reqs: Vec<Request> = (0..64)
//!     .map(|i| Request::new(format!("r{i}"), Stage::Estimate, src, "scale"))
//!     .collect();
//! let responses = server.submit_batch(reqs);
//! assert!(responses.iter().all(|r| r.ok()));
//! assert!(responses.iter().all(|r| r.estimate().unwrap().correct));
//!
//! let stats = server.stats();
//! assert_eq!(stats.requests, 64);
//! // Four stages computed (parse, check, lower, est)…
//! assert_eq!(stats.store.total_executions(), 4);
//! // …and the other 63 requests were served from cache or joined the
//! // in-flight computation.
//! assert_eq!(responses.iter().filter(|r| r.cached).count(), 63);
//! ```
//!
//! A bounded, persistent server is one builder away:
//!
//! ```no_run
//! use dahlia_server::ServerConfig;
//!
//! let server = ServerConfig::new()
//!     .threads(8)
//!     .cache_dir("/var/cache/dahlia")
//!     .max_entries(100_000)
//!     .max_bytes(256 << 20)
//!     .build()
//!     .expect("cache dir usable");
//! # let _ = server;
//! ```
//!
//! Errors are diagnostics, not strings, and are cached like successes:
//!
//! ```
//! use dahlia_server::{Request, Server, Stage};
//!
//! let server = Server::with_threads(1);
//! let bad = Request::new("x", Stage::Cpp, "let A: float[10]; let x = A[0]; A[1] := 1.0;", "k");
//! let resp = server.submit(bad);
//! assert!(!resp.ok());
//! let line = resp.to_line();
//! assert!(line.contains(r#""code":"type/already-consumed""#), "{line}");
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod disk;
pub mod evict;
pub mod json;
pub mod metrics;
pub mod net;
pub mod obs_json;
pub mod pipeline;
pub mod pool;
pub mod protocol;
pub mod session;
pub mod store;
pub mod telemetry;
pub mod wire;

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dahlia_obs::{Counter, Histogram, Registry, Sampler, Snapshot, Span, Value, Window};

pub use client::{Client, PipelinedClient};
/// The verdict type of [`front_end`] and [`verdict`].
pub use dahlia_core::Diagnostic;
pub use disk::{DiskStats, DiskStore};
pub use evict::EvictConfig;
pub use net::{
    serve_listener, serve_sessions, serve_sessions_with, NetConfig, NetSummary, TransportStats,
};
pub use pipeline::{front_end, source_digest, verdict, Artifact, Options, Pipeline, Stage};
pub use pool::Pool;
pub use protocol::{Request, Response};
pub use session::{
    admission_error, query, AdminOp, ControlOp, Dispatch, Reply, Respond, Session, SessionConfig,
    SessionHost, Sink, SweepOp,
};
pub use store::{CacheValue, Key, Store, StoreConfig, StoreStats};
pub use telemetry::{
    Telemetry, TelemetryConfig, ALERT_JOURNAL_CAP, DEFAULT_SLOW_THRESHOLD_MS,
    DEFAULT_TELEMETRY_INTERVAL_MS, SLOWLOG_CAP, TRACE_JOURNAL_CAP,
};

struct Inner {
    pipeline: Pipeline,
    requests: Counter,
    latency_us: Counter,
    latency_hist: Arc<Histogram>,
    queue_hist: Arc<Histogram>,
    telemetry: Arc<Telemetry>,
    /// Live sliding window over finished requests (throughput, error
    /// rate, windowed latency percentiles).
    window: Arc<Window>,
    /// Requests currently executing a pipeline lookup.
    in_flight: Counter,
    /// Requests dispatched to the pool but not yet picked up.
    queue_depth: Counter,
}

impl Inner {
    fn new(pipeline: Pipeline, telemetry: Telemetry) -> Inner {
        Inner {
            pipeline,
            requests: Counter::new(),
            latency_us: Counter::new(),
            latency_hist: Arc::new(Histogram::new()),
            queue_hist: Arc::new(Histogram::new()),
            telemetry: Arc::new(telemetry),
            window: Arc::new(Window::with_default_clock()),
            in_flight: Counter::new(),
            queue_depth: Counter::new(),
        }
    }

    /// The server's metrics, in stats order: request and store
    /// counters, the `hist`, `window`, and `journals` sections, the
    /// telemetry sections, and `transport` once a reactor serves it.
    fn register(self: &Arc<Self>, transport: &Arc<TransportStats>) -> Registry {
        let mut reg = Registry::new();
        reg.counter("requests", &self.requests);
        reg.counter("latency_us", &self.latency_us);
        let inner = Arc::clone(self);
        reg.collect(move |s| store_samples(s, &inner.pipeline.stats()));
        reg.histogram("hist.latency_us", &self.latency_hist);
        reg.histogram("hist.queue_us", &self.queue_hist);
        let inner = Arc::clone(self);
        reg.collect(move |s| {
            let hists = inner.pipeline.compute_hists();
            for st in Stage::ALL {
                s.push(
                    format!("hist.compute_us.{}", st.name()),
                    Value::Histogram(hists[st.index()].clone()),
                );
            }
        });
        reg.window("window", &self.window, &self.in_flight, &self.queue_depth);
        self.telemetry.register_journals(&mut reg, "journals");
        self.telemetry.register_sections(&mut reg);
        transport.register(&mut reg);
        reg
    }

    fn handle(&self, req: &Request) -> Response {
        self.handle_queued(req, None)
    }

    /// Serve one request. `queue_us` is how long the request waited in
    /// the worker pool before this thread picked it up (known only on
    /// the dispatched paths; direct `submit` calls never queue).
    fn handle_queued(&self, req: &Request, queue_us: Option<u64>) -> Response {
        let t0 = Instant::now();
        if queue_us.is_some() {
            // The request left the pool queue for this worker thread.
            self.queue_depth.sub(1);
        }
        // Spans are recorded for *every* request — the traced path
        // echoes them to the client, and the slow log captures them
        // retroactively when the request crosses the threshold; on the
        // fast path they are simply dropped. The bench suite pins this
        // always-on collection at noise level against the old untraced
        // path (one mutex-guarded Vec push per stage lookup).
        self.requests.inc();
        self.in_flight.inc();
        let (value, cached, spans) =
            self.pipeline
                .artifact_traced(&req.source, req.stage, &req.options);
        self.respond(req, t0, queue_us, value, cached, spans)
    }

    /// Serve `req` from the memory tier, or `None` on a miss. Takes only
    /// the LRU lock, so the reactor thread may call it. The answer is a
    /// dispatched request that never queued: `queue_us` 0 and a 0 µs
    /// `queue` span, the same bytes and stats a worker would produce.
    fn handle_memory_hit(&self, req: &Request) -> Option<Response> {
        let t0 = Instant::now();
        let (value, span) =
            self.pipeline
                .probe_traced(source_digest(&req.source), req.stage, &req.options)?;
        self.requests.inc();
        self.in_flight.inc();
        Some(self.respond(req, t0, Some(0), value, true, vec![span]))
    }

    /// The response builder both paths share: request and latency
    /// accounting, the window, telemetry, and the optional trace.
    fn respond(
        &self,
        req: &Request,
        t0: Instant,
        queue_us: Option<u64>,
        value: CacheValue,
        cached: bool,
        mut spans: Vec<Span>,
    ) -> Response {
        if let Some(q) = queue_us {
            self.queue_hist.record(q);
            spans.insert(0, Span::new("queue", q));
        }
        // Floor division on every span and on the wall clock keeps the
        // invariant "stage spans sum ≤ wall latency" exact.
        let latency_us = (t0.elapsed().as_nanos() / 1_000) as u64;
        self.latency_us.add(latency_us);
        self.latency_hist.record(latency_us);
        let ok = value.is_ok();
        self.window.record(latency_us, ok);
        self.in_flight.sub(1);
        let trace = req
            .trace
            .as_ref()
            .map(|trace_id| obs_json::trace_field(trace_id, &spans));
        self.telemetry.record(req, ok, latency_us, spans);
        Response {
            id: req.id.clone(),
            stage: req.stage,
            cached,
            latency_us,
            value,
            trace,
        }
    }
}

/// The store's counters as stats samples: hits, misses, and joins, the
/// per-stage counts, intern-table occupancy, and the memory and disk
/// tiers.
fn store_samples(s: &mut Snapshot, st: &StoreStats) {
    s.counter("hits", st.hits);
    s.counter("misses", st.misses);
    s.counter("joins", st.joins);
    for (section, xs) in [
        ("joins_by_stage", &st.joins_by_stage),
        ("executions", &st.executions),
        ("propagated", &st.propagated),
        ("compute_nanos", &st.compute_nanos),
    ] {
        for stage in Stage::ALL {
            s.counter(format!("{section}.{}", stage.name()), xs[stage.index()]);
        }
    }
    // Global intern-table occupancy: interned identifiers are never
    // reclaimed, so this is the one counter the memory bounds
    // (--max-entries/--max-bytes, disk GC) cannot touch — surfaced so
    // operators can watch it grow. Gateway stats sum shard values: the
    // total across the cluster.
    let i = dahlia_core::intern::stats();
    s.counter("intern.symbols", i.symbols as u64);
    s.counter("intern.bytes", i.bytes as u64);
    let (e, d) = (&st.evict, &st.disk);
    for (name, n) in [
        ("evict.evictions", e.evictions),
        ("evict.evicted_bytes", e.evicted_bytes),
        ("evict.resident_entries", e.resident_entries),
        ("evict.resident_bytes", e.resident_bytes),
        ("disk.hits", d.hits),
        ("disk.misses", d.misses),
        ("disk.corrupt", d.corrupt),
        ("disk.writes", d.writes),
        ("disk.write_errors", d.write_errors),
        ("disk.pruned_files", d.pruned_files),
        ("disk.pruned_bytes", d.pruned_bytes),
    ] {
        s.counter(name, n);
    }
}

/// Default telemetry: no directory and no rules, so nothing to open.
fn default_telemetry() -> Telemetry {
    TelemetryConfig::default()
        .open()
        .expect("default telemetry opens no files")
}

/// A fresh plain server's snapshot (no telemetry sections, no
/// transport): the names and kinds a gateway decodes its shards' stats
/// replies against before merging them.
pub fn stats_schema() -> &'static Snapshot {
    static SCHEMA: OnceLock<Snapshot> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        let inner = Arc::new(Inner::new(Pipeline::new(), default_telemetry()));
        inner.register(&Arc::new(TransportStats::new())).snapshot()
    })
}

/// Service-level statistics: request accounting plus store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests served (batch items count individually).
    pub requests: u64,
    /// Total request service time, in microseconds.
    pub latency_us: u64,
    /// Cache/single-flight/eviction/disk counters.
    pub store: StoreStats,
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests, {} hits / {} misses / {} joins, {} disk hits, \
             {} evictions, {} stage executions, {:.3} ms total",
            self.requests,
            self.store.hits,
            self.store.misses,
            self.store.joins,
            self.store.disk.hits,
            self.store.evict.evictions,
            self.store.total_executions(),
            self.latency_us as f64 / 1e3,
        )
    }
}

/// Summary of one serve session (stdio or one TCP connection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Protocol lines handled (excluding blank lines).
    pub lines: u64,
    /// Lines that were not valid requests.
    pub protocol_errors: u64,
}

/// Configuration for a [`Server`]: worker pool size, memory-tier
/// bounds, the persistent cache directory, and telemetry.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    threads: Option<usize>,
    compute_delay: Option<Duration>,
    evict: EvictConfig,
    cache_dir: Option<PathBuf>,
    cache_gc_max_bytes: Option<u64>,
    telemetry: TelemetryConfig,
}

impl ServerConfig {
    /// Defaults: one worker per core, unbounded memory tier, no disk.
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Exactly `n` pool workers.
    pub fn threads(mut self, n: usize) -> ServerConfig {
        self.threads = Some(n);
        self
    }

    /// Test instrumentation: every computed stage sleeps for `delay`.
    pub fn compute_delay(mut self, delay: Duration) -> ServerConfig {
        self.compute_delay = Some(delay);
        self
    }

    /// Bound the memory tier by entry count.
    pub fn max_entries(mut self, n: usize) -> ServerConfig {
        self.evict.max_entries = n;
        self
    }

    /// Bound the memory tier by approximate payload bytes.
    pub fn max_bytes(mut self, n: usize) -> ServerConfig {
        self.evict.max_bytes = n;
        self
    }

    /// Attach a persistent artifact store rooted at `dir` (created on
    /// demand).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> ServerConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Bound the persistent tier: when the artifact files under the
    /// cache directory exceed `n` bytes, the oldest-mtime entries are
    /// pruned (at startup and after write-behind flushes). Meaningless
    /// without [`ServerConfig::cache_dir`].
    pub fn cache_gc_max_bytes(mut self, n: u64) -> ServerConfig {
        self.cache_gc_max_bytes = Some(n);
        self
    }

    /// The server's telemetry: trace journal, slow threshold, on-disk
    /// sample ring, and alert rules.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> ServerConfig {
        self.telemetry = telemetry;
        self
    }

    /// Build the server. Fails if the cache or telemetry directory
    /// cannot be created, or an alert rule does not parse.
    pub fn build(self) -> std::io::Result<Server> {
        let telemetry = self.telemetry.open()?;
        let tier = match &self.cache_dir {
            Some(dir) => Some(Arc::new(DiskStore::open_bounded(
                dir,
                self.cache_gc_max_bytes,
            )?)),
            None => None,
        };
        let pipeline = Pipeline::with_store_config(
            StoreConfig {
                evict: self.evict,
                tier,
            },
            self.compute_delay,
        );
        let pool = match self.threads {
            Some(n) => Pool::new(n),
            None => Pool::with_default_threads(),
        };
        Ok(Server::assemble(pipeline, pool, telemetry))
    }
}

/// The long-lived compilation service.
///
/// Create once, submit from many threads. See the crate docs for a
/// quickstart.
pub struct Server {
    inner: Arc<Inner>,
    pool: Pool,
    /// Every metric the server exports, read once per stats answer.
    metrics: Arc<Registry>,
    /// The counters a socket reactor serving this server maintains.
    transport: Arc<TransportStats>,
    /// The sampler thread feeding the on-disk ring and the alert rules;
    /// dropping the server stops it (its `Drop` joins).
    _sampler: Option<Sampler>,
}

impl Default for Server {
    fn default() -> Self {
        Server::new()
    }
}

impl Server {
    /// A server with one worker per available core.
    pub fn new() -> Server {
        Server::build(Pipeline::new(), Pool::with_default_threads())
    }

    /// A server with exactly `threads` pool workers.
    pub fn with_threads(threads: usize) -> Server {
        Server::build(Pipeline::new(), Pool::new(threads))
    }

    /// Test instrumentation: every computed stage sleeps for `delay`,
    /// widening the single-flight window deterministically.
    pub fn with_compute_delay(threads: usize, delay: Duration) -> Server {
        Server::build(Pipeline::with_compute_delay(delay), Pool::new(threads))
    }

    fn build(pipeline: Pipeline, pool: Pool) -> Server {
        Server::assemble(pipeline, pool, default_telemetry())
    }

    fn assemble(pipeline: Pipeline, pool: Pool, telemetry: Telemetry) -> Server {
        let inner = Arc::new(Inner::new(pipeline, telemetry));
        let transport = Arc::new(TransportStats::new());
        let metrics = Arc::new(inner.register(&transport));
        let telemetry = Arc::clone(&inner.telemetry);
        let snapshots = Arc::clone(&metrics);
        // A plain server has no remediation actions to bind; the
        // transitions still land in the alert journal.
        let sampler = inner.telemetry.spawn_sampler(move || {
            telemetry.tick(&snapshots.snapshot());
        });
        Server {
            inner,
            pool,
            metrics,
            transport,
            _sampler: sampler,
        }
    }

    /// Number of pool workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Serve one request on the calling thread.
    pub fn submit(&self, req: Request) -> Response {
        self.inner.handle(&req)
    }

    /// Serve a batch concurrently on the pool; responses come back in
    /// request order. Identical in-flight requests are deduplicated by
    /// the single-flight store, so a batch of 64 copies of one program
    /// costs one compilation.
    pub fn submit_batch(&self, reqs: Vec<Request>) -> Vec<Response> {
        let inner = Arc::clone(&self.inner);
        let enqueued = Instant::now();
        self.inner.queue_depth.add(reqs.len() as u64);
        self.pool.map(reqs, move |req| {
            let queue_us = (enqueued.elapsed().as_nanos() / 1_000) as u64;
            inner.handle_queued(&req, Some(queue_us))
        })
    }

    /// Service statistics so far.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.inner.requests.get(),
            latency_us: self.inner.latency_us.get(),
            store: self.inner.pipeline.stats(),
        }
    }

    /// Every metric, as the typed snapshot the stats object, `/metrics`,
    /// history, and alert rules all read.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Number of artifacts currently cached in memory.
    pub fn cached_artifacts(&self) -> usize {
        self.inner.pipeline.cached_artifacts()
    }

    /// Drop every memory-cached artifact (counters and the persistent
    /// tier survive). Used by benchmarks to compare cold, warm-disk,
    /// and warm-memory service.
    pub fn clear_cache(&self) {
        self.inner.pipeline.clear_cache()
    }

    /// Block until the persistent tier (if any) has durably written
    /// every queued artifact. Dropping the server flushes too; this is
    /// for handing a warm cache directory to another process while this
    /// one keeps running.
    pub fn flush(&self) {
        self.inner.pipeline.flush()
    }

    /// Run the JSON-lines protocol over a reader/writer pair until EOF:
    /// one request per line, one response line each, in order. The
    /// control line `{"op":"stats"}` emits a `{"stats":{...}}` line;
    /// `{"op":"shutdown"}` is acknowledged and ends the session.
    ///
    /// This mode is strictly request/response: a session with a window
    /// of one, so each line is answered before the next is parsed and a
    /// lone `serve` client sees no pool parallelism — use
    /// [`Server::serve_pipelined`] (or the socket transport) for
    /// out-of-order completion.
    pub fn serve<R: BufRead, W: Write>(
        &self,
        input: R,
        output: W,
    ) -> std::io::Result<ServeSummary> {
        session::serve_strict(self, input, output)
    }

    /// Run the JSON-lines protocol with **pipelined, out-of-order
    /// responses**: requests are dispatched to the worker pool as they
    /// are read, and each response line is written as soon as its
    /// compile finishes — a fast request overtakes a slow one submitted
    /// before it. Clients correlate by the echoed `id`.
    ///
    /// The session's window is the pool's size: past it, reading pauses
    /// until a response frees a slot. Control lines may interleave with
    /// in-flight responses. Returns at EOF or after a `shutdown` op,
    /// once every dispatched request has been answered.
    pub fn serve_pipelined<R, W>(&self, input: R, output: W) -> std::io::Result<ServeSummary>
    where
        R: BufRead,
        W: Write + Send,
    {
        session::serve_windowed(self, input, output, self.threads())
    }
}

impl SessionHost for Server {
    /// A memory-tier hit is answered on the calling thread — on a
    /// socket, the reactor — through the same response builder the
    /// workers use; only misses queue for the pool.
    fn dispatch(&self, req: Request, respond: Respond) {
        if let Some(resp) = self.inner.handle_memory_hit(&req) {
            respond(resp.to_json());
            return;
        }
        let inner = Arc::clone(&self.inner);
        let enqueued = Instant::now();
        self.inner.queue_depth.inc();
        self.pool.execute(move || {
            let queue_us = (enqueued.elapsed().as_nanos() / 1_000) as u64;
            respond(inner.handle_queued(&req, Some(queue_us)).to_json());
        });
    }

    /// Every op reads local state, so it is answered on the calling
    /// thread; admin ops and sweeps need a gateway and are refused.
    fn control(&self, op: ControlOp, reply: Reply) {
        let v = match op {
            ControlOp::Stats => obs_json::snapshot_to_json(&self.snapshot()),
            ControlOp::Health => self.inner.telemetry.health(Vec::new()),
            ControlOp::Admin(op) => session::admin_unsupported(&op),
            ControlOp::Sweep(op) => session::sweep_unsupported(&op),
            read => self
                .inner
                .telemetry
                .read(&read, |series| self.snapshot().get(series).cloned()),
        };
        reply(v, true);
    }

    fn transport(&self) -> Arc<TransportStats> {
        Arc::clone(&self.transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const GOOD: &str = "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";

    #[test]
    fn batch_of_distinct_programs_all_succeed() {
        let server = Server::with_threads(4);
        let reqs: Vec<Request> = [1u64, 2, 4, 8]
            .into_iter()
            .map(|b| {
                Request::new(
                    format!("b{b}"),
                    Stage::Estimate,
                    format!(
                        "let A: float[16 bank {b}];\nfor (let i = 0..16) unroll {b} {{ A[i] := 1.0; }}"
                    ),
                    "k",
                )
            })
            .collect();
        let resps = server.submit_batch(reqs);
        assert_eq!(resps.len(), 4);
        assert!(
            resps.iter().all(|r| r.ok()),
            "{:?}",
            resps.iter().map(|r| &r.value).collect::<Vec<_>>()
        );
        assert_eq!(
            resps.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["b1", "b2", "b4", "b8"]
        );
        // 4 programs × 4 stages (parse, check, lower, est).
        assert_eq!(server.stats().store.total_executions(), 16);
    }

    /// One well-typed program per way of nesting, each nested as deep
    /// as the parser allows, with the stages it must pass.
    fn programs_at_the_nesting_limit() -> Vec<(String, &'static [Stage])> {
        let n = dahlia_core::parser::MAX_NESTING;
        let nest = |open: &dyn Fn(usize) -> String, core: &str| {
            let opens: String = (0..n).map(open).collect();
            format!("{opens}{core}{}", " }".repeat(n))
        };
        let all = &Stage::ALL[..];
        vec![
            (
                format!("let x = {}1.0{};", "(".repeat(n), ")".repeat(n)),
                all,
            ),
            (format!("let x = {}true;", "!".repeat(n)), all),
            (format!("let x = 1.0{};", " + 1.0".repeat(n)), all),
            // Each block holds a step boundary, so the tree nests a
            // `---` group and a `;` group under every block.
            (
                nest(
                    &|i| format!("{{ let a{i} = 1.0; let b{i} = 2.0 --- "),
                    "let x = 1.0;",
                ),
                all,
            ),
            (nest(&|_| "if (true) { ".to_string(), "let x = 1.0;"), all),
            (
                format!("if (true) {{ }}{}", " else if (true) { }".repeat(n - 1)),
                all,
            ),
            (
                nest(&|i| format!("for (let i{i} = 0..1) {{ "), "let x = 1.0;"),
                all,
            ),
            (
                nest(&|_| "while (false) { ".to_string(), "let x = 1.0;"),
                all,
            ),
        ]
    }

    #[test]
    fn every_stage_runs_on_a_pool_worker_at_the_nesting_limit() {
        let server = Server::with_threads(1);
        for (i, (source, stages)) in programs_at_the_nesting_limit().into_iter().enumerate() {
            let reqs = stages
                .iter()
                .map(|&stage| Request::new(format!("{i}-{}", stage.name()), stage, &*source, "k"))
                .collect();
            for resp in server.submit_batch(reqs) {
                assert!(resp.ok(), "{}: {:?}", resp.id, resp.value);
            }
        }
    }

    #[test]
    fn a_restart_at_the_nesting_limit_reads_no_entry_as_corrupt() {
        // Every entry the disk tier writes must read back: a program the
        // parser accepts never persists anything nested past what the
        // wire decoder takes.
        let dir = std::env::temp_dir().join(format!("dahlia-srv-nesting-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_cache = || {
            ServerConfig::new()
                .threads(1)
                .cache_dir(&dir)
                .build()
                .unwrap()
        };
        let requests = |round: &str| -> Vec<Request> {
            programs_at_the_nesting_limit()
                .into_iter()
                .enumerate()
                .flat_map(|(i, (source, stages))| {
                    stages.iter().map(move |&stage| {
                        let id = format!("{round}{i}-{}", stage.name());
                        Request::new(id, stage, &*source, "k")
                    })
                })
                .collect()
        };
        let first = with_cache();
        assert!(first.submit_batch(requests("c")).iter().all(|r| r.ok()));
        first.flush();
        drop(first);

        let second = with_cache();
        for resp in second.submit_batch(requests("w")) {
            assert!(resp.ok(), "{}: {:?}", resp.id, resp.value);
        }
        let disk = second.stats().store.disk;
        assert_eq!(disk.corrupt, 0, "{disk:?}");
        drop(second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_cache_forces_recompute() {
        let server = Server::with_threads(1);
        server.submit(Request::estimate("a", GOOD));
        assert!(server.cached_artifacts() > 0);
        server.clear_cache();
        assert_eq!(server.cached_artifacts(), 0);
        server.submit(Request::estimate("b", GOOD));
        assert_eq!(server.stats().store.executions[Stage::Parse.index()], 2);
    }

    #[test]
    fn bounded_server_reports_evictions() {
        let server = ServerConfig::new()
            .threads(1)
            .max_entries(2)
            .build()
            .unwrap();
        // One est request creates 4 artifacts; with a 2-entry cap the
        // earlier ones must have been evicted along the way.
        let resp = server.submit(Request::estimate("a", GOOD));
        assert!(resp.ok());
        let s = server.stats();
        assert!(s.store.evict.evictions >= 2, "{:?}", s.store.evict);
        assert!(s.store.evict.resident_entries <= 2);
        assert!(server.cached_artifacts() <= 2);
    }

    #[test]
    fn traced_requests_carry_spans_and_fill_the_journal() {
        let server = Server::with_threads(2);
        let resp = server.submit(Request::estimate("a", GOOD).traced("t-x"));
        assert!(resp.ok());
        let trace = resp
            .trace
            .as_ref()
            .expect("traced response carries a trace object");
        assert_eq!(trace.get("id").and_then(Json::as_str), Some("t-x"));
        let Some(Json::Arr(spans)) = trace.get("spans") else {
            panic!("spans array: {trace:?}")
        };
        assert!(!spans.is_empty());
        let sum: u64 = spans
            .iter()
            .filter_map(|s| s.get("us").and_then(Json::as_u64))
            .sum();
        assert!(
            sum <= resp.latency_us,
            "span sum {sum} > wall {}",
            resp.latency_us
        );
        // The response line puts trace last, after the payload.
        let line = resp.to_line();
        let keys = resp
            .to_json()
            .keys()
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>();
        assert_eq!(keys.last().map(String::as_str), Some("trace"), "{line}");

        // The journal retained the entry; untraced requests add nothing.
        let untraced = server.submit(Request::estimate("b", GOOD));
        assert!(untraced.trace.is_none());
        assert!(!untraced.to_line().contains("\"trace\""));
        let journal = query(&server, ControlOp::Trace);
        let Some(Json::Arr(entries)) = journal.get("entries") else {
            panic!("{journal:?}")
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("trace").and_then(Json::as_str), Some("t-x"));

        // The stats object grew a hist section beside the flat sums.
        let stats = query(&server, ControlOp::Stats);
        assert!(stats.get("latency_us").is_some(), "flat sum survives");
        let hist = stats.get("hist").expect("hist section");
        assert_eq!(
            hist.get("latency_us")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert!(hist
            .get("compute_us")
            .and_then(|c| c.get("parse"))
            .is_some());
    }

    #[test]
    fn slow_requests_are_captured_without_a_trace() {
        // Threshold 0: anything measurable is "slow". The client never
        // asks for a trace, yet the capture carries the span breakdown.
        let server = ServerConfig::new()
            .threads(1)
            .telemetry(TelemetryConfig::new().slow_threshold_ms(0))
            .build()
            .unwrap();
        let resp = server.submit(Request::estimate("r1", GOOD));
        assert!(resp.ok());
        assert!(resp.trace.is_none(), "no trace requested, none returned");

        let log = query(&server, ControlOp::Slowlog { since: 0 });
        assert_eq!(log.get("last_seq").and_then(Json::as_u64), Some(1));
        let Some(Json::Arr(entries)) = log.get("entries") else {
            panic!("{log:?}")
        };
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(e.get("id").and_then(Json::as_str), Some("r1"));
        assert!(e.get("trace").is_none(), "untraced capture has no trace id");
        let Some(Json::Arr(spans)) = e.get("spans") else {
            panic!("{e:?}")
        };
        assert!(!spans.is_empty(), "full span breakdown captured");

        // The cursor: polling from last_seq returns nothing new.
        let tail = query(&server, ControlOp::Slowlog { since: 1 });
        let Some(Json::Arr(rest)) = tail.get("entries") else {
            panic!("{tail:?}")
        };
        assert!(rest.is_empty());

        // The trace journal stays reserved for client-requested traces.
        let journal = query(&server, ControlOp::Trace);
        let Some(Json::Arr(traced)) = journal.get("entries") else {
            panic!("{journal:?}")
        };
        assert!(traced.is_empty());
    }

    #[test]
    fn stats_carry_window_and_journal_sections() {
        let server = Server::with_threads(2);
        server.submit_batch(vec![
            Request::estimate("a", GOOD),
            Request::estimate("b", GOOD),
        ]);
        let stats = query(&server, ControlOp::Stats);
        let window = stats.get("window").expect("window section");
        assert_eq!(window.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(window.get("errors").and_then(Json::as_u64), Some(0));
        assert!(window.get("rate").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(window.get("in_flight").and_then(Json::as_u64), Some(0));
        assert_eq!(window.get("queue_depth").and_then(Json::as_u64), Some(0));
        let hist = window.get("latency_us").expect("windowed histogram");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert!(hist.get("p99").is_some());
        let journals = stats.get("journals").expect("journals section");
        assert_eq!(
            journals.get("trace_dropped").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            journals.get("slowlog_dropped").and_then(Json::as_u64),
            Some(0)
        );
        // Health carries the same drop counters for alerting.
        let health = query(&server, ControlOp::Health);
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        assert!(health.get("trace_dropped").is_some());
        assert!(health.get("slowlog_dropped").is_some());
    }

    #[test]
    fn telemetry_persists_history_and_alert_state() {
        let dir = std::env::temp_dir().join(format!("dahlia-srv-tsdb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = ServerConfig::new()
            .threads(1)
            .telemetry(
                TelemetryConfig::new()
                    .dir(&dir)
                    .interval_ms(5)
                    .alert_rule("requests >= 1 -> page"),
            )
            .build()
            .unwrap();
        server.submit(Request::estimate("a", GOOD));

        // Wait for the sampler to snapshot the post-request state.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let h = query(
                &server,
                ControlOp::History {
                    series: "requests".into(),
                    since: 0,
                    step: 0,
                },
            );
            let Some(Json::Arr(points)) = h.get("points") else {
                panic!("{h:?}")
            };
            let sampled = points
                .iter()
                .filter_map(|p| p.get("max").and_then(Json::as_f64))
                .any(|max| max >= 1.0);
            if sampled {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "sampler never recorded the request: {h:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // Zero-duration rule: the request fired it on the same tick.
        let alerts = query(&server, ControlOp::Alerts { since: 0 });
        let Some(Json::Arr(states)) = alerts.get("states") else {
            panic!("{alerts:?}")
        };
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].get("state").and_then(Json::as_u64), Some(2));
        let Some(Json::Arr(events)) = alerts.get("entries") else {
            panic!("{alerts:?}")
        };
        assert_eq!(
            events[0].get("event").and_then(Json::as_str),
            Some("firing")
        );

        // Stats grew the telemetry sections; health counts firing rules.
        let stats = query(&server, ControlOp::Stats);
        assert!(
            stats
                .get("telemetry")
                .and_then(|t| t.get("appended"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                >= 1
        );
        let Some(Json::Arr(gauges)) = stats.get("alert_state") else {
            panic!("{stats:?}")
        };
        assert_eq!(gauges.len(), 1);
        assert_eq!(
            query(&server, ControlOp::Health)
                .get("alerts_firing")
                .and_then(Json::as_u64),
            Some(1)
        );

        // A fresh process on the same directory recovers the ring and
        // serves the pre-restart points.
        drop(server);
        let reopened = ServerConfig::new()
            .threads(1)
            .telemetry(TelemetryConfig::new().dir(&dir))
            .build()
            .unwrap();
        let h = query(
            &reopened,
            ControlOp::History {
                series: "requests".into(),
                since: 0,
                step: 0,
            },
        );
        let Some(Json::Arr(points)) = h.get("points") else {
            panic!("{h:?}")
        };
        assert!(!points.is_empty(), "history empty after reopen");
        let recovered = query(&reopened, ControlOp::Stats)
            .get("telemetry")
            .and_then(|t| t.get("recovered_records"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(recovered >= 1, "no records recovered");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The socket transport's counters reach the sampler like every
    /// other metric: a rule on a `transport` series fires, and the
    /// series has history.
    #[test]
    fn transport_series_feed_alert_rules_and_history() {
        let dir = std::env::temp_dir().join(format!("dahlia-srv-transport-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Arc::new(
            ServerConfig::new()
                .threads(1)
                .telemetry(
                    TelemetryConfig::new()
                        .dir(&dir)
                        .interval_ms(5)
                        .alert_rule("transport.requests_shed >= 0"),
                )
                .build()
                .unwrap(),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let host = Arc::clone(&server);
        let reactor = std::thread::spawn(move || serve_sessions(host, listener).unwrap());

        let deadline = Instant::now() + Duration::from_secs(10);
        let state = || {
            let alerts = query(&*server, ControlOp::Alerts { since: 0 });
            let Some(Json::Arr(states)) = alerts.get("states") else {
                panic!("{alerts:?}")
            };
            states[0].get("state").and_then(Json::as_u64)
        };
        while state() != Some(2) {
            assert!(Instant::now() < deadline, "transport rule never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        let h = query(
            &*server,
            ControlOp::History {
                series: "transport.requests_shed".into(),
                since: 0,
                step: 0,
            },
        );
        let Some(Json::Arr(points)) = h.get("points") else {
            panic!("{h:?}")
        };
        assert!(!points.is_empty(), "{h:?}");

        Client::connect(addr).unwrap().shutdown_server().unwrap();
        reactor.join().unwrap();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
