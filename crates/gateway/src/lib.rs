//! # dahlia-gateway
//!
//! A sharded, fault-tolerant, **highly available** cluster front-end
//! for the Dahlia compile service. The pipeline is a deterministic
//! function of the source text — which is what made content-addressed
//! caching and a persistent networked server possible, and it is also
//! exactly what makes the service *shardable*: any replica can answer
//! any request, so the only interesting question is where each
//! request's warm cache should live. The gateway answers it with
//! **weighted rendezvous hashing on the source digest** ([`hash`]):
//! every source is pinned to one shard while that shard is alive, so
//! sweeps and repeated traffic hit warm caches instead of recompiling
//! on whichever replica the load balancer picked.
//!
//! ## Architecture
//!
//! ```text
//!                    ┌────────────────────────┐   pooled, pipelined
//!  clients ──TCP──►  │  Gateway (SessionHost) │ ──TCP──► shard a1 (dahliac serve --listen)
//!  (dahliac batch)   │  · rendezvous router   │ ──TCP──► shard a2
//!                    │  · replication fan-out │ ──TCP──► shard a3
//!                    │  · drain/join admin    │
//!                    │  · health checker      │
//!                    └────────────────────────┘
//! ```
//!
//! * One [`PipelinedClient`] per shard multiplexes every in-flight
//!   request over a single v1 binary-wire session, correlated by wire
//!   id. A shard that will not negotiate v1 is treated as dead.
//! * **Requests run to completion without a dispatch pool.** The
//!   reactor answers an admission-cache hit on the spot; a miss is
//!   sent to its shard with [`PipelinedClient::send`], which never
//!   blocks, and the hop's reply callback — on that client's reader
//!   thread — either re-routes to the next candidate or finishes the
//!   request (window, telemetry, hop spans, admission insert, answer).
//!   No thread is parked per in-flight request. Each shard's client
//!   keeps at most 32 requests on the wire and holds the rest, so a
//!   cold backlog waits in the gateway
//!   instead of being shed by the shard; a shard that sheds anyway
//!   (`admission/overloaded`) is re-routed past. [`Gateway::submit`]
//!   blocks on this same path; a sweep starts its accepted points on
//!   it and folds their replies on the sweep's own thread. Only stats polls
//!   and admin ops, which block on shard I/O, use a small control
//!   pool.
//! * **Replication** ([`GatewayConfig::replication`], default 1):
//!   every newly computed artifact fans out to the top-N shards in
//!   rendezvous order, so killing the primary serves warm artifacts
//!   from the secondary without recomputing a single pipeline stage.
//! * **Draining** ([`Gateway::drain`], or the `{"op":"drain"}` wire
//!   op): a draining shard stops receiving new keys, finishes its
//!   in-flight work, and a background task walks its warm keys through
//!   the surviving replica set — a rolling restart costs zero failed
//!   requests. [`Gateway::undrain`] re-activates it, or **joins** an
//!   address the topology has never seen (live re-sharding).
//! * A background health checker pings live shards and re-dials dead
//!   ones; a failed request poisons its shard's client immediately, so
//!   in-flight *and* future requests re-route to the next shard in
//!   rendezvous order without waiting for the next health tick.
//! * The gateway **compiles nothing for a request**: it only routes.
//!   When no shard answers (an empty topology, every shard dead, or
//!   every shard draining) the request gets a retryable
//!   `admission/unavailable` error whose `retry_after_ms` is the health
//!   interval — the time until the next re-dial of a dead shard. Only
//!   a sweep runs the front end (parse, then check) at the gateway, on
//!   each rendered point, so that the checker's rejections, most of a
//!   design space, never hop; the parser's nesting budget
//!   (`MAX_NESTING`) and the checker's bank budget (`MAX_BANKS`) bound
//!   that work for any program, and a panic in it routes the point.
//!
//! The gateway is itself a [`SessionHost`], so
//! [`dahlia_server::serve_sessions`] gives it the same TCP front end,
//! graceful shutdown, and pipelined session semantics as `dahliac
//! serve` — clients cannot tell a gateway from a server, which is the
//! point.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dahlia_gateway::GatewayConfig;
//! use dahlia_server::{Request, Stage};
//!
//! let gw = GatewayConfig::new(["10.0.0.1:4500", "10.0.0.2:4500"])
//!     .replication(2)
//!     .build();
//! let resp = gw.submit(&Request::new("r1", Stage::Estimate, "let x = 1;", "k"));
//! assert!(resp.get("id").is_some());
//! ```

#![warn(missing_docs)]

pub mod hash;
mod ledger;
mod sweep;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use dahlia_obs::{Counter, Gauge, Registry, Row, Sampler, Snapshot, Span, Table, Value, Window};
use dahlia_server::evict::{EvictConfig, Lru};
use dahlia_server::json::{obj, Json};
use dahlia_server::{
    admission_error, obs_json, source_digest, stats_schema, AdminOp, ControlOp, PipelinedClient,
    Pool, Reply, Request, Respond, SessionHost, Stage, Telemetry, TelemetryConfig, TransportStats,
};

/// Bound on the per-shard warm-key ledger the drain migrator walks.
/// Least-recently-routed entries fall off first; a dropped entry costs
/// one recompute after a drain, never a wrong answer.
const WARM_KEY_CAP: usize = 8192;

/// Byte bound on the sources retained in one shard's warm-key ledger
/// (the ledger clones each request, source text included).
const WARM_KEY_MAX_BYTES: usize = 64 << 20;

/// Threads for the gateway's blocking control work (stats polls, admin
/// ops); requests never touch them.
const CONTROL_THREADS: usize = 2;

/// Most requests outstanding on one shard's hop; later ones wait in
/// the shard's client, in order, and their io timeout starts when they
/// go out. Far below a shard's default `--max-inflight` (256), so the
/// shard never sheds a hop request, and small enough that a request
/// waits behind at most 32 others in the shard's pool before the io
/// timeout judges it. A sweep keeps at most this many points times
/// the shard count in flight.
const HOP_WINDOW: usize = 32;

/// Default bound on the gateway's hot-source admission cache (entries).
pub const DEFAULT_ADMISSION_CACHE: usize = 2048;

/// Byte bound on the response bodies retained in the admission cache —
/// estimates are small, but lowered-artifact responses carry the full
/// lowered program text.
const ADMISSION_CACHE_MAX_BYTES: usize = 64 << 20;

/// Configuration for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    shards: Vec<(String, f64)>,
    replication: usize,
    health_interval: Duration,
    connect_timeout: Duration,
    io_timeout: Duration,
    telemetry: TelemetryConfig,
    auto_drain_after: u64,
    admission_cache: usize,
}

impl GatewayConfig {
    /// A gateway over the given shard addresses (each a `dahliac serve
    /// --listen` endpoint), all with rendezvous weight 1. An empty
    /// list is legal: every request then answers
    /// `admission/unavailable` until a shard joins.
    pub fn new<S: Into<String>>(shards: impl IntoIterator<Item = S>) -> GatewayConfig {
        GatewayConfig::new_weighted(shards.into_iter().map(|s| (s.into(), 1.0)))
    }

    /// A gateway over weighted shard addresses: a shard with twice the
    /// weight owns twice the key space in expectation (see
    /// [`hash::weighted_score`]). Weights must be finite and positive.
    pub fn new_weighted(shards: impl IntoIterator<Item = (String, f64)>) -> GatewayConfig {
        GatewayConfig {
            shards: shards.into_iter().collect(),
            replication: 1,
            health_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(1000),
            io_timeout: Duration::from_secs(30),
            telemetry: TelemetryConfig::new(),
            auto_drain_after: 0,
            admission_cache: DEFAULT_ADMISSION_CACHE,
        }
    }

    /// Replication factor (default 1): every newly computed artifact
    /// fans out to the first `n` live shards in rendezvous order, so
    /// any of them can serve the key warm when the primary dies.
    /// Clamped to at least 1; values beyond the shard count behave as
    /// "replicate everywhere".
    pub fn replication(mut self, n: usize) -> GatewayConfig {
        self.replication = n.max(1);
        self
    }

    /// How often the health checker pings live shards and re-dials
    /// dead ones; also the `retry_after_ms` hint of an
    /// `admission/unavailable` answer.
    pub fn health_interval(mut self, d: Duration) -> GatewayConfig {
        self.health_interval = d;
        self
    }

    /// Bound on each shard connection attempt.
    pub fn connect_timeout(mut self, d: Duration) -> GatewayConfig {
        self.connect_timeout = d;
        self
    }

    /// Bound on each in-flight shard call: a shard that stops
    /// answering (stopped process, silent partition — its TCP session
    /// stays up) is declared dead after this long, releasing its
    /// in-flight requests to re-route. Must exceed the slowest
    /// legitimate compile times the queue ahead of it: up to 32
    /// requests per shard are on the wire at once, and the clock runs
    /// while they wait in the shard's pool.
    pub fn io_timeout(mut self, d: Duration) -> GatewayConfig {
        self.io_timeout = d;
        self
    }

    /// The gateway's own telemetry: its trace journal (gateway hops
    /// plus the shards' spans), the slow threshold routed requests are
    /// captured past, the durable directory (sample ring, warm-key
    /// ledger, sweep journals), and alert rules. A rule whose action is
    /// `drain` additionally triggers the auto-drain remediation when it
    /// fires; bad grammar fails [`GatewayConfig::try_build`].
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> GatewayConfig {
        self.telemetry = telemetry;
        self
    }

    /// Auto-drain remediation: drain a shard after `n` consecutive
    /// health-check failures (0, the default, disables it). The last
    /// live shard is never drained, and each drain lands in the alert
    /// journal and the per-shard `auto_drained` counter.
    pub fn auto_drain_after(mut self, n: u64) -> GatewayConfig {
        self.auto_drain_after = n;
        self
    }

    /// Entry bound on the gateway's hot-source admission cache
    /// (default [`DEFAULT_ADMISSION_CACHE`]): successful, untraced
    /// responses are retained keyed by `(source, stage, options)`
    /// digest, and a repeat of a hot request is answered at the
    /// gateway without touching a shard. `0` disables the cache.
    pub fn admission_cache(mut self, entries: usize) -> GatewayConfig {
        self.admission_cache = entries;
        self
    }

    /// Build the gateway: dial every shard (concurrently, best-effort)
    /// and start the health checker.
    ///
    /// Panics if the telemetry directory cannot be opened or an alert
    /// rule does not parse — use [`GatewayConfig::try_build`] to
    /// surface those as errors (the CLI does).
    pub fn build(self) -> Gateway {
        self.try_build().expect("gateway telemetry configuration")
    }

    /// [`GatewayConfig::build`], with telemetry/alert configuration
    /// errors reported instead of panicking.
    pub fn try_build(self) -> std::io::Result<Gateway> {
        let telemetry = self.telemetry.open()?;
        let ledger_path = telemetry
            .dir
            .as_ref()
            .map(|dir| dir.join(ledger::LEDGER_FILE));
        let mut inner = GwInner {
            topology: Arc::new(RwLock::new(
                self.shards
                    .iter()
                    .map(|(addr, weight)| {
                        Arc::new(Shard::new(
                            addr.clone(),
                            *weight,
                            self.connect_timeout,
                            self.io_timeout,
                        ))
                    })
                    .collect(),
            )),
            replication: self.replication,
            health_interval: self.health_interval,
            connect_timeout: self.connect_timeout,
            io_timeout: self.io_timeout,
            admission: Arc::new(Mutex::new(Lru::new(
                EvictConfig::unbounded()
                    .entries(self.admission_cache)
                    .bytes(ADMISSION_CACHE_MAX_BYTES),
            ))),
            admission_hits: Counter::new(),
            requests: Counter::new(),
            rerouted: Counter::new(),
            replica_writes: Counter::new(),
            replica_failures: Counter::new(),
            unavailable: Counter::new(),
            telemetry: Arc::new(telemetry),
            window: Arc::new(Window::with_default_clock()),
            in_flight: Counter::new(),
            pool: Pool::new(CONTROL_THREADS),
            auto_drain_after: self.auto_drain_after,
            ledger_path,
            sweeps: sweep::SweepCounters::default(),
            transport: Arc::new(TransportStats::new()),
            metrics: Registry::new(),
        };
        inner.metrics = inner.register();
        let inner = Arc::new(inner);
        // Rehydrate the warm-key ledger from the last checkpoint (an
        // unreadable file reads as empty) so drains after a gateway
        // restart still know where the heat lives.
        if let Some(path) = &inner.ledger_path {
            for (addr, req) in ledger::load(path) {
                if let Some(shard) = inner.find(&addr) {
                    shard.record_warm(source_digest(&req.source), &req);
                }
            }
        }
        // Initial dial, in parallel: one dead address must not make
        // every other shard wait out its connect timeout.
        {
            let topo = inner.topology.read().unwrap();
            std::thread::scope(|s| {
                for shard in topo.iter() {
                    s.spawn(|| {
                        shard.connect();
                    });
                }
            });
        }
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let t_inner = Arc::clone(&inner);
        let t_stop = Arc::clone(&stop);
        let interval = self.health_interval;
        let checker = std::thread::Builder::new()
            .name("dahlia-gateway-health".into())
            .spawn(move || loop {
                {
                    let (lock, cv) = &*t_stop;
                    let stopped = cv
                        .wait_timeout_while(lock.lock().unwrap(), interval, |stop| !*stop)
                        .unwrap()
                        .0;
                    if *stopped {
                        return;
                    }
                }
                t_inner.health_pass();
            })
            .ok();
        let t_inner = Arc::clone(&inner);
        let sampler = inner
            .telemetry
            .spawn_sampler(move || t_inner.telemetry_tick());
        Ok(Gateway {
            inner,
            stop,
            checker,
            _sampler: sampler,
        })
    }
}

/// The warm-key ledger of one shard: every source this gateway routed
/// there, so a drain can re-home the shard's working set. Bounded by
/// entry count ([`WARM_KEY_CAP`]) *and* by retained source bytes
/// ([`WARM_KEY_MAX_BYTES`]) — large-program workloads must not turn
/// drain bookkeeping into a memory leak. Weighed by source bytes.
type WarmKeys = Lru<u128, Request>;

/// The gateway's hot-source admission cache: successful (or
/// deterministically rejected — see [`admission_cacheable`]), untraced
/// responses keyed by the same `(source, stage, options)` digest
/// triple the shards' own stores use, bounded by entry count and by
/// retained response bytes. Values are shared, so a hit holds the lock
/// only for a pointer clone; it is then re-stamped with the caller's id
/// and `cached: true`, the same shape a shard-side warm hit has.
type AdmissionCache = Lru<AdmissionKey, Arc<Json>>;

/// Whether a routed response may be retained by the admission cache:
/// success, or a deterministic front-end rejection — the same source
/// draws the same `lex`/`parse`/`check` verdict forever, and a design
/// sweep asks about the rejected bulk of its space over and over.
/// Infrastructure failures (`internal`, `protocol`, `admission`) must
/// always re-route.
fn admission_cacheable(resp: &Json) -> bool {
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => true,
        _ => matches!(
            resp.get("error")
                .and_then(|e| e.get("phase"))
                .and_then(Json::as_str),
            Some("lex" | "parse" | "check")
        ),
    }
}

/// One backend shard: its address, rendezvous weight, pooled
/// connection, drain state, and routing counters.
struct Shard {
    addr: String,
    /// Rendezvous weight — atomic so `undrain` can re-weight a live
    /// shard without a topology write lock.
    weight: Gauge,
    connect_timeout: Duration,
    io_timeout: Duration,
    client: Mutex<Option<Arc<PipelinedClient>>>,
    /// Draining shards receive no new keys; in-flight work completes.
    draining: AtomicBool,
    /// Did the last stats poll succeed?
    alive: AtomicBool,
    /// Requests dispatched to this shard (including ones that failed).
    routed: Counter,
    /// Dispatches that failed here (connection died mid-call).
    failed: Counter,
    /// Dispatches that landed here after failing on a preferred shard.
    retried: Counter,
    /// Replication fan-out calls dispatched *to* this shard.
    replicated: Counter,
    /// Warm keys migrated *off* this shard by drain ops.
    drained_keys: Counter,
    /// Health-check failures since the last successful check. Reset to
    /// zero on every pass the shard answers; crossing
    /// `auto_drain_after` triggers the auto-drain remediation.
    consecutive_failures: Counter,
    /// Times the auto-drain remediation drained this shard.
    auto_drained: Counter,
    /// Sliding window over the gateway-observed round trips to this
    /// shard: dispatch rate, failure rate, and windowed round-trip
    /// latency percentiles as *this* gateway saw them (network
    /// included), beside the shard's own self-reported window.
    window: Window,
    /// Last stats object successfully polled from this shard, as sent
    /// and as decoded; dead shards keep contributing their final
    /// snapshot to the aggregate.
    last_stats: Mutex<Option<(Json, Snapshot)>>,
    /// Sources this gateway routed here, for drain migration.
    warm_keys: Mutex<WarmKeys>,
}

impl Shard {
    fn new(addr: String, weight: f64, connect_timeout: Duration, io_timeout: Duration) -> Shard {
        Shard {
            addr,
            weight: Gauge::new(weight),
            connect_timeout,
            io_timeout,
            client: Mutex::new(None),
            draining: AtomicBool::new(false),
            alive: AtomicBool::new(false),
            routed: Counter::new(),
            failed: Counter::new(),
            retried: Counter::new(),
            replicated: Counter::new(),
            drained_keys: Counter::new(),
            consecutive_failures: Counter::new(),
            auto_drained: Counter::new(),
            window: Window::with_default_clock(),
            last_stats: Mutex::new(None),
            warm_keys: Mutex::new(Lru::new(
                EvictConfig::unbounded()
                    .entries(WARM_KEY_CAP)
                    .bytes(WARM_KEY_MAX_BYTES),
            )),
        }
    }

    fn weight(&self) -> f64 {
        self.weight.get()
    }

    fn set_weight(&self, w: f64) {
        self.weight.set(w);
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Record a warm key, unless the shard is draining. The check
    /// happens under the ledger lock and `drain` takes its snapshot
    /// under the same lock *after* raising the flag, so a key can
    /// never slip in behind the migration walk and strand there.
    fn record_warm(&self, key: u128, req: &Request) {
        // Migration replays are bookkeeping, not client traffic: strip
        // the trace id so a drain walk doesn't flood shard journals.
        let mut stored = req.clone();
        stored.trace = None;
        let weight = stored.source.len();
        let mut ledger = self.warm_keys.lock().unwrap();
        if !self.is_draining() {
            ledger.insert(key, stored, weight);
        }
    }

    /// The live pooled client, if the shard is up.
    fn live(&self) -> Option<Arc<PipelinedClient>> {
        let guard = self.client.lock().unwrap();
        match &*guard {
            Some(c) if !c.is_dead() => Some(Arc::clone(c)),
            _ => None,
        }
    }

    /// (Re)dial unless already connected. Returns liveness. The hop is
    /// v1-only: a shard that will not negotiate binary frames is
    /// refused at connect and stays dead.
    ///
    /// The dial happens *outside* the client mutex: a black-holed
    /// address makes each attempt last the full connect timeout, and
    /// holding the lock that long would stall every `live()` check —
    /// i.e. the router's ability to *skip* the dead shard — for the
    /// duration. Two concurrent dials are harmless (last one wins; the
    /// loser is dropped and poisoned).
    fn connect(&self) -> bool {
        if self.live().is_some() {
            return true;
        }
        match PipelinedClient::connect_timeout(self.addr.as_str(), self.connect_timeout) {
            Ok(c) => {
                let client = Arc::new(c.with_io_timeout(self.io_timeout).with_window(HOP_WINDOW));
                *self.client.lock().unwrap() = Some(client);
                true
            }
            Err(_) => {
                // Drop a poisoned handle so `live()` stays cheap.
                let mut guard = self.client.lock().unwrap();
                if matches!(&*guard, Some(c) if c.is_dead()) {
                    *guard = None;
                }
                false
            }
        }
    }

    /// Ping a live shard for stats, refreshing the snapshot (decoded
    /// against a server's stats schema) and the liveness flag. `None`
    /// when the shard is down (the failed call poisons the client).
    fn poll_stats(&self) -> Option<Json> {
        let polled = self.live().and_then(|client| client.stats().ok());
        self.alive.store(polled.is_some(), Ordering::Relaxed);
        if let Some(s) = &polled {
            let snap = obs_json::snapshot_from_json(s, stats_schema());
            *self.last_stats.lock().unwrap() = Some((s.clone(), snap));
        }
        polled
    }

    /// This shard's row of the `gateway.shards` table: its routing
    /// counters, the round trips as this gateway saw them (network
    /// included), and the shard's own self-reported levels.
    fn row(&self) -> Row {
        let w = self.window.snapshot();
        let level = |name: &str| {
            let last = self.last_stats.lock().unwrap();
            last.as_ref()
                .and_then(|(_, s)| s.value(name))
                .unwrap_or(0.0)
        };
        let count = |c: &Counter| Value::Counter(c.get());
        Row {
            label: self.addr.clone(),
            fields: vec![
                ("alive", Value::Flag(self.is_alive())),
                ("draining", Value::Flag(self.is_draining())),
                ("weight", Value::Gauge(self.weight())),
                ("routed", count(&self.routed)),
                ("failed", count(&self.failed)),
                ("retried", count(&self.retried)),
                ("replicated", count(&self.replicated)),
                ("drained_keys", count(&self.drained_keys)),
                ("auto_drained", count(&self.auto_drained)),
                ("consecutive_failures", count(&self.consecutive_failures)),
                (
                    "warm_keys",
                    Value::Counter(self.warm_keys.lock().unwrap().len() as u64),
                ),
                ("window_routed", Value::Counter(w.requests)),
                ("window_rate", Value::Gauge(w.rate_per_s())),
                ("window_error_rate", Value::Gauge(w.error_rate_per_s())),
                ("window_p99_us", Value::Gauge(w.hist.quantile(0.99))),
                ("in_flight", Value::Gauge(level("window.in_flight"))),
                ("queue_depth", Value::Gauge(level("window.queue_depth"))),
            ],
        }
    }
}

struct GwInner {
    /// The shard set, in configuration order. Guarded by a `RwLock` so
    /// `undrain` can **join** new shards while traffic flows; routing
    /// takes brief read locks and clones `Arc`s out.
    topology: Arc<RwLock<Vec<Arc<Shard>>>>,
    /// Replication factor: newly computed artifacts fan out to this
    /// many shards in rendezvous order.
    replication: usize,
    /// Health-check period: the retry hint of an unavailable answer.
    health_interval: Duration,
    connect_timeout: Duration,
    io_timeout: Duration,
    /// Hot-source response cache checked before any shard dispatch.
    admission: Arc<Mutex<AdmissionCache>>,
    /// Requests answered straight out of the admission cache.
    admission_hits: Counter,
    requests: Counter,
    /// Requests that failed on at least one shard and were re-routed.
    rerouted: Counter,
    /// Replication fan-out calls dispatched (across all shards).
    replica_writes: Counter,
    /// Replica fan-outs that could not be delivered (replica dead at
    /// dispatch, or the call failed): the key is singly-held until its
    /// next cold touch or a drain re-homes it.
    replica_failures: Counter,
    /// Requests answered `admission/unavailable`: no shard answered.
    unavailable: Counter,
    /// Sliding window over every routed request (client traffic and
    /// drain migrations alike): live cluster throughput, error rate,
    /// and windowed end-to-end latency as the gateway observed it.
    window: Arc<Window>,
    /// Requests currently inside [`GwInner::route`].
    in_flight: Counter,
    /// Control pool: stats polls and admin ops block on shard I/O, so
    /// they run here, never on a reactor. Requests never do.
    pool: Pool,
    /// The trace journal (gateway hops plus shard-reported spans), the
    /// slow-request log (routed requests past the threshold), the
    /// on-disk sample ring the sampler feeds, and the alert engine
    /// evaluated on every sampler tick — with zero rules just the
    /// auto-drain journal.
    telemetry: Arc<Telemetry>,
    /// Consecutive health-check failures before a shard is auto-
    /// drained; 0 disables the remediation.
    auto_drain_after: u64,
    /// Warm-key ledger checkpoint path (under the telemetry dir).
    ledger_path: Option<PathBuf>,
    /// Lifetime counters for the cluster `sweep` op.
    sweeps: sweep::SweepCounters,
    /// The front door's transport counters.
    transport: Arc<TransportStats>,
    /// The gateway's own metrics (everything but the shard-merged
    /// server sections), filled once by [`GwInner::register`].
    metrics: Registry,
}

impl GwInner {
    /// The gateway's metrics, in stats order: the `gateway` section
    /// (routing counters, admission cache, shard states, its own
    /// window and journals, sweeps, the shard table), then the
    /// telemetry sections and the front door's `transport`.
    fn register(&self) -> Registry {
        let mut reg = Registry::new();
        for (name, c) in [
            ("gateway.requests", &self.requests),
            ("gateway.rerouted", &self.rerouted),
            ("gateway.replica_writes", &self.replica_writes),
            ("gateway.replica_failures", &self.replica_failures),
            ("gateway.unavailable", &self.unavailable),
        ] {
            reg.counter(name, c);
        }
        let (replication, hits) = (self.replication as u64, self.admission_hits.clone());
        let admission = Arc::clone(&self.admission);
        let topology = Arc::clone(&self.topology);
        let auto_drain_after = self.auto_drain_after;
        reg.collect(move |s| {
            s.counter("gateway.replication", replication);
            s.counter("gateway.admission_cache_hits", hits.get());
            let (entries, cap) = {
                let adm = admission.lock().unwrap();
                (adm.len(), adm.cap())
            };
            s.counter("gateway.admission_cache_entries", entries as u64);
            s.counter("gateway.admission_cache_cap", cap as u64);
            let shards = topology.read().unwrap().clone();
            let count = |f: &dyn Fn(&Shard) -> bool| shards.iter().filter(|s| f(s)).count() as u64;
            s.counter("gateway.shards_live", count(&|s| s.is_alive()));
            s.counter("gateway.shards_draining", count(&|s| s.is_draining()));
            s.counter(
                "gateway.shards_dead",
                count(&|s| !s.is_draining() && !s.is_alive()),
            );
            s.counter("gateway.auto_drain_after", auto_drain_after);
        });
        // End-to-end latency as clients saw it, fail-overs included —
        // beside the shard-merged `window` at the top level.
        reg.window(
            "gateway.window",
            &self.window,
            &self.in_flight,
            &Counter::new(),
        );
        self.telemetry
            .register_journals(&mut reg, "gateway.journals");
        self.sweeps.register(&mut reg);
        let topology = Arc::clone(&self.topology);
        reg.collect(move |s| {
            let rows = topology.read().unwrap().iter().map(|sh| sh.row()).collect();
            s.push(
                "gateway.shards",
                Value::Table(Table {
                    key: "addr",
                    label: "shard",
                    export: None,
                    rows,
                }),
            );
        });
        self.telemetry.register_sections(&mut reg);
        self.transport.register(&mut reg);
        reg
    }

    /// A point-in-time copy of the shard set (configuration order).
    fn shards(&self) -> Vec<Arc<Shard>> {
        self.topology.read().unwrap().clone()
    }

    fn health_pass(self: &Arc<Self>) {
        for shard in self.shards() {
            let healthy = if shard.live().is_some() {
                shard.poll_stats().is_some()
            } else {
                shard.connect()
            };
            if healthy {
                shard.consecutive_failures.set(0);
            } else {
                let fails = shard.consecutive_failures.inc();
                if self.auto_drain_after > 0 && fails == self.auto_drain_after {
                    self.auto_drain(&shard, "auto_drain", fails as f64);
                }
            }
        }
    }

    /// The auto-drain remediation: drain `shard`, journal the event
    /// under `rule`, and bump its `auto_drained` counter. Refuses to
    /// act when the shard is already draining or when no *other*
    /// non-draining shard is live — draining the last live shard would
    /// trade a degraded cluster for one that answers nothing.
    fn auto_drain(self: &Arc<Self>, shard: &Arc<Shard>, rule: &str, value: f64) {
        if shard.is_draining() {
            return;
        }
        let survivors = self
            .shards()
            .iter()
            .filter(|s| s.addr != shard.addr && !s.is_draining() && s.live().is_some())
            .count();
        if survivors == 0 {
            return;
        }
        shard.auto_drained.inc();
        self.telemetry
            .engine
            .record_event(rule, "auto_drain", value, &shard.addr);
        self.drain(&shard.addr);
    }

    /// One sampler tick: snapshot the cluster stats into the on-disk
    /// ring, evaluate the alert rules against the same snapshot (a
    /// newly fired rule bound to the `drain` action drains the
    /// unhealthiest shard), and checkpoint the warm-key ledger.
    fn telemetry_tick(self: &Arc<Self>) {
        let fired = self.telemetry.tick(&self.snapshot());
        for rule in fired {
            if rule.action.as_deref() == Some("drain") {
                // The rule names a cluster condition, not a shard; aim
                // the remediation at the shard failing its health
                // checks the longest (config order breaks ties).
                let worst = self
                    .shards()
                    .into_iter()
                    .filter(|s| !s.is_draining())
                    .max_by_key(|s| s.consecutive_failures.get());
                if let Some(shard) = worst {
                    let fails = shard.consecutive_failures.get();
                    if fails > 0 {
                        self.auto_drain(&shard, &rule.text, fails as f64);
                    }
                }
            }
        }
        self.save_ledger();
    }

    /// Checkpoint every shard's warm-key ledger to disk, best-effort
    /// (a failed write costs recovery freshness, never traffic).
    fn save_ledger(&self) {
        let Some(path) = &self.ledger_path else {
            return;
        };
        let mut entries = Vec::new();
        for shard in self.shards() {
            for req in shard.warm_keys.lock().unwrap().values() {
                entries.push((shard.addr.clone(), req.clone()));
            }
        }
        let _ = ledger::save(path, &entries);
    }

    /// The shard set in rendezvous preference order for `key`, with
    /// draining shards filtered out — the candidate list for routing
    /// and the domain of the replica set.
    fn candidates(&self, key: u128) -> Vec<Arc<Shard>> {
        let topo = self.topology.read().unwrap();
        let weighted: Vec<(&str, f64)> =
            topo.iter().map(|s| (s.addr.as_str(), s.weight())).collect();
        hash::weighted_rank(key, &weighted)
            .into_iter()
            .map(|i| Arc::clone(&topo[i]))
            .filter(|s| !s.is_draining())
            .collect()
    }

    /// Answer `req` through `done`. An untraced admission-cache hit is
    /// answered on the calling thread; anything else walks the shards
    /// asynchronously ([`GwInner::route`]) and is admitted to the cache
    /// on the way out.
    fn submit(self: &Arc<Self>, req: Request, done: Respond) {
        self.requests.inc();
        let t_submit = Instant::now();
        let key = (source_digest(&req.source), req.stage, req.options.digest());
        // Admission control, stage one: answer hot repeats at the
        // gateway. Traced requests always route — the caller asked for
        // the span breakdown a cache hit cannot produce.
        if req.trace.is_some() {
            return self.route(req, None, done);
        }
        let hit = self.admission.lock().unwrap().get(&key).cloned();
        match hit {
            Some(cached) => {
                self.admission_hits.inc();
                let mut resp = Json::clone(&cached);
                set_field(&mut resp, "id", Json::Str(req.id));
                set_field(&mut resp, "cached", Json::Bool(true));
                self.window
                    .record((t_submit.elapsed().as_nanos() / 1_000) as u64, true);
                done(resp);
            }
            None => self.route(req, Some(key), done),
        }
    }

    /// Route one request: try candidate shards in rendezvous order,
    /// skipping dead ones and re-routing past any that fail mid-call;
    /// answer `admission/unavailable` when none answers. Nothing
    /// blocks: each attempt is a [`PipelinedClient::send`] whose reply
    /// callback either re-routes or finishes the request. `admit` is
    /// the admission-cache key a cacheable answer is stored under.
    fn route(self: &Arc<Self>, req: Request, admit: Option<AdmissionKey>, done: Respond) {
        self.in_flight.inc();
        // The admission key already holds the source digest.
        let key = admit.map_or_else(|| source_digest(&req.source), |(digest, _, _)| digest);
        Route {
            inner: Arc::clone(self),
            req: Arc::new(req),
            key,
            admit,
            candidates: self.candidates(key),
            next: 0,
            failed_before: false,
            shed: None,
            spans: Vec::new(),
            t_route: Instant::now(),
            done,
        }
        .attempt();
    }

    /// Fan a **newly computed** artifact out to the remaining members
    /// of the key's replica set — the first `replication` candidates in
    /// rendezvous order, minus the shard that just answered. Fire and
    /// forget: replication is a cache warmer, and a slow or dying
    /// replica must never add latency to the caller's response. Warm
    /// hits (`cached: true`) skip the fan-out; their replica set was
    /// warmed when the artifact was first computed.
    ///
    /// Best-effort: a replica that is down (or whose call fails) is
    /// *not* retried — the key stays singly-held until the next cold
    /// touch or a drain re-homes it. `replica_failures` counts those
    /// misses so operators can see degraded redundancy.
    fn replicate(
        self: &Arc<Self>,
        key: u128,
        req: &Request,
        candidates: &[Arc<Shard>],
        answered: usize,
        resp: &Json,
    ) -> usize {
        if self.replication <= 1 {
            return 0;
        }
        if resp.get("cached").and_then(Json::as_bool) != Some(false) {
            return 0;
        }
        let mut dispatched = 0;
        for (i, shard) in candidates.iter().enumerate().take(self.replication) {
            if i == answered {
                continue;
            }
            let Some(client) = shard.live() else {
                self.replica_failures.inc();
                continue;
            };
            shard.replicated.inc();
            self.replica_writes.inc();
            dispatched += 1;
            let inner = Arc::clone(self);
            let shard = Arc::clone(shard);
            // Replica warms are cache writes, not client traffic: drop
            // the trace id so they don't show up in shard journals.
            let mut req = req.clone();
            req.trace = None;
            let req = Arc::new(req);
            client.send(&Arc::clone(&req), move |r| match r {
                Ok(_) => shard.record_warm(key, &req),
                Err(_) => {
                    inner.replica_failures.inc();
                }
            });
        }
        dispatched
    }

    /// Mark `addr` draining and kick off the background key walk. The
    /// ack reports how many warm keys were scheduled for migration;
    /// the per-shard `drained_keys` counter reports progress.
    fn drain(self: &Arc<Self>, addr: &str) -> Json {
        let Some(shard) = self.find(addr) else {
            return admin_error("drain", addr, format!("no shard `{addr}` in the topology"));
        };
        // Flag first, snapshot second, both ordered against
        // `record_warm`'s flag-check-under-the-ledger-lock: any route
        // completing after this point either landed its key in this
        // snapshot or saw the flag and skipped recording — nothing can
        // strand in a draining shard's ledger behind the walk.
        let already = shard.draining.swap(true, Ordering::SeqCst);
        let keys = shard.warm_keys.lock().unwrap().take_all();
        let scheduled = keys.len();
        if scheduled > 0 {
            let inner = Arc::clone(self);
            let t_shard = Arc::clone(&shard);
            let spawned = std::thread::Builder::new()
                .name("dahlia-gateway-drain".into())
                .spawn(move || {
                    for req in keys {
                        // Route past the admission cache (migration is
                        // bookkeeping, not client traffic); replicas
                        // fan out as usual, and the draining shard is
                        // already out of the candidate set.
                        wait(|done| inner.route(req, None, done));
                        t_shard.drained_keys.inc();
                    }
                });
            if spawned.is_err() {
                // Thread exhaustion: the keys are lost from the ledger
                // but not from the world — the new owners recompute on
                // first touch. Report zero scheduled.
                return drain_ack(addr, already, 0);
            }
        }
        drain_ack(addr, already, scheduled)
    }

    /// Re-activate a draining shard (optionally re-weighting it), or
    /// **join** `addr` as a brand-new shard (weight defaults to 1) —
    /// the live re-sharding path.
    fn undrain(&self, addr: &str, weight: Option<f64>) -> Json {
        if let Some(shard) = self.find(addr) {
            if let Some(w) = weight {
                shard.set_weight(w);
            }
            shard.draining.store(false, Ordering::SeqCst);
            return undrain_ack(addr, false, &shard);
        }
        let shard = {
            let mut topo = self.topology.write().unwrap();
            // Re-check under the write lock: two concurrent joins of
            // the same address must not double it.
            match topo.iter().find(|s| s.addr == addr) {
                Some(existing) => {
                    if let Some(w) = weight {
                        existing.set_weight(w);
                    }
                    existing.draining.store(false, Ordering::SeqCst);
                    Arc::clone(existing)
                }
                None => {
                    let shard = Arc::new(Shard::new(
                        addr.to_string(),
                        weight.unwrap_or(1.0),
                        self.connect_timeout,
                        self.io_timeout,
                    ));
                    topo.push(Arc::clone(&shard));
                    shard
                }
            }
        };
        undrain_ack(addr, true, &shard)
    }

    fn find(&self, addr: &str) -> Option<Arc<Shard>> {
        self.topology
            .read()
            .unwrap()
            .iter()
            .find(|s| s.addr == addr)
            .cloned()
    }

    /// The cluster-wide snapshot: every shard's server metrics (live
    /// shards are polled; dead ones contribute their last snapshot),
    /// merged — shaped like a single server's, so existing clients
    /// (`dahliac batch`) read it unchanged — followed by the gateway's
    /// own metrics. Shard-side telemetry
    /// and transport sections are not part of a server's schema, so
    /// they stay on each shard's own stats.
    fn snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for shard in self.shards() {
            shard.poll_stats();
            if let Some((_, snap)) = &*shard.last_stats.lock().unwrap() {
                merged.merge(snap);
            }
        }
        merged.extend(self.metrics.snapshot());
        merged
    }

    /// The stats object `{"op":"stats"}` answers.
    fn stats_json(&self) -> Json {
        obs_json::snapshot_to_json(&self.snapshot())
    }

    /// The liveness object: shard counts by state beside the
    /// telemetry's drop and alert counters.
    fn health_json(&self) -> Json {
        let (mut live, mut draining, mut dead) = (0u64, 0u64, 0u64);
        for shard in self.shards() {
            if shard.is_draining() {
                draining += 1;
            } else if shard.live().is_some() {
                live += 1;
            } else {
                dead += 1;
            }
        }
        self.telemetry.health(vec![
            ("shards_live", Json::Num(live as f64)),
            ("shards_draining", Json::Num(draining as f64)),
            ("shards_dead", Json::Num(dead as f64)),
        ])
    }
}

/// Start an asynchronous request with `start` and block for its answer.
fn wait(start: impl FnOnce(Respond)) -> Json {
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    start(Box::new(move |resp| {
        let _ = tx.send(resp);
    }));
    rx.recv().expect("a routed request is always answered")
}

/// Did a shard shed this request past its admission window?
fn is_shed(resp: &Json) -> bool {
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        == Some("admission/overloaded")
}

/// Overwrite (or append) one field of a response object in place.
fn set_field(resp: &mut Json, key: &str, val: Json) {
    if let Json::Obj(fields) = resp {
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = val,
            None => fields.push((key.to_string(), val)),
        }
    }
}

/// The admission cache's key: `(source, stage, options)` digests.
type AdmissionKey = (u128, Stage, u128);

/// One request's walk over its rendezvous candidates, carried from
/// attempt to attempt through the reply callbacks.
///
/// Hop spans are recorded for *every* request: the traced path echoes
/// them to the client, the slow log captures them retroactively when
/// the request crosses the threshold, and the fast path simply drops
/// them.
struct Route {
    inner: Arc<GwInner>,
    req: Arc<Request>,
    /// The source digest: the rendezvous and warm-key ledger key.
    key: u128,
    admit: Option<AdmissionKey>,
    candidates: Vec<Arc<Shard>>,
    /// The next candidate to try.
    next: usize,
    failed_before: bool,
    /// The last shard's `admission/overloaded` reply: the answer if no
    /// later candidate takes the request.
    shed: Option<Json>,
    spans: Vec<Span>,
    t_route: Instant,
    done: Respond,
}

impl Route {
    /// Send to the next live candidate, or answer `admission/
    /// unavailable` when none is left.
    fn attempt(mut self) {
        while let Some(shard) = self.candidates.get(self.next).cloned() {
            let i = self.next;
            self.next += 1;
            let Some(client) = shard.live() else { continue };
            shard.routed.inc();
            if self.failed_before {
                shard.retried.inc();
            }
            let t_attempt = Instant::now();
            let req = Arc::clone(&self.req);
            client.send(&req, move |r| self.on_reply(i, &shard, t_attempt, r));
            return;
        }
        if let Some(resp) = self.shed.take() {
            return self.finish(resp);
        }
        // No shard answered. A dead one is re-dialled once per health
        // tick, so that is when a retry can first succeed.
        let inner = &self.inner;
        inner.unavailable.inc();
        let retry_after_ms = inner.health_interval.as_millis() as u64;
        self.spans.push(Span::with_detail(
            "unavailable",
            0,
            format!("retry_after_ms={retry_after_ms}"),
        ));
        let resp = admission_error(
            &self.req.id,
            "admission/unavailable",
            "no shard is reachable; retry after the hinted delay",
            retry_after_ms,
        );
        self.finish(resp);
    }

    /// One attempt's outcome: finish on a reply; on an error (the
    /// client poisoned itself) record the failed hop and re-route —
    /// the next live shard in rendezvous order inherits this key, and
    /// every other key this shard owned. A shard that shed the request
    /// is re-routed past too, but stays live.
    fn on_reply(mut self, i: usize, shard: &Arc<Shard>, t_attempt: Instant, r: io::Result<Json>) {
        let attempt_us = (t_attempt.elapsed().as_nanos() / 1_000) as u64;
        let hop = format!("shard:{}", shard.addr);
        let resp = match r {
            Ok(resp) if !is_shed(&resp) => resp,
            Ok(resp) => {
                shard.window.record(attempt_us, false);
                self.failed_before = true;
                self.shed = Some(resp);
                self.spans
                    .push(Span::with_detail(hop, attempt_us, "overloaded"));
                return self.attempt();
            }
            Err(_) => {
                shard.window.record(attempt_us, false);
                shard.failed.inc();
                self.failed_before = true;
                self.spans
                    .push(Span::with_detail(hop, attempt_us, "failed"));
                return self.attempt();
            }
        };
        shard.window.record(
            attempt_us,
            resp.get("ok").and_then(Json::as_bool) == Some(true),
        );
        if self.failed_before {
            self.inner.rerouted.inc();
        }
        shard.record_warm(self.key, &self.req);
        let fanned = self
            .inner
            .replicate(self.key, &self.req, &self.candidates, i, &resp);
        let detail = if self.failed_before {
            "rerouted"
        } else {
            "routed"
        };
        self.spans.push(Span::with_detail(hop, attempt_us, detail));
        if fanned > 0 {
            // Fire-and-forget: the span records the fan-out degree,
            // not its (off-path) cost.
            self.spans.push(Span::with_detail(
                "replicate",
                0,
                format!("fanout={fanned}"),
            ));
        }
        self.finish(resp);
    }

    /// Close the request: the window, telemetry and hop spans, the
    /// admission cache, and the answer.
    fn finish(self, mut resp: Json) {
        let Route {
            inner,
            req,
            admit,
            spans: gw_spans,
            t_route,
            done,
            ..
        } = self;
        let wall_us = (t_route.elapsed().as_nanos() / 1_000) as u64;
        let ok = resp.get("ok").and_then(Json::as_bool).unwrap_or(false);
        inner.window.record(wall_us, ok);
        inner.in_flight.sub(1);
        // A traced response carries the gateway hops in front of the
        // shard's own spans; the combined list is what gets recorded.
        let spans = match &req.trace {
            Some(trace_id) => {
                obs_json::prepend_trace_spans(&mut resp, trace_id, &gw_spans);
                match resp.get("trace").and_then(|t| t.get("spans")) {
                    Some(Json::Arr(items)) => {
                        items.iter().filter_map(obs_json::span_from_json).collect()
                    }
                    _ => gw_spans,
                }
            }
            None => gw_spans,
        };
        inner.telemetry.record(&req, ok, wall_us, spans);
        if let Some(key) = admit.filter(|_| admission_cacheable(&resp)) {
            // Weigh and copy before taking the lock every request takes.
            let weight = resp.emit().len();
            let cached = Arc::new(resp.clone());
            inner.admission.lock().unwrap().insert(key, cached, weight);
        }
        done(resp);
    }
}

/// Dial `shard` and acknowledge an undrain (`joined`: a new shard).
fn undrain_ack(addr: &str, joined: bool, shard: &Shard) -> Json {
    let alive = shard.connect();
    obj([
        ("ok", Json::Bool(true)),
        ("op", Json::Str("undrain".into())),
        ("shard", Json::Str(addr.into())),
        ("joined", Json::Bool(joined)),
        ("alive", Json::Bool(alive)),
        ("weight", Json::Num(shard.weight())),
    ])
}

fn drain_ack(addr: &str, already: bool, scheduled: usize) -> Json {
    obj([
        ("ok", Json::Bool(true)),
        ("op", Json::Str("drain".into())),
        ("shard", Json::Str(addr.into())),
        ("already_draining", Json::Bool(already)),
        ("keys_scheduled", Json::Num(scheduled as f64)),
    ])
}

fn admin_error(op: &str, shard: &str, message: String) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("op", Json::Str(op.into())),
        ("shard", Json::Str(shard.into())),
        (
            "error",
            obj([
                ("phase", Json::Str("protocol".into())),
                ("code", Json::Str("protocol/unknown-shard".into())),
                ("message", Json::Str(message)),
            ]),
        ),
    ])
}

/// A point-in-time view of one shard, for tests, benches, and the CLI
/// summary line.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The shard's address as configured.
    pub addr: String,
    /// Is the pooled connection up right now?
    pub alive: bool,
    /// Is the shard draining (routing skips it)?
    pub draining: bool,
    /// The shard's rendezvous weight.
    pub weight: f64,
    /// Requests dispatched to this shard.
    pub routed: u64,
    /// Dispatches that failed here.
    pub failed: u64,
    /// Dispatches that landed here after failing elsewhere.
    pub retried: u64,
    /// Replication fan-out calls dispatched to this shard.
    pub replicated: u64,
    /// Warm keys migrated off this shard by drain ops.
    pub drained_keys: u64,
    /// The shard server's own stats, as last successfully polled.
    pub stats: Option<Json>,
}

/// The cluster router. See the crate docs for the architecture.
pub struct Gateway {
    inner: Arc<GwInner>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    checker: Option<std::thread::JoinHandle<()>>,
    /// The telemetry sampler thread; dropping it joins.
    _sampler: Option<Sampler>,
}

impl Gateway {
    /// Route one request and block for its response line (as JSON, with
    /// the caller's id). When no shard answers, the line is a retryable
    /// `admission/unavailable` error.
    pub fn submit(&self, req: &Request) -> Json {
        wait(|done| self.inner.submit(req.clone(), done))
    }

    /// Mark `addr` draining: new keys route past it, in-flight work
    /// completes, and a background task migrates its warm keys to the
    /// surviving replica set. Returns the ack object (`keys_scheduled`
    /// counts the migration backlog; per-shard `drained_keys` in the
    /// stats reports progress).
    pub fn drain(&self, addr: &str) -> Json {
        self.inner.drain(addr)
    }

    /// Re-activate a draining shard — or, if `addr` is not in the
    /// topology, **join** it as a new shard with the given rendezvous
    /// weight (default 1). Rendezvous hashing moves only the keys the
    /// new shard owns; everything else stays pinned.
    pub fn undrain(&self, addr: &str, weight: Option<f64>) -> Json {
        self.inner.undrain(addr, weight)
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.inner.replication
    }

    /// Number of shards whose pooled connection is currently live.
    pub fn live_shards(&self) -> usize {
        self.inner
            .shards()
            .iter()
            .filter(|s| s.live().is_some())
            .count()
    }

    /// Total shard count (live or not).
    pub fn shard_count(&self) -> usize {
        self.inner.topology.read().unwrap().len()
    }

    /// Requests received so far (admission-cache hits and unavailable
    /// answers included).
    pub fn requests(&self) -> u64 {
        self.inner.requests.get()
    }

    /// Requests that failed on some shard and were re-routed.
    pub fn rerouted(&self) -> u64 {
        self.inner.rerouted.get()
    }

    /// Replication fan-out calls dispatched so far.
    pub fn replica_writes(&self) -> u64 {
        self.inner.replica_writes.get()
    }

    /// Requests answered straight out of the admission cache, without
    /// touching a shard.
    pub fn admission_cache_hits(&self) -> u64 {
        self.inner.admission_hits.get()
    }

    /// Per-shard state, refreshing each live shard's stats snapshot.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.inner
            .shards()
            .iter()
            .map(|s| {
                let polled = s.poll_stats();
                ShardSnapshot {
                    addr: s.addr.clone(),
                    alive: polled.is_some(),
                    draining: s.is_draining(),
                    weight: s.weight(),
                    routed: s.routed.get(),
                    failed: s.failed.get(),
                    retried: s.retried.get(),
                    replicated: s.replicated.get(),
                    drained_keys: s.drained_keys.get(),
                    stats: polled.or_else(|| {
                        let last = s.last_stats.lock().unwrap();
                        last.as_ref().map(|(json, _)| json.clone())
                    }),
                }
            })
            .collect()
    }

    /// The aggregated stats object `{"op":"stats"}` answers.
    pub fn stats_json(&self) -> Json {
        self.inner.stats_json()
    }

    /// The cluster-wide metrics snapshot the stats object encodes (see
    /// [`Gateway::stats_json`]); `/metrics` renders it as Prometheus.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }
}

impl SessionHost for Gateway {
    /// Never blocks: an admission-cache hit is answered here, on the
    /// reactor thread, and a miss finishes from a shard reply callback.
    fn dispatch(&self, req: Request, respond: Respond) {
        self.inner.submit(req, respond);
    }

    fn control(&self, op: ControlOp, reply: Reply) {
        let inner = Arc::clone(&self.inner);
        match op {
            // Stats poll every shard over the network, and admin ops
            // take the topology lock and may dial a joining shard (a
            // full connect timeout): both run on the control pool,
            // never on a transport thread.
            ControlOp::Stats => self
                .inner
                .pool
                .execute(move || reply(inner.stats_json(), true)),
            ControlOp::Admin(op) => self.inner.pool.execute(move || {
                let ack = match op {
                    AdminOp::Drain { shard } => inner.drain(&shard),
                    AdminOp::Undrain { shard, weight } => inner.undrain(&shard, weight),
                };
                reply(ack, true);
            }),
            // A sweep can run for minutes; a dedicated thread keeps it
            // off the control pool, so stats and admin ops never queue
            // behind it. If the thread cannot start,
            // the client sees the session close without a final line —
            // the same contract as a crashed gateway.
            ControlOp::Sweep(op) => {
                let _ = std::thread::Builder::new()
                    .name("dahlia-gateway-sweep".into())
                    .spawn(move || sweep::run_sweep(&inner, op, &*reply));
            }
            ControlOp::Health => reply(self.inner.health_json(), true),
            // A history series' kind comes from the schemas, not from a
            // cluster poll: this runs on the transport thread.
            read => {
                let sample = |series: &str| {
                    stats_schema()
                        .get(series)
                        .cloned()
                        .or_else(|| inner.metrics.snapshot().get(series).cloned())
                };
                reply(self.inner.telemetry.read(&read, sample), true)
            }
        }
    }

    fn transport(&self) -> Arc<TransportStats> {
        Arc::clone(&self.inner.transport)
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        if let Some(handle) = self.checker.take() {
            let _ = handle.join();
        }
        // Stop the sampler before the final ledger checkpoint so a
        // racing tick cannot overwrite it with a staler view.
        self._sampler = None;
        self.inner.save_ledger();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dahlia_server::{query, Client, NetSummary, Server, Stage, TelemetryConfig};

    const GOOD: &str = "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";

    /// A port with nothing behind it: bind, read the address, drop.
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    /// One in-process shard behind a real loopback socket, as `dahliac
    /// serve --listen` runs it. Dropping it shuts the shard down, so
    /// declare it before the gateway that routes to it.
    pub(crate) struct TestShard {
        pub(crate) addr: String,
        handle: Option<std::thread::JoinHandle<NetSummary>>,
    }

    pub(crate) fn spawn_shard() -> TestShard {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let server = Arc::new(Server::with_threads(1));
        let handle = std::thread::spawn(move || {
            dahlia_server::serve_sessions(server, listener).expect("serve_sessions")
        });
        TestShard {
            addr,
            handle: Some(handle),
        }
    }

    impl Drop for TestShard {
        fn drop(&mut self) {
            if let Ok(mut c) = Client::connect(self.addr.as_str()) {
                let _ = c.shutdown_server();
            }
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }

    /// A gateway over `shards` that captures every routed request in
    /// its slow log, so an untraced request's hop spans can be read.
    fn capturing(shards: Vec<String>) -> GatewayConfig {
        GatewayConfig::new(shards)
            .connect_timeout(Duration::from_millis(200))
            .telemetry(TelemetryConfig::new().slow_threshold_ms(0))
    }

    /// `resp` is the one `admission/unavailable` answer `gw` gave: it
    /// carries the health interval as its retry hint, it is counted,
    /// it is not cached, its hop span is `unavailable`, and no stage
    /// ran in the gateway (the stats have no server `hist` of its own).
    fn assert_unavailable(gw: &Gateway, resp: &Json, id: &str) {
        assert_eq!(resp.get("id").and_then(Json::as_str), Some(id));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let err = resp.get("error").expect("error object");
        assert_eq!(err.get("phase").and_then(Json::as_str), Some("admission"));
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some("admission/unavailable")
        );
        assert_eq!(err.get("retry_after_ms").and_then(Json::as_u64), Some(250));
        let stats = gw.stats_json();
        let gws = stats.get("gateway").unwrap();
        assert_eq!(gws.get("unavailable").and_then(Json::as_u64), Some(1));
        assert_eq!(
            gws.get("admission_cache_entries").and_then(Json::as_u64),
            Some(0)
        );
        assert!(stats.get("hist").is_none(), "no stage ran in the gateway");
        assert!(stats.get("executions").is_none());
        let log = query(gw, ControlOp::Slowlog { since: 0 });
        let Some(Json::Arr(entries)) = log.get("entries") else {
            panic!("slowlog entries");
        };
        let Some(Json::Arr(spans)) = entries.last().and_then(|e| e.get("spans")) else {
            panic!("span breakdown");
        };
        let last = spans.last().expect("a hop span");
        assert_eq!(last.get("name").and_then(Json::as_str), Some("unavailable"));
        assert_eq!(
            last.get("detail").and_then(Json::as_str),
            Some("retry_after_ms=250")
        );
    }

    #[test]
    fn empty_cluster_answers_unavailable() {
        let gw = capturing(Vec::new()).build();
        let resp = gw.submit(&Request::new("r1", Stage::Estimate, GOOD, "k"));
        assert_unavailable(&gw, &resp, "r1");
        let stats = gw.stats_json();
        assert!(stats.get("requests").is_none(), "no shard stats to merge");
        let gws = stats.get("gateway").unwrap();
        assert_eq!(gws.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(gws.get("shards_live").and_then(Json::as_u64), Some(0));
        assert_eq!(gws.get("replication").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn all_shards_dead_answers_unavailable() {
        let gw = capturing(vec![dead_addr(), dead_addr()]).build();
        assert_eq!(gw.live_shards(), 0);
        let resp = gw.submit(&Request::new("r1", Stage::Check, GOOD, "k"));
        assert_unavailable(&gw, &resp, "r1");
        // Dead shards never received anything.
        for s in gw.shard_snapshots() {
            assert!(!s.alive);
            assert_eq!(s.routed, 0);
        }
    }

    #[test]
    fn draining_every_shard_answers_unavailable() {
        let addr = dead_addr();
        let gw = capturing(vec![addr.clone()]).build();
        let ack = gw.drain(&addr);
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ack.get("keys_scheduled").and_then(Json::as_u64), Some(0));
        let resp = gw.submit(&Request::new("r1", Stage::Check, GOOD, "k"));
        assert_unavailable(&gw, &resp, "r1");
        let snaps = gw.shard_snapshots();
        assert!(snaps[0].draining);
        assert_eq!(snaps[0].routed, 0);
    }

    #[test]
    fn drain_of_unknown_shard_is_an_error_ack() {
        let gw = GatewayConfig::new(Vec::<String>::new()).build();
        let ack = gw.drain("10.9.9.9:1");
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(false));
        let code = ack
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_eq!(code, Some("protocol/unknown-shard"));
    }

    #[test]
    fn undrain_joins_a_new_shard_into_the_topology() {
        let gw = GatewayConfig::new(Vec::<String>::new())
            .connect_timeout(Duration::from_millis(100))
            .build();
        assert_eq!(gw.shard_count(), 0);
        let ack = gw.undrain(&dead_addr(), Some(2.0));
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ack.get("joined").and_then(Json::as_bool), Some(true));
        assert_eq!(gw.shard_count(), 1);
        let snaps = gw.shard_snapshots();
        assert_eq!(snaps[0].weight, 2.0);
        assert!(!snaps[0].draining);
        // Joining the same address again is idempotent.
        let again = gw.undrain(&snaps[0].addr, None);
        assert_eq!(again.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(gw.shard_count(), 1);
    }

    #[test]
    fn undrain_reweights_an_existing_shard() {
        let addr = dead_addr();
        let gw = GatewayConfig::new([addr.clone()])
            .connect_timeout(Duration::from_millis(100))
            .build();
        assert_eq!(gw.shard_snapshots()[0].weight, 1.0);
        let ack = gw.undrain(&addr, Some(3.0));
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ack.get("joined").and_then(Json::as_bool), Some(false));
        assert_eq!(ack.get("weight").and_then(Json::as_f64), Some(3.0));
        assert_eq!(gw.shard_snapshots()[0].weight, 3.0);
        // Without a weight the op leaves the current weight in place.
        let ack = gw.undrain(&addr, None);
        assert_eq!(ack.get("weight").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn traced_request_to_an_empty_cluster_answers_unavailable() {
        let gw = capturing(Vec::new()).build();
        let resp = gw.submit(&Request::new("r1", Stage::Estimate, GOOD, "k").traced("t-local"));
        assert_unavailable(&gw, &resp, "r1");
        let trace = resp.get("trace").expect("traced response carries a trace");
        assert_eq!(trace.get("id").and_then(Json::as_str), Some("t-local"));
        let Some(Json::Arr(spans)) = trace.get("spans") else {
            panic!("spans array");
        };
        // The gateway's own hop is the whole story: no stage ran.
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").and_then(Json::as_str),
            Some("unavailable")
        );

        // The combined entry landed in the gateway's journal.
        let journal = query(&gw, ControlOp::Trace);
        let Some(Json::Arr(entries)) = journal.get("entries") else {
            panic!("journal entries");
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].get("trace").and_then(Json::as_str),
            Some("t-local")
        );
        assert!(entries[0].get("wall_us").and_then(Json::as_u64).is_some());

        // Untraced requests stay trace-free and are not cached either.
        let bare = gw.submit(&Request::new("r2", Stage::Check, GOOD, "k"));
        assert!(bare.get("trace").is_none());
        let stats = gw.stats_json();
        let gws = stats.get("gateway").unwrap();
        assert_eq!(gws.get("unavailable").and_then(Json::as_u64), Some(2));
        assert_eq!(
            gws.get("admission_cache_entries").and_then(Json::as_u64),
            Some(0)
        );

        // Liveness summary: an empty cluster is still alive.
        let health = query(&gw, ControlOp::Health);
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(health.get("shards_live").and_then(Json::as_u64), Some(0));
        assert_eq!(health.get("shards_dead").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn windows_and_slowlog_capture_untraced_routed_work() {
        let shard = spawn_shard();
        let gw = GatewayConfig::new([shard.addr.clone()])
            .telemetry(TelemetryConfig::new().slow_threshold_ms(0))
            .build();
        let resp = gw.submit(&Request::new("r1", Stage::Estimate, GOOD, "k"));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert!(resp.get("trace").is_none(), "untraced response stays bare");

        let stats = gw.stats_json();
        let gws = stats.get("gateway").unwrap();
        let window = gws.get("window").expect("gateway window section");
        assert_eq!(window.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(window.get("errors").and_then(Json::as_u64), Some(0));
        assert!(window.get("rate").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(window.get("in_flight").and_then(Json::as_u64), Some(0));
        let journals = gws.get("journals").expect("gateway journals section");
        assert_eq!(
            journals.get("trace_dropped").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            journals.get("slowlog_dropped").and_then(Json::as_u64),
            Some(0)
        );

        // A zero threshold captured the request — spans and all —
        // without the client asking for a trace.
        let log = query(&gw, ControlOp::Slowlog { since: 0 });
        assert_eq!(log.get("last_seq").and_then(Json::as_u64), Some(1));
        let Some(Json::Arr(entries)) = log.get("entries") else {
            panic!("slowlog entries");
        };
        assert_eq!(entries.len(), 1);
        assert!(
            entries[0].get("trace").is_none(),
            "untraced capture carries no trace id"
        );
        assert_eq!(entries[0].get("id").and_then(Json::as_str), Some("r1"));
        let Some(Json::Arr(spans)) = entries[0].get("spans") else {
            panic!("span breakdown");
        };
        assert_eq!(
            spans[0].get("name").and_then(Json::as_str),
            Some(format!("shard:{}", shard.addr).as_str())
        );
        // Cursoring past the newest capture drains the view.
        let tail = query(&gw, ControlOp::Slowlog { since: 1 });
        let Some(Json::Arr(rest)) = tail.get("entries") else {
            panic!();
        };
        assert!(rest.is_empty());
        // Slow capture is not tracing: the trace journal stayed empty.
        let journal = query(&gw, ControlOp::Trace);
        let Some(Json::Arr(traced)) = journal.get("entries") else {
            panic!();
        };
        assert!(traced.is_empty());

        // Health carries both drop counters for probes.
        let health = query(&gw, ControlOp::Health);
        assert_eq!(health.get("trace_dropped").and_then(Json::as_u64), Some(0));
        assert_eq!(
            health.get("slowlog_dropped").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn shard_entries_carry_window_gauges() {
        let addr = dead_addr();
        let gw = GatewayConfig::new([addr])
            .connect_timeout(Duration::from_millis(100))
            .build();
        let stats = gw.stats_json();
        let Some(Json::Arr(shards)) = stats.get("gateway").and_then(|g| g.get("shards")) else {
            panic!("shards array");
        };
        let s = &shards[0];
        assert_eq!(s.get("window_routed").and_then(Json::as_u64), Some(0));
        assert_eq!(s.get("window_rate").and_then(Json::as_f64), Some(0.0));
        assert_eq!(s.get("window_p99_us").and_then(Json::as_f64), Some(0.0));
        // The whole object stays machine-parseable (no NaN leaks from
        // the empty windowed histogram).
        assert!(Json::parse(&stats.emit()).is_ok());
    }
}
