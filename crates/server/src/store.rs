//! The tiered, content-addressed artifact store with single-flight
//! deduplication.
//!
//! Every pipeline stage result is cached under a [`Key`] —
//! `(source hash, stage, options hash)` — where the hashes are stable
//! 128-bit FNV digests ([`hls_sim::digest`]). Lookups run through up to
//! three tiers:
//!
//! 1. **memory** — a size-aware LRU ([`crate::evict`]): hit = pointer
//!    clone;
//! 2. **disk** — an optional [`DiskStore`]: read-through on a memory
//!    miss, write-behind after a compute, so a fresh process inherits
//!    the `check`, `cpp` and `est` results of every prior process (the
//!    other stages are recomputed from source; see [`crate::disk`]);
//! 3. **compute** — the pipeline stage itself, wrapped in
//!    *single-flight* semantics: when several threads request the same
//!    missing key concurrently, exactly one computes it while the rest
//!    block on the in-flight entry and share its result.
//!
//! Deterministic failures (parse and type errors) are cached exactly
//! like successes — a rejected program costs the checker once, no matter
//! how many times a sweep re-submits it. The one exception is
//! [`Phase::Internal`] diagnostics (caught panics): they stay
//! memory-only, so a tooling bug never poisons the persistent cache.
//!
//! [`Phase::Internal`]: dahlia_core::diag::Phase

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::disk::{DiskStats, DiskStore};
use crate::evict::{EvictConfig, EvictStats, Lru};
use crate::pipeline::{Artifact, Stage, STAGE_COUNT};
use dahlia_core::diag::{Diagnostic, Phase};
use dahlia_obs::{HistSnapshot, Histogram, Tier};

/// What the cache stores per key: a stage artifact or the diagnostic
/// that rejected the program (both deterministic, both shareable).
pub type CacheValue = Result<Artifact, Diagnostic>;

/// A content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Digest of the source text.
    pub source: u128,
    /// The pipeline stage.
    pub stage: Stage,
    /// Digest of the request options (kernel name, …); zero for stages
    /// whose artifact ignores the options (parse/check/desugar), so
    /// differently-named requests share those entries.
    pub options: u128,
}

/// One in-flight computation other threads can wait on.
struct Flight {
    result: Mutex<Option<CacheValue>>,
    done: Condvar,
}

/// Cumulative store counters (all monotonic except residency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the memory tier.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Lookups that joined another thread's in-flight computation.
    pub joins: u64,
    /// Joins broken down by stage (indexed by [`Stage::index`]) — the
    /// observable signal for which stages convoy under load.
    pub joins_by_stage: [u64; STAGE_COUNT],
    /// Computations actually executed, per stage (indexed by
    /// [`Stage::index`]).
    pub executions: [u64; STAGE_COUNT],
    /// Computations that only passed on an earlier stage's rejection,
    /// per stage (indexed by [`Stage::index`]): a type error reaching
    /// `est` through `lower`, say. Cached like any result, but neither
    /// an execution nor compute time.
    pub propagated: [u64; STAGE_COUNT],
    /// Cumulative wall time spent *computing* each stage, in
    /// nanoseconds (indexed by [`Stage::index`]) — cache hits and joins
    /// contribute nothing, so `compute_nanos[i] / executions[i]` is the
    /// observable mean cost of a real miss, and a front-end perf
    /// regression shows up in production stats, not just in benches.
    pub compute_nanos: [u64; STAGE_COUNT],
    /// Memory-tier eviction counters and residency.
    pub evict: EvictStats,
    /// Disk-tier counters (zero when no persistent tier is attached).
    pub disk: DiskStats,
}

impl StoreStats {
    /// Total computations across all stages.
    pub fn total_executions(&self) -> u64 {
        self.executions.iter().sum()
    }
}

/// Configuration for a [`Store`]: memory bounds plus an optional
/// persistent tier.
#[derive(Clone, Default)]
pub struct StoreConfig {
    /// Memory-tier bounds (unbounded by default).
    pub evict: EvictConfig,
    /// Persistent tier, layered under memory (none by default).
    pub tier: Option<Arc<DiskStore>>,
}

struct Inner {
    lru: Lru<Key, CacheValue>,
    inflight: HashMap<Key, Arc<Flight>>,
}

/// The concurrent tiered artifact store.
pub struct Store {
    inner: Mutex<Inner>,
    tier: Option<Arc<DiskStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    joins: AtomicU64,
    joins_by_stage: [AtomicU64; STAGE_COUNT],
    executions: [AtomicU64; STAGE_COUNT],
    propagated: [AtomicU64; STAGE_COUNT],
    compute_nanos: [AtomicU64; STAGE_COUNT],
    compute_hist: [Histogram; STAGE_COUNT],
}

impl Default for Store {
    fn default() -> Self {
        Store::with_config(StoreConfig::default())
    }
}

impl Store {
    /// An unbounded, memory-only store (PR 1 behaviour).
    pub fn new() -> Store {
        Store::default()
    }

    /// A store with the given memory bounds and persistent tier.
    pub fn with_config(cfg: StoreConfig) -> Store {
        Store {
            inner: Mutex::new(Inner {
                lru: Lru::new(cfg.evict),
                inflight: HashMap::new(),
            }),
            tier: cfg.tier,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            joins_by_stage: Default::default(),
            executions: Default::default(),
            propagated: Default::default(),
            compute_nanos: Default::default(),
            compute_hist: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Number of completed entries currently resident in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().lru.len()
    }

    /// Is the memory tier empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every memory-tier entry (counters and the persistent tier
    /// are preserved — a cleared store re-warms from disk).
    pub fn clear(&self) {
        self.inner.lock().unwrap().lru.clear();
    }

    /// Block until the persistent tier has written everything queued.
    pub fn flush(&self) {
        if let Some(tier) = &self.tier {
            tier.flush();
        }
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let load = |xs: &[AtomicU64; STAGE_COUNT]| -> [u64; STAGE_COUNT] {
            std::array::from_fn(|i| xs[i].load(Ordering::Relaxed))
        };
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            joins: self.joins.load(Ordering::Relaxed),
            joins_by_stage: load(&self.joins_by_stage),
            executions: load(&self.executions),
            propagated: load(&self.propagated),
            compute_nanos: load(&self.compute_nanos),
            evict: self.inner.lock().unwrap().lru.stats(),
            disk: self.tier.as_ref().map(|t| t.stats()).unwrap_or_default(),
        }
    }

    /// Probe the memory tier alone: the value on a hit (counted as
    /// one), `None` otherwise. It takes the LRU lock and nothing else —
    /// it never joins a flight, reads the disk, or computes — so a
    /// thread that must not block can ask.
    pub fn probe(&self, key: &Key) -> Option<CacheValue> {
        let v = self.inner.lock().unwrap().lru.get(key).cloned()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Look `key` up through the tiers; on a full miss, run `compute`
    /// (exactly once across all concurrent callers) and cache its
    /// result. Returns the value and whether it was served without
    /// running `compute` on this call (a memory/disk hit or a
    /// single-flight join).
    pub fn get_or_compute(
        &self,
        key: Key,
        compute: impl FnOnce() -> CacheValue,
    ) -> (CacheValue, bool) {
        let (value, tier) = self.get_or_compute_tiered(key, compute);
        (value, tier.cached())
    }

    /// [`Store::get_or_compute`], additionally reporting **which tier**
    /// answered: memory hit, disk read-through, single-flight join, or
    /// a fresh computation. Request tracing attributes each stage
    /// lookup with this.
    pub fn get_or_compute_tiered(
        &self,
        key: Key,
        compute: impl FnOnce() -> CacheValue,
    ) -> (CacheValue, Tier) {
        let flight = {
            let mut inner = self.inner.lock().unwrap();
            if let Some(v) = inner.lru.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (v.clone(), Tier::Memory);
            }
            if let Some(f) = inner.inflight.get(&key) {
                let f = Arc::clone(f);
                drop(inner);
                self.joins.fetch_add(1, Ordering::Relaxed);
                self.joins_by_stage[key.stage.index()].fetch_add(1, Ordering::Relaxed);
                let mut slot = f.result.lock().unwrap();
                while slot.is_none() {
                    slot = f.done.wait(slot).unwrap();
                }
                return (slot.as_ref().unwrap().clone(), Tier::Join);
            }
            let f = Arc::new(Flight {
                result: Mutex::new(None),
                done: Condvar::new(),
            });
            inner.inflight.insert(key, Arc::clone(&f));
            f
        };

        // We are the designated fetcher for this key. Read through the
        // persistent tier first: joiners benefit either way.
        if let Some(tier) = &self.tier {
            if let Some(value) = tier.load(&key) {
                self.publish(key, &flight, value.clone());
                return (value, Tier::Disk);
            }
        }

        // Full miss: compute. A panicking compute must still resolve the
        // flight — otherwise the in-flight slot wedges this key forever
        // and every joiner (present and future) blocks on the condvar.
        // Convert panics into cached internal diagnostics instead.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compute_start = Instant::now();
        let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute)).unwrap_or_else(
            |payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "compiler panicked".to_string());
                Err(Diagnostic {
                    phase: Phase::Internal,
                    code: "internal/panic",
                    message: msg,
                    span: dahlia_core::Span::synthetic(),
                })
            },
        );

        let i = key.stage.index();
        if propagated(key.stage, &value) {
            self.propagated[i].fetch_add(1, Ordering::Relaxed);
        } else {
            let nanos = compute_start.elapsed().as_nanos() as u64;
            self.executions[i].fetch_add(1, Ordering::Relaxed);
            self.compute_nanos[i].fetch_add(nanos, Ordering::Relaxed);
            // Beside the flat sum: the per-stage compute-cost distribution
            // (microseconds), for the stats `hist` section and /metrics.
            self.compute_hist[i].record(nanos / 1_000);
        }

        // Write-behind to the persistent tier — but never persist
        // internal diagnostics: a caught panic is a tooling bug, not a
        // property of the program, and must not outlive the process.
        if let Some(tier) = &self.tier {
            let internal = matches!(&value, Err(d) if d.phase == Phase::Internal);
            if !internal {
                tier.store(&key, &value);
            }
        }
        self.publish(key, &flight, value.clone());
        (value, Tier::Computed)
    }

    /// Snapshots of the per-stage compute-cost histograms (µs), indexed
    /// by [`Stage::index`]. Stages that never computed yield empty
    /// snapshots.
    pub fn compute_hists(&self) -> [HistSnapshot; STAGE_COUNT] {
        std::array::from_fn(|i| self.compute_hist[i].snapshot())
    }

    /// Install a resolved value: memory tier, then wake all joiners.
    fn publish(&self, key: Key, flight: &Arc<Flight>, value: CacheValue) {
        // Size the entry before taking the lock: the weight estimate can
        // pretty-print an AST, which must not run inside the critical
        // section every worker contends on.
        let bytes = crate::evict::weight(&value);
        {
            let mut inner = self.inner.lock().unwrap();
            inner.inflight.remove(&key);
            inner.lru.insert(key, value.clone(), bytes);
        }
        let mut slot = flight.result.lock().unwrap();
        *slot = Some(value);
        drop(slot);
        flight.done.notify_all();
    }
}

/// Is `value` a rejection from a phase before `stage` — a lex or parse
/// error reaching `check`, or any non-internal diagnostic reaching a
/// stage after `check` — that the stage only passed on?
fn propagated(stage: Stage, value: &CacheValue) -> bool {
    let Err(d) = value else { return false };
    match stage {
        Stage::Parse => false,
        Stage::Check => matches!(d.phase, Phase::Lex | Phase::Parse),
        _ => d.phase != Phase::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Options;
    use std::sync::atomic::AtomicUsize;

    fn key(n: u128) -> Key {
        Key {
            source: n,
            stage: Stage::Parse,
            options: Options::default().digest(),
        }
    }

    fn value() -> CacheValue {
        Ok(Artifact::Cpp(Arc::new("x".to_string())))
    }

    #[test]
    fn second_lookup_hits() {
        let store = Store::new();
        let (_, cached) = store.get_or_compute(key(1), value);
        assert!(!cached);
        let (_, cached) = store.get_or_compute(key(1), || panic!("must not recompute"));
        assert!(cached);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.joins), (1, 1, 0));
        assert_eq!(s.executions[Stage::Parse.index()], 1);
        assert_eq!(store.len(), 1);
        assert!(s.evict.resident_bytes > 0);
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let store = Store::new();
        let _ = store.get_or_compute(key(1), value);
        let _ = store.get_or_compute(key(2), value);
        let mut other = key(1);
        other.stage = Stage::Check;
        let _ = store.get_or_compute(other, || Ok(Artifact::Cpp(Arc::new(String::new()))));
        assert_eq!(store.stats().misses, 3);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn compute_time_accrues_only_on_real_computes() {
        let store = Store::new();
        let _ = store.get_or_compute(key(21), || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            value()
        });
        let after_miss = store.stats();
        let t = after_miss.compute_nanos[Stage::Parse.index()];
        assert!(t >= 5_000_000, "computed stage accrued wall time: {t}");
        assert_eq!(after_miss.compute_nanos[Stage::Check.index()], 0);
        // A hit adds nothing.
        let _ = store.get_or_compute(key(21), || panic!("cached"));
        assert_eq!(
            store.stats().compute_nanos[Stage::Parse.index()],
            t,
            "hits must not accrue compute time"
        );
    }

    #[test]
    fn errors_are_cached_too() {
        let store = Store::new();
        let diag = dahlia_core::parse("let = oops").unwrap_err().diagnostic();
        let _ = store.get_or_compute(key(9), || Err(diag.clone()));
        let (v, cached) = store.get_or_compute(key(9), || panic!("cached error"));
        assert!(cached);
        assert_eq!(v.unwrap_err(), diag);
    }

    #[test]
    fn bounded_store_evicts_and_recomputes() {
        let store = Store::with_config(StoreConfig {
            evict: EvictConfig::unbounded().entries(2),
            tier: None,
        });
        let _ = store.get_or_compute(key(1), value);
        let _ = store.get_or_compute(key(2), value);
        let _ = store.get_or_compute(key(1), value); // touch: 2 is now LRU
        let _ = store.get_or_compute(key(3), value); // evicts 2
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evict.evictions, 1);
        let (_, cached) = store.get_or_compute(key(1), || panic!("1 was touched"));
        assert!(cached);
        let (_, cached) = store.get_or_compute(key(2), value);
        assert!(!cached, "evicted key recomputes");
    }

    #[test]
    fn joins_are_counted_per_stage() {
        let store = Arc::new(Store::new());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    store.get_or_compute(key(11), || {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        value()
                    })
                });
            }
        });
        let s = store.stats();
        assert_eq!(s.joins_by_stage.iter().sum::<u64>(), s.joins);
        assert_eq!(s.joins_by_stage[Stage::Parse.index()], s.joins);
        assert_eq!(s.joins_by_stage[Stage::Check.index()], 0);
    }

    #[test]
    fn panicking_compute_resolves_the_flight() {
        let store = Arc::new(Store::new());
        let k = key(13);
        // A joiner waiting on the panicking leader must be released with
        // the internal diagnostic, not blocked forever.
        let joiner = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                store.get_or_compute(k, value)
            })
        };
        let (v, cached) = store.get_or_compute(k, || {
            std::thread::sleep(std::time::Duration::from_millis(80));
            panic!("compiler bug {}", 42)
        });
        assert!(!cached);
        let d = v.unwrap_err();
        assert_eq!(d.code, "internal/panic");
        assert_eq!(d.phase, Phase::Internal);
        assert!(d.message.contains("compiler bug 42"), "{}", d.message);
        let (jv, jcached) = joiner.join().expect("joiner released");
        assert!(jcached);
        assert_eq!(jv.unwrap_err().code, "internal/panic");
        // The key is not wedged: later lookups hit the cached diagnostic.
        let (v2, cached2) = store.get_or_compute(k, || panic!("must not recompute"));
        assert!(cached2);
        assert_eq!(v2.unwrap_err().code, "internal/panic");
    }

    #[test]
    fn tiered_lookup_reports_which_tier_answered() {
        let store = Store::new();
        let (_, tier) = store.get_or_compute_tiered(key(31), value);
        assert_eq!(tier, Tier::Computed);
        let (_, tier) = store.get_or_compute_tiered(key(31), || panic!("cached"));
        assert_eq!(tier, Tier::Memory);
        // The per-stage compute histogram counted exactly the one
        // execution, none of the hits.
        let hists = store.compute_hists();
        assert_eq!(hists[Stage::Parse.index()].count, 1);
        assert_eq!(hists[Stage::Check.index()].count, 0);
    }

    #[test]
    fn concurrent_misses_single_flight() {
        let store = Arc::new(Store::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(16));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let store = Arc::clone(&store);
                let executions = Arc::clone(&executions);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    let _ = store.get_or_compute(key(7), || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        value()
                    });
                });
            }
        });
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "exactly one computation"
        );
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.joins + stats.hits, 15);
    }
}
