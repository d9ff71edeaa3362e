//! The one bounded map, and the size estimate the store weighs its
//! artifacts with.
//!
//! PR 1's store grew without bound — fine for one sweep, fatal for a
//! long-lived service. [`Lru`] bounds a map by **entry count** and by
//! the **summed weight** of its values ([`EvictConfig`]); when either
//! cap is exceeded the least-recently-used entries are dropped (and
//! counted, so eviction pressure is observable in server stats). Every
//! in-memory cache in the workspace is one: the store's memory tier,
//! the gateway's admission cache, and each shard's warm-key ledger.
//!
//! The structure is a `HashMap` from key to value plus a `BTreeMap`
//! from a monotonic use-stamp back to the key: touches are `O(log n)`,
//! eviction pops the smallest stamp. No wall clock is involved, so
//! behaviour is fully deterministic and testable.
//!
//! Callers weigh a value before taking the lock that guards the map, so
//! the estimate never runs inside a critical section. The store uses
//! [`weight`], a cheap structural estimate (exact for C++ text,
//! walk-based for IR, pretty-print-based for ASTs); per-entry
//! bookkeeping overhead is folded in as a flat constant.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::pipeline::Artifact;
use crate::store::CacheValue;

/// Bounds for the in-memory tier. `usize::MAX` (the default) means
/// unbounded, preserving PR 1 behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictConfig {
    /// Maximum number of resident entries.
    pub max_entries: usize,
    /// Maximum approximate resident bytes.
    pub max_bytes: usize,
}

impl Default for EvictConfig {
    fn default() -> Self {
        EvictConfig {
            max_entries: usize::MAX,
            max_bytes: usize::MAX,
        }
    }
}

impl EvictConfig {
    /// An unbounded configuration.
    pub fn unbounded() -> EvictConfig {
        EvictConfig::default()
    }

    /// Bound by entry count.
    pub fn entries(mut self, max_entries: usize) -> EvictConfig {
        self.max_entries = max_entries;
        self
    }

    /// Bound by approximate payload bytes.
    pub fn bytes(mut self, max_bytes: usize) -> EvictConfig {
        self.max_bytes = max_bytes;
        self
    }
}

/// Approximate resident size of a cache value, in bytes.
///
/// This is an *accounting* estimate, not an allocator measurement: it
/// must be cheap (it runs once per insertion under the store lock),
/// monotone in payload size, and stable across runs.
pub fn weight(value: &CacheValue) -> usize {
    const ENTRY_OVERHEAD: usize = 96;
    ENTRY_OVERHEAD
        + match value {
            Ok(Artifact::Cpp(text)) => text.len(),
            Ok(Artifact::Check(_)) => std::mem::size_of::<dahlia_core::CheckReport>(),
            Ok(Artifact::Estimate(e)) => {
                std::mem::size_of::<hls_sim::Estimate>()
                    + e.name.len()
                    + e.notes.iter().map(|n| n.len() + 24).sum::<usize>()
            }
            Ok(Artifact::Ir(k)) => kernel_weight(k),
            // ASTs have no cheap structural size; charge the pretty-printed
            // text times a small factor for node overhead. Printing is
            // linear and runs once per computed artifact, which is noise
            // next to the parse that produced it.
            Ok(Artifact::Ast(p)) | Ok(Artifact::Desugared(p)) => {
                8 * dahlia_core::pretty::program(p).len()
            }
            Err(d) => d.code.len() + d.message.len(),
        }
}

fn kernel_weight(k: &hls_sim::Kernel) -> usize {
    fn stmts(body: &[hls_sim::ir::Stmt]) -> usize {
        body.iter()
            .map(|s| match s {
                hls_sim::ir::Stmt::Loop(l) => 64 + l.var.len() + stmts(&l.body),
                hls_sim::ir::Stmt::Op(o) => {
                    48 + o
                        .reads
                        .iter()
                        .chain(&o.writes)
                        .map(|a| 32 + a.array.len() + 24 * a.idx.len())
                        .sum::<usize>()
                }
            })
            .sum()
    }
    64 + k.name.len()
        + k.arrays
            .iter()
            .map(|a| 48 + a.name.len() + 8 * (a.dims.len() + a.partition.len()))
            .sum::<usize>()
        + stmts(&k.body)
}

/// Eviction counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// Entries evicted so far.
    pub evictions: u64,
    /// Approximate bytes reclaimed by eviction.
    pub evicted_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
    /// Approximate bytes currently resident.
    pub resident_bytes: u64,
}

/// A least-recently-used map bounded by entry count and by the summed
/// weight its callers assign to values.
///
/// Not internally synchronized: each owner wraps it in its own mutex
/// (every operation needs the map anyway, so a second lock would only
/// add overhead).
#[derive(Debug)]
pub struct Lru<K, V> {
    cfg: EvictConfig,
    entries: HashMap<K, EntrySlot<V>>,
    order: BTreeMap<u64, K>,
    clock: u64,
    bytes: usize,
    evictions: u64,
    evicted_bytes: u64,
}

#[derive(Debug)]
struct EntrySlot<V> {
    stamp: u64,
    bytes: usize,
    value: V,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty map with the given bounds. A map bounded to zero
    /// entries holds nothing.
    pub fn new(cfg: EvictConfig) -> Lru<K, V> {
        Lru {
            cfg,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            bytes: 0,
            evictions: 0,
            evicted_bytes: 0,
        }
    }

    /// The entry bound.
    pub fn cap(&self) -> usize {
        self.cfg.max_entries
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed weight of the resident entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Eviction counters plus current residency.
    pub fn stats(&self) -> EvictStats {
        EvictStats {
            evictions: self.evictions,
            evicted_bytes: self.evicted_bytes,
            resident_entries: self.entries.len() as u64,
            resident_bytes: self.bytes as u64,
        }
    }

    /// Drop every entry (counters survive; residency resets).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.bytes = 0;
    }

    /// Look up and touch: a hit moves the entry to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// [`Lru::get`], lending the value mutably. A change to it keeps
    /// the weight it was inserted with.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let slot = self.entries.get_mut(key)?;
        let key = self
            .order
            .remove(&slot.stamp)
            .expect("order/entries in sync");
        slot.stamp = self.clock;
        self.order.insert(self.clock, key);
        Some(&mut slot.value)
    }

    /// Insert (or replace) an entry of the given `weight` as
    /// most-recently-used, then evict least-recently-used entries until
    /// both caps hold again. The just-inserted entry is evicted last —
    /// but *is* evicted if it alone exceeds `max_bytes` (the map never
    /// lies about its bound).
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        self.clock += 1;
        let slot = EntrySlot {
            stamp: self.clock,
            bytes: weight,
            value,
        };
        if let Some(old) = self.entries.insert(key.clone(), slot) {
            self.order.remove(&old.stamp);
            self.bytes -= old.bytes;
        }
        self.order.insert(self.clock, key);
        self.bytes += weight;
        while self.entries.len() > self.cfg.max_entries || self.bytes > self.cfg.max_bytes {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            let slot = self.entries.remove(&victim).expect("order/entries in sync");
            self.bytes -= slot.bytes;
            self.evictions += 1;
            self.evicted_bytes += slot.bytes as u64;
        }
    }

    /// The values, least-recently-used first.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.order.values().map(|k| &self.entries[k].value)
    }

    /// Empty the map, returning its values least-recently-used first
    /// (counters survive; residency resets).
    pub fn take_all(&mut self) -> Vec<V> {
        self.bytes = 0;
        let mut entries = std::mem::take(&mut self.entries);
        std::mem::take(&mut self.order)
            .into_values()
            .filter_map(|k| entries.remove(&k).map(|slot| slot.value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Stage;
    use crate::store::Key;
    use std::sync::Arc;

    fn key(n: u128) -> Key {
        Key {
            source: n,
            stage: Stage::Cpp,
            options: 0,
        }
    }

    fn cpp(text: &str) -> CacheValue {
        Ok(Artifact::Cpp(Arc::new(text.to_string())))
    }

    /// The store's memory tier: cache keys to artifacts, weighed by
    /// [`weight`].
    type Tier = Lru<Key, CacheValue>;

    fn put(lru: &mut Tier, n: u128, text: &str) {
        let value = cpp(text);
        let bytes = weight(&value);
        lru.insert(key(n), value, bytes);
    }

    /// A gateway-style map: small keys to strings weighed by length.
    fn strings(max_entries: usize, max_bytes: usize) -> Lru<u32, String> {
        Lru::new(
            EvictConfig::unbounded()
                .entries(max_entries)
                .bytes(max_bytes),
        )
    }

    fn put_str(lru: &mut Lru<u32, String>, k: u32, v: &str) {
        lru.insert(k, v.to_string(), v.len());
    }

    fn resident(lru: &Tier, n: u128) -> bool {
        // Peek without disturbing order is not offered; use the entry map.
        lru.entries.contains_key(&key(n))
    }

    #[test]
    fn entry_cap_evicts_least_recently_used() {
        let mut lru = Lru::new(EvictConfig::unbounded().entries(2));
        put(&mut lru, 1, "a");
        put(&mut lru, 2, "b");
        assert!(lru.get(&key(1)).is_some(), "touch 1: now 2 is LRU");
        put(&mut lru, 3, "c");
        assert!(resident(&lru, 1), "recently touched survives");
        assert!(!resident(&lru, 2), "LRU victim");
        assert!(resident(&lru, 3));
        let s = lru.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_entries, 2);
    }

    #[test]
    fn byte_cap_evicts_until_under() {
        let payload = "x".repeat(400);
        let per_entry = weight(&cpp(&payload));
        let mut lru = Lru::new(EvictConfig::unbounded().bytes(2 * per_entry));
        put(&mut lru, 1, &payload);
        put(&mut lru, 2, &payload);
        assert_eq!(lru.stats().evictions, 0);
        put(&mut lru, 3, &payload);
        assert_eq!(lru.stats().evictions, 1);
        assert!(!resident(&lru, 1));
        assert!(lru.bytes() <= 2 * per_entry);
    }

    #[test]
    fn oversized_entry_does_not_wedge_the_cache() {
        let mut lru = Lru::new(EvictConfig::unbounded().bytes(64));
        put(&mut lru, 1, &"y".repeat(4096));
        assert_eq!(lru.len(), 0, "an entry above the cap cannot stay");
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn replacement_does_not_double_count() {
        let mut lru = Lru::new(EvictConfig::unbounded());
        put(&mut lru, 1, "short");
        let b1 = lru.bytes();
        put(&mut lru, 1, "a much longer replacement payload");
        assert!(lru.bytes() > b1);
        assert_eq!(lru.len(), 1);
        lru.clear();
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
    }

    #[test]
    fn evicts_least_recent_past_either_bound() {
        // Untouched entries leave in insertion order.
        let mut f = strings(2, 100);
        for k in 0..3 {
            put_str(&mut f, k, "x");
        }
        assert_eq!((f.len(), f.get(&0)), (2, None), "entry cap");
        // The weight is whatever the caller says it is.
        let mut f = strings(10, 5);
        put_str(&mut f, 1, "abc");
        put_str(&mut f, 2, "abc");
        assert_eq!(f.values().collect::<Vec<_>>(), ["abc"], "byte cap");
        assert!(f.get(&1).is_none());
    }

    #[test]
    fn replacing_a_key_reweighs_it_and_makes_it_most_recent() {
        let mut f = strings(10, 6);
        put_str(&mut f, 1, "aaaa");
        put_str(&mut f, 2, "b");
        put_str(&mut f, 1, "a");
        put_str(&mut f, 3, "cccc");
        // 1 (1 byte) + 2 (1) + 3 (4) = 6 fits: the replacement shrank 1.
        assert_eq!(f.len(), 3);
        assert_eq!(f.take_all(), ["b", "a", "cccc"], "oldest first");
        assert_eq!((f.len(), f.bytes()), (0, 0));
        put_str(&mut f, 4, "dddddd");
        assert_eq!(f.len(), 1, "bytes reset by take_all");
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        // A zero-capacity map (`--admission-cache 0`) holds nothing.
        let mut f = strings(0, 100);
        put_str(&mut f, 1, "a");
        assert_eq!((f.len(), f.bytes(), f.cap()), (0, 0, 0));
    }

    #[test]
    fn a_touched_key_outlives_newer_ones() {
        // A warm-key ledger keeps the key that keeps being routed while
        // a stream of newer one-off keys cycles through its bound.
        let mut f = strings(3, usize::MAX);
        put_str(&mut f, 0, "hot");
        for k in 1..100 {
            put_str(&mut f, k, "cold");
            assert_eq!(f.get(&0).map(String::as_str), Some("hot"), "after {k}");
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.values().last().map(String::as_str), Some("hot"));
    }

    #[test]
    fn weight_is_monotone_in_payload() {
        assert!(weight(&cpp(&"z".repeat(1000))) > weight(&cpp("z")));
    }
}
