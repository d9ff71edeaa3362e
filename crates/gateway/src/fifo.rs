//! The gateway's one bounded map, first in first out, capped by entry
//! count and by the summed weight of its values: each shard's warm-key
//! ledger (weighted by source bytes) and the admission cache (weighted
//! by response bytes). Neither needs recency, unlike the shard store's
//! memory tier (`dahlia_server::evict::Lru`).

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

pub(crate) struct Fifo<K, V> {
    cap: usize,
    max_bytes: usize,
    weight: fn(&V) -> usize,
    map: HashMap<K, (V, usize)>,
    order: VecDeque<K>,
    bytes: usize,
}

impl<K: Eq + Hash + Clone, V> Fifo<K, V> {
    /// At most `cap` entries (0 holds nothing) and `max_bytes` of
    /// summed `weight`.
    pub(crate) fn new(cap: usize, max_bytes: usize, weight: fn(&V) -> usize) -> Fifo<K, V> {
        Fifo {
            cap,
            max_bytes,
            weight,
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
        }
    }

    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Insert or replace. A new key evicts the oldest entries until both
    /// bounds hold again; a replaced key keeps its place in line.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        let size = (self.weight)(&value);
        match self.map.insert(key.clone(), (value, size)) {
            None => {
                self.order.push_back(key);
                self.bytes += size;
                while self.order.len() > self.cap || self.bytes > self.max_bytes {
                    let Some(old) = self.order.pop_front() else {
                        break;
                    };
                    if let Some((_, dropped)) = self.map.remove(&old) {
                        self.bytes -= dropped;
                    }
                }
            }
            Some((_, old_size)) => self.bytes = self.bytes - old_size + size,
        }
    }

    /// The values in insertion order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.order.iter().filter_map(|k| self.get(k))
    }

    /// Empty the map, returning its values in insertion order.
    pub(crate) fn take_all(&mut self) -> Vec<V> {
        self.bytes = 0;
        let mut map = std::mem::take(&mut self.map);
        self.order
            .drain(..)
            .filter_map(|k| map.remove(&k).map(|(v, _)| v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo(cap: usize, max_bytes: usize) -> Fifo<u32, String> {
        Fifo::new(cap, max_bytes, String::len)
    }

    #[test]
    fn evicts_oldest_past_either_bound() {
        let mut f = fifo(2, 100);
        for k in 0..3 {
            f.insert(k, "x".into());
        }
        assert_eq!((f.len(), f.get(&0)), (2, None), "entry cap");
        let mut f = fifo(10, 5);
        f.insert(1, "abc".into());
        f.insert(2, "abc".into());
        assert_eq!(f.values().collect::<Vec<_>>(), ["abc"], "byte cap");
        assert!(f.get(&1).is_none());
    }

    #[test]
    fn replacing_a_key_keeps_its_place_and_reweighs() {
        let mut f = fifo(10, 6);
        f.insert(1, "aaaa".into());
        f.insert(2, "b".into());
        f.insert(1, "a".into());
        f.insert(3, "cccc".into());
        // 1 (1 byte) + 2 (1) + 3 (4) = 6 fits: the replacement shrank 1.
        assert_eq!(f.len(), 3);
        assert_eq!(f.take_all(), ["a", "b", "cccc"], "insertion order");
        assert_eq!(f.len(), 0);
        f.insert(4, "dddddd".into());
        assert_eq!(f.len(), 1, "bytes reset by take_all");
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        let mut f = fifo(0, 100);
        f.insert(1, "a".into());
        assert_eq!(f.len(), 0);
    }
}
