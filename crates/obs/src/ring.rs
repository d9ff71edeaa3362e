//! The bounded, sequence-numbered ring behind every in-process journal:
//! the trace journal, the slow-request log, and the alert journal.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A bounded ring of `(seq, entry)` pairs. Pushing beyond capacity
/// evicts the oldest entry and counts it as dropped, so memory is a
/// hard constant regardless of traffic. Sequence numbers (from 1) keep
/// advancing across evictions, so a poller reading "everything after
/// cursor N" can tell eviction from idleness.
#[derive(Debug)]
pub struct Ring<T> {
    cap: usize,
    inner: Mutex<State<T>>,
}

#[derive(Debug)]
struct State<T> {
    entries: VecDeque<(u64, T)>,
    dropped: u64,
    last_seq: u64,
}

/// A cursor read of a [`Ring`].
#[derive(Debug, Clone, PartialEq)]
pub struct RingSnapshot<T> {
    /// The retention bound.
    pub capacity: usize,
    /// Entries evicted over the ring's lifetime.
    pub dropped: u64,
    /// The newest sequence number ever assigned (0 when nothing was
    /// pushed) — the poller's next cursor.
    pub last_seq: u64,
    /// Retained `(seq, entry)` pairs with `seq > since`, oldest first.
    pub entries: Vec<(u64, T)>,
}

impl<T: Clone> Ring<T> {
    /// A ring retaining at most `cap` entries (clamped to at least 1).
    pub fn new(cap: usize) -> Ring<T> {
        Ring {
            cap: cap.max(1),
            inner: Mutex::new(State {
                entries: VecDeque::new(),
                dropped: 0,
                last_seq: 0,
            }),
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries evicted over the ring's lifetime.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Append an entry, evicting the oldest beyond capacity. Returns
    /// its sequence number.
    pub fn push(&self, entry: T) -> u64 {
        let mut s = self.inner.lock().unwrap();
        s.last_seq += 1;
        if s.entries.len() == self.cap {
            s.entries.pop_front();
            s.dropped += 1;
        }
        let seq = s.last_seq;
        s.entries.push_back((seq, entry));
        seq
    }

    /// The retained entries newer than the `since` cursor (0 reads
    /// everything retained), oldest first, plus the ring's counters.
    pub fn since(&self, since: u64) -> RingSnapshot<T> {
        let s = self.inner.lock().unwrap();
        RingSnapshot {
            capacity: self.cap,
            dropped: s.dropped,
            last_seq: s.last_seq,
            entries: s
                .entries
                .iter()
                .filter(|(seq, _)| *seq > since)
                .cloned()
                .collect(),
        }
    }
}
