//! The slow-request log: a bounded, cursor-addressable journal of
//! requests that exceeded a latency threshold.
//!
//! The trace [`Journal`](crate::Journal) only sees requests whose
//! *client* asked for a trace — a tail-latency regression that nobody
//! thought to trace is invisible. The [`SlowLog`] closes that hole:
//! the host records spans cheaply for **every** request, discards them
//! on the fast path, and retroactively captures the full breakdown of
//! any request whose wall latency crossed the threshold. Entries carry
//! a monotonically increasing sequence number so pollers can ask
//! "everything after cursor N" (`{"op":"slowlog","since":N}`) without
//! re-downloading the whole ring every poll.

use crate::ring::Ring;
use crate::trace::TraceEntry;

/// The slow-request log: a [`Ring`] of captures. An entry's `trace`
/// holds the client's trace id when the request happened to be traced,
/// and is empty for the (typical) untraced capture.
pub type SlowLog = Ring<TraceEntry>;

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> TraceEntry {
        TraceEntry {
            trace: String::new(),
            id: format!("r{n}"),
            stage: "est".into(),
            ok: true,
            wall_us: n,
            spans: Vec::new(),
        }
    }

    fn seqs(log: &SlowLog, since: u64) -> Vec<u64> {
        log.since(since).entries.iter().map(|(s, _)| *s).collect()
    }

    #[test]
    fn sequences_advance_and_cursors_filter() {
        let log = SlowLog::new(10);
        for n in 1..=5 {
            assert_eq!(log.push(entry(n)), n);
        }
        let all = log.since(0);
        assert_eq!(all.last_seq, 5);
        assert_eq!(all.entries.len(), 5);
        assert_eq!(seqs(&log, 3), vec![4, 5]);
        assert!(log.since(5).entries.is_empty());
    }

    #[test]
    fn eviction_counts_drops_but_sequences_survive() {
        let log = SlowLog::new(2);
        for n in 1..=5 {
            log.push(entry(n));
        }
        let snap = log.since(0);
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.last_seq, 5);
        assert_eq!(seqs(&log, 0), vec![4, 5], "only the newest two retained");
        assert_eq!(log.capacity(), 2);
        assert_eq!(log.dropped(), 3);
    }
}
