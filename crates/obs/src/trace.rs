//! Request-scoped trace spans and the bounded trace journal.
//!
//! A *span* is one timed step of a request's journey — queue wait,
//! one pipeline stage, one shard attempt. A *trace entry* is the
//! finished request: its trace id, outcome, wall latency, and span
//! list. Hosts keep the most recent entries in a [`Journal`] — a
//! fixed-capacity [`Ring`] — so an operator can ask "what did the
//! last N traced requests actually do" without any external
//! collector.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ring::Ring;

/// Which cache tier answered an artifact lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// In-memory LRU hit.
    Memory,
    /// Persistent (disk) tier hit.
    Disk,
    /// Joined another in-flight computation of the same key.
    Join,
    /// Nobody had it: this request executed the stage.
    Computed,
}

impl Tier {
    /// Stable wire name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Memory => "memory",
            Tier::Disk => "disk",
            Tier::Join => "join",
            Tier::Computed => "computed",
        }
    }

    /// Whether the lookup counted as a cache hit (anything but a
    /// fresh execution).
    pub fn cached(self) -> bool {
        !matches!(self, Tier::Computed)
    }
}

/// One timed step of a traced request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the step was: `queue`, `stage:parse`, `shard:HOST:PORT`,
    /// `reroute`, `replicate`, `local`.
    pub name: String,
    /// Wall-clock duration of the step, microseconds.
    pub us: u64,
    /// Optional annotation — the cache tier that answered a stage,
    /// the shard an attempt failed over from, a fan-out degree.
    pub detail: Option<String>,
}

impl Span {
    /// A span with no annotation.
    pub fn new(name: impl Into<String>, us: u64) -> Self {
        Span {
            name: name.into(),
            us,
            detail: None,
        }
    }

    /// A span carrying an annotation.
    pub fn with_detail(name: impl Into<String>, us: u64, detail: impl Into<String>) -> Self {
        Span {
            name: name.into(),
            us,
            detail: Some(detail.into()),
        }
    }
}

/// A finished traced request, as retained by the [`Journal`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The trace id that rode the request.
    pub trace: String,
    /// The request's correlation id.
    pub id: String,
    /// Terminal stage requested.
    pub stage: String,
    /// Whether the compile succeeded.
    pub ok: bool,
    /// Wall-clock service time, microseconds.
    pub wall_us: u64,
    /// The span breakdown, in the order the steps happened.
    pub spans: Vec<Span>,
}

/// The bounded journal of the most recent traced requests, oldest
/// evicted first (and counted) beyond its capacity.
pub type Journal = Ring<TraceEntry>;

/// Mint a process-unique trace id (`t1`, `t2`, …). Used when a client
/// asks for tracing (`"trace":true`) without supplying its own id.
pub fn next_trace_id() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    format!("t{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> TraceEntry {
        TraceEntry {
            trace: format!("t{n}"),
            id: format!("r{n}"),
            stage: "est".into(),
            ok: true,
            wall_us: n,
            spans: vec![Span::with_detail("stage:est", n, "memory")],
        }
    }

    #[test]
    fn journal_evicts_oldest_and_counts_drops() {
        let j = Journal::new(3);
        for n in 1..=5 {
            j.push(entry(n));
        }
        let snap = j.since(0);
        assert_eq!(snap.dropped, 2);
        assert_eq!(
            snap.entries
                .iter()
                .map(|(_, e)| e.wall_us)
                .collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(j.capacity(), 3);
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert!(a.starts_with('t'));
    }

    #[test]
    fn tier_names_and_cachedness() {
        assert_eq!(Tier::Memory.name(), "memory");
        assert!(Tier::Join.cached());
        assert!(!Tier::Computed.cached());
    }
}
