//! Warm-key ledger persistence.
//!
//! The drain migrator walks an in-memory ledger of which sources this
//! gateway routed to which shard. That ledger dies with the process,
//! so a restarted gateway forgets the cluster's heat map: the next
//! drain has nothing to walk, and every key's first touch after the
//! restart may recompute on a shard whose replica was already warm.
//! With `--telemetry-dir` the ledger is checkpointed here on every
//! sampler tick (and at shutdown) and reloaded at build, so a gateway
//! restart keeps routing hot keys to warm shards.
//!
//! Format: a `{"ledger":1}` header line, then one JSON line per warm
//! key — `{"shard":addr,"req":{wire request}}` — written whole-file
//! atomic (temp file + rename), the same discipline as the artifact
//! store. Loads are best-effort by construction: a missing file, a
//! foreign header, or a line that no longer parses degrades to an
//! empty (or shorter) ledger, never an error — the cost is one
//! recompute per lost key, exactly the contract the in-memory ledger's
//! bound already set. Entries are written least-recently-used first, so
//! reloading them in file order restores the ledger's recency order.

use std::io::Write;
use std::path::Path;

use dahlia_server::json::{obj, Json};
use dahlia_server::Request;

/// Ledger format version: files with any other header read as empty.
const LEDGER_VERSION: u64 = 1;

/// The checkpoint file name under the telemetry directory.
pub(crate) const LEDGER_FILE: &str = "warm-keys.jsonl";

/// Checkpoint `(shard addr, request)` pairs. Atomic: readers (and a
/// crash mid-write) see the previous complete file or the new one,
/// never a torn mix.
pub(crate) fn save(path: &Path, entries: &[(String, Request)]) -> std::io::Result<()> {
    let mut text = obj([("ledger", Json::Num(LEDGER_VERSION as f64))]).emit();
    text.push('\n');
    for (shard, req) in entries {
        text.push_str(&obj([("shard", Json::Str(shard.clone())), ("req", req.to_json())]).emit());
        text.push('\n');
    }
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read a checkpoint back. Never errors: anything unreadable —
/// missing file, version skew, a corrupt or truncated line — is
/// dropped and the survivors are returned.
pub(crate) fn load(path: &Path) -> Vec<(String, Request)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    let versioned = lines
        .next()
        .and_then(|header| Json::parse(header).ok())
        .and_then(|h| h.get("ledger").and_then(Json::as_u64))
        == Some(LEDGER_VERSION);
    if !versioned {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let Ok(v) = Json::parse(line) else { continue };
        let Some(shard) = v.get("shard").and_then(Json::as_str) else {
            continue;
        };
        let Some(req) = v
            .get("req")
            .and_then(|r| Request::from_json(r, i as u64).ok())
        else {
            continue;
        };
        out.push((shard.to_string(), req));
    }
    out
}
