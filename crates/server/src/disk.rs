//! The on-disk artifact tier: a crash-safe, corruption-tolerant,
//! content-addressed store under a cache directory.
//!
//! ## What persists
//!
//! Only the stages whose wire payload is the whole artifact: `check`,
//! `cpp` and `est`, successes and rejections alike ([`persists`]).
//! `parse`, `desugar` and `lower` stay in the memory tier: re-parsing a
//! program costs less than decoding its persisted AST did, and a fresh
//! process recomputes them from the request's source on a miss, with
//! the `check` verdict coming off disk.
//!
//! ## Layout
//!
//! One file per `(source digest, stage, options digest)` entry:
//!
//! ```text
//! <root>/v2/<stage>/<ss>/<source:032x>-<options:032x>
//! ```
//!
//! where `v2` is the on-disk [`FORMAT_VERSION`] (a format bump changes
//! the directory, so stale entries are simply never consulted again —
//! a `v1` tree written by an older binary is left untouched and this
//! binary recomputes into its own tree, never crashes), `<stage>` is
//! the protocol stage name, and `<ss>` is the first byte of the source
//! digest in hex — a 256-way fan-out that keeps directories small
//! under sweep workloads. Older binaries also wrote `v2/parse`,
//! `v2/desugar` and `v2/lower` trees; nothing reads them again, so
//! opening a store deletes them once and counts their files as pruned.
//!
//! ## Entry format
//!
//! A fixed binary header followed by a binary payload
//! ([`crate::codec::encode_bin`] — the same compact encoding v1 wire
//! frames carry; format v1 stored JSON text here, which dominated
//! entry sizes):
//!
//! ```text
//! magic "dahliart" · u32 version · u8 stage · u128 source · u128 options
//! · u64 payload length · payload · u128 FNV-1a checksum of payload
//! ```
//!
//! Reads verify every field (magic, version, key echo, length, checksum)
//! and treat *any* mismatch — truncation, garbage, a half-written file —
//! as a miss plus a `corrupt` counter tick: the caller recomputes and
//! rewrites. Nothing on disk is trusted.
//!
//! ## Crash safety
//!
//! Writes go to a unique temporary name in the same directory and are
//! published with an atomic `rename`. A crash between write and rename
//! leaves only a `.tmp-*` orphan, which readers never open; a crash
//! mid-write corrupts only the temporary file. Either way the store
//! stays readable.
//!
//! ## Write-behind
//!
//! [`DiskStore::store`] enqueues the entry and returns immediately; a
//! dedicated writer thread encodes and persists in the background, so
//! the compile path never waits on the filesystem. [`DiskStore::flush`]
//! blocks until the queue drains, and dropping the store drains it too —
//! which is how `dahliac batch` guarantees a warm cache before exiting.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hls_sim::digest::Fnv;

use crate::codec;
use crate::pipeline::Stage;
use crate::store::{CacheValue, Key};

/// On-disk format version; bumping it invalidates every existing entry
/// (new directory, and old headers fail the version check). v2 switched
/// the payload from JSON text to the binary value encoding.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"dahliart";

/// Sanity cap on declared payload length (defends against a corrupt
/// header asking us to allocate terabytes).
const MAX_PAYLOAD: u64 = 256 * 1024 * 1024;

/// Does the disk tier keep `stage`'s results? Only the stages whose
/// wire payload is the whole artifact; the others are cheaper to
/// recompute from source than to decode.
pub fn persists(stage: Stage) -> bool {
    matches!(stage, Stage::Check | Stage::Cpp | Stage::Estimate)
}

/// Disk-tier counters (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups of a persisted stage with no usable entry on disk.
    pub misses: u64,
    /// Entries rejected as corrupt (subset of `misses`).
    pub corrupt: u64,
    /// Entries persisted.
    pub writes: u64,
    /// Failed persistence attempts (I/O errors; the entry is skipped).
    pub write_errors: u64,
    /// Entry files deleted by garbage collection.
    pub pruned_files: u64,
    /// Bytes reclaimed by garbage collection.
    pub pruned_bytes: u64,
}

/// State shared between the store handle and the writer thread.
struct Inner {
    root: PathBuf,
    /// Size budget for the artifact files; `None` disables GC.
    gc_max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    pruned_files: AtomicU64,
    pruned_bytes: AtomicU64,
    tmp_counter: AtomicU64,
    pending: Mutex<u64>,
    drained: Condvar,
}

/// The on-disk artifact store. See the module docs for the format.
pub struct DiskStore {
    inner: Arc<Inner>,
    tx: Option<Sender<(Key, CacheValue)>>,
    writer: Option<JoinHandle<()>>,
}

impl DiskStore {
    /// Open (creating if needed) the store rooted at `dir`. The store
    /// owns `<dir>/v{FORMAT_VERSION}`; other versions' trees are left
    /// untouched for older binaries.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        DiskStore::open_bounded(dir, None)
    }

    /// [`DiskStore::open`] with a size budget: when the artifact files
    /// exceed `gc_max_bytes`, the oldest-mtime entries are pruned —
    /// once at startup (inheriting an oversized directory must not keep
    /// it oversized) and again after each write-behind drain. Pruning
    /// an entry only costs a future recompute; values are deterministic.
    /// With or without a budget, opening deletes the trees of the stages
    /// that do not [`persist`](persists).
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        gc_max_bytes: Option<u64>,
    ) -> std::io::Result<DiskStore> {
        let root = dir.into().join(format!("v{FORMAT_VERSION}"));
        fs::create_dir_all(&root)?;
        let inner = Arc::new(Inner {
            root,
            gc_max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            pruned_files: AtomicU64::new(0),
            pruned_bytes: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            pending: Mutex::new(0),
            drained: Condvar::new(),
        });
        inner.prune_stale_stages();
        inner.gc();
        let (tx, rx) = mpsc::channel::<(Key, CacheValue)>();
        let worker = Arc::clone(&inner);
        let writer = std::thread::Builder::new()
            .name("dahlia-disk-writer".into())
            .spawn(move || {
                let mut wrote_since_gc = false;
                for (key, value) in rx {
                    worker.write_entry(&key, &value);
                    wrote_since_gc = true;
                    // GC on the queue's quiet edges, *before* the final
                    // decrement: `flush` returns only once the pass is
                    // done, so its callers observe a bounded directory
                    // and settled counters. The walk runs outside the
                    // pending lock — enqueuers must never stall on it.
                    if *worker.pending.lock().unwrap() == 1 {
                        worker.gc();
                        wrote_since_gc = false;
                    }
                    let mut pending = worker.pending.lock().unwrap();
                    *pending -= 1;
                    if *pending == 0 {
                        worker.drained.notify_all();
                    }
                }
                if wrote_since_gc {
                    worker.gc();
                }
            })?;
        Ok(DiskStore {
            inner,
            tx: Some(tx),
            writer: Some(writer),
        })
    }

    /// Current counters.
    pub fn stats(&self) -> DiskStats {
        let i = &self.inner;
        DiskStats {
            hits: i.hits.load(Ordering::Relaxed),
            misses: i.misses.load(Ordering::Relaxed),
            corrupt: i.corrupt.load(Ordering::Relaxed),
            writes: i.writes.load(Ordering::Relaxed),
            write_errors: i.write_errors.load(Ordering::Relaxed),
            pruned_files: i.pruned_files.load(Ordering::Relaxed),
            pruned_bytes: i.pruned_bytes.load(Ordering::Relaxed),
        }
    }

    /// Run one garbage-collection pass now (a no-op without a budget).
    /// Returns the files and bytes pruned by *this* pass.
    pub fn gc(&self) -> (u64, u64) {
        let before = (
            self.inner.pruned_files.load(Ordering::Relaxed),
            self.inner.pruned_bytes.load(Ordering::Relaxed),
        );
        self.inner.gc();
        (
            self.inner.pruned_files.load(Ordering::Relaxed) - before.0,
            self.inner.pruned_bytes.load(Ordering::Relaxed) - before.1,
        )
    }

    /// Fetch a persisted value, if one is intact. A stage that does not
    /// [`persist`](persists) answers `None` without touching the
    /// filesystem or a counter.
    pub fn load(&self, key: &Key) -> Option<CacheValue> {
        if !persists(key.stage) {
            return None;
        }
        match self.inner.read_entry(key) {
            Ok(v) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Err(corrupt) => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                if corrupt {
                    self.inner.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Enqueue a computed value for the writer thread; a stage that does
    /// not [`persist`](persists) is dropped here.
    pub fn store(&self, key: &Key, value: &CacheValue) {
        if !persists(key.stage) {
            return;
        }
        if let Some(tx) = self.tx.as_ref() {
            *self.inner.pending.lock().unwrap() += 1;
            tx.send((*key, value.clone())).expect("writer alive");
        }
    }

    /// Block until every queued write has been persisted.
    pub fn flush(&self) {
        let mut pending = self.inner.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.inner.drained.wait(pending).unwrap();
        }
    }

    /// The entry path for a key.
    pub fn entry_path(&self, key: &Key) -> PathBuf {
        self.inner.entry_path(key)
    }
}

impl Inner {
    fn entry_path(&self, key: &Key) -> PathBuf {
        self.root
            .join(key.stage.name())
            .join(format!("{:02x}", (key.source >> 120) as u8))
            .join(format!("{:032x}-{:032x}", key.source, key.options))
    }

    fn read_entry(&self, key: &Key) -> Result<CacheValue, bool> {
        // Err(false): not found; Err(true): present but corrupt.
        let mut file = match fs::File::open(self.entry_path(key)) {
            Ok(f) => f,
            Err(_) => return Err(false),
        };
        let mut header = [0u8; 8 + 4 + 1 + 16 + 16 + 8];
        file.read_exact(&mut header).map_err(|_| true)?;
        let (magic, rest) = header.split_at(8);
        if magic != MAGIC {
            return Err(true);
        }
        let version = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(true);
        }
        if rest[4] != key.stage.index() as u8 {
            return Err(true);
        }
        let source = u128::from_le_bytes(rest[5..21].try_into().unwrap());
        let options = u128::from_le_bytes(rest[21..37].try_into().unwrap());
        if source != key.source || options != key.options {
            return Err(true);
        }
        let len = u64::from_le_bytes(rest[37..45].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(true);
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact(&mut payload).map_err(|_| true)?;
        let mut sum = [0u8; 16];
        file.read_exact(&mut sum).map_err(|_| true)?;
        if u128::from_le_bytes(sum) != checksum(&payload) {
            return Err(true);
        }
        codec::decode_bin(&payload).ok_or(true)
    }

    fn write_entry(&self, key: &Key, value: &CacheValue) {
        let Some(payload) = codec::encode_bin(value) else {
            return; // an artifact kind the codec does not persist
        };
        let path = self.entry_path(key);
        let result = (|| -> std::io::Result<()> {
            let dir = path.parent().expect("entry paths have parents");
            fs::create_dir_all(dir)?;
            let tmp = dir.join(format!(
                ".tmp-{}-{}",
                std::process::id(),
                self.tmp_counter.fetch_add(1, Ordering::Relaxed)
            ));
            let mut f = fs::File::create(&tmp)?;
            f.write_all(MAGIC)?;
            f.write_all(&FORMAT_VERSION.to_le_bytes())?;
            f.write_all(&[key.stage.index() as u8])?;
            f.write_all(&key.source.to_le_bytes())?;
            f.write_all(&key.options.to_le_bytes())?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&payload)?;
            f.write_all(&checksum(&payload).to_le_bytes())?;
            f.sync_all()?;
            drop(f);
            // The atomic publish: readers see the old state or the new
            // entry, never a partial file.
            fs::rename(&tmp, &path)?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Persistence is best-effort: a failed write costs a
                // future recompute, never a wrong answer.
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Count one deleted entry file.
    fn pruned(&self, len: u64) {
        self.pruned_files.fetch_add(1, Ordering::Relaxed);
        self.pruned_bytes.fetch_add(len, Ordering::Relaxed);
    }

    /// Delete the trees of the stages that do not [`persist`](persists),
    /// which older binaries wrote: nothing reads them again, and under a
    /// budget they would crowd out live entries. Their files count as
    /// pruned.
    fn prune_stale_stages(&self) {
        for stage in Stage::ALL.into_iter().filter(|&s| !persists(s)) {
            let dir = self.root.join(stage.name());
            for (md, path) in stage_files(&dir) {
                if fs::remove_file(path).is_ok() {
                    self.pruned(md.len());
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// One GC pass: walk every stage directory, and while the artifact
    /// files exceed the budget, delete them oldest-mtime-first (ties
    /// break by path for determinism). `.tmp-*` orphans are ignored —
    /// they are invisible to readers and rewritten paths reclaim them.
    /// All failures are soft: a file another process already removed
    /// (shared cache directories are supported) just stops counting.
    fn gc(&self) {
        let Some(max) = self.gc_max_bytes else { return };
        let Ok(stages) = fs::read_dir(&self.root) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        for stage in stages.flatten() {
            for (md, path) in stage_files(&stage.path()) {
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                if !name.starts_with(".tmp-") {
                    let mtime = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    files.push((mtime, md.len(), path));
                }
            }
        }
        let mut total: u64 = files.iter().map(|f| f.1).sum();
        if total <= max {
            return;
        }
        files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        for (_, len, path) in files {
            if total <= max {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                self.pruned(len);
            }
        }
    }
}

/// The regular files of one stage tree (`<stage>/<ss>/<file>`), with
/// their metadata. Unreadable directories and vanished files are skipped.
fn stage_files(stage_dir: &Path) -> Vec<(fs::Metadata, PathBuf)> {
    let mut files = Vec::new();
    let Ok(fans) = fs::read_dir(stage_dir) else {
        return files;
    };
    for fan in fans.flatten() {
        let Ok(entries) = fs::read_dir(fan.path()) else {
            continue;
        };
        for entry in entries.flatten() {
            if let Ok(md) = entry.metadata() {
                if md.is_file() {
                    files.push((md, entry.path()));
                }
            }
        }
    }
    files
}

fn checksum(payload: &[u8]) -> u128 {
    let mut h = Fnv::new();
    h.tag(b'D').u64(payload.len() as u64).bytes(payload);
    h.finish()
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Close the channel so the writer drains the queue and exits,
        // then join it: dropping a store guarantees everything enqueued
        // is on disk.
        self.tx = None;
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Artifact, Stage};
    use std::sync::atomic::AtomicU32;

    fn tmp_root(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "dahlia-disk-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn key(n: u128, stage: Stage) -> Key {
        Key {
            source: n,
            stage,
            options: 7,
        }
    }

    fn cpp(text: &str) -> CacheValue {
        Ok(Artifact::Cpp(Arc::new(text.to_string())))
    }

    #[test]
    fn store_flush_load_roundtrip() {
        let root = tmp_root("roundtrip");
        let store = DiskStore::open(&root).unwrap();
        let k = key(1, Stage::Cpp);
        assert!(store.load(&k).is_none(), "cold store is empty");
        store.store(&k, &cpp("void k() {}"));
        store.flush();
        let v = store.load(&k).expect("persisted entry loads");
        match v.unwrap() {
            Artifact::Cpp(t) => assert_eq!(*t, "void k() {}"),
            other => panic!("{other:?}"),
        }
        let s = store.stats();
        assert_eq!((s.writes, s.hits, s.misses, s.corrupt), (1, 1, 1, 0));
        drop(store);
        // A fresh handle on the same directory sees the entry: the store
        // is genuinely persistent, not a warm process cache.
        let reopened = DiskStore::open(&root).unwrap();
        assert!(reopened.load(&k).is_some());
        drop(reopened);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn memory_only_stages_never_reach_the_filesystem() {
        let root = tmp_root("memory-only");
        let store = DiskStore::open(&root).unwrap();
        for stage in [Stage::Parse, Stage::Desugar, Stage::Lower] {
            assert!(!persists(stage));
            let k = key(8, stage);
            store.store(&k, &cpp("never written"));
            store.flush();
            assert!(store.load(&k).is_none());
            let dir = root.join(format!("v{FORMAT_VERSION}")).join(stage.name());
            assert!(!dir.exists(), "{}", dir.display());
        }
        assert_eq!(store.stats(), DiskStats::default());
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn opening_deletes_the_trees_of_stages_that_no_longer_persist() {
        let root = tmp_root("stale");
        let live = key(9, Stage::Cpp);
        let store = DiskStore::open(&root).unwrap();
        store.store(&live, &cpp("kept"));
        drop(store);
        // Entries an older binary wrote for the memory-only stages.
        let tree = root.join(format!("v{FORMAT_VERSION}"));
        let stale = [
            "parse/00/a",
            "parse/7f/b",
            "desugar/00/c",
            "lower/ff/d",
            "lower/ff/.tmp-1-0",
        ];
        for path in stale {
            let path = tree.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, b"stale entry").unwrap();
        }

        let store = DiskStore::open(&root).unwrap();
        for stage in ["parse", "desugar", "lower"] {
            assert!(!tree.join(stage).exists(), "{stage} tree survived");
        }
        assert!(store.load(&live).is_some(), "the live cpp entry loads");
        let s = store.stats();
        assert_eq!(s.pruned_files, stale.len() as u64, "{s:?}");
        assert_eq!(s.pruned_bytes, 11 * stale.len() as u64, "{s:?}");
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_and_garbage_entries_fall_back_to_miss() {
        let root = tmp_root("corrupt");
        let store = DiskStore::open(&root).unwrap();
        let k = key(2, Stage::Estimate);
        store.store(
            &k,
            &Ok(Artifact::Estimate(Arc::new(hls_sim::estimate(
                &hls_sim::Kernel::new("k"),
            )))),
        );
        store.flush();
        let path = store.entry_path(&k);

        // Truncate: keep the header, drop the tail.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.load(&k).is_none(), "truncated entry must miss");

        // Garbage with a valid length: checksum rejects it.
        fs::write(&path, b"dahliartgarbage-everywhere").unwrap();
        assert!(store.load(&k).is_none(), "garbage entry must miss");

        // Zero-byte file (crash during create).
        fs::write(&path, b"").unwrap();
        assert!(store.load(&k).is_none(), "empty entry must miss");

        assert_eq!(store.stats().corrupt, 3);
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_bump_invalidates_cleanly() {
        let root = tmp_root("version");
        let store = DiskStore::open(&root).unwrap();
        let k = key(3, Stage::Cpp);
        store.store(&k, &cpp("x"));
        store.flush();
        // Rewrite the header with a future version; the entry must read
        // as a miss, not be misinterpreted.
        let path = store.entry_path(&k);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&k).is_none());
        assert_eq!(store.stats().corrupt, 1);
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_mismatch_is_rejected() {
        // A file renamed (or hash-collided) onto the wrong path must not
        // serve the wrong artifact: the header echoes the key.
        let root = tmp_root("mismatch");
        let store = DiskStore::open(&root).unwrap();
        let a = key(4, Stage::Cpp);
        let b = key(5, Stage::Cpp);
        store.store(&a, &cpp("a"));
        store.flush();
        fs::create_dir_all(store.entry_path(&b).parent().unwrap()).unwrap();
        fs::copy(store.entry_path(&a), store.entry_path(&b)).unwrap();
        assert!(store.load(&b).is_none(), "key echo must reject");
        assert!(store.load(&a).is_some());
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_prunes_oldest_entries_down_to_budget() {
        let root = tmp_root("gc");
        // Fill an *unbounded* store with entries of known, growing age.
        let store = DiskStore::open(&root).unwrap();
        let payload = "x".repeat(512);
        for n in 0..8u128 {
            store.store(&key(n, Stage::Cpp), &cpp(&payload));
            store.flush();
            // Distinct mtimes make the age ranking unambiguous.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        drop(store);

        // Measure one entry so the budget can be phrased in entries.
        let probe = DiskStore::open(&root).unwrap();
        let entry_len = fs::metadata(probe.entry_path(&key(0, Stage::Cpp)))
            .unwrap()
            .len();
        drop(probe);

        // Reopen with room for ~3 entries: startup GC must prune the 5
        // oldest and keep the 3 newest.
        let bounded = DiskStore::open_bounded(&root, Some(3 * entry_len + entry_len / 2)).unwrap();
        let s = bounded.stats();
        assert_eq!(s.pruned_files, 5, "{s:?}");
        assert_eq!(s.pruned_bytes, 5 * entry_len, "{s:?}");
        for n in 0..5u128 {
            assert!(
                bounded.load(&key(n, Stage::Cpp)).is_none(),
                "old entry {n} pruned"
            );
        }
        for n in 5..8u128 {
            assert!(
                bounded.load(&key(n, Stage::Cpp)).is_some(),
                "new entry {n} kept"
            );
        }
        drop(bounded);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_runs_after_write_behind_flushes() {
        let root = tmp_root("gc-flush");
        let store = DiskStore::open_bounded(&root, Some(1)).unwrap();
        store.store(&key(1, Stage::Cpp), &cpp("some payload"));
        store.flush();
        // The writer GCs after the drain; explicit gc() makes the check
        // deterministic (it is idempotent and shares the counters).
        store.gc();
        let s = store.stats();
        assert_eq!(s.writes, 1);
        assert!(s.pruned_files >= 1, "{s:?}");
        assert!(store.load(&key(1, Stage::Cpp)).is_none(), "over-budget");
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unbounded_store_never_prunes() {
        let root = tmp_root("gc-off");
        let store = DiskStore::open(&root).unwrap();
        store.store(&key(1, Stage::Cpp), &cpp("payload"));
        store.flush();
        assert_eq!(store.gc(), (0, 0));
        assert!(store.load(&key(1, Stage::Cpp)).is_some());
        assert_eq!(store.stats().pruned_files, 0);
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn orphan_tmp_files_never_shadow_entries() {
        // Simulates a crash between write and rename: the orphan .tmp
        // file is ignored by reads and does not block later publishes.
        let root = tmp_root("orphan");
        let store = DiskStore::open(&root).unwrap();
        let k = key(6, Stage::Cpp);
        let dir = store.entry_path(&k).parent().unwrap().to_path_buf();
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(".tmp-999-0"), b"half-written junk").unwrap();
        assert!(store.load(&k).is_none(), "orphan is not an entry");
        store.store(&k, &cpp("real"));
        store.flush();
        assert!(store.load(&k).is_some(), "publish works around orphans");
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }
}
