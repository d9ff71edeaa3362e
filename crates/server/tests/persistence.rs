//! Integration tests for the persistent tier: a *fresh* server over a
//! warm cache directory must answer `est`, `cpp` and `check` without
//! running any pipeline stage, must recompute the memory-only stages
//! (`parse`, `desugar`, `lower`) to the same payloads, and every flavour
//! of on-disk damage must degrade to recomputation, never to a wrong
//! answer or a hang.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use dahlia_server::pipeline::source_digest;
use dahlia_server::{Key, Options, Request, ServerConfig, Stage};

const PROGRAMS: [&str; 2] = [
    "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }",
    "let B: float[16 bank 2];\nfor (let i = 0..16) unroll 2 { B[i] := 2.0; }",
];

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "dahlia-persist-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn server_with_cache(dir: &PathBuf) -> dahlia_server::Server {
    ServerConfig::new()
        .threads(2)
        .cache_dir(dir)
        .build()
        .expect("cache dir")
}

fn est_requests(round: &str) -> Vec<Request> {
    PROGRAMS
        .iter()
        .enumerate()
        .map(|(i, src)| Request::new(format!("{round}-{i}"), Stage::Estimate, *src, "k"))
        .collect()
}

#[test]
fn fresh_server_over_warm_disk_skips_all_stages() {
    let dir = tmp_dir("warm");

    // Process-one stand-in: compute, then flush the write-behind queue.
    let first = server_with_cache(&dir);
    let cold = first.submit_batch(est_requests("cold"));
    assert!(cold.iter().all(|r| r.ok()));
    assert!(first.stats().store.total_executions() > 0);
    drop(first); // drop flushes

    // Fresh server, same directory: the acceptance criterion — every
    // stage hit counter stays at zero.
    let second = server_with_cache(&dir);
    let warm = second.submit_batch(est_requests("warm"));
    assert!(warm.iter().all(|r| r.ok()), "warm answers match");
    assert!(
        warm.iter().all(|r| r.cached),
        "every warm response served without compute"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c.estimate(),
            w.estimate(),
            "disk round-trip preserved the estimate"
        );
    }
    let s = second.stats();
    assert_eq!(
        s.store.total_executions(),
        0,
        "a warm-disk server runs no pipeline stage: {:?}",
        s.store.executions
    );
    assert_eq!(s.store.misses, 0);
    assert_eq!(s.store.disk.hits, PROGRAMS.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn front_end_disk_entries_are_shared_across_kernel_names() {
    let dir = tmp_dir("finer");
    let first = server_with_cache(&dir);
    let r = first.submit(Request::new("a", Stage::Check, PROGRAMS[0], "alpha"));
    assert!(r.ok());
    drop(first);

    // A differently-named request in a fresh process: the check entry is
    // keyed by source alone, so it comes straight off disk.
    let second = server_with_cache(&dir);
    let r = second.submit(Request::new("b", Stage::Check, PROGRAMS[0], "beta"));
    assert!(r.ok() && r.cached);
    let s = second.stats();
    assert_eq!(s.store.total_executions(), 0);
    assert!(s.store.disk.hits >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_degrade_to_recompute() {
    let dir = tmp_dir("corrupt");
    let first = server_with_cache(&dir);
    let cold = first.submit_batch(est_requests("cold"));
    drop(first);

    // Vandalize every entry file: truncate half, garbage the rest.
    let mut victims = 0;
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                if victims % 2 == 0 {
                    let bytes = std::fs::read(&path).unwrap();
                    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
                } else {
                    std::fs::write(&path, b"not an artifact at all").unwrap();
                }
                victims += 1;
            }
        }
    }
    assert!(victims > 0, "the warm run persisted something");

    let second = server_with_cache(&dir);
    let recomputed = second.submit_batch(est_requests("re"));
    assert!(
        recomputed.iter().all(|r| r.ok()),
        "corruption never fails a request"
    );
    for (c, r) in cold.iter().zip(&recomputed) {
        assert_eq!(c.estimate(), r.estimate(), "recompute agrees with original");
    }
    let s = second.stats();
    assert!(s.store.total_executions() > 0, "stages re-ran");
    assert!(
        s.store.disk.corrupt > 0,
        "corruption was detected, not ignored"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphan_tmp_files_from_a_crash_leave_the_store_readable() {
    let dir = tmp_dir("orphan");
    let first = server_with_cache(&dir);
    first.submit_batch(est_requests("cold"));
    drop(first);

    // Simulate a crash between write and rename: orphan temporaries next
    // to real entries, everywhere.
    let mut stack = vec![dir.clone()];
    let mut dirs = Vec::new();
    while let Some(d) = stack.pop() {
        dirs.push(d.clone());
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            }
        }
    }
    for d in &dirs {
        std::fs::write(d.join(".tmp-4242-0"), b"crashed mid-write").unwrap();
    }

    let second = server_with_cache(&dir);
    let warm = second.submit_batch(est_requests("warm"));
    assert!(warm.iter().all(|r| r.ok() && r.cached));
    assert_eq!(second.stats().store.total_executions(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn est_entry_path_is_content_addressed_and_stable() {
    // The layout is a public contract (ops tooling may prune by stage
    // directory); pin that the entry for a known key lands under the
    // stage name with both digests in the file name.
    let dir = tmp_dir("layout");
    let server = server_with_cache(&dir);
    server.submit(Request::new("x", Stage::Estimate, PROGRAMS[0], "k"));
    server.flush();

    let key = Key {
        source: source_digest(PROGRAMS[0]),
        stage: Stage::Estimate,
        options: Options::named("k").digest(),
    };
    let disk = dahlia_server::DiskStore::open(&dir).unwrap();
    let path = disk.entry_path(&key);
    assert!(path.exists(), "expected entry at {}", path.display());
    assert!(
        path.to_string_lossy().contains("/est/"),
        "{}",
        path.display()
    );
    drop(disk);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_recomputes_parse_desugar_and_lower_from_source() {
    // The disk tier keeps only `check`, `cpp` and `est`. A fresh process
    // over a warm directory recomputes the parsed, desugared and lowered
    // artifacts from the request's source, takes the check verdict off
    // disk, and answers with the cold process's payload bytes.
    let dir = tmp_dir("front-warm");
    let stages = [
        (Stage::Parse, "pretty"),
        (Stage::Desugar, "pretty"),
        (Stage::Lower, "ir"),
    ];
    let payloads = |server: &dahlia_server::Server, round: &str| -> Vec<String> {
        let mut out = Vec::new();
        for (i, src) in PROGRAMS.iter().enumerate() {
            for (stage, field) in stages {
                let id = format!("{round}{i}-{}", stage.name());
                let r = server.submit(Request::new(id, stage, *src, "k"));
                assert!(r.ok(), "{}", r.to_line());
                out.push(r.to_json().get(field).expect("payload").emit());
            }
        }
        out
    };
    let first = server_with_cache(&dir);
    let cold = payloads(&first, "c");
    drop(first);

    let second = server_with_cache(&dir);
    let warm = payloads(&second, "w");
    assert_eq!(cold, warm, "recomputed payloads match the cold process's");
    let s = second.stats();
    for stage in [Stage::Check, Stage::Cpp, Stage::Estimate] {
        assert_eq!(
            s.store.executions[stage.index()],
            0,
            "{} ran after a restart: {:?}",
            stage.name(),
            s.store.executions
        );
    }
    // One check verdict per program came off disk; the memory-only
    // stages never reached the disk tier's counters.
    let d = s.store.disk;
    assert_eq!((d.hits, d.misses, d.corrupt), (PROGRAMS.len() as u64, 0, 0));
    let root = dir.join(format!("v{}", dahlia_server::disk::FORMAT_VERSION));
    for stage in ["parse", "desugar", "lower"] {
        assert_eq!(files_under(&root.join(stage)), 0, "{stage} was persisted");
    }
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// How many files lie anywhere under `dir` (0 if it does not exist).
fn files_under(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .map(|e| e.unwrap().path())
        .map(|p| if p.is_dir() { files_under(&p) } else { 1 })
        .sum()
}
