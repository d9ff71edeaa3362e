//! End-to-end tests for the `dahliac` driver binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn run(args: &[&str]) -> (String, String, bool) {
    let (out, err, code) = run_code(args);
    (out, err, code == 0)
}

fn run_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_dahliac"))
        .args(args)
        .output()
        .expect("dahliac runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Run with `input` piped to stdin.
fn run_stdin(args: &[&str], input: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dahliac"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dahliac spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("dahliac runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn write_tmp(name: &str, src: &str) -> String {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("tmp file");
    f.write_all(src.as_bytes()).expect("write");
    path.to_string_lossy().into_owned()
}

const GOOD: &str = "let A: float[8 bank 4];
for (let i = 0..8) unroll 4 { A[i] := 1.0; }
";

const BAD: &str = "let A: float[8];
for (let i = 0..8) unroll 4 { A[i] := 1.0; }
";

#[test]
fn check_accepts_and_rejects() {
    let good = write_tmp("dahliac_good.fuse", GOOD);
    let (out, _, ok) = run(&["check", &good]);
    assert!(ok);
    assert!(out.contains("ok: 1 memories"), "{out}");

    let bad = write_tmp("dahliac_bad.fuse", BAD);
    let (_, err, ok) = run(&["check", &bad]);
    assert!(!ok);
    assert!(err.contains("InsufficientBanks"), "{err}");
}

#[test]
fn a_bank_count_past_the_budget_is_a_type_error_under_a_memory_cap() {
    // Per-bank capability state for 10^8 banks would abort the process
    // under this cap; the size budget rejects it from the types first.
    let big = write_tmp(
        "dahliac_size_budget.fuse",
        "let A: float[100000000 bank 100000000]; A[0] := 1.0;\n",
    );
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 2000000; exec \"$0\" check \"$1\"")
        .arg(env!("CARGO_BIN_EXE_dahliac"))
        .arg(&big)
        .output()
        .expect("sh runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("type/size-budget"), "{err}");
    assert!(err.contains("65536"), "{err}");
}

#[test]
fn cpp_emits_pragmas() {
    let good = write_tmp("dahliac_cpp.fuse", GOOD);
    let (out, _, ok) = run(&["cpp", &good, "my_kernel"]);
    assert!(ok);
    assert!(out.contains("void my_kernel("), "{out}");
    assert!(
        out.contains("ARRAY_PARTITION variable=A cyclic factor=4"),
        "{out}"
    );
    assert!(out.contains("UNROLL factor=4"), "{out}");
}

#[test]
fn run_prints_final_memories() {
    let good = write_tmp("dahliac_run.fuse", GOOD);
    let (out, _, ok) = run(&["run", &good]);
    assert!(ok, "{out}");
    assert!(out.contains("A[8]"), "{out}");
    assert!(out.contains("Float(1.0)"), "{out}");
}

#[test]
fn est_reports_resources() {
    let good = write_tmp("dahliac_est.fuse", GOOD);
    let (out, _, ok) = run(&["est", &good]);
    assert!(ok);
    assert!(out.contains("cycles:"), "{out}");
    assert!(out.contains("LUTs:"), "{out}");
    assert!(out.contains("correct:  true"), "{out}");
}

#[test]
fn bad_usage_and_missing_files() {
    let (_, err, ok) = run(&[]);
    assert!(!ok);
    assert!(err.contains("usage"), "{err}");

    let (_, err, ok) = run(&["check", "/nonexistent/x.fuse"]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");

    let good = write_tmp("dahliac_cmd.fuse", GOOD);
    let (_, err, ok) = run(&["frobnicate", &good]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn parse_errors_point_at_the_source() {
    let broken = write_tmp("dahliac_parse.fuse", "let = oops");
    let (_, err, ok) = run(&["check", &broken]);
    assert!(!ok);
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn exit_codes_distinguish_failure_phases() {
    let good = write_tmp("dahliac_exit_good.fuse", GOOD);
    assert_eq!(run_code(&["check", &good]).2, 0, "success is 0");

    let broken = write_tmp("dahliac_exit_parse.fuse", "let = oops");
    assert_eq!(run_code(&["check", &broken]).2, 3, "parse errors are 3");

    let bad = write_tmp("dahliac_exit_type.fuse", BAD);
    assert_eq!(run_code(&["check", &bad]).2, 4, "type errors are 4");
    assert_eq!(run_code(&["cpp", &bad]).2, 4, "cpp hits the checker too");

    assert_eq!(run_code(&[]).2, 2, "usage is 2");
    assert_eq!(run_code(&["check", "/nonexistent/x.fuse"]).2, 2, "io is 2");
    assert_eq!(
        run_code(&["frobnicate", &good]).2,
        2,
        "unknown command is 2"
    );
}

#[test]
fn dash_reads_the_program_from_stdin() {
    let (out, _, code) = run_stdin(&["check", "-"], GOOD);
    assert_eq!(code, 0);
    assert!(out.contains("ok: 1 memories"), "{out}");

    let (out, _, code) = run_stdin(&["cpp", "-", "from_stdin"], GOOD);
    assert_eq!(code, 0);
    assert!(out.contains("void from_stdin("), "{out}");

    let (_, err, code) = run_stdin(&["check", "-"], "let = oops");
    assert_eq!(code, 3);
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn usage_mentions_the_service_commands() {
    let (_, err, code) = run_code(&[]);
    assert_eq!(code, 2);
    assert!(err.contains("serve"), "{err}");
    assert!(err.contains("batch"), "{err}");
    assert!(err.contains("exit codes"), "{err}");

    let (out, _, code) = run_code(&["help"]);
    assert_eq!(code, 0);
    assert!(out.contains("dahliac serve"), "{out}");
}

#[test]
fn serve_speaks_json_lines_on_stdio() {
    let req = format!(
        r#"{{"id":"t1","stage":"check","source":"{}"}}"#,
        GOOD.replace('\n', " ")
    );
    let (out, err, code) = run_stdin(&["serve"], &format!("{req}\n{{\"op\":\"stats\"}}\n"));
    assert_eq!(code, 0, "{err}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(
        lines[0].contains(r#""id":"t1","stage":"check","ok":true"#),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].starts_with(r#"{"stats":{"requests":1,"#),
        "{}",
        lines[1]
    );
    assert!(err.contains("dahliac serve: 2 lines"), "{err}");
}

#[test]
fn serve_rejects_positional_arguments() {
    let (_, err, code) = run_code(&["serve", "whoops.fuse"]);
    assert_eq!(code, 2);
    assert!(err.contains("serve takes no positional arguments"), "{err}");
}

#[test]
fn plain_serve_rejects_threads_flag() {
    // Plain stdio serve answers strictly in order on the calling thread;
    // a --threads knob there would be a lie, so it is refused with a
    // pointer to the modes where it means something.
    let (_, err, code) = run_code(&["serve", "--threads", "4"]);
    assert_eq!(code, 2);
    assert!(
        err.contains("--threads needs --pipeline or --listen"),
        "{err}"
    );
}

#[test]
fn pipelined_serve_accepts_threads_and_answers_by_id() {
    let req = format!(
        r#"{{"id":"p1","stage":"check","source":"{}"}}"#,
        GOOD.replace('\n', " ")
    );
    let (out, err, code) = run_stdin(
        &["serve", "--pipeline", "--threads", "2"],
        &format!("{req}\n"),
    );
    assert_eq!(code, 0, "{err}");
    assert!(out.contains(r#""id":"p1""#), "{out}");
    assert!(out.contains(r#""ok":true"#), "{out}");
}

#[test]
fn dangling_flags_are_flag_errors_not_file_errors() {
    let (_, err, code) = run_code(&["batch", "--kernels", "--threads"]);
    assert_eq!(code, 2);
    assert!(err.contains("--threads needs a value"), "{err}");

    // A flag-like token where the value should be is also refused rather
    // than silently consumed.
    let (_, err, code) = run_code(&["batch", "--threads", "--kernels"]);
    assert_eq!(code, 2);
    assert!(err.contains("--threads needs a value"), "{err}");
}

#[test]
fn batch_without_inputs_is_a_usage_error() {
    let (_, err, code) = run_code(&["batch"]);
    assert_eq!(code, 2);
    assert!(err.contains("batch needs input programs"), "{err}");
}

#[test]
fn batch_over_files_reports_rounds_and_cache_stats() {
    let good = write_tmp("dahliac_batch_a.fuse", GOOD);
    let bad = write_tmp("dahliac_batch_b.fuse", BAD);
    let (out, _, code) = run_code(&["batch", "--repeat", "2", "--threads", "2", &good, &bad]);
    assert_eq!(code, 1, "a failed item exits 1:\n{out}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "two round lines + summary:\n{out}");
    assert!(
        lines[0].contains(r#""round":1,"requests":2,"ok":1,"errors":1"#),
        "{}",
        lines[0]
    );
    // Round 2 is answered entirely from cache: 2 hits, 0 misses.
    assert!(lines[1].contains(r#""hits":2,"misses":0"#), "{}", lines[1]);
    assert!(lines[2].contains(r#""speedup":"#), "{}", lines[2]);
}

/// A warm-cache `dahliac batch` round over the MachSuite kernel suite
/// is answered entirely from cache — pinned by the stage and hit/miss
/// counters, never by a wall-clock ratio — and the server reports both
/// counts.
#[test]
fn batch_kernels_warm_round_is_all_cache_hits() {
    let (out, err, code) = run_code(&["batch", "--kernels", "--repeat", "2"]);
    assert_eq!(code, 0, "kernel suite must compile clean\n{err}\n{out}");
    let lines: Vec<&str> = out.lines().collect();
    let summary = dahlia_server::json::Json::parse(lines.last().unwrap()).expect("summary JSON");
    let batch = summary.get("batch").expect("batch envelope");
    // Counted, not timed: every kernel is parsed exactly once across
    // both rounds, so the warm round ran no pipeline stage.
    let parses = batch
        .get("stats")
        .and_then(|s| s.get("executions"))
        .and_then(|e| e.get("parse"))
        .and_then(|v| v.as_u64())
        .expect("executions.parse");
    assert_eq!(parses, 16, "the warm round re-parsed a kernel\n{out}");
    // Hit/miss accounting: the warm round is all hits, and the stats
    // object reports both counters.
    let stats = batch.get("stats").expect("stats");
    let hits = stats.get("hits").and_then(|v| v.as_u64()).expect("hits");
    let misses = stats
        .get("misses")
        .and_then(|v| v.as_u64())
        .expect("misses");
    assert!(
        hits >= 16,
        "second round must hit for every kernel, hits = {hits}"
    );
    assert!(
        misses >= 16 * 4,
        "cold round computes 4 stages per kernel, misses = {misses}"
    );
    assert!(
        lines[1].contains(r#""misses":0"#),
        "warm round recomputed something: {}",
        lines[1]
    );
}

/// The ISSUE 2 acceptance criterion: `dahliac batch` against a warm
/// on-disk cache in a *fresh process* skips all pipeline stages,
/// verified by the per-stage execution counters.
#[test]
fn warm_disk_cache_survives_process_restart() {
    let dir = std::env::temp_dir().join(format!("dahliac-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();

    let (_, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--cache-dir", &dir_s]);
    assert_eq!(code, 0, "cold process failed: {err}");

    // A brand-new process over the same directory.
    let (out, err, code) =
        run_code(&["batch", "--kernels", "--repeat", "1", "--cache-dir", &dir_s]);
    assert_eq!(code, 0, "warm process failed: {err}");
    let lines: Vec<&str> = out.lines().collect();
    let summary = dahlia_server::json::Json::parse(lines.last().unwrap()).expect("summary JSON");
    let stats = summary
        .get("batch")
        .and_then(|b| b.get("stats"))
        .expect("stats");
    let ex = stats.get("executions").expect("executions");
    for stage in ["parse", "check", "desugar", "lower", "cpp", "est"] {
        assert_eq!(
            ex.get(stage).and_then(|v| v.as_u64()),
            Some(0),
            "fresh process ran stage `{stage}`: {out}"
        );
    }
    let disk_hits = stats
        .get("disk")
        .and_then(|d| d.get("hits"))
        .and_then(|v| v.as_u64())
        .expect("disk hits");
    assert!(disk_hits >= 16, "warm process served off disk: {disk_hits}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end socket transport: a background `serve --listen` process
/// driven by `batch --connect`, shut down gracefully over the protocol.
#[test]
fn batch_connect_drives_a_listening_server() {
    let (mut server, addr) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );

    let (out, err, code) = run_code(&[
        "batch",
        "--kernels",
        "--repeat",
        "2",
        "--connect",
        &addr,
        "--shutdown",
    ]);
    assert_eq!(code, 0, "remote batch failed: {err}\n{out}");
    let lines: Vec<&str> = out.lines().collect();
    assert!(
        lines[1].contains(r#""misses":0"#),
        "warm TCP round recomputed something: {}",
        lines[1]
    );
    assert!(lines.last().unwrap().contains(r#""speedup":"#), "{out}");

    // --shutdown stopped the server gracefully: it exits 0 on its own.
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exit: {status:?}");
}

/// Spawn a `dahliac` child with piped stderr, scanning its stderr lines
/// until `pattern` appears; returns the child, the captured value after
/// `pattern` on that line, and a drain thread keeping the pipe empty.
fn spawn_scan_all(args: &[&str], patterns: &[&str]) -> (std::process::Child, Vec<String>) {
    use std::io::BufRead as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dahliac"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dahliac spawns");
    let mut reader = std::io::BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut captured: Vec<Option<String>> = vec![None; patterns.len()];
    for _ in 0..64 {
        if captured.iter().all(Option::is_some) {
            break;
        }
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        for (slot, pattern) in captured.iter_mut().zip(patterns) {
            if slot.is_none() {
                if let Some((_, rest)) = line.split_once(pattern) {
                    *slot = Some(rest.split_whitespace().next().unwrap().to_string());
                }
            }
        }
    }
    let captured: Vec<String> = captured
        .into_iter()
        .zip(patterns)
        .map(|(c, p)| c.unwrap_or_else(|| panic!("child never printed `{p}`")))
        .collect();
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    (child, captured)
}

fn spawn_scan(args: &[&str], pattern: &str) -> (std::process::Child, String) {
    let (child, mut captured) = spawn_scan_all(args, &[pattern]);
    (child, captured.remove(0))
}

/// Satellite: network failures exit 5, distinct from local usage/io (2).
#[test]
fn network_errors_exit_5() {
    // A "server" that accepts and immediately hangs up: the client
    // connects fine, then every read sees EOF mid-protocol.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            drop(conn);
        }
    });
    let (_, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &addr]);
    assert_eq!(code, 5, "mid-protocol hangup is a network error: {err}");
    assert!(
        err.contains("network error") || err.contains("closed the connection"),
        "{err}"
    );
}

/// Tentpole end-to-end: a gateway over two forked workers serves the
/// MachSuite batch, pins sources across rounds (warm round recomputes
/// nothing), exposes /metrics, and winds down cleanly — workers
/// included — from one shutdown op.
#[test]
fn gateway_spawns_workers_and_serves_batches() {
    use std::io::{Read as _, Write as _};
    // Ephemeral ports everywhere: the gateway announces both addresses
    // on stderr ("metrics on …" precedes "gateway: listening on …").
    let (mut gateway, captured) = spawn_scan_all(
        &[
            "gateway",
            "--listen",
            "127.0.0.1:0",
            "--spawn-workers",
            "2",
            "--metrics",
            "127.0.0.1:0",
        ],
        &["metrics on ", "gateway: listening on "],
    );
    let (metrics, addr) = (captured[0].clone(), captured[1].clone());

    // Cold batch: everything compiles, split across the two workers.
    let (out, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &addr]);
    assert_eq!(code, 0, "cold batch failed: {err}\n{out}");
    assert!(out.contains(r#""ok":16"#), "{out}");

    // Warm batch through the same gateway: rendezvous pins every source
    // to the shard that already compiled it — zero misses anywhere.
    let (out, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &addr]);
    assert_eq!(code, 0, "warm batch failed: {err}\n{out}");
    let round = out.lines().next().unwrap();
    assert!(
        round.contains(r#""misses":0"#),
        "warm round recomputed: {round}"
    );
    let summary = dahlia_server::json::Json::parse(out.lines().last().unwrap()).unwrap();
    let stats = summary.get("batch").and_then(|b| b.get("stats")).unwrap();
    let shards = stats
        .get("gateway")
        .and_then(|g| g.get("shards"))
        .expect("per-shard stats in the aggregate");
    let dahlia_server::json::Json::Arr(shards) = shards else {
        panic!("shards is an array")
    };
    assert_eq!(shards.len(), 2);
    for s in shards {
        assert_eq!(s.get("alive").and_then(|v| v.as_bool()), Some(true));
        assert!(
            s.get("routed").and_then(|v| v.as_u64()).unwrap() > 0,
            "both shards participated: {out}"
        );
        assert_eq!(s.get("failed").and_then(|v| v.as_u64()), Some(0));
    }

    // Satellite: GET /metrics serves the same aggregated stats object.
    let mut http = std::net::TcpStream::connect(&metrics).expect("metrics reachable");
    write!(http, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).expect("metrics body");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("body").trim();
    let v = dahlia_server::json::Json::parse(body).expect("metrics json");
    assert!(v.get("gateway").is_some(), "{body}");

    // Shutdown-only batch stops the gateway, which stops its workers.
    let (_, err, code) = run_code(&["batch", "--connect", &addr, "--shutdown"]);
    assert_eq!(code, 0, "shutdown-only batch: {err}");
    let status = gateway.wait().expect("gateway exits");
    assert!(status.success(), "gateway exit: {status:?}");
}

/// Acceptance: hard-killing a shard process mid-run loses no requests —
/// the batch after the kill still answers everything, exit 0.
#[test]
fn gateway_survives_a_shard_hard_kill() {
    let (mut shard_a, addr_a) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut shard_b, addr_b) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut gateway, gw_addr) = spawn_scan(
        &[
            "gateway",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            &format!("{addr_a},{addr_b}"),
        ],
        "gateway: listening on ",
    );

    let (_, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &gw_addr]);
    assert_eq!(code, 0, "cold cluster batch: {err}");

    // SIGKILL shard A: no graceful drain, no goodbye. The gateway must
    // re-route its keys to shard B and answer everything.
    shard_a.kill().expect("kill shard A");
    shard_a.wait().expect("reap shard A");
    let (out, err, code) =
        run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &gw_addr]);
    assert_eq!(code, 0, "post-kill batch failed: {err}\n{out}");
    assert!(out.contains(r#""ok":16"#), "all requests answered: {out}");

    let (_, _, code) = run_code(&["batch", "--connect", &gw_addr, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(gateway.wait().expect("gateway exits").success());
    let (_, _, code) = run_code(&["batch", "--connect", &addr_b, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(shard_b.wait().expect("shard B exits").success());
}

/// Fetch a host's stats object over the wire protocol.
fn fetch_stats(addr: &str) -> dahlia_server::json::Json {
    let mut c = dahlia_server::Client::connect_retry(addr, 50).expect("connect for stats");
    c.send_line(r#"{"op":"stats"}"#).expect("send stats");
    let line = c.recv_line().expect("read stats").expect("stats line");
    dahlia_server::json::Json::parse(&line)
        .expect("stats json")
        .get("stats")
        .cloned()
        .expect("stats payload")
}

/// Sum the per-stage `executions` object in a stats payload.
fn total_executions(stats: &dahlia_server::json::Json) -> u64 {
    match stats.get("executions") {
        Some(dahlia_server::json::Json::Obj(fields)) => {
            fields.iter().filter_map(|(_, v)| v.as_u64()).sum()
        }
        _ => 0,
    }
}

/// Warm-failover acceptance: with `--replication 2`, SIGKILLing a
/// shard loses zero requests AND recomputes zero pipeline stages —
/// the survivor already holds every displaced artifact.
#[test]
fn replicated_gateway_fails_over_warm_after_sigkill() {
    let (mut shard_a, addr_a) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut shard_b, addr_b) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut gateway, gw_addr) = spawn_scan(
        &[
            "gateway",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            &format!("{addr_a},{addr_b}"),
            "--replication",
            "2",
        ],
        "gateway: listening on ",
    );

    let (_, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &gw_addr]);
    assert_eq!(code, 0, "cold cluster batch: {err}");

    // Wait for the replication fan-out to drain: with R = 2 over two
    // shards every kernel reaches both, so the aggregate request count
    // hits 2 × 16.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let baseline = loop {
        let stats = fetch_stats(&gw_addr);
        if stats.get("requests").and_then(|v| v.as_u64()).unwrap_or(0) >= 32 {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replication fan-out never completed: {}",
            stats.emit()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let cold_executions = total_executions(&baseline);
    assert!(cold_executions > 0, "cold batch computed somewhere");

    // SIGKILL shard A: no drain, no goodbye. Everything it owned is
    // already warm on shard B.
    shard_a.kill().expect("kill shard A");
    shard_a.wait().expect("reap shard A");
    let (out, err, code) =
        run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &gw_addr]);
    assert_eq!(code, 0, "post-kill batch failed: {err}\n{out}");
    assert!(out.contains(r#""ok":16"#), "all requests answered: {out}");
    let round = out.lines().next().unwrap();
    assert!(
        round.contains(r#""misses":0"#),
        "failover recomputed a stage: {round}"
    );
    let after = fetch_stats(&gw_addr);
    assert_eq!(
        total_executions(&after),
        cold_executions,
        "warm failover must not execute any pipeline stage: {}",
        after.emit()
    );
    // The dead shard still contributes its final snapshot, and the
    // gateway reports the failover in its own section.
    let gw_section = after.get("gateway").expect("gateway section");
    assert_eq!(
        gw_section.get("replication").and_then(|v| v.as_u64()),
        Some(2)
    );
    assert_eq!(
        gw_section.get("shards_live").and_then(|v| v.as_u64()),
        Some(1)
    );

    let (_, _, code) = run_code(&["batch", "--connect", &gw_addr, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(gateway.wait().expect("gateway exits").success());
    let (_, _, code) = run_code(&["batch", "--connect", &addr_b, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(shard_b.wait().expect("shard B exits").success());
}

/// Drain acceptance: `dahliac gateway-admin drain` during a batch
/// fails zero requests, the stats show migrated keys, and `undrain`
/// puts the shard back.
#[test]
fn gateway_admin_drains_a_shard_during_a_batch() {
    let (shard_a, addr_a) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (shard_b, addr_b) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut gateway, gw_addr) = spawn_scan(
        &[
            "gateway",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            &format!("{addr_a},{addr_b}"),
        ],
        "gateway: listening on ",
    );

    // Cold batch pins every kernel to its rendezvous owner.
    let (_, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &gw_addr]);
    assert_eq!(code, 0, "cold cluster batch: {err}");

    // Second batch racing the drain: fire the batch, then drain shard
    // A while it runs.
    let batch = {
        let gw_addr = gw_addr.clone();
        std::thread::spawn(move || {
            run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &gw_addr])
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(10));
    let (out, err, code) = run_code(&["gateway-admin", "drain", "--connect", &gw_addr, &addr_a]);
    assert_eq!(code, 0, "drain refused: {err}\n{out}");
    let ack = dahlia_server::json::Json::parse(out.trim()).expect("drain ack json");
    assert_eq!(ack.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(ack.get("op").and_then(|v| v.as_str()), Some("drain"));
    let (out, err, code) = batch.join().expect("batch thread");
    assert_eq!(code, 0, "batch raced by drain failed: {err}\n{out}");
    assert!(out.contains(r#""ok":16"#), "zero failed requests: {out}");

    // The migration walk shows up in the stats: keys moved off A, and
    // the surviving shard goes fully warm (the walk is async, so wait
    // for the destination — not just the first migrated key — before
    // asserting a warm post-drain batch).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let migrated = loop {
        let stats = fetch_stats(&gw_addr);
        let shards = stats
            .get("gateway")
            .and_then(|g| g.get("shards"))
            .cloned()
            .expect("per-shard stats");
        let dahlia_server::json::Json::Arr(shards) = shards else {
            panic!("shards is an array")
        };
        let a = shards
            .iter()
            .find(|s| s.get("addr").and_then(|v| v.as_str()) == Some(addr_a.as_str()))
            .expect("shard A entry");
        assert_eq!(a.get("draining").and_then(|v| v.as_bool()), Some(true));
        let b = shards
            .iter()
            .find(|s| s.get("addr").and_then(|v| v.as_str()) == Some(addr_b.as_str()))
            .expect("shard B entry");
        let drained = a.get("drained_keys").and_then(|v| v.as_u64()).unwrap_or(0);
        let warm_b = b.get("warm_keys").and_then(|v| v.as_u64()).unwrap_or(0);
        if drained > 0 && warm_b >= 16 {
            break drained;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "migration never settled: {}",
            stats.emit()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(migrated > 0);

    // A post-drain batch routes past A and stays fully warm.
    let (out, err, code) =
        run_code(&["batch", "--kernels", "--repeat", "1", "--connect", &gw_addr]);
    assert_eq!(code, 0, "post-drain batch: {err}");
    assert!(
        out.lines().next().unwrap().contains(r#""misses":0"#),
        "post-drain round recomputed: {out}"
    );

    // Undrain: the shard rejoins the rotation.
    let (out, err, code) = run_code(&["gateway-admin", "undrain", "--connect", &gw_addr, &addr_a]);
    assert_eq!(code, 0, "undrain refused: {err}\n{out}");
    let ack = dahlia_server::json::Json::parse(out.trim()).expect("undrain ack json");
    assert_eq!(ack.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(ack.get("joined").and_then(|v| v.as_bool()), Some(false));

    let (_, _, code) = run_code(&["batch", "--connect", &gw_addr, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(gateway.wait().expect("gateway exits").success());
    for (mut child, addr) in [(shard_a, addr_a), (shard_b, addr_b)] {
        let (_, _, code) = run_code(&["batch", "--connect", &addr, "--shutdown"]);
        assert_eq!(code, 0);
        assert!(child.wait().expect("shard exits").success());
    }
}

/// gateway-admin rejects bad usage locally and surfaces gateway
/// refusals as exit 1 (vs 5 for an unreachable gateway).
#[test]
fn gateway_admin_usage_and_refusals() {
    let (_, err, code) = run_code(&["gateway-admin", "frobnicate", "--connect", "x", "y"]);
    assert_eq!(code, 2);
    assert!(err.contains("drain"), "{err}");

    let (_, err, code) = run_code(&["gateway-admin", "drain", "x"]);
    assert_eq!(code, 2);
    assert!(err.contains("--connect"), "{err}");

    let (_, err, code) = run_code(&[
        "gateway-admin",
        "drain",
        "--connect",
        "x",
        "--weight",
        "2",
        "y",
    ]);
    assert_eq!(code, 2);
    assert!(err.contains("--weight"), "{err}");

    // A plain server refuses admin ops over the protocol: exit 1, and
    // the refusal names the op.
    let (mut server, addr) = spawn_scan(&["serve", "--listen", "127.0.0.1:0"], "listening on ");
    let (out, _, code) = run_code(&["gateway-admin", "drain", "--connect", &addr, "10.0.0.9:1"]);
    assert_eq!(code, 1, "unsupported op is a refusal, not a crash: {out}");
    assert!(out.contains("protocol/unsupported-op"), "{out}");
    let (_, _, code) = run_code(&["batch", "--connect", &addr, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(server.wait().expect("server exits").success());
}

/// Satellite: `--cache-gc-max-bytes` keeps a serve cache directory
/// bounded and reports what it pruned.
#[test]
fn serve_cache_gc_bounds_the_directory() {
    let dir = std::env::temp_dir().join(format!("dahliac-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();

    // Fill the cache unbounded.
    let (_, err, code) = run_code(&["batch", "--kernels", "--repeat", "1", "--cache-dir", &dir_s]);
    assert_eq!(code, 0, "{err}");
    let full: u64 = dir_size(&dir);
    assert!(full > 4096, "cache has substance: {full} bytes");

    // A fresh process with a tight budget prunes at startup and says so.
    let (out, err, code) = run_code(&[
        "batch",
        "--kernels",
        "--repeat",
        "1",
        "--cache-dir",
        &dir_s,
        "--cache-gc-max-bytes",
        "2048",
    ]);
    assert_eq!(code, 0, "{err}");
    let summary = dahlia_server::json::Json::parse(out.lines().last().unwrap()).unwrap();
    let disk = summary
        .get("batch")
        .and_then(|b| b.get("stats"))
        .and_then(|s| s.get("disk"))
        .expect("disk stats");
    assert!(
        disk.get("pruned_bytes").and_then(|v| v.as_u64()).unwrap() > 0,
        "GC reported nothing pruned: {out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn dir_size(p: &std::path::Path) -> u64 {
    let mut total = 0;
    if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.is_dir() {
                total += dir_size(&path);
            } else {
                total += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

/// Tentpole acceptance: SIGKILL a gateway mid-sweep, restart it over
/// the same `--telemetry-dir`, and `dahliac sweep --resume` finishes
/// the space without recomputing a single point — cluster-wide stage
/// executions match an uninterrupted reference run exactly, and the
/// final Pareto front is byte-identical. Content-addressed shard
/// caches plus the journal's idempotent replay make both invariants
/// deterministic rather than probabilistic.
#[test]
fn sweep_resumes_after_sigkill_with_zero_recompute() {
    let template = "let A: float[8 bank ${b}];\nfor (let i = 0..8) unroll ${u} { A[i] := 1.0; }\n";
    let tmpl_path = write_tmp("dahliac_sweep_resume_tmpl.fuse", template);
    let sweep_cli = |gw: &str, extra: &[&str]| {
        let mut args = vec![
            "sweep",
            "--connect",
            gw,
            "--template",
            &tmpl_path,
            "--param",
            "b=1,2,4",
            "--param",
            "u=1,2,4",
            "--name",
            "resume-acceptance",
        ];
        args.extend_from_slice(extra);
        run_code(&args)
    };
    let front_of = |final_line: &str| {
        dahlia_server::json::Json::parse(final_line)
            .expect("final sweep line json")
            .get("sweep")
            .and_then(|s| s.get("front"))
            .expect("final line carries the front")
            .emit()
    };

    // Reference: the same sweep, uninterrupted, on its own cluster.
    let (mut ref_a, ref_addr_a) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut ref_b, ref_addr_b) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut ref_gw, ref_gw_addr) = spawn_scan(
        &[
            "gateway",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            &format!("{ref_addr_a},{ref_addr_b}"),
        ],
        "gateway: listening on ",
    );
    let (out, err, code) = sweep_cli(&ref_gw_addr, &[]);
    assert_eq!(code, 0, "reference sweep: {err}\n{out}");
    let reference_front = front_of(out.lines().last().expect("reference summary line"));
    let reference_execs =
        total_executions(&fetch_stats(&ref_addr_a)) + total_executions(&fetch_stats(&ref_addr_b));
    assert!(reference_execs > 0, "reference sweep computed somewhere");
    let (_, _, code) = run_code(&["batch", "--connect", &ref_gw_addr, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(ref_gw.wait().expect("ref gateway exits").success());
    for (child, addr) in [(&mut ref_a, &ref_addr_a), (&mut ref_b, &ref_addr_b)] {
        let (_, _, code) = run_code(&["batch", "--connect", addr, "--shutdown"]);
        assert_eq!(code, 0);
        assert!(child.wait().expect("ref shard exits").success());
    }

    // The cluster under test: shards outlive the gateway, the journal
    // lives under --telemetry-dir.
    let dir = std::env::temp_dir().join(format!("dahliac_sweep_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();
    let (mut shard_a, addr_a) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let (mut shard_b, addr_b) = spawn_scan(
        &["serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        "listening on ",
    );
    let shards = format!("{addr_a},{addr_b}");
    let gw_args = [
        "gateway",
        "--listen",
        "127.0.0.1:0",
        "--shards",
        &shards,
        "--telemetry-dir",
        &dir_s,
    ];
    let (mut gw1, gw1_addr) = spawn_scan(&gw_args, "gateway: listening on ");

    // Start the sweep over the wire with per-point updates, wait for
    // at least one journaled point, then SIGKILL the gateway — no
    // drain, no goodbye, mid-scatter.
    let mut probe = dahlia_server::Client::connect_retry(&gw1_addr, 50).expect("connect for sweep");
    probe
        .send_line(
            r#"{"op":"sweep","id":"phase1","name":"resume-acceptance","template":"let A: float[8 bank ${b}];\nfor (let i = 0..8) unroll ${u} { A[i] := 1.0; }\n","params":{"b":[1,2,4],"u":[1,2,4]},"stage":"est","stride":1,"resume":false,"prune":false,"update_every":1}"#,
        )
        .expect("send sweep op");
    for _ in 0..2 {
        let line = probe
            .recv_line()
            .expect("read sweep progress")
            .expect("sweep progress line");
        let v = dahlia_server::json::Json::parse(&line).expect("progress json");
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{line}");
        if v.get("done").and_then(|b| b.as_bool()) == Some(true) {
            break; // tiny space: the whole sweep may beat the kill
        }
    }
    gw1.kill().expect("kill gateway mid-sweep");
    gw1.wait().expect("reap gateway");
    drop(probe);

    // Restart over the same journal; --resume replays it and finishes
    // only what is missing.
    let (mut gw2, gw2_addr) = spawn_scan(&gw_args, "gateway: listening on ");
    let (out, err, code) = sweep_cli(&gw2_addr, &["--resume"]);
    assert_eq!(code, 0, "resumed sweep: {err}\n{out}");
    let final_line = out.lines().last().expect("resumed summary line");
    let v = dahlia_server::json::Json::parse(final_line).expect("summary json");
    let sweep = v.get("sweep").expect("sweep section");
    let skipped = sweep
        .get("points_skipped")
        .and_then(|n| n.as_u64())
        .unwrap_or(0);
    let done = sweep
        .get("points_done")
        .and_then(|n| n.as_u64())
        .unwrap_or(0);
    assert!(skipped >= 1, "resume replayed nothing: {final_line}");
    assert_eq!(skipped + done, 9, "every point accounted for: {final_line}");
    assert_eq!(
        front_of(final_line),
        reference_front,
        "resumed front must be byte-identical to the uninterrupted run"
    );
    let resumed_execs =
        total_executions(&fetch_stats(&addr_a)) + total_executions(&fetch_stats(&addr_b));
    assert_eq!(
        resumed_execs, reference_execs,
        "kill + resume must not recompute a single point"
    );

    let (_, _, code) = run_code(&["batch", "--connect", &gw2_addr, "--shutdown"]);
    assert_eq!(code, 0);
    assert!(gw2.wait().expect("gateway exits").success());
    for (child, addr) in [(&mut shard_a, &addr_a), (&mut shard_b, &addr_b)] {
        let (_, _, code) = run_code(&["batch", "--connect", addr, "--shutdown"]);
        assert_eq!(code, 0);
        assert!(child.wait().expect("shard exits").success());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
