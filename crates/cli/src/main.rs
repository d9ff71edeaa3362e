//! `dahliac` — the Dahlia compiler driver and compile-service front end.
//!
//! ```text
//! dahliac check  <file.fuse>          type-check and report
//! dahliac cpp    <file.fuse> [name]   emit Vivado-HLS-style C++
//! dahliac run    <file.fuse>          interpret (checked semantics)
//! dahliac est    <file.fuse> [name]   estimate area/latency via hls-sim
//! dahliac lower  <file.fuse>          dump the lowered kernel IR
//! dahliac serve  [opts]               JSON-lines compile service (stdio or TCP)
//! dahliac batch  [opts] [files...]    compile a batch through the service
//! dahliac gateway [opts]              sharded cluster front-end over shards
//! dahliac gateway-admin <op> [opts]   drain/undrain shards on a live gateway
//! dahliac top    --connect ADDR       live load console over a server/gateway
//! dahliac history --connect ADDR      query the on-disk telemetry ring
//! dahliac alerts --connect ADDR       dump alert states and transitions
//! dahliac sweep  --connect ADDR       distributed design-space exploration
//! ```
//!
//! `<file.fuse>` may be `-` to read the program from stdin. (`.fuse` is
//! the extension the original Dahlia compiler uses.)
//!
//! The service persists artifacts across processes with `--cache-dir`
//! (or `DAHLIA_CACHE_DIR`): a warm directory lets a fresh process answer
//! without running any pipeline stage. `serve --listen <addr>` exposes
//! the protocol over TCP with pipelined, out-of-order responses; `batch
//! --connect <addr>` drives such a server remotely; `gateway --listen
//! <addr> --shards a1,a2,…` routes requests across many servers by
//! source digest (rendezvous hashing), with failover and an in-process
//! fallback when the cluster is empty.
//!
//! With `--telemetry-dir` a server or gateway samples its own stats to
//! a crash-safe on-disk ring, answerable after a restart via `dahliac
//! history`; `--alert-rule "window.error_rate > 0.05 for 30s"` arms
//! declarative alerts (`dahliac alerts` reads the transition journal),
//! and the gateway's `--auto-drain-after N` drains a shard that fails
//! N consecutive health checks.
//!
//! Exit codes are distinct per failure phase so scripts and test
//! harnesses can tell rejection modes apart without scraping stderr:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | runtime failure (interpreter error, batch item failed) |
//! | 2 | usage or local I/O error |
//! | 3 | lex/parse error |
//! | 4 | affine type error |
//! | 5 | network error (connect/serve failures over the socket transport) |

use std::collections::HashMap;
use std::io::{BufRead as _, Read as _, Write as _};
use std::process::ExitCode;
use std::time::Instant;

use dahlia_backend::{emit_cpp, lower};
use dahlia_core::{interp, parse, typecheck, Error};
use dahlia_gateway::{Gateway, GatewayConfig};
use dahlia_obs::Snapshot;
use dahlia_server::json::{obj, Json};
use dahlia_server::{
    metrics, query, serve_sessions_with, Client, ControlOp, NetConfig, Request, Server,
    ServerConfig, SessionHost, Stage,
};

/// Runtime failure (interpreter, failed batch item).
const EXIT_RUNTIME: u8 = 1;
/// Bad usage or local I/O failure.
const EXIT_USAGE: u8 = 2;
/// Lexical or syntax error in the input program.
const EXIT_PARSE: u8 = 3;
/// Time-sensitive affine type error.
const EXIT_TYPE: u8 = 4;
/// Network failure: could not connect to, talk to, or keep serving a
/// socket peer.
const EXIT_NET: u8 = 5;

const USAGE: &str = "usage: dahliac <command> [args]

  dahliac check  <file.fuse>          type-check and report
  dahliac cpp    <file.fuse> [name]   emit Vivado-HLS-style C++
  dahliac run    <file.fuse>          interpret (checked semantics)
  dahliac est    <file.fuse> [name]   estimate area/latency via hls-sim
  dahliac lower  <file.fuse>          dump the lowered kernel IR
  dahliac serve  [--listen ADDR] [--pipeline] [--threads N]
                 [--cache-dir DIR] [--max-entries N] [--max-bytes N]
                 [--cache-gc-max-bytes N] [--metrics ADDR]
                 [--trace-journal N] [--slow-threshold-ms MS]
                 [--telemetry-dir DIR] [--telemetry-interval-ms MS]
                 [--alert-rule RULE]... [--alert-rules FILE]
                 [--wire v0|v1] [--max-inflight N]
                                      JSON-lines compile service: stdio by
                                      default (strict order), `--pipeline`
                                      for out-of-order stdio responses,
                                      `--listen` for a pipelined TCP server
                                      (stop it with {\"op\":\"shutdown\"});
                                      sockets negotiate the v1 binary frame
                                      wire via {\"op\":\"hello\"} unless
                                      --wire v0 pins JSON lines, and shed
                                      work past --max-inflight unanswered
                                      requests per connection (default 256)
                                      with an `admission/overloaded` error;
                                      --metrics serves GET /metrics (JSON,
                                      or Prometheus text with
                                      ?format=prometheus) and GET /healthz;
                                      --trace-journal bounds the trace ring
                                      buffer; requests slower than
                                      --slow-threshold-ms land in the slow
                                      log ({\"op\":\"slowlog\"}) with spans;
                                      --telemetry-dir samples stats to a
                                      crash-safe on-disk ring every
                                      --telemetry-interval-ms (default
                                      1000), served by {\"op\":\"history\"};
                                      --alert-rule arms a threshold alert
                                      (e.g. \"window.error_rate > 0.05
                                      for 30s\"; repeatable, or one per
                                      line from --alert-rules FILE)
  dahliac batch  [--kernels] [--repeat N] [--threads N] [--stage S]
                 [--cache-dir DIR] [--connect ADDR] [--shutdown]
                 [--verbose] [--trace] [--slowlog] [--wire v0|v1]
                 [files...]
                                      compile a batch through the service
                                      (in-process by default; --connect
                                      drives a remote `serve --listen`;
                                      --wire v1 offers the binary frame
                                      wire in a `hello` exchange, falling
                                      back to v0 JSON lines on old servers;
                                      --shutdown with no inputs just stops
                                      the remote); --trace requests a span
                                      breakdown per response and dumps the
                                      trace journal after the batch;
                                      --slowlog dumps the slow-request log
                                      as the last output line
  dahliac gateway --listen ADDR [--shards a1[=W],a2,...] [--spawn-workers N]
                 [--replication N] [--threads N] [--metrics ADDR]
                 [--trace-journal N] [--slow-threshold-ms MS]
                 [--telemetry-dir DIR] [--telemetry-interval-ms MS]
                 [--alert-rule RULE]... [--alert-rules FILE]
                 [--auto-drain-after N] [--wire v0|v1]
                 [--max-inflight N] [--admission-cache N]
                                      cluster front-end: routes requests
                                      across `serve --listen` shards by
                                      source digest (weighted rendezvous
                                      hashing; `addr=2` owns twice the
                                      keys), re-routing on shard failure
                                      and compiling locally when the
                                      cluster is empty; --replication N
                                      fans new artifacts out to the top-N
                                      shards so failover serves them warm;
                                      --spawn-workers forks N local shard
                                      processes on ephemeral ports;
                                      --trace-journal / --slow-threshold-ms
                                      configure the gateway's own journal
                                      and slow-request capture;
                                      --telemetry-dir also persists the
                                      warm-key ledger across restarts;
                                      alert rules may bind remediation
                                      (\"... -> drain\"), and
                                      --auto-drain-after N drains a shard
                                      after N consecutive health-check
                                      failures (never the last live one;
                                      0 = off, the default); --wire v0
                                      pins the client listener to JSON
                                      lines (the shard hop is always
                                      binary v1); --max-inflight bounds
                                      unanswered requests per connection;
                                      --admission-cache N caches hot
                                      untraced responses at the front door
                                      (default 2048 entries, 0 = off)
  dahliac top    --connect ADDR [--interval-ms N] [--once]
                                      live cluster console: polls the
                                      windowed stats of a server or gateway
                                      and redraws per-shard routed/s,
                                      err/s, windowed p99, queue depth,
                                      warm keys and drain state beside the
                                      cluster totals and the wire line
                                      (v0/v1 session mix, shed requests,
                                      admission-cache hits), with two-minute
                                      req/s and p99 sparklines when the
                                      remote keeps durable telemetry;
                                      --once prints a single
                                      machine-readable JSON snapshot
                                      and exits (for scripts and CI)
  dahliac history --connect ADDR --series PATH [--since MS] [--step MS]
                                      query the remote's on-disk telemetry
                                      ring: dotted stats path (e.g.
                                      window.error_rate, gateway.requests,
                                      window.latency_us), points since a
                                      wall-clock ms cursor, downsampled
                                      into --step-sized bins (min/max/mean,
                                      or merged-bucket p50/p95/p99 for
                                      histogram series); prints the
                                      {\"history\":...} envelope
  dahliac alerts --connect ADDR [--since SEQ]
                                      dump the remote's alert rule states
                                      (0 ok, 1 pending, 2 firing) and its
                                      firing/resolved transition journal
                                      past a sequence cursor; prints the
                                      {\"alerts\":...} envelope
  dahliac gateway-admin <drain|undrain> --connect ADDR SHARD [--weight W]
                                      administer a live gateway: `drain`
                                      routes new keys past SHARD and
                                      migrates its warm keys to the
                                      survivors (rolling restarts);
                                      `undrain` puts it back — or joins
                                      SHARD as a brand-new shard
                                      (optionally weighted) for live
                                      re-sharding
  dahliac sweep  --connect ADDR [--kernel gemm-blocked | --template FILE]
                 [--param name=v1,v2,...]... [--n N] [--block B]
                 [--name NAME] [--stage S] [--stride K]
                 [--update-every K] [--resume] [--prune] [--out FILE]
                                      distributed design-space exploration:
                                      the gateway renders every config of
                                      the parameter space into the kernel
                                      template, scatters the evaluations
                                      across its shards, and streams back
                                      incremental Pareto-front updates
                                      (every --update-every completions)
                                      plus a final summary; progress is
                                      journaled under the gateway's
                                      --telemetry-dir, so a killed gateway
                                      restarted with the same dir resumes
                                      via --resume with zero recomputed
                                      points and a byte-identical front;
                                      --kernel gemm-blocked (default) uses
                                      the paper's 32,000-point blocked-gemm
                                      space (--stride K samples every Kth
                                      point; --param overrides one axis);
                                      --prune skips regions whose sampled
                                      point is already dominated; --out
                                      writes the final summary line to a
                                      file

  <file.fuse> may be `-` for stdin.
  --cache-dir (or DAHLIA_CACHE_DIR) persists artifacts across processes;
  --cache-gc-max-bytes prunes the oldest artifacts past the budget.
  exit codes: 0 ok, 1 runtime, 2 usage/io, 3 parse, 4 type, 5 network";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    match cmd.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "gateway" => cmd_gateway(&args[1..]),
        "gateway-admin" => cmd_gateway_admin(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "history" => cmd_history(&args[1..]),
        "alerts" => cmd_alerts(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "check" | "cpp" | "run" | "est" | "lower" => cmd_compile(cmd, &args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("dahliac: unknown command `{other}`\n{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// Read a source file, `-` meaning stdin.
fn read_source(path: &str) -> Result<String, ExitCode> {
    if path == "-" {
        let mut src = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut src) {
            eprintln!("dahliac: cannot read stdin: {e}");
            return Err(ExitCode::from(EXIT_USAGE));
        }
        return Ok(src);
    }
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("dahliac: cannot read `{path}`: {e}");
        ExitCode::from(EXIT_USAGE)
    })
}

/// Exit code for a front-end error, by phase.
fn error_exit(e: &Error) -> ExitCode {
    match e {
        Error::Lex { .. } | Error::Parse { .. } => ExitCode::from(EXIT_PARSE),
        Error::Type(_) => ExitCode::from(EXIT_TYPE),
        Error::Interp { .. } => ExitCode::from(EXIT_RUNTIME),
    }
}

/// The classic one-shot commands.
fn cmd_compile(cmd: &str, args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("dahliac: `{cmd}` needs an input file\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let name = args.get(1).cloned().unwrap_or_else(|| {
        if path == "-" {
            "kernel".to_string()
        } else {
            std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().replace('-', "_"))
                .unwrap_or_else(|| "kernel".to_string())
        }
    });

    let src = match read_source(path) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let prog = match parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dahliac: {e}");
            return error_exit(&e);
        }
    };

    match cmd {
        "check" => match typecheck(&prog) {
            Ok(r) => {
                println!(
                    "ok: {} memories, {} views, {} accesses, {} functions, max unroll {}",
                    r.memories, r.views, r.accesses, r.functions, r.max_unroll
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dahliac: {e}");
                error_exit(&e)
            }
        },
        "cpp" => {
            if let Err(e) = typecheck(&prog) {
                eprintln!("dahliac: {e}");
                return error_exit(&e);
            }
            print!("{}", emit_cpp(&prog, &name));
            ExitCode::SUCCESS
        }
        "run" => {
            if let Err(e) = typecheck(&prog) {
                eprintln!("dahliac: {e}");
                return error_exit(&e);
            }
            match interp::interpret_with(&prog, &interp::InterpOptions::default(), &HashMap::new())
            {
                Ok(out) => {
                    let mut names: Vec<&String> = out.mems.keys().collect();
                    names.sort();
                    for n in names {
                        let mem = &out.mems[n];
                        let shown: Vec<String> =
                            mem.iter().take(8).map(|v| format!("{v:?}")).collect();
                        println!(
                            "{n}[{}] = [{}{}]",
                            mem.len(),
                            shown.join(", "),
                            if mem.len() > 8 { ", …" } else { "" }
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("dahliac: {e}");
                    ExitCode::from(EXIT_RUNTIME)
                }
            }
        }
        "est" => {
            if let Err(e) = typecheck(&prog) {
                eprintln!("dahliac: {e}");
                return error_exit(&e);
            }
            let est = hls_sim::estimate(&lower(&prog, &name));
            println!("kernel:   {}", est.name);
            println!("cycles:   {}", est.cycles);
            println!("runtime:  {:.3} ms @ 250 MHz", est.runtime_ms(250.0));
            println!("LUTs:     {}", est.luts);
            println!("FFs:      {}", est.ffs);
            println!("DSPs:     {}", est.dsps);
            println!("BRAMs:    {}", est.brams);
            println!("LUT mem:  {}", est.lut_mems);
            println!("correct:  {}", est.correct);
            for n in &est.notes {
                println!("note:     {n}");
            }
            ExitCode::SUCCESS
        }
        "lower" => {
            println!("{:#?}", lower(&prog, &name));
            ExitCode::SUCCESS
        }
        _ => unreachable!("dispatched in main"),
    }
}

/// Extract a `--flag value` option from `args`, leaving positionals in
/// place. A flag present without a usable value is an error (otherwise
/// the dangling flag would be misparsed as a file name downstream).
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        _ => Err(format!("{flag} needs a value")),
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse_positive(flag: &str, raw: Option<String>) -> Result<Option<usize>, ExitCode> {
    match raw {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => {
                eprintln!("dahliac: {flag} needs a positive integer, got `{v}`");
                Err(ExitCode::from(EXIT_USAGE))
            }
        },
    }
}

/// Like [`parse_positive`] but zero is legal — for thresholds where 0
/// means "capture everything" (`--slow-threshold-ms 0`).
fn parse_nonneg(flag: &str, raw: Option<String>) -> Result<Option<u64>, ExitCode> {
    match raw {
        None => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Ok(Some(n)),
            _ => {
                eprintln!("dahliac: {flag} needs a non-negative integer, got `{v}`");
                Err(ExitCode::from(EXIT_USAGE))
            }
        },
    }
}

/// Parse a `--wire v0|v1` protocol ceiling (bare digits accepted).
fn parse_wire(flag: &str, raw: Option<String>) -> Result<Option<u32>, ExitCode> {
    match raw.as_deref() {
        None => Ok(None),
        Some("v0") | Some("0") => Ok(Some(0)),
        Some("v1") | Some("1") => Ok(Some(1)),
        Some(v) => {
            eprintln!("dahliac: {flag} must be v0 or v1, got `{v}`");
            Err(ExitCode::from(EXIT_USAGE))
        }
    }
}

/// Collect every `--alert-rule RULE` occurrence plus the contents of an
/// optional `--alert-rules FILE` (one rule per line; blank lines and
/// `#` comments skipped). Rule *syntax* is validated by the service
/// build, which reports the offending rule text.
fn take_alert_rules(args: &mut Vec<String>) -> Result<Vec<String>, ExitCode> {
    let mut rules = Vec::new();
    loop {
        match take_flag(args, "--alert-rule") {
            Ok(Some(r)) => rules.push(r),
            Ok(None) => break,
            Err(e) => {
                eprintln!("dahliac: {e}");
                return Err(ExitCode::from(EXIT_USAGE));
            }
        }
    }
    let file = match take_flag(args, "--alert-rules") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dahliac: {e}");
            return Err(ExitCode::from(EXIT_USAGE));
        }
    };
    if let Some(path) = file {
        let text = std::fs::read_to_string(&path).map_err(|e| {
            eprintln!("dahliac: cannot read alert rules file `{path}`: {e}");
            ExitCode::from(EXIT_USAGE)
        })?;
        rules.extend(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string),
        );
    }
    Ok(rules)
}

/// Service-facing options shared by `serve` and `batch`.
struct ServiceOpts {
    threads: Option<usize>,
    /// `--cache-dir` as given on the command line (env fallback is
    /// resolved in [`ServiceOpts::build`], so callers can tell an
    /// explicit flag from ambient environment).
    cache_dir_flag: Option<String>,
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
    cache_gc_max_bytes: Option<usize>,
    trace_journal: Option<usize>,
    slow_threshold_ms: Option<u64>,
    telemetry_dir: Option<String>,
    telemetry_interval_ms: Option<usize>,
    alert_rules: Vec<String>,
}

impl ServiceOpts {
    /// Pull the shared flags out of `args`.
    fn take(args: &mut Vec<String>) -> Result<ServiceOpts, ExitCode> {
        let mut flags = Vec::new();
        for f in [
            "--threads",
            "--cache-dir",
            "--max-entries",
            "--max-bytes",
            "--cache-gc-max-bytes",
            "--trace-journal",
            "--slow-threshold-ms",
            "--telemetry-dir",
            "--telemetry-interval-ms",
        ] {
            match take_flag(args, f) {
                Ok(v) => flags.push(v),
                Err(e) => {
                    eprintln!("dahliac: {e}");
                    return Err(ExitCode::from(EXIT_USAGE));
                }
            }
        }
        let [threads, cache_dir, max_entries, max_bytes, gc_max, journal, slow_ms, tele_dir, tele_ms] =
            flags.try_into().unwrap();
        let alert_rules = take_alert_rules(args)?;
        Ok(ServiceOpts {
            threads: parse_positive("--threads", threads)?,
            cache_dir_flag: cache_dir,
            max_entries: parse_positive("--max-entries", max_entries)?,
            max_bytes: parse_positive("--max-bytes", max_bytes)?,
            cache_gc_max_bytes: parse_positive("--cache-gc-max-bytes", gc_max)?,
            // A zero-capacity journal would silently drop every trace;
            // reject it as usage rather than clamping behind the
            // operator's back.
            trace_journal: parse_positive("--trace-journal", journal)?,
            slow_threshold_ms: parse_nonneg("--slow-threshold-ms", slow_ms)?,
            telemetry_dir: tele_dir,
            // A zero sampling interval would spin the sampler thread;
            // usage error, same policy as the journal capacity.
            telemetry_interval_ms: parse_positive("--telemetry-interval-ms", tele_ms)?,
            alert_rules,
        })
    }

    /// The first local-server flag present, if any — these configure an
    /// in-process server and are meaningless (so refused) with
    /// `--connect`, where the remote server owns its own configuration.
    fn local_only_flag(&self) -> Option<&'static str> {
        if self.threads.is_some() {
            Some("--threads")
        } else if self.cache_dir_flag.is_some() {
            Some("--cache-dir")
        } else if self.max_entries.is_some() {
            Some("--max-entries")
        } else if self.max_bytes.is_some() {
            Some("--max-bytes")
        } else if self.cache_gc_max_bytes.is_some() {
            Some("--cache-gc-max-bytes")
        } else if self.trace_journal.is_some() {
            Some("--trace-journal")
        } else if self.slow_threshold_ms.is_some() {
            Some("--slow-threshold-ms")
        } else if self.telemetry_dir.is_some() {
            Some("--telemetry-dir")
        } else if self.telemetry_interval_ms.is_some() {
            Some("--telemetry-interval-ms")
        } else if !self.alert_rules.is_empty() {
            Some("--alert-rule")
        } else {
            None
        }
    }

    /// Build a server from these options. `--cache-dir` falls back to
    /// the `DAHLIA_CACHE_DIR` environment variable.
    fn build(&self) -> Result<Server, ExitCode> {
        let mut cfg = ServerConfig::new();
        if let Some(n) = self.threads {
            cfg = cfg.threads(n);
        }
        let cache_dir = self
            .cache_dir_flag
            .clone()
            .or_else(|| std::env::var("DAHLIA_CACHE_DIR").ok());
        if let Some(dir) = &cache_dir {
            cfg = cfg.cache_dir(dir);
        }
        if let Some(n) = self.max_entries {
            cfg = cfg.max_entries(n);
        }
        if let Some(n) = self.max_bytes {
            cfg = cfg.max_bytes(n);
        }
        if let Some(n) = self.cache_gc_max_bytes {
            cfg = cfg.cache_gc_max_bytes(n as u64);
        }
        if let Some(n) = self.trace_journal {
            cfg = cfg.trace_journal(n);
        }
        if let Some(ms) = self.slow_threshold_ms {
            cfg = cfg.slow_threshold_ms(ms);
        }
        if let Some(dir) = &self.telemetry_dir {
            cfg = cfg.telemetry_dir(dir);
        }
        if let Some(ms) = self.telemetry_interval_ms {
            cfg = cfg.telemetry_interval_ms(ms as u64);
        }
        for rule in &self.alert_rules {
            cfg = cfg.alert_rule(rule);
        }
        // Build failures are all operator input: an unopenable cache or
        // telemetry directory, or an alert rule that does not parse.
        cfg.build().map_err(|e| {
            eprintln!("dahliac: cannot start service: {e}");
            ExitCode::from(EXIT_USAGE)
        })
    }
}

/// Bind and start the `--metrics` HTTP endpoint, announcing its
/// resolved address on stderr (scripts read it like the listen line).
/// `/metrics` serves the host's `snapshot` — which carries the socket
/// transport's session mix, frame counters, and shed totals once the
/// reactor serves the host.
fn start_metrics<H: SessionHost + 'static>(
    addr: &str,
    host: std::sync::Arc<H>,
    snapshot: fn(&H) -> Snapshot,
) -> Result<(), ExitCode> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| {
        eprintln!("dahliac: cannot bind metrics endpoint `{addr}`: {e}");
        ExitCode::from(EXIT_USAGE)
    })?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    let stats_host = std::sync::Arc::clone(&host);
    metrics::spawn(
        listener,
        std::sync::Arc::new(move || snapshot(&stats_host)),
        std::sync::Arc::new(move || query(&*host, ControlOp::Health)),
    )
    .map_err(|e| {
        eprintln!("dahliac: cannot start metrics thread: {e}");
        ExitCode::from(EXIT_USAGE)
    })?;
    eprintln!("dahliac: metrics on {local}");
    Ok(())
}

/// `dahliac serve`: the JSON-lines protocol over stdio or TCP.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (listen, metrics_addr, inflight_raw, wire_raw) = match (
        take_flag(&mut args, "--listen"),
        take_flag(&mut args, "--metrics"),
        take_flag(&mut args, "--max-inflight"),
        take_flag(&mut args, "--wire"),
    ) {
        (Ok(l), Ok(m), Ok(i), Ok(w)) => (l, m, i, w),
        (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
            eprintln!("dahliac: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let pipeline = take_switch(&mut args, "--pipeline");
    let max_inflight = match parse_positive("--max-inflight", inflight_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let wire_max = match parse_wire("--wire", wire_raw) {
        Ok(w) => w,
        Err(code) => return code,
    };
    if listen.is_none() && (max_inflight.is_some() || wire_max.is_some()) {
        eprintln!(
            "dahliac: --max-inflight and --wire shape the socket transport; they need --listen"
        );
        return ExitCode::from(EXIT_USAGE);
    }
    let opts = match ServiceOpts::take(&mut args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    if !args.is_empty() {
        eprintln!("dahliac: serve takes no positional arguments (got {args:?})\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    if listen.is_none() && !pipeline && opts.threads.is_some() {
        eprintln!(
            "dahliac: plain stdio serve answers requests in order on one \
             thread; --threads needs --pipeline or --listen"
        );
        return ExitCode::from(EXIT_USAGE);
    }

    // Plain stdio serve has one request in flight at a time, so one
    // pool worker suffices; pipelined modes want real parallelism.
    let opts = if listen.is_none() && !pipeline {
        ServiceOpts {
            threads: Some(1),
            ..opts
        }
    } else {
        opts
    };
    let server = match opts.build() {
        Ok(s) => std::sync::Arc::new(s),
        Err(code) => return code,
    };
    let mut net = NetConfig::new();
    if let Some(n) = max_inflight {
        net = net.max_inflight(n);
    }
    if let Some(w) = wire_max {
        net = net.max_wire(w);
    }
    if let Some(addr) = &metrics_addr {
        if let Err(code) = start_metrics(addr, std::sync::Arc::clone(&server), Server::snapshot) {
            return code;
        }
    }

    if let Some(addr) = listen {
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("dahliac: cannot listen on `{addr}`: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        let local = listener.local_addr().map(|a| a.to_string());
        eprintln!(
            "dahliac serve: listening on {}",
            local.as_deref().unwrap_or(&addr)
        );
        return match serve_sessions_with(std::sync::Arc::clone(&server), listener, net) {
            Ok(summary) => {
                server.flush();
                eprintln!(
                    "dahliac serve: {} connections, {} lines, {} protocol errors, {}",
                    summary.connections,
                    summary.lines,
                    summary.protocol_errors,
                    server.stats()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dahliac serve: I/O error: {e}");
                ExitCode::from(EXIT_NET)
            }
        };
    }

    let stdin = std::io::stdin();
    let served = if pipeline {
        // The pipelined writer runs on its own thread, which needs an
        // owned (Send) handle rather than a StdoutLock.
        server.serve_pipelined(stdin.lock(), std::io::stdout())
    } else {
        let stdout = std::io::stdout();
        server.serve(stdin.lock(), stdout.lock())
    };
    match served {
        Ok(summary) => {
            server.flush();
            eprintln!(
                "dahliac serve: {} lines, {} protocol errors, {}",
                summary.lines,
                summary.protocol_errors,
                server.stats()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dahliac serve: I/O error: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// A `dahliac serve` child forked by `gateway --spawn-workers`.
struct SpawnedWorker {
    child: std::process::Child,
    addr: String,
}

/// Fork `n` local shard processes (`dahliac serve --listen 127.0.0.1:0`)
/// and learn each one's ephemeral address from its announce line.
fn spawn_local_workers(n: usize, threads: Option<usize>) -> Result<Vec<SpawnedWorker>, ExitCode> {
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| {
        eprintln!("dahliac: cannot locate own binary to fork workers: {e}");
        ExitCode::from(EXIT_USAGE)
    })?;
    let mut workers = Vec::new();
    for i in 0..n {
        let mut cmd = Command::new(&exe);
        cmd.args(["serve", "--listen", "127.0.0.1:0"]);
        if let Some(t) = threads {
            cmd.args(["--threads", &t.to_string()]);
        }
        let spawned = cmd.stdin(Stdio::null()).stderr(Stdio::piped()).spawn();
        let mut child = match spawned {
            Ok(c) => c,
            Err(e) => {
                eprintln!("dahliac: cannot spawn worker {i}: {e}");
                shutdown_workers(&mut workers);
                return Err(ExitCode::from(EXIT_USAGE));
            }
        };
        // Scan the worker's stderr for its announce line on a helper
        // thread with a deadline: a worker wedged before binding (e.g.
        // an unreachable inherited DAHLIA_CACHE_DIR) must fail gateway
        // startup loudly, not hang it, and any lines the worker prints
        // *before* the announce (warnings, a metrics line some day)
        // must not break address capture. The same thread keeps
        // draining stderr afterwards — pass-through, never a full pipe.
        let mut stderr = std::io::BufReader::new(child.stderr.take().expect("piped stderr"));
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        std::thread::spawn(move || {
            let mut announced = false;
            loop {
                let mut line = String::new();
                match stderr.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                if !announced {
                    if let Some((_, addr)) = line.split_once("listening on ") {
                        announced = true;
                        let _ = tx.send(addr.trim().to_string());
                        // The announce is consumed (the gateway prints
                        // its own worker line); everything else passes
                        // through.
                        continue;
                    }
                }
                eprint!("{line}");
            }
        });
        let addr = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .ok()
            .filter(|a| !a.is_empty());
        let Some(addr) = addr else {
            eprintln!("dahliac: worker {i} failed to announce its address in time");
            let _ = child.kill();
            let _ = child.wait();
            shutdown_workers(&mut workers);
            return Err(ExitCode::from(EXIT_USAGE));
        };
        eprintln!("dahliac gateway: worker {i} on {addr} (pid {})", child.id());
        workers.push(SpawnedWorker { child, addr });
    }
    Ok(workers)
}

/// Stop every spawned worker: graceful protocol shutdown first, a kill
/// for anything that does not wind down in time.
fn shutdown_workers(workers: &mut Vec<SpawnedWorker>) {
    for w in workers.iter_mut() {
        if let Ok(mut c) = Client::connect_retry(w.addr.as_str(), 3) {
            let _ = c.shutdown_server();
        }
    }
    for w in workers.iter_mut() {
        let mut stopped = false;
        for _ in 0..50 {
            if matches!(w.child.try_wait(), Ok(Some(_))) {
                stopped = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        if !stopped {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
    workers.clear();
}

/// `dahliac gateway`: the sharded cluster front-end.
fn cmd_gateway(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let mut flags = Vec::new();
    for f in [
        "--listen",
        "--shards",
        "--spawn-workers",
        "--replication",
        "--threads",
        "--metrics",
        "--trace-journal",
        "--slow-threshold-ms",
        "--telemetry-dir",
        "--telemetry-interval-ms",
        "--auto-drain-after",
        "--max-inflight",
        "--wire",
        "--admission-cache",
    ] {
        match take_flag(&mut args, f) {
            Ok(v) => flags.push(v),
            Err(e) => {
                eprintln!("dahliac: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let [listen, shards_flag, spawn_raw, replication_raw, threads_raw, metrics_addr, journal_raw, slow_raw, tele_dir, tele_ms_raw, drain_after_raw, inflight_raw, wire_raw, adm_cache_raw] =
        flags.try_into().unwrap();
    let alert_rules = match take_alert_rules(&mut args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    if !args.is_empty() {
        eprintln!("dahliac: gateway takes no positional arguments (got {args:?})\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(listen) = listen else {
        eprintln!("dahliac: gateway needs --listen\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let threads = match parse_positive("--threads", threads_raw) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let replication = match parse_positive("--replication", replication_raw) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let spawn_workers = match parse_positive("--spawn-workers", spawn_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let trace_journal = match parse_positive("--trace-journal", journal_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let slow_threshold_ms = match parse_nonneg("--slow-threshold-ms", slow_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let telemetry_interval_ms = match parse_positive("--telemetry-interval-ms", tele_ms_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };
    // Zero is the documented "off" value, so non-negative.
    let auto_drain_after = match parse_nonneg("--auto-drain-after", drain_after_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let max_inflight = match parse_positive("--max-inflight", inflight_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };
    // `--wire v0` pins the client-facing listener to JSON lines; the
    // shard hop always speaks the v1 binary wire.
    let wire_max = match parse_wire("--wire", wire_raw) {
        Ok(w) => w,
        Err(code) => return code,
    };
    // Zero disables the admission cache, so non-negative.
    let admission_cache = match parse_nonneg("--admission-cache", adm_cache_raw) {
        Ok(n) => n,
        Err(code) => return code,
    };

    // `--shards a1=2,a2,…`: each entry is an address with an optional
    // rendezvous weight (see `dahlia_gateway::hash::parse_weighted`).
    let mut shard_addrs: Vec<(String, f64)> = Vec::new();
    if let Some(s) = shards_flag {
        for entry in s.split(',').map(str::trim).filter(|a| !a.is_empty()) {
            match dahlia_gateway::hash::parse_weighted(entry) {
                Ok(pair) => shard_addrs.push(pair),
                Err(e) => {
                    eprintln!("dahliac: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        }
    }
    let mut workers = Vec::new();
    if let Some(n) = spawn_workers {
        match spawn_local_workers(n, threads) {
            Ok(ws) => {
                shard_addrs.extend(ws.iter().map(|w| (w.addr.clone(), 1.0)));
                workers = ws;
            }
            Err(code) => return code,
        }
    }
    if shard_addrs.is_empty() {
        eprintln!("dahliac: gateway needs shards (--shards and/or --spawn-workers)\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }

    let mut cfg = GatewayConfig::new_weighted(shard_addrs);
    if let Some(r) = replication {
        cfg = cfg.replication(r);
    }
    if let Some(t) = threads {
        cfg = cfg.threads(t);
    }
    if let Some(n) = trace_journal {
        cfg = cfg.trace_journal(n);
    }
    if let Some(ms) = slow_threshold_ms {
        cfg = cfg.slow_threshold_ms(ms);
    }
    if let Some(dir) = &tele_dir {
        cfg = cfg.telemetry_dir(dir);
    }
    if let Some(ms) = telemetry_interval_ms {
        cfg = cfg.telemetry_interval_ms(ms as u64);
    }
    for rule in &alert_rules {
        cfg = cfg.alert_rule(rule);
    }
    if let Some(n) = auto_drain_after {
        cfg = cfg.auto_drain_after(n);
    }
    if let Some(n) = admission_cache {
        cfg = cfg.admission_cache(n as usize);
    }
    // `try_build` surfaces telemetry-directory and alert-rule problems
    // as startup usage errors instead of panicking mid-flight.
    let gateway = match cfg.try_build() {
        Ok(g) => std::sync::Arc::new(g),
        Err(e) => {
            eprintln!("dahliac: cannot start gateway: {e}");
            shutdown_workers(&mut workers);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut net = NetConfig::new();
    if let Some(n) = max_inflight {
        net = net.max_inflight(n);
    }
    if let Some(w) = wire_max {
        net = net.max_wire(w);
    }
    if let Some(addr) = &metrics_addr {
        if let Err(code) = start_metrics(addr, std::sync::Arc::clone(&gateway), Gateway::snapshot) {
            shutdown_workers(&mut workers);
            return code;
        }
    }
    let listener = match std::net::TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dahliac: cannot listen on `{listen}`: {e}");
            shutdown_workers(&mut workers);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let local = listener.local_addr().map(|a| a.to_string());
    eprintln!(
        "dahliac gateway: listening on {} ({} shards, {} live)",
        local.as_deref().unwrap_or(&listen),
        gateway.shard_count(),
        gateway.live_shards(),
    );

    let served = serve_sessions_with(std::sync::Arc::clone(&gateway), listener, net);
    // Snapshot shard state before stopping spawned workers, so the
    // summary reflects the serving run, not the teardown.
    let snapshots = gateway.shard_snapshots();
    shutdown_workers(&mut workers);
    match served {
        Ok(summary) => {
            eprintln!(
                "dahliac gateway: {} connections, {} lines, {} protocol errors; \
                 {} requests ({} rerouted, {} local fallbacks)",
                summary.connections,
                summary.lines,
                summary.protocol_errors,
                gateway.requests(),
                gateway.rerouted(),
                gateway.local_fallbacks(),
            );
            for s in snapshots {
                eprintln!(
                    "dahliac gateway: shard {} {}{}: weight {}, {} routed, {} failed, \
                     {} retried, {} replicated, {} drained keys",
                    s.addr,
                    if s.alive { "up" } else { "down" },
                    if s.draining { " (draining)" } else { "" },
                    s.weight,
                    s.routed,
                    s.failed,
                    s.retried,
                    s.replicated,
                    s.drained_keys,
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dahliac gateway: I/O error: {e}");
            ExitCode::from(EXIT_NET)
        }
    }
}

/// `dahliac gateway-admin`: drive a live gateway's drain/undrain ops
/// over the wire protocol. Prints the gateway's ack object on stdout;
/// exit 0 when the gateway accepted the op, 1 when it refused (e.g.
/// unknown shard), 5 when the gateway is unreachable.
fn cmd_gateway_admin(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (connect, weight_raw) = match (
        take_flag(&mut args, "--connect"),
        take_flag(&mut args, "--weight"),
    ) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dahliac: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let (op, shard) = match args.as_slice() {
        [op, shard] if op == "drain" || op == "undrain" => (op.clone(), shard.clone()),
        [op, ..] if op != "drain" && op != "undrain" => {
            eprintln!(
                "dahliac: gateway-admin op must be `drain` or `undrain`, got `{op}`\n{USAGE}"
            );
            return ExitCode::from(EXIT_USAGE);
        }
        _ => {
            eprintln!("dahliac: gateway-admin needs an op and a shard address\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let Some(addr) = connect else {
        eprintln!("dahliac: gateway-admin needs --connect\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let weight = match weight_raw {
        None => None,
        Some(w) => match w.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Some(v),
            _ => {
                eprintln!("dahliac: --weight needs a positive number, got `{w}`");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    if weight.is_some() && op == "drain" {
        eprintln!("dahliac: --weight only makes sense with `undrain` (joining a shard)");
        return ExitCode::from(EXIT_USAGE);
    }

    let mut fields = vec![("op", Json::Str(op)), ("shard", Json::Str(shard))];
    if let Some(w) = weight {
        fields.push(("weight", Json::Num(w)));
    }
    let line = obj(fields).emit();
    let sent = Client::connect_retry(addr.as_str(), 50).and_then(|mut c| {
        c.send_line(&line)?;
        c.recv_line()
    });
    match sent {
        Ok(Some(ack)) => {
            println!("{ack}");
            let ok = Json::parse(&ack)
                .ok()
                .and_then(|v| v.get("ok").and_then(Json::as_bool))
                .unwrap_or(false);
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_RUNTIME)
            }
        }
        Ok(None) => {
            eprintln!("dahliac: `{addr}` closed the connection without answering");
            ExitCode::from(EXIT_NET)
        }
        Err(e) => {
            eprintln!("dahliac: cannot reach gateway `{addr}`: {e}");
            ExitCode::from(EXIT_NET)
        }
    }
}

/// Send one control line to a live server or gateway and print its
/// answer verbatim (the canonical compact envelope, one line, ready
/// for `jq`). Shared by `history` and `alerts`.
fn control_round_trip(addr: &str, line: &str) -> ExitCode {
    let sent = Client::connect_retry(addr, 50).and_then(|mut c| {
        c.send_line(line)?;
        c.recv_line()
    });
    match sent {
        Ok(Some(answer)) => {
            println!("{answer}");
            ExitCode::SUCCESS
        }
        Ok(None) => {
            eprintln!("dahliac: `{addr}` closed the connection without answering");
            ExitCode::from(EXIT_NET)
        }
        Err(e) => {
            eprintln!("dahliac: cannot reach `{addr}`: {e}");
            ExitCode::from(EXIT_NET)
        }
    }
}

/// The paper's blocked-gemm design space: four banking factors over
/// 1..=4 and three unroll factors over {1,2,4,6,8} — 32,000 points.
fn gemm_blocked_space() -> Vec<(String, Vec<u64>)> {
    let banks = vec![1, 2, 3, 4];
    let unrolls = vec![1, 2, 4, 6, 8];
    vec![
        ("bank_m1_d1".to_string(), banks.clone()),
        ("bank_m1_d2".to_string(), banks.clone()),
        ("bank_m2_d1".to_string(), banks.clone()),
        ("bank_m2_d2".to_string(), banks),
        ("unroll_i".to_string(), unrolls.clone()),
        ("unroll_j".to_string(), unrolls.clone()),
        ("unroll_k".to_string(), unrolls),
    ]
}

/// `dahliac sweep`: scatter a templated design-space exploration
/// across a live gateway's shards and stream the Pareto front back.
fn cmd_sweep(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let mut flags: HashMap<&str, Option<String>> = HashMap::new();
    for f in [
        "--connect",
        "--template",
        "--kernel",
        "--name",
        "--stage",
        "--stride",
        "--update-every",
        "--out",
        "--n",
        "--block",
    ] {
        match take_flag(&mut args, f) {
            Ok(v) => {
                flags.insert(f, v);
            }
            Err(e) => {
                eprintln!("dahliac: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let resume = take_switch(&mut args, "--resume");
    let prune = take_switch(&mut args, "--prune");
    let mut param_flags = Vec::new();
    loop {
        match take_flag(&mut args, "--param") {
            Ok(Some(v)) => param_flags.push(v),
            Ok(None) => break,
            Err(e) => {
                eprintln!("dahliac: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if !args.is_empty() {
        eprintln!("dahliac: sweep takes no positional arguments (got {args:?})\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(addr) = flags.remove("--connect").flatten() else {
        eprintln!("dahliac: sweep needs --connect\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let stride = match parse_positive("--stride", flags.remove("--stride").flatten()) {
        Ok(n) => n.unwrap_or(1) as u64,
        Err(code) => return code,
    };
    let update_every =
        match parse_nonneg("--update-every", flags.remove("--update-every").flatten()) {
            Ok(n) => n.unwrap_or(0),
            Err(code) => return code,
        };
    let template_file = flags.remove("--template").flatten();
    let kernel = flags.remove("--kernel").flatten();
    let (template, mut params, default_name) = match (template_file, kernel.as_deref()) {
        (Some(_), Some(_)) => {
            eprintln!("dahliac: --template and --kernel are mutually exclusive");
            return ExitCode::from(EXIT_USAGE);
        }
        (Some(path), None) => {
            let text = match read_source(&path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            (text, Vec::new(), "sweep".to_string())
        }
        (None, kernel) => {
            let kernel = kernel.unwrap_or("gemm-blocked");
            if kernel != "gemm-blocked" {
                eprintln!("dahliac: unknown sweep kernel `{kernel}` (try gemm-blocked)");
                return ExitCode::from(EXIT_USAGE);
            }
            let n = match parse_positive("--n", flags.remove("--n").flatten()) {
                Ok(v) => v.unwrap_or(128) as u64,
                Err(code) => return code,
            };
            let block = match parse_positive("--block", flags.remove("--block").flatten()) {
                Ok(v) => v.unwrap_or(8) as u64,
                Err(code) => return code,
            };
            (
                dahlia_kernels::gemm::gemm_blocked_template(n, block),
                gemm_blocked_space(),
                "gemm-blocked".to_string(),
            )
        }
    };
    // `--param name=v1,v2,...` overrides a default axis (or, for
    // template-file sweeps, defines the space from scratch).
    for raw in param_flags {
        let Some((name, values)) = raw.split_once('=') else {
            eprintln!("dahliac: --param needs name=v1,v2,... (got `{raw}`)");
            return ExitCode::from(EXIT_USAGE);
        };
        let parsed: Result<Vec<u64>, _> = values.split(',').map(str::parse::<u64>).collect();
        let Ok(vs) = parsed else {
            eprintln!("dahliac: --param {name} values must be integers (got `{values}`)");
            return ExitCode::from(EXIT_USAGE);
        };
        match params.iter_mut().find(|(k, _)| k == name) {
            Some((_, slot)) => *slot = vs,
            None => params.push((name.to_string(), vs)),
        }
    }
    if params.is_empty() {
        eprintln!("dahliac: sweep needs at least one --param axis\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    let name = flags.remove("--name").flatten().unwrap_or(default_name);
    let stage = flags
        .remove("--stage")
        .flatten()
        .unwrap_or_else(|| "est".to_string());
    let out = flags.remove("--out").flatten();

    let params_json = Json::Obj(
        params
            .iter()
            .map(|(k, vs)| {
                (
                    k.clone(),
                    Json::Arr(vs.iter().map(|&v| Json::Num(v as f64)).collect()),
                )
            })
            .collect(),
    );
    let op_line = obj([
        ("op", Json::Str("sweep".into())),
        ("id", Json::Str("cli-sweep".into())),
        ("name", Json::Str(name)),
        ("template", Json::Str(template)),
        ("params", params_json),
        ("stage", Json::Str(stage)),
        ("stride", Json::Num(stride as f64)),
        ("resume", Json::Bool(resume)),
        ("prune", Json::Bool(prune)),
        ("update_every", Json::Num(update_every as f64)),
    ])
    .emit();

    let mut client = match Client::connect_retry(addr.as_str(), 50) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dahliac: cannot connect to `{addr}`: {e}");
            return ExitCode::from(EXIT_NET);
        }
    };
    if let Err(e) = client.send_line(&op_line) {
        eprintln!("dahliac: cannot send to `{addr}`: {e}");
        return ExitCode::from(EXIT_NET);
    }
    // One line per incremental update, one final `"done":true` line.
    loop {
        match client.recv_line() {
            Ok(Some(line)) => {
                println!("{line}");
                let v = Json::parse(&line).unwrap_or(Json::Null);
                if v.get("done").and_then(Json::as_bool) == Some(true) {
                    if let Some(path) = &out {
                        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
                            eprintln!("dahliac: cannot write `{path}`: {e}");
                            return ExitCode::from(EXIT_USAGE);
                        }
                    }
                    return if v.get("ok").and_then(Json::as_bool) == Some(true) {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(EXIT_RUNTIME)
                    };
                }
            }
            Ok(None) => {
                eprintln!("dahliac: `{addr}` closed the connection mid-sweep");
                return ExitCode::from(EXIT_NET);
            }
            Err(e) => {
                eprintln!("dahliac: network error talking to `{addr}`: {e}");
                return ExitCode::from(EXIT_NET);
            }
        }
    }
}

/// `dahliac history`: query a remote's durable telemetry ring for one
/// series, downsampled into `--step`-sized bins since a wall-clock
/// millisecond cursor.
fn cmd_history(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let mut flags = Vec::new();
    for f in ["--connect", "--series", "--since", "--step"] {
        match take_flag(&mut args, f) {
            Ok(v) => flags.push(v),
            Err(e) => {
                eprintln!("dahliac: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let [connect, series, since_raw, step_raw] = flags.try_into().unwrap();
    if !args.is_empty() {
        eprintln!("dahliac: history takes no positional arguments (got {args:?})\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(addr) = connect else {
        eprintln!("dahliac: history needs --connect\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let Some(series) = series else {
        eprintln!("dahliac: history needs --series (e.g. window.error_rate)\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let since = match parse_nonneg("--since", since_raw) {
        Ok(n) => n.unwrap_or(0),
        Err(code) => return code,
    };
    let step = match parse_nonneg("--step", step_raw) {
        Ok(n) => n.unwrap_or(0),
        Err(code) => return code,
    };
    let line = obj([
        ("op", Json::Str("history".to_string())),
        ("series", Json::Str(series)),
        ("since", Json::Num(since as f64)),
        ("step", Json::Num(step as f64)),
    ])
    .emit();
    control_round_trip(&addr, &line)
}

/// `dahliac alerts`: dump a remote's alert rule states and transition
/// journal (optionally only entries past a `--since` sequence cursor).
fn cmd_alerts(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (connect, since_raw) = match (
        take_flag(&mut args, "--connect"),
        take_flag(&mut args, "--since"),
    ) {
        (Ok(c), Ok(s)) => (c, s),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dahliac: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if !args.is_empty() {
        eprintln!("dahliac: alerts takes no positional arguments (got {args:?})\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(addr) = connect else {
        eprintln!("dahliac: alerts needs --connect\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let since = match parse_nonneg("--since", since_raw) {
        Ok(n) => n.unwrap_or(0),
        Err(code) => return code,
    };
    let line = obj([
        ("op", Json::Str("alerts".to_string())),
        ("since", Json::Num(since as f64)),
    ])
    .emit();
    control_round_trip(&addr, &line)
}

/// One `{"op":"stats"}` round trip: the payload under the `stats`
/// envelope. Shared by `batch --connect` round accounting and `top`.
fn fetch_remote_stats(client: &mut Client) -> std::io::Result<Json> {
    client.send_line(r#"{"op":"stats"}"#)?;
    let line = client.recv_line()?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection during a stats request",
        )
    })?;
    let v = Json::parse(&line).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unparseable stats line: {e}"),
        )
    })?;
    Ok(v.get("stats").cloned().unwrap_or(Json::Null))
}

/// Scale a series onto the eight spark glyphs (▁▂▃▄▅▆▇█), newest bin
/// last. `None` when the series is empty, so `top` omits the row
/// entirely on remotes running without `--telemetry-dir`.
fn sparkline(values: &[f64]) -> Option<String> {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return None;
    }
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    Some(
        values
            .iter()
            .map(|v| {
                let i = if max > 0.0 {
                    ((v / max) * 7.0).round() as usize
                } else {
                    0
                };
                BARS[i.min(7)]
            })
            .collect(),
    )
}

/// One `{"op":"history"}` round trip, reduced to the per-bin value a
/// sparkline plots: `mean` for scalar series, `p99` for histogram
/// series. A remote without durable telemetry answers with zero
/// points, which comes back as an empty vector.
fn fetch_history_series(
    client: &mut Client,
    series: &str,
    since: u64,
    step: u64,
) -> std::io::Result<Vec<f64>> {
    let line = obj([
        ("op", Json::Str("history".to_string())),
        ("series", Json::Str(series.to_string())),
        ("since", Json::Num(since as f64)),
        ("step", Json::Num(step as f64)),
    ])
    .emit();
    client.send_line(&line)?;
    let answer = client.recv_line()?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection during a history request",
        )
    })?;
    let v = Json::parse(&answer).unwrap_or(Json::Null);
    let mut out = Vec::new();
    if let Some(Json::Arr(points)) = v.get("history").and_then(|h| h.get("points")) {
        for p in points {
            out.push(
                p.get("mean")
                    .and_then(Json::as_f64)
                    .or_else(|| p.get("p99").and_then(Json::as_f64))
                    .unwrap_or(0.0),
            );
        }
    }
    Ok(out)
}

/// The sparkline rows of a `top` frame: the last two minutes of
/// windowed throughput and p99 latency from the remote's durable
/// telemetry, in 4-second bins. Empty (no rows rendered) when the
/// remote runs without `--telemetry-dir`.
fn fetch_top_sparks(client: &mut Client) -> std::io::Result<Vec<(&'static str, String)>> {
    const HORIZON_MS: u64 = 120_000;
    const STEP_MS: u64 = 4_000;
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let since = now_ms.saturating_sub(HORIZON_MS);
    let mut rows = Vec::new();
    for (label, series) in [("req/s", "window.rate"), ("p99us", "window.latency_us")] {
        let values = fetch_history_series(client, series, since, STEP_MS)?;
        if let Some(spark) = sparkline(&values) {
            rows.push((label, spark));
        }
    }
    Ok(rows)
}

/// One row of the `top` shard table, lifted from the gateway's
/// `shards` array.
struct TopShard {
    addr: String,
    alive: bool,
    draining: bool,
    rate: f64,
    error_rate: f64,
    p99_us: f64,
    queue_depth: f64,
    warm_keys: f64,
}

/// The fields `top` renders, extracted from one stats poll. Works
/// against a gateway (per-shard table + cluster totals) and a plain
/// server (totals only — the table is empty).
struct TopSnapshot {
    requests: f64,
    rate: f64,
    error_rate: f64,
    p50_us: f64,
    p99_us: f64,
    in_flight: f64,
    queue_depth: f64,
    shards_live: Option<f64>,
    shards: Vec<TopShard>,
    /// `(sessions_v0, sessions_v1, requests_shed)` from the remote's
    /// socket transport, when it runs the reactor (absent over stdio).
    transport: Option<(f64, f64, f64)>,
    /// Gateway front-door admission-cache hits (absent on plain servers).
    admission_hits: Option<f64>,
    /// Cluster sweep lifetime counters `(completed, points_done,
    /// points_skipped, points_pruned, last_points_per_s)` — gateway only.
    sweeps: Option<(f64, f64, f64, f64, f64)>,
}

impl TopSnapshot {
    fn from_stats(stats: &Json) -> TopSnapshot {
        let num = |v: Option<&Json>, k: &str| v.and_then(|o| o.get(k)).and_then(Json::as_f64);
        let window = stats.get("window");
        let hist = window.and_then(|w| w.get("latency_us"));
        let gateway = stats.get("gateway");
        let mut shards = Vec::new();
        if let Some(Json::Arr(items)) = gateway.and_then(|g| g.get("shards")) {
            for item in items {
                shards.push(TopShard {
                    addr: item
                        .get("addr")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    alive: item.get("alive").and_then(Json::as_bool).unwrap_or(false),
                    draining: item
                        .get("draining")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    rate: num(Some(item), "window_rate").unwrap_or(0.0),
                    error_rate: num(Some(item), "window_error_rate").unwrap_or(0.0),
                    p99_us: num(Some(item), "window_p99_us").unwrap_or(0.0),
                    queue_depth: num(Some(item), "queue_depth").unwrap_or(0.0),
                    warm_keys: num(Some(item), "warm_keys").unwrap_or(0.0),
                });
            }
        }
        let sweeps = gateway.and_then(|g| g.get("sweeps")).map(|s| {
            (
                num(Some(s), "completed").unwrap_or(0.0),
                num(Some(s), "points_done").unwrap_or(0.0),
                num(Some(s), "points_skipped").unwrap_or(0.0),
                num(Some(s), "points_pruned").unwrap_or(0.0),
                num(Some(s), "last_points_per_s").unwrap_or(0.0),
            )
        });
        let transport = stats.get("transport").map(|t| {
            (
                num(Some(t), "sessions_v0").unwrap_or(0.0),
                num(Some(t), "sessions_v1").unwrap_or(0.0),
                num(Some(t), "requests_shed").unwrap_or(0.0),
            )
        });
        TopSnapshot {
            requests: num(Some(stats), "requests").unwrap_or(0.0),
            rate: num(window, "rate").unwrap_or(0.0),
            error_rate: num(window, "error_rate").unwrap_or(0.0),
            p50_us: num(hist, "p50").unwrap_or(0.0),
            p99_us: num(hist, "p99").unwrap_or(0.0),
            in_flight: num(window, "in_flight").unwrap_or(0.0),
            queue_depth: num(window, "queue_depth").unwrap_or(0.0),
            shards_live: num(gateway, "shards_live"),
            shards,
            transport,
            admission_hits: num(gateway, "admission_cache_hits"),
            sweeps,
        }
    }

    /// The `--once` machine-readable form: one compact JSON object
    /// under a `top` envelope, round-trippable by `Json::parse`.
    fn to_json(&self, addr: &str) -> Json {
        let mut fields = vec![
            ("addr", Json::Str(addr.to_string())),
            ("requests", Json::Num(self.requests)),
            ("rate", Json::Num(self.rate)),
            ("error_rate", Json::Num(self.error_rate)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("in_flight", Json::Num(self.in_flight)),
            ("queue_depth", Json::Num(self.queue_depth)),
        ];
        if let Some(live) = self.shards_live {
            fields.push(("shards_live", Json::Num(live)));
        }
        if let Some((v0, v1, shed)) = self.transport {
            fields.push(("sessions_v0", Json::Num(v0)));
            fields.push(("sessions_v1", Json::Num(v1)));
            fields.push(("requests_shed", Json::Num(shed)));
        }
        if let Some(hits) = self.admission_hits {
            fields.push(("admission_cache_hits", Json::Num(hits)));
        }
        if let Some((completed, done, skipped, pruned, pps)) = self.sweeps {
            fields.push(("sweep_completed", Json::Num(completed)));
            fields.push(("sweep_points_done", Json::Num(done)));
            fields.push(("sweep_points_skipped", Json::Num(skipped)));
            fields.push(("sweep_points_pruned", Json::Num(pruned)));
            fields.push(("sweep_points_per_s", Json::Num(pps)));
        }
        fields.push((
            "shards",
            Json::Arr(
                self.shards
                    .iter()
                    .map(|s| {
                        obj([
                            ("addr", Json::Str(s.addr.clone())),
                            ("alive", Json::Bool(s.alive)),
                            ("draining", Json::Bool(s.draining)),
                            ("rate", Json::Num(s.rate)),
                            ("error_rate", Json::Num(s.error_rate)),
                            ("p99_us", Json::Num(s.p99_us)),
                            ("queue_depth", Json::Num(s.queue_depth)),
                            ("warm_keys", Json::Num(s.warm_keys)),
                        ])
                    })
                    .collect(),
            ),
        ));
        obj([(
            "top",
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        )])
    }

    /// The interactive console frame.
    fn render(&self, addr: &str, elapsed_s: u64, sparks: &[(&'static str, String)]) -> String {
        let mut out = String::new();
        out.push_str(&format!("dahliac top — {addr} — up {elapsed_s}s\n"));
        out.push_str(&format!(
            "cluster: {:>8.1} req/s  {:>6.1} err/s  p50 {:>8.0}us  p99 {:>8.0}us  \
             in-flight {:>3.0}  queue {:>3.0}",
            self.rate, self.error_rate, self.p50_us, self.p99_us, self.in_flight, self.queue_depth,
        ));
        if let Some(live) = self.shards_live {
            out.push_str(&format!("  live {live:.0}/{}", self.shards.len()));
        }
        out.push('\n');
        if self.transport.is_some() || self.admission_hits.is_some() {
            out.push_str("wire:   ");
            if let Some((v0, v1, shed)) = self.transport {
                out.push_str(&format!("{v0:.0} v0 + {v1:.0} v1 sessions  shed {shed:.0}"));
            }
            if let Some(hits) = self.admission_hits {
                if self.transport.is_some() {
                    out.push_str("  ");
                }
                out.push_str(&format!("admission hits {hits:.0}"));
            }
            out.push('\n');
        }
        if let Some((completed, done, skipped, pruned, pps)) = self.sweeps {
            if completed > 0.0 || done > 0.0 {
                out.push_str(&format!(
                    "sweeps: {completed:.0} completed  {done:.0} evaluated  \
                     {skipped:.0} resumed  {pruned:.0} pruned  {pps:.1} pts/s\n"
                ));
            }
        }
        if !sparks.is_empty() {
            out.push('\n');
            for (label, spark) in sparks {
                out.push_str(&format!("{label:>6}  {spark}  (2m, 4s bins)\n"));
            }
        }
        if !self.shards.is_empty() {
            out.push_str(&format!(
                "\n{:<24} {:>5} {:>10} {:>8} {:>10} {:>6} {:>7}\n",
                "SHARD", "STATE", "ROUTED/S", "ERR/S", "P99(us)", "QUEUE", "WARM"
            ));
            for s in &self.shards {
                let state = if s.draining {
                    "drain"
                } else if s.alive {
                    "up"
                } else {
                    "down"
                };
                out.push_str(&format!(
                    "{:<24} {:>5} {:>10.1} {:>8.1} {:>10.0} {:>6.0} {:>7.0}\n",
                    s.addr, state, s.rate, s.error_rate, s.p99_us, s.queue_depth, s.warm_keys,
                ));
            }
        }
        out
    }
}

/// `dahliac top`: a live load console over a server or gateway's wire
/// protocol. Redraws every `--interval-ms` until interrupted; `--once`
/// prints a single machine-readable snapshot and exits.
fn cmd_top(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (connect, interval_raw) = match (
        take_flag(&mut args, "--connect"),
        take_flag(&mut args, "--interval-ms"),
    ) {
        (Ok(c), Ok(i)) => (c, i),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dahliac: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let once = take_switch(&mut args, "--once");
    if !args.is_empty() {
        eprintln!("dahliac: top takes no positional arguments (got {args:?})\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(addr) = connect else {
        eprintln!("dahliac: top needs --connect\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let interval = match parse_positive("--interval-ms", interval_raw) {
        Ok(n) => n.unwrap_or(2000) as u64,
        Err(code) => return code,
    };

    let mut client = match Client::connect_retry(addr.as_str(), 50) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dahliac: cannot connect to `{addr}`: {e}");
            return ExitCode::from(EXIT_NET);
        }
    };
    let t0 = Instant::now();
    loop {
        let stats = match fetch_remote_stats(&mut client) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dahliac: network error talking to `{addr}`: {e}");
                return ExitCode::from(EXIT_NET);
            }
        };
        let snap = TopSnapshot::from_stats(&stats);
        if once {
            println!("{}", snap.to_json(&addr).emit());
            return ExitCode::SUCCESS;
        }
        let sparks = match fetch_top_sparks(&mut client) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dahliac: network error talking to `{addr}`: {e}");
                return ExitCode::from(EXIT_NET);
            }
        };
        // ANSI clear + home: a real terminal redraw, not a scroll.
        print!(
            "\x1b[2J\x1b[H{}",
            snap.render(&addr, t0.elapsed().as_secs(), &sparks)
        );
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

/// The request set for one batch invocation.
fn batch_programs(use_kernels: bool, files: &[String]) -> Result<Vec<(String, String)>, ExitCode> {
    let mut programs: Vec<(String, String)> = Vec::new();
    if use_kernels {
        for b in dahlia_kernels::all_benches() {
            programs.push((b.name.to_string(), b.source));
        }
    }
    for path in files {
        let src = read_source(path)?;
        let name = if path == "-" {
            "stdin".to_string()
        } else {
            std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().replace('-', "_"))
                .unwrap_or_else(|| "kernel".to_string())
        };
        programs.push((name, src));
    }
    if programs.is_empty() {
        eprintln!("dahliac: batch needs input programs (--kernels and/or files)\n{USAGE}");
        return Err(ExitCode::from(EXIT_USAGE));
    }
    Ok(programs)
}

fn round_requests(
    programs: &[(String, String)],
    stage: Stage,
    round: u32,
    traced: bool,
) -> Vec<Request> {
    programs
        .iter()
        .enumerate()
        .map(|(i, (name, src))| {
            let req = Request::new(format!("{i}:{name}#{round}"), stage, src, name);
            if traced {
                req.traced(format!("t{round}-{i}"))
            } else {
                req
            }
        })
        .collect()
}

fn print_round_summary(round: u32, requests: usize, ok: usize, wall_us: u64, delta: [u64; 3]) {
    println!(
        "{}",
        obj([
            ("round", Json::Num(round as f64)),
            ("requests", Json::Num(requests as f64)),
            ("ok", Json::Num(ok as f64)),
            ("errors", Json::Num((requests - ok) as f64)),
            ("wall_us", Json::Num(wall_us as f64)),
            ("hits", Json::Num(delta[0] as f64)),
            ("misses", Json::Num(delta[1] as f64)),
            ("joins", Json::Num(delta[2] as f64)),
        ])
        .emit()
    );
}

fn print_batch_summary(repeat: u32, programs: usize, round_walls: &[u64], stats: Json) {
    let cold = round_walls[0];
    let warm = *round_walls.last().unwrap();
    let speedup = cold as f64 / warm.max(1) as f64;
    let mut fields = vec![
        ("rounds", Json::Num(repeat as f64)),
        ("programs", Json::Num(programs as f64)),
        ("cold_wall_us", Json::Num(cold as f64)),
        ("warm_wall_us", Json::Num(warm as f64)),
    ];
    if repeat > 1 {
        fields.push(("speedup", Json::Num((speedup * 100.0).round() / 100.0)));
    }
    fields.push(("stats", stats));
    println!("{}", obj([("batch", obj(fields))]).emit());
}

/// `dahliac batch`: compile many programs through the service (local or
/// remote), optionally several rounds, and report per-round wall time
/// plus cache stats.
fn cmd_batch(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (repeat_raw, stage_raw, connect, wire_raw) = match (
        take_flag(&mut args, "--repeat"),
        take_flag(&mut args, "--stage"),
        take_flag(&mut args, "--connect"),
        take_flag(&mut args, "--wire"),
    ) {
        (Ok(r), Ok(s), Ok(c), Ok(w)) => (r, s, c, w),
        (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (.., Err(e)) => {
            eprintln!("dahliac: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let wire_max = match parse_wire("--wire", wire_raw) {
        Ok(w) => w,
        Err(code) => return code,
    };
    if wire_max.is_some() && connect.is_none() {
        eprintln!("dahliac: --wire picks the socket protocol; it needs --connect");
        return ExitCode::from(EXIT_USAGE);
    }
    let opts = match ServiceOpts::take(&mut args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let repeat = match repeat_raw {
        None => 2,
        Some(r) => match r.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("dahliac: --repeat needs a positive integer, got `{r}`");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    let stage = match stage_raw {
        None => Stage::Estimate,
        Some(s) => match Stage::from_name(&s) {
            Some(st) => st,
            None => {
                eprintln!("dahliac: unknown stage `{s}` (parse|check|desugar|lower|cpp|est)");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    let use_kernels = take_switch(&mut args, "--kernels");
    let verbose = take_switch(&mut args, "--verbose");
    let traced = take_switch(&mut args, "--trace");
    let slowlog = take_switch(&mut args, "--slowlog");
    let shutdown = take_switch(&mut args, "--shutdown");
    if shutdown && connect.is_none() {
        eprintln!("dahliac: --shutdown only makes sense with --connect");
        return ExitCode::from(EXIT_USAGE);
    }
    if connect.is_some() {
        if let Some(flag) = opts.local_only_flag() {
            eprintln!(
                "dahliac: {flag} configures an in-process server and is \
                 ignored by the remote one; drop it or drop --connect"
            );
            return ExitCode::from(EXIT_USAGE);
        }
    }

    // `--shutdown` with no inputs is a pure control action: stop the
    // remote (server or gateway) without compiling anything.
    if shutdown && !use_kernels && args.is_empty() {
        let addr = connect.expect("checked above");
        return match Client::connect_retry(addr.as_str(), 50).and_then(|mut c| c.shutdown_server())
        {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dahliac: cannot shut down `{addr}`: {e}");
                ExitCode::from(EXIT_NET)
            }
        };
    }

    let programs = match batch_programs(use_kernels, &args) {
        Ok(p) => p,
        Err(code) => return code,
    };

    if let Some(addr) = connect {
        return batch_over_tcp(
            &addr,
            &programs,
            stage,
            repeat,
            verbose,
            traced,
            slowlog,
            shutdown,
            wire_max.unwrap_or(0),
        );
    }

    let server = match opts.build() {
        Ok(s) => s,
        Err(code) => return code,
    };

    let mut round_walls: Vec<u64> = Vec::new();
    let mut any_failed = false;
    let mut prev = server.stats();
    for round in 1..=repeat {
        let reqs = round_requests(&programs, stage, round, traced);
        let n = reqs.len();
        let t0 = Instant::now();
        let responses = server.submit_batch(reqs);
        let wall_us = t0.elapsed().as_micros() as u64;
        round_walls.push(wall_us);

        let ok = responses.iter().filter(|r| r.ok()).count();
        any_failed |= ok < n;
        if verbose {
            for r in &responses {
                println!("{}", r.to_line());
            }
        }
        let now = server.stats();
        print_round_summary(
            round,
            n,
            ok,
            wall_us,
            [
                now.store.hits - prev.store.hits,
                now.store.misses - prev.store.misses,
                now.store.joins - prev.store.joins,
            ],
        );
        prev = now;
    }

    // Drain the write-behind queue so the printed stats (and the cache
    // directory another process is about to inherit) are complete.
    server.flush();
    print_batch_summary(
        repeat,
        programs.len(),
        &round_walls,
        query(&server, ControlOp::Stats),
    );
    if traced {
        // The journal dump, in the same envelope the wire op answers
        // with, so scripts parse both paths identically.
        println!(
            "{}",
            obj([("trace", query(&server, ControlOp::Trace))]).emit()
        );
    }
    if slowlog {
        // The slow-request log, same envelope as the wire op. A full
        // dump (cursor 0): a batch run is one-shot, not a poller.
        println!(
            "{}",
            obj([("slowlog", query(&server, ControlOp::Slowlog { since: 0 }))]).emit()
        );
    }

    if any_failed {
        ExitCode::from(EXIT_RUNTIME)
    } else {
        ExitCode::SUCCESS
    }
}

/// Drive a remote `dahliac serve --listen` over the socket transport.
/// Responses arrive pipelined and possibly out of order; correlation is
/// by request id.
#[allow(clippy::too_many_arguments)]
fn batch_over_tcp(
    addr: &str,
    programs: &[(String, String)],
    stage: Stage,
    repeat: u32,
    verbose: bool,
    traced: bool,
    slowlog: bool,
    shutdown: bool,
    wire_max: u32,
) -> ExitCode {
    let mut client = match Client::connect_retry_wire(addr, 50, wire_max) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dahliac: cannot connect to `{addr}`: {e}");
            return ExitCode::from(EXIT_NET);
        }
    };
    if wire_max > 0 {
        eprintln!(
            "dahliac batch: negotiated wire v{} with `{addr}`",
            client.wire_version()
        );
    }

    let run = |client: &mut Client| -> std::io::Result<ExitCode> {
        // Saturating: another client may reset nothing (counters are
        // monotonic), but a defensive delta never underflows.
        let counter =
            |stats: &Json, key: &str| -> u64 { stats.get(key).and_then(Json::as_u64).unwrap_or(0) };
        let delta = |now: &Json, prev: &Json, key: &str| -> u64 {
            counter(now, key).saturating_sub(counter(prev, key))
        };

        let mut round_walls: Vec<u64> = Vec::new();
        let mut any_failed = false;
        let mut prev = fetch_remote_stats(client)?;
        for round in 1..=repeat {
            let reqs = round_requests(programs, stage, round, traced);
            let n = reqs.len();
            let t0 = Instant::now();
            for r in &reqs {
                client.send_line(&r.to_line())?;
            }
            let mut ok = 0usize;
            for _ in 0..n {
                let Some(line) = client.recv_line()? else {
                    eprintln!("dahliac: server closed the connection mid-round");
                    return Ok(ExitCode::from(EXIT_NET));
                };
                if verbose {
                    println!("{line}");
                }
                let v = Json::parse(&line).unwrap_or(Json::Null);
                if v.get("ok").and_then(Json::as_bool) == Some(true) {
                    ok += 1;
                }
            }
            let wall_us = t0.elapsed().as_micros() as u64;
            round_walls.push(wall_us);
            any_failed |= ok < n;
            let now = fetch_remote_stats(client)?;
            print_round_summary(
                round,
                n,
                ok,
                wall_us,
                [
                    delta(&now, &prev, "hits"),
                    delta(&now, &prev, "misses"),
                    delta(&now, &prev, "joins"),
                ],
            );
            prev = now;
        }

        let stats = fetch_remote_stats(client)?;
        print_batch_summary(repeat, programs.len(), &round_walls, stats);
        if traced {
            // Dump the remote's trace journal (gateway or server —
            // the op is the same) as the batch's last output line.
            client.send_line(r#"{"op":"trace"}"#)?;
            let line = client.recv_line()?.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection during a trace request",
                )
            })?;
            println!("{line}");
        }
        if slowlog {
            // And the remote's slow-request log, full dump.
            client.send_line(r#"{"op":"slowlog"}"#)?;
            let line = client.recv_line()?.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection during a slowlog request",
                )
            })?;
            println!("{line}");
        }
        if shutdown {
            client.shutdown_server()?;
        }
        Ok(if any_failed {
            ExitCode::from(EXIT_RUNTIME)
        } else {
            ExitCode::SUCCESS
        })
    };

    match run(&mut client) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dahliac: network error talking to `{addr}`: {e}");
            ExitCode::from(EXIT_NET)
        }
    }
}
