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
//! source digest (rendezvous hashing), with failover, and a retryable
//! `admission/unavailable` error when no shard answers.
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

use std::io::{BufRead as _, Read as _, Write as _};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dahlia_backend::{emit_cpp, lower};
use dahlia_core::{interp, parse, typecheck, Error};
use dahlia_gateway::{Gateway, GatewayConfig};
use dahlia_obs::Snapshot;
use dahlia_server::json::{obj, Json};
use dahlia_server::{
    metrics, query, serve_sessions_with, Client, ControlOp, NetConfig, Request, Server,
    ServerConfig, SessionHost, Stage, TelemetryConfig,
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
  dahliac serve  [--listen ADDR] [--pipeline] [store flags] [host flags]
                                      JSON-lines compile service: stdio by
                                      default (strict order), `--pipeline`
                                      for out-of-order stdio responses,
                                      `--listen` for a pipelined TCP server
                                      (stop it with {\"op\":\"shutdown\"})
  dahliac batch  [--kernels] [--repeat N] [--stage S] [--connect ADDR]
                 [--shutdown] [--verbose] [--trace] [--slowlog]
                 [store flags] [host flags] [files...]
                                      compile a batch through the service
                                      (in-process by default, configured by
                                      the store and host flags; --connect
                                      drives a remote `serve --listen`, and
                                      then only --wire applies: v1 offers
                                      the binary frame wire in a `hello`
                                      exchange, falling back to v0 JSON
                                      lines on old servers; --shutdown with
                                      no inputs just stops the remote);
                                      --trace requests a span breakdown per
                                      response and dumps the trace journal
                                      after the batch; --slowlog dumps the
                                      slow-request log as the last output
                                      line
  dahliac gateway --listen ADDR [--shards a1[=W],a2,...] [--spawn-workers N]
                 [--replication N] [--auto-drain-after N]
                 [--admission-cache N] [host flags]
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
                                      --telemetry-dir also persists the
                                      warm-key ledger across restarts;
                                      alert rules may bind remediation
                                      (\"... -> drain\"), and
                                      --auto-drain-after N drains a shard
                                      after N consecutive health-check
                                      failures (never the last live one;
                                      0 = off, the default); the shard hop
                                      is always binary v1; --admission-cache
                                      N caches hot untraced responses at
                                      the front door (default 2048 entries,
                                      0 = off)
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

  host flags (serve, batch, gateway):
    --threads N                       compile worker pool size (on a gateway:
                                      each --spawn-workers shard's pool)
    --trace-journal N                 bound the trace ring buffer
    --slow-threshold-ms MS            requests slower than this land in the
                                      slow log ({\"op\":\"slowlog\"}) with spans
    --telemetry-dir DIR               sample stats to a crash-safe on-disk
                                      ring, served by {\"op\":\"history\"}
    --telemetry-interval-ms MS        sampling interval (default 1000)
    --alert-rule RULE...              arm a threshold alert (e.g.
                                      \"window.error_rate > 0.05 for 30s\";
                                      repeatable)
    --alert-rules FILE                one alert rule per line
    --wire v0|v1                      protocol ceiling: a listener (serve,
                                      gateway) negotiates the v1 binary
                                      frame wire via {\"op\":\"hello\"} unless
                                      v0 pins JSON lines
  listener flags (serve, gateway):
    --metrics ADDR                    serve GET /metrics (JSON, or Prometheus
                                      text with ?format=prometheus) and
                                      GET /healthz
    --max-inflight N                  shed work past N unanswered requests
                                      per connection (default 256) with an
                                      `admission/overloaded` error
  store flags (serve, batch):
    --cache-dir DIR                   persist artifacts across processes
                                      (default DAHLIA_CACHE_DIR)
    --max-entries N, --max-bytes N    bound the memory tier
    --cache-gc-max-bytes N            prune the oldest artifacts past the
                                      budget

  <file.fuse> may be `-` for stdin.
  exit codes: 0 ok, 1 runtime, 2 usage/io, 3 parse, 4 type, 5 network";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "batch" => cmd_batch(rest),
        "gateway" => cmd_gateway(rest),
        "gateway-admin" => cmd_gateway_admin(rest),
        "top" => cmd_top(rest),
        "history" => cmd_history(rest),
        "alerts" => cmd_alerts(rest),
        "sweep" => cmd_sweep(rest),
        "check" | "cpp" | "run" | "est" | "lower" => cmd_compile(cmd, rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    // Every early stop is reported here, in one format.
    outcome.unwrap_or_else(|Fail(code, msg)| {
        eprintln!("dahliac: {msg}");
        ExitCode::from(code)
    })
}

/// Why a command stopped early: its exit code, and the message `main`
/// prints after `dahliac: `.
struct Fail(u8, String);

/// A command's result: its exit code, or the failure `main` reports.
type Outcome = Result<ExitCode, Fail>;

/// A usage or local I/O failure (exit 2).
fn usage(msg: impl Into<String>) -> Fail {
    Fail(EXIT_USAGE, msg.into())
}

/// A flag error from [`take_flag`] is a usage error.
impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        usage(msg)
    }
}

/// A front-end error, exit code by phase.
fn front_end(e: Error) -> Fail {
    // The stable diagnostic code (`parse/...`, `type/...`) rides along,
    // so scripts can match a rejection without parsing the message.
    let coded = || format!("{e} [{}]", e.diagnostic().code);
    match e {
        Error::Lex { .. } | Error::Parse { .. } => Fail(EXIT_PARSE, coded()),
        Error::Type(_) => Fail(EXIT_TYPE, coded()),
        Error::Interp { .. } => Fail(EXIT_RUNTIME, e.to_string()),
    }
}

/// Read a source file, `-` meaning stdin.
fn read_source(path: &str) -> Result<String, Fail> {
    if path == "-" {
        let mut src = String::new();
        std::io::stdin()
            .read_to_string(&mut src)
            .map_err(|e| usage(format!("cannot read stdin: {e}")))?;
        return Ok(src);
    }
    std::fs::read_to_string(path).map_err(|e| usage(format!("cannot read `{path}`: {e}")))
}

/// The classic one-shot commands.
fn cmd_compile(cmd: &str, args: &[String]) -> Outcome {
    let Some(path) = args.first() else {
        return Err(usage(format!("`{cmd}` needs an input file\n{USAGE}")));
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

    let src = read_source(path)?;
    let prog = parse(&src).map_err(front_end)?;
    let report = typecheck(&prog).map_err(front_end);
    match cmd {
        "check" => {
            let r = report?;
            println!(
                "ok: {} memories, {} views, {} accesses, {} functions, max unroll {}",
                r.memories, r.views, r.accesses, r.functions, r.max_unroll
            );
        }
        "cpp" => {
            report?;
            print!("{}", emit_cpp(&prog, &name));
        }
        "run" => {
            report?;
            let out = interp::interpret(&prog).map_err(|e| Fail(EXIT_RUNTIME, e.to_string()))?;
            let mut names: Vec<&String> = out.mems.keys().collect();
            names.sort();
            for n in names {
                let mem = &out.mems[n];
                let shown: Vec<String> = mem.iter().take(8).map(|v| format!("{v:?}")).collect();
                println!(
                    "{n}[{}] = [{}{}]",
                    mem.len(),
                    shown.join(", "),
                    if mem.len() > 8 { ", …" } else { "" }
                );
            }
        }
        "est" => {
            report?;
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
        }
        "lower" => println!("{:#?}", lower(&prog, &name)),
        _ => unreachable!("dispatched in main"),
    }
    Ok(ExitCode::SUCCESS)
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

/// [`take_flag`] for each of `flags`, in order.
fn take_flags<const N: usize>(
    args: &mut Vec<String>,
    flags: [&str; N],
) -> Result<[Option<String>; N], Fail> {
    let mut values = [const { None }; N];
    for (flag, value) in flags.iter().zip(&mut values) {
        *value = take_flag(args, flag)?;
    }
    Ok(values)
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Refuse leftover arguments: `cmd` takes none.
fn no_positionals(cmd: &str, args: &[String]) -> Result<(), Fail> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(usage(format!(
            "{cmd} takes no positional arguments (got {args:?})\n{USAGE}"
        )))
    }
}

fn parse_positive(flag: &str, raw: Option<String>) -> Result<Option<usize>, Fail> {
    raw.map(|v| match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(usage(format!("{flag} needs a positive integer, got `{v}`"))),
    })
    .transpose()
}

/// Like [`parse_positive`] but zero is legal — for thresholds where 0
/// means "capture everything" (`--slow-threshold-ms 0`).
fn parse_nonneg(flag: &str, raw: Option<String>) -> Result<Option<u64>, Fail> {
    raw.map(|v| {
        v.parse::<u64>()
            .map_err(|_| usage(format!("{flag} needs a non-negative integer, got `{v}`")))
    })
    .transpose()
}

/// Parse a `--wire v0|v1` protocol ceiling (bare digits accepted).
fn parse_wire(flag: &str, raw: Option<String>) -> Result<Option<u32>, Fail> {
    match raw.as_deref() {
        None => Ok(None),
        Some("v0") | Some("0") => Ok(Some(0)),
        Some("v1") | Some("1") => Ok(Some(1)),
        Some(v) => Err(usage(format!("{flag} must be v0 or v1, got `{v}`"))),
    }
}

/// Collect every `--alert-rule RULE` occurrence plus the contents of an
/// optional `--alert-rules FILE` (one rule per line; blank lines and
/// `#` comments skipped). Rule *syntax* is validated by the service
/// build, which reports the offending rule text.
fn take_alert_rules(args: &mut Vec<String>) -> Result<Vec<String>, Fail> {
    let mut rules = Vec::new();
    while let Some(r) = take_flag(args, "--alert-rule")? {
        rules.push(r);
    }
    if let Some(path) = take_flag(args, "--alert-rules")? {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| usage(format!("cannot read alert rules file `{path}`: {e}")))?;
        rules.extend(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string),
        );
    }
    Ok(rules)
}

/// The host commands, by which of the shared flag groups they take.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Host {
    /// An in-process server behind stdio or a listener.
    Serve,
    /// An in-process server (or `--connect` to a remote one).
    Batch,
    /// A gateway behind a listener.
    Gateway,
}

/// The flags `serve`, `batch` and `gateway` share, each parsed here
/// once: the pool size and telemetry of every host, the store bounds of
/// an in-process server (`serve`, `batch`), the listener's endpoints
/// and transport limits (`serve`, `gateway`), and the wire ceiling.
struct HostOpts {
    threads: Option<usize>,
    telemetry: TelemetryConfig,
    /// `--cache-dir` as given on the command line (env fallback is
    /// resolved in [`HostOpts::server`], so callers can tell an
    /// explicit flag from ambient environment).
    cache_dir_flag: Option<String>,
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
    cache_gc_max_bytes: Option<usize>,
    listen: Option<String>,
    metrics: Option<String>,
    max_inflight: Option<usize>,
    wire: Option<u32>,
    /// The in-process-service flags present, in usage order — these
    /// configure a local server, so `batch --connect` refuses them.
    local_flags: Vec<&'static str>,
}

impl HostOpts {
    /// Pull the flags `host` takes out of `args`.
    fn take(args: &mut Vec<String>, host: Host) -> Result<HostOpts, Fail> {
        let store = host != Host::Gateway;
        let listens = host != Host::Batch;
        // (flag, taken by this host, configures the in-process service)
        let flags = [
            ("--threads", true, true),
            ("--cache-dir", store, true),
            ("--max-entries", store, true),
            ("--max-bytes", store, true),
            ("--cache-gc-max-bytes", store, true),
            ("--trace-journal", true, true),
            ("--slow-threshold-ms", true, true),
            ("--telemetry-dir", true, true),
            ("--telemetry-interval-ms", true, true),
            ("--listen", listens, false),
            ("--metrics", listens, false),
            ("--max-inflight", listens, false),
            ("--wire", true, false),
        ];
        let mut local_flags = Vec::new();
        let mut values = Vec::new();
        for (flag, taken, local) in flags {
            let value = if taken { take_flag(args, flag)? } else { None };
            if local && value.is_some() {
                local_flags.push(flag);
            }
            values.push(value);
        }
        let [threads, cache_dir, max_entries, max_bytes, gc_max, journal, slow_ms, tele_dir, tele_ms, listen, metrics, inflight, wire] =
            values.try_into().expect("one value per flag");
        let alert_rules = take_alert_rules(args)?;
        if !alert_rules.is_empty() {
            local_flags.push("--alert-rule");
        }
        let threads = parse_positive("--threads", threads)?;
        let max_entries = parse_positive("--max-entries", max_entries)?;
        let max_bytes = parse_positive("--max-bytes", max_bytes)?;
        let cache_gc_max_bytes = parse_positive("--cache-gc-max-bytes", gc_max)?;
        let mut telemetry = TelemetryConfig::new();
        // A zero-capacity journal would silently drop every trace;
        // reject it as usage rather than clamping behind the operator's
        // back.
        if let Some(n) = parse_positive("--trace-journal", journal)? {
            telemetry = telemetry.trace_journal(n);
        }
        if let Some(ms) = parse_nonneg("--slow-threshold-ms", slow_ms)? {
            telemetry = telemetry.slow_threshold_ms(ms);
        }
        if let Some(dir) = tele_dir {
            telemetry = telemetry.dir(dir);
        }
        // A zero sampling interval would spin the sampler thread; usage
        // error, same policy as the journal capacity.
        if let Some(ms) = parse_positive("--telemetry-interval-ms", tele_ms)? {
            telemetry = telemetry.interval_ms(ms as u64);
        }
        for rule in alert_rules {
            telemetry = telemetry.alert_rule(rule);
        }
        Ok(HostOpts {
            threads,
            telemetry,
            cache_dir_flag: cache_dir,
            max_entries,
            max_bytes,
            cache_gc_max_bytes,
            listen,
            metrics,
            max_inflight: parse_positive("--max-inflight", inflight)?,
            // On a listener, `--wire v0` pins the client-facing side to
            // JSON lines (a gateway's shard hop is always binary v1).
            wire: parse_wire("--wire", wire)?,
            local_flags,
        })
    }

    /// Build the in-process server these options describe.
    /// `--cache-dir` falls back to the `DAHLIA_CACHE_DIR` environment
    /// variable.
    fn server(&self) -> Result<Server, Fail> {
        let mut cfg = ServerConfig::new().telemetry(self.telemetry.clone());
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
        // Build failures are all operator input: an unopenable cache or
        // telemetry directory, or an alert rule that does not parse.
        cfg.build()
            .map_err(|e| usage(format!("cannot start service: {e}")))
    }

    /// Start the `--metrics` HTTP endpoint for `host` (if asked),
    /// announcing its resolved address on stderr (scripts read it like
    /// the listen line), and return the listener's transport config.
    /// `/metrics` serves the host's `snapshot` — which carries the
    /// socket transport's session mix, frame counters, and shed totals
    /// once the reactor serves the host.
    fn start_metrics<H: SessionHost + 'static>(
        &self,
        host: &Arc<H>,
        snapshot: fn(&H) -> Snapshot,
    ) -> Result<NetConfig, Fail> {
        if let Some(addr) = &self.metrics {
            let listener = TcpListener::bind(addr)
                .map_err(|e| usage(format!("cannot bind metrics endpoint `{addr}`: {e}")))?;
            let local = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.to_string());
            let (stats_host, health_host) = (Arc::clone(host), Arc::clone(host));
            metrics::spawn(
                listener,
                Arc::new(move || snapshot(&stats_host)),
                Arc::new(move || query(&*health_host, ControlOp::Health)),
            )
            .map_err(|e| usage(format!("cannot start metrics thread: {e}")))?;
            eprintln!("dahliac: metrics on {local}");
        }
        let mut net = NetConfig::new();
        if let Some(n) = self.max_inflight {
            net = net.max_inflight(n);
        }
        if let Some(w) = self.wire {
            net = net.max_wire(w);
        }
        Ok(net)
    }
}

/// Bind `addr`, returning the listener and its resolved address.
fn bind(addr: &str) -> Result<(TcpListener, String), Fail> {
    let listener =
        TcpListener::bind(addr).map_err(|e| usage(format!("cannot listen on `{addr}`: {e}")))?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    Ok((listener, local))
}

/// `dahliac serve`: the JSON-lines protocol over stdio or TCP.
fn cmd_serve(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let mut opts = HostOpts::take(&mut args, Host::Serve)?;
    let pipeline = take_switch(&mut args, "--pipeline");
    if opts.listen.is_none() && (opts.max_inflight.is_some() || opts.wire.is_some()) {
        return Err(usage(
            "--max-inflight and --wire shape the socket transport; they need --listen",
        ));
    }
    no_positionals("serve", &args)?;
    if opts.listen.is_none() && !pipeline {
        if opts.threads.is_some() {
            return Err(usage(
                "plain stdio serve answers requests in order on one \
                 thread; --threads needs --pipeline or --listen",
            ));
        }
        // Plain stdio serve has one request in flight at a time, so one
        // pool worker suffices; pipelined modes want real parallelism.
        opts.threads = Some(1);
    }
    let server = Arc::new(opts.server()?);
    let net = opts.start_metrics(&server, Server::snapshot)?;

    if let Some(addr) = &opts.listen {
        let (listener, local) = bind(addr)?;
        eprintln!("dahliac serve: listening on {local}");
        return Ok(
            match serve_sessions_with(Arc::clone(&server), listener, net) {
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
            },
        );
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
    Ok(match served {
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
    })
}

/// A `dahliac serve` child forked by `gateway --spawn-workers`.
struct SpawnedWorker {
    child: std::process::Child,
    addr: String,
}

/// The forked shard processes of one gateway; dropping the set stops
/// every worker — graceful protocol shutdown first, a kill for anything
/// that does not wind down in time.
struct Workers(Vec<SpawnedWorker>);

impl Drop for Workers {
    fn drop(&mut self) {
        for w in &self.0 {
            if let Ok(mut c) = Client::connect_retry(w.addr.as_str(), 3) {
                let _ = c.shutdown_server();
            }
        }
        for w in &mut self.0 {
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
    }
}

/// Fork `n` local shard processes (`dahliac serve --listen 127.0.0.1:0`)
/// and learn each one's ephemeral address from its announce line. On
/// failure the workers already forked are stopped.
fn spawn_local_workers(n: usize, threads: Option<usize>) -> Result<Workers, Fail> {
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe()
        .map_err(|e| usage(format!("cannot locate own binary to fork workers: {e}")))?;
    let mut workers = Workers(Vec::new());
    for i in 0..n {
        let mut cmd = Command::new(&exe);
        cmd.args(["serve", "--listen", "127.0.0.1:0"]);
        if let Some(t) = threads {
            cmd.args(["--threads", &t.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| usage(format!("cannot spawn worker {i}: {e}")))?;
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
            let _ = child.kill();
            let _ = child.wait();
            return Err(usage(format!(
                "worker {i} failed to announce its address in time"
            )));
        };
        eprintln!("dahliac gateway: worker {i} on {addr} (pid {})", child.id());
        workers.0.push(SpawnedWorker { child, addr });
    }
    Ok(workers)
}

/// `dahliac gateway`: the sharded cluster front-end.
fn cmd_gateway(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let opts = HostOpts::take(&mut args, Host::Gateway)?;
    let [shards_flag, spawn_raw, replication_raw, drain_after_raw, adm_cache_raw] = take_flags(
        &mut args,
        [
            "--shards",
            "--spawn-workers",
            "--replication",
            "--auto-drain-after",
            "--admission-cache",
        ],
    )?;
    no_positionals("gateway", &args)?;
    let Some(listen) = &opts.listen else {
        return Err(usage(format!("gateway needs --listen\n{USAGE}")));
    };
    let replication = parse_positive("--replication", replication_raw)?;
    let spawn_workers = parse_positive("--spawn-workers", spawn_raw)?;
    // Zero is the documented "off" value, so non-negative.
    let auto_drain_after = parse_nonneg("--auto-drain-after", drain_after_raw)?;
    // Zero disables the admission cache, so non-negative.
    let admission_cache = parse_nonneg("--admission-cache", adm_cache_raw)?;

    // `--shards a1=2,a2,…`: each entry is an address with an optional
    // rendezvous weight (see `dahlia_gateway::hash::parse_weighted`).
    let mut shard_addrs: Vec<(String, f64)> = Vec::new();
    if let Some(s) = shards_flag {
        for entry in s.split(',').map(str::trim).filter(|a| !a.is_empty()) {
            shard_addrs.push(dahlia_gateway::hash::parse_weighted(entry).map_err(usage)?);
        }
    }
    let workers = match spawn_workers {
        Some(n) => spawn_local_workers(n, opts.threads)?,
        None => Workers(Vec::new()),
    };
    shard_addrs.extend(workers.0.iter().map(|w| (w.addr.clone(), 1.0)));
    if shard_addrs.is_empty() {
        return Err(usage(format!(
            "gateway needs shards (--shards and/or --spawn-workers)\n{USAGE}"
        )));
    }

    let mut cfg = GatewayConfig::new_weighted(shard_addrs).telemetry(opts.telemetry.clone());
    if let Some(r) = replication {
        cfg = cfg.replication(r);
    }
    if let Some(n) = auto_drain_after {
        cfg = cfg.auto_drain_after(n);
    }
    if let Some(n) = admission_cache {
        cfg = cfg.admission_cache(n as usize);
    }
    // `try_build` surfaces telemetry-directory and alert-rule problems
    // as startup usage errors instead of panicking mid-flight.
    let gateway = Arc::new(
        cfg.try_build()
            .map_err(|e| usage(format!("cannot start gateway: {e}")))?,
    );
    let net = opts.start_metrics(&gateway, Gateway::snapshot)?;
    let (listener, local) = bind(listen)?;
    eprintln!(
        "dahliac gateway: listening on {local} ({} shards, {} live)",
        gateway.shard_count(),
        gateway.live_shards(),
    );

    let served = serve_sessions_with(Arc::clone(&gateway), listener, net);
    // Snapshot shard state before stopping spawned workers, so the
    // summary reflects the serving run, not the teardown.
    let snapshots = gateway.shard_snapshots();
    let unavailable = gateway.snapshot().value("gateway.unavailable");
    drop(workers);
    Ok(match served {
        Ok(summary) => {
            eprintln!(
                "dahliac gateway: {} connections, {} lines, {} protocol errors; \
                 {} requests ({} rerouted, {} unavailable)",
                summary.connections,
                summary.lines,
                summary.protocol_errors,
                gateway.requests(),
                gateway.rerouted(),
                unavailable.unwrap_or(0.0),
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
    })
}

/// `dahliac gateway-admin`: drive a live gateway's drain/undrain ops
/// over the wire protocol. Prints the gateway's ack object on stdout;
/// exit 0 when the gateway accepted the op, 1 when it refused (e.g.
/// unknown shard), 5 when the gateway is unreachable.
fn cmd_gateway_admin(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let [connect, weight_raw] = take_flags(&mut args, ["--connect", "--weight"])?;
    let (op, shard) = match args.as_slice() {
        [op, shard] if op == "drain" || op == "undrain" => (op.clone(), shard.clone()),
        [op, ..] if op != "drain" && op != "undrain" => {
            return Err(usage(format!(
                "gateway-admin op must be `drain` or `undrain`, got `{op}`\n{USAGE}"
            )));
        }
        _ => {
            return Err(usage(format!(
                "gateway-admin needs an op and a shard address\n{USAGE}"
            )));
        }
    };
    let Some(addr) = connect else {
        return Err(usage(format!("gateway-admin needs --connect\n{USAGE}")));
    };
    let weight = weight_raw
        .map(|w| match w.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
            _ => Err(usage(format!(
                "--weight needs a positive number, got `{w}`"
            ))),
        })
        .transpose()?;
    if weight.is_some() && op == "drain" {
        return Err(usage(
            "--weight only makes sense with `undrain` (joining a shard)",
        ));
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
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_RUNTIME)
            })
        }
        Ok(None) => Err(Fail(
            EXIT_NET,
            format!("`{addr}` closed the connection without answering"),
        )),
        Err(e) => Err(Fail(
            EXIT_NET,
            format!("cannot reach gateway `{addr}`: {e}"),
        )),
    }
}

/// Send one control line to a live server or gateway and print its
/// answer verbatim (the canonical compact envelope, one line, ready
/// for `jq`). Shared by `history` and `alerts`.
fn control_round_trip(addr: &str, line: &str) -> Outcome {
    let sent = Client::connect_retry(addr, 50).and_then(|mut c| {
        c.send_line(line)?;
        c.recv_line()
    });
    match sent {
        Ok(Some(answer)) => {
            println!("{answer}");
            Ok(ExitCode::SUCCESS)
        }
        Ok(None) => Err(Fail(
            EXIT_NET,
            format!("`{addr}` closed the connection without answering"),
        )),
        Err(e) => Err(Fail(EXIT_NET, format!("cannot reach `{addr}`: {e}"))),
    }
}

/// `dahliac sweep`: scatter a templated design-space exploration
/// across a live gateway's shards and stream the Pareto front back.
fn cmd_sweep(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let [connect, template_file, kernel, name, stage, stride, update_every, out, n, block] =
        take_flags(
            &mut args,
            [
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
            ],
        )?;
    let resume = take_switch(&mut args, "--resume");
    let prune = take_switch(&mut args, "--prune");
    let mut param_flags = Vec::new();
    while let Some(v) = take_flag(&mut args, "--param")? {
        param_flags.push(v);
    }
    no_positionals("sweep", &args)?;
    let Some(addr) = connect else {
        return Err(usage(format!("sweep needs --connect\n{USAGE}")));
    };
    let stride = parse_positive("--stride", stride)?.unwrap_or(1) as u64;
    let update_every = parse_nonneg("--update-every", update_every)?.unwrap_or(0);
    let (template, mut params, default_name) = match (template_file, kernel.as_deref()) {
        (Some(_), Some(_)) => {
            return Err(usage("--template and --kernel are mutually exclusive"));
        }
        (Some(path), None) => (read_source(&path)?, Vec::new(), "sweep".to_string()),
        (None, kernel) => {
            let kernel = kernel.unwrap_or("gemm-blocked");
            if kernel != "gemm-blocked" {
                return Err(usage(format!(
                    "unknown sweep kernel `{kernel}` (try gemm-blocked)"
                )));
            }
            let n = parse_positive("--n", n)?.unwrap_or(128) as u64;
            let block = parse_positive("--block", block)?.unwrap_or(8) as u64;
            (
                dahlia_kernels::gemm::gemm_blocked_template(n, block),
                dahlia_kernels::gemm::GEMM_BLOCKED_AXES
                    .iter()
                    .map(|(name, values)| (name.to_string(), values.to_vec()))
                    .collect(),
                "gemm-blocked".to_string(),
            )
        }
    };
    // `--param name=v1,v2,...` overrides a default axis (or, for
    // template-file sweeps, defines the space from scratch).
    for raw in param_flags {
        let Some((name, values)) = raw.split_once('=') else {
            return Err(usage(format!("--param needs name=v1,v2,... (got `{raw}`)")));
        };
        let parsed: Result<Vec<u64>, _> = values.split(',').map(str::parse::<u64>).collect();
        let Ok(vs) = parsed else {
            return Err(usage(format!(
                "--param {name} values must be integers (got `{values}`)"
            )));
        };
        match params.iter_mut().find(|(k, _)| k == name) {
            Some((_, slot)) => *slot = vs,
            None => params.push((name.to_string(), vs)),
        }
    }
    if params.is_empty() {
        return Err(usage(format!(
            "sweep needs at least one --param axis\n{USAGE}"
        )));
    }
    let name = name.unwrap_or(default_name);
    let stage = stage.unwrap_or_else(|| "est".to_string());

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

    let mut client = Client::connect_retry(addr.as_str(), 50)
        .map_err(|e| Fail(EXIT_NET, format!("cannot connect to `{addr}`: {e}")))?;
    client
        .send_line(&op_line)
        .map_err(|e| Fail(EXIT_NET, format!("cannot send to `{addr}`: {e}")))?;
    // One line per incremental update, one final `"done":true` line.
    loop {
        let line = match client.recv_line() {
            Ok(Some(line)) => line,
            Ok(None) => {
                return Err(Fail(
                    EXIT_NET,
                    format!("`{addr}` closed the connection mid-sweep"),
                ))
            }
            Err(e) => {
                return Err(Fail(
                    EXIT_NET,
                    format!("network error talking to `{addr}`: {e}"),
                ))
            }
        };
        println!("{line}");
        let v = Json::parse(&line).unwrap_or(Json::Null);
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            if let Some(path) = &out {
                std::fs::write(path, format!("{line}\n"))
                    .map_err(|e| usage(format!("cannot write `{path}`: {e}")))?;
            }
            return Ok(if v.get("ok").and_then(Json::as_bool) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_RUNTIME)
            });
        }
    }
}

/// `dahliac history`: query a remote's durable telemetry ring for one
/// series, downsampled into `--step`-sized bins since a wall-clock
/// millisecond cursor.
fn cmd_history(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let [connect, series, since, step] =
        take_flags(&mut args, ["--connect", "--series", "--since", "--step"])?;
    no_positionals("history", &args)?;
    let Some(addr) = connect else {
        return Err(usage(format!("history needs --connect\n{USAGE}")));
    };
    let Some(series) = series else {
        return Err(usage(format!(
            "history needs --series (e.g. window.error_rate)\n{USAGE}"
        )));
    };
    let since = parse_nonneg("--since", since)?.unwrap_or(0);
    let step = parse_nonneg("--step", step)?.unwrap_or(0);
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
fn cmd_alerts(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let [connect, since] = take_flags(&mut args, ["--connect", "--since"])?;
    no_positionals("alerts", &args)?;
    let Some(addr) = connect else {
        return Err(usage(format!("alerts needs --connect\n{USAGE}")));
    };
    let since = parse_nonneg("--since", since)?.unwrap_or(0);
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
fn cmd_top(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let [connect, interval] = take_flags(&mut args, ["--connect", "--interval-ms"])?;
    let once = take_switch(&mut args, "--once");
    no_positionals("top", &args)?;
    let Some(addr) = connect else {
        return Err(usage(format!("top needs --connect\n{USAGE}")));
    };
    let interval = parse_positive("--interval-ms", interval)?.unwrap_or(2000) as u64;

    let net_error =
        |e: std::io::Error| Fail(EXIT_NET, format!("network error talking to `{addr}`: {e}"));
    let mut client = Client::connect_retry(addr.as_str(), 50)
        .map_err(|e| Fail(EXIT_NET, format!("cannot connect to `{addr}`: {e}")))?;
    let t0 = Instant::now();
    loop {
        let snap = TopSnapshot::from_stats(&fetch_remote_stats(&mut client).map_err(net_error)?);
        if once {
            println!("{}", snap.to_json(&addr).emit());
            return Ok(ExitCode::SUCCESS);
        }
        let sparks = fetch_top_sparks(&mut client).map_err(net_error)?;
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
fn batch_programs(use_kernels: bool, files: &[String]) -> Result<Vec<(String, String)>, Fail> {
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
        return Err(usage(format!(
            "batch needs input programs (--kernels and/or files)\n{USAGE}"
        )));
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
fn cmd_batch(args: &[String]) -> Outcome {
    let mut args = args.to_vec();
    let [repeat_raw, stage_raw, connect] =
        take_flags(&mut args, ["--repeat", "--stage", "--connect"])?;
    let opts = HostOpts::take(&mut args, Host::Batch)?;
    if opts.wire.is_some() && connect.is_none() {
        return Err(usage(
            "--wire picks the socket protocol; it needs --connect",
        ));
    }
    let repeat = match repeat_raw {
        None => 2,
        Some(r) => match r.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => {
                return Err(usage(format!(
                    "--repeat needs a positive integer, got `{r}`"
                )))
            }
        },
    };
    let stage = match stage_raw {
        None => Stage::Estimate,
        Some(s) => Stage::from_name(&s).ok_or_else(|| {
            usage(format!(
                "unknown stage `{s}` (parse|check|desugar|lower|cpp|est)"
            ))
        })?,
    };
    let use_kernels = take_switch(&mut args, "--kernels");
    let verbose = take_switch(&mut args, "--verbose");
    let traced = take_switch(&mut args, "--trace");
    let slowlog = take_switch(&mut args, "--slowlog");
    let shutdown = take_switch(&mut args, "--shutdown");
    if shutdown && connect.is_none() {
        return Err(usage("--shutdown only makes sense with --connect"));
    }
    if let (Some(_), Some(flag)) = (&connect, opts.local_flags.first()) {
        return Err(usage(format!(
            "{flag} configures an in-process server and is \
             ignored by the remote one; drop it or drop --connect"
        )));
    }

    // `--shutdown` with no inputs is a pure control action: stop the
    // remote (server or gateway) without compiling anything.
    if shutdown && !use_kernels && args.is_empty() {
        let addr = connect.expect("checked above");
        Client::connect_retry(addr.as_str(), 50)
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| Fail(EXIT_NET, format!("cannot shut down `{addr}`: {e}")))?;
        return Ok(ExitCode::SUCCESS);
    }

    let programs = batch_programs(use_kernels, &args)?;
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
            opts.wire.unwrap_or(0),
        );
    }
    let server = opts.server()?;

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

    Ok(if any_failed {
        ExitCode::from(EXIT_RUNTIME)
    } else {
        ExitCode::SUCCESS
    })
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
) -> Outcome {
    let mut client = Client::connect_retry_wire(addr, 50, wire_max)
        .map_err(|e| Fail(EXIT_NET, format!("cannot connect to `{addr}`: {e}")))?;
    if wire_max > 0 {
        eprintln!(
            "dahliac batch: negotiated wire v{} with `{addr}`",
            client.wire_version()
        );
    }

    let run = |client: &mut Client| -> std::io::Result<Outcome> {
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
                    return Ok(Err(Fail(
                        EXIT_NET,
                        "server closed the connection mid-round".into(),
                    )));
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
        Ok(Ok(if any_failed {
            ExitCode::from(EXIT_RUNTIME)
        } else {
            ExitCode::SUCCESS
        }))
    };

    run(&mut client).unwrap_or_else(|e| {
        Err(Fail(
            EXIT_NET,
            format!("network error talking to `{addr}`: {e}"),
        ))
    })
}
