//! A live cluster on loopback: one `dahliac gateway` in front of two
//! `dahliac serve --threads 1` shards, every listener on an ephemeral
//! port, default flags otherwise.
//!
//! Processes are reaped on every exit path: [`Cluster`] kills and waits
//! for them on drop (which also runs while a panic unwinds), and each
//! child asks the kernel to SIGKILL it if the benchmark itself dies, so
//! no orphaned listener can outlive a run and skew the next one.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dahlia_server::json::Json;
use dahlia_server::{PipelinedClient, Request, Stage};

use crate::designs::KERNEL;
use crate::Report;

const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(10);
/// Bound on any single reply; far above the slowest legitimate compile.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// The request whose first ok answer ends set-up.
const PROBE: &str = "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";

struct Proc {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Start `dahliac <args>` and wait for its "listening on ADDR" line.
    fn spawn(dahliac: &Path, args: &[&str]) -> io::Result<(Proc, String)> {
        let mut cmd = Command::new(dahliac);
        // Default flags: no inherited cache directory or pool size.
        cmd.args(args)
            .env_remove("DAHLIA_CACHE_DIR")
            .env_remove("DAHLIA_SERVER_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        die_with_parent(&mut cmd);
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining after the announce, so the child never blocks
        // on a full stderr pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some((_, rest)) = line.split_once("listening on ") {
                    if let Some(tx) = tx.take() {
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
        });
        let mut proc = Proc {
            child,
            drain: Some(drain),
        };
        match rx.recv_timeout(ANNOUNCE_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => Ok((proc, addr)),
            _ => {
                proc.reap();
                Err(io::Error::other(format!(
                    "`dahliac {}` did not announce a listening address",
                    args.join(" ")
                )))
            }
        }
    }

    /// Peak resident set size (VmHWM) in KiB.
    fn vm_hwm_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.reap();
    }
}

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Ask the kernel to SIGKILL the child when the thread that spawned it
/// exits, so a killed or crashed benchmark leaves no listener behind.
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: std::ffi::c_int = 1;
    const SIGKILL: std::ffi::c_ulong = 9;
    // SAFETY: the hook runs in the forked child before exec. It only
    // calls prctl(2), which is async-signal-safe, takes no pointers, and
    // touches no memory shared with the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

/// Shrink the calling thread's timer slack to 1 µs, so the open loop's
/// sleeps wake close to each request's due time instead of up to 50 µs
/// late. Only load threads call it: the cluster, forked from the main
/// thread, keeps the default slack.
pub fn fine_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: prctl(2) with PR_SET_TIMERSLACK takes a plain integer and
    // only changes a scheduling attribute of the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Connect a v1 pipelined client, failing if the connection stays on v0.
pub fn connect(addr: &str) -> io::Result<PipelinedClient> {
    let client = PipelinedClient::connect(addr)?.with_io_timeout(IO_TIMEOUT);
    if client.wire_version() != 1 {
        return Err(io::Error::other("gateway did not negotiate the v1 wire"));
    }
    Ok(client)
}

pub fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// A running gateway with its two shards. Must be created and dropped on
/// the thread that outlives it (the main thread): the parent-death signal
/// is tied to the spawning thread.
pub struct Cluster {
    pub addr: String,
    pub shard_addrs: Vec<String>,
    /// From the first spawn to the first ok answer through the gateway.
    pub setup_s: f64,
    procs: Vec<Proc>,
}

impl Cluster {
    pub fn launch(dahliac: &Path) -> io::Result<Cluster> {
        let t0 = Instant::now();
        let mut procs = Vec::new();
        let mut shard_addrs = Vec::new();
        for _ in 0..2 {
            let (p, a) = Proc::spawn(
                dahliac,
                &["serve", "--listen", "127.0.0.1:0", "--threads", "1"],
            )?;
            procs.push(p);
            shard_addrs.push(a);
        }
        let shards = shard_addrs.join(",");
        let (gateway, addr) = Proc::spawn(
            dahliac,
            &["gateway", "--listen", "127.0.0.1:0", "--shards", &shards],
        )?;
        // First in line, so teardown stops the front door before its shards.
        procs.insert(0, gateway);
        let client = connect(&addr)?;
        let resp = client.call(&Request::new("probe", Stage::Check, PROBE, KERNEL))?;
        if !is_ok(&resp) {
            return Err(io::Error::other(format!("probe failed: {}", resp.emit())));
        }
        Ok(Cluster {
            addr,
            shard_addrs,
            setup_s: t0.elapsed().as_secs_f64(),
            procs,
        })
    }

    /// The gateway's cluster-wide stats object.
    pub fn stats(&self) -> io::Result<Json> {
        connect(&self.addr)?.stats()
    }

    /// Sum of VmHWM over the gateway and both shards, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kib: u64 = self.procs.iter().filter_map(Proc::vm_hwm_kib).sum();
        kib as f64 / 1024.0
    }
}

/// Counters read from the gateway's stats op; [`Counters::since`] turns
/// two snapshots into the counts of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub joins: u64,
    pub evictions: u64,
    /// Stage executions in `Stage::ALL` order.
    pub exec: [u64; 6],
    pub gateway_requests: u64,
    pub admission_hits: u64,
    pub shed: u64,
    pub sweep_rejected: u64,
}

impl Counters {
    pub fn from_stats(s: &Json) -> Counters {
        let at = |path: &str| {
            path.split('.')
                .try_fold(s, |v, k| v.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Counters {
            hits: at("hits"),
            misses: at("misses"),
            joins: at("joins"),
            evictions: at("evict.evictions"),
            exec: Stage::ALL.map(|st| at(&format!("executions.{}", st.name()))),
            gateway_requests: at("gateway.requests"),
            admission_hits: at("gateway.admission_cache_hits"),
            shed: at("transport.requests_shed"),
            sweep_rejected: at("gateway.sweeps.point_failures"),
        }
    }

    /// Report the counts, each ratio beside its base.
    pub fn report(&self, r: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let lookups = self.hits + self.misses;
        r.metric("store.hits", self.hits as f64, "count");
        r.metric("store.misses", self.misses as f64, "count");
        r.metric("store.joins", self.joins as f64, "count");
        r.metric("store.evictions", self.evictions as f64, "count");
        r.metric("store.lookups", lookups as f64, "count");
        r.metric("store.hit_ratio", ratio(self.hits, lookups), "ratio");
        for (stage, n) in Stage::ALL.iter().zip(self.exec) {
            r.metric(&format!("exec.{}", stage.name()), n as f64, "count");
        }
        r.metric("gateway.requests", self.gateway_requests as f64, "count");
        r.metric("admission.hits", self.admission_hits as f64, "count");
        r.metric(
            "admission.hit_ratio",
            ratio(self.admission_hits, self.gateway_requests),
            "ratio",
        );
        r.metric("transport.shed", self.shed as f64, "count");
        r.metric("sweep.rejected", self.sweep_rejected as f64, "count");
    }

    pub fn since(self, before: Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            hits: d(self.hits, before.hits),
            misses: d(self.misses, before.misses),
            joins: d(self.joins, before.joins),
            evictions: d(self.evictions, before.evictions),
            exec: std::array::from_fn(|i| d(self.exec[i], before.exec[i])),
            gateway_requests: d(self.gateway_requests, before.gateway_requests),
            admission_hits: d(self.admission_hits, before.admission_hits),
            shed: d(self.shed, before.shed),
            sweep_rejected: d(self.sweep_rejected, before.sweep_rejected),
        }
    }
}
