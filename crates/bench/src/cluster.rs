//! Cluster throughput: the MachSuite batch through 1/2/4-shard
//! gateways, replicated and not.
//!
//! Each run spins up N real TCP shards (in-process `serve_listener`
//! threads), a gateway over them, and drives the MachSuite suite
//! through the gateway from a small army of submitter threads — once
//! cold, once warm. The interesting numbers:
//!
//! * **throughput scaling** — cold wall-clock versus shard count (more
//!   shards, more compile parallelism behind one front door);
//! * **cache locality** — the warm round's per-shard hit rate: with
//!   rendezvous routing every source goes back to the shard that
//!   compiled it, so the warm round must add **zero** misses anywhere
//!   (`pinned`), regardless of shard count;
//! * **replication cost and dividend** — with `--replication 2` the
//!   cold round additionally fans every artifact out to its secondary
//!   ([`ClusterRun::replica_writes`]), and [`failover_batch`] measures
//!   what that buys: kill the first shard and re-drive the batch —
//!   zero recomputed stages, only re-routing overhead.
//!
//! The unit tests here pin the invariants at reduced concurrency.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dahlia_gateway::{Gateway, GatewayConfig};
use dahlia_server::json::Json;
use dahlia_server::{serve_listener, Client, NetSummary, Request, Server, Stage};

/// One live in-process shard: its address and listener thread.
pub struct ShardHandle {
    /// The shard's loopback address.
    pub addr: String,
    join: std::thread::JoinHandle<NetSummary>,
}

/// Spawn `n` TCP shards, each with `threads` pool workers.
pub fn spawn_shards(n: usize, threads: usize) -> Vec<ShardHandle> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().unwrap().to_string();
            let server = Arc::new(Server::with_threads(threads));
            let join = std::thread::spawn(move || {
                serve_listener(server, listener).expect("serve_listener")
            });
            ShardHandle { addr, join }
        })
        .collect()
}

/// Gracefully stop every shard and join its listener thread.
pub fn shutdown_shards(shards: Vec<ShardHandle>) {
    for s in &shards {
        if let Ok(mut c) = Client::connect(s.addr.as_str()) {
            let _ = c.shutdown_server();
        }
    }
    for s in shards {
        let _ = s.join.join();
    }
}

/// The MachSuite request set.
pub fn machsuite_requests() -> Vec<Request> {
    dahlia_kernels::all_benches()
        .into_iter()
        .map(|b| Request::new(b.name, Stage::Estimate, b.source, b.name))
        .collect()
}

/// Drive `requests` through the gateway from `submitters` concurrent
/// threads; panics if any request fails. Returns the wall time in µs.
pub fn drive(gateway: &Gateway, requests: &[Request], submitters: usize) -> u64 {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..submitters.max(1) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(req) = requests.get(i) else { break };
                let resp = gateway.submit(req);
                assert_eq!(
                    resp.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "request {} failed through the gateway: {}",
                    req.id,
                    resp.emit()
                );
            });
        }
    });
    t0.elapsed().as_micros() as u64
}

/// Results of one cold+warm MachSuite batch through an N-shard gateway.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Shard count.
    pub shards: usize,
    /// Replication factor the gateway ran with.
    pub replication: usize,
    /// Programs in the batch.
    pub programs: usize,
    /// Cold round wall time (µs): every stage computes somewhere.
    pub cold_wall_us: u64,
    /// Warm round wall time (µs): every request is a shard cache hit.
    pub warm_wall_us: u64,
    /// Requests routed to each shard across both rounds.
    pub per_shard_routed: Vec<u64>,
    /// Replication fan-out calls the cold round dispatched.
    pub replica_writes: u64,
    /// Aggregate shard-side misses after the warm round.
    pub misses: u64,
    /// Did the warm round add zero misses on every shard (i.e. every
    /// source stayed pinned to the shard that compiled it)?
    pub pinned: bool,
}

impl std::fmt::Display for ClusterRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shard(s) x{}: cold {:.1} ms, warm {:.1} ms, routed {:?}, \
             {} replica writes, pinned: {}",
            self.shards,
            self.replication,
            self.cold_wall_us as f64 / 1e3,
            self.warm_wall_us as f64 / 1e3,
            self.per_shard_routed,
            self.replica_writes,
            self.pinned,
        )
    }
}

fn aggregate_misses(gateway: &Gateway) -> u64 {
    gateway
        .shard_snapshots()
        .iter()
        .map(|s| {
            s.stats
                .as_ref()
                .and_then(|v| v.get("misses"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        })
        .sum()
}

/// Run the MachSuite batch cold and warm through an `n`-shard cluster.
pub fn cluster_batch(n: usize, shard_threads: usize, submitters: usize) -> ClusterRun {
    cluster_batch_replicated(n, 1, shard_threads, submitters)
}

/// Wait until the cluster-wide shard request count reaches `want`
/// (replication fan-out is asynchronous) or ~20 s elapse.
fn await_shard_requests(gateway: &Gateway, want: u64) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let total: u64 = gateway
            .shard_snapshots()
            .iter()
            .map(|s| {
                s.stats
                    .as_ref()
                    .and_then(|v| v.get("requests"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            })
            .sum();
        if total >= want {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// [`cluster_batch`] with a replication factor: the cold round fans
/// every artifact out to its replica set (the run waits for the
/// asynchronous fan-out to drain before the warm round, so
/// `replica_writes` and the pinning check are deterministic).
pub fn cluster_batch_replicated(
    n: usize,
    replication: usize,
    shard_threads: usize,
    submitters: usize,
) -> ClusterRun {
    let shards = spawn_shards(n, shard_threads);
    // These runs measure shard routing and cache pinning, so the
    // gateway's admission cache is off — it would answer the warm
    // round at the front door and no request would reach a shard.
    let gateway = GatewayConfig::new(shards.iter().map(|s| s.addr.clone()))
        .replication(replication)
        .admission_cache(0)
        .build();
    assert_eq!(gateway.live_shards(), n, "all shards dialed");
    let requests = machsuite_requests();

    let cold_wall_us = drive(&gateway, &requests, submitters);
    // Each cold compute reaches its primary plus min(replication, n) - 1
    // replicas.
    let fan = replication.min(n.max(1)) as u64;
    assert!(
        await_shard_requests(&gateway, requests.len() as u64 * fan),
        "replication fan-out never drained"
    );
    let cold_misses = aggregate_misses(&gateway);
    let warm_wall_us = drive(&gateway, &requests, submitters);
    let warm_misses = aggregate_misses(&gateway);

    let snaps = gateway.shard_snapshots();
    let run = ClusterRun {
        shards: n,
        replication,
        programs: requests.len(),
        cold_wall_us,
        warm_wall_us,
        per_shard_routed: snaps.iter().map(|s| s.routed).collect(),
        replica_writes: gateway.replica_writes(),
        misses: warm_misses,
        pinned: warm_misses == cold_misses && gateway.local_fallbacks() == 0,
    };
    drop(gateway);
    shutdown_shards(shards);
    run
}

/// The shard-scaling sweep: one [`ClusterRun`] per requested count.
pub fn shard_scaling(counts: &[usize], shard_threads: usize, submitters: usize) -> Vec<ClusterRun> {
    counts
        .iter()
        .map(|&n| cluster_batch(n, shard_threads, submitters))
        .collect()
}

/// Results of one replicated failover run: cold batch, kill the first
/// shard, re-drive the batch on the survivors.
#[derive(Debug, Clone)]
pub struct FailoverRun {
    /// Shard count before the kill.
    pub shards: usize,
    /// Replication factor.
    pub replication: usize,
    /// Cold round wall time (µs), all shards up.
    pub cold_wall_us: u64,
    /// Post-kill round wall time (µs), one shard down.
    pub failover_wall_us: u64,
    /// Pipeline stage executions the post-kill round added anywhere in
    /// the cluster — **zero** when replication did its job.
    pub recomputed_stages: u64,
    /// Requests the gateway answered from its embedded local server
    /// (should stay zero: the survivors own every key).
    pub local_fallbacks: u64,
}

impl std::fmt::Display for FailoverRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shard(s) x{}: cold {:.1} ms, failover {:.1} ms, \
             {} recomputed stages, {} local fallbacks",
            self.shards,
            self.replication,
            self.cold_wall_us as f64 / 1e3,
            self.failover_wall_us as f64 / 1e3,
            self.recomputed_stages,
            self.local_fallbacks,
        )
    }
}

fn aggregate_executions(gateway: &Gateway) -> u64 {
    gateway
        .shard_snapshots()
        .iter()
        .map(|s| {
            s.stats
                .as_ref()
                .and_then(|v| v.get("executions"))
                .map(|ex| match ex {
                    Json::Obj(fields) => fields.iter().filter_map(|(_, v)| v.as_u64()).sum(),
                    _ => 0,
                })
                .unwrap_or(0)
        })
        .sum()
}

/// The availability headline: cold MachSuite batch through `n` shards
/// with the given replication, kill the first shard, re-drive the
/// batch. With replication ≥ 2 the failover round must recompute
/// nothing.
pub fn failover_batch(
    n: usize,
    replication: usize,
    shard_threads: usize,
    submitters: usize,
) -> FailoverRun {
    assert!(n >= 2, "failover needs a survivor");
    let mut shards = spawn_shards(n, shard_threads);
    // Admission cache off: the post-kill round must actually re-route
    // to the survivors, not be answered from the gateway's front door.
    let gateway = GatewayConfig::new(shards.iter().map(|s| s.addr.clone()))
        .replication(replication)
        .admission_cache(0)
        .build();
    assert_eq!(gateway.live_shards(), n, "all shards dialed");
    let requests = machsuite_requests();

    let cold_wall_us = drive(&gateway, &requests, submitters);
    let fan = replication.min(n) as u64;
    assert!(
        await_shard_requests(&gateway, requests.len() as u64 * fan),
        "replication fan-out never drained"
    );
    let baseline = aggregate_executions(&gateway);

    // Kill the first shard (graceful: the bench measures routing, not
    // TCP teardown pathology — the tests cover SIGKILL).
    let victim = shards.remove(0);
    if let Ok(mut c) = Client::connect(victim.addr.as_str()) {
        let _ = c.shutdown_server();
    }
    let _ = victim.join.join();

    let failover_wall_us = drive(&gateway, &requests, submitters);
    let run = FailoverRun {
        shards: n,
        replication,
        cold_wall_us,
        failover_wall_us,
        recomputed_stages: aggregate_executions(&gateway) - baseline,
        local_fallbacks: gateway.local_fallbacks(),
    };
    drop(gateway);
    shutdown_shards(shards);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_shard_cluster_pins_sources_and_spreads_load() {
        let run = cluster_batch(2, 2, 4);
        assert_eq!(run.shards, 2);
        assert!(run.programs >= 8);
        assert!(run.misses > 0, "cold round computed somewhere");
        assert!(run.pinned, "warm round must not recompile: {run}");
        // Both shards saw traffic, and every request went to a shard.
        assert_eq!(run.per_shard_routed.len(), 2);
        for (i, &routed) in run.per_shard_routed.iter().enumerate() {
            assert!(routed > 0, "shard {i} idle: {run}");
        }
        assert_eq!(
            run.per_shard_routed.iter().sum::<u64>(),
            2 * run.programs as u64
        );
    }

    #[test]
    fn scaling_sweep_is_pinned_at_every_width() {
        for run in shard_scaling(&[1, 2], 1, 2) {
            assert!(run.pinned, "{run}");
            assert_eq!(
                run.per_shard_routed.iter().sum::<u64>(),
                2 * run.programs as u64,
                "{run}"
            );
        }
    }

    #[test]
    fn replicated_cluster_fans_out_and_stays_pinned() {
        let run = cluster_batch_replicated(2, 2, 2, 4);
        assert_eq!(run.replication, 2);
        // Every cold compute fanned out to the one other shard.
        assert_eq!(run.replica_writes, run.programs as u64, "{run}");
        assert!(run.pinned, "replication broke pinning: {run}");
    }

    #[test]
    fn replicated_failover_recomputes_nothing() {
        let run = failover_batch(2, 2, 2, 4);
        assert_eq!(run.recomputed_stages, 0, "{run}");
        assert_eq!(run.local_fallbacks, 0, "{run}");
    }
}
