//! Cluster integration tests: real TCP shards, a real gateway, the
//! MachSuite suite as traffic.
//!
//! The acceptance claims, pinned at test scale:
//!
//! 1. **golden** — a batch routed through a 2-shard gateway produces
//!    byte-identical artifacts to a direct single-server run;
//! 2. **pinning** — while every shard is alive, each source is served
//!    by exactly one shard (the warm pass adds zero misses anywhere);
//! 3. **failover** — killing a shard mid-batch loses no requests:
//!    in-flight and future work re-routes to the survivors;
//! 4. **warm failover** — with `--replication 2`, killing the primary
//!    mid-batch additionally recomputes **zero** pipeline stages:
//!    every displaced key is already warm on its replica;
//! 5. **draining** — draining a shard during a batch fails zero
//!    requests, migrates its warm keys to the survivors, and undrain
//!    restores the original placement.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use dahlia_gateway::GatewayConfig;
use dahlia_server::json::Json;
use dahlia_server::{Client, NetConfig, NetSummary, Request, Server, Stage, TelemetryConfig};

/// Spawn a real TCP shard around `server`; returns its address and the
/// listener thread's handle.
fn spawn_shard(server: Server) -> (String, std::thread::JoinHandle<NetSummary>) {
    spawn_shard_with(server, NetConfig::new())
}

/// [`spawn_shard`] with an explicit transport config (wire ceiling,
/// admission window).
fn spawn_shard_with(
    server: Server,
    cfg: NetConfig,
) -> (String, std::thread::JoinHandle<NetSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let server = Arc::new(server);
    let handle = std::thread::spawn(move || {
        dahlia_server::serve_sessions_with(server, listener, cfg).expect("serve_sessions_with")
    });
    (addr, handle)
}

/// Requests the gateway answered `admission/unavailable` (no shard
/// answered them).
fn unavailable(gw: &dahlia_gateway::Gateway) -> u64 {
    gw.snapshot().value("gateway.unavailable").unwrap_or(0.0) as u64
}

fn shutdown_shard(addr: &str) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.shutdown_server().expect("shutdown ack");
}

/// The MachSuite request set (id = kernel name).
fn machsuite_requests() -> Vec<Request> {
    dahlia_kernels::all_benches()
        .into_iter()
        .map(|b| Request::new(b.name, Stage::Estimate, b.source, b.name))
        .collect()
}

/// Strip the per-run fields (`latency_us`, `cached`, `trace`) so
/// responses can be compared byte-for-byte across serving topologies.
fn normalize(v: &Json) -> String {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "latency_us" && k != "cached" && k != "trace")
                .cloned()
                .collect(),
        )
        .emit(),
        other => other.emit(),
    }
}

fn shard_counter(stats: &Option<Json>, key: &str) -> u64 {
    stats
        .as_ref()
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn gateway_matches_direct_and_pins_sources() {
    let (addr_a, join_a) = spawn_shard(Server::with_threads(2));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    // Admission caching off: this test pins *shard routing* — the warm
    // pass must reach the shards, not be answered at the gateway.
    let gw = GatewayConfig::new([addr_a.clone(), addr_b.clone()])
        .admission_cache(0)
        .build();
    assert_eq!(gw.live_shards(), 2);

    let direct = Server::with_threads(2);
    let requests = machsuite_requests();
    assert!(requests.len() >= 8, "MachSuite suite is the workload");

    // Cold pass: every gateway response must be byte-identical to the
    // direct server's (modulo timing fields).
    for req in &requests {
        let via_gateway = gw.submit(req);
        let direct_resp = direct.submit(req.clone()).to_json();
        assert_eq!(
            normalize(&via_gateway),
            normalize(&direct_resp),
            "artifact diverged for {}",
            req.id
        );
    }

    // Pinning: the warm pass must add zero misses on every shard — each
    // source went back to the shard that already holds its artifacts.
    let cold = gw.shard_snapshots();
    let cold_misses: u64 = cold.iter().map(|s| shard_counter(&s.stats, "misses")).sum();
    assert!(cold_misses > 0, "cold pass computed somewhere");
    for req in &requests {
        let resp = gw.submit(req);
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
    }
    let warm = gw.shard_snapshots();
    let warm_misses: u64 = warm.iter().map(|s| shard_counter(&s.stats, "misses")).sum();
    assert_eq!(warm_misses, cold_misses, "warm pass recompiled somewhere");

    // Both shards actually participated (rendezvous spread the suite),
    // and every request was answered by a shard.
    for s in &warm {
        assert!(s.alive);
        assert!(s.routed > 0, "shard {} never used: {warm:?}", s.addr);
        assert_eq!(s.failed, 0);
    }
    assert_eq!(
        warm.iter().map(|s| s.routed).sum::<u64>(),
        2 * requests.len() as u64
    );
    assert_eq!(unavailable(&gw), 0);

    // The aggregated stats object is shaped like a single server's,
    // with the cluster section appended.
    let stats = gw.stats_json();
    assert_eq!(
        stats.get("requests").and_then(Json::as_u64),
        Some(2 * requests.len() as u64)
    );
    let shards = stats.get("gateway").and_then(|g| g.get("shards")).unwrap();
    assert!(matches!(shards, Json::Arr(xs) if xs.len() == 2));

    drop(gw);
    shutdown_shard(&addr_a);
    shutdown_shard(&addr_b);
    join_a.join().unwrap();
    join_b.join().unwrap();

    // Pinning holds at every cluster width, not just two shards.
    for width in [1, 4] {
        assert_warm_pass_pinned(width, &requests);
    }
}

/// Route `requests` cold, then warm, through a `width`-shard gateway
/// with admission caching off: the warm pass adds zero misses on any
/// shard, and every request reaches a shard.
fn assert_warm_pass_pinned(width: usize, requests: &[Request]) {
    let shards: Vec<_> = (0..width)
        .map(|_| spawn_shard(Server::with_threads(1)))
        .collect();
    let gw = GatewayConfig::new(shards.iter().map(|(addr, _)| addr.clone()))
        .admission_cache(0)
        .build();
    let misses = || -> u64 {
        gw.shard_snapshots()
            .iter()
            .map(|s| shard_counter(&s.stats, "misses"))
            .sum()
    };
    for req in requests {
        gw.submit(req);
    }
    let cold = misses();
    assert!(cold > 0, "cold pass computed somewhere at width {width}");
    for req in requests {
        let resp = gw.submit(req);
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
    }
    assert_eq!(misses(), cold, "warm pass recompiled at width {width}");
    let routed: u64 = gw.shard_snapshots().iter().map(|s| s.routed).sum();
    assert_eq!(routed, 2 * requests.len() as u64, "width {width}");
    assert_eq!(unavailable(&gw), 0, "width {width}");
    drop(gw);
    for (addr, join) in shards {
        shutdown_shard(&addr);
        join.join().unwrap();
    }
}

/// Admission control, stage one: a hot source's repeat is answered at
/// the gateway — correct id, `cached: true`, zero shard dispatches —
/// while traced requests always route for their span breakdown.
#[test]
fn admission_cache_answers_hot_repeats_without_touching_a_shard() {
    let (addr, join) = spawn_shard(Server::with_threads(2));
    let gw = GatewayConfig::new([addr.clone()]).build();
    let src = "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";

    let cold = gw.submit(&Request::new("c1", Stage::Estimate, src, "k"));
    assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
    let hot = gw.submit(&Request::new("h1", Stage::Estimate, src, "k"));
    assert_eq!(hot.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(hot.get("id").and_then(Json::as_str), Some("h1"));
    assert_eq!(hot.get("cached").and_then(Json::as_bool), Some(true));
    let sans_id = |v: &Json| match Json::parse(&normalize(v)).unwrap() {
        Json::Obj(fields) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| k != "id").collect()).emit()
        }
        other => other.emit(),
    };
    assert_eq!(sans_id(&cold), sans_id(&hot), "hit answers identically");
    assert_eq!(gw.admission_cache_hits(), 1);
    assert_eq!(
        gw.shard_snapshots()[0].routed,
        1,
        "the repeat never reached the shard"
    );

    // A traced repeat routes anyway: span breakdowns cannot be served
    // from the cache.
    let traced = gw.submit(&Request::new("t1", Stage::Estimate, src, "k").traced("tr-adm"));
    assert_eq!(traced.get("ok").and_then(Json::as_bool), Some(true));
    assert!(traced.get("trace").is_some());
    assert_eq!(gw.admission_cache_hits(), 1, "traced request was no hit");
    assert_eq!(gw.shard_snapshots()[0].routed, 2);

    // A different stage over the same source is its own key.
    let other = gw.submit(&Request::new("s1", Stage::Check, src, "k"));
    assert_eq!(other.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(gw.admission_cache_hits(), 1);
    assert_eq!(gw.shard_snapshots()[0].routed, 3);

    // The stats object reports the cache beside the routing counters.
    let stats = gw.stats_json();
    let gws = stats.get("gateway").unwrap();
    assert_eq!(
        gws.get("admission_cache_hits").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        gws.get("admission_cache_entries").and_then(Json::as_u64),
        Some(2)
    );
    assert!(
        gws.get("admission_cache_cap")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );

    drop(gw);
    shutdown_shard(&addr);
    join.join().unwrap();
}

#[test]
fn killing_a_shard_mid_batch_loses_no_requests() {
    // Shard A compiles slowly (widening the in-flight window we kill
    // into); shard B is a normal survivor.
    let (addr_a, join_a) = spawn_shard(Server::with_compute_delay(2, Duration::from_millis(30)));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let gw = Arc::new(
        GatewayConfig::new([addr_a.clone(), addr_b.clone()])
            // A long interval keeps the health checker out of the
            // story: re-routing below is driven purely by call failure.
            .health_interval(Duration::from_secs(30))
            // Failover semantics, not gateway caching, are under test.
            .admission_cache(0)
            .build(),
    );
    assert_eq!(gw.live_shards(), 2);

    let programs: Vec<Request> = (0..24)
        .map(|i| {
            let b = 1u64 << (i % 4);
            Request::new(
                format!("r{i}"),
                Stage::Estimate,
                format!(
                    "let A: float[16 bank {b}];\nfor (let i = 0..16) unroll {b} {{ A[i] := {}.0; }}",
                    i + 1
                ),
                "k",
            )
        })
        .collect();

    // Fire the whole batch concurrently, and kill shard A while it is
    // mid-flight. Graceful TCP teardown answers what it already read
    // and drops the rest on the floor — dropped requests must re-route.
    let killer = {
        let addr_a = addr_a.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            shutdown_shard(&addr_a);
        })
    };
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = programs
            .iter()
            .map(|req| {
                let gw = Arc::clone(&gw);
                s.spawn(move || gw.submit(req))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    killer.join().unwrap();
    join_a.join().unwrap();

    // Zero failed requests — the acceptance bar.
    for (req, resp) in programs.iter().zip(&responses) {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {} failed: {}",
            req.id,
            resp.emit()
        );
        assert_eq!(resp.get("id").and_then(Json::as_str), Some(req.id.as_str()));
    }

    // The cluster keeps serving after the loss, and the artifacts agree
    // with a direct run.
    let direct = Server::with_threads(2);
    for req in programs.iter().take(6) {
        let after = gw.submit(req);
        assert_eq!(normalize(&after), {
            let d = direct.submit(req.clone()).to_json();
            normalize(&d)
        });
    }
    let snaps = gw.shard_snapshots();
    let a = snaps.iter().find(|s| s.addr == addr_a).unwrap();
    let b = snaps.iter().find(|s| s.addr == addr_b).unwrap();
    assert!(!a.alive, "shard A is down");
    assert!(b.alive, "shard B survived");
    assert!(b.routed > 0);

    drop(gw);
    shutdown_shard(&addr_b);
    join_b.join().unwrap();
}

/// Poll `probe` every 10 ms until it returns true or `secs` elapse.
fn wait_for(secs: u64, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    loop {
        if probe() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sum a per-stage `executions` object across every shard snapshot
/// (dead shards contribute their final stats snapshot).
fn cluster_executions(gw: &dahlia_gateway::Gateway) -> u64 {
    gw.shard_snapshots()
        .iter()
        .map(|s| {
            s.stats
                .as_ref()
                .and_then(|v| v.get("executions"))
                .map(|ex| match ex {
                    Json::Obj(fields) => fields.iter().filter_map(|(_, v)| v.as_u64()).sum::<u64>(),
                    _ => 0,
                })
                .unwrap_or(0)
        })
        .sum()
}

fn shard_requests(gw: &dahlia_gateway::Gateway) -> u64 {
    gw.shard_snapshots()
        .iter()
        .map(|s| shard_counter(&s.stats, "requests"))
        .sum()
}

/// The tentpole acceptance test: with replication 2, every newly
/// computed artifact fans out to the secondary, so killing the primary
/// mid-batch loses zero requests AND recomputes zero pipeline stages —
/// the cluster serves the whole displaced working set warm.
#[test]
fn replicated_cluster_fails_over_warm() {
    let (addr_a, join_a) = spawn_shard(Server::with_threads(2));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let gw = Arc::new(
        GatewayConfig::new([addr_a.clone(), addr_b.clone()])
            .replication(2)
            // Keep the health checker out of the story: failover below
            // is driven purely by call failure.
            .health_interval(Duration::from_secs(30))
            // Replication, not the gateway response cache, must serve
            // the displaced keys warm — keep the cache out of the way.
            .admission_cache(0)
            .build(),
    );
    assert_eq!(gw.live_shards(), 2);
    let requests = machsuite_requests();
    let n = requests.len() as u64;

    // Cold pass: primaries compute, replicas warm up in the background.
    for req in &requests {
        let resp = gw.submit(req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    }
    // With R = 2 over 2 shards, every request reaches both shards —
    // one primary call plus one background replica write. Wait for the
    // fan-out to drain before taking the execution baseline.
    assert!(
        wait_for(20, || shard_requests(&gw) >= 2 * n),
        "replication fan-out never completed: {} of {} shard requests",
        shard_requests(&gw),
        2 * n
    );
    assert_eq!(gw.replica_writes(), n, "every cold compute fanned out");
    let baseline = cluster_executions(&gw);
    assert!(baseline > 0, "cold pass computed somewhere");

    // Kill shard A mid-batch: in-flight and future requests must land
    // warm on shard B. Zero lost requests, zero recomputed stages.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        shutdown_shard(&addr_a);
    });
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                let gw = Arc::clone(&gw);
                s.spawn(move || gw.submit(req))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    killer.join().unwrap();
    join_a.join().unwrap();

    for (req, resp) in requests.iter().zip(&responses) {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {} failed: {}",
            req.id,
            resp.emit()
        );
    }
    assert_eq!(unavailable(&gw), 0, "every request reached a shard");
    assert_eq!(
        cluster_executions(&gw),
        baseline,
        "warm failover must not recompute any pipeline stage"
    );

    drop(gw);
    shutdown_shard(&addr_b);
    join_b.join().unwrap();
}

/// Draining a shard during a batch: zero failed requests, the drained
/// shard's warm keys migrate to the survivor, and new traffic routes
/// past it until undrain puts it back.
#[test]
fn draining_a_shard_mid_batch_loses_nothing_and_migrates_keys() {
    let (addr_a, join_a) = spawn_shard(Server::with_threads(2));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let gw = Arc::new(
        GatewayConfig::new([addr_a.clone(), addr_b.clone()])
            .health_interval(Duration::from_secs(30))
            // Drain migration is observed through shard counters; the
            // gateway cache would answer the repeats before routing.
            .admission_cache(0)
            .build(),
    );
    assert_eq!(gw.live_shards(), 2);
    let requests = machsuite_requests();

    // Cold pass pins every source to its rendezvous owner.
    for req in &requests {
        assert_eq!(gw.submit(req).get("ok").and_then(Json::as_bool), Some(true));
    }
    let owned_by_a = gw
        .shard_snapshots()
        .iter()
        .find(|s| s.addr == addr_a)
        .unwrap()
        .routed;
    assert!(owned_by_a > 0, "rendezvous gave shard A some keys");

    // Drain shard A while a second batch is in flight.
    let drainer = {
        let gw = Arc::clone(&gw);
        let addr_a = addr_a.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            gw.drain(&addr_a)
        })
    };
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                let gw = Arc::clone(&gw);
                s.spawn(move || gw.submit(req))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ack = drainer.join().unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
    let scheduled = ack
        .get("keys_scheduled")
        .and_then(Json::as_u64)
        .expect("drain ack carries keys_scheduled");
    assert!(scheduled > 0, "shard A had warm keys to migrate: {ack:?}");

    // The batch the drain raced lost nothing.
    for (req, resp) in requests.iter().zip(&responses) {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {} failed during drain: {}",
            req.id,
            resp.emit()
        );
    }

    // The background walk re-homes every scheduled key.
    assert!(
        wait_for(20, || {
            gw.shard_snapshots()
                .iter()
                .find(|s| s.addr == addr_a)
                .unwrap()
                .drained_keys
                >= scheduled
        }),
        "migration never completed"
    );

    // Post-drain traffic routes entirely past shard A and is fully
    // warm on the survivor.
    let routed_a_before = gw
        .shard_snapshots()
        .iter()
        .find(|s| s.addr == addr_a)
        .unwrap()
        .routed;
    for req in &requests {
        let resp = gw.submit(req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            resp.get("cached").and_then(Json::as_bool),
            Some(true),
            "migrated key recomputed: {}",
            resp.emit()
        );
    }
    let snap_a = gw
        .shard_snapshots()
        .into_iter()
        .find(|s| s.addr == addr_a)
        .unwrap();
    assert!(snap_a.draining);
    assert_eq!(
        snap_a.routed, routed_a_before,
        "a draining shard received new keys"
    );
    assert_eq!(unavailable(&gw), 0);

    // Undrain: shard A rejoins, its keys come straight back (its own
    // warm cache is intact — zero recomputes again).
    let ack = gw.undrain(&addr_a, None);
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(ack.get("joined").and_then(Json::as_bool), Some(false));
    let executions_before = cluster_executions(&gw);
    let mut back_on_a = 0u64;
    for req in &requests {
        let resp = gw.submit(req);
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
    }
    let snap_a = gw
        .shard_snapshots()
        .into_iter()
        .find(|s| s.addr == addr_a)
        .unwrap();
    back_on_a += snap_a.routed - routed_a_before;
    assert!(back_on_a > 0, "undrained shard got its keys back");
    assert_eq!(
        cluster_executions(&gw),
        executions_before,
        "undrain recomputed something"
    );

    drop(gw);
    shutdown_shard(&addr_a);
    shutdown_shard(&addr_b);
    join_a.join().unwrap();
    join_b.join().unwrap();
}

/// A traced request through a 2-shard gateway reports the full span
/// tree — the gateway hop first, then the shard's queue wait and
/// per-stage compute spans — lands in the gateway's journal, and the
/// merged cluster stats carry a hist section with percentiles
/// re-derived from the summed buckets.
#[test]
fn traced_request_reports_gateway_and_stage_spans_and_merged_hist() {
    use dahlia_server::{query, ControlOp};
    let (addr_a, join_a) = spawn_shard(Server::with_threads(2));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let gw = GatewayConfig::new([addr_a.clone(), addr_b.clone()])
        .health_interval(Duration::from_secs(30))
        .build();
    let src = "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";

    let resp = gw.submit(&Request::new("t1", Stage::Estimate, src, "k").traced("tr-1"));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        resp.keys().last().copied(),
        Some("trace"),
        "trace is the trailing field"
    );
    let trace = resp.get("trace").unwrap();
    assert_eq!(trace.get("id").and_then(Json::as_str), Some("tr-1"));
    let Some(Json::Arr(spans)) = trace.get("spans") else {
        panic!("spans array");
    };
    let name = |s: &Json| {
        s.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    assert!(
        name(&spans[0]).starts_with("shard:"),
        "gateway hop leads: {}",
        trace.emit()
    );
    assert_eq!(
        spans[0].get("detail").and_then(Json::as_str),
        Some("routed")
    );
    assert!(spans.iter().any(|s| name(s) == "queue"), "{}", trace.emit());
    for stage in ["stage:parse", "stage:check", "stage:lower", "stage:est"] {
        assert!(
            spans.iter().any(|s| name(s) == stage),
            "missing {stage}: {}",
            trace.emit()
        );
    }
    // The remote spans nest under the gateway hop: their sum cannot
    // exceed the round-trip the gateway measured.
    let hop_us = spans[0].get("us").and_then(Json::as_u64).unwrap();
    let nested: u64 = spans[1..]
        .iter()
        .filter_map(|s| s.get("us").and_then(Json::as_u64))
        .sum();
    assert!(nested <= hop_us, "nested {nested}us > hop {hop_us}us");

    // The combined entry is queryable from the gateway's journal.
    let journal = query(&gw, ControlOp::Trace);
    let Some(Json::Arr(entries)) = journal.get("entries") else {
        panic!("journal entries");
    };
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].get("trace").and_then(Json::as_str), Some("tr-1"));
    assert_eq!(entries[0].get("stage").and_then(Json::as_str), Some("est"));

    // An untraced request is byte-compatible with the old protocol.
    let bare = gw.submit(&Request::new("t2", Stage::Estimate, src, "k"));
    assert!(bare.get("trace").is_none());

    // Merged stats: bucket counts summed across shards, count and
    // percentiles re-derived from the merged buckets.
    let stats = gw.stats_json();
    let lat = stats
        .get("hist")
        .and_then(|h| h.get("latency_us"))
        .expect("merged hist section");
    assert_eq!(lat.get("count").and_then(Json::as_u64), Some(2));
    let p50 = lat.get("p50").and_then(Json::as_f64).unwrap();
    let p99 = lat.get("p99").and_then(Json::as_f64).unwrap();
    assert!(p50 <= p99 && p99 > 0.0, "p50={p50} p99={p99}");

    // Liveness summary backing /healthz.
    let health = query(&gw, ControlOp::Health);
    assert_eq!(health.get("shards_live").and_then(Json::as_u64), Some(2));
    assert_eq!(health.get("shards_dead").and_then(Json::as_u64), Some(0));

    drop(gw);
    shutdown_shard(&addr_a);
    shutdown_shard(&addr_b);
    join_a.join().unwrap();
    join_b.join().unwrap();
}

/// A shard that accepts one connection, answers the v1 `hello`, reads
/// one byte of the first request, and slams it — a deterministic
/// mid-call failure, the in-process stand-in for SIGKILLing the primary.
fn spawn_flaky_shard() -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            use std::io::{BufRead, Read, Write};
            let mut hello = String::new();
            let _ = std::io::BufReader::new(&stream).read_line(&mut hello);
            let _ = stream.write_all(b"{\"hello\":{\"version\":1}}\n");
            let mut buf = [0u8; 1];
            let _ = stream.read(&mut buf);
            // Drop the stream: EOF with the request in flight.
        }
    });
    (addr, handle)
}

/// Killing the primary mid-call leaves a visible failover hop in the
/// span tree: the dead shard's failed attempt, then the survivor
/// answering as a re-route.
#[test]
fn failover_records_the_reroute_hop_in_the_span_tree() {
    let (flaky_addr, flaky_join) = spawn_flaky_shard();
    let (real_addr, real_join) = spawn_shard(Server::with_threads(2));
    // The flaky shard massively out-weighs the survivor, so rendezvous
    // prefers it for the key — the first attempt always dies mid-call.
    let gw =
        GatewayConfig::new_weighted([(flaky_addr.clone(), 1_000_000.0), (real_addr.clone(), 1.0)])
            .health_interval(Duration::from_secs(30))
            .build();
    let src = "let A: float[4 bank 2]; for (let i = 0..4) unroll 2 { A[i] := 1.0; }";

    let resp = gw.submit(&Request::new("f1", Stage::Estimate, src, "k").traced("tr-fail"));
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        resp.emit()
    );
    let trace = resp.get("trace").unwrap();
    let Some(Json::Arr(spans)) = trace.get("spans") else {
        panic!("spans array: {}", trace.emit());
    };
    let name = |s: &Json| {
        s.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let detail = |s: &Json| {
        s.get("detail")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    assert_eq!(name(&spans[0]), format!("shard:{flaky_addr}"));
    assert_eq!(detail(&spans[0]), "failed");
    assert_eq!(name(&spans[1]), format!("shard:{real_addr}"));
    assert_eq!(detail(&spans[1]), "rerouted");
    assert!(spans.iter().any(|s| name(s) == "stage:est"));

    drop(gw);
    flaky_join.join().unwrap();
    shutdown_shard(&real_addr);
    real_join.join().unwrap();
}

#[test]
fn dead_shard_keeps_contributing_its_last_stats_snapshot() {
    let (addr, join) = spawn_shard(Server::with_threads(1));
    let gw = GatewayConfig::new([addr.clone()])
        .health_interval(Duration::from_secs(30))
        .build();
    let req = Request::new(
        "r1",
        Stage::Check,
        "let A: float[4 bank 2]; for (let i = 0..4) unroll 2 { A[i] := 1.0; }",
        "k",
    );
    gw.submit(&req);
    let live_stats = gw.stats_json();
    assert_eq!(live_stats.get("requests").and_then(Json::as_u64), Some(1));

    shutdown_shard(&addr);
    join.join().unwrap();
    // Wait for the pooled client to observe the hangup.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while gw.live_shards() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gw.live_shards(), 0);

    // The aggregate survives on the snapshot: monotonic counters do not
    // vanish when their shard does (deltas stay non-negative downstream).
    let after = gw.stats_json();
    assert_eq!(after.get("requests").and_then(Json::as_u64), Some(1));
    let gws = after.get("gateway").unwrap();
    assert_eq!(gws.get("shards_live").and_then(Json::as_u64), Some(0));
}

/// Durable-telemetry acceptance: a shard that fails consecutive
/// health checks is auto-drained (journalled, counted, never the last
/// live shard), the warm-key ledger survives a gateway restart, and
/// `{"op":"history"}` answers from the on-disk ring written before the
/// restart.
#[test]
fn auto_drain_and_durable_telemetry_survive_a_gateway_restart() {
    use dahlia_server::{query, ControlOp};

    let (addr_a, join_a) = spawn_shard(Server::with_threads(2));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let dir = std::env::temp_dir().join(format!("dahlia-gw-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let gw = GatewayConfig::new([addr_a.clone(), addr_b.clone()])
        .health_interval(Duration::from_millis(20))
        .connect_timeout(Duration::from_millis(200))
        .telemetry(TelemetryConfig::new().dir(&dir).interval_ms(20))
        .auto_drain_after(2)
        .build();
    for req in machsuite_requests() {
        gw.submit(&req);
    }

    // Kill B: two failed health passes later the gateway drains it.
    shutdown_shard(&addr_b);
    join_b.join().unwrap();
    assert!(
        wait_for(10, || gw
            .shard_snapshots()
            .iter()
            .any(|s| s.addr == addr_b && s.draining)),
        "dead shard was never auto-drained"
    );

    // The remediation left an audit trail: an alert-journal event with
    // the drained address, and the per-shard counter.
    let alerts = query(&gw, ControlOp::Alerts { since: 0 });
    let Some(Json::Arr(events)) = alerts.get("entries") else {
        panic!("{alerts:?}")
    };
    assert!(
        events.iter().any(|e| {
            e.get("event").and_then(Json::as_str) == Some("auto_drain")
                && e.get("detail").and_then(Json::as_str) == Some(addr_b.as_str())
        }),
        "no auto_drain event for {addr_b}: {alerts:?}"
    );
    let stats = gw.stats_json();
    let Some(Json::Arr(shards)) = stats.get("gateway").and_then(|g| g.get("shards")) else {
        panic!("{stats:?}")
    };
    let b_entry = shards
        .iter()
        .find(|s| s.get("addr").and_then(Json::as_str) == Some(addr_b.as_str()))
        .unwrap();
    assert_eq!(b_entry.get("auto_drained").and_then(Json::as_u64), Some(1));
    // The sampler has been writing the ring all along.
    assert!(
        stats
            .get("telemetry")
            .and_then(|t| t.get("appended"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "{stats:?}"
    );

    // Restart the gateway on the same telemetry dir.
    drop(gw);
    let gw2 = GatewayConfig::new([addr_a.clone(), addr_b.clone()])
        .health_interval(Duration::from_millis(20))
        .connect_timeout(Duration::from_millis(200))
        .telemetry(TelemetryConfig::new().dir(&dir).interval_ms(20))
        .auto_drain_after(2)
        .build();

    // The warm-key ledger came back from the checkpoint: the surviving
    // shard's warm keys are known before any new traffic flows.
    let stats2 = gw2.stats_json();
    let Some(Json::Arr(shards2)) = stats2.get("gateway").and_then(|g| g.get("shards")) else {
        panic!("{stats2:?}")
    };
    let warm: u64 = shards2
        .iter()
        .filter_map(|s| s.get("warm_keys").and_then(Json::as_u64))
        .sum();
    assert!(warm > 0, "ledger not rehydrated: {stats2:?}");

    // History answers from the ring written by the *previous* gateway.
    let history = query(
        &gw2,
        ControlOp::History {
            series: "gateway.requests".into(),
            since: 0,
            step: 0,
        },
    );
    let Some(Json::Arr(points)) = history.get("points") else {
        panic!("{history:?}")
    };
    assert!(
        !points.is_empty(),
        "no pre-restart history points: {history:?}"
    );

    // B is still dead: gw2 auto-drains it again (A survives it).
    assert!(
        wait_for(10, || gw2
            .shard_snapshots()
            .iter()
            .any(|s| s.addr == addr_b && s.draining)),
        "restarted gateway never re-drained the dead shard"
    );
    // Kill A too: now the last live shard is failing, and the guard
    // must refuse to drain it.
    shutdown_shard(&addr_a);
    join_a.join().unwrap();
    assert!(
        wait_for(5, || {
            gw2.shard_snapshots()
                .iter()
                .find(|s| s.addr == addr_a)
                .map(|s| !s.alive)
                .unwrap_or(false)
        }),
        "shard A never observed dead"
    );
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        !gw2.shard_snapshots()
            .iter()
            .find(|s| s.addr == addr_a)
            .unwrap()
            .draining,
        "the last live shard must never be auto-drained"
    );

    drop(gw2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fetch a shard's stats envelope over a plain v0 client connection.
/// The reactor appends its `transport` section to every stats reply,
/// which is how these tests observe what the gateway hop negotiated.
fn shard_transport(addr: &str) -> Json {
    let mut c = Client::connect(addr).expect("stats connection");
    c.send_line(r#"{"op":"stats"}"#).expect("send stats");
    let line = c.recv_line().expect("recv stats").expect("stats line");
    Json::parse(&line)
        .expect("stats parses")
        .get("stats")
        .and_then(|s| s.get("transport"))
        .cloned()
        .expect("transport section")
}

fn transport_counter(t: &Json, key: &str) -> u64 {
    t.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The gateway↔shard hop is v1-only: a shard pinned to the v0 wire is
/// refused at connect with a clear error and counts as dead (its keys
/// answer `admission/unavailable`), while a current shard negotiates
/// binary frames and serves byte-identical artifacts.
#[test]
fn a_shard_negotiating_v0_is_refused_and_counts_as_dead() {
    let direct = Server::with_threads(2);
    let requests: Vec<Request> = machsuite_requests().into_iter().take(4).collect();
    let check = |gw: &dahlia_gateway::Gateway, tag: &str| {
        for req in &requests {
            let via = gw.submit(req);
            let direct_resp = direct.submit(req.clone()).to_json();
            assert_eq!(
                normalize(&via),
                normalize(&direct_resp),
                "[{tag}] artifact diverged for {}",
                req.id
            );
        }
    };

    let (addr_old, join_old) =
        spawn_shard_with(Server::with_threads(2), NetConfig::new().max_wire(0));
    let err = dahlia_server::PipelinedClient::connect(addr_old.as_str())
        .err()
        .expect("a v0 shard is refused at connect");
    assert!(err.to_string().contains("wire v0"), "{err}");
    let gw = GatewayConfig::new([addr_old.clone()])
        .admission_cache(0)
        .build();
    assert_eq!(gw.live_shards(), 0);
    for req in &requests {
        let resp = gw.submit(req);
        let code = resp.get("error").and_then(|e| e.get("code"));
        assert_eq!(
            code.and_then(Json::as_str),
            Some("admission/unavailable"),
            "[v0-shard] {}",
            req.id
        );
    }
    assert_eq!(unavailable(&gw), requests.len() as u64);
    let stats = gw.stats_json();
    let gws = stats.get("gateway").unwrap();
    assert_eq!(gws.get("shards_dead").and_then(Json::as_u64), Some(1));
    assert_eq!(gws.get("shards_live").and_then(Json::as_u64), Some(0));
    let t = shard_transport(&addr_old);
    assert_eq!(transport_counter(&t, "frames_in"), 0);
    drop(gw);
    shutdown_shard(&addr_old);
    join_old.join().unwrap();

    // A current shard: the hop negotiates v1 and the request/response
    // traffic is binary frames.
    let (addr_new, join_new) = spawn_shard(Server::with_threads(2));
    let gw = GatewayConfig::new([addr_new.clone()])
        .admission_cache(0)
        .build();
    check(&gw, "v1-shard");
    assert_eq!(unavailable(&gw), 0);
    let t = shard_transport(&addr_new);
    assert!(transport_counter(&t, "sessions_v1") >= 1, "{t:?}");
    assert!(transport_counter(&t, "frames_in") > 0, "{t:?}");
    assert!(transport_counter(&t, "frames_out") > 0, "{t:?}");
    drop(gw);
    shutdown_shard(&addr_new);
    join_new.join().unwrap();
}

/// A shard that negotiates v1 and then never reads: its socket buffer
/// fills and stays full. Every connection is held until `stop` is set;
/// `arrived` fires once request bytes wait unread on the first one.
fn spawn_stuck_shard(
    stop: Arc<std::sync::atomic::AtomicBool>,
    arrived: std::sync::mpsc::Sender<()>,
) -> (String, std::thread::JoinHandle<()>) {
    use std::io::{Read, Write};
    use std::sync::atomic::Ordering;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        listener.set_nonblocking(true).unwrap();
        let mut held = Vec::new();
        let mut arrived = Some(arrived);
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false).unwrap();
                    // The hello line is all this shard ever reads.
                    let mut byte = [0u8; 1];
                    while byte[0] != b'\n' && stream.read(&mut byte).unwrap_or(0) == 1 {}
                    let _ = stream.write_all(b"{\"hello\":{\"version\":1}}\n");
                    held.push(stream);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            if let Some(first) = held.first() {
                let mut peek = [0u8; 1];
                first.set_nonblocking(true).unwrap();
                if matches!(first.peek(&mut peek), Ok(1)) {
                    if let Some(tx) = arrived.take() {
                        let _ = tx.send(());
                    }
                }
            }
        }
    });
    (addr, handle)
}

/// The gateway reactor never blocks on a shard socket: with a shard
/// that has stopped reading and a backlog of large requests behind
/// it, a control op and an admission-cache hit on the same gateway are
/// still answered before any stuck request, and once the io timeout
/// declares the shard dead every stuck request re-routes (or answers
/// `admission/unavailable`) — none is lost.
#[test]
fn a_shard_that_stops_reading_never_blocks_the_gateway_reactor() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = Arc::new(AtomicBool::new(false));
    let (arrived_tx, arrived_rx) = std::sync::mpsc::channel();
    let (stuck_addr, stuck_join) = spawn_stuck_shard(Arc::clone(&stop), arrived_tx);
    let (real_addr, real_join) = spawn_shard(Server::with_threads(2));
    let gw = Arc::new(
        GatewayConfig::new([stuck_addr.clone(), real_addr.clone()])
            .io_timeout(Duration::from_millis(300))
            .health_interval(Duration::from_secs(30))
            .build(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let gw_addr = listener.local_addr().unwrap();
    let t_gw = Arc::clone(&gw);
    let gw_join =
        std::thread::spawn(move || dahlia_server::serve_sessions(t_gw, listener).expect("serve"));

    // Sources by rendezvous owner (both shards weigh 1).
    let shards = [(stuck_addr.as_str(), 1.0), (real_addr.as_str(), 1.0)];
    let owner = |src: &str| {
        dahlia_gateway::hash::weighted_rank(dahlia_server::source_digest(src), &shards)[0]
    };
    let warm = (0..)
        .map(|i| format!("let A: float[8 bank 4]; A[0] := {i}.25;"))
        .find(|s| owner(s) == 1)
        .unwrap();
    // 24 × 256 KiB outruns any loopback socket buffer.
    let pad = " ".repeat(256 << 10);
    let stuck: Vec<String> = (0..)
        .map(|i| format!("let A: float[8 bank 4]; A[0] := {i}.5;{pad}"))
        .filter(|s| owner(s) == 0)
        .take(24)
        .collect();
    let line = |id: &str, src: &str| Request::new(id, Stage::Estimate, src, "k").to_json().emit();

    // Warm the admission cache through the live shard.
    let mut probe = Client::connect(gw_addr).expect("probe connection");
    probe.send_line(&line("w0", &warm)).unwrap();
    let first = Json::parse(&probe.recv_line().unwrap().unwrap()).unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));

    // The stuck batch, on its own v1 connection; a reader thread notes
    // when its first answer lands.
    let mut bulk = Client::connect_wire(gw_addr, 1).expect("bulk connection");
    for (i, src) in stuck.iter().enumerate() {
        bulk.send_line(&line(&format!("s{i}"), src)).unwrap();
    }
    let n = stuck.len();
    let bulk_join = std::thread::spawn(move || {
        let mut answers = Vec::new();
        let mut first_at = None;
        for _ in 0..n {
            let text = bulk.recv_line().unwrap().expect("a stuck request's answer");
            first_at.get_or_insert_with(std::time::Instant::now);
            answers.push(Json::parse(&text).unwrap());
        }
        (first_at.unwrap(), answers)
    });
    arrived_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("request bytes reached the stuck shard");

    // The reactor still answers a control op and an admission hit.
    probe.send_line(r#"{"op":"trace"}"#).unwrap();
    probe.send_line(&line("w1", &warm)).unwrap();
    let trace = Json::parse(&probe.recv_line().unwrap().unwrap()).unwrap();
    assert!(trace.get("trace").is_some(), "{}", trace.emit());
    let hit = Json::parse(&probe.recv_line().unwrap().unwrap()).unwrap();
    let answered_at = std::time::Instant::now();
    assert_eq!(hit.get("id").and_then(Json::as_str), Some("w1"));
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(gw.admission_cache_hits(), 1);

    let (first_stuck_at, answers) = bulk_join.join().unwrap();
    assert!(
        answered_at < first_stuck_at,
        "the hit was answered while every stuck request was still outstanding"
    );
    let mut ids: Vec<String> = answers
        .iter()
        .map(|v| {
            let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            assert!(ok || code == Some("admission/unavailable"), "{}", v.emit());
            v.get("id").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n, "every stuck request answered exactly once");
    assert!(
        gw.rerouted() >= 1,
        "stuck requests re-routed past the dead shard"
    );

    probe.shutdown_server().unwrap();
    gw_join.join().unwrap();
    drop(gw);
    stop.store(true, Ordering::SeqCst);
    stuck_join.join().unwrap();
    shutdown_shard(&real_addr);
    real_join.join().unwrap();
}

/// Cold backlogs from several client connections, all owned by one
/// shard, wait in the gateway rather than in the shard: the hop keeps
/// fewer requests on the wire than the shard's admission window, so
/// the shard sheds none of them and every request answers ok.
#[test]
fn cold_backlogs_from_many_connections_are_never_shed_by_the_shard() {
    let (addr, shard_join) = spawn_shard(Server::with_compute_delay(1, Duration::from_millis(1)));
    let gw = Arc::new(GatewayConfig::new([addr.clone()]).build());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let gw_addr = listener.local_addr().unwrap();
    let t_gw = Arc::clone(&gw);
    let gw_join =
        std::thread::spawn(move || dahlia_server::serve_sessions(t_gw, listener).expect("serve"));

    // Three connections × 200 cold requests: more than the shard's
    // window of 256 at once.
    let per_conn = 200;
    let conns: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(gw_addr).expect("gateway connection");
                for i in 0..per_conn {
                    let source = format!("let A: float[{}]; A[0] := {c}.5;", i + 1);
                    let req = Request::new(format!("c{c}-{i}"), Stage::Check, source, "k");
                    client.send_line(&req.to_json().emit()).unwrap();
                }
                (0..per_conn)
                    .map(|_| Json::parse(&client.recv_line().unwrap().unwrap()).unwrap())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for conn in conns {
        for v in conn.join().unwrap() {
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "{}",
                v.emit()
            );
        }
    }
    let t = shard_transport(&addr);
    assert_eq!(transport_counter(&t, "requests_shed"), 0, "{t:?}");
    assert_eq!(gw.rerouted(), 0);

    let mut c = Client::connect(gw_addr).unwrap();
    c.shutdown_server().unwrap();
    gw_join.join().unwrap();
    drop(gw);
    shutdown_shard(&addr);
    shard_join.join().unwrap();
}

/// A shard whose admission window is smaller than the hop's sheds part
/// of a burst with `admission/overloaded`; the gateway re-routes each
/// shed request to the next shard rather than answering with the shed.
#[test]
fn requests_a_shard_sheds_are_re_routed_to_the_next_shard() {
    let (small, small_join) = spawn_shard_with(
        Server::with_compute_delay(1, Duration::from_millis(20)),
        NetConfig::new().max_inflight(1),
    );
    let (big, big_join) = spawn_shard(Server::with_threads(2));
    let gw = GatewayConfig::new([small.clone(), big.clone()]).build();
    let shards = [(small.as_str(), 1.0), (big.as_str(), 1.0)];
    let owned: Vec<String> = (0..)
        .map(|i| format!("let A: float[{}]; A[0] := 1.0;", i + 1))
        .filter(|s| {
            dahlia_gateway::hash::weighted_rank(dahlia_server::source_digest(s), &shards)[0] == 0
        })
        .take(16)
        .collect();
    // One blocking caller per request: the burst reaches the small
    // shard while its one slot is busy, and its reactor parses the
    // backlog past the window when the slot frees.
    let answers: Vec<Json> = std::thread::scope(|s| {
        let calls: Vec<_> = owned
            .iter()
            .enumerate()
            .map(|(i, src)| {
                let gw = &gw;
                s.spawn(move || gw.submit(&Request::new(format!("r{i}"), Stage::Check, src, "k")))
            })
            .collect();
        calls.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for v in &answers {
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.emit()
        );
    }
    let shed = transport_counter(&shard_transport(&small), "requests_shed");
    assert!(shed >= 1, "the burst outran the small shard's window");
    assert_eq!(gw.rerouted(), shed, "every shed request re-routed once");

    drop(gw);
    shutdown_shard(&small);
    small_join.join().unwrap();
    shutdown_shard(&big);
    big_join.join().unwrap();
}

/// A sweep of more points than it keeps in flight loses a shard after
/// its first progress line and still evaluates every point once: the
/// progress count never skips or reorders, the journal holds each
/// point exactly once, and the front equals an undisturbed run's.
#[test]
fn a_sweep_outlives_a_shard_killed_mid_sweep() {
    use dahlia_dse::{point_digest, render, SweepSpec};
    use dahlia_obs::{Tsdb, TsdbOptions};
    use dahlia_server::{query, ControlOp, SessionHost, SweepOp};

    // 5 × 4 × 4 = 80 points, more than the 2 × 32 a two-shard sweep
    // keeps in flight.
    let spec = SweepSpec {
        name: "kill-mid-sweep".to_string(),
        template: "let A: float[16 bank ${b}];\n\
                   for (let i = 0..16) unroll ${u} { A[i] := ${c}.0; }"
            .to_string(),
        params: vec![
            ("c".to_string(), (1..=5).collect()),
            ("b".to_string(), vec![1, 2, 4, 8]),
            ("u".to_string(), vec![1, 2, 4, 8]),
        ],
        stage: "est".to_string(),
        stride: 1,
    };
    let total = spec.points().len() as u64;
    assert_eq!(total, 80);
    let op = |id: &str| SweepOp {
        id: id.to_string(),
        spec: spec.clone(),
        resume: false,
        prune: false,
        update_every: 1,
    };

    // The undisturbed reference: one healthy shard.
    let reference = {
        let (addr, join) = spawn_shard(Server::with_threads(2));
        let gw = GatewayConfig::new([addr.clone()]).build();
        let summary = query(&gw, ControlOp::Sweep(op("reference")));
        drop(gw);
        shutdown_shard(&addr);
        join.join().unwrap();
        summary
    };

    // Shard A computes slowly, so the sweep is still under way when it
    // goes down; B survives.
    let (addr_a, join_a) = spawn_shard(Server::with_compute_delay(2, Duration::from_millis(5)));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let dir = std::env::temp_dir().join(format!("dahlia-gw-sweep-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gw = GatewayConfig::new([addr_a.clone(), addr_b.clone()])
        .health_interval(Duration::from_secs(30))
        .telemetry(TelemetryConfig::new().dir(&dir))
        .build();
    let (tx, rx) = std::sync::mpsc::channel();
    gw.control(
        ControlOp::Sweep(op("killed")),
        Box::new(move |line, last| {
            let _ = tx.send((line, last));
        }),
    );
    let mut progress = Vec::new();
    let summary = loop {
        let (line, last) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the sweep keeps streaming");
        if last {
            break line;
        }
        if progress.is_empty() {
            shutdown_shard(&addr_a);
        }
        let done = line.get("sweep").and_then(|s| s.get("points_done"));
        progress.push(done.and_then(Json::as_u64).unwrap());
    };
    join_a.join().unwrap();

    let sweep = summary
        .get("sweep")
        .unwrap_or_else(|| panic!("{summary:?}"));
    let count = |k: &str| sweep.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(count("points_total"), total);
    assert_eq!(count("points_done"), total);
    assert_eq!(
        progress,
        (1..=total).collect::<Vec<_>>(),
        "one line per point, in order"
    );
    assert_eq!(
        sweep.get("front"),
        reference.get("sweep").and_then(|s| s.get("front")),
        "{summary:?}"
    );

    let journal = Tsdb::open_with(
        dir.join(format!("sweep-{:032x}", spec.digest())),
        TsdbOptions {
            segment_bytes: 1 << 20,
            retain_bytes: u64::MAX,
        },
    )
    .unwrap();
    let mut journaled: Vec<String> = journal
        .scan_since(0)
        .into_iter()
        .map(|(_, payload)| {
            let record = Json::parse(&String::from_utf8(payload).unwrap()).unwrap();
            record
                .get("point")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    journaled.sort();
    let mut expected: Vec<String> = spec
        .points()
        .iter()
        .map(|cfg| {
            format!(
                "{:032x}",
                point_digest(&render(&spec.template, cfg).unwrap())
            )
        })
        .collect();
    expected.sort();
    assert_eq!(journaled, expected, "every point journaled exactly once");

    let snaps = gw.shard_snapshots();
    assert!(!snaps.iter().find(|s| s.addr == addr_a).unwrap().alive);
    drop(gw);
    shutdown_shard(&addr_b);
    join_b.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `let x = ((…A[0]…));` nested `depth` parentheses deep.
fn deeply_nested(depth: usize) -> String {
    format!("let x = {}A[0]{};", "(".repeat(depth), ")".repeat(depth))
}

/// `executions.check` summed over every shard's stats.
fn shard_checks(gw: &dahlia_gateway::Gateway) -> u64 {
    gw.shard_snapshots()
        .iter()
        .filter_map(|s| s.stats.as_ref()?.get("executions")?.get("check")?.as_u64())
        .sum()
}

/// A request nested far past the parser's budget is a parse error on
/// the shard it lands on. Without the budget it overflowed that
/// shard's stack, and the gateway re-routed it to kill the next one.
#[test]
fn a_deeply_nested_request_is_a_parse_error_and_every_shard_survives() {
    let (addr_a, join_a) = spawn_shard(Server::with_threads(2));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let gw = GatewayConfig::new([addr_a.clone(), addr_b.clone()]).build();

    let resp = gw.submit(&Request::new(
        "deep",
        Stage::Check,
        deeply_nested(4_000),
        "k",
    ));
    let err = resp.get("error").unwrap_or_else(|| panic!("{resp:?}"));
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some("parse/invalid")
    );
    let message = err.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("limit of 256 levels"), "{message}");

    let snaps = gw.shard_snapshots();
    assert_eq!(snaps.len(), 2);
    assert!(snaps.iter().all(|s| s.alive), "every shard answers stats");
    drop(gw);
    shutdown_shard(&addr_a);
    shutdown_shard(&addr_b);
    join_a.join().unwrap();
    join_b.join().unwrap();
}

/// The 3 × 3 `b`/`u` space the sweep tests share, at `stage`.
fn small_sweep(name: &str, template: &str) -> dahlia_server::SweepOp {
    dahlia_server::SweepOp {
        id: name.to_string(),
        spec: dahlia_dse::SweepSpec {
            name: name.to_string(),
            template: template.to_string(),
            params: vec![
                ("b".to_string(), vec![1, 2, 4]),
                ("u".to_string(), vec![1, 2, 4]),
            ],
            stage: "est".to_string(),
            stride: 1,
        },
        resume: false,
        prune: false,
        update_every: 0,
    }
}

const SMALL_TEMPLATE: &str = "let A: float[8 bank ${b}];\n\
                              for (let i = 0..8) unroll ${u} { A[i] := 1.0; }";

/// A sweep decides its rejections at the gateway: each accepted point
/// is one request and one shard check, each rejected point neither,
/// and the front is the one evaluating every point directly gives.
#[test]
fn a_sweep_hops_only_the_points_the_gateway_accepts() {
    use dahlia_dse::{render, ParetoFront};
    use dahlia_server::{query, ControlOp};

    let (addr_a, join_a) = spawn_shard(Server::with_threads(2));
    let (addr_b, join_b) = spawn_shard(Server::with_threads(2));
    let gw = GatewayConfig::new([addr_a.clone(), addr_b.clone()]).build();
    let (requests, checks) = (gw.requests(), shard_checks(&gw));

    let op = small_sweep("hops", SMALL_TEMPLATE);
    let spec = op.spec.clone();
    let summary = query(&gw, ControlOp::Sweep(op));
    let sweep = summary
        .get("sweep")
        .unwrap_or_else(|| panic!("{summary:?}"));
    let count = |k: &str| sweep.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(count("points_done"), 9);
    let accepted = count("points_done") - count("point_failures");
    assert_eq!(accepted, 5, "{summary:?}");
    assert_eq!(
        gw.requests() - requests,
        accepted,
        "one hop per accepted point"
    );
    assert_eq!(shard_checks(&gw) - checks, accepted, "one shard check each");

    let server = Server::with_threads(1);
    let mut front = ParetoFront::new();
    for cfg in spec.points() {
        let source = render(&spec.template, &cfg).unwrap();
        let resp = server.submit(Request::new("direct", Stage::Estimate, source, "hops"));
        if let Some(e) = resp.estimate() {
            let key: Vec<String> = cfg.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let objectives = [e.cycles, e.luts, e.ffs, e.brams, e.dsps];
            front.insert(key.join(","), objectives.map(|o| o as f64).to_vec());
        }
    }
    let direct: Vec<Json> = front
        .entries()
        .into_iter()
        .map(|e| {
            Json::Obj(vec![
                ("key".to_string(), Json::Str(e.key)),
                (
                    "objectives".to_string(),
                    Json::Arr(e.objectives.into_iter().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    assert_eq!(sweep.get("front"), Some(&Json::Arr(direct)));

    drop(gw);
    shutdown_shard(&addr_a);
    shutdown_shard(&addr_b);
    join_a.join().unwrap();
    join_b.join().unwrap();
}

/// The gateway runs the front end on every sweep point, so a template
/// nested past the parser's budget must cost it one parse error per
/// point, never its own stack. Substituted values are numbers and
/// cannot change how deep a template nests, so every point here is
/// too deep.
#[test]
fn a_sweep_nested_too_deep_finishes_and_the_gateway_keeps_serving() {
    use dahlia_server::{query, ControlOp};

    let (addr, join) = spawn_shard(Server::with_threads(2));
    let gw = GatewayConfig::new([addr.clone()]).build();
    let template = format!("let A: float[8 bank ${{b}}];\n{}", deeply_nested(4_000))
        .replace("A[0]", "A[${u}]");
    let summary = query(&gw, ControlOp::Sweep(small_sweep("deep", &template)));
    assert_eq!(summary.get("done").and_then(Json::as_bool), Some(true));
    let sweep = summary
        .get("sweep")
        .unwrap_or_else(|| panic!("{summary:?}"));
    let count = |k: &str| sweep.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(count("points_done"), 9);
    assert_eq!(count("point_failures"), 9);
    assert_eq!(gw.requests(), 0, "no point hopped");

    let resp = gw.submit(&Request::new(
        "after",
        Stage::Check,
        "let A: float[8 bank 2];",
        "k",
    ));
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    drop(gw);
    shutdown_shard(&addr);
    join.join().unwrap();
}
