//! The cluster `sweep` op agrees with the in-process figure path and
//! with the accept-set goldens.
//!
//! * Fig. 7: the same strided gemm-blocked points go once through a
//!   gateway's sweep op over a loopback shard and once through
//!   `Server::submit`. The sweep's accept count must match the
//!   accept-set golden, and its Pareto front must equal the in-process
//!   one, key for key.
//! * All four accept sets (Fig. 7 and the three Fig. 8 studies): each
//!   whole space is swept through the op, and the points its journal
//!   records as accepted must be the golden's, point for point.

use std::collections::{BTreeSet, HashSet};
use std::net::TcpListener;
use std::sync::Arc;

use dahlia_bench::fig8::Study;
use dahlia_bench::{estimate_point, fig7};
use dahlia_dse::{Config, ParetoFront, SweepSpec};
use dahlia_gateway::{Gateway, GatewayConfig};
use dahlia_kernels::gemm::{gemm_blocked_source, gemm_blocked_template, GEMM_BLOCKED_AXES};
use dahlia_obs::{Tsdb, TsdbOptions};
use dahlia_server::json::Json;
use dahlia_server::{query, Client, ControlOp, Server, SweepOp, TelemetryConfig};

const STRIDE: usize = 101;

/// A front as comparable `(key, objectives)` pairs, in canonical order.
type Front = Vec<(String, Vec<f64>)>;

#[test]
fn the_fig7_sweep_op_agrees_with_the_in_process_path() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let shard = std::thread::spawn(move || {
        dahlia_server::serve_sessions(Arc::new(Server::with_threads(1)), listener)
    });
    let gw = GatewayConfig::new([addr.clone()]).build();

    let op = SweepOp {
        id: "fig7".to_string(),
        spec: SweepSpec {
            name: "gemm_blocked".to_string(),
            template: gemm_blocked_template(128, 8),
            params: GEMM_BLOCKED_AXES
                .iter()
                .map(|(name, values)| (name.to_string(), values.to_vec()))
                .collect(),
            stage: "est".to_string(),
            stride: STRIDE as u64,
        },
        resume: false,
        prune: false,
        update_every: 0,
    };
    let summary = query(&gw, ControlOp::Sweep(op));
    let sweep = summary
        .get("sweep")
        .unwrap_or_else(|| panic!("{summary:?}"));
    let count = |k: &str| sweep.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(count("points_done"), 317);

    // The golden's keys list the accepted configurations in
    // `name=value,...` form, parameters in space order.
    let golden = include_str!("golden/accept_fig7_gemm_blocked.txt");
    let accepted: HashSet<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let space = fig7::space();
    let names = space.names();
    let key = |cfg: &Config| {
        names
            .iter()
            .map(|n| format!("{n}={}", cfg[*n]))
            .collect::<Vec<_>>()
            .join(",")
    };
    let configs: Vec<Config> = space.iter().step_by(STRIDE).collect();
    let golden_accepts = configs
        .iter()
        .filter(|cfg| accepted.contains(key(cfg).as_str()))
        .count() as u64;
    assert_eq!(
        count("points_done") - count("point_failures"),
        golden_accepts
    );

    let server = Server::with_threads(1);
    let mut front = ParetoFront::new();
    for cfg in configs {
        let k = key(&cfg);
        let source = gemm_blocked_source(&fig7::params_of(&cfg));
        let point = estimate_point(&server, cfg, "gemm_blocked", source);
        if point.accepted {
            front.insert(k, point.objectives());
        }
    }
    let in_process: Front = front
        .entries()
        .into_iter()
        .map(|e| (e.key, e.objectives))
        .collect();
    let Some(Json::Arr(entries)) = sweep.get("front") else {
        panic!("summary lacks the front: {summary:?}")
    };
    let swept: Front = entries
        .iter()
        .map(|e| {
            let key = e.get("key").and_then(Json::as_str).unwrap().to_string();
            let Some(Json::Arr(os)) = e.get("objectives") else {
                panic!("front entry lacks objectives: {e:?}")
            };
            (key, os.iter().map(|o| o.as_f64().unwrap()).collect())
        })
        .collect();
    assert!(!swept.is_empty());
    assert_eq!(swept, in_process);

    drop(gw);
    Client::connect(addr.as_str())
        .unwrap()
        .shutdown_server()
        .unwrap();
    shard.join().unwrap().unwrap();
}

/// A `name=value,...` key, in whichever name order, as a parameter map.
fn config_of(key: &str) -> Config {
    key.split(',')
        .map(|kv| {
            let (name, value) = kv.split_once('=').expect("a name=value pair");
            (name.to_string(), value.parse().expect("a value"))
        })
        .collect()
}

/// Sweep `spec` through `gw` and return its summary, plus the points
/// its journal under `dir` records as accepted.
fn sweep_and_read_the_journal(
    gw: &Gateway,
    dir: &std::path::Path,
    spec: SweepSpec,
) -> (Json, BTreeSet<Config>) {
    let journal = dir.join(format!("sweep-{:032x}", spec.digest()));
    let op = SweepOp {
        id: spec.name.clone(),
        spec,
        resume: false,
        prune: false,
        update_every: 0,
    };
    let summary = query(gw, ControlOp::Sweep(op));
    let sweep = summary
        .get("sweep")
        .unwrap_or_else(|| panic!("{summary:?}"))
        .clone();
    let tsdb = Tsdb::open_with(
        journal,
        TsdbOptions {
            segment_bytes: 1 << 20,
            retain_bytes: u64::MAX,
        },
    )
    .expect("the sweep's journal");
    let accepted = tsdb
        .scan_since(0)
        .into_iter()
        .map(|(_, payload)| Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap())
        .filter(|record| record.get("ok").and_then(Json::as_bool) == Some(true))
        .map(|record| config_of(record.get("key").and_then(Json::as_str).unwrap()))
        .collect();
    (sweep, accepted)
}

#[test]
fn every_accept_set_golden_matches_its_sweep_point_for_point() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let shard = std::thread::spawn(move || {
        dahlia_server::serve_sessions(Arc::new(Server::with_threads(1)), listener)
    });
    let dir = std::env::temp_dir().join(format!("dahlia-sweep-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gw = GatewayConfig::new([addr.clone()])
        .telemetry(TelemetryConfig::new().dir(&dir))
        .build();

    let params = |axes: &[(&str, &[u64])]| -> Vec<(String, Vec<u64>)> {
        axes.iter()
            .map(|(name, values)| (name.to_string(), values.to_vec()))
            .collect()
    };
    let mut cases = vec![(
        "gemm_blocked",
        gemm_blocked_template(128, 8),
        params(&GEMM_BLOCKED_AXES),
        include_str!("golden/accept_fig7_gemm_blocked.txt"),
    )];
    for (study, golden) in [
        (
            Study::Stencil2d,
            include_str!("golden/accept_fig8_stencil2d.txt"),
        ),
        (Study::MdKnn, include_str!("golden/accept_fig8_md-knn.txt")),
        (
            Study::MdGrid,
            include_str!("golden/accept_fig8_md-grid.txt"),
        ),
    ] {
        cases.push((study.name(), study.template(), params(study.axes()), golden));
    }

    for (name, template, params, golden) in cases {
        let spec = SweepSpec {
            name: name.to_string(),
            template,
            params,
            stage: "est".to_string(),
            stride: 1,
        };
        let (sweep, accepted) = sweep_and_read_the_journal(&gw, &dir, spec);
        let count = |k: &str| sweep.get(k).and_then(Json::as_u64).unwrap();

        // The golden's header reads `# <title>: N points, M accepted`;
        // its keys list parameters in space order, the journal's in
        // name order, so both are compared as parameter maps.
        let mut lines = golden.lines();
        let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        let golden_total: u64 = header[header.len() - 4].parse().unwrap();
        let golden_count: u64 = header[header.len() - 2].parse().unwrap();
        let golden_points: BTreeSet<Config> = lines.map(config_of).collect();
        assert_eq!(golden_points.len() as u64, golden_count, "{name}");
        assert_eq!(count("points_done"), golden_total, "{name}");
        assert_eq!(
            count("points_done") - count("point_failures"),
            golden_count,
            "{name}"
        );
        assert!(
            accepted == golden_points,
            "{name}: the journal's accepted points drifted from the golden"
        );
    }

    drop(gw);
    let _ = std::fs::remove_dir_all(&dir);
    Client::connect(addr.as_str())
        .unwrap()
        .shutdown_server()
        .unwrap();
    shard.join().unwrap().unwrap();
}
