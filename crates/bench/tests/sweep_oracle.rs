//! The cluster `sweep` op and the in-process figure path agree on
//! Fig. 7. The same strided gemm-blocked points go once through a
//! gateway's sweep op over a loopback shard and once through
//! `Server::submit`: the sweep's accept count must match the accept-set
//! golden, and its Pareto front must equal the in-process one, key for
//! key.

use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::Arc;

use dahlia_bench::{estimate_point, fig7};
use dahlia_dse::{Config, ParetoFront, SweepSpec};
use dahlia_gateway::GatewayConfig;
use dahlia_kernels::gemm::{gemm_blocked_source, gemm_blocked_template, GEMM_BLOCKED_AXES};
use dahlia_server::json::Json;
use dahlia_server::{query, Client, ControlOp, Server, SweepOp};

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
