//! Pins the shape of `{"op":"stats"}` — for a socket server and for a
//! 2-shard gateway — against `tests/golden/stats_shape.txt`: the
//! ordered dotted leaf paths with their kinds, then the Prometheus
//! family names the same stats render to.
//!
//! Regenerate the golden with `DAHLIA_BLESS=1 cargo test -p
//! dahlia-gateway --test stats_shape` (and review the diff: a changed
//! path or order is a wire change every stats consumer sees).

use std::net::TcpListener;
use std::sync::Arc;

use dahlia_gateway::GatewayConfig;
use dahlia_server::json::Json;
use dahlia_server::{Client, NetSummary, Server, SessionHost};

const GOLDEN: &str = "tests/golden/stats_shape.txt";
const EST: &str = r#"{"id":"a","stage":"est","source":"let A: float[8 bank 4]; for (let i = 0..8) unroll 4 { A[i] := 1.0; }"}"#;

fn serve<H: SessionHost + 'static>(host: Arc<H>) -> (String, std::thread::JoinHandle<NetSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        dahlia_server::serve_sessions(host, listener).expect("serve_sessions")
    });
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<NetSummary>) {
    Client::connect(addr).unwrap().shutdown_server().unwrap();
    handle.join().unwrap();
}

/// One compile request and then the stats line, over one v0 session.
fn stats_line(addr: &str) -> String {
    let mut c = Client::connect(addr).expect("connect");
    c.send_line(EST).unwrap();
    let resp = c.recv_line().unwrap().expect("response line");
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    c.send_line(r#"{"op":"stats"}"#).unwrap();
    c.recv_line().unwrap().expect("stats line")
}

fn is_hist(v: &Json) -> bool {
    matches!(v.get("buckets"), Some(Json::Obj(_))) && v.get("count").is_some()
}

/// Ordered `path kind` lines; array items collapse to `path[]`.
fn leaves(prefix: &str, v: &Json, out: &mut Vec<String>) {
    let kind = match v {
        Json::Obj(_) if is_hist(v) => "histogram",
        Json::Obj(fields) => {
            for (k, x) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                leaves(&path, x, out);
            }
            return;
        }
        Json::Arr(items) => {
            for item in items {
                let mut row = Vec::new();
                leaves(&format!("{prefix}[]"), item, &mut row);
                for line in row {
                    if !out.contains(&line) {
                        out.push(line);
                    }
                }
            }
            return;
        }
        Json::Num(_) => "number",
        Json::Bool(_) => "bool",
        Json::Str(_) => "string",
        Json::Null => "null",
    };
    out.push(format!("{prefix} {kind}"));
}

/// `family type` for every `# TYPE` header, in order.
fn families(prom: &str) -> Vec<String> {
    prom.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(str::to_string)
        .collect()
}

fn section(title: &str, stats_line: &str, prom: &str) -> String {
    let stats = Json::parse(stats_line)
        .unwrap()
        .get("stats")
        .cloned()
        .expect("stats envelope");
    let mut lines = Vec::new();
    leaves("", &stats, &mut lines);
    let mut out = format!("# {title} stats\n");
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out.push_str(&format!("# {title} prometheus\n"));
    for f in families(prom) {
        out.push_str(&f);
        out.push('\n');
    }
    out
}

/// A gateway's stats carry one `transport` section, and it is the
/// gateway's own front door: the client's v0 session, not the shards'
/// v1 hop sessions (those stay on each shard's own stats).
#[test]
fn a_gateway_reports_one_transport_its_own_front_door() {
    let (shard, shard_handle) = serve(Arc::new(Server::with_threads(1)));
    let gw = Arc::new(GatewayConfig::new([shard.clone()]).build());
    let (gw_addr, gw_handle) = serve(Arc::clone(&gw));
    let line = stats_line(&gw_addr);
    assert_eq!(line.matches(r#""transport":"#).count(), 1, "{line}");
    let stats = Json::parse(&line).unwrap();
    let t = stats.get("stats").and_then(|s| s.get("transport")).unwrap();
    let count = |k: &str| t.get(k).and_then(Json::as_u64);
    assert_eq!(count("sessions_v0"), Some(1), "{t:?}");
    assert_eq!(count("sessions_v1"), Some(0), "{t:?}");
    assert_eq!(count("frames_in"), Some(0), "the client spoke v0: {t:?}");
    shutdown(&gw_addr, gw_handle);
    drop(gw);
    shutdown(&shard, shard_handle);
}

#[test]
fn stats_shape_matches_the_golden() {
    let server = Arc::new(Server::with_threads(1));
    let (addr, handle) = serve(Arc::clone(&server));
    let line = stats_line(&addr);
    let prom = dahlia_obs::prom::render(&server.snapshot());
    let mut text = section("server", &line, &prom);
    shutdown(&addr, handle);

    let shards: Vec<_> = (0..2)
        .map(|_| serve(Arc::new(Server::with_threads(1))))
        .collect();
    let gw = Arc::new(GatewayConfig::new(shards.iter().map(|(a, _)| a.clone())).build());
    let (gw_addr, gw_handle) = serve(Arc::clone(&gw));
    let line = stats_line(&gw_addr);
    let prom = dahlia_obs::prom::render(&gw.snapshot());
    text.push_str(&section("gateway", &line, &prom));
    shutdown(&gw_addr, gw_handle);
    drop(gw);
    for (a, h) in shards {
        shutdown(&a, h);
    }

    if std::env::var_os("DAHLIA_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file");
    assert_eq!(text, golden, "stats shape drifted from {GOLDEN}");
}
