//! The out-of-order correlation golden test: in a pipelined session a
//! fast (cached) request's response overtakes an earlier slow compile,
//! and the id correlates each response to its request. The classic
//! in-order mode is pinned alongside as the contrast.

use std::time::Duration;

use dahlia_server::json::Json;
use dahlia_server::{Request, ServerConfig};

// Single-line sources: the session embeds them in JSON verbatim, so the
// warmed source and the wire source must digest identically.
const FAST: &str = "let A: float[8 bank 4]; for (let i = 0..8) unroll 4 { A[i] := 1.0; }";
const SLOW: &str = "let Z: float[32 bank 8]; for (let i = 0..32) unroll 8 { Z[i] := 3.0; }";

/// A server whose every computed stage sleeps 150 ms, with FAST already
/// cached: FAST requests are instant, SLOW costs 4 × 150 ms.
fn delayed_server() -> dahlia_server::Server {
    let server = ServerConfig::new()
        .threads(4)
        .compute_delay(Duration::from_millis(150))
        .build()
        .unwrap();
    let warm = server.submit(Request::estimate("warm", FAST));
    assert!(warm.ok());
    server
}

fn session_input() -> String {
    let slow = format!(r#"{{"id":"slow","stage":"est","source":"{}"}}"#, SLOW);
    let fasts: Vec<String> = (1..=3)
        .map(|i| format!(r#"{{"id":"fast{i}","stage":"est","source":"{}"}}"#, FAST))
        .collect();
    format!("{slow}\n{}\n", fasts.join("\n"))
}

fn response_ids(output: &[u8]) -> Vec<(String, bool)> {
    String::from_utf8(output.to_vec())
        .unwrap()
        .lines()
        .map(|line| {
            let v = Json::parse(line).expect("response line parses");
            assert_eq!(
                v.get("stage").and_then(Json::as_str),
                Some("est"),
                "correlation carries the stage: {line}"
            );
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
            (
                v.get("id").and_then(Json::as_str).unwrap().to_string(),
                v.get("cached").and_then(Json::as_bool).unwrap(),
            )
        })
        .collect()
}

#[test]
fn pipelined_fast_responses_overtake_an_earlier_slow_compile() {
    let server = delayed_server();
    let mut out: Vec<u8> = Vec::new();
    let summary = server
        .serve_pipelined(session_input().as_bytes(), &mut out)
        .expect("session");
    assert_eq!(summary.lines, 4);
    assert_eq!(summary.protocol_errors, 0);

    let ids = response_ids(&out);
    assert_eq!(ids.len(), 4);
    // THE acceptance claim: the slow request was submitted first but is
    // answered last; the three cached requests overtook it.
    assert_eq!(ids[3].0, "slow", "slow response must come last: {ids:?}");
    assert!(!ids[3].1, "slow was computed, not cached");
    for (id, cached) in &ids[..3] {
        assert!(id.starts_with("fast"), "fast responses first: {ids:?}");
        assert!(*cached, "fast responses came from cache");
    }
    // All three fast ids are present exactly once (correlation, not
    // duplication).
    let mut fast_ids: Vec<&str> = ids[..3].iter().map(|(id, _)| id.as_str()).collect();
    fast_ids.sort_unstable();
    assert_eq!(fast_ids, ["fast1", "fast2", "fast3"]);
}

#[test]
fn classic_serve_answers_strictly_in_order() {
    // The contrast pin: the same session through `serve` convoys behind
    // the slow compile.
    let server = delayed_server();
    let mut out: Vec<u8> = Vec::new();
    server
        .serve(session_input().as_bytes(), &mut out)
        .expect("session");
    let ids = response_ids(&out);
    assert_eq!(ids[0].0, "slow", "in-order mode answers the slow one first");
    assert_eq!(ids[3].0, "fast3");
}

#[test]
fn pipelined_shutdown_op_acks_and_ends_the_session() {
    let server = delayed_server();
    let input = format!(
        "{}\n{{\"op\":\"shutdown\"}}\n{{\"id\":\"late\",\"stage\":\"est\",\"source\":\"{}\"}}\n",
        format_args!(r#"{{"id":"f","stage":"est","source":"{}"}}"#, FAST),
        FAST,
    );
    let mut out: Vec<u8> = Vec::new();
    let summary = server
        .serve_pipelined(input.as_bytes(), &mut out)
        .expect("session");
    // The request before shutdown is answered; the one after is never read.
    assert_eq!(summary.lines, 2);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains(r#""id":"f""#), "{text}");
    assert!(text.contains(r#""op":"shutdown""#), "{text}");
    assert!(!text.contains(r#""id":"late""#), "{text}");
}

#[test]
fn a_memory_hit_answered_on_the_reactor_overtakes_a_miss_in_the_pool() {
    // One worker, every compute 300 ms: a miss occupies the whole pool.
    // A warm key is answered on the reactor thread, so it does not
    // queue behind the miss sent before it on the same connection.
    let server = dahlia_server::Server::with_compute_delay(1, Duration::from_millis(300));
    let warm = dahlia_server::Stage::Check;
    assert!(server
        .submit(Request::new("warm", warm, FAST, "kernel"))
        .ok());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = std::sync::Arc::new(server);
    let handle = std::thread::spawn(move || {
        dahlia_server::serve_listener(server, listener).expect("serve_listener")
    });
    let mut client = dahlia_server::Client::connect(addr).expect("connect");
    client
        .send_line(&format!(
            r#"{{"id":"cold","stage":"check","source":"{SLOW}"}}"#
        ))
        .unwrap();
    client
        .send_line(&format!(
            r#"{{"id":"warm","stage":"check","source":"{FAST}"}}"#
        ))
        .unwrap();
    let mut answers = Vec::new();
    for _ in 0..2 {
        let line = client.recv_line().unwrap().expect("a response");
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        answers.push((
            v.get("id").and_then(Json::as_str).unwrap().to_string(),
            v.get("cached").and_then(Json::as_bool).unwrap(),
        ));
    }
    assert_eq!(
        answers,
        [("warm".to_string(), true), ("cold".to_string(), false)],
        "the warm key overtakes the cold one"
    );
    client.shutdown_server().unwrap().expect("shutdown ack");
    drop(client);
    handle.join().unwrap();
}
