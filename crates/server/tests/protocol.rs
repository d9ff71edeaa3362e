//! Golden tests for the JSON-lines protocol shape.
//!
//! The response format is a public contract (the CLI, the DSE provider,
//! and any remote client parse it), so these tests pin exact key order
//! and the full value of every deterministic field. The only
//! nondeterministic field, `latency_us`, is normalized to 0 before
//! comparison.

use dahlia_server::json::Json;
use dahlia_server::Server;

const GOOD: &str = "let A: float[8 bank 8]; for (let i = 0..8) unroll 8 { A[i] := 2.0; }";
const ILL_TYPED: &str = "let A: float[8]; for (let i = 0..8) unroll 4 { A[i] := 1.0; }";

/// Run a protocol session and return normalized response lines.
fn serve(input: &str) -> Vec<String> {
    let server = Server::with_threads(2);
    let mut out = Vec::new();
    server.serve(input.as_bytes(), &mut out).expect("serve");
    String::from_utf8(out)
        .expect("utf-8 output")
        .lines()
        .map(normalize)
        .collect()
}

/// Zero out `latency_us` (the only nondeterministic field).
fn normalize(line: &str) -> String {
    let mut v = Json::parse(line).expect("response line parses");
    if let Json::Obj(fields) = &mut v {
        for (k, val) in fields.iter_mut() {
            if k == "latency_us" {
                *val = Json::Num(0.0);
            }
        }
    }
    v.emit()
}

#[test]
fn golden_estimate_response() {
    let input = format!(r#"{{"id":"e1","stage":"est","name":"scale","source":"{GOOD}"}}"#);
    let lines = serve(&input);
    assert_eq!(
        lines,
        vec![concat!(
            r#"{"id":"e1","stage":"est","ok":true,"cached":false,"latency_us":0,"#,
            r#""estimate":{"name":"scale","cycles":5,"luts":237,"ffs":334,"dsps":0,"#,
            r#""brams":0,"lut_mems":8,"correct":true,"notes":[]}}"#
        )
        .to_string()]
    );
}

#[test]
fn golden_check_and_error_responses() {
    let input = format!(
        "{}\n{}\n",
        format_args!(r#"{{"id":"c1","stage":"check","source":"{GOOD}"}}"#),
        format_args!(r#"{{"id":"c2","stage":"check","source":"{ILL_TYPED}"}}"#),
    );
    let lines = serve(&input);
    assert_eq!(lines.len(), 2);
    assert_eq!(
        lines[0],
        concat!(
            r#"{"id":"c1","stage":"check","ok":true,"cached":false,"latency_us":0,"#,
            r#""report":{"memories":1,"views":0,"accesses":1,"functions":0,"max_unroll":8}}"#
        )
    );
    // The error payload carries the structured diagnostic.
    let err = Json::parse(&lines[1]).unwrap();
    assert_eq!(
        err.keys(),
        vec!["id", "stage", "ok", "cached", "latency_us", "error"]
    );
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    let diag = err.get("error").unwrap();
    assert_eq!(diag.keys(), vec!["phase", "code", "message", "line", "col"]);
    assert_eq!(diag.get("phase").and_then(Json::as_str), Some("check"));
    assert_eq!(
        diag.get("code").and_then(Json::as_str),
        Some("type/insufficient-banks")
    );
}

#[test]
fn golden_parse_error_response() {
    let lines = serve(r#"{"id":"p1","stage":"parse","source":"let = oops"}"#);
    let err = Json::parse(&lines[0]).unwrap();
    let diag = err.get("error").unwrap();
    assert_eq!(diag.get("phase").and_then(Json::as_str), Some("parse"));
    assert_eq!(
        diag.get("code").and_then(Json::as_str),
        Some("parse/invalid")
    );
}

#[test]
fn cached_flag_flips_on_the_second_identical_request() {
    let input = format!(
        "{}\n{}\n",
        format_args!(r#"{{"id":"a","stage":"est","source":"{GOOD}"}}"#),
        format_args!(r#"{{"id":"b","stage":"est","source":"{GOOD}"}}"#),
    );
    let lines = serve(&input);
    let a = Json::parse(&lines[0]).unwrap();
    let b = Json::parse(&lines[1]).unwrap();
    assert_eq!(a.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(b.get("cached").and_then(Json::as_bool), Some(true));
    // Same payload either way.
    assert_eq!(a.get("estimate"), b.get("estimate"));
}

#[test]
fn stats_line_and_protocol_errors() {
    let input = format!(
        "not json at all\n\n{}\n{{\"op\":\"stats\"}}\n",
        format_args!(r#"{{"id":"s1","stage":"check","source":"{GOOD}"}}"#),
    );
    let lines = serve(&input);
    assert_eq!(lines.len(), 3);
    // 1: protocol error for the junk line.
    let err = Json::parse(&lines[0]).unwrap();
    assert_eq!(err.keys(), vec!["id", "ok", "error"]);
    assert_eq!(err.get("id"), Some(&Json::Null));
    let diag = err.get("error").unwrap();
    assert_eq!(diag.get("phase").and_then(Json::as_str), Some("protocol"));
    assert_eq!(
        diag.get("code").and_then(Json::as_str),
        Some("protocol/bad-request")
    );
    // 2: the real response (blank line was skipped silently).
    assert_eq!(
        Json::parse(&lines[1])
            .unwrap()
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    // 3: the stats object, with pinned shape.
    let stats = Json::parse(&lines[2]).unwrap();
    let s = stats.get("stats").expect("stats envelope");
    assert_eq!(
        s.keys(),
        vec![
            "requests",
            "latency_us",
            "hits",
            "misses",
            "joins",
            "joins_by_stage",
            "executions",
            "propagated",
            "compute_nanos",
            "intern",
            "evict",
            "disk",
            "hist",
            "window",
            "journals"
        ]
    );
    assert_eq!(s.get("requests").and_then(Json::as_u64), Some(1));
    // The hist section carries distributions beside the flat sums:
    // request latency, pool queue wait, per-stage compute cost.
    let hist = s.get("hist").unwrap();
    assert_eq!(hist.keys(), vec!["latency_us", "queue_us", "compute_us"]);
    let lat = hist.get("latency_us").unwrap();
    assert_eq!(
        lat.keys(),
        vec!["count", "sum", "p50", "p95", "p99", "buckets"]
    );
    assert_eq!(lat.get("count").and_then(Json::as_u64), Some(1));
    assert_eq!(
        hist.get("compute_us")
            .unwrap()
            .get("parse")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(1)
    );
    let stage_keys = vec!["parse", "check", "desugar", "lower", "cpp", "est"];
    let ex = s.get("executions").unwrap();
    assert_eq!(ex.keys(), stage_keys);
    assert_eq!(ex.get("parse").and_then(Json::as_u64), Some(1));
    assert_eq!(ex.get("cpp").and_then(Json::as_u64), Some(0));
    // Rejections passed on from an earlier stage are counted apart from
    // executions, per stage.
    let propagated = s.get("propagated").unwrap();
    assert_eq!(propagated.keys(), stage_keys);
    // Per-stage join accounting is part of the contract (eviction
    // tuning reads it), even when everything here is zero.
    let joins = s.get("joins_by_stage").unwrap();
    assert_eq!(joins.keys(), stage_keys);
    assert_eq!(joins.get("check").and_then(Json::as_u64), Some(0));
    // Wall-time counters: the computed stage accrued time, the
    // never-run stage did not.
    let nanos = s.get("compute_nanos").unwrap();
    assert_eq!(nanos.keys(), stage_keys);
    assert!(nanos.get("parse").and_then(Json::as_u64) > Some(0));
    assert_eq!(nanos.get("cpp").and_then(Json::as_u64), Some(0));
    // The intern table holds at least this session's identifiers.
    let intern = s.get("intern").unwrap();
    assert_eq!(intern.keys(), vec!["symbols", "bytes"]);
    assert!(intern.get("symbols").and_then(Json::as_u64) > Some(0));
    let evict = s.get("evict").unwrap();
    assert_eq!(
        evict.keys(),
        vec![
            "evictions",
            "evicted_bytes",
            "resident_entries",
            "resident_bytes"
        ]
    );
    assert_eq!(evict.get("evictions").and_then(Json::as_u64), Some(0));
    assert!(evict.get("resident_bytes").and_then(Json::as_u64).unwrap() > 0);
    let disk = s.get("disk").unwrap();
    assert_eq!(
        disk.keys(),
        vec![
            "hits",
            "misses",
            "corrupt",
            "writes",
            "write_errors",
            "pruned_files",
            "pruned_bytes"
        ]
    );
    assert_eq!(
        disk.get("hits").and_then(Json::as_u64),
        Some(0),
        "stdio serve has no disk tier"
    );
}

#[test]
fn requests_without_ids_get_sequenced_ids() {
    let input = format!(r#"{{"stage":"check","source":"{GOOD}"}}"#);
    let lines = serve(&input);
    let v = Json::parse(&lines[0]).unwrap();
    assert_eq!(v.get("id").and_then(Json::as_str), Some("req-0"));
}
