//! Golden tests for `docs/PROTOCOL.md` and `docs/OBSERVABILITY.md`:
//! the specs' JSON examples are extracted and checked against the real
//! codec, so the documents cannot drift from the implementation.
//!
//! Conventions (documented in the specs themselves):
//!
//! * every fenced ```` ```jsonl ```` block is an example; lines are
//!   prefixed `C: ` (client→server), `S: ` (server→client), or `C! `
//!   (deliberately malformed client input);
//! * every `C:`/`S:` line must parse as JSON and be in the codec's
//!   canonical compact form (`Json::parse(line).emit() == line`);
//! * every `C:` compile request must round-trip through the real
//!   [`Request`] codec byte-for-byte;
//! * the block tagged `golden-session` is replayed against a real
//!   in-process [`Server`] in strict stdio mode and compared
//!   response-for-response, with only `latency_us` normalized;
//! * every fenced ```` ```prometheus ```` block must be valid text
//!   exposition (checked with the [`dahlia_obs::prom`] validators).

use dahlia_server::json::Json;
use dahlia_server::{Request, Server};

const SPEC: &str = include_str!("../docs/PROTOCOL.md");
const OBS_SPEC: &str = include_str!("../docs/OBSERVABILITY.md");

/// One extracted example block: its fence info string and its lines.
struct Block {
    info: String,
    lines: Vec<(Prefix, String)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Prefix {
    Client,
    Server,
    ClientRaw,
}

/// The jsonl blocks from both documents: PROTOCOL.md first, then
/// OBSERVABILITY.md. Every convention test runs over the union.
fn extract_blocks() -> Vec<Block> {
    let protocol = extract_blocks_from("PROTOCOL.md", SPEC);
    assert!(
        protocol.len() >= 6,
        "expected PROTOCOL.md's example blocks, found {}",
        protocol.len()
    );
    let obs = extract_blocks_from("OBSERVABILITY.md", OBS_SPEC);
    assert!(
        obs.len() >= 2,
        "expected OBSERVABILITY.md's example blocks, found {}",
        obs.len()
    );
    protocol.into_iter().chain(obs).collect()
}

fn extract_blocks_from(doc: &str, spec: &str) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut current: Option<Block> = None;
    for line in spec.lines() {
        if let Some(info) = line.strip_prefix("```") {
            match current.take() {
                Some(block) => blocks.push(block),
                None if info.trim_start().starts_with("jsonl") => {
                    current = Some(Block {
                        info: info.trim().to_string(),
                        lines: Vec::new(),
                    });
                }
                None => {
                    // A non-jsonl fence opens: skip until it closes.
                    current = Some(Block {
                        info: String::new(),
                        lines: Vec::new(),
                    });
                }
            }
            continue;
        }
        if let Some(block) = &mut current {
            if block.info.is_empty() {
                continue; // inside a non-jsonl fence
            }
            let (prefix, rest) = if let Some(rest) = line.strip_prefix("C: ") {
                (Prefix::Client, rest)
            } else if let Some(rest) = line.strip_prefix("S: ") {
                (Prefix::Server, rest)
            } else if let Some(rest) = line.strip_prefix("C! ") {
                (Prefix::ClientRaw, rest)
            } else {
                panic!("unprefixed line in a jsonl block of {doc}: `{line}`");
            };
            block.lines.push((prefix, rest.to_string()));
        }
    }
    assert!(current.is_none(), "unclosed fence in {doc}");
    blocks.retain(|b| !b.info.is_empty());
    blocks
}

/// Set a top-level `latency_us` field to 0 and re-emit — the only
/// nondeterministic field in a replayed session.
fn normalize(line: &str) -> String {
    let mut v = Json::parse(line).unwrap_or_else(|e| panic!("unparseable line `{line}`: {e}"));
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
fn every_example_is_canonical_json() {
    for block in extract_blocks() {
        for (prefix, line) in &block.lines {
            if *prefix == Prefix::ClientRaw {
                continue;
            }
            let v = Json::parse(line)
                .unwrap_or_else(|e| panic!("spec example fails to parse: `{line}`: {e}"));
            assert_eq!(
                v.emit(),
                *line,
                "spec example is not in the codec's canonical compact form"
            );
        }
    }
}

#[test]
fn compile_request_examples_roundtrip_through_the_request_codec() {
    let mut seen = 0;
    for block in extract_blocks() {
        for (prefix, line) in &block.lines {
            if *prefix != Prefix::Client {
                continue;
            }
            let v = Json::parse(line).expect("checked canonical");
            if v.get("op").is_some() {
                continue;
            }
            let req = Request::from_line(line, 0)
                .unwrap_or_else(|e| panic!("spec request rejected by the codec: `{line}`: {e}"));
            assert_eq!(
                req.to_line(),
                *line,
                "spec request does not round-trip byte-for-byte"
            );
            seen += 1;
        }
    }
    assert!(seen >= 4, "expected several compile-request examples");
}

#[test]
fn control_op_examples_use_known_ops_and_well_typed_fields() {
    let mut ops = Vec::new();
    for block in extract_blocks() {
        for (prefix, line) in &block.lines {
            if *prefix != Prefix::Client {
                continue;
            }
            let v = Json::parse(line).expect("checked canonical");
            let Some(op) = v.get("op").and_then(Json::as_str) else {
                continue;
            };
            assert!(
                matches!(
                    op,
                    "hello"
                        | "stats"
                        | "trace"
                        | "slowlog"
                        | "history"
                        | "alerts"
                        | "shutdown"
                        | "drain"
                        | "undrain"
                        | "sweep"
                ),
                "spec documents unknown op `{op}`"
            );
            if let Some(mv) = v.get("max_version") {
                assert_eq!(op, "hello", "only hello takes max_version: `{line}`");
                assert!(
                    matches!(mv, Json::Num(n) if *n >= 1.0 && n.fract() == 0.0),
                    "max_version must be a positive integer: `{line}`"
                );
            }
            if let Some(s) = v.get("since") {
                assert!(
                    matches!(op, "slowlog" | "history" | "alerts"),
                    "only slowlog/history/alerts take a cursor: `{line}`"
                );
                assert!(
                    matches!(s, Json::Num(n) if *n >= 0.0 && n.fract() == 0.0),
                    "since must be a non-negative integer: `{line}`"
                );
            }
            if op == "history" {
                assert!(
                    matches!(v.get("series"), Some(Json::Str(s)) if !s.is_empty()),
                    "history op example lacks a series path: `{line}`"
                );
            } else {
                assert!(
                    v.get("series").is_none(),
                    "only history takes a series: `{line}`"
                );
            }
            if let Some(s) = v.get("step") {
                assert_eq!(op, "history", "only history takes a step: `{line}`");
                assert!(
                    matches!(s, Json::Num(n) if *n >= 0.0 && n.fract() == 0.0),
                    "step must be a non-negative integer: `{line}`"
                );
            }
            if matches!(op, "drain" | "undrain") {
                assert!(
                    matches!(v.get("shard"), Some(Json::Str(s)) if !s.is_empty()),
                    "admin op example lacks a shard address: `{line}`"
                );
            }
            if let Some(w) = v.get("weight") {
                assert_eq!(op, "undrain", "only undrain takes a weight");
                assert!(
                    matches!(w, Json::Num(n) if *n > 0.0),
                    "weight must be a positive number: `{line}`"
                );
            }
            if op == "sweep" {
                assert!(
                    matches!(v.get("template"), Some(Json::Str(s)) if !s.is_empty()),
                    "sweep op example lacks a template: `{line}`"
                );
                let Some(Json::Obj(params)) = v.get("params") else {
                    panic!("sweep op example lacks a params object: `{line}`");
                };
                assert!(
                    !params.is_empty(),
                    "sweep params must not be empty: `{line}`"
                );
                for (name, values) in params {
                    let Json::Arr(items) = values else {
                        panic!("sweep parameter `{name}` must map to an array: `{line}`");
                    };
                    assert!(
                        items.iter().all(|i| i.as_u64().is_some()),
                        "sweep parameter `{name}` values must be non-negative integers: `{line}`"
                    );
                }
            } else {
                for field in [
                    "template",
                    "params",
                    "stride",
                    "resume",
                    "prune",
                    "update_every",
                ] {
                    assert!(
                        v.get(field).is_none(),
                        "only sweep takes `{field}`: `{line}`"
                    );
                }
            }
            ops.push(op.to_string());
        }
    }
    for required in [
        "hello", "stats", "trace", "slowlog", "history", "alerts", "shutdown", "drain", "undrain",
        "sweep",
    ] {
        assert!(
            ops.iter().any(|o| o == required),
            "spec has no example for op `{required}`"
        );
    }
}

#[test]
fn response_examples_pin_the_field_order() {
    // Compile responses must lead with id, stage, ok, cached,
    // latency_us — the order the protocol freezes.
    let mut seen = 0;
    for block in extract_blocks() {
        for (prefix, line) in &block.lines {
            if *prefix != Prefix::Server {
                continue;
            }
            let v = Json::parse(line).expect("checked canonical");
            if v.get("stage").is_none() {
                continue;
            }
            let keys = v.keys();
            assert_eq!(
                &keys[..5],
                &["id", "stage", "ok", "cached", "latency_us"],
                "response example field order drifted: `{line}`"
            );
            seen += 1;
        }
    }
    assert!(seen >= 4, "expected several compile-response examples");
}

#[test]
fn sweep_examples_stream_progress_then_one_final_line() {
    // Every server line answering a sweep op must echo the op's id and
    // carry a boolean `done`; progress lines are ok:true with the
    // running counters, and the one done:true line either carries the
    // full summary (with its Pareto front in canonically sorted
    // objective order) or a structured §6c/§8 error.
    let mut finals = 0;
    for block in extract_blocks() {
        for (prefix, line) in &block.lines {
            if *prefix != Prefix::Server {
                continue;
            }
            let v = Json::parse(line).expect("checked canonical");
            let Some(done) = v.get("done").and_then(Json::as_bool) else {
                continue;
            };
            assert!(
                matches!(v.get("id"), Some(Json::Str(s)) if !s.is_empty()),
                "sweep line must echo the op id: `{line}`"
            );
            let ok = v.get("ok").and_then(Json::as_bool).expect("ok is a bool");
            if !done {
                assert!(ok, "progress lines are always ok:true: `{line}`");
            }
            if !ok {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("failed sweep lacks an error code: `{line}`"));
                assert!(
                    matches!(
                        code,
                        "sweep/invalid-spec" | "sweep/journal-failed" | "protocol/unsupported-op"
                    ),
                    "unknown sweep error code `{code}`: `{line}`"
                );
                finals += 1;
                continue;
            }
            let sweep = v.get("sweep").expect("ok sweep lines carry the envelope");
            for counter in ["points_total", "points_done", "points_skipped"] {
                assert!(
                    sweep.get(counter).and_then(Json::as_u64).is_some(),
                    "sweep line lacks `{counter}`: `{line}`"
                );
            }
            if done {
                finals += 1;
                let Some(Json::Arr(front)) = sweep.get("front") else {
                    panic!("final sweep line lacks the front: `{line}`");
                };
                let objectives: Vec<Vec<u64>> = front
                    .iter()
                    .map(|e| {
                        let Some(Json::Arr(os)) = e.get("objectives") else {
                            panic!("front entry lacks objectives: `{line}`");
                        };
                        os.iter()
                            .map(|o| o.as_u64().expect("integer objective"))
                            .collect()
                    })
                    .collect();
                let mut sorted = objectives.clone();
                sorted.sort();
                assert_eq!(
                    objectives, sorted,
                    "front must be emitted in canonical (sorted) order: `{line}`"
                );
            }
        }
    }
    assert!(
        finals >= 3,
        "expected final sweep summaries and error examples, found {finals}"
    );
}

#[test]
fn the_exposition_examples_are_valid_prometheus_text() {
    // ```prometheus fences in OBSERVABILITY.md must hold lines a real
    // scraper would accept: `# TYPE <name> <kind>` comments and
    // `name{labels} value` samples, names and labels validated by the
    // same code that writes the live endpoint's output.
    let mut samples = 0;
    let mut in_fence = false;
    for line in OBS_SPEC.lines() {
        if let Some(info) = line.strip_prefix("```") {
            in_fence = !in_fence && info.trim() == "prometheus";
            continue;
        }
        if !in_fence || line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# TYPE ") {
            let mut parts = comment.split_whitespace();
            let name = parts.next().expect("family name");
            assert!(
                dahlia_obs::prom::valid_metric_name(name),
                "bad family name in exposition example: `{line}`"
            );
            assert!(
                matches!(parts.next(), Some("gauge" | "counter" | "histogram")),
                "unknown family kind in exposition example: `{line}`"
            );
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample line");
        let name = name_part.split('{').next().unwrap();
        assert!(
            dahlia_obs::prom::valid_metric_name(name),
            "bad metric name in exposition example: `{line}`"
        );
        if let Some(labels) = name_part
            .strip_prefix(name)
            .filter(|labels| !labels.is_empty())
        {
            let inner = labels
                .strip_prefix('{')
                .and_then(|l| l.strip_suffix('}'))
                .unwrap_or_else(|| panic!("bad label block: `{line}`"));
            for pair in inner.split(',') {
                let (label, quoted) = pair.split_once('=').expect("label=\"value\"");
                assert!(
                    dahlia_obs::prom::valid_label_name(label),
                    "bad label name in exposition example: `{line}`"
                );
                assert!(
                    quoted.starts_with('"') && quoted.ends_with('"'),
                    "unquoted label value: `{line}`"
                );
            }
        }
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparsable sample value: `{line}`"));
        samples += 1;
    }
    assert!(!in_fence, "unclosed prometheus fence in OBSERVABILITY.md");
    assert!(samples >= 8, "expected a real exposition excerpt");
}

#[test]
fn the_worked_session_replays_byte_for_byte_against_a_real_server() {
    let blocks = extract_blocks();
    let session = blocks
        .iter()
        .find(|b| b.info.contains("golden-session"))
        .expect("PROTOCOL.md has a golden-session block");

    let input: String = session
        .lines
        .iter()
        .filter(|(p, _)| matches!(p, Prefix::Client | Prefix::ClientRaw))
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    let expected: Vec<String> = session
        .lines
        .iter()
        .filter(|(p, _)| *p == Prefix::Server)
        .map(|(_, l)| normalize(l))
        .collect();

    let server = Server::with_threads(1);
    let mut out: Vec<u8> = Vec::new();
    let summary = server
        .serve(std::io::Cursor::new(input.into_bytes()), &mut out)
        .expect("strict session runs");
    assert_eq!(summary.protocol_errors, 1, "the malformed line counts");

    let actual: Vec<String> = String::from_utf8(out)
        .expect("utf-8 output")
        .lines()
        .map(normalize)
        .collect();
    assert_eq!(
        actual.len(),
        expected.len(),
        "response count drifted from the spec"
    );
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "response {i} drifted from the spec");
    }
}
