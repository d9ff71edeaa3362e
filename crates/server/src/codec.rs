//! (De)serialization of cache values for the on-disk artifact tier.
//!
//! The wire protocol only ever *emits* artifacts; the disk tier also has
//! to read them back, so this module defines a self-contained JSON codec
//! for the values it persists (see [`crate::disk::persists`]):
//!
//! * `check` — the [`CheckReport`] counters;
//! * `cpp` — the emitted C++ text;
//! * `est` — the [`Estimate`];
//! * `err` — a structured [`Diagnostic`] (rejections are deterministic
//!   and cached exactly like successes).
//!
//! Each is the whole artifact its wire payload carries. Parsed and
//! desugared ASTs and lowered IR have no encoding: they live in the
//! memory tier only, and a fresh process recomputes them from source.
//!
//! Robustness contract: [`decode`] never panics on malformed input; any
//! structural surprise yields `None`, which the disk tier treats as a
//! corrupt entry and falls back to recomputing.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use dahlia_core::diag::{Diagnostic, Phase};
use dahlia_core::{CheckReport, Span};
use hls_sim::Estimate;

use crate::json::{obj, Json};
use crate::pipeline::Artifact;
use crate::store::CacheValue;

/// Encode a cache value for persistence; `None` for the memory-only
/// kinds (ASTs and IR).
pub fn encode(value: &CacheValue) -> Option<Json> {
    match value {
        Ok(Artifact::Ast(_) | Artifact::Desugared(_) | Artifact::Ir(_)) => None,
        Ok(Artifact::Check(r)) => Some(obj([("check", check_to_json(r))])),
        Ok(Artifact::Cpp(text)) => Some(obj([("cpp", Json::Str((**text).clone()))])),
        Ok(Artifact::Estimate(e)) => Some(obj([("est", estimate_to_json(e))])),
        Err(d) => Some(obj([("err", diag_to_json(d))])),
    }
}

/// Encode a cache value into the compact binary envelope shared with
/// the v1 wire format: the [`encode`] JSON tree serialized through
/// [`crate::wire::to_bytes`]. One encoding, two consumers — the disk
/// tier persists exactly the bytes a v1 artifact frame would carry.
pub fn encode_bin(value: &CacheValue) -> Option<Vec<u8>> {
    encode(value).map(|j| crate::wire::to_bytes(&j))
}

/// Decode a binary envelope written by [`encode_bin`]. `None` on any
/// corruption — truncated or bit-flipped bytes decode to `None`, never
/// a panic, and the disk tier recomputes.
pub fn decode_bin(bytes: &[u8]) -> Option<CacheValue> {
    decode(&crate::wire::from_bytes(bytes)?)
}

/// Decode a persisted cache value. `None` on any structural mismatch,
/// including the `ast`, `desugared` and `ir` envelopes older binaries
/// wrote.
pub fn decode(v: &Json) -> Option<CacheValue> {
    if let Some(r) = v.get("check") {
        return Some(Ok(Artifact::Check(Arc::new(check_from_json(r)?))));
    }
    if let Some(text) = v.get("cpp") {
        return Some(Ok(Artifact::Cpp(Arc::new(text.as_str()?.to_string()))));
    }
    if let Some(e) = v.get("est") {
        return Some(Ok(Artifact::Estimate(Arc::new(estimate_from_json(e)?))));
    }
    if let Some(d) = v.get("err") {
        return Some(Err(diag_from_json(d)?));
    }
    None
}

// ------------------------------------------------------------- reports

/// A check report as JSON: the wire payload and the disk encoding alike.
pub(crate) fn check_to_json(r: &CheckReport) -> Json {
    obj([
        ("memories", Json::Num(r.memories as f64)),
        ("views", Json::Num(r.views as f64)),
        ("accesses", Json::Num(r.accesses as f64)),
        ("functions", Json::Num(r.functions as f64)),
        ("max_unroll", Json::Num(r.max_unroll as f64)),
    ])
}

fn check_from_json(v: &Json) -> Option<CheckReport> {
    Some(CheckReport {
        memories: v.get("memories")?.as_u64()? as usize,
        views: v.get("views")?.as_u64()? as usize,
        accesses: v.get("accesses")?.as_u64()? as usize,
        functions: v.get("functions")?.as_u64()? as usize,
        max_unroll: v.get("max_unroll")?.as_u64()?,
    })
}

/// An estimate as JSON: the wire payload and the disk encoding alike.
pub(crate) fn estimate_to_json(e: &Estimate) -> Json {
    obj([
        ("name", Json::Str(e.name.clone())),
        ("cycles", Json::Num(e.cycles as f64)),
        ("luts", Json::Num(e.luts as f64)),
        ("ffs", Json::Num(e.ffs as f64)),
        ("dsps", Json::Num(e.dsps as f64)),
        ("brams", Json::Num(e.brams as f64)),
        ("lut_mems", Json::Num(e.lut_mems as f64)),
        ("correct", Json::Bool(e.correct)),
        (
            "notes",
            Json::Arr(e.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ])
}

fn estimate_from_json(v: &Json) -> Option<Estimate> {
    let notes = match v.get("notes")? {
        Json::Arr(items) => items
            .iter()
            .map(|n| n.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(Estimate {
        name: v.get("name")?.as_str()?.to_string(),
        cycles: v.get("cycles")?.as_u64()?,
        luts: v.get("luts")?.as_u64()?,
        ffs: v.get("ffs")?.as_u64()?,
        dsps: v.get("dsps")?.as_u64()?,
        brams: v.get("brams")?.as_u64()?,
        lut_mems: v.get("lut_mems")?.as_u64()?,
        correct: v.get("correct")?.as_bool()?,
        notes,
    })
}

// --------------------------------------------------------- diagnostics

/// Diagnostic codes are `&'static str` in [`Diagnostic`]; decoding one
/// from disk needs a `'static` string. Codes form a small closed set, so
/// re-reading known codes costs nothing; a code minted by a *newer*
/// binary than ours is leaked once and deduplicated forever after
/// (bounded by the number of distinct codes ever persisted, and guarded
/// upstream by the entry checksum).
fn intern_code(code: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "lex/invalid",
        "parse/invalid",
        "interp/runtime",
        "internal/panic",
        "protocol/bad-request",
        "type/unbound",
        "type/already-defined",
        "type/mismatch",
        "type/memory-copy",
        "type/already-consumed",
        "type/insufficient-banks",
        "type/unroll-bank-mismatch",
        "type/write-conflict",
        "type/invalid-index",
        "type/bad-access",
        "type/uneven-banking",
        "type/bad-view",
        "type/loop-dependency",
        "type/uneven-unroll",
        "type/bad-combine",
        "type/bad-call",
        "type/size-budget",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == code) {
        return k;
    }
    static LEAKED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut leaked = LEAKED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap();
    if let Some(k) = leaked.get(code) {
        return k;
    }
    let k: &'static str = Box::leak(code.to_string().into_boxed_str());
    leaked.insert(k);
    k
}

fn phase_from_name(name: &str) -> Option<Phase> {
    [
        Phase::Lex,
        Phase::Parse,
        Phase::Check,
        Phase::Interp,
        Phase::Internal,
    ]
    .into_iter()
    .find(|p| p.name() == name)
}

fn diag_to_json(d: &Diagnostic) -> Json {
    obj([
        ("phase", Json::Str(d.phase.name().into())),
        ("code", Json::Str(d.code.into())),
        ("message", Json::Str(d.message.clone())),
        ("start", Json::Num(d.span.start as f64)),
        ("end", Json::Num(d.span.end as f64)),
        ("line", Json::Num(d.span.line as f64)),
        ("col", Json::Num(d.span.col as f64)),
    ])
}

fn diag_from_json(v: &Json) -> Option<Diagnostic> {
    Some(Diagnostic {
        phase: phase_from_name(v.get("phase")?.as_str()?)?,
        code: intern_code(v.get("code")?.as_str()?),
        message: v.get("message")?.as_str()?.to_string(),
        span: Span::new(
            v.get("start")?.as_u64()? as usize,
            v.get("end")?.as_u64()? as usize,
            v.get("line")?.as_u64()? as u32,
            v.get("col")?.as_u64()? as u32,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Options, Pipeline, Stage};

    const GOOD: &str = "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";

    fn roundtrip(v: &CacheValue) -> CacheValue {
        let encoded = encode(v).expect("persistable").emit();
        decode(&Json::parse(&encoded).unwrap()).expect("decodes")
    }

    #[test]
    fn every_stage_roundtrips() {
        let p = Pipeline::new();
        let opts = Options::named("k");
        for stage in Stage::ALL {
            let (v, _) = p.artifact(GOOD, stage, &opts);
            if !crate::disk::persists(stage) {
                assert!(encode(&v).is_none(), "stage {stage:?} is memory-only");
                continue;
            }
            let back = roundtrip(&v);
            match (v.unwrap(), back.unwrap()) {
                (Artifact::Check(a), Artifact::Check(b)) => assert_eq!(*a, *b),
                (Artifact::Cpp(a), Artifact::Cpp(b)) => assert_eq!(*a, *b),
                (Artifact::Estimate(a), Artifact::Estimate(b)) => assert_eq!(*a, *b),
                (a, b) => panic!("stage {stage:?} changed shape: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn diagnostics_roundtrip_with_interned_codes() {
        let d = dahlia_core::parse("let = oops").unwrap_err().diagnostic();
        let back = roundtrip(&Err(d.clone()));
        let bd = back.unwrap_err();
        assert_eq!(bd, d);
        // The decoded code is the canonical static string, not a leak.
        assert!(std::ptr::eq(
            bd.code.as_ptr(),
            intern_code(bd.code).as_ptr()
        ));
    }

    #[test]
    fn unknown_codes_intern_to_one_leak() {
        let a = intern_code("type/from-the-future");
        let b = intern_code("type/from-the-future");
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        for bad in [
            "{}",
            r#"{"cpp":7}"#,
            r#"{"ast":{}}"#,
            r#"{"ast":7}"#,
            r#"{"desugared":{"decls":[],"defs":[],"body":{"seq":[7]}}}"#,
            r#"{"est":{"name":"k"}}"#,
            r#"{"ir":{"name":"k","clock_mhz":250,"pipeline":true,"arrays":[{}],"body":[]}}"#,
            r#"{"err":{"phase":"nope","code":"x","message":"m","start":0,"end":0,"line":0,"col":0}}"#,
            r#"{"ir":{"name":"k","clock_mhz":250,"pipeline":true,"arrays":[],"body":[{"op":{"kind":"warp","reads":[],"writes":[]}}]}}"#,
            // Well-formed envelopes of the kinds no longer persisted.
            r#"{"ast":{"decls":[],"defs":[],"body":{"seq":[]}}}"#,
            r#"{"ir":{"name":"k","clock_mhz":250,"pipeline":true,"arrays":[],"body":[]}}"#,
        ] {
            assert!(decode(&Json::parse(bad).unwrap()).is_none(), "{bad}");
        }
    }
}
