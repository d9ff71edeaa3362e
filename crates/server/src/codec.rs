//! (De)serialization of cache values for the on-disk artifact tier.
//!
//! The wire protocol only ever *emits* artifacts; the disk tier also has
//! to read them back, so this module defines a self-contained JSON codec
//! for every persistable [`CacheValue`]:
//!
//! * `ast` / `desugared` — the full [`Program`](dahlia_core::Program) AST (see
//!   [`crate::ast_codec`]: identifiers stored as strings and re-interned
//!   on decode, spans preserved), so a fresh process over a warm cache
//!   directory serves **all six** stages from disk;
//! * `check` — the [`CheckReport`] counters;
//! * `cpp` — the emitted C++ text;
//! * `ir` — the full lowered [`Kernel`] (arrays, loop nest, ops);
//! * `est` — the [`Estimate`];
//! * `err` — a structured [`Diagnostic`] (rejections are deterministic
//!   and cached exactly like successes).
//!
//! Robustness contract: [`decode`] never panics on malformed input; any
//! structural surprise yields `None`, which the disk tier treats as a
//! corrupt entry and falls back to recomputing.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use dahlia_core::diag::{Diagnostic, Phase};
use dahlia_core::{CheckReport, Span};
use hls_sim::ir::{Access, ArrayDecl, Idx, Kernel, Loop, Op, OpKind, Stmt};
use hls_sim::Estimate;

use crate::ast_codec::program_from_json;
use crate::json::{obj, Json};
use crate::pipeline::Artifact;
use crate::store::CacheValue;

/// Encode a cache value for persistence. Every artifact kind (and every
/// diagnostic) is persistable; `None` is reserved for future
/// memory-only kinds.
pub fn encode(value: &CacheValue) -> Option<Json> {
    match value {
        Ok(Artifact::Ast(p)) => Some(obj([("ast", crate::ast_codec::program_to_json(p))])),
        Ok(Artifact::Desugared(p)) => {
            Some(obj([("desugared", crate::ast_codec::program_to_json(p))]))
        }
        Ok(Artifact::Check(r)) => Some(obj([("check", check_to_json(r))])),
        Ok(Artifact::Cpp(text)) => Some(obj([("cpp", Json::Str((**text).clone()))])),
        Ok(Artifact::Ir(k)) => Some(obj([("ir", kernel_to_json(k))])),
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

/// Decode a persisted cache value. `None` on any structural mismatch.
pub fn decode(v: &Json) -> Option<CacheValue> {
    if let Some(p) = v.get("ast") {
        return Some(Ok(Artifact::Ast(Arc::new(program_from_json(p)?))));
    }
    if let Some(p) = v.get("desugared") {
        return Some(Ok(Artifact::Desugared(Arc::new(program_from_json(p)?))));
    }
    if let Some(r) = v.get("check") {
        return Some(Ok(Artifact::Check(Arc::new(check_from_json(r)?))));
    }
    if let Some(text) = v.get("cpp") {
        return Some(Ok(Artifact::Cpp(Arc::new(text.as_str()?.to_string()))));
    }
    if let Some(k) = v.get("ir") {
        return Some(Ok(Artifact::Ir(Arc::new(kernel_from_json(k)?))));
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

// ---------------------------------------------------------------- IR

fn opkind_name(k: OpKind) -> &'static str {
    match k {
        OpKind::IntAlu => "int_alu",
        OpKind::IntMul => "int_mul",
        OpKind::FAdd => "fadd",
        OpKind::FMul => "fmul",
        OpKind::FDiv => "fdiv",
        OpKind::Logic => "logic",
        OpKind::Copy => "copy",
    }
}

fn opkind_from_name(name: &str) -> Option<OpKind> {
    [
        OpKind::IntAlu,
        OpKind::IntMul,
        OpKind::FAdd,
        OpKind::FMul,
        OpKind::FDiv,
        OpKind::Logic,
        OpKind::Copy,
    ]
    .into_iter()
    .find(|k| opkind_name(*k) == name)
}

fn u64s_to_json(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect())
}

fn u64s_from_json(v: &Json) -> Option<Vec<u64>> {
    match v {
        Json::Arr(items) => items.iter().map(Json::as_u64).collect(),
        _ => None,
    }
}

fn idx_to_json(i: &Idx) -> Json {
    match i {
        Idx::Affine {
            var,
            stride,
            offset,
        } => obj([
            ("var", Json::Str(var.clone())),
            ("stride", Json::Num(*stride as f64)),
            ("offset", Json::Num(*offset as f64)),
        ]),
        Idx::Const(c) => obj([("const", Json::Num(*c as f64))]),
        Idx::Dynamic => Json::Str("dyn".into()),
    }
}

fn idx_from_json(v: &Json) -> Option<Idx> {
    if v.as_str() == Some("dyn") {
        return Some(Idx::Dynamic);
    }
    if let Some(c) = v.get("const") {
        return Some(Idx::Const(c.as_i64()?));
    }
    Some(Idx::Affine {
        var: v.get("var")?.as_str()?.to_string(),
        stride: v.get("stride")?.as_i64()?,
        offset: v.get("offset")?.as_i64()?,
    })
}

fn access_to_json(a: &Access) -> Json {
    obj([
        ("array", Json::Str(a.array.clone())),
        ("idx", Json::Arr(a.idx.iter().map(idx_to_json).collect())),
    ])
}

fn access_from_json(v: &Json) -> Option<Access> {
    let idx = match v.get("idx")? {
        Json::Arr(items) => items
            .iter()
            .map(idx_from_json)
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(Access {
        array: v.get("array")?.as_str()?.to_string(),
        idx,
    })
}

fn stmt_to_json(s: &Stmt) -> Json {
    match s {
        Stmt::Loop(l) => obj([(
            "loop",
            obj([
                ("var", Json::Str(l.var.clone())),
                ("trips", Json::Num(l.trips as f64)),
                ("unroll", Json::Num(l.unroll as f64)),
                ("body", Json::Arr(l.body.iter().map(stmt_to_json).collect())),
            ]),
        )]),
        Stmt::Op(o) => obj([(
            "op",
            obj([
                ("kind", Json::Str(opkind_name(o.kind).into())),
                (
                    "reads",
                    Json::Arr(o.reads.iter().map(access_to_json).collect()),
                ),
                (
                    "writes",
                    Json::Arr(o.writes.iter().map(access_to_json).collect()),
                ),
            ]),
        )]),
    }
}

fn stmts_from_json(v: &Json) -> Option<Vec<Stmt>> {
    match v {
        Json::Arr(items) => items.iter().map(stmt_from_json).collect(),
        _ => None,
    }
}

fn accesses_from_json(v: &Json) -> Option<Vec<Access>> {
    match v {
        Json::Arr(items) => items.iter().map(access_from_json).collect(),
        _ => None,
    }
}

fn stmt_from_json(v: &Json) -> Option<Stmt> {
    if let Some(l) = v.get("loop") {
        return Some(Stmt::Loop(Loop {
            var: l.get("var")?.as_str()?.to_string(),
            trips: l.get("trips")?.as_u64()?,
            unroll: l.get("unroll")?.as_u64()?,
            body: stmts_from_json(l.get("body")?)?,
        }));
    }
    let o = v.get("op")?;
    Some(Stmt::Op(Op {
        kind: opkind_from_name(o.get("kind")?.as_str()?)?,
        reads: accesses_from_json(o.get("reads")?)?,
        writes: accesses_from_json(o.get("writes")?)?,
    }))
}

fn array_to_json(a: &ArrayDecl) -> Json {
    obj([
        ("name", Json::Str(a.name.clone())),
        ("elem_bits", Json::Num(a.elem_bits as f64)),
        ("dims", u64s_to_json(&a.dims)),
        ("partition", u64s_to_json(&a.partition)),
        ("ports", Json::Num(a.ports as f64)),
    ])
}

fn array_from_json(v: &Json) -> Option<ArrayDecl> {
    Some(ArrayDecl {
        name: v.get("name")?.as_str()?.to_string(),
        elem_bits: v.get("elem_bits")?.as_u64()? as u32,
        dims: u64s_from_json(v.get("dims")?)?,
        partition: u64s_from_json(v.get("partition")?)?,
        ports: v.get("ports")?.as_u64()? as u32,
    })
}

fn kernel_to_json(k: &Kernel) -> Json {
    obj([
        ("name", Json::Str(k.name.clone())),
        ("clock_mhz", Json::Num(k.clock_mhz)),
        ("pipeline", Json::Bool(k.pipeline)),
        (
            "arrays",
            Json::Arr(k.arrays.iter().map(array_to_json).collect()),
        ),
        ("body", Json::Arr(k.body.iter().map(stmt_to_json).collect())),
    ])
}

fn kernel_from_json(v: &Json) -> Option<Kernel> {
    let arrays = match v.get("arrays")? {
        Json::Arr(items) => items
            .iter()
            .map(array_from_json)
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(Kernel {
        name: v.get("name")?.as_str()?.to_string(),
        clock_mhz: v.get("clock_mhz")?.as_f64()?,
        pipeline: v.get("pipeline")?.as_bool()?,
        arrays,
        body: stmts_from_json(v.get("body")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Options, Pipeline, Stage};
    use hls_sim::digest::StableDigest;

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
            let back = roundtrip(&v);
            match (v.unwrap(), back.unwrap()) {
                (Artifact::Ast(a), Artifact::Ast(b)) => assert_eq!(*a, *b),
                (Artifact::Desugared(a), Artifact::Desugared(b)) => assert_eq!(*a, *b),
                (Artifact::Check(a), Artifact::Check(b)) => assert_eq!(*a, *b),
                (Artifact::Cpp(a), Artifact::Cpp(b)) => assert_eq!(*a, *b),
                (Artifact::Ir(a), Artifact::Ir(b)) => {
                    assert_eq!(*a, *b);
                    assert_eq!(a.stable_digest(), b.stable_digest());
                }
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
    fn ast_artifacts_reintern_symbols_on_decode() {
        // Symbols are process-local; the codec must store strings. A
        // decoded program is structurally equal AND its identifiers
        // resolve to the same text (re-interned, not raw ids).
        let p = Pipeline::new();
        let (v, _) = p.artifact(GOOD, Stage::Parse, &Options::default());
        let back = roundtrip(&v);
        let (Ok(Artifact::Ast(orig)), Ok(Artifact::Ast(decoded))) = (v, back) else {
            panic!("parse stage shape changed");
        };
        assert_eq!(orig.decls.len(), decoded.decls.len());
        match (&orig.body, &decoded.body) {
            (dahlia_core::Cmd::Seq(a), dahlia_core::Cmd::Seq(b)) => {
                let (
                    dahlia_core::Cmd::Let { name: na, .. },
                    dahlia_core::Cmd::Let { name: nb, .. },
                ) = (&a[0], &b[0])
                else {
                    panic!("expected let");
                };
                assert_eq!(na, nb);
                assert_eq!(nb.as_str(), "A");
            }
            other => panic!("unexpected {other:?}"),
        }
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
        ] {
            assert!(decode(&Json::parse(bad).unwrap()).is_none(), "{bad}");
        }
    }
}
