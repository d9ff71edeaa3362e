//! JSON (de)serialization for Dahlia ASTs ([`Program`]), used by the
//! disk tier to persist `parse` and `desugar` artifacts.
//!
//! Identifiers are interned [`Symbol`]s in memory, and symbol ids are
//! **not stable across processes** — so the codec stores the identifier
//! *strings* and re-interns them on decode. Spans are encoded as a
//! compact `"sp":[start,end,line,col]` field, omitted when synthetic, so
//! diagnostics computed from a disk-loaded AST point at the same source
//! locations as a fresh parse.
//!
//! Robustness contract (same as the sibling codec): decoding never
//! panics; any structural mismatch yields `None`, which the disk tier
//! treats as a corrupt entry and recomputes.

use std::sync::Arc;

use dahlia_core::ast::{
    BinOp, Cmd, Decl, Dim, Expr, FuncDef, MemType, Param, Program, Reducer, Type, UnOp, ViewKind,
};
use dahlia_core::{Span, Symbol};

use crate::json::{obj, Json};

// ------------------------------------------------------------- helpers

fn sym_to_json(s: Symbol) -> Json {
    Json::Str(s.as_str().to_string())
}

fn sym_from_json(v: &Json) -> Option<Symbol> {
    Some(Symbol::intern(v.as_str()?))
}

fn span_is_synthetic(s: Span) -> bool {
    s == Span::synthetic()
}

/// Push `"sp":[start,end,line,col]` unless the span is synthetic.
fn push_span(fields: &mut Vec<(String, Json)>, s: Span) {
    if !span_is_synthetic(s) {
        fields.push((
            "sp".to_string(),
            Json::Arr(vec![
                Json::Num(s.start as f64),
                Json::Num(s.end as f64),
                Json::Num(s.line as f64),
                Json::Num(s.col as f64),
            ]),
        ));
    }
}

fn span_from_json(v: &Json) -> Option<Span> {
    match v.get("sp") {
        None => Some(Span::synthetic()),
        Some(Json::Arr(xs)) if xs.len() == 4 => Some(Span::new(
            xs[0].as_u64()? as usize,
            xs[1].as_u64()? as usize,
            xs[2].as_u64()? as u32,
            xs[3].as_u64()? as u32,
        )),
        Some(_) => None,
    }
}

fn node(kind: &'static str, payload: Json, span: Span) -> Json {
    let mut fields = vec![(kind.to_string(), payload)];
    push_span(&mut fields, span);
    Json::Obj(fields)
}

/// `i64` values outside the exactly-representable `f64` range are
/// stored as decimal strings so literals never silently lose precision.
fn i64_to_json(v: i64) -> Json {
    const SAFE: i64 = 1 << 53;
    if (-SAFE..=SAFE).contains(&v) {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

fn i64_from_json(v: &Json) -> Option<i64> {
    match v {
        Json::Num(_) => v.as_i64(),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// Same guard for `u64` fields (dimension sizes/banks, unroll and view
/// factors): values above 2^53 go through a decimal string so a warm
/// decode can never silently differ from a cold parse.
fn u64_to_json(v: u64) -> Json {
    const SAFE: u64 = 1 << 53;
    if v <= SAFE {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

fn u64_from_json(v: &Json) -> Option<u64> {
    match v {
        Json::Num(_) => v.as_u64(),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

// --------------------------------------------------------------- types

fn ty_to_json(t: &Type) -> Json {
    match t {
        Type::Bool => Json::Str("bool".into()),
        Type::Float => Json::Str("float".into()),
        Type::Double => Json::Str("double".into()),
        Type::Bit(n) => obj([("bit", Json::Num(*n as f64))]),
        Type::UBit(n) => obj([("ubit", Json::Num(*n as f64))]),
        Type::Idx { lo, hi } => obj([("idx", Json::Arr(vec![i64_to_json(*lo), i64_to_json(*hi)]))]),
        Type::Mem(m) => obj([("mem", memtype_to_json(m))]),
    }
}

fn ty_from_json(v: &Json) -> Option<Type> {
    if let Some(s) = v.as_str() {
        return match s {
            "bool" => Some(Type::Bool),
            "float" => Some(Type::Float),
            "double" => Some(Type::Double),
            _ => None,
        };
    }
    if let Some(n) = v.get("bit") {
        return Some(Type::Bit(n.as_u64()? as u32));
    }
    if let Some(n) = v.get("ubit") {
        return Some(Type::UBit(n.as_u64()? as u32));
    }
    if let Some(Json::Arr(xs)) = v.get("idx") {
        if xs.len() != 2 {
            return None;
        }
        return Some(Type::Idx {
            lo: i64_from_json(&xs[0])?,
            hi: i64_from_json(&xs[1])?,
        });
    }
    if let Some(m) = v.get("mem") {
        return Some(Type::Mem(memtype_from_json(m)?));
    }
    None
}

fn memtype_to_json(m: &MemType) -> Json {
    obj([
        ("elem", ty_to_json(&m.elem)),
        ("ports", Json::Num(m.ports as f64)),
        (
            "dims",
            Json::Arr(
                m.dims
                    .iter()
                    .map(|d| Json::Arr(vec![u64_to_json(d.size), u64_to_json(d.banks)]))
                    .collect(),
            ),
        ),
    ])
}

fn memtype_from_json(v: &Json) -> Option<MemType> {
    let dims = match v.get("dims")? {
        Json::Arr(items) => items
            .iter()
            .map(|d| match d {
                Json::Arr(xs) if xs.len() == 2 => Some(Dim {
                    size: u64_from_json(&xs[0])?,
                    banks: u64_from_json(&xs[1])?,
                }),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(MemType {
        elem: Arc::new(ty_from_json(v.get("elem")?)?),
        ports: v.get("ports")?.as_u64()? as u32,
        dims,
    })
}

// ----------------------------------------------------------- operators

fn binop_from_name(s: &str) -> Option<BinOp> {
    use BinOp::*;
    Some(match s {
        "+" => Add,
        "-" => Sub,
        "*" => Mul,
        "/" => Div,
        "%" => Mod,
        "&&" => And,
        "||" => Or,
        "==" => Eq,
        "!=" => Neq,
        "<" => Lt,
        ">" => Gt,
        "<=" => Lte,
        ">=" => Gte,
        _ => return None,
    })
}

fn unop_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Not => "!",
        UnOp::Neg => "-",
    }
}

fn unop_from_name(s: &str) -> Option<UnOp> {
    match s {
        "!" => Some(UnOp::Not),
        "-" => Some(UnOp::Neg),
        _ => None,
    }
}

fn reducer_from_name(s: &str) -> Option<Reducer> {
    Some(match s {
        "+=" => Reducer::AddAssign,
        "-=" => Reducer::SubAssign,
        "*=" => Reducer::MulAssign,
        "/=" => Reducer::DivAssign,
        _ => return None,
    })
}

// --------------------------------------------------------- expressions

fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::LitInt { val, span } => node("i", i64_to_json(*val), *span),
        Expr::LitFloat { val, span } => {
            // Finite floats roundtrip exactly through Rust's shortest
            // f64 formatting; non-finite values (a `1e999` literal) have
            // no JSON spelling, so store the bit pattern.
            if val.is_finite() {
                node("f", Json::Num(*val), *span)
            } else {
                node("fb", Json::Str(format!("{:016x}", val.to_bits())), *span)
            }
        }
        Expr::LitBool { val, span } => node("b", Json::Bool(*val), *span),
        Expr::Var { name, span } => node("v", sym_to_json(*name), *span),
        Expr::Bin { op, lhs, rhs, span } => node(
            "bin",
            Json::Arr(vec![
                Json::Str(op.to_string()),
                expr_to_json(lhs),
                expr_to_json(rhs),
            ]),
            *span,
        ),
        Expr::Un { op, arg, span } => node(
            "un",
            Json::Arr(vec![Json::Str(unop_name(*op).into()), expr_to_json(arg)]),
            *span,
        ),
        Expr::Access {
            mem,
            phys_bank,
            idxs,
            span,
        } => {
            let mut fields = vec![("m".to_string(), sym_to_json(*mem))];
            if let Some(b) = phys_bank {
                fields.push(("pb".to_string(), expr_to_json(b)));
            }
            fields.push((
                "ix".to_string(),
                Json::Arr(idxs.iter().map(expr_to_json).collect()),
            ));
            node("acc", Json::Obj(fields), *span)
        }
        Expr::Call { func, args, span } => node(
            "call",
            obj([
                ("fn", sym_to_json(*func)),
                ("args", Json::Arr(args.iter().map(expr_to_json).collect())),
            ]),
            *span,
        ),
    }
}

fn exprs_from_json(v: &Json) -> Option<Vec<Expr>> {
    match v {
        Json::Arr(items) => items.iter().map(expr_from_json).collect(),
        _ => None,
    }
}

fn expr_from_json(v: &Json) -> Option<Expr> {
    let span = span_from_json(v)?;
    if let Some(x) = v.get("i") {
        return Some(Expr::LitInt {
            val: i64_from_json(x)?,
            span,
        });
    }
    if let Some(x) = v.get("f") {
        return Some(Expr::LitFloat {
            val: x.as_f64()?,
            span,
        });
    }
    if let Some(x) = v.get("fb") {
        let bits = u64::from_str_radix(x.as_str()?, 16).ok()?;
        return Some(Expr::LitFloat {
            val: f64::from_bits(bits),
            span,
        });
    }
    if let Some(x) = v.get("b") {
        return Some(Expr::LitBool {
            val: x.as_bool()?,
            span,
        });
    }
    if let Some(x) = v.get("v") {
        return Some(Expr::Var {
            name: sym_from_json(x)?,
            span,
        });
    }
    if let Some(Json::Arr(xs)) = v.get("bin") {
        if xs.len() != 3 {
            return None;
        }
        return Some(Expr::Bin {
            op: binop_from_name(xs[0].as_str()?)?,
            lhs: Arc::new(expr_from_json(&xs[1])?),
            rhs: Arc::new(expr_from_json(&xs[2])?),
            span,
        });
    }
    if let Some(Json::Arr(xs)) = v.get("un") {
        if xs.len() != 2 {
            return None;
        }
        return Some(Expr::Un {
            op: unop_from_name(xs[0].as_str()?)?,
            arg: Arc::new(expr_from_json(&xs[1])?),
            span,
        });
    }
    if let Some(a) = v.get("acc") {
        return Some(Expr::Access {
            mem: sym_from_json(a.get("m")?)?,
            phys_bank: match a.get("pb") {
                Some(b) => Some(Arc::new(expr_from_json(b)?)),
                None => None,
            },
            idxs: exprs_from_json(a.get("ix")?)?,
            span,
        });
    }
    if let Some(c) = v.get("call") {
        return Some(Expr::Call {
            func: sym_from_json(c.get("fn")?)?,
            args: exprs_from_json(c.get("args")?)?,
            span,
        });
    }
    None
}

// ------------------------------------------------------------ commands

fn viewkind_to_json(k: &ViewKind) -> Json {
    match k {
        ViewKind::Shrink { factors } => obj([(
            "shrink",
            Json::Arr(factors.iter().map(|&f| u64_to_json(f)).collect()),
        )]),
        ViewKind::Suffix { offsets } => obj([(
            "suffix",
            Json::Arr(offsets.iter().map(expr_to_json).collect()),
        )]),
        ViewKind::Shift { offsets } => obj([(
            "shift",
            Json::Arr(offsets.iter().map(expr_to_json).collect()),
        )]),
        ViewKind::Split { factor } => obj([("split", u64_to_json(*factor))]),
    }
}

fn viewkind_from_json(v: &Json) -> Option<ViewKind> {
    if let Some(Json::Arr(fs)) = v.get("shrink") {
        return Some(ViewKind::Shrink {
            factors: fs.iter().map(u64_from_json).collect::<Option<Vec<_>>>()?,
        });
    }
    if let Some(os) = v.get("suffix") {
        return Some(ViewKind::Suffix {
            offsets: exprs_from_json(os)?,
        });
    }
    if let Some(os) = v.get("shift") {
        return Some(ViewKind::Shift {
            offsets: exprs_from_json(os)?,
        });
    }
    if let Some(f) = v.get("split") {
        return Some(ViewKind::Split {
            factor: u64_from_json(f)?,
        });
    }
    None
}

fn cmd_to_json(c: &Cmd) -> Json {
    match c {
        Cmd::Skip => Json::Str("skip".into()),
        Cmd::Seq(cs) => obj([("seq", Json::Arr(cs.iter().map(cmd_to_json).collect()))]),
        Cmd::Par(cs) => obj([("par", Json::Arr(cs.iter().map(cmd_to_json).collect()))]),
        Cmd::Let {
            name,
            ty,
            init,
            span,
        } => {
            let mut fields = vec![("n".to_string(), sym_to_json(*name))];
            if let Some(t) = ty {
                fields.push(("ty".to_string(), ty_to_json(t)));
            }
            if let Some(e) = init {
                fields.push(("init".to_string(), expr_to_json(e)));
            }
            node("let", Json::Obj(fields), *span)
        }
        Cmd::View {
            name,
            mem,
            kind,
            span,
        } => node(
            "view",
            obj([
                ("n", sym_to_json(*name)),
                ("m", sym_to_json(*mem)),
                ("k", viewkind_to_json(kind)),
            ]),
            *span,
        ),
        Cmd::Assign { name, rhs, span } => node(
            "asn",
            obj([("n", sym_to_json(*name)), ("rhs", expr_to_json(rhs))]),
            *span,
        ),
        Cmd::Store {
            mem,
            phys_bank,
            idxs,
            rhs,
            span,
        } => {
            let mut fields = vec![("m".to_string(), sym_to_json(*mem))];
            if let Some(b) = phys_bank {
                fields.push(("pb".to_string(), expr_to_json(b)));
            }
            fields.push((
                "ix".to_string(),
                Json::Arr(idxs.iter().map(expr_to_json).collect()),
            ));
            fields.push(("rhs".to_string(), expr_to_json(rhs)));
            node("store", Json::Obj(fields), *span)
        }
        Cmd::Reduce {
            target,
            target_idxs,
            op,
            rhs,
            span,
        } => node(
            "red",
            obj([
                ("t", sym_to_json(*target)),
                (
                    "ix",
                    Json::Arr(target_idxs.iter().map(expr_to_json).collect()),
                ),
                ("op", Json::Str(op.to_string())),
                ("rhs", expr_to_json(rhs)),
            ]),
            *span,
        ),
        Cmd::If {
            cond,
            then_branch,
            else_branch,
            span,
        } => {
            let mut fields = vec![
                ("c".to_string(), expr_to_json(cond)),
                ("t".to_string(), cmd_to_json(then_branch)),
            ];
            if let Some(e) = else_branch {
                fields.push(("e".to_string(), cmd_to_json(e)));
            }
            node("if", Json::Obj(fields), *span)
        }
        Cmd::While { cond, body, span } => node(
            "while",
            obj([("c", expr_to_json(cond)), ("b", cmd_to_json(body))]),
            *span,
        ),
        Cmd::For {
            var,
            lo,
            hi,
            unroll,
            body,
            combine,
            span,
        } => {
            let mut fields = vec![
                ("v".to_string(), sym_to_json(*var)),
                ("lo".to_string(), i64_to_json(*lo)),
                ("hi".to_string(), i64_to_json(*hi)),
                ("u".to_string(), u64_to_json(*unroll)),
                ("b".to_string(), cmd_to_json(body)),
            ];
            if let Some(c) = combine {
                fields.push(("comb".to_string(), cmd_to_json(c)));
            }
            node("for", Json::Obj(fields), *span)
        }
        Cmd::Expr(e) => obj([("expr", expr_to_json(e))]),
    }
}

fn cmds_from_json(v: &Json) -> Option<Vec<Cmd>> {
    match v {
        Json::Arr(items) => items.iter().map(cmd_from_json).collect(),
        _ => None,
    }
}

fn cmd_from_json(v: &Json) -> Option<Cmd> {
    if v.as_str() == Some("skip") {
        return Some(Cmd::Skip);
    }
    let span = span_from_json(v)?;
    if let Some(cs) = v.get("seq") {
        return Some(Cmd::Seq(cmds_from_json(cs)?));
    }
    if let Some(cs) = v.get("par") {
        return Some(Cmd::Par(cmds_from_json(cs)?));
    }
    if let Some(l) = v.get("let") {
        return Some(Cmd::Let {
            name: sym_from_json(l.get("n")?)?,
            ty: match l.get("ty") {
                Some(t) => Some(ty_from_json(t)?),
                None => None,
            },
            init: match l.get("init") {
                Some(e) => Some(expr_from_json(e)?),
                None => None,
            },
            span,
        });
    }
    if let Some(w) = v.get("view") {
        return Some(Cmd::View {
            name: sym_from_json(w.get("n")?)?,
            mem: sym_from_json(w.get("m")?)?,
            kind: viewkind_from_json(w.get("k")?)?,
            span,
        });
    }
    if let Some(a) = v.get("asn") {
        return Some(Cmd::Assign {
            name: sym_from_json(a.get("n")?)?,
            rhs: expr_from_json(a.get("rhs")?)?,
            span,
        });
    }
    if let Some(st) = v.get("store") {
        return Some(Cmd::Store {
            mem: sym_from_json(st.get("m")?)?,
            phys_bank: match st.get("pb") {
                Some(b) => Some(Arc::new(expr_from_json(b)?)),
                None => None,
            },
            idxs: exprs_from_json(st.get("ix")?)?,
            rhs: expr_from_json(st.get("rhs")?)?,
            span,
        });
    }
    if let Some(r) = v.get("red") {
        return Some(Cmd::Reduce {
            target: sym_from_json(r.get("t")?)?,
            target_idxs: exprs_from_json(r.get("ix")?)?,
            op: reducer_from_name(r.get("op")?.as_str()?)?,
            rhs: expr_from_json(r.get("rhs")?)?,
            span,
        });
    }
    if let Some(i) = v.get("if") {
        return Some(Cmd::If {
            cond: expr_from_json(i.get("c")?)?,
            then_branch: Arc::new(cmd_from_json(i.get("t")?)?),
            else_branch: match i.get("e") {
                Some(e) => Some(Arc::new(cmd_from_json(e)?)),
                None => None,
            },
            span,
        });
    }
    if let Some(w) = v.get("while") {
        return Some(Cmd::While {
            cond: expr_from_json(w.get("c")?)?,
            body: Arc::new(cmd_from_json(w.get("b")?)?),
            span,
        });
    }
    if let Some(f) = v.get("for") {
        return Some(Cmd::For {
            var: sym_from_json(f.get("v")?)?,
            lo: i64_from_json(f.get("lo")?)?,
            hi: i64_from_json(f.get("hi")?)?,
            unroll: u64_from_json(f.get("u")?)?,
            body: Arc::new(cmd_from_json(f.get("b")?)?),
            combine: match f.get("comb") {
                Some(c) => Some(Arc::new(cmd_from_json(c)?)),
                None => None,
            },
            span,
        });
    }
    if let Some(e) = v.get("expr") {
        return Some(Cmd::Expr(expr_from_json(e)?));
    }
    None
}

// ------------------------------------------------------------- program

/// Encode a whole program.
pub fn program_to_json(p: &Program) -> Json {
    let decls = p
        .decls
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("n".to_string(), sym_to_json(d.name)),
                ("ty".to_string(), memtype_to_json(&d.ty)),
            ];
            push_span(&mut fields, d.span);
            Json::Obj(fields)
        })
        .collect();
    let defs = p
        .defs
        .iter()
        .map(|f| {
            let params = f
                .params
                .iter()
                .map(|pp| obj([("n", sym_to_json(pp.name)), ("ty", ty_to_json(&pp.ty))]))
                .collect();
            let mut fields = vec![
                ("n".to_string(), sym_to_json(f.name)),
                ("params".to_string(), Json::Arr(params)),
                ("b".to_string(), cmd_to_json(&f.body)),
            ];
            push_span(&mut fields, f.span);
            Json::Obj(fields)
        })
        .collect();
    obj([
        ("decls", Json::Arr(decls)),
        ("defs", Json::Arr(defs)),
        ("body", cmd_to_json(&p.body)),
    ])
}

/// Decode a whole program (`None` on any structural mismatch; never
/// panics).
pub fn program_from_json(v: &Json) -> Option<Program> {
    let decls = match v.get("decls")? {
        Json::Arr(items) => items
            .iter()
            .map(|d| {
                Some(Decl {
                    name: sym_from_json(d.get("n")?)?,
                    ty: memtype_from_json(d.get("ty")?)?,
                    span: span_from_json(d)?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let defs = match v.get("defs")? {
        Json::Arr(items) => items
            .iter()
            .map(|f| {
                let params = match f.get("params")? {
                    Json::Arr(ps) => ps
                        .iter()
                        .map(|pp| {
                            Some(Param {
                                name: sym_from_json(pp.get("n")?)?,
                                ty: ty_from_json(pp.get("ty")?)?,
                            })
                        })
                        .collect::<Option<Vec<_>>>()?,
                    _ => return None,
                };
                Some(FuncDef {
                    name: sym_from_json(f.get("n")?)?,
                    params,
                    body: cmd_from_json(f.get("b")?)?,
                    span: span_from_json(f)?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(Program {
        decls,
        defs,
        body: cmd_from_json(v.get("body")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dahlia_core::desugar::desugar;
    use dahlia_core::parse;

    fn roundtrip(p: &Program) -> Program {
        let text = program_to_json(p).emit();
        program_from_json(&Json::parse(&text).unwrap()).expect("decodes")
    }

    const KITCHEN_SINK: &str = "decl A: float[16 bank 2];
         def f(x: bit<32>, M: float[16 bank 2]) { M[x] := 1.0; }
         let B: float{2}[8 bank 4][4];
         view sh = shrink B[by 2][by 1];
         view su = suffix A[by 2*1];
         let t = 0.0;
         for (let i = 0..16) unroll 2 {
           let v = A[i] * 2.0;
         } combine { t += v; }
         if (t > 0.5) { t := 0.0; } else { t := 1.0; }
         while (t < 4.0) { t := t + 1.0; }
         f(3, A);";

    #[test]
    fn kitchen_sink_roundtrips_structurally() {
        let p = parse(KITCHEN_SINK).unwrap();
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn desugared_programs_roundtrip() {
        // Desugared ASTs have synthetic spans, fresh `__g`/`__u` names,
        // and inlined index arithmetic — the exact shape the disk tier
        // persists for the `desugar` stage.
        let p = desugar(&parse(KITCHEN_SINK).unwrap());
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn spans_survive_the_roundtrip() {
        let p = parse("let A: bit<32>[4];\n  A[3] := 7;").unwrap();
        let back = roundtrip(&p);
        match (&p.body, &back.body) {
            (Cmd::Seq(a), Cmd::Seq(b)) => {
                assert_eq!(a[1].span(), b[1].span());
                assert_eq!(a[1].span().line, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn physical_access_and_split_roundtrip() {
        let p = parse(
            "let A: bit<32>[12 bank 4];
             view sp = split A[by 2];
             A{0}[1] := 42;
             let x = sp[0][2];",
        )
        .unwrap();
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn huge_int_literals_do_not_lose_precision() {
        let v = (1_i64 << 53) + 1;
        let p = parse(&format!("let x = {v};")).unwrap();
        let back = roundtrip(&p);
        match &back.body {
            Cmd::Let {
                init: Some(Expr::LitInt { val, .. }),
                ..
            } => assert_eq!(*val, v),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn huge_u64_geometry_does_not_lose_precision() {
        // Dimension sizes above 2^53 must survive the disk round-trip
        // bit-exactly (they take the string path), mirroring the i64
        // literal guard.
        let v: u64 = (1 << 53) + 1;
        let p = parse(&format!("let A: bit<32>[{v}];")).unwrap();
        let back = roundtrip(&p);
        match &back.body {
            Cmd::Let {
                ty: Some(dahlia_core::Type::Mem(m)),
                ..
            } => assert_eq!(m.dims[0].size, v),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nonfinite_float_literals_roundtrip_via_bits() {
        let p = parse("let x = 1e999;").unwrap(); // parses to +inf
        let back = roundtrip(&p);
        match &back.body {
            Cmd::Let {
                init: Some(Expr::LitFloat { val, .. }),
                ..
            } => assert!(val.is_infinite()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_malformed_programs() {
        for bad in [
            r#"{}"#,
            r#"{"decls":[],"defs":[]}"#,
            r#"{"decls":[],"defs":[],"body":{"for":{"v":"i"}}}"#,
            r#"{"decls":[],"defs":[],"body":{"bin":["?",{"i":1},{"i":2}]}}"#,
            r#"{"decls":[{"n":"A"}],"defs":[],"body":"skip"}"#,
            r#"{"decls":[],"defs":[],"body":{"red":{"t":"x","ix":[],"op":"^=","rhs":{"i":1}}}}"#,
            r#"{"decls":[],"defs":[],"body":{"let":{"n":"x","init":{"fb":"zz"}}}}"#,
        ] {
            assert!(
                program_from_json(&Json::parse(bad).unwrap()).is_none(),
                "{bad}"
            );
        }
    }
}
