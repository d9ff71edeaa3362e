//! Cluster sweep planning: the pure (JSON-free) half of the `sweep`
//! protocol op.
//!
//! A [`SweepSpec`] carries a *source template* plus the parameter space
//! to instantiate it over. [`SweepSpec::plan`] checks the spec and
//! compiles the template once into a [`Plan`]: literal text and
//! directives whose operands are already resolved to parameter
//! positions. The gateway then walks the planned points one at a time,
//! decoding each into a reused values array and rendering it into a
//! reused buffer just before its front end runs, so a sweep holds one
//! rendered point, never the whole space. [`render`] expands one
//! configuration the same way. Everything here is deterministic — same
//! spec, same point order, same rendered bytes — which is what makes
//! the crash-safe sweep journal replayable: a resumed sweep re-renders
//! the identical points and skips the digests already journaled.
//!
//! # Template language
//!
//! Three `${...}` directive forms, everything else passed through
//! verbatim:
//!
//! * `${p}` — the decimal value of parameter `p` in the configuration
//!   (integer literals are also accepted where a parameter may appear).
//! * `${shrink:mem:b1,u1:b2,u2:...}` — emits a
//!   `  view mem_sh = shrink mem[by b/u]...;\n` line when the
//!   banking/unroll pairs need (and permit) a shrink view, or nothing
//!   otherwise: the §3.6 idiom of running an unrolled loop below a
//!   memory's banking. This renderer is the one place that decides and
//!   spells a shrink view; every parameterized kernel in
//!   `dahlia-kernels` is a template over these directives.
//! * `${access:mem:b1,u1:b2,u2:...}` — emits `mem_sh` or `mem` to match
//!   whichever the paired `${shrink:...}` directive produced.
//!
//! # Slots and shapes
//!
//! [`Plan::render_slots`] also reports a [`Slots`] table: the byte
//! range and value of every integer the render wrote (`${p}` values,
//! `${7}` literals and each `[by b/u]` shrink factor), and the point's
//! *shape*: each `shrink`/`access` decision and each slot's decimal
//! width. Two points with one shape have identical bytes outside their
//! slots. The lexer never tells one digit from another, so they also
//! lex to the same tokens but for the integer values in the slots, and
//! parse to the same AST but for the integer leaves those slots feed:
//! [`ShapeAst`] parses a shape once and patches each later point's
//! values into its AST, which is how a sweep parses Fig. 7's 32,000
//! points 4 times and only type-checks the rest.

use crate::space::Config;
use dahlia_core::lexer::{lex, Tok};
use dahlia_core::{parse_tokens, IntField, Program};
use hls_sim::Fnv;

/// The most a sweep may plan: its points' rendered sources plus
/// [`PLAN_POINT_OVERHEAD`] bytes each. A gateway renders one point at a
/// time and holds none of them, so the budget no longer bounds memory:
/// it bounds the source a sweep will render and parse on the gateway's
/// sweep thread, and [`SweepSpec::validate`] refuses a larger sweep up
/// front.
const PLAN_BUDGET_BYTES: u64 = 256 << 20;

/// Per-point bookkeeping beyond the rendered source (key, digest,
/// journal record), as charged against [`PLAN_BUDGET_BYTES`].
const PLAN_POINT_OVERHEAD: u64 = 256;

/// A fully planned sweep: the template, the parameter space, and the
/// execution knobs carried by the wire op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Kernel name forwarded to compile requests (cache-key relevant).
    pub name: String,
    /// Source template; see the module docs for the directive forms.
    pub template: String,
    /// Parameter names with their value lists, in insertion order. The
    /// last parameter varies fastest during enumeration.
    pub params: Vec<(String, Vec<u64>)>,
    /// Pipeline stage each point runs to (the sweep uses `est`).
    pub stage: String,
    /// Keep every `stride`-th point of the full space (1 = all).
    pub stride: u64,
}

impl SweepSpec {
    /// Number of configurations in the full space, or `None` when the
    /// product of the value-list lengths overflows `u64`.
    fn total(&self) -> Option<u64> {
        self.params
            .iter()
            .try_fold(1u64, |n, (_, vs)| n.checked_mul(vs.len() as u64))
    }

    /// Check the spec without panicking: non-empty params with unique
    /// names and non-empty value lists, a non-zero stride, a template
    /// whose directives all resolve against the declared parameters,
    /// and a plan that fits a 256 MiB budget — sized from the
    /// parameters and the first rendered point, before any point is
    /// planned.
    pub fn validate(&self) -> Result<(), String> {
        self.plan().map(drop)
    }

    /// [`SweepSpec::validate`], returning the checked plan: the
    /// template compiled against the parameters, ready to render the
    /// planned points one at a time.
    pub fn plan(&self) -> Result<Plan<'_>, String> {
        if self.params.is_empty() {
            return Err("sweep needs at least one parameter".to_string());
        }
        for (i, (name, values)) in self.params.iter().enumerate() {
            if name.is_empty() {
                return Err("empty parameter name".to_string());
            }
            if values.is_empty() {
                return Err(format!("parameter `{name}` has no values"));
            }
            if self.params[..i].iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate parameter `{name}`"));
            }
        }
        if self.stride == 0 {
            return Err("stride must be positive".to_string());
        }
        let Some(total) = self.total() else {
            return Err("the parameter space has more than 2^64 points".to_string());
        };
        let names: Vec<&str> = self.params.iter().map(|(n, _)| n.as_str()).collect();
        let mut by_name: Vec<usize> = (0..names.len()).collect();
        by_name.sort_by_key(|&i| names[i]);
        let plan = Plan {
            spec: self,
            template: Template::compile(&self.template, &names)?,
            by_name,
            count: total.div_ceil(self.stride),
        };
        // Size the sweep by its first point.
        let mut values = vec![0; names.len()];
        let mut source = String::new();
        plan.decode(0, &mut values);
        plan.render(&values, &mut source);
        let planned = plan.count;
        let bytes = u128::from(planned) * u128::from(source.len() as u64 + PLAN_POINT_OVERHEAD);
        if bytes > u128::from(PLAN_BUDGET_BYTES) {
            return Err(format!(
                "the sweep plans {planned} points in about {bytes} bytes, \
                 over the {PLAN_BUDGET_BYTES}-byte plan budget"
            ));
        }
        Ok(plan)
    }

    /// The planned point list: every `stride`-th configuration of the
    /// space, in enumeration order (last parameter fastest — identical
    /// to walking the [`ParamSpace`](crate::ParamSpace) of the same
    /// parameters with `step_by(stride)`).
    ///
    /// Kept indices are decoded directly from their mixed-radix
    /// representation (see [`Plan::decode`]), so planning a
    /// strided slice costs O(points × axes) rather than a walk over the
    /// whole space.
    ///
    /// Panics if the space has more than 2^64 points; wire-facing
    /// callers validate first via [`SweepSpec::validate`], which also
    /// bounds the plan's size.
    pub fn points(&self) -> Vec<Config> {
        let total = self.total().expect("the parameter space overflows u64");
        let mut values = vec![0; self.params.len()];
        (0..total.div_ceil(self.stride.max(1)))
            .map(|n| {
                self.decode(n, &mut values);
                self.params
                    .iter()
                    .zip(&values)
                    .map(|((name, _), v)| (name.clone(), *v))
                    .collect()
            })
            .collect()
    }

    /// Decode the `n`-th planned point (the space's `n × stride`-th
    /// configuration) into `values`, one per parameter in declaration
    /// order.
    fn decode(&self, n: u64, values: &mut [u64]) {
        let mut rem = n * self.stride.max(1);
        for (slot, (_, vs)) in values.iter_mut().zip(&self.params).rev() {
            let radix = vs.len() as u64;
            *slot = vs[(rem % radix) as usize];
            rem /= radix;
        }
    }

    /// Stable 128-bit identity of this sweep — the journal directory
    /// name, so a resumed sweep only ever replays its own checkpoints.
    pub fn digest(&self) -> u128 {
        let mut h = Fnv::new();
        h.str(&self.name).str(&self.template);
        h.u64(self.params.len() as u64);
        for (name, values) in &self.params {
            h.str(name).u64(values.len() as u64);
            for v in values {
                h.u64(*v);
            }
        }
        h.str(&self.stage).u64(self.stride);
        h.finish()
    }
}

/// A checked sweep (see [`SweepSpec::plan`]): its template compiled
/// against the parameters. It renders any planned point on demand and
/// holds none.
#[derive(Debug)]
pub struct Plan<'a> {
    spec: &'a SweepSpec,
    template: Template<'a>,
    /// Parameter positions in name order — a [`Config`]'s key order.
    by_name: Vec<usize>,
    count: u64,
}

impl Plan<'_> {
    /// How many points the sweep plans.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// How many parameters a point has: the length of the values
    /// array [`Plan::decode`] fills.
    pub fn axes(&self) -> usize {
        self.spec.params.len()
    }

    /// Decode the `n`-th planned point, `n` below [`Plan::count`] (the
    /// space's `n × stride`-th configuration, last parameter fastest),
    /// into `values`, one per parameter in declaration order.
    pub fn decode(&self, n: u64, values: &mut [u64]) {
        self.spec.decode(n, values);
    }

    /// Replace `out` with the template rendered at `values`: the bytes
    /// [`render`] gives for the same configuration.
    pub fn render(&self, values: &[u64], out: &mut String) {
        out.clear();
        self.template.render_into(values, out, None);
    }

    /// [`Plan::render`], also replacing `slots` with where the render
    /// wrote each integer and with the point's shape.
    pub fn render_slots(&self, values: &[u64], out: &mut String, slots: &mut Slots) {
        out.clear();
        slots.ints.clear();
        slots.shape.clear();
        self.template.render_into(values, out, Some(slots));
    }

    /// The point's canonical `name=value,...` key, names sorted as in a
    /// [`Config`] — the sweep's front and journal key.
    pub fn key(&self, values: &[u64]) -> String {
        let mut key = String::new();
        for (j, &i) in self.by_name.iter().enumerate() {
            if j > 0 {
                key.push(',');
            }
            key.push_str(&self.spec.params[i].0);
            key.push('=');
            push_u64(&mut key, values[i]);
        }
        key
    }
}

/// Where one render wrote its integers, and the point's shape (see
/// [`Plan::render_slots`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Slots {
    /// Every integer the render wrote, in source order: each `${p}`
    /// value, each `${7}` literal and each `[by b/u]` shrink factor.
    pub ints: Vec<Slot>,
    /// Each `shrink`/`access` decision and each slot's decimal width,
    /// in template order. Two points of one plan with equal shapes have
    /// identical bytes outside their slots.
    pub shape: Vec<u8>,
}

/// One integer a render wrote: its byte range in the rendered source
/// and its value, spelled in decimal without leading zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Byte offset of the first digit.
    pub start: usize,
    /// Byte offset one past the last digit.
    pub end: usize,
    /// The value written.
    pub value: u64,
}

/// The AST of one shape (see [`Slots::shape`]), parsed once from its
/// first point.
///
/// Replacing a digit with another digit never moves a token boundary
/// or changes a token's kind in [`lex`]: no lexer decision tells digits
/// apart. Nor does the parser's control flow look at an integer's
/// value, except through the conversion each field applies
/// ([`IntField::accept`]). So every point of a shape parses to the
/// shape's AST with only the integer leaves its slots feed changed, and
/// [`patch`] writes those leaves instead of parsing again.
///
/// [`patch`]: ShapeAst::patch
#[derive(Debug)]
pub struct ShapeAst {
    ast: Program,
    /// `(leaf, slot)`: the position in [`Program::for_each_int_mut`]'s
    /// order of the leaf each slot feeds, sorted by leaf.
    feeds: Vec<(usize, usize)>,
    /// The bytes of the tokens the AST was parsed from: a measure of
    /// its size.
    bytes: usize,
}

impl ShapeAst {
    /// Lex and parse `source`, a point rendered with `slots`, and find
    /// the leaf each slot feeds: parse again once per slot with its
    /// token set to another value any field accepts, and take the one
    /// leaf that changed. `None` when `source` does not parse, when some
    /// slot is not exactly one integer token (inside an identifier, a
    /// comment or a float, or next to template digits), or when a slot
    /// does not change exactly one leaf to exactly its value. Such a
    /// shape is parsed point by point.
    pub fn build(source: &str, slots: &[Slot]) -> Option<ShapeAst> {
        let mut tokens = lex(source).ok()?;
        let mut index = Vec::with_capacity(slots.len());
        let mut at = 0;
        for slot in slots {
            at += tokens[at..].partition_point(|t| t.span.start < slot.start);
            let t = tokens.get(at)?;
            let exact = t.span.start == slot.start
                && t.span.end == slot.end
                && t.tok == Tok::Int(i64::try_from(slot.value).ok()?);
            if !exact {
                return None;
            }
            index.push(at);
        }
        let mut ast = parse_tokens(&tokens).ok()?;
        let base = int_leaves(&mut ast);
        let mut feeds = Vec::with_capacity(slots.len());
        for (s, &i) in index.iter().enumerate() {
            let Tok::Int(v) = tokens[i].tok else {
                unreachable!("slots are located on integer tokens")
            };
            // Every field takes 1 and 2, and takes one less than any
            // value above 1 that it took.
            let moved = if v <= 1 { v + 1 } else { v - 1 };
            tokens[i].tok = Tok::Int(moved);
            let other = int_leaves(&mut parse_tokens(&tokens).ok()?);
            tokens[i].tok = Tok::Int(v);
            if other.len() != base.len() {
                return None;
            }
            let mut changed = (0..base.len()).filter(|&l| base[l] != other[l]);
            let leaf = changed.next()?;
            let fed =
                base[leaf] == (other[leaf].0, i128::from(v)) && other[leaf].1 == i128::from(moved);
            if !fed || changed.next().is_some() {
                return None;
            }
            feeds.push((leaf, s));
        }
        feeds.sort_unstable();
        if feeds.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let bytes = std::mem::size_of_val(tokens.as_slice());
        Some(ShapeAst { ast, feeds, bytes })
    }

    /// The AST `parse` gives for a point of this shape rendered with
    /// `slots`, patched in place. `None` when a value is past
    /// `i64::MAX`, where [`lex`] refuses the literal, or when the field
    /// a slot feeds refuses its value (say `unroll 0`), where the parser
    /// does; every patch writes every slot, so one refused leaves
    /// nothing behind that matters.
    pub fn patch(&mut self, slots: &[Slot]) -> Option<&Program> {
        debug_assert_eq!(slots.len(), self.feeds.len(), "another shape's slots");
        let mut feeds = self.feeds.iter().peekable();
        let (mut at, mut ok) = (0, true);
        self.ast.for_each_int_mut(&mut |mut leaf| {
            if let Some(&(_, s)) = feeds.next_if(|(l, _)| *l == at) {
                ok &= i64::try_from(slots[s].value).is_ok_and(|v| leaf.set(v).is_ok());
            }
            at += 1;
        });
        ok.then_some(&self.ast)
    }

    /// The bytes of the tokens the shape was parsed from: a measure of
    /// its AST's size.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Every integer leaf of `ast` with its field, in visiting order.
fn int_leaves(ast: &mut Program) -> Vec<(IntField, i128)> {
    let mut leaves = Vec::new();
    ast.for_each_int_mut(&mut |leaf| leaves.push((leaf.field, leaf.get())));
    leaves
}

/// Stable 128-bit digest of one rendered point source — the unit the
/// sweep journal checkpoints completion of.
pub fn point_digest(source: &str) -> u128 {
    let mut h = Fnv::new();
    h.str(source);
    h.finish()
}

/// Expand `template` against one configuration. Errors name the failing
/// directive.
pub fn render(template: &str, cfg: &Config) -> Result<String, String> {
    let names: Vec<&str> = cfg.keys().map(String::as_str).collect();
    let values: Vec<u64> = cfg.values().copied().collect();
    let mut out = String::new();
    Template::compile(template, &names)?.render_into(&values, &mut out, None);
    Ok(out)
}

/// A template compiled against an ordered parameter list: literal text
/// and directives whose operands are resolved to parameter positions,
/// so rendering a point scans nothing and looks nothing up.
#[derive(Debug)]
struct Template<'t> {
    pieces: Vec<Piece<'t>>,
}

#[derive(Debug)]
enum Piece<'t> {
    /// Template text between directives.
    Text(&'t str),
    /// `${p}` or `${7}`.
    Value(Operand),
    /// `${shrink:mem:...}`: the view line, when the pairs need one.
    Shrink { mem: &'t str, pairs: Vec<Pair> },
    /// `${access:mem:...}`: `mem`, or `mem_sh` under a shrink view.
    Access { mem: &'t str, pairs: Vec<Pair> },
}

/// A directive token: the value of a parameter, or an integer literal.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Param(usize),
    Literal(u64),
}

/// A `bank,unroll` pair of a `shrink`/`access` directive.
type Pair = (Operand, Operand);

impl Operand {
    fn value(self, values: &[u64]) -> u64 {
        match self {
            Operand::Param(i) => values[i],
            Operand::Literal(n) => n,
        }
    }
}

impl<'t> Template<'t> {
    /// Compile `template` against parameter `names`; a point's values
    /// are later given in the same order. The errors are [`render`]'s,
    /// naming the first failing directive.
    fn compile(template: &'t str, names: &[&str]) -> Result<Template<'t>, String> {
        let mut pieces = Vec::new();
        let mut rest = template;
        while let Some(pos) = rest.find("${") {
            if pos > 0 {
                pieces.push(Piece::Text(&rest[..pos]));
            }
            let after = &rest[pos + 2..];
            let Some(end) = after.find('}') else {
                return Err("unterminated `${` in template".to_string());
            };
            pieces.push(directive(&after[..end], names)?);
            rest = &after[end + 1..];
        }
        if !rest.is_empty() {
            pieces.push(Piece::Text(rest));
        }
        Ok(Template { pieces })
    }

    /// Append the template rendered at `values`, one per compiled
    /// parameter name, to `out`, recording each integer and decision in
    /// `slots` when given.
    fn render_into(&self, values: &[u64], out: &mut String, mut slots: Option<&mut Slots>) {
        for piece in &self.pieces {
            match piece {
                Piece::Text(text) => out.push_str(text),
                Piece::Value(op) => push_int(out, &mut slots, op.value(values)),
                Piece::Access { mem, pairs } => {
                    let shrunk = shrinks(resolve(pairs, values));
                    decide(&mut slots, shrunk);
                    out.push_str(mem);
                    if shrunk {
                        out.push_str("_sh");
                    }
                }
                Piece::Shrink { mem, pairs } => {
                    let shrunk = shrinks(resolve(pairs, values));
                    decide(&mut slots, shrunk);
                    if shrunk {
                        out.push_str("  view ");
                        out.push_str(mem);
                        out.push_str("_sh = shrink ");
                        out.push_str(mem);
                        for (b, u) in resolve(pairs, values) {
                            out.push_str("[by ");
                            push_int(out, &mut slots, b / u.max(1));
                            out.push(']');
                        }
                        out.push_str(";\n");
                    }
                }
            }
        }
    }
}

/// Append `v` in decimal, recording it as a slot when `slots` is given.
fn push_int(out: &mut String, slots: &mut Option<&mut Slots>, v: u64) {
    let start = out.len();
    push_u64(out, v);
    if let Some(slots) = slots {
        let end = out.len();
        slots.shape.push((end - start) as u8);
        slots.ints.push(Slot {
            start,
            end,
            value: v,
        });
    }
}

/// Record a `shrink`/`access` decision in the shape, when given.
fn decide(slots: &mut Option<&mut Slots>, shrunk: bool) {
    if let Some(slots) = slots {
        slots.shape.push(u8::from(shrunk));
    }
}

/// A directive's pairs at one point's values.
fn resolve<'a>(
    pairs: &'a [Pair],
    values: &'a [u64],
) -> impl Iterator<Item = (u64, u64)> + Clone + 'a {
    pairs
        .iter()
        .map(|&(b, u)| (b.value(values), u.value(values)))
}

/// Compile the directive between `${` and `}`.
fn directive<'t>(directive: &'t str, names: &[&str]) -> Result<Piece<'t>, String> {
    let parts: Vec<&str> = directive.split(':').collect();
    match parts.as_slice() {
        [token] => Ok(Piece::Value(operand(token, names)?)),
        [kind @ ("shrink" | "access"), mem, rest @ ..] if !rest.is_empty() => {
            let mut pairs = Vec::with_capacity(rest.len());
            for part in rest {
                let Some((b, u)) = part.split_once(',') else {
                    return Err(format!("malformed `bank,unroll` pair `{part}` in template"));
                };
                pairs.push((operand(b.trim(), names)?, operand(u.trim(), names)?));
            }
            Ok(if *kind == "access" {
                Piece::Access { mem, pairs }
            } else {
                Piece::Shrink { mem, pairs }
            })
        }
        _ => Err(format!("malformed template directive `${{{directive}}}`")),
    }
}

/// A directive token: an integer literal, or a parameter reference.
fn operand(token: &str, names: &[&str]) -> Result<Operand, String> {
    if let Ok(n) = token.parse::<u64>() {
        return Ok(Operand::Literal(n));
    }
    names
        .iter()
        .position(|n| *n == token)
        .map(Operand::Param)
        .ok_or_else(|| format!("unknown parameter `{token}` in template"))
}

/// Append `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Whether a shrink view is needed (and legal) for these resolved
/// `(banking, unroll)` pairs: direct access when every unroll covers its
/// banking (or banking is 1); no view when some unroll does not divide
/// its banking (the checker rejects that configuration, which is part of
/// the experiment).
fn shrinks(mut pairs: impl Iterator<Item = (u64, u64)> + Clone) -> bool {
    let direct = pairs.clone().all(|(b, u)| b == u.min(b) || b == 1);
    let divisible = pairs.all(|(b, u)| {
        let u = u.max(1);
        u <= b && b % u == 0
    });
    !direct && divisible
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pairs: &[(&str, u64)]) -> Config {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// The paper's 32,000-point Fig. 7 gemm-blocked sweep.
    fn fig7() -> SweepSpec {
        SweepSpec {
            name: "gemm-blocked".to_string(),
            template: dahlia_kernels::gemm::gemm_blocked_template(128, 8),
            params: dahlia_kernels::gemm::GEMM_BLOCKED_AXES
                .iter()
                .map(|(n, vs)| (n.to_string(), vs.to_vec()))
                .collect(),
            stage: "est".to_string(),
            stride: 1,
        }
    }

    #[test]
    fn every_fig7_point_renders_the_bytes_its_journal_names() {
        // One fold over the digest of every rendered point: any changed
        // byte of any point changes it, and with it the identity that
        // resuming an older journal depends on.
        const PINNED: u128 = 0x6d48_98f1_5962_5f30_6abe_d943_7cce_8598;
        fn fold(digests: impl Iterator<Item = u128>) -> u128 {
            let mut h = Fnv::new();
            for d in digests {
                h.u64(d as u64).u64((d >> 64) as u64);
            }
            h.finish()
        }
        let spec = fig7();
        let rendered = spec
            .points()
            .into_iter()
            .map(|cfg| point_digest(&render(&spec.template, &cfg).unwrap()));
        assert_eq!(fold(rendered), PINNED);
        let plan = spec.plan().unwrap();
        let mut values = vec![0; spec.params.len()];
        let mut source = String::new();
        let planned = (0..plan.count()).map(|n| {
            plan.decode(n, &mut values);
            plan.render(&values, &mut source);
            point_digest(&source)
        });
        assert_eq!(fold(planned), PINNED);
    }

    #[test]
    fn plan_renders_and_keys_each_point_as_its_config_does() {
        // Declared out of name order, strided, with a literal operand.
        let spec = SweepSpec {
            name: "k".to_string(),
            template: "${u}:${b}\n${shrink:A:b,u:4,2}x=${access:A:b,u:4,2}[${7}]".to_string(),
            params: vec![
                ("u".to_string(), vec![1, 2, 4]),
                ("b".to_string(), vec![4, 1, 2]),
            ],
            stage: "est".to_string(),
            stride: 2,
        };
        let plan = spec.plan().unwrap();
        let mut values = vec![0; 2];
        let mut source = String::new();
        let configs = spec.points();
        assert_eq!(plan.count(), configs.len() as u64);
        for (n, cfg) in configs.iter().enumerate() {
            plan.decode(n as u64, &mut values);
            plan.render(&values, &mut source);
            assert_eq!(source, render(&spec.template, cfg).unwrap());
            let key: Vec<String> = cfg.iter().map(|(k, v)| format!("{k}={v}")).collect();
            assert_eq!(plan.key(&values), key.join(","));
        }
    }

    #[test]
    fn slots_locate_every_integer_and_shapes_fix_the_bytes_around_them() {
        // Values, a literal and shrink factors, one and two digits wide.
        let spec = SweepSpec {
            name: "k".to_string(),
            template: "${u}:${b}\n${shrink:A:b,u:4,2}x=${access:A:b,u:4,2}[${7}]".to_string(),
            params: vec![
                ("u".to_string(), vec![1, 2, 4, 16]),
                ("b".to_string(), vec![4, 1, 2, 32, 64]),
            ],
            stage: "est".to_string(),
            stride: 1,
        };
        let plan = spec.plan().unwrap();
        let mut values = vec![0; 2];
        let (mut plain, mut source, mut slots) = (String::new(), String::new(), Slots::default());
        let mut shapes = std::collections::HashMap::new();
        for n in 0..plan.count() {
            plan.decode(n, &mut values);
            plan.render(&values, &mut plain);
            plan.render_slots(&values, &mut source, &mut slots);
            assert_eq!(source, plain);
            // Every integer written is a slot: blank them all and no
            // digit is left.
            let mut masked = source.clone().into_bytes();
            for slot in &slots.ints {
                assert_eq!(source[slot.start..slot.end], slot.value.to_string());
                masked[slot.start..slot.end].fill(b'#');
            }
            assert!(!masked.iter().any(u8::is_ascii_digit), "{source}");
            let shrunk = source.contains("view");
            assert_eq!(slots.ints.len(), if shrunk { 5 } else { 3 }, "{source}");
            // One shape, one text around its slots.
            let first = shapes.entry(slots.shape.clone()).or_insert(masked.clone());
            assert_eq!(*first, masked, "{source}");
        }
        assert!(shapes.len() > 4 && shapes.len() < 20, "{}", shapes.len());
    }

    #[test]
    fn compiled_templates_keep_the_renderers_messages() {
        let err = |t: &str| Template::compile(t, &["b"]).unwrap_err();
        assert_eq!(err("${missing}"), "unknown parameter `missing` in template");
        assert_eq!(err("a ${b} ${x"), "unterminated `${` in template");
        assert_eq!(
            err("${shrink:A}"),
            "malformed template directive `${shrink:A}`"
        );
        assert_eq!(
            err("${access:A:b}"),
            "malformed `bank,unroll` pair `b` in template"
        );
    }

    #[test]
    fn strided_plan_matches_the_odometer_walk() {
        for stride in [1, 2, 3, 7, 11, 100] {
            let spec = SweepSpec {
                name: "k".to_string(),
                template: "${a} ${b} ${c}".to_string(),
                params: vec![
                    ("a".to_string(), vec![1, 2, 3]),
                    ("b".to_string(), vec![10, 20]),
                    ("c".to_string(), vec![5, 6, 7, 8]),
                ],
                stage: "est".to_string(),
                stride,
            };
            let space = spec
                .params
                .iter()
                .fold(crate::ParamSpace::new(), |s, (n, vs)| {
                    s.param(n, vs.clone())
                });
            let walked: Vec<Config> = space.iter().step_by(stride.max(1) as usize).collect();
            assert_eq!(spec.points(), walked, "stride {stride}");
        }
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            name: "k".to_string(),
            template: "decl A: float[8 bank ${b}];\n${shrink:A:b,u}let x = \
                       ${access:A:b,u}[0];\n"
                .to_string(),
            params: vec![
                ("b".to_string(), vec![1, 2, 4]),
                ("u".to_string(), vec![1, 2]),
            ],
            stage: "est".to_string(),
            stride: 1,
        }
    }

    #[test]
    fn values_substitute_and_literals_pass() {
        let c = cfg(&[("b", 4), ("u", 4)]);
        assert_eq!(render("x${b}y${7}z", &c).unwrap(), "x4y7z");
    }

    #[test]
    fn shrink_directive_matches_generator_modes() {
        // Matched: direct access, no view.
        let c = cfg(&[("b", 4), ("u", 4)]);
        let src = render(&spec().template, &c).unwrap();
        assert!(!src.contains("shrink"));
        assert!(src.contains("let x = A[0]"));
        // Proper divisor: view + suffixed access.
        let c = cfg(&[("b", 4), ("u", 2)]);
        let src = render(&spec().template, &c).unwrap();
        assert!(src.contains("  view A_sh = shrink A[by 2];\n"));
        assert!(src.contains("let x = A_sh[0]"));
        // Non-divisor: leave the mismatch for the checker.
        let c = cfg(&[("b", 4), ("u", 3)]);
        let src = render(&spec().template, &c).unwrap();
        assert!(!src.contains("shrink"));
        assert!(src.contains("let x = A[0]"));
    }

    #[test]
    fn errors_name_the_directive() {
        let c = cfg(&[("b", 1)]);
        assert!(render("${missing}", &c).unwrap_err().contains("missing"));
        assert!(render("${x", &c).unwrap_err().contains("unterminated"));
        assert!(render("${shrink:A}", &c).unwrap_err().contains("shrink:A"));
        assert!(render("${shrink:A:b}", &c)
            .unwrap_err()
            .contains("bank,unroll"));
    }

    #[test]
    fn points_respect_stride_and_order() {
        let s = spec();
        assert_eq!(s.points().len(), 6);
        let strided = SweepSpec { stride: 2, ..s };
        let pts = strided.points();
        assert_eq!(pts.len(), 3);
        // Last param varies fastest; stride 2 keeps (1,1) (2,1) (4,1).
        assert_eq!(pts[0]["b"], 1);
        assert_eq!(pts[1]["b"], 2);
        assert_eq!(pts[2]["b"], 4);
        assert!(pts.iter().all(|p| p["u"] == 1));
    }

    #[test]
    fn digests_are_stable_and_sensitive() {
        let a = spec().digest();
        assert_eq!(a, spec().digest());
        let mut other = spec();
        other.stride = 2;
        assert_ne!(a, other.digest());
        assert_ne!(point_digest("x"), point_digest("y"));
    }

    #[test]
    fn validate_catches_bad_specs() {
        assert!(spec().validate().is_ok());
        let mut bad = spec();
        bad.params.clear();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.stride = 0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.params.push(("b".to_string(), vec![1]));
        assert!(bad.validate().unwrap_err().contains("duplicate"));
        let mut bad = spec();
        bad.template = "${nope}".to_string();
        assert!(bad.validate().unwrap_err().contains("nope"));
    }

    #[test]
    fn validate_refuses_a_space_past_u64() {
        // 2^16 values on each of four axes: 2^64 points, one too many.
        let mut bad = spec();
        bad.template = "${a}".to_string();
        bad.params = ["a", "b", "c", "d"]
            .iter()
            .map(|n| (n.to_string(), (0..1u64 << 16).collect()))
            .collect();
        assert_eq!(bad.total(), None);
        assert!(bad.validate().unwrap_err().contains("2^64"));
    }

    #[test]
    fn validate_bounds_the_plan_before_planning() {
        // 10^9 points of a ~12 KB template: ~12 TB planned.
        let axis = |n: &str| (n.to_string(), (1..=1000).collect::<Vec<u64>>());
        let mut big = SweepSpec {
            name: "k".to_string(),
            template: format!("${{a}} ${{b}} ${{c}}{}", " ".repeat(12_000)),
            params: vec![axis("a"), axis("b"), axis("c")],
            stage: "est".to_string(),
            stride: 1,
        };
        let err = big.validate().unwrap_err();
        assert!(err.contains("1000000000 points"), "{err}");
        assert!(err.contains(&format!("{PLAN_BUDGET_BYTES}-byte")), "{err}");
        // Striding the same space under the budget makes it valid:
        // 10^9 / 10^5 = 10^4 points × ~12.3 KB ≈ 123 MB.
        big.stride = 100_000;
        assert!(big.validate().is_ok());
        assert_eq!(big.points().len(), 10_000);
    }
}
