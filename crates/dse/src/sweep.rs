//! Cluster sweep planning: the pure (JSON-free) half of the `sweep`
//! protocol op.
//!
//! A [`SweepSpec`] carries a *source template* plus the parameter space
//! to instantiate it over. [`render`] expands one configuration into
//! concrete Dahlia source; the gateway scatters the rendered points
//! across shards and folds the estimates through a
//! [`ParetoFront`](crate::ParetoFront). Everything here is
//! deterministic — same spec, same point order, same digests — which is
//! what makes the crash-safe sweep journal replayable: a resumed sweep
//! re-plans the identical point list and skips the digests already
//! journaled.
//!
//! # Template language
//!
//! Three `${...}` directive forms, everything else passed through
//! verbatim:
//!
//! * `${p}` — the decimal value of parameter `p` in the configuration
//!   (integer literals are also accepted where a parameter may appear).
//! * `${shrink:mem:b1,u1:b2,u2:...}` — emits a
//!   `  view mem_sh = shrink mem[by b/u]...;\n` line when every
//!   banking/unroll pair needs (and permits) a shrink view, or nothing
//!   otherwise — the [`needs_shrink`] decision, which the kernel
//!   generators' `shrink_if_needed` helper also makes.
//! * `${access:mem:b1,u1:b2,u2:...}` — emits `mem_sh` or `mem` to match
//!   whichever the paired `${shrink:...}` directive produced.

use crate::space::{Config, ParamSpace};
use hls_sim::Fnv;

/// The most memory a sweep plan may take: the rendered points plus
/// [`PLAN_POINT_OVERHEAD`] bytes of bookkeeping each. A gateway holds the
/// whole plan before the first dispatch, so [`SweepSpec::validate`]
/// refuses a larger one up front.
const PLAN_BUDGET_BYTES: u64 = 256 << 20;

/// Per-point plan bookkeeping beyond the rendered source (keys, digest,
/// configuration), as charged against [`PLAN_BUDGET_BYTES`].
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
    /// The parameter space this spec enumerates.
    ///
    /// Panics on duplicate or empty parameters, mirroring
    /// [`ParamSpace::param`]; wire-facing callers validate first via
    /// [`SweepSpec::validate`].
    pub fn space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        for (name, values) in &self.params {
            s = s.param(name, values.clone());
        }
        s
    }

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
        // Render against the first configuration to surface template
        // errors (unknown parameters, malformed directives) up front.
        let first = self
            .space()
            .iter()
            .next()
            .expect("non-empty params imply a non-empty space");
        let source = render(&self.template, &first)?;
        let planned = total.div_ceil(self.stride);
        let bytes = u128::from(planned) * u128::from(source.len() as u64 + PLAN_POINT_OVERHEAD);
        if bytes > u128::from(PLAN_BUDGET_BYTES) {
            return Err(format!(
                "the sweep plans {planned} points in about {bytes} bytes, \
                 over the {PLAN_BUDGET_BYTES}-byte plan budget"
            ));
        }
        Ok(())
    }

    /// The planned point list: every `stride`-th configuration of the
    /// space, in enumeration order (last parameter fastest — identical
    /// to `self.space().iter().step_by(stride)`).
    ///
    /// Kept indices are decoded directly from their mixed-radix
    /// representation, so planning a strided slice costs
    /// O(points × axes) rather than a walk over the whole space — at
    /// the paper's 32,000-point space with a coarse stride, the plan
    /// is what the sweep op pays before the first request leaves the
    /// gateway.
    ///
    /// Panics if the space has more than 2^64 points; wire-facing
    /// callers validate first via [`SweepSpec::validate`], which also
    /// bounds the plan's size.
    pub fn points(&self) -> Vec<Config> {
        let total = self.total().expect("the parameter space overflows u64");
        let stride = self.stride.max(1);
        let mut out = Vec::with_capacity(total.div_ceil(stride) as usize);
        let mut idx = 0u64;
        while idx < total {
            let mut rem = idx;
            let mut cfg = Config::new();
            for (name, vs) in self.params.iter().rev() {
                let radix = vs.len() as u64;
                cfg.insert(name.clone(), vs[(rem % radix) as usize]);
                rem /= radix;
            }
            out.push(cfg);
            let Some(next) = idx.checked_add(stride) else {
                break;
            };
            idx = next;
        }
        out
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
    let mut out = String::new();
    let mut rest = template;
    while let Some(pos) = rest.find("${") {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + 2..];
        let Some(end) = after.find('}') else {
            return Err("unterminated `${` in template".to_string());
        };
        expand(&after[..end], cfg, &mut out)?;
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// A directive token: a parameter reference or an integer literal.
fn resolve(token: &str, cfg: &Config) -> Result<u64, String> {
    if let Ok(n) = token.parse::<u64>() {
        return Ok(n);
    }
    cfg.get(token)
        .copied()
        .ok_or_else(|| format!("unknown parameter `{token}` in template"))
}

/// The banking/unroll pairs of a `shrink`/`access` directive, resolved.
fn resolve_pairs(parts: &[&str], cfg: &Config) -> Result<Vec<(u64, u64)>, String> {
    let mut pairs = Vec::with_capacity(parts.len());
    for part in parts {
        let Some((b, u)) = part.split_once(',') else {
            return Err(format!("malformed `bank,unroll` pair `{part}` in template"));
        };
        pairs.push((resolve(b.trim(), cfg)?, resolve(u.trim(), cfg)?));
    }
    Ok(pairs)
}

/// Whether a shrink view is needed (and legal) for these
/// `(banking, unroll)` pairs — the one decision behind both this
/// renderer and the kernel generators' `shrink_if_needed`: direct
/// access when every unroll covers its banking (or banking is 1); no
/// view when some unroll does not divide its banking (the checker
/// rejects that configuration, which is part of the experiment).
pub fn needs_shrink(pairs: &[(u64, u64)]) -> bool {
    let direct = pairs.iter().all(|(b, u)| *b == (*u).min(*b) || *b == 1);
    let divisible = pairs.iter().all(|(b, u)| {
        let u = (*u).max(1);
        u <= *b && b % u == 0
    });
    !direct && divisible
}

fn expand(directive: &str, cfg: &Config, out: &mut String) -> Result<(), String> {
    let parts: Vec<&str> = directive.split(':').collect();
    match parts.as_slice() {
        [token] => {
            out.push_str(&resolve(token, cfg)?.to_string());
            Ok(())
        }
        [kind @ ("shrink" | "access"), mem, rest @ ..] if !rest.is_empty() => {
            let pairs = resolve_pairs(rest, cfg)?;
            let shrunk = needs_shrink(&pairs);
            if *kind == "access" {
                out.push_str(mem);
                if shrunk {
                    out.push_str("_sh");
                }
            } else if shrunk {
                let factors: String = pairs
                    .iter()
                    .map(|(b, u)| format!("[by {}]", b / (*u).max(1)))
                    .collect();
                out.push_str(&format!("  view {mem}_sh = shrink {mem}{factors};\n"));
            }
            Ok(())
        }
        _ => Err(format!("malformed template directive `${{{directive}}}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pairs: &[(&str, u64)]) -> Config {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
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
            let walked: Vec<Config> = spec
                .space()
                .iter()
                .step_by(stride.max(1) as usize)
                .collect();
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
