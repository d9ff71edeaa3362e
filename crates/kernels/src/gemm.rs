//! `gemm-blocked` (Fig. 10 — the exhaustive-DSE case study) and
//! `gemm-ncubed`.
//!
//! The blocked kernel is the paper's §5.2 subject: three 2-D matrices,
//! five nested loops (block coordinates `jj`/`kk`, then `i`/`j`/`k`), four
//! free banking parameters (the two operand matrices' two dimensions) and
//! three unroll factors. The Dahlia port uses *aligned suffix views* for
//! the block windows and *shrink views* when an unroll factor properly
//! divides a banking factor — exactly the idioms §3.6 introduces.

use std::collections::HashMap;

use dahlia_core::interp::Value;
use hls_sim::{Access, ArrayDecl, Idx, Kernel, Loop, Op, OpKind};

use crate::{float_input, render_at, Bench, Prng};

/// Parameters of the blocked GEMM design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBlockedParams {
    /// Matrix dimension (paper: 128; tests: 16).
    pub n: u64,
    /// Block size (paper: 8).
    pub block: u64,
    /// Banking of `m1` (dim 1, dim 2).
    pub bank_m1: (u64, u64),
    /// Banking of `m2` (dim 1, dim 2).
    pub bank_m2: (u64, u64),
    /// Unroll factors of the `i`, `j`, `k` loops.
    pub unroll: (u64, u64, u64),
}

impl GemmBlockedParams {
    /// A small configuration suitable for interpretation.
    pub fn small() -> Self {
        GemmBlockedParams {
            n: 16,
            block: 4,
            bank_m1: (2, 2),
            bank_m2: (2, 2),
            unroll: (2, 2, 2),
        }
    }
}

/// The seven free parameters of the Fig. 7 design space, in
/// enumeration order (the last varies fastest): the operand matrices'
/// four banking factors over 1..=4 and the `i`/`j`/`k` unroll factors
/// over {1, 2, 4, 6, 8} — 32,000 points. The names are
/// [`gemm_blocked_template`]'s parameters.
pub const GEMM_BLOCKED_AXES: [(&str, &[u64]); 7] = [
    ("bank_m1_d1", &[1, 2, 3, 4]),
    ("bank_m1_d2", &[1, 2, 3, 4]),
    ("bank_m2_d1", &[1, 2, 3, 4]),
    ("bank_m2_d2", &[1, 2, 3, 4]),
    ("unroll_i", &[1, 2, 4, 6, 8]),
    ("unroll_j", &[1, 2, 4, 6, 8]),
    ("unroll_k", &[1, 2, 4, 6, 8]),
];

/// Generate the Dahlia source for a blocked-GEMM configuration: the
/// [`gemm_blocked_template`] rendered at `p`, so local exploration and a
/// cluster sweep over the template hit the same content-addressed cache
/// keys.
///
/// The product matrix is banked to match the `i`/`j` unroll factors (the
/// natural choice a Dahlia programmer makes; the paper's four free banking
/// parameters cover the operand matrices).
pub fn gemm_blocked_source(p: &GemmBlockedParams) -> String {
    let (m1, m2, u) = (p.bank_m1, p.bank_m2, p.unroll);
    render_at(
        &gemm_blocked_template(p.n, p.block),
        GEMM_BLOCKED_AXES.map(|(name, _)| name),
        [m1.0, m1.1, m2.0, m2.1, u.0, u.1, u.2],
    )
}

/// The blocked-GEMM source as a sweep template (`dse::sweep::render`
/// directive syntax) over the [`GEMM_BLOCKED_AXES`]. Shrink views come
/// from the `${shrink:...}` directive.
pub fn gemm_blocked_template(n: u64, block: u64) -> String {
    let blocks = n / block;
    format!(
        "decl m1: float[{n} bank ${{bank_m1_d1}}][{n} bank ${{bank_m1_d2}}];
decl m2: float[{n} bank ${{bank_m2_d1}}][{n} bank ${{bank_m2_d2}}];
decl prod: float[{n} bank ${{unroll_i}}][{n} bank ${{unroll_j}}];
for (let jj = 0..{blocks}) {{
  for (let kk = 0..{blocks}) {{
    view m1v = suffix m1[by 0][by {block}*kk];
    view m2v = suffix m2[by {block}*kk][by {block}*jj];
    view pv = suffix prod[by 0][by {block}*jj];
${{shrink:m1v:bank_m1_d1,unroll_i:bank_m1_d2,unroll_k}}\
${{shrink:m2v:bank_m2_d1,unroll_k:bank_m2_d2,unroll_j}}    for (let i = 0..{n}) unroll ${{unroll_i}} {{
      for (let j = 0..{block}) unroll ${{unroll_j}} {{
        for (let k = 0..{block}) unroll ${{unroll_k}} {{
          let mul = ${{access:m1v:bank_m1_d1,unroll_i:bank_m1_d2,unroll_k}}[i][k] * \
${{access:m2v:bank_m2_d1,unroll_k:bank_m2_d2,unroll_j}}[k][j];
        }} combine {{
          pv[i][j] += mul;
        }}
      }}
    }}
  }}
}}
"
    )
}

/// Reference blocked matrix multiply (row-major `n×n`).
pub fn gemm_blocked_reference(n: usize, block: usize, m1: &[f64], m2: &[f64]) -> Vec<f64> {
    let mut prod = vec![0.0; n * n];
    let blocks = n / block;
    for jj in 0..blocks {
        for kk in 0..blocks {
            for i in 0..n {
                for j in 0..block {
                    for k in 0..block {
                        let kx = block * kk + k;
                        let jx = block * jj + j;
                        prod[i * n + jx] += m1[i * n + kx] * m2[kx * n + jx];
                    }
                }
            }
        }
    }
    prod
}

/// The baseline `gemm-blocked` in the HLS IR (mirrors the Fig. 10 C code;
/// the block offset `8·kk` shifts banks by a multiple of the partition
/// factor, so the per-dimension patterns use the innermost iterator).
pub fn gemm_blocked_baseline(p: &GemmBlockedParams) -> Kernel {
    let GemmBlockedParams {
        n,
        block,
        bank_m1,
        bank_m2,
        unroll,
    } = *p;
    let blocks = n / block;
    let body = Loop::new("k", block)
        .unrolled(unroll.2)
        .stmt(
            Op::compute(OpKind::FMul)
                .read(Access::new("m1", vec![Idx::var("i"), Idx::var("k")]))
                .read(Access::new("m2", vec![Idx::var("k"), Idx::var("j")]))
                .into_stmt(),
        )
        .stmt(
            Op::compute(OpKind::FAdd)
                .read(Access::new("prod", vec![Idx::var("i"), Idx::var("j")]))
                .write(Access::new("prod", vec![Idx::var("i"), Idx::var("j")]))
                .into_stmt(),
        );
    let nest = Loop::new("jj", blocks).stmt(
        Loop::new("kk", blocks)
            .stmt(
                Loop::new("i", n)
                    .unrolled(unroll.0)
                    .stmt(
                        Loop::new("j", block)
                            .unrolled(unroll.1)
                            .stmt(body.into_stmt())
                            .into_stmt(),
                    )
                    .into_stmt(),
            )
            .into_stmt(),
    );
    Kernel::new("gemm-blocked")
        .array(ArrayDecl::new("m1", 32, &[n, n]).partitioned(&[bank_m1.0, bank_m1.1]))
        .array(ArrayDecl::new("m2", 32, &[n, n]).partitioned(&[bank_m2.0, bank_m2.1]))
        .array(ArrayDecl::new("prod", 32, &[n, n]).partitioned(&[unroll.0, unroll.1]))
        .stmt(nest.into_stmt())
}

/// Default `gemm-blocked` benchmark entry (paper-size, modest parallelism).
pub fn gemm_blocked_bench() -> Bench {
    let p = GemmBlockedParams {
        n: 128,
        block: 8,
        bank_m1: (2, 2),
        bank_m2: (2, 2),
        unroll: (2, 2, 2),
    };
    Bench {
        name: "gemm-blocked",
        source: gemm_blocked_source(&p),
        baseline: gemm_blocked_baseline(&p),
    }
}

// --------------------------------------------------------------- ncubed

/// Parameters for `gemm-ncubed`: the classic triple loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmNcubedParams {
    /// Matrix dimension.
    pub n: u64,
    /// Banking of the reduction (k) dimension of both operands.
    pub bank: u64,
    /// Unroll of the inner k loop.
    pub unroll: u64,
}

/// Dahlia source for `gemm-ncubed`: the [`gemm_ncubed_template`]
/// rendered at `p`.
pub fn gemm_ncubed_source(p: &GemmNcubedParams) -> String {
    render_at(
        &gemm_ncubed_template(p.n),
        ["bank", "unroll"],
        [p.bank, p.unroll],
    )
}

/// The `gemm-ncubed` source as a template over `bank` (the reduction
/// dimension's banking in both operands) and `unroll` (the `k` loop's
/// unroll factor).
pub fn gemm_ncubed_template(n: u64) -> String {
    format!(
        "decl m1: float[{n}][{n} bank ${{bank}}];
decl m2: float[{n} bank ${{bank}}][{n}];
decl prod: float[{n}][{n}];
${{shrink:m1:1,1:bank,unroll}}${{shrink:m2:bank,unroll:1,1}}for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    let sum = 0.0;
    for (let k = 0..{n}) unroll ${{unroll}} {{
      let mul = ${{access:m1:1,1:bank,unroll}}[i][k] * ${{access:m2:bank,unroll:1,1}}[k][j];
    }} combine {{
      sum += mul;
    }}
    ---
    prod[i][j] := sum;
  }}
}}
"
    )
}

/// Reference n³ matrix multiply.
pub fn gemm_ncubed_reference(n: usize, m1: &[f64], m2: &[f64]) -> Vec<f64> {
    let mut prod = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut sum = 0.0;
            for k in 0..n {
                sum += m1[i * n + k] * m2[k * n + j];
            }
            prod[i * n + j] = sum;
        }
    }
    prod
}

/// Baseline `gemm-ncubed` in the HLS IR.
pub fn gemm_ncubed_baseline(p: &GemmNcubedParams) -> Kernel {
    let GemmNcubedParams { n, bank, unroll } = *p;
    let inner = Loop::new("k", n)
        .unrolled(unroll)
        .stmt(
            Op::compute(OpKind::FMul)
                .read(Access::new("m1", vec![Idx::var("i"), Idx::var("k")]))
                .read(Access::new("m2", vec![Idx::var("k"), Idx::var("j")]))
                .into_stmt(),
        )
        .stmt(Op::compute(OpKind::FAdd).into_stmt());
    let nest = Loop::new("i", n).stmt(
        Loop::new("j", n)
            .stmt(inner.into_stmt())
            .stmt(
                Op::compute(OpKind::Copy)
                    .write(Access::new("prod", vec![Idx::var("i"), Idx::var("j")]))
                    .into_stmt(),
            )
            .into_stmt(),
    );
    Kernel::new("gemm-ncubed")
        .array(ArrayDecl::new("m1", 32, &[n, n]).partitioned(&[1, bank]))
        .array(ArrayDecl::new("m2", 32, &[n, n]).partitioned(&[bank, 1]))
        .array(ArrayDecl::new("prod", 32, &[n, n]))
        .stmt(nest.into_stmt())
}

/// Default `gemm-ncubed` benchmark entry.
pub fn gemm_ncubed_bench() -> Bench {
    let p = GemmNcubedParams {
        n: 128,
        bank: 2,
        unroll: 2,
    };
    Bench {
        name: "gemm-ncubed",
        source: gemm_ncubed_source(&p),
        baseline: gemm_ncubed_baseline(&p),
    }
}

/// Inputs for an interpretation run of either GEMM.
pub fn gemm_inputs(n: usize, seed: u64) -> (HashMap<String, Vec<Value>>, Vec<f64>, Vec<f64>) {
    let mut rng = Prng::new(seed);
    let m1 = float_input(&mut rng, n * n);
    let m2 = float_input(&mut rng, n * n);
    let m1f: Vec<f64> = m1.iter().map(|v| v.as_f64()).collect();
    let m2f: Vec<f64> = m2.iter().map(|v| v.as_f64()).collect();
    let inputs = HashMap::from([("m1".to_string(), m1), ("m2".to_string(), m2)]);
    (inputs, m1f, m2f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_floats_match, parse_and_check, run_checked};
    use dahlia_dse::accepts;

    #[test]
    fn blocked_small_is_accepted_and_correct() {
        let p = GemmBlockedParams::small();
        let src = gemm_blocked_source(&p);
        parse_and_check(&src);
        let (inputs, m1, m2) = gemm_inputs(p.n as usize, 7);
        let out = run_checked(&src, &inputs);
        let want = gemm_blocked_reference(p.n as usize, p.block as usize, &m1, &m2);
        assert_floats_match("prod", &out.mems["prod"], &want, 1e-9);
    }

    #[test]
    fn blocked_with_shrink_views_is_correct() {
        // Unroll below banking exercises the shrink path.
        let p = GemmBlockedParams {
            n: 16,
            block: 4,
            bank_m1: (4, 4),
            bank_m2: (4, 4),
            unroll: (2, 2, 2),
        };
        let src = gemm_blocked_source(&p);
        assert!(src.contains("shrink"), "{src}");
        let (inputs, m1, m2) = gemm_inputs(16, 11);
        let out = run_checked(&src, &inputs);
        let want = gemm_blocked_reference(16, 4, &m1, &m2);
        assert_floats_match("prod", &out.mems["prod"], &want, 1e-9);
    }

    #[test]
    fn mismatched_unroll_rejected() {
        // The paper's Fig. 4b pitfall is a *type error* in Dahlia.
        let p = GemmBlockedParams {
            n: 16,
            block: 4,
            bank_m1: (2, 4),
            bank_m2: (4, 2),
            unroll: (1, 1, 3),
        };
        assert!(!accepts(&gemm_blocked_source(&p)));
    }

    #[test]
    fn ncubed_correct() {
        let p = GemmNcubedParams {
            n: 8,
            bank: 2,
            unroll: 2,
        };
        let src = gemm_ncubed_source(&p);
        let (inputs, m1, m2) = gemm_inputs(8, 13);
        let out = run_checked(&src, &inputs);
        let want = gemm_ncubed_reference(8, &m1, &m2);
        assert_floats_match("prod", &out.mems["prod"], &want, 1e-9);
    }

    #[test]
    fn ncubed_sequential_also_correct() {
        let p = GemmNcubedParams {
            n: 8,
            bank: 1,
            unroll: 1,
        };
        let src = gemm_ncubed_source(&p);
        let (inputs, m1, m2) = gemm_inputs(8, 17);
        let out = run_checked(&src, &inputs);
        let want = gemm_ncubed_reference(8, &m1, &m2);
        assert_floats_match("prod", &out.mems["prod"], &want, 1e-9);
    }

    #[test]
    fn paper_unwritten_rules_hold_in_acceptance() {
        // unroll | banking and banking | size ⇒ accepted (via shrink);
        // violations ⇒ rejected.
        for (bank, unroll, expect) in [
            (4, 4, true),
            (4, 2, true),
            (4, 3, false),
            (2, 4, false),
            (3, 3, false),
        ] {
            let p = GemmNcubedParams {
                n: 16,
                bank,
                unroll,
            };
            assert_eq!(
                accepts(&gemm_ncubed_source(&p)),
                expect,
                "bank {bank} unroll {unroll}"
            );
        }
    }
}
