//! `stencil2d` (the Fig. 8a DSE subject) and `stencil3d`.
//!
//! The 2-D port uses the paper's own idiom (§5.3): a *shift view* gives a
//! logical window over the input so the inner 3×3 loops can unroll, and the
//! storage format stays decoupled from the iteration pattern. Grid sizes
//! are chosen divisible by 2, 3 and 6 so the banking sweep {1..6} has
//! non-trivial accepted points (MachSuite's 128×64 admits no factor-3
//! banking; see EXPERIMENTS.md).

use std::collections::HashMap;

use dahlia_core::interp::Value;
use hls_sim::{Access, ArrayDecl, Idx, Kernel, Loop, Op, OpKind};

use crate::{float_input, render_at, Bench, Prng};

/// Parameters of the stencil2d design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stencil2dParams {
    /// Grid rows (default 126).
    pub rows: u64,
    /// Grid cols (default 66).
    pub cols: u64,
    /// Banking of the input grid (per dimension).
    pub bank_orig: (u64, u64),
    /// Banking of the 3×3 filter (per dimension).
    pub bank_filter: (u64, u64),
    /// Unroll of the two inner (filter) loops.
    pub unroll: (u64, u64),
}

impl Stencil2dParams {
    /// Interpreter-friendly size.
    pub fn small() -> Self {
        Stencil2dParams {
            rows: 12,
            cols: 12,
            bank_orig: (3, 3),
            bank_filter: (3, 3),
            unroll: (3, 3),
        }
    }
}

/// The Fig. 8a axes (last fastest, 2,916 points): grid and filter
/// banking, filter-loop unrolls; [`stencil2d_template`]'s parameters.
pub const STENCIL2D_AXES: [(&str, &[u64]); 6] = [
    ("bank_r", &[1, 2, 3, 4, 5, 6]),
    ("bank_c", &[1, 2, 3, 4, 5, 6]),
    ("bank_f1", &[1, 2, 3]),
    ("bank_f2", &[1, 2, 3]),
    ("unroll_1", &[1, 2, 3]),
    ("unroll_2", &[1, 2, 3]),
];

/// Dahlia source for a stencil2d configuration: the
/// [`stencil2d_template`] rendered at `p`.
pub fn stencil2d_source(p: &Stencil2dParams) -> String {
    let (o, f, u) = (p.bank_orig, p.bank_filter, p.unroll);
    render_at(
        &stencil2d_template(p.rows, p.cols),
        STENCIL2D_AXES.map(|(name, _)| name),
        [o.0, o.1, f.0, f.1, u.0, u.1],
    )
}

/// The stencil2d source as a template over the [`STENCIL2D_AXES`]; the
/// filter and the shifted window shrink below their banking.
pub fn stencil2d_template(rows: u64, cols: u64) -> String {
    let (r_out, c_out) = (rows - 2, cols - 2);
    let filter = "filter:bank_f1,unroll_1:bank_f2,unroll_2";
    let window = "w:bank_r,unroll_1:bank_c,unroll_2";
    format!(
        "decl orig: float[{rows} bank ${{bank_r}}][{cols} bank ${{bank_c}}];
decl sol: float[{rows}][{cols}];
decl filter: float[3 bank ${{bank_f1}}][3 bank ${{bank_f2}}];
${{shrink:{filter}}}for (let r = 0..{r_out}) {{
  for (let c = 0..{c_out}) {{
    view w = shift orig[by r][by c];
${{shrink:{window}}}    let acc = 0.0;
    for (let k1 = 0..3) unroll ${{unroll_1}} {{
      for (let k2 = 0..3) unroll ${{unroll_2}} {{
        let mul = ${{access:{filter}}}[k1][k2] * ${{access:{window}}}[k1][k2];
      }} combine {{
        acc += mul;
      }}
    }}
    ---
    sol[r][c] := acc;
  }}
}}
"
    )
}

/// Reference 3×3 stencil.
pub fn stencil2d_reference(rows: usize, cols: usize, orig: &[f64], filter: &[f64]) -> Vec<f64> {
    let mut sol = vec![0.0; rows * cols];
    for r in 0..rows - 2 {
        for c in 0..cols - 2 {
            let mut acc = 0.0;
            for k1 in 0..3 {
                for k2 in 0..3 {
                    acc += filter[k1 * 3 + k2] * orig[(r + k1) * cols + (c + k2)];
                }
            }
            sol[r * cols + c] = acc;
        }
    }
    sol
}

/// Baseline stencil2d in the HLS IR (index arithmetic on flat arrays, as in
/// the MachSuite C source).
pub fn stencil2d_baseline(p: &Stencil2dParams) -> Kernel {
    let Stencil2dParams {
        rows,
        cols,
        bank_orig,
        bank_filter,
        unroll,
    } = *p;
    let inner = Loop::new("k2", 3)
        .unrolled(unroll.1)
        .stmt(
            Op::compute(OpKind::FMul)
                .read(Access::new("filter", vec![Idx::var("k1"), Idx::var("k2")]))
                .read(Access::new("orig", vec![Idx::var("k1"), Idx::var("k2")]))
                .into_stmt(),
        )
        .stmt(Op::compute(OpKind::FAdd).into_stmt());
    let nest = Loop::new("r", rows - 2).stmt(
        Loop::new("c", cols - 2)
            .stmt(
                Loop::new("k1", 3)
                    .unrolled(unroll.0)
                    .stmt(inner.into_stmt())
                    .into_stmt(),
            )
            .stmt(
                Op::compute(OpKind::Copy)
                    .write(Access::new("sol", vec![Idx::var("r"), Idx::var("c")]))
                    .into_stmt(),
            )
            .into_stmt(),
    );
    Kernel::new("stencil2d")
        .array(ArrayDecl::new("orig", 32, &[rows, cols]).partitioned(&[bank_orig.0, bank_orig.1]))
        .array(ArrayDecl::new("filter", 32, &[3, 3]).partitioned(&[bank_filter.0, bank_filter.1]))
        .array(ArrayDecl::new("sol", 32, &[rows, cols]))
        .stmt(nest.into_stmt())
}

/// Default stencil2d bench entry.
pub fn stencil2d_bench() -> Bench {
    let p = Stencil2dParams {
        rows: 126,
        cols: 66,
        bank_orig: (3, 3),
        bank_filter: (3, 3),
        unroll: (3, 3),
    };
    Bench {
        name: "stencil-stencil2d",
        source: stencil2d_source(&p),
        baseline: stencil2d_baseline(&p),
    }
}

/// Inputs for a stencil2d run.
pub fn stencil2d_inputs(
    rows: usize,
    cols: usize,
    seed: u64,
) -> (HashMap<String, Vec<Value>>, Vec<f64>, Vec<f64>) {
    let mut rng = Prng::new(seed);
    let orig = float_input(&mut rng, rows * cols);
    let filter = float_input(&mut rng, 9);
    let of: Vec<f64> = orig.iter().map(|v| v.as_f64()).collect();
    let ff: Vec<f64> = filter.iter().map(|v| v.as_f64()).collect();
    (
        HashMap::from([("orig".to_string(), orig), ("filter".to_string(), filter)]),
        of,
        ff,
    )
}

// -------------------------------------------------------------- stencil3d

/// Dahlia source for the 7-point 3-D stencil on a `d³` grid banked 3 ways
/// per dimension (so the seven neighbor taps land on distinct banks).
pub fn stencil3d_source(d: u64) -> String {
    let hi = d - 1;
    format!(
        "decl inp: float[{d} bank 3][{d} bank 3][{d} bank 3];
decl outp: float[{d}][{d}][{d}];
for (let i = 1..{hi}) {{
  for (let j = 1..{hi}) {{
    for (let k = 1..{hi}) {{
      view w = shift inp[by i - 1][by j - 1][by k - 1];
      let centre = w[1][1][1] * 0.5;
      let sides = (w[0][1][1] + w[2][1][1] + w[1][0][1] + w[1][2][1] + w[1][1][0] + w[1][1][2]) * 0.1;
      ---
      outp[i][j][k] := centre + sides;
    }}
  }}
}}
"
    )
}

/// Reference 7-point stencil.
pub fn stencil3d_reference(d: usize, inp: &[f64]) -> Vec<f64> {
    let at = |i: usize, j: usize, k: usize| inp[(i * d + j) * d + k];
    let mut out = vec![0.0; d * d * d];
    for i in 1..d - 1 {
        for j in 1..d - 1 {
            for k in 1..d - 1 {
                let sides = at(i - 1, j, k)
                    + at(i + 1, j, k)
                    + at(i, j - 1, k)
                    + at(i, j + 1, k)
                    + at(i, j, k - 1)
                    + at(i, j, k + 1);
                out[(i * d + j) * d + k] = at(i, j, k) * 0.5 + sides * 0.1;
            }
        }
    }
    out
}

/// Baseline stencil3d in the HLS IR.
pub fn stencil3d_baseline(d: u64) -> Kernel {
    let taps = Op::compute(OpKind::FMul)
        .read(Access::new(
            "inp",
            vec![Idx::var("i"), Idx::var("j"), Idx::var("k")],
        ))
        .read(Access::new(
            "inp",
            vec![Idx::affine("i", 1, 1), Idx::var("j"), Idx::var("k")],
        ));
    let nest = Loop::new("i", d - 2).stmt(
        Loop::new("j", d - 2)
            .stmt(
                Loop::new("k", d - 2)
                    .stmt(taps.into_stmt())
                    .stmt(Op::compute(OpKind::FAdd).into_stmt())
                    .stmt(Op::compute(OpKind::FAdd).into_stmt())
                    .stmt(
                        Op::compute(OpKind::Copy)
                            .write(Access::new(
                                "outp",
                                vec![Idx::var("i"), Idx::var("j"), Idx::var("k")],
                            ))
                            .into_stmt(),
                    )
                    .into_stmt(),
            )
            .into_stmt(),
    );
    Kernel::new("stencil3d")
        .array(ArrayDecl::new("inp", 32, &[d, d, d]).partitioned(&[3, 3, 3]))
        .array(ArrayDecl::new("outp", 32, &[d, d, d]))
        .stmt(nest.into_stmt())
}

/// Default stencil3d bench entry.
pub fn stencil3d_bench() -> Bench {
    Bench {
        name: "stencil-stencil3d",
        source: stencil3d_source(6),
        baseline: stencil3d_baseline(6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_floats_match, run_checked};
    use dahlia_dse::accepts;

    #[test]
    fn stencil2d_small_correct() {
        let p = Stencil2dParams::small();
        let src = stencil2d_source(&p);
        let (inputs, orig, filter) = stencil2d_inputs(12, 12, 3);
        let out = run_checked(&src, &inputs);
        let want = stencil2d_reference(12, 12, &orig, &filter);
        assert_floats_match("sol", &out.mems["sol"], &want, 1e-9);
    }

    #[test]
    fn stencil2d_sequential_correct() {
        let p = Stencil2dParams {
            rows: 12,
            cols: 12,
            bank_orig: (1, 1),
            bank_filter: (1, 1),
            unroll: (1, 1),
        };
        let src = stencil2d_source(&p);
        let (inputs, orig, filter) = stencil2d_inputs(12, 12, 5);
        let out = run_checked(&src, &inputs);
        let want = stencil2d_reference(12, 12, &orig, &filter);
        assert_floats_match("sol", &out.mems["sol"], &want, 1e-9);
    }

    #[test]
    fn stencil2d_shrink_path_correct() {
        // banking 6, unroll 3: the window must shrink.
        let p = Stencil2dParams {
            rows: 12,
            cols: 12,
            bank_orig: (6, 6),
            bank_filter: (3, 3),
            unroll: (3, 3),
        };
        let src = stencil2d_source(&p);
        assert!(src.contains("shrink w"), "{src}");
        let (inputs, orig, filter) = stencil2d_inputs(12, 12, 9);
        let out = run_checked(&src, &inputs);
        let want = stencil2d_reference(12, 12, &orig, &filter);
        assert_floats_match("sol", &out.mems["sol"], &want, 1e-9);
    }

    #[test]
    fn stencil2d_acceptance_shape() {
        // Unroll 2 can never be accepted: the 3-element filter dimension
        // admits no 2-way banking. Unroll 3 needs 3 | banking on the grid.
        let mk = |bo, bf, u| {
            stencil2d_source(&Stencil2dParams {
                rows: 126,
                cols: 66,
                bank_orig: (bo, bo),
                bank_filter: (bf, bf),
                unroll: (u, u),
            })
        };
        assert!(accepts(&mk(1, 1, 1)));
        assert!(accepts(&mk(3, 3, 3)));
        assert!(accepts(&mk(6, 3, 3)), "shrink view bridges 6 → 3");
        assert!(!accepts(&mk(2, 2, 2)), "filter cannot bank 2 ways");
        assert!(!accepts(&mk(4, 3, 3)), "3 ∤ 4 on the grid");
        assert!(!accepts(&mk(5, 1, 1)), "5 ∤ 126");
    }

    #[test]
    fn stencil3d_correct() {
        let src = stencil3d_source(6);
        let mut rng = Prng::new(21);
        let inp = float_input(&mut rng, 6 * 6 * 6);
        let want = stencil3d_reference(6, &inp.iter().map(|v| v.as_f64()).collect::<Vec<_>>());
        let out = run_checked(&src, &HashMap::from([("inp".to_string(), inp)]));
        assert_floats_match("outp", &out.mems["outp"], &want, 1e-9);
    }
}
