//! Molecular dynamics: `md-knn` (k-nearest-neighbours force kernel, Fig. 8b)
//! and `md-grid` (3-D cell-grid force kernel, Fig. 8c).
//!
//! Following the paper's port (§5.3), `md-knn`'s data-dependent neighbour
//! loads are *hoisted* into a sequential gather phase that materializes
//! per-neighbour position deltas; the main force loop then parallelizes
//! cleanly. The four DSE memories are the three delta buffers and the
//! force accumulator.

use std::collections::HashMap;

use dahlia_core::interp::Value;
use hls_sim::{Access, ArrayDecl, Idx, Kernel, Loop, Op, OpKind};

use crate::{float_input, render_at, Bench, Prng};

/// Parameters of the md-knn design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdKnnParams {
    /// Number of atoms.
    pub n: u64,
    /// Neighbours per atom.
    pub k: u64,
    /// Banking of the three delta buffers (applied to both dims of each).
    pub bank_d: (u64, u64, u64),
    /// Banking of the force buffer.
    pub bank_f: u64,
    /// Unroll of the atom (`i`) and neighbour (`j`) loops.
    pub unroll: (u64, u64),
}

impl MdKnnParams {
    /// Interpreter-friendly.
    pub fn small() -> Self {
        MdKnnParams {
            n: 8,
            k: 4,
            bank_d: (2, 2, 2),
            bank_f: 2,
            unroll: (2, 2),
        }
    }
}

/// The Fig. 8b axes (last fastest, 16,384 points): delta and force
/// buffer banking, atom/neighbour unrolls; [`md_knn_template`]'s parameters.
pub const MD_KNN_AXES: [(&str, &[u64]); 6] = [
    ("bank_dx", &[1, 2, 3, 4]),
    ("bank_dy", &[1, 2, 3, 4]),
    ("bank_dz", &[1, 2, 3, 4]),
    ("bank_f", &[1, 2, 3, 4]),
    ("unroll_i", &[1, 2, 3, 4, 5, 6, 7, 8]),
    ("unroll_j", &[1, 2, 3, 4, 5, 6, 7, 8]),
];

/// Dahlia source for md-knn: the [`md_knn_template`] rendered at `p`.
pub fn md_knn_source(p: &MdKnnParams) -> String {
    let (d, u) = (p.bank_d, p.unroll);
    render_at(
        &md_knn_template(p.n, p.k),
        MD_KNN_AXES.map(|(name, _)| name),
        [d.0, d.1, d.2, p.bank_f, u.0, u.1],
    )
}

/// The md-knn source as a template over the [`MD_KNN_AXES`]; each delta
/// buffer and the force buffer shrink below their banking.
pub fn md_knn_template(n: u64, k: u64) -> String {
    let dx = "dxs:bank_dx,unroll_i:bank_dx,unroll_j";
    let dy = "dys:bank_dy,unroll_i:bank_dy,unroll_j";
    let dz = "dzs:bank_dz,unroll_i:bank_dz,unroll_j";
    let fx = "f_x:bank_f,unroll_i";
    format!(
        "decl p_x: float[{n}];
decl p_y: float[{n}];
decl p_z: float[{n}];
decl nl: bit<32>[{n}][{k}];
decl f_x: float[{n} bank ${{bank_f}}];
let dxs: float[{n} bank ${{bank_dx}}][{k} bank ${{bank_dx}}];
let dys: float[{n} bank ${{bank_dy}}][{k} bank ${{bank_dy}}];
let dzs: float[{n} bank ${{bank_dz}}][{k} bank ${{bank_dz}}];
---
// Phase 1: sequential gather of neighbour position deltas (the hoisted
// serial section from the paper's port).
for (let i = 0..{n}) {{
  for (let j = 0..{k}) {{
    let idx = nl[i][j];
    let xi = p_x[i]; let yi = p_y[i]; let zi = p_z[i]
    ---
    dxs[i][j] := p_x[idx] - xi;
    dys[i][j] := p_y[idx] - yi;
    dzs[i][j] := p_z[idx] - zi;
  }}
}}
---
${{shrink:{dx}}}${{shrink:{dy}}}${{shrink:{dz}}}${{shrink:{fx}}}// Phase 2: parallel force computation.
for (let i = 0..{n}) unroll ${{unroll_i}} {{
  for (let j = 0..{k}) unroll ${{unroll_j}} {{
    let delx = ${{access:{dx}}}[i][j];
    let dely = ${{access:{dy}}}[i][j];
    let delz = ${{access:{dz}}}[i][j];
    let r2 = delx * delx + dely * dely + delz * delz;
    let pot = 1.0 / (r2 + 1.0);
    let vx = delx * pot;
  }} combine {{
    ${{access:{fx}}}[i] += vx;
  }}
}}
"
    )
}

/// Reference md-knn force computation.
pub fn md_knn_reference(
    n: usize,
    k: usize,
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    nl: &[i64],
) -> Vec<f64> {
    let mut fx = vec![0.0; n];
    for i in 0..n {
        for j in 0..k {
            let o = nl[i * k + j] as usize;
            let (dx, dy, dz) = (px[o] - px[i], py[o] - py[i], pz[o] - pz[i]);
            let r2 = dx * dx + dy * dy + dz * dz;
            let pot = 1.0 / (r2 + 1.0);
            fx[i] += dx * pot;
        }
    }
    fx
}

/// Baseline md-knn in the HLS IR.
pub fn md_knn_baseline(p: &MdKnnParams) -> Kernel {
    let MdKnnParams {
        n,
        k,
        bank_d,
        bank_f,
        unroll,
    } = *p;
    let gather = Loop::new("i", n).stmt(
        Loop::new("j", k)
            .stmt(
                Op::compute(OpKind::FAdd)
                    .read(Access::new("nl", vec![Idx::var("i"), Idx::var("j")]))
                    .read(Access::new("p_x", vec![Idx::Dynamic]))
                    .write(Access::new("dxs", vec![Idx::var("i"), Idx::var("j")]))
                    .into_stmt(),
            )
            .stmt(
                Op::compute(OpKind::FAdd)
                    .read(Access::new("p_y", vec![Idx::Dynamic]))
                    .write(Access::new("dys", vec![Idx::var("i"), Idx::var("j")]))
                    .into_stmt(),
            )
            .stmt(
                Op::compute(OpKind::FAdd)
                    .read(Access::new("p_z", vec![Idx::Dynamic]))
                    .write(Access::new("dzs", vec![Idx::var("i"), Idx::var("j")]))
                    .into_stmt(),
            )
            .into_stmt(),
    );
    let force_inner = Loop::new("j", k)
        .unrolled(unroll.1)
        .stmt(
            Op::compute(OpKind::FMul)
                .read(Access::new("dxs", vec![Idx::var("i"), Idx::var("j")]))
                .read(Access::new("dys", vec![Idx::var("i"), Idx::var("j")]))
                .read(Access::new("dzs", vec![Idx::var("i"), Idx::var("j")]))
                .into_stmt(),
        )
        .stmt(Op::compute(OpKind::FMul).into_stmt())
        .stmt(Op::compute(OpKind::FDiv).into_stmt())
        .stmt(
            Op::compute(OpKind::FAdd)
                .read(Access::new("f_x", vec![Idx::var("i")]))
                .write(Access::new("f_x", vec![Idx::var("i")]))
                .into_stmt(),
        );
    let force = Loop::new("i", n)
        .unrolled(unroll.0)
        .stmt(force_inner.into_stmt());
    Kernel::new("md-knn")
        .array(ArrayDecl::new("p_x", 32, &[n]))
        .array(ArrayDecl::new("p_y", 32, &[n]))
        .array(ArrayDecl::new("p_z", 32, &[n]))
        .array(ArrayDecl::new("nl", 32, &[n, k]))
        .array(ArrayDecl::new("dxs", 32, &[n, k]).partitioned(&[bank_d.0, bank_d.0]))
        .array(ArrayDecl::new("dys", 32, &[n, k]).partitioned(&[bank_d.1, bank_d.1]))
        .array(ArrayDecl::new("dzs", 32, &[n, k]).partitioned(&[bank_d.2, bank_d.2]))
        .array(ArrayDecl::new("f_x", 32, &[n]).partitioned(&[bank_f]))
        .stmt(gather.into_stmt())
        .stmt(force.into_stmt())
}

/// Default md-knn bench entry.
pub fn md_knn_bench() -> Bench {
    let p = MdKnnParams {
        n: 64,
        k: 16,
        bank_d: (2, 2, 2),
        bank_f: 2,
        unroll: (2, 2),
    };
    Bench {
        name: "md-knn",
        source: md_knn_source(&p),
        baseline: md_knn_baseline(&p),
    }
}

/// Inputs for an md-knn run; returns the inputs plus raw copies.
#[allow(clippy::type_complexity)]
pub fn md_knn_inputs(
    n: usize,
    k: usize,
    seed: u64,
) -> (
    HashMap<String, Vec<Value>>,
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
    Vec<i64>,
) {
    let mut rng = Prng::new(seed);
    let px = float_input(&mut rng, n);
    let py = float_input(&mut rng, n);
    let pz = float_input(&mut rng, n);
    let nl: Vec<Value> = (0..n * k)
        .map(|_| Value::Int(rng.below(n as u64) as i64))
        .collect();
    let raw = (
        px.iter().map(|v| v.as_f64()).collect(),
        py.iter().map(|v| v.as_f64()).collect(),
        pz.iter().map(|v| v.as_f64()).collect(),
        nl.iter().map(|v| v.as_i64()).collect(),
    );
    let inputs = HashMap::from([
        ("p_x".to_string(), px),
        ("p_y".to_string(), py),
        ("p_z".to_string(), pz),
        ("nl".to_string(), nl),
    ]);
    (inputs, raw.0, raw.1, raw.2, raw.3)
}

// ----------------------------------------------------------------- md-grid

/// Parameters of the md-grid design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdGridParams {
    /// Blocks per side (MachSuite: 4).
    pub b: u64,
    /// Particles per block (density).
    pub p: u64,
    /// Banking of the position arrays' block dims (`by`, `bz`) and the
    /// particle dim.
    pub bank_pos: (u64, u64, u64),
    /// Banking of the per-cell counts (both banked dims).
    pub bank_np: u64,
    /// Unroll of the `by` and `bz` block loops.
    pub unroll: (u64, u64),
}

impl MdGridParams {
    /// Interpreter-friendly.
    pub fn small() -> Self {
        MdGridParams {
            b: 4,
            p: 4,
            bank_pos: (2, 2, 1),
            bank_np: 2,
            unroll: (2, 2),
        }
    }
}

/// The Fig. 8c axes (last fastest, 16,384 points): position and count
/// banking, block-loop unrolls; [`md_grid_template`]'s parameters.
pub const MD_GRID_AXES: [(&str, &[u64]); 6] = [
    ("bank_b1", &[1, 2, 3, 4]),
    ("bank_b2", &[1, 2, 3, 4]),
    ("bank_p", &[1, 2, 3, 4]),
    ("bank_np", &[1, 2, 3, 4]),
    ("unroll_y", &[1, 2, 3, 4, 5, 6, 7, 8]),
    ("unroll_z", &[1, 2, 3, 4, 5, 6, 7, 8]),
];

/// Dahlia source for md-grid: the [`md_grid_template`] rendered at `p`.
pub fn md_grid_source(p: &MdGridParams) -> String {
    let (pos, u) = (p.bank_pos, p.unroll);
    render_at(
        &md_grid_template(p.b, p.p),
        MD_GRID_AXES.map(|(name, _)| name),
        [pos.0, pos.1, pos.2, p.bank_np, u.0, u.1],
    )
}

/// The md-grid source as a template over the [`MD_GRID_AXES`]: forces
/// between the particles of each of `b`³ cells (`p` slots, a
/// data-dependent count each); positions and counts shrink below their
/// banking.
pub fn md_grid_template(b: u64, p: u64) -> String {
    let pos = "1,1:bank_b1,unroll_y:bank_b2,unroll_z:bank_p,1";
    let np = "n_points:1,1:bank_np,unroll_y:bank_np,unroll_z";
    format!(
        "decl posx: float{{2}}[{b}][{b} bank ${{bank_b1}}][{b} bank ${{bank_b2}}][{p} bank ${{bank_p}}];
decl posy: float{{2}}[{b}][{b} bank ${{bank_b1}}][{b} bank ${{bank_b2}}][{p} bank ${{bank_p}}];
decl posz: float{{2}}[{b}][{b} bank ${{bank_b1}}][{b} bank ${{bank_b2}}][{p} bank ${{bank_p}}];
decl n_points: bit<32>[{b}][{b} bank ${{bank_np}}][{b} bank ${{bank_np}}];
decl forcex: float[{b}][{b} bank ${{unroll_y}}][{b} bank ${{unroll_z}}][{p}];
${{shrink:posx:{pos}}}${{shrink:posy:{pos}}}${{shrink:posz:{pos}}}${{shrink:{np}}}for (let cx = 0..{b}) {{
  for (let cy = 0..{b}) unroll ${{unroll_y}} {{
    for (let cz = 0..{b}) unroll ${{unroll_z}} {{
      let cnt = ${{access:{np}}}[cx][cy][cz];
      ---
      for (let q = 0..{p}) {{
        let xq = ${{access:posx:{pos}}}[cx][cy][cz][q]; let yq = ${{access:posy:{pos}}}[cx][cy][cz][q]; let zq = ${{access:posz:{pos}}}[cx][cy][cz][q];
        let accf = 0.0;
        ---
        if (q < cnt) {{
          for (let pp = 0..{p}) {{
            let dx = ${{access:posx:{pos}}}[cx][cy][cz][pp] - xq;
            let dy = ${{access:posy:{pos}}}[cx][cy][cz][pp] - yq;
            let dz = ${{access:posz:{pos}}}[cx][cy][cz][pp] - zq;
            let contrib = dx * dx + dy * dy + dz * dz;
          }} combine {{
            accf += contrib;
          }}
        }}
        ---
        forcex[cx][cy][cz][q] := accf;
      }}
    }}
  }}
}}
"
    )
}

/// Reference md-grid.
pub fn md_grid_reference(
    b: usize,
    p: usize,
    posx: &[f64],
    posy: &[f64],
    posz: &[f64],
    np: &[i64],
) -> Vec<f64> {
    let idx = |bx: usize, by: usize, bz: usize, q: usize| ((bx * b + by) * b + bz) * p + q;
    let cidx = |bx: usize, by: usize, bz: usize| (bx * b + by) * b + bz;
    let mut force = vec![0.0; b * b * b * p];
    for bx in 0..b {
        for by in 0..b {
            for bz in 0..b {
                let cnt = np[cidx(bx, by, bz)] as usize;
                for q in 0..p {
                    let mut acc = 0.0;
                    if q < cnt {
                        let (xq, yq, zq) = (
                            posx[idx(bx, by, bz, q)],
                            posy[idx(bx, by, bz, q)],
                            posz[idx(bx, by, bz, q)],
                        );
                        for pp in 0..p {
                            let dx = posx[idx(bx, by, bz, pp)] - xq;
                            let dy = posy[idx(bx, by, bz, pp)] - yq;
                            let dz = posz[idx(bx, by, bz, pp)] - zq;
                            acc += dx * dx + dy * dy + dz * dz;
                        }
                    }
                    force[idx(bx, by, bz, q)] = acc;
                }
            }
        }
    }
    force
}

/// Baseline md-grid in the HLS IR.
pub fn md_grid_baseline(prm: &MdGridParams) -> Kernel {
    let MdGridParams {
        b,
        p,
        bank_pos,
        bank_np,
        unroll,
    } = *prm;
    let pos_idx = || {
        vec![
            Idx::var("bx"),
            Idx::var("by"),
            Idx::var("bz"),
            Idx::var("pp"),
        ]
    };
    let inner = Loop::new("pp", p)
        .stmt(
            Op::compute(OpKind::FAdd)
                .read(Access::new("posx", pos_idx()))
                .read(Access::new("posy", pos_idx()))
                .read(Access::new("posz", pos_idx()))
                .into_stmt(),
        )
        .stmt(Op::compute(OpKind::FMul).into_stmt())
        .stmt(Op::compute(OpKind::FMul).into_stmt())
        .stmt(Op::compute(OpKind::FMul).into_stmt())
        .stmt(Op::compute(OpKind::FAdd).into_stmt());
    let q_loop = Loop::new("q", p).stmt(inner.into_stmt()).stmt(
        Op::compute(OpKind::Copy)
            .write(Access::new(
                "forcex",
                vec![
                    Idx::var("bx"),
                    Idx::var("by"),
                    Idx::var("bz"),
                    Idx::var("q"),
                ],
            ))
            .into_stmt(),
    );
    let nest = Loop::new("bx", b).stmt(
        Loop::new("by", b)
            .unrolled(unroll.0)
            .stmt(
                Loop::new("bz", b)
                    .unrolled(unroll.1)
                    .stmt(
                        Op::compute(OpKind::Copy)
                            .read(Access::new(
                                "n_points",
                                vec![Idx::var("bx"), Idx::var("by"), Idx::var("bz")],
                            ))
                            .into_stmt(),
                    )
                    .stmt(q_loop.into_stmt())
                    .into_stmt(),
            )
            .into_stmt(),
    );
    let pos = |name: &str| {
        ArrayDecl::new(name, 32, &[b, b, b, p])
            .partitioned(&[1, bank_pos.0, bank_pos.1, bank_pos.2])
            .with_ports(2)
    };
    Kernel::new("md-grid")
        .array(pos("posx"))
        .array(pos("posy"))
        .array(pos("posz"))
        .array(ArrayDecl::new("n_points", 32, &[b, b, b]).partitioned(&[1, bank_np, bank_np]))
        .array(ArrayDecl::new("forcex", 32, &[b, b, b, p]).partitioned(&[1, unroll.0, unroll.1, 1]))
        .stmt(nest.into_stmt())
}

/// Default md-grid bench entry.
pub fn md_grid_bench() -> Bench {
    let p = MdGridParams {
        b: 4,
        p: 8,
        bank_pos: (2, 2, 1),
        bank_np: 2,
        unroll: (2, 2),
    };
    Bench {
        name: "md-grid",
        source: md_grid_source(&p),
        baseline: md_grid_baseline(&p),
    }
}

/// Inputs for an md-grid run.
#[allow(clippy::type_complexity)]
pub fn md_grid_inputs(
    b: usize,
    p: usize,
    seed: u64,
) -> (
    HashMap<String, Vec<Value>>,
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
    Vec<i64>,
) {
    let mut rng = Prng::new(seed);
    let cells = b * b * b;
    let posx = float_input(&mut rng, cells * p);
    let posy = float_input(&mut rng, cells * p);
    let posz = float_input(&mut rng, cells * p);
    let np: Vec<Value> = (0..cells)
        .map(|_| Value::Int(1 + rng.below(p as u64) as i64))
        .collect();
    let raw = (
        posx.iter().map(|v| v.as_f64()).collect(),
        posy.iter().map(|v| v.as_f64()).collect(),
        posz.iter().map(|v| v.as_f64()).collect(),
        np.iter().map(|v| v.as_i64()).collect(),
    );
    let inputs = HashMap::from([
        ("posx".to_string(), posx),
        ("posy".to_string(), posy),
        ("posz".to_string(), posz),
        ("n_points".to_string(), np),
    ]);
    (inputs, raw.0, raw.1, raw.2, raw.3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_floats_match, run_checked};
    use dahlia_dse::accepts;

    #[test]
    fn md_knn_small_correct() {
        let p = MdKnnParams::small();
        let src = md_knn_source(&p);
        let (inputs, px, py, pz, nl) = md_knn_inputs(8, 4, 5);
        let out = run_checked(&src, &inputs);
        let want = md_knn_reference(8, 4, &px, &py, &pz, &nl);
        assert_floats_match("f_x", &out.mems["f_x"], &want, 1e-9);
    }

    #[test]
    fn md_knn_sequential_correct() {
        let p = MdKnnParams {
            n: 8,
            k: 4,
            bank_d: (1, 1, 1),
            bank_f: 1,
            unroll: (1, 1),
        };
        let src = md_knn_source(&p);
        let (inputs, px, py, pz, nl) = md_knn_inputs(8, 4, 23);
        let out = run_checked(&src, &inputs);
        let want = md_knn_reference(8, 4, &px, &py, &pz, &nl);
        assert_floats_match("f_x", &out.mems["f_x"], &want, 1e-9);
    }

    #[test]
    fn md_knn_acceptance_shape() {
        let mk = |bd: u64, bf: u64, u0: u64, u1: u64| {
            md_knn_source(&MdKnnParams {
                n: 64,
                k: 16,
                bank_d: (bd, bd, bd),
                bank_f: bf,
                unroll: (u0, u1),
            })
        };
        assert!(accepts(&mk(1, 1, 1, 1)));
        assert!(accepts(&mk(4, 4, 4, 4)));
        assert!(accepts(&mk(4, 2, 2, 4)), "shrink views bridge divisors");
        assert!(
            !accepts(&mk(1, 1, 2, 1)),
            "parallel copies on an unbanked buffer"
        );
        assert!(!accepts(&mk(4, 4, 3, 1)), "3 ∤ 4");
        assert!(!accepts(&mk(3, 1, 1, 1)), "3 ∤ 64 at declaration");
    }

    #[test]
    fn md_grid_small_correct() {
        let p = MdGridParams::small();
        let src = md_grid_source(&p);
        let (inputs, px, py, pz, np) = md_grid_inputs(4, 4, 31);
        let out = run_checked(&src, &inputs);
        let want = md_grid_reference(4, 4, &px, &py, &pz, &np);
        assert_floats_match("forcex", &out.mems["forcex"], &want, 1e-9);
    }

    #[test]
    fn md_grid_acceptance_shape() {
        let mk = |b1: u64, b2: u64, u0: u64, u1: u64| {
            md_grid_source(&MdGridParams {
                b: 4,
                p: 8,
                bank_pos: (b1, b2, 1),
                bank_np: 4,
                unroll: (u0, u1),
            })
        };
        assert!(accepts(&mk(1, 1, 1, 1)));
        assert!(accepts(&mk(4, 4, 4, 4)));
        assert!(accepts(&mk(4, 4, 2, 2)));
        assert!(!accepts(&mk(2, 2, 4, 1)), "unroll above banking");
        assert!(!accepts(&mk(1, 1, 8, 1)), "8 ∤ 4 trip count");
    }
}
