//! # dahlia-kernels
//!
//! The 16 MachSuite benchmarks ported to Dahlia (§5.3 / Appendix D), each
//! with three artifacts:
//!
//! 1. a **Dahlia source** generator. A kernel with banking and unroll
//!    parameters is one `dahlia_dse` sweep template (plus, for the Fig. 7/8
//!    spaces, its `*_AXES`), and its `*_source` renders that template at
//!    one point, so local runs and a cluster sweep see the same bytes;
//! 2. a **baseline kernel** built directly in the [`hls_sim`] IR, standing
//!    in for the original C + `#pragma HLS` implementation (Fig. 11's
//!    baseline side);
//! 3. a **Rust reference implementation** against which the Dahlia port is
//!    functionally validated through the checked interpreter.
//!
//! Problem sizes are scaled down from MachSuite's defaults so the checked
//! interpreter can validate every kernel in milliseconds; the loop/array
//! *structure* (and therefore the hardware structure) is preserved, and the
//! DSE generators re-inflate sizes for estimation, which is analytic.

pub mod fft;
pub mod gemm;
pub mod graph;
pub mod md;
pub mod nw;
pub mod sort;
pub mod spmv;
pub mod stencil;
pub mod strings;

use std::collections::HashMap;

use dahlia_core::interp::{interpret_with, InterpOptions, Outcome, Value};
use dahlia_core::{parse, typecheck, Program};
use dahlia_dse::Config;

/// A benchmark: its name, Dahlia source, and hand-built HLS baseline.
#[derive(Debug, Clone)]
pub struct Bench {
    /// MachSuite-style benchmark name.
    pub name: &'static str,
    /// The Dahlia port (default configuration).
    pub source: String,
    /// The baseline implementation in the HLS IR.
    pub baseline: hls_sim::Kernel,
}

/// All 16 ported benchmarks (the paper ports 16 of MachSuite's 19; the
/// remaining three are excluded there for tool bugs).
pub fn all_benches() -> Vec<Bench> {
    vec![
        strings::aes_bench(),
        graph::bfs_bulk_bench(),
        graph::bfs_queue_bench(),
        fft::fft_strided_bench(),
        gemm::gemm_blocked_bench(),
        gemm::gemm_ncubed_bench(),
        strings::kmp_bench(),
        md::md_grid_bench(),
        md::md_knn_bench(),
        nw::nw_bench(),
        sort::sort_merge_bench(),
        sort::sort_radix_bench(),
        spmv::spmv_crs_bench(),
        spmv::spmv_ellpack_bench(),
        stencil::stencil2d_bench(),
        stencil::stencil3d_bench(),
    ]
}

/// The same 16 benchmarks at interpretation-friendly sizes (for the
/// differential and monitor test suites; estimation uses [`all_benches`]).
pub fn small_benches() -> Vec<Bench> {
    use crate::gemm::{GemmBlockedParams, GemmNcubedParams};
    use crate::md::{MdGridParams, MdKnnParams};
    use crate::stencil::Stencil2dParams;
    let ncubed = GemmNcubedParams {
        n: 8,
        bank: 2,
        unroll: 2,
    };
    vec![
        Bench {
            name: "aes",
            source: strings::aes_source(4),
            baseline: strings::aes_baseline(4),
        },
        Bench {
            name: "bfs-bulk",
            source: graph::bfs_bulk_source(16, 64),
            baseline: graph::bfs_bulk_bench().baseline,
        },
        Bench {
            name: "bfs-queue",
            source: graph::bfs_queue_source(16, 64),
            baseline: graph::bfs_queue_bench().baseline,
        },
        Bench {
            name: "fft-strided",
            source: fft::fft_strided_source(16),
            baseline: fft::fft_strided_baseline(16),
        },
        Bench {
            name: "gemm-blocked",
            source: gemm::gemm_blocked_source(&GemmBlockedParams::small()),
            baseline: gemm::gemm_blocked_baseline(&GemmBlockedParams::small()),
        },
        Bench {
            name: "gemm-ncubed",
            source: gemm::gemm_ncubed_source(&ncubed),
            baseline: gemm::gemm_ncubed_baseline(&ncubed),
        },
        Bench {
            name: "kmp",
            source: strings::kmp_source(4, 32),
            baseline: strings::kmp_baseline(4, 32),
        },
        Bench {
            name: "md-grid",
            source: md::md_grid_source(&MdGridParams::small()),
            baseline: md::md_grid_baseline(&MdGridParams::small()),
        },
        Bench {
            name: "md-knn",
            source: md::md_knn_source(&MdKnnParams::small()),
            baseline: md::md_knn_baseline(&MdKnnParams::small()),
        },
        Bench {
            name: "nw",
            source: nw::nw_source(8, 8),
            baseline: nw::nw_baseline(8, 8),
        },
        Bench {
            name: "sort-merge",
            source: sort::sort_merge_source(16),
            baseline: sort::sort_merge_baseline(16),
        },
        Bench {
            name: "sort-radix",
            source: sort::sort_radix_source(16),
            baseline: sort::sort_radix_baseline(16),
        },
        Bench {
            name: "spmv-crs",
            source: spmv::spmv_crs_source(16, 64),
            baseline: spmv::spmv_crs_baseline(16, 64),
        },
        Bench {
            name: "spmv-ellpack",
            source: spmv::spmv_ellpack_source(16, 4),
            baseline: spmv::spmv_ellpack_baseline(16, 4),
        },
        Bench {
            name: "stencil-stencil2d",
            source: stencil::stencil2d_source(&Stencil2dParams::small()),
            baseline: stencil::stencil2d_baseline(&Stencil2dParams::small()),
        },
        Bench {
            name: "stencil-stencil3d",
            source: stencil::stencil3d_source(6),
            baseline: stencil::stencil3d_baseline(6),
        },
    ]
}

/// Parse, type-check, and run a Dahlia source with the given memory inputs
/// under the *checked* interpreter.
///
/// # Panics
///
/// Panics with a readable message on parse/type/runtime errors — used by
/// kernel correctness tests.
pub fn run_checked(src: &str, inputs: &HashMap<String, Vec<Value>>) -> Outcome {
    let p = parse_and_check(src);
    interpret_with(&p, &InterpOptions::default(), inputs)
        .unwrap_or_else(|e| panic!("interpretation failed: {e}\n{src}"))
}

/// Parse and type-check, panicking with context on failure.
pub fn parse_and_check(src: &str) -> Program {
    let p = parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
    typecheck(&p).unwrap_or_else(|e| panic!("typecheck failed: {e}\n{src}"));
    p
}

/// Deterministic pseudo-random stream for reproducible workload inputs
/// (xorshift64*; the heavier `rand` distributions are used by the DSE
/// workload generators).
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Prng {
        Prng(seed.max(1))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Small float in `[0, 1)` on a coarse grid (keeps small float
    /// reductions exactly comparable across evaluation orders).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() % 64) as f64 / 64.0
    }
}

/// Build a float input memory.
pub fn float_input(rng: &mut Prng, n: usize) -> Vec<Value> {
    (0..n).map(|_| Value::Float(rng.unit_f64())).collect()
}

/// Build an integer input memory with values in `[0, max)`.
pub fn int_input(rng: &mut Prng, n: usize, max: u64) -> Vec<Value> {
    (0..n).map(|_| Value::Int(rng.below(max) as i64)).collect()
}

/// Compare a float memory against a reference, with tolerance.
///
/// # Panics
///
/// Panics on length or value mismatch.
pub fn assert_floats_match(name: &str, got: &[Value], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{name}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let g = g.as_f64();
        assert!(
            (g - w).abs() <= tol * (1.0 + w.abs()),
            "{name}[{i}]: got {g}, want {w}"
        );
    }
}

/// Compare an int memory against a reference.
///
/// # Panics
///
/// Panics on length or value mismatch.
pub fn assert_ints_match(name: &str, got: &[Value], want: &[i64]) {
    assert_eq!(got.len(), want.len(), "{name}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.as_i64(), *w, "{name}[{i}]");
    }
}

/// Render a swept kernel's template at one point: each parameter name
/// paired with its value, in order.
fn render_at<const N: usize>(template: &str, names: [&str; N], values: [u64; N]) -> String {
    let point: Config = names.map(String::from).into_iter().zip(values).collect();
    dahlia_dse::render(template, &point).expect("a kernel template renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn all_benches_present() {
        let benches = all_benches();
        assert_eq!(benches.len(), 16);
        let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
        for expect in [
            "aes",
            "bfs-bulk",
            "bfs-queue",
            "fft-strided",
            "gemm-blocked",
            "gemm-ncubed",
            "kmp",
            "md-grid",
            "md-knn",
            "nw",
            "sort-merge",
            "sort-radix",
            "spmv-crs",
            "spmv-ellpack",
            "stencil-stencil2d",
            "stencil-stencil3d",
        ] {
            assert!(names.contains(&expect), "missing {expect}: {names:?}");
        }
    }

    #[test]
    fn every_bench_typechecks() {
        for b in all_benches() {
            parse_and_check(&b.source);
        }
    }

    #[test]
    fn every_baseline_estimates() {
        for b in all_benches() {
            let e = hls_sim::estimate(&b.baseline);
            assert!(e.cycles > 0, "{}", b.name);
            assert!(e.luts > 0, "{}", b.name);
        }
    }

    #[test]
    fn rewrite_matches_baseline_resources() {
        // Fig. 11's claim: the Dahlia rewrite, flowing through the same
        // backend, lands close to the baseline. We check within a loose
        // factor on LUTs (the baselines are independent reconstructions).
        for b in all_benches() {
            let p = parse_and_check(&b.source);
            let rewrite = hls_sim::estimate(&dahlia_backend::lower(&p, b.name));
            let baseline = hls_sim::estimate(&b.baseline);
            let ratio = rewrite.luts as f64 / baseline.luts.max(1) as f64;
            assert!(
                (0.3..=3.0).contains(&ratio),
                "{}: rewrite {} vs baseline {} LUTs (ratio {ratio:.2})",
                b.name,
                rewrite.luts,
                baseline.luts
            );
        }
    }
}
