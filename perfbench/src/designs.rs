//! The benchmark's inputs: the Fig. 7 sweep space, a pool of accepted
//! designs drawn from the Fig. 7 / Fig. 8 spaces and MachSuite, seeded
//! salting, and the expected output of every pooled design.

use dahlia_bench::fig8::Study;
use dahlia_dse::{render, Config, ParamSpace};
use dahlia_server::json::Json;
use dahlia_server::{Request, Server, Stage};

/// Matrix size and block of the paper's Fig. 7 gemm-blocked space.
pub const GEMM_N: u64 = 128;
pub const GEMM_BLOCK: u64 = 8;

/// Kernel name every benchmark request carries.
pub const KERNEL: &str = "kernel";

/// The four stages an edit-loop designer asks for, in order.
pub const CHAIN: [Stage; 4] = [Stage::Check, Stage::Desugar, Stage::Estimate, Stage::Cpp];

/// The seven axes of the 32,000-point Fig. 7 space, in sweep order.
pub fn fig7_params() -> Vec<(String, Vec<u64>)> {
    let banks = vec![1, 2, 3, 4];
    let unrolls = vec![1, 2, 4, 6, 8];
    [
        ("bank_m1_d1", &banks),
        ("bank_m1_d2", &banks),
        ("bank_m2_d1", &banks),
        ("bank_m2_d2", &banks),
        ("unroll_i", &unrolls),
        ("unroll_j", &unrolls),
        ("unroll_k", &unrolls),
    ]
    .into_iter()
    .map(|(k, vs)| (k.to_string(), vs.clone()))
    .collect()
}

pub fn fig7_template() -> String {
    dahlia_kernels::gemm::gemm_blocked_template(GEMM_N, GEMM_BLOCK)
}

/// The Fig. 7 banking/unroll divisibility rule, stated without the type
/// checker: every banking factor divides the block (views move in steps
/// of one block), and each unroll factor divides the banking factor of
/// every operand dimension its loop sweeps (`i` sweeps m1's rows, `k`
/// m1's columns and m2's rows, `j` m2's columns). It predicts exactly the
/// checker's accepted set, and serves as the sweep's independent oracle.
pub fn fig7_rule(cfg: &Config) -> bool {
    let v = |k: &str| cfg[k];
    let divides = |u: u64, b: u64| b.is_multiple_of(u);
    ["bank_m1_d1", "bank_m1_d2", "bank_m2_d1", "bank_m2_d2"]
        .iter()
        .all(|k| divides(v(k), GEMM_BLOCK))
        && divides(v("unroll_i"), v("bank_m1_d1"))
        && divides(v("unroll_k"), v("bank_m1_d2"))
        && divides(v("unroll_k"), v("bank_m2_d1"))
        && divides(v("unroll_j"), v("bank_m2_d2"))
}

/// The canonical `name=value,...` key the gateway gives a sweep point.
pub fn point_key(cfg: &Config) -> String {
    fig7_params()
        .iter()
        .map(|(k, _)| format!("{k}={}", cfg[k.as_str()]))
        .collect::<Vec<_>>()
        .join(",")
}

pub fn fig7_space() -> ParamSpace {
    let mut s = ParamSpace::new();
    for (k, vs) in fig7_params() {
        s = s.param(k, vs);
    }
    s
}

/// One pooled design: where it came from, and its source.
pub struct Design {
    pub label: String,
    pub source: String,
}

/// How many accepted points each Fig. 8 study contributes to the pool.
const FIG8_PER_STUDY: usize = 48;
/// How many accepted Fig. 7 points the pool keeps.
const FIG7_IN_POOL: usize = 192;

/// The design pool: accepted Fig. 7 points (by the rule above), accepted
/// Fig. 8 points (by the checker, scanning each space with a fixed
/// stride), and the sixteen MachSuite ports. The pool is the same for
/// every seed; seeds only change which designs are drawn and how they are
/// salted.
pub fn pool() -> Vec<Design> {
    let mut out = Vec::new();
    let template = fig7_template();
    let accepted: Vec<Config> = fig7_space().iter().filter(fig7_rule).collect();
    let step = accepted.len().div_ceil(FIG7_IN_POOL);
    for cfg in accepted.iter().step_by(step) {
        out.push(Design {
            label: format!("fig7:{}", point_key(cfg)),
            source: render(&template, cfg).expect("the Fig. 7 template renders"),
        });
    }
    for study in [Study::Stencil2d, Study::MdKnn, Study::MdGrid] {
        let space = study.space();
        let stride = (space.len() as usize / (FIG8_PER_STUDY * 8)).max(1);
        let picked = space
            .iter()
            .step_by(stride)
            .map(|cfg| study.source(&cfg))
            .filter(|src| dahlia_dse::accepts(src))
            .take(FIG8_PER_STUDY);
        for (i, source) in picked.enumerate() {
            out.push(Design {
                label: format!("fig8:{}#{i}", study.name()),
                source,
            });
        }
    }
    for b in dahlia_kernels::all_benches() {
        out.push(Design {
            label: format!("machsuite:{}", b.name),
            source: b.source,
        });
    }
    out
}

/// A header comment that makes `source` a distinct cache key without
/// changing any stage's output.
pub fn salted(source: &str, salt: u64) -> String {
    format!("// perfbench salt {salt:016x}\n{source}")
}

/// The stage payload of a response: everything but the envelope fields
/// that legitimately differ between two answers for the same design.
pub fn payload(resp: &Json) -> Option<String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let Json::Obj(fields) = resp else { return None };
    let kept: Vec<(String, Json)> = fields
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "id" | "cached" | "latency_us" | "trace"))
        .cloned()
        .collect();
    Some(Json::Obj(kept).emit())
}

/// Expected payloads of every pooled design for every chain stage,
/// computed in-process on the unsalted source: `[design][CHAIN index]`.
pub fn expected(pool: &[Design]) -> Vec<[String; 4]> {
    let server = Server::with_threads(1);
    pool.iter()
        .map(|d| {
            CHAIN.map(|stage| {
                let resp = server.submit(Request::new("expect", stage, d.source.as_str(), KERNEL));
                payload(&resp.to_json())
                    .unwrap_or_else(|| panic!("pooled design {} fails {}", d.label, stage.name()))
            })
        })
        .collect()
}

/// SplitMix64: a tiny seeded generator, so every draw is a pure function
/// of (seed, stream, index) and threads need not share state.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_admits_504_points() {
        assert_eq!(fig7_space().iter().filter(fig7_rule).count(), 504);
    }
}
