//! Pins the HLS estimator's output: one digest folded over the estimates
//! of every 97th Fig. 7 `gemm_blocked_baseline` kernel and of the 16
//! MachSuite baselines and their lowered Dahlia rewrites. Any change to
//! any field of any of those estimates (cycles, area, `correct`, notes)
//! changes the digest, so a refactor of the estimator cannot move an
//! estimate silently. A change to the model that is meant to move
//! estimates updates `PINNED` in the same commit and says why.

use dahlia_bench::fig7;
use dahlia_kernels::{all_benches, gemm::gemm_blocked_baseline};
use hls_sim::{estimate, Fnv, StableDigest};

const PINNED: u128 = 0x742e_1a20_b56a_c710_cac6_e06c_8866_d007;

#[test]
fn estimates_are_pinned() {
    let mut h = Fnv::new();
    for cfg in fig7::space().iter().step_by(97) {
        estimate(&gemm_blocked_baseline(&fig7::params_of(&cfg))).absorb(&mut h);
    }
    for b in all_benches() {
        estimate(&b.baseline).absorb(&mut h);
        let prog = dahlia_core::parse(&b.source).expect("bench sources parse");
        dahlia_core::typecheck(&prog).expect("bench sources typecheck");
        estimate(&dahlia_backend::lower(&prog, b.name)).absorb(&mut h);
    }
    assert_eq!(h.finish(), PINNED, "{:#x}", h.finish());
}
