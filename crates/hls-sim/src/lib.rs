//! # hls-sim
//!
//! A simulator for a *traditional* high-level-synthesis toolchain — the
//! substrate the Dahlia paper evaluates against (Xilinx Vivado HLS /
//! SDAccel targeting an UltraScale+ VU9P on AWS F1).
//!
//! The simulator consumes a loop-nest IR with per-array cyclic partitioning
//! and per-loop unroll directives (the moral equivalent of
//! `#pragma HLS ARRAY_PARTITION` and `#pragma HLS UNROLL`) and produces the
//! estimates the paper's figures are drawn from: cycles, LUTs, FFs, DSPs,
//! BRAMs, and LUT memories.
//!
//! It reproduces the paper's predictability pitfalls *mechanistically*:
//! bank-port serialization, PE↔bank indirection muxes, and leftover-element
//! hardware — plus deterministic "heuristic noise" on exactly those
//! configurations, so Dahlia-accepted (clean) points stay smooth.
//!
//! ```
//! use hls_sim::{estimate, Access, ArrayDecl, Idx, Kernel, Loop, Op, OpKind};
//!
//! let k = Kernel::new("axpy")
//!     .array(ArrayDecl::new("x", 32, &[1024]).partitioned(&[4]))
//!     .stmt(
//!         Loop::new("i", 1024)
//!             .unrolled(4)
//!             .stmt(Op::compute(OpKind::FMul)
//!                 .read(Access::new("x", vec![Idx::var("i")]))
//!                 .write(Access::new("x", vec![Idx::var("i")]))
//!                 .into_stmt())
//!             .into_stmt(),
//!     );
//! let e = estimate(&k);
//! assert!(e.correct);
//! assert!(e.cycles < 1024);
//! ```

pub mod bank;
pub mod digest;
pub mod estimate;
pub mod ir;

/// The port scheduler's old path. [`schedule_group`] lives in [`crate::bank`]
/// beside the per-bank counts it sums; this module keeps
/// `hls_sim::schedule::*` imports resolving.
pub mod schedule {
    pub use crate::bank::{schedule_group, GroupSchedule};

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::bank::UnrollCtx;
        use crate::ir::{Access, ArrayDecl, Idx, Op, OpKind};

        fn ctx(u: u64) -> UnrollCtx {
            let mut c = UnrollCtx::new();
            c.push("i", u);
            c
        }

        fn read_op() -> Op {
            Op::compute(OpKind::IntAlu).read(Access::new("a", vec![Idx::var("i")]))
        }

        #[test]
        fn matched_banking_gives_ii_one() {
            let arrays = [ArrayDecl::new("a", 32, &[64]).partitioned(&[8])];
            let op = read_op();
            let s = schedule_group(&[&op], &arrays, &ctx(8));
            assert_eq!(s.ii, 1);
            assert_eq!(s.transactions, 8);
        }

        #[test]
        fn single_bank_serializes_fully() {
            let arrays = [ArrayDecl::new("a", 32, &[64])];
            let op = read_op();
            let s = schedule_group(&[&op], &arrays, &ctx(8));
            assert_eq!(s.ii, 8, "eight copies share one port");
        }

        #[test]
        fn two_ports_halve_the_queue() {
            let arrays = [ArrayDecl::new("a", 32, &[64]).with_ports(2)];
            let op = read_op();
            let s = schedule_group(&[&op], &arrays, &ctx(8));
            assert_eq!(s.ii, 4);
        }

        #[test]
        fn mismatched_unroll_pays_a_cycle() {
            let arrays = [ArrayDecl::new("a", 32, &[72]).partitioned(&[8])];
            let op = read_op();
            let s = schedule_group(&[&op], &arrays, &ctx(9));
            assert_eq!(s.ii, 2, "bank 0 gets copies 0 and 8");
        }

        #[test]
        fn independent_arrays_do_not_interfere() {
            let arrays = [
                ArrayDecl::new("a", 32, &[64]).partitioned(&[4]),
                ArrayDecl::new("b", 32, &[64]).partitioned(&[4]),
            ];
            let op = Op::compute(OpKind::FMul)
                .read(Access::new("a", vec![Idx::var("i")]))
                .read(Access::new("b", vec![Idx::var("i")]));
            let s = schedule_group(&[&op], &arrays, &ctx(4));
            assert_eq!(s.ii, 1);
            assert_eq!(s.transactions, 8);
        }

        #[test]
        fn multiple_ops_stack_on_the_same_bank() {
            let arrays = [ArrayDecl::new("a", 32, &[64])];
            let op1 = Op::compute(OpKind::IntAlu).read(Access::new("a", vec![Idx::Const(0)]));
            let op2 = Op::compute(OpKind::IntAlu).read(Access::new("a", vec![Idx::Const(1)]));
            let s = schedule_group(&[&op1, &op2], &arrays, &UnrollCtx::new());
            assert_eq!(s.ii, 2);
        }

        #[test]
        fn unknown_array_is_ignored() {
            let arrays: [ArrayDecl; 0] = [];
            let op = read_op();
            let s = schedule_group(&[&op], &arrays, &ctx(4));
            assert_eq!(s.ii, 1);
            assert_eq!(s.transactions, 0);
        }
    }
}

pub use bank::{analyze, schedule_group, BankStats, GroupSchedule, UnrollCtx};
pub use digest::{Fnv, StableDigest};
pub use estimate::{estimate, Device, Estimate, VU9P};
pub use ir::{Access, ArrayDecl, Idx, Kernel, Loop, Op, OpKind, Stmt};
