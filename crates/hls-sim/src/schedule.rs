//! Port-constrained scheduling of one unrolled iteration group.
//!
//! A greedy list scheduler assigns every copy of every memory access to the
//! earliest cycle in which its bank still has a free port. The resulting
//! makespan is the initiation interval (II) the HLS pipeline can sustain —
//! the mechanism behind "unrolling without banking does not speed anything
//! up" (Fig. 4a).

use std::collections::HashMap;

use crate::bank::{copy_banks, UnrollCtx};
use crate::ir::{ArrayDecl, Op};

/// One memory transaction to place: `(array index, flat bank)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Slot {
    array: usize,
    bank: u64,
}

/// The scheduler's verdict for an innermost loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSchedule {
    /// Cycles needed to issue all memory transactions of one iteration
    /// group (the pipeline II).
    pub ii: u64,
    /// Total memory transactions in one group.
    pub transactions: u64,
    /// Worst per-bank queue length observed.
    pub worst_queue: u64,
}

/// Schedule all accesses of `ops` (already inside `ctx`'s unrolled loops)
/// against the arrays' bank ports.
pub fn schedule_group(ops: &[&Op], arrays: &[ArrayDecl], ctx: &UnrollCtx) -> GroupSchedule {
    // Bank occupancy per cycle: (slot, cycle) → used ports.
    let mut used: HashMap<(Slot, u64), u32> = HashMap::new();
    let mut ii = 1u64;
    let mut transactions = 0u64;
    let mut worst_queue = 0u64;

    let find = |name: &str| arrays.iter().position(|a| a.name == name);

    for op in ops {
        for access in op.reads.iter().chain(&op.writes) {
            let Some(ai) = find(&access.array) else {
                continue;
            };
            let array = &arrays[ai];
            let ports = array.ports.max(1);
            let banks = copy_banks(access, array, ctx);
            for bank in banks {
                transactions += 1;
                let slot = Slot { array: ai, bank };
                // Earliest cycle with a free port on this bank.
                let mut cycle = 0u64;
                loop {
                    let e = used.entry((slot, cycle)).or_insert(0);
                    if *e < ports {
                        *e += 1;
                        break;
                    }
                    cycle += 1;
                }
                worst_queue = worst_queue.max(cycle + 1);
                ii = ii.max(cycle + 1);
            }
        }
    }
    GroupSchedule {
        ii,
        transactions,
        worst_queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
