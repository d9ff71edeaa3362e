//! Property tests for the HLS substrate: the port scheduler against a
//! cycle-by-cycle reference, scheduler lower bounds, estimator determinism,
//! and model monotonicities on generated kernels.

use std::collections::HashMap;

use proptest::prelude::*;

use hls_sim::bank::bank_counts;
use hls_sim::{
    analyze, estimate, schedule_group, Access, ArrayDecl, BankStats, GroupSchedule, Idx, Kernel,
    Loop, Op, OpKind, UnrollCtx,
};

/// Flat bank of every copy of `access` in one iteration group, enumerated
/// with an odometer over the unrolled variables (first variable fastest).
/// A dynamic or missing index dimension is bank 0.
fn reference_copy_banks(access: &Access, array: &ArrayDecl, vars: &[(&str, u64)]) -> Vec<u64> {
    let unrolled: Vec<(&str, u64)> = vars.iter().copied().filter(|(_, u)| *u > 1).collect();
    let mut out = Vec::new();
    let mut assignment = vec![0u64; unrolled.len()];
    loop {
        let mut flat = 0u64;
        for (d, b) in array.partition.iter().map(|p| (*p).max(1)).enumerate() {
            let bank = match access.idx.get(d) {
                Some(Idx::Const(n)) => n.rem_euclid(b as i64) as u64,
                Some(Idx::Dynamic) | None => 0,
                Some(Idx::Affine {
                    var,
                    stride,
                    offset,
                }) => {
                    let c = unrolled
                        .iter()
                        .position(|(v, _)| v == var)
                        .map_or(0, |i| assignment[i]);
                    (stride * c as i64 + offset).rem_euclid(b as i64) as u64
                }
            };
            flat = flat * b + bank;
        }
        out.push(flat);
        let mut carry = true;
        for (slot, (_, u)) in assignment.iter_mut().zip(&unrolled) {
            if carry {
                *slot += 1;
                if *slot == *u {
                    *slot = 0;
                } else {
                    carry = false;
                }
            }
        }
        if carry {
            return out;
        }
    }
}

/// The greedy occupancy scheduler: each copy of each access, in program
/// order, takes the earliest cycle in which its bank still has a free
/// port. The group's II is the last cycle used plus one.
fn reference_schedule(ops: &[Op], arrays: &[ArrayDecl], vars: &[(&str, u64)]) -> GroupSchedule {
    let mut used: HashMap<(usize, u64, u64), u32> = HashMap::new();
    let mut ii = 1u64;
    let mut transactions = 0u64;
    for access in ops.iter().flat_map(|op| op.reads.iter().chain(&op.writes)) {
        let Some(ai) = arrays.iter().position(|a| a.name == access.array) else {
            continue;
        };
        let ports = arrays[ai].ports.max(1);
        for bank in reference_copy_banks(access, &arrays[ai], vars) {
            transactions += 1;
            let mut cycle = 0u64;
            loop {
                let e = used.entry((ai, bank, cycle)).or_insert(0);
                if *e < ports {
                    *e += 1;
                    break;
                }
                cycle += 1;
            }
            ii = ii.max(cycle + 1);
        }
    }
    GroupSchedule { ii, transactions }
}

fn ctx_of(vars: &[(&str, u64)]) -> UnrollCtx {
    let mut ctx = UnrollCtx::new();
    for (v, u) in vars {
        ctx.push(v, *u);
    }
    ctx
}

/// One generated index: `0` constant, `1` affine, `2` dynamic.
type IdxSpec = (u8, i64, usize, i64, i64);

fn idx_spec() -> impl Strategy<Value = IdxSpec> {
    (
        prop::sample::select(vec![0u8, 1, 1, 2]),
        -9i64..=9,
        // Index 3 names a variable that no loop unrolls.
        0usize..4,
        -3i64..=3,
        -4i64..=4,
    )
}

fn idx_of((kind, n, var, stride, offset): IdxSpec) -> Idx {
    match kind {
        0 => Idx::Const(n),
        1 => Idx::affine(["i", "j", "k", "q"][var], stride, offset),
        _ => Idx::Dynamic,
    }
}

/// A generated iteration group: two arrays (1–2 dimensions, 1–8 banks per
/// dimension, 1–2 ports), 1–3 unrolled variables with factors up to 8 (at
/// most 512 copies), and 1–4 ops whose accesses name either array or an
/// undeclared one.
type GroupSpec = (
    Vec<(Vec<u64>, u32)>,
    Vec<u64>,
    Vec<Vec<(usize, bool, Vec<IdxSpec>)>>,
);

fn group_spec() -> impl Strategy<Value = GroupSpec> {
    let banks = prop::sample::select(vec![1u64, 2, 3, 4, 5, 8]);
    (
        prop::collection::vec((prop::collection::vec(banks, 1..=2), 1u32..=2), 2),
        prop::collection::vec(prop::sample::select(vec![1u64, 2, 3, 4, 6, 8]), 1..=3),
        prop::collection::vec(
            prop::collection::vec(
                (
                    0usize..3,
                    any::<bool>(),
                    prop::collection::vec(idx_spec(), 1..=2),
                ),
                0..=3,
            ),
            1..=4,
        ),
    )
}

fn group_of(
    (arrays, factors, ops): GroupSpec,
) -> (Vec<ArrayDecl>, Vec<(&'static str, u64)>, Vec<Op>) {
    let arrays = arrays
        .into_iter()
        .zip(["a", "b"])
        .map(|((banks, ports), name)| {
            let dims: Vec<u64> = banks.iter().map(|b| b * 4).collect();
            ArrayDecl::new(name, 32, &dims)
                .partitioned(&banks)
                .with_ports(ports)
        })
        .collect();
    let vars = factors
        .into_iter()
        .zip(["i", "j", "k"])
        .map(|(u, v)| (v, u))
        .collect();
    let ops = ops
        .into_iter()
        .map(|accesses| {
            accesses
                .into_iter()
                .fold(Op::compute(OpKind::IntAlu), |op, (array, write, idx)| {
                    let access = Access::new(
                        ["a", "b", "z"][array],
                        idx.into_iter().map(idx_of).collect(),
                    );
                    if write {
                        op.write(access)
                    } else {
                        op.read(access)
                    }
                })
        })
        .collect();
    (arrays, vars, ops)
}

fn kernel(n: u64, banks: u64, ports: u32, unroll: u64, stride: i64, offset: i64) -> Kernel {
    Kernel::new(format!(
        "prop-{n}-{banks}-{ports}-{unroll}-{stride}-{offset}"
    ))
    .array(
        ArrayDecl::new("a", 32, &[n])
            .partitioned(&[banks])
            .with_ports(ports),
    )
    .array(ArrayDecl::new("out", 32, &[n]).partitioned(&[banks]))
    .stmt(
        Loop::new("i", n)
            .unrolled(unroll)
            .stmt(
                Op::compute(OpKind::IntMul)
                    .read(Access::new("a", vec![Idx::affine("i", stride, offset)]))
                    .write(Access::new("out", vec![Idx::var("i")]))
                    .into_stmt(),
            )
            .into_stmt(),
    )
}

fn params() -> impl Strategy<Value = (u64, u64, u32, u64, i64, i64)> {
    (
        prop::sample::select(vec![16u64, 24, 64, 120]),
        prop::sample::select(vec![1u64, 2, 3, 4, 8]),
        prop::sample::select(vec![1u32, 2]),
        1u64..=12,
        prop::sample::select(vec![1i64, 2, 3]),
        0i64..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-bank count schedule is the greedy occupancy schedule, field
    /// for field.
    #[test]
    fn schedule_group_matches_the_occupancy_reference(spec in group_spec()) {
        let (arrays, vars, ops) = group_of(spec);
        let refs: Vec<&Op> = ops.iter().collect();
        prop_assert_eq!(
            schedule_group(&refs, &arrays, &ctx_of(&vars)),
            reference_schedule(&ops, &arrays, &vars)
        );
    }

    /// `bank_counts` is the histogram of the enumerated copies' banks.
    #[test]
    fn bank_counts_match_the_enumerated_copies(spec in group_spec()) {
        let (arrays, vars, ops) = group_of(spec);
        let ctx = ctx_of(&vars);
        for access in ops.iter().flat_map(|op| op.reads.iter().chain(&op.writes)) {
            let Some(array) = arrays.iter().find(|a| a.name == access.array) else {
                continue;
            };
            let mut want = HashMap::new();
            for bank in reference_copy_banks(access, array, &vars) {
                *want.entry(bank).or_insert(0) += 1;
            }
            prop_assert_eq!(bank_counts(access, array, &ctx), want);
        }
    }

    /// Estimation is a pure function of the kernel.
    #[test]
    fn estimate_is_deterministic((n, b, p, u, s, o) in params()) {
        let k = kernel(n, b, p, u, s, o);
        prop_assert_eq!(estimate(&k), estimate(&k));
    }

    /// The scheduler's II respects the information-theoretic lower bound:
    /// peak per-bank demand divided by the port count.
    #[test]
    fn scheduler_ii_meets_the_demand_bound((n, b, p, u, s, o) in params()) {
        let arr = ArrayDecl::new("a", 32, &[n]).partitioned(&[b]).with_ports(p);
        let access = Access::new("a", vec![Idx::affine("i", s, o)]);
        let mut ctx = UnrollCtx::new();
        ctx.push("i", u);
        let stats = analyze(&access, &arr, &ctx);
        let op = Op::compute(OpKind::IntAlu).read(access);
        let sched = schedule_group(&[&op], &[arr], &ctx);
        let bound = (stats.max_demand as f64 / p as f64).ceil() as u64;
        prop_assert!(
            sched.ii >= bound,
            "II {} below demand bound {} (demand {}, ports {})",
            sched.ii, bound, stats.max_demand, p
        );
        // And the scheduler issues every transaction.
        prop_assert_eq!(sched.transactions, u.min(n));
    }

    /// Estimates never report zero resources for non-empty kernels, and the
    /// design always fits the paper's device at these sizes.
    #[test]
    fn estimates_are_sane((n, b, p, u, s, o) in params()) {
        let e = estimate(&kernel(n, b, p, u, s, o));
        prop_assert!(e.cycles >= 1);
        prop_assert!(e.luts > 0);
        prop_assert!(e.fits(&hls_sim::VU9P));
    }

    /// Doubling the ports never makes latency worse (same kernel otherwise).
    #[test]
    fn more_ports_never_hurt_latency((n, b, _p, u, s, o) in params()) {
        let one = estimate(&kernel(n, b, 1, u, s, o));
        let two = estimate(&kernel(n, b, 2, u, s, o));
        // Heuristic noise only fires on messy configs and is bounded by
        // +25%; allow it.
        prop_assert!(
            two.cycles <= one.cycles * 5 / 4 + 8,
            "2 ports {} vs 1 port {}",
            two.cycles, one.cycles
        );
    }

    /// Copies scale with the unroll product: mux width and demand are
    /// always within [1, banks] and [1, copies] respectively.
    #[test]
    fn bank_stats_are_bounded((n, b, _p, u, s, o) in params()) {
        let arr = ArrayDecl::new("a", 32, &[n]).partitioned(&[b]);
        let access = Access::new("a", vec![Idx::affine("i", s, o)]);
        let mut ctx = UnrollCtx::new();
        ctx.push("i", u);
        let stats = analyze(&access, &arr, &ctx);
        prop_assert_eq!(stats.copies, u);
        prop_assert!((1..=b).contains(&stats.mux_ways));
        prop_assert!((1..=u).contains(&stats.max_demand));
        prop_assert!(stats.distinct_banks <= b.min(u));
    }
}

/// A group past 16,384 copies: one or two unrolled variables (`i` with
/// factor `u`, `j` with `ceil(copies / u)`) making 16,385 to 39,999 copies
/// of one access to an array with 1–2 dimensions of 1–64 banks each.
type WideSpec = (Vec<u64>, u64, u64, Vec<IdxSpec>);

fn wide_spec() -> impl Strategy<Value = WideSpec> {
    (
        prop::collection::vec(1u64..=64, 1..=2),
        16_385u64..=39_744,
        1u64..=256,
        prop::collection::vec(idx_spec(), 1..=2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Past 16,384 copies `bank_counts` is still the histogram of the
    /// enumerated copies' banks.
    #[test]
    fn bank_counts_match_the_enumerated_copies_past_16384((banks, copies, u, idx) in wide_spec()) {
        let dims: Vec<u64> = banks.iter().map(|b| b * 4).collect();
        let array = ArrayDecl::new("a", 32, &dims).partitioned(&banks);
        let access = Access::new("a", idx.into_iter().map(idx_of).collect());
        let vars = [("i", u), ("j", copies.div_ceil(u))];
        let mut want = HashMap::new();
        for bank in reference_copy_banks(&access, &array, &vars) {
            *want.entry(bank).or_insert(0) += 1;
        }
        prop_assert!(want.values().sum::<u64>() > 16_384);
        prop_assert_eq!(bank_counts(&access, &array, &ctx_of(&vars)), want);
    }
}

#[test]
fn every_copy_of_a_shared_read_serializes_on_its_one_port() {
    // 10^8 copies of `A[0]` on one port: every copy is counted on bank 0,
    // so the group issues one transaction per cycle.
    let arr = ArrayDecl::new("A", 32, &[100_000_000]);
    let access = Access::new("A", vec![Idx::Const(0)]);
    let ctx = ctx_of(&[("i", 100_000_000)]);
    let op = Op::compute(OpKind::IntAlu).read(access);
    let sched = schedule_group(&[&op], &[arr], &ctx);
    assert_eq!(
        sched,
        GroupSchedule {
            ii: 100_000_000,
            transactions: 100_000_000
        }
    );
}

#[test]
fn an_unroll_product_past_u64_saturates() {
    let arr = ArrayDecl::new("A", 32, &[8]);
    let access = Access::new("A", vec![Idx::var("j")]);
    let ctx = ctx_of(&[("i", 1 << 40), ("j", 1 << 40)]);
    assert_eq!(ctx.copies(), u64::MAX);
    assert_eq!(
        analyze(&access, &arr, &ctx),
        BankStats {
            copies: u64::MAX,
            max_demand: u64::MAX,
            mux_ways: 1,
            distinct_banks: 1,
        }
    );
    assert_eq!(
        bank_counts(&access, &arr, &ctx),
        HashMap::from([(0, u64::MAX)])
    );
}
