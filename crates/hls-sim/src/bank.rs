//! Bank-access-pattern analysis and port scheduling.
//!
//! For every access in an unrolled loop body the toolchain needs to know
//! (a) how many banks each processing element (PE) must be able to reach —
//! the *mux width* that determines indirection hardware (Fig. 3b of the
//! paper), and (b) how many copies of one iteration group land on each
//! bank — the *port demand* that forces the scheduler to serialize (the
//! Fig. 4a/4b pitfalls). [`bank_counts`] counts them per bank by residue
//! arithmetic, in work bounded by the bank count, not the copy count;
//! [`analyze`] and [`schedule_group`] read its counts.

use std::collections::HashMap;

use crate::ir::{Access, ArrayDecl, Idx, Op};

/// Enclosing unrolled loops: `(iterator, unroll factor)`, outermost first.
/// Only factors > 1 matter.
#[derive(Debug, Clone, Default)]
pub struct UnrollCtx {
    vars: Vec<(String, u64)>,
}

impl UnrollCtx {
    /// Empty context (no unrolling).
    pub fn new() -> Self {
        UnrollCtx::default()
    }

    /// Enter a loop.
    pub fn push(&mut self, var: &str, unroll: u64) {
        self.vars.push((var.to_string(), unroll.max(1)));
    }

    /// Leave a loop.
    pub fn pop(&mut self) {
        self.vars.pop();
    }

    /// Total parallel copies of the innermost body, saturating at
    /// `u64::MAX`.
    pub fn copies(&self) -> u64 {
        self.vars.iter().fold(1, |n, (_, u)| n.saturating_mul(*u))
    }

    /// Unroll factor of `var` (1 if not unrolled or unknown).
    pub fn factor(&self, var: &str) -> u64 {
        self.vars
            .iter()
            .find(|(v, _)| v == var)
            .map(|(_, u)| *u)
            .unwrap_or(1)
    }
}

/// What the toolchain learns about one access under a given unrolling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankStats {
    /// Parallel copies of the access (product of enclosing unroll factors).
    pub copies: u64,
    /// Worst-case number of copies hitting the *same* bank in one group.
    pub max_demand: u64,
    /// Number of banks a single copy must be able to reach over the loop's
    /// lifetime (1 = direct wire, >1 = mux / crossbar).
    pub mux_ways: u64,
    /// Distinct banks touched by the copies within one group.
    pub distinct_banks: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Bank count of each of `array`'s dimensions.
fn bank_dims(array: &ArrayDecl) -> impl Iterator<Item = u64> + '_ {
    (0..array.dims.len()).map(|d| array.partition.get(d).copied().unwrap_or(1).max(1))
}

/// Analyze an access to `array` in the given unroll context.
pub fn analyze(access: &Access, array: &ArrayDecl, ctx: &UnrollCtx) -> BankStats {
    let copies = ctx.copies();

    // Mux width: per dimension, how many banks one copy can reach across
    // the whole iteration space.
    let mut mux_ways = 1u64;
    for (d, b) in bank_dims(array).enumerate() {
        let reach = match access.idx.get(d) {
            Some(Idx::Const(_)) | None => 1,
            Some(Idx::Dynamic) => b,
            Some(Idx::Affine { var, stride, .. }) => {
                // Copy `c` sees indices stride·(u·g + c) + offset as g
                // varies: a coset of ⟨stride·u⟩ in Z_b.
                let u = ctx.factor(var);
                let step = stride.unsigned_abs().wrapping_mul(u) % b;
                // step = 0 means the copy is pinned to one bank.
                b / gcd(b, if step == 0 { b } else { step })
            }
        };
        mux_ways = mux_ways.saturating_mul(reach.max(1));
    }

    if access.idx.iter().any(|i| matches!(i, Idx::Dynamic)) {
        // Dynamic: the tool must assume every copy can collide.
        return BankStats {
            copies,
            max_demand: copies,
            mux_ways,
            distinct_banks: 1,
        };
    }
    let counts = bank_counts(access, array, ctx);
    BankStats {
        copies,
        max_demand: counts.values().copied().max().unwrap_or(1),
        mux_ways,
        distinct_banks: counts.len() as u64,
    }
}

/// Flat bank (row-major) → copies of one iteration group (g = 0) on it.
///
/// A closed form, in work at most the array's bank count: a dimension of
/// `B` banks indexed `stride·v + offset` puts digit `k < u` of a variable
/// unrolled `u` ways on bank `(stride·k + offset) mod B`, which repeats
/// with period `B / gcd(B, stride mod B)`. Over the lcm `P` of a variable's
/// periods, residue `r < min(u, P)` is taken `ceil((u − r) / P)` times.
/// Variables combine independently: bank offsets add, counts multiply
/// (saturating). A dynamic or missing index is bank 0, an index on a
/// variable no loop unrolls is its offset, and a name unrolled twice binds
/// to its first unrolled entry.
pub fn bank_counts(access: &Access, array: &ArrayDecl, ctx: &UnrollCtx) -> HashMap<u64, u64> {
    // Each dimension as `(banks, stride, offset, variable)`.
    let lanes = || {
        bank_dims(array)
            .enumerate()
            .map(|(d, b)| match access.idx.get(d) {
                Some(Idx::Const(n)) => (b, 0, *n, None),
                Some(Idx::Dynamic) | None => (b, 0, 0, None),
                Some(Idx::Affine {
                    var,
                    stride,
                    offset,
                }) => (b, *stride, *offset, Some(var)),
            })
    };
    // Unrolled variables as `(name, u, P, residue place)`; a repeat indexes nothing.
    let (mut vars, mut combos) = (Vec::<(&String, u64, u64, u64)>::new(), 1);
    for (v, u) in ctx.vars.iter().filter(|(_, u)| *u > 1) {
        let period = lanes()
            .filter(|l| l.3 == Some(v) && !vars.iter().any(|w| w.0 == v))
            .map(|(b, s, ..)| b / gcd(b, s.unsigned_abs()))
            .fold(1, |p, q| p / gcd(p, q) * q);
        vars.push((v, *u, period, combos));
        combos *= period.min(*u);
    }
    let mut counts = HashMap::with_capacity(combos as usize);
    for c in 0..combos {
        let residue = |&(_, u, p, place): &(_, u64, u64, u64)| c / place % p.min(u);
        let flat = lanes().fold(0, |flat, (b, s, o, var)| {
            let r = vars.iter().find(|w| Some(w.0) == var).map_or(0, residue);
            flat * b + (i128::from(s) * i128::from(r) + i128::from(o)).rem_euclid(b.into()) as u64
        });
        let n = vars.iter().map(|w| (w.1 - residue(w)).div_ceil(w.2));
        // Distinct residue combinations land on distinct banks.
        counts.insert(flat, n.fold(1, u64::saturating_mul));
    }
    counts
}

/// The scheduler's verdict for an innermost loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSchedule {
    /// Cycles needed to issue all memory transactions of one iteration
    /// group (the pipeline II).
    pub ii: u64,
    /// Total memory transactions in one group.
    pub transactions: u64,
}

/// Schedule all accesses of `ops` (already inside `ctx`'s unrolled loops)
/// against the arrays' bank ports.
///
/// Every transaction holds one port of its bank for one cycle, so issuing
/// each at the earliest cycle with a free port takes `ceil(n / ports)`
/// cycles for a bank with `n` transactions; the II is the slowest bank's.
pub fn schedule_group(ops: &[&Op], arrays: &[ArrayDecl], ctx: &UnrollCtx) -> GroupSchedule {
    // (array index, flat bank) → transactions.
    let mut load = HashMap::<(usize, u64), u64>::new();
    for access in ops.iter().flat_map(|op| op.reads.iter().chain(&op.writes)) {
        let Some(ai) = arrays.iter().position(|a| a.name == access.array) else {
            continue;
        };
        for (bank, n) in bank_counts(access, &arrays[ai], ctx) {
            let total = load.entry((ai, bank)).or_insert(0);
            *total = total.saturating_add(n);
        }
    }
    let ii = load
        .iter()
        .map(|(&(ai, _), n)| n.div_ceil(u64::from(arrays[ai].ports.max(1))))
        .fold(1, u64::max);
    GroupSchedule {
        ii,
        transactions: load.values().fold(0, |t, n| t.saturating_add(*n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate;
    use crate::ir::{Kernel, Loop, OpKind};

    fn arr(banks: u64) -> ArrayDecl {
        ArrayDecl::new("a", 32, &[512]).partitioned(&[banks])
    }

    fn ctx(u: u64) -> UnrollCtx {
        let mut c = UnrollCtx::new();
        c.push("i", u);
        c
    }

    fn acc() -> Access {
        Access::new("a", vec![Idx::var("i")])
    }

    #[test]
    fn matched_unroll_and_banking_is_clean() {
        let s = analyze(&acc(), &arr(8), &ctx(8));
        assert_eq!(s.copies, 8);
        assert_eq!(s.max_demand, 1, "one access per bank");
        assert_eq!(s.mux_ways, 1, "direct wiring");
        assert_eq!(s.distinct_banks, 8);
    }

    #[test]
    fn unroll_without_banks_serializes() {
        let s = analyze(&acc(), &arr(1), &ctx(8));
        assert_eq!(s.max_demand, 8, "all copies pile on the single bank");
        assert_eq!(s.mux_ways, 1);
    }

    #[test]
    fn unroll_nine_on_eight_banks_needs_indirection() {
        // The Fig. 4b pitfall: 9 ∤ 8 — PE 0 must reach every bank, and two
        // copies collide on bank 0.
        let s = analyze(&acc(), &arr(8), &ctx(9));
        assert_eq!(s.max_demand, 2);
        assert_eq!(s.mux_ways, 8, "coset of ⟨9⟩ in Z₈ is everything");
    }

    #[test]
    fn unroll_below_banking_needs_moderate_mux() {
        // u = 4, B = 8: each PE reaches banks {c, c+4}.
        let s = analyze(&acc(), &arr(8), &ctx(4));
        assert_eq!(s.max_demand, 1);
        assert_eq!(s.mux_ways, 2);
    }

    #[test]
    fn constant_index_collides_across_copies() {
        let a = Access::new("a", vec![Idx::Const(0)]);
        let s = analyze(&a, &arr(8), &ctx(4));
        assert_eq!(s.max_demand, 4, "every copy reads bank 0");
        assert_eq!(s.mux_ways, 1);
    }

    #[test]
    fn dynamic_index_is_worst_case() {
        let a = Access::new("a", vec![Idx::Dynamic]);
        let s = analyze(&a, &arr(8), &ctx(4));
        assert_eq!(s.max_demand, 4);
        assert_eq!(s.mux_ways, 8);
    }

    #[test]
    fn sequential_loop_single_access() {
        let s = analyze(&acc(), &arr(4), &UnrollCtx::new());
        assert_eq!(s.copies, 1);
        assert_eq!(s.max_demand, 1);
        // One PE sweeps all four banks over time.
        assert_eq!(s.mux_ways, 4);
    }

    #[test]
    fn strided_access_reach() {
        // stride 2, u = 2 on 8 banks: step 4 → coset size 2.
        let a = Access::new("a", vec![Idx::affine("i", 2, 0)]);
        let s = analyze(&a, &arr(8), &ctx(2));
        assert_eq!(s.mux_ways, 2);
        assert_eq!(s.max_demand, 1);
    }

    #[test]
    fn multidim_banking() {
        let arr2 = ArrayDecl::new("m", 32, &[16, 16]).partitioned(&[2, 2]);
        let mut c = UnrollCtx::new();
        c.push("i", 2);
        c.push("j", 2);
        let a = Access::new("m", vec![Idx::var("i"), Idx::var("j")]);
        let s = analyze(&a, &arr2, &c);
        assert_eq!(s.copies, 4);
        assert_eq!(s.max_demand, 1);
        assert_eq!(s.distinct_banks, 4);
    }

    #[test]
    fn copy_banks_concrete() {
        // Nine copies on eight banks: copy 8 wraps to bank 0.
        let counts = bank_counts(&acc(), &arr(8), &ctx(9));
        let want: HashMap<u64, u64> = (0..8).map(|b| (b, 1 + u64::from(b == 0))).collect();
        assert_eq!(counts, want);
    }

    #[test]
    fn bank_counts_flatten_dimensions_row_major() {
        let m = ArrayDecl::new("m", 32, &[16, 16]).partitioned(&[2, 4]);
        let mut c = UnrollCtx::new();
        c.push("i", 2);
        c.push("j", 3);
        let a = Access::new("m", vec![Idx::var("i"), Idx::affine("j", 2, 1)]);
        // Row i, column bank (2j + 1) mod 4 ∈ {1, 3, 1}: flat = 4i + col.
        let want = HashMap::from([(1, 2), (3, 1), (5, 2), (7, 1)]);
        assert_eq!(bank_counts(&a, &m, &c), want);
    }

    /// `A[i]` (or `A[i][j]`) over a memory with one bank per element,
    /// inside loops unrolled as far as each dimension is long: every copy
    /// has a bank of its own.
    fn fully_banked(sizes: &[u64]) -> (Kernel, Op, UnrollCtx) {
        let vars = &["i", "j"][..sizes.len()];
        let read = Op::compute(OpKind::Copy).read(Access::new(
            "A",
            vars.iter().map(|v| Idx::var(*v)).collect(),
        ));
        let mut ctx = UnrollCtx::new();
        let mut body = read.clone().into_stmt();
        for (v, n) in vars.iter().zip(sizes).rev() {
            ctx.push(v, *n);
            body = Loop::new(*v, *n).unrolled(*n).stmt(body).into_stmt();
        }
        let array = ArrayDecl::new("A", 32, sizes).partitioned(sizes);
        (Kernel::new("wide").array(array).stmt(body), read, ctx)
    }

    #[test]
    fn fully_banked_designs_past_16384_copies_schedule_at_ii_one() {
        // 32,768 banks unrolled 32,768 ways; a 256×256-bank grid unrolled
        // 256×256 ways (65,536 copies).
        for sizes in [&[32_768][..], &[256, 256]] {
            let (kernel, read, ctx) = fully_banked(sizes);
            assert_eq!(ctx.copies(), sizes.iter().product::<u64>());
            assert_eq!(schedule_group(&[&read], &kernel.arrays, &ctx).ii, 1);
            assert_eq!(
                analyze(&read.reads[0], &kernel.arrays[0], &ctx).max_demand,
                1
            );
            let notes = estimate(&kernel).notes;
            assert!(
                !notes.iter().any(|n| n.contains("bank ports force")),
                "{sizes:?}: {notes:?}"
            );
        }
    }

    #[test]
    fn a_name_unrolled_twice_binds_to_its_first_unrolled_entry() {
        // `A[i]` reads the factor-2 `i`; the factor-3 `i` repeats each copy.
        let mut c = ctx(2);
        c.push("i", 3);
        let want = HashMap::from([(0, 3), (1, 3)]);
        assert_eq!(bank_counts(&acc(), &arr(4), &c), want);
    }

    #[test]
    fn dynamic_dimension_counts_as_bank_zero() {
        let m = ArrayDecl::new("m", 32, &[16, 16]).partitioned(&[4, 2]);
        let a = Access::new("m", vec![Idx::Dynamic, Idx::var("i")]);
        assert_eq!(
            bank_counts(&a, &m, &ctx(4)),
            HashMap::from([(0, 2), (1, 2)])
        );
    }
}
