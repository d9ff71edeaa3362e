//! The estimation backend: area and latency for a [`Kernel`].
//!
//! This is the stand-in for Vivado HLS's *estimation mode*, which the paper
//! used for its 32,000-point design-space exploration. The model charges
//! for exactly the mechanisms the paper identifies:
//!
//! * **datapath** — operator cost × number of unrolled copies;
//! * **bank indirection** — a mux per PE sized by how many banks it must
//!   reach ([`crate::bank::BankStats::mux_ways`], Fig. 3b);
//! * **port serialization** — the initiation interval of the busiest bank,
//!   `ceil(copies on the bank / ports)` ([`crate::bank::schedule_group`]),
//!   Fig. 4a/4b;
//! * **leftover hardware** — bounds/epilogue logic when banking does not
//!   divide the array size or unrolling does not divide the trip count
//!   (Fig. 4c);
//! * **heuristic noise** — deterministic, seed-hashed area/latency jitter
//!   applied *only* to configurations that trigger serialization or
//!   leftover hardware, modelling the unpredictable interactions of
//!   scheduling heuristics. Clean configurations (the ones Dahlia accepts)
//!   are exactly reproducible and smooth.
//!
//! Cycle counts and area sums saturate at `u64::MAX`: a design too large
//! to count reports the maximum, never a wrapped small number.

use crate::bank::{analyze, schedule_group, UnrollCtx};
use crate::ir::{ArrayDecl, Kernel, Op, Stmt};

/// Resource and latency estimate for one kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Kernel name.
    pub name: String,
    /// Total cycle count.
    pub cycles: u64,
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops / registers.
    pub ffs: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// 18Kb block RAMs.
    pub brams: u64,
    /// LUTs used as distributed memory.
    pub lut_mems: u64,
    /// `false` when the simulated toolchain miscompiled the configuration
    /// (the unlabelled "incorrect hardware" points of Fig. 4b).
    pub correct: bool,
    /// Human-readable notes on what the toolchain had to synthesize.
    pub notes: Vec<String>,
}

impl Estimate {
    /// Wall-clock runtime at the given clock.
    pub fn runtime_ms(&self, clock_mhz: f64) -> f64 {
        self.cycles as f64 / (clock_mhz * 1e6) * 1e3
    }
}

/// An FPGA device, for utilization reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Device name.
    pub name: &'static str,
    /// Available LUTs.
    pub luts: u64,
    /// Available flip-flops.
    pub ffs: u64,
    /// Available 18Kb BRAMs.
    pub brams: u64,
    /// Available DSP blocks.
    pub dsps: u64,
}

/// The UltraScale+ VU9P on an AWS F1 instance (the paper's target).
pub const VU9P: Device = Device {
    name: "xcvu9p",
    luts: 1_182_240,
    ffs: 2_364_480,
    brams: 4_320,
    dsps: 6_840,
};

impl Estimate {
    /// LUT utilization fraction on `dev`.
    pub fn lut_utilization(&self, dev: &Device) -> f64 {
        self.luts as f64 / dev.luts as f64
    }

    /// Does the design fit on `dev`?
    pub fn fits(&self, dev: &Device) -> bool {
        self.luts <= dev.luts
            && self.ffs <= dev.ffs
            && self.brams <= dev.brams
            && self.dsps <= dev.dsps
    }
}

/// Estimate a kernel (see module docs for the model).
pub fn estimate(k: &Kernel) -> Estimate {
    let mut w = Walker {
        kernel: k,
        ctx: UnrollCtx::new(),
        luts: 0,
        ffs: 0,
        dsps: 0,
        seed: k.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        }),
        messy: false,
        notes: Vec::new(),
    };

    // Memory area.
    let (brams, lut_mems, guard_luts) = memory_area(&k.arrays, &mut w.notes, &mut w.messy);
    w.lut(guard_luts);

    // More work never reports fewer cycles.
    let mut cycles = 0u64;
    for s in &k.body {
        cycles = cycles.saturating_add(w.stmt(s));
    }
    // Kernel-level control overhead.
    w.lut(120);
    w.ffs = w.ffs.saturating_add(mul_div(w.luts, 3, 5));

    // Deterministic heuristic jitter on messy configurations only.
    let mut luts = w.luts;
    let mut correct = true;
    if w.messy {
        let h = splitmix(w.seed);
        luts = mul_div(luts, 97 + h % 16, 100);
        cycles = mul_div(cycles, 100 + splitmix(h) % 26, 100);
        if splitmix(h ^ 0xbeef).is_multiple_of(7) {
            correct = false;
            w.notes.push("simulated toolchain miscompilation".into());
        }
    }

    Estimate {
        name: k.name.clone(),
        cycles: cycles.max(1),
        luts,
        ffs: w.ffs,
        dsps: w.dsps,
        brams,
        lut_mems,
        correct,
        notes: w.notes,
    }
}

/// `a · b / d`, exact in 128 bits and saturated to `u64::MAX`.
fn mul_div(a: u64, b: u64, d: u64) -> u64 {
    u64::try_from(u128::from(a) * u128::from(b) / u128::from(d)).unwrap_or(u64::MAX)
}

/// BRAM / distributed-RAM allocation. Banks whose contents fit in ≤ 1024
/// bits become LUT memory, mirroring Vivado's distributed-RAM inference.
/// Returns `(brams, lut_mems, guard_luts)` — the last is the leftover-
/// element hardware for uneven banking (Fig. 4c).
fn memory_area(arrays: &[ArrayDecl], notes: &mut Vec<String>, messy: &mut bool) -> (u64, u64, u64) {
    let mut brams = 0u64;
    let mut lut_mems = 0u64;
    let mut guard_luts = 0u64;
    for a in arrays {
        let banks = a.total_banks();
        // Uneven banking pads each bank up to the ceiling.
        let bank_elems = a
            .dims
            .iter()
            .zip(&a.partition)
            .fold(1u64, |n, (d, p)| n.saturating_mul(d.div_ceil(*p.max(&1))));
        let bank_bits = bank_elems.saturating_mul(a.elem_bits as u64);
        if bank_bits <= 1024 {
            lut_mems = lut_mems.saturating_add(banks.saturating_mul(bank_bits.div_ceil(64)));
        } else {
            brams = brams.saturating_add(banks.saturating_mul(bank_bits.div_ceil(18_432)));
        }
        if !a.evenly_banked() {
            *messy = true;
            // Per-bank bounds guards plus per-PE self-disable logic.
            guard_luts = guard_luts.saturating_add(banks.saturating_mul(26).saturating_add(48));
            notes.push(format!(
                "array `{}`: banking does not divide the size; banks padded and guarded",
                a.name
            ));
        }
    }
    (brams, lut_mems, guard_luts)
}

struct Walker<'a> {
    kernel: &'a Kernel,
    ctx: UnrollCtx,
    luts: u64,
    ffs: u64,
    dsps: u64,
    seed: u64,
    messy: bool,
    notes: Vec<String>,
}

/// Cycles of loop-entry/exit bookkeeping.
const LOOP_OVERHEAD: u64 = 2;

impl Walker<'_> {
    /// Charge `n` LUTs.
    fn lut(&mut self, n: u64) {
        self.luts = self.luts.saturating_add(n);
    }

    fn stmt(&mut self, s: &Stmt) -> u64 {
        match s {
            Stmt::Op(op) => self.op(op),
            Stmt::Loop(l) => {
                let u = l.unroll.min(l.trips.max(1)).max(1);
                self.seed ^= splitmix(l.trips.wrapping_mul(31).wrapping_add(u));
                self.ctx.push(&l.var, u);

                // Loop control: one FSM plus per-copy increment logic.
                let copies = self.ctx.copies();
                self.lut(45 + 2 * (64 - l.trips.leading_zeros() as u64));
                self.lut(copies.saturating_mul(8));

                let has_subloops = l.body.iter().any(|s| matches!(s, Stmt::Loop(_)));
                let groups = l.trips.div_ceil(u);
                if l.trips % u != 0 {
                    self.messy = true;
                    self.notes.push(format!(
                        "loop `{}`: unroll {} does not divide trip count {}; epilogue generated",
                        l.var, u, l.trips
                    ));
                    // The epilogue duplicates the body datapath once more.
                    self.lut(60);
                }

                let cycles = if has_subloops {
                    let mut body = 0u64;
                    for s in &l.body {
                        body = body.saturating_add(self.stmt(s));
                    }
                    groups.saturating_mul(body.saturating_add(LOOP_OVERHEAD))
                } else {
                    // Innermost loop: pipeline with the port-scheduled II.
                    let ops: Vec<&Op> = l
                        .body
                        .iter()
                        .filter_map(|s| match s {
                            Stmt::Op(o) => Some(o),
                            Stmt::Loop(_) => None,
                        })
                        .collect();
                    let mut depth = 1u64;
                    for op in &ops {
                        depth += self.op_area(op);
                    }
                    let sched = schedule_group(&ops, &self.kernel.arrays, &self.ctx);
                    if sched.ii > 1 {
                        self.messy = true;
                        self.notes.push(format!(
                            "loop `{}`: bank ports force II = {}",
                            l.var, sched.ii
                        ));
                        // Arbitration hardware between copies and banks.
                        self.lut(sched.ii.saturating_mul(20 * copies.min(64)));
                    }
                    // Pipeline registers.
                    self.ffs = self
                        .ffs
                        .saturating_add(depth.saturating_mul(copies).saturating_mul(12));
                    if self.kernel.pipeline {
                        // Every group takes `ii` cycles to issue its memory
                        // transactions (the port-constrained makespan), so
                        // a fully unrolled loop still pays its bandwidth.
                        depth.saturating_add(groups.saturating_mul(sched.ii))
                    } else {
                        groups.saturating_mul(depth.max(sched.ii))
                    }
                };

                self.ctx.pop();
                cycles.saturating_add(LOOP_OVERHEAD)
            }
        }
    }

    /// A straight-line op outside any innermost pipeline.
    fn op(&mut self, op: &Op) -> u64 {
        self.op_area(op)
    }

    /// Charge area for an op in the current context; return its latency
    /// contribution.
    fn op_area(&mut self, op: &Op) -> u64 {
        let copies = self.ctx.copies();
        self.lut(op.kind.luts().saturating_mul(copies));
        self.dsps = self
            .dsps
            .saturating_add(op.kind.dsps().saturating_mul(copies));
        let mut depth = op.kind.latency();
        for access in op.reads.iter().chain(&op.writes) {
            depth = depth.max(1);
            let Some(array) = self.kernel.array_named(&access.array) else {
                continue;
            };
            let stats = analyze(access, array, &self.ctx);
            if stats.mux_ways > 1 {
                // K-way bank indirection per copy (Fig. 3b / Fig. 5).
                let sel_bits = 64 - (stats.mux_ways - 1).leading_zeros() as u64;
                self.lut(mul_div(copies, sel_bits * array.elem_bits as u64, 2));
                self.notes.push(format!(
                    "access to `{}`: {}-way bank mux per PE",
                    access.array, stats.mux_ways
                ));
            }
            if stats.max_demand > array.ports as u64 {
                self.messy = true;
            }
            // Address adapter for non-trivial offsets.
            if let Some(crate::ir::Idx::Affine { stride, offset, .. }) = access.idx.first() {
                if *stride != 1 || *offset != 0 {
                    self.lut(copies.saturating_mul(9));
                }
            }
            self.seed ^= splitmix(
                stats
                    .copies
                    .wrapping_mul(7)
                    .wrapping_add(stats.mux_ways.wrapping_mul(131))
                    .wrapping_add(stats.max_demand),
            );
        }
        depth
    }
}

/// SplitMix64 — deterministic hash for the heuristic-noise model.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Access, ArrayDecl, Idx, Kernel, Loop, Op, OpKind};

    /// A 1-D vector-scale kernel: `for i in 0..n unroll u { b[i] = 2*a[i] }`
    /// with both arrays partitioned `banks` ways.
    fn vscale(n: u64, banks: u64, unroll: u64) -> Kernel {
        Kernel::new(format!("vscale-{n}-{banks}-{unroll}"))
            .array(ArrayDecl::new("a", 32, &[n]).partitioned(&[banks]))
            .array(ArrayDecl::new("b", 32, &[n]).partitioned(&[banks]))
            .stmt(
                Loop::new("i", n)
                    .unrolled(unroll)
                    .stmt(
                        Op::compute(OpKind::IntMul)
                            .read(Access::new("a", vec![Idx::var("i")]))
                            .write(Access::new("b", vec![Idx::var("i")]))
                            .into_stmt(),
                    )
                    .into_stmt(),
            )
    }

    #[test]
    fn deep_loop_nests_saturate_instead_of_wrapping() {
        // 16 trips per level: 16 levels already need 2^64 cycles.
        let nest = |depth: usize| {
            let mut body = Op::compute(OpKind::IntAlu).into_stmt();
            for d in 0..depth {
                body = Loop::new(format!("l{d}"), 16).stmt(body).into_stmt();
            }
            estimate(&Kernel::new("nest").stmt(body)).cycles
        };
        let cycles: Vec<u64> = (15..=17).map(nest).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
        assert_eq!(cycles[2], u64::MAX, "{cycles:?}");
    }

    #[test]
    fn huge_designs_saturate_area_instead_of_wrapping() {
        // Two nested loops unrolled 2^40 ways: 2^80 copies of the body.
        let n = 1u64 << 40;
        let body = Op::compute(OpKind::IntMul).into_stmt();
        let inner = Loop::new("j", n).unrolled(n).stmt(body).into_stmt();
        let outer = Loop::new("i", n).unrolled(n).stmt(inner).into_stmt();
        let e = estimate(&Kernel::new("huge").stmt(outer));
        assert_eq!(e.luts, u64::MAX);
        assert_eq!(e.ffs, u64::MAX);
        assert_eq!(e.dsps, u64::MAX);

        // 2^64 − 2^32 elements of 32 bits: the bank's bit count saturates.
        let big = ArrayDecl::new("a", 32, &[1 << 32, (1 << 32) - 1]);
        let e = estimate(&Kernel::new("big").array(big));
        assert_eq!(e.brams, u64::MAX.div_ceil(18_432));
    }

    #[test]
    fn estimates_are_deterministic() {
        let k = vscale(512, 8, 9);
        assert_eq!(estimate(&k), estimate(&k));
    }

    #[test]
    fn matched_unroll_scales_performance() {
        let base = estimate(&vscale(512, 1, 1));
        let fast = estimate(&vscale(512, 8, 8));
        assert!(
            (fast.cycles as f64) < base.cycles as f64 / 4.0,
            "8-way banking+unroll must speed up ≥4×: {} vs {}",
            fast.cycles,
            base.cycles
        );
        assert!(fast.luts > base.luts, "more PEs cost more area");
    }

    #[test]
    fn unroll_without_banks_gives_no_speedup() {
        // Fig. 4a: PEs serialize on the single bank. A read and a write per
        // copy share one port, so latency can even regress.
        let base = estimate(&vscale(512, 1, 1));
        let wide = estimate(&vscale(512, 1, 8));
        assert!(
            wide.cycles * 10 >= base.cycles * 9,
            "no real speedup expected: {} vs {}",
            wide.cycles,
            base.cycles
        );
        assert!(wide.luts > base.luts, "but area still grows");
        assert!(!wide.notes.is_empty());
    }

    #[test]
    fn mismatched_unroll_is_worse_than_matched() {
        // Fig. 4b at partition 8: unroll 9 vs unroll 8.
        let eight = estimate(&vscale(576, 8, 8));
        let nine = estimate(&vscale(576, 8, 9));
        assert!(
            nine.cycles > eight.cycles,
            "{} vs {}",
            nine.cycles,
            eight.cycles
        );
        assert!(nine.luts > eight.luts, "indirection muxes cost area");
    }

    #[test]
    fn uneven_banking_pays_leftover_hardware() {
        // Fig. 4c: banking 7 does not divide 512.
        let even = estimate(&vscale(512, 8, 8));
        let uneven = estimate(&vscale(512, 7, 7));
        assert!(
            uneven.notes.iter().any(|n| n.contains("padded")),
            "{:?}",
            uneven.notes
        );
        // Per-PE area is larger despite fewer PEs.
        assert!(uneven.luts * 8 > even.luts * 7);
    }

    #[test]
    fn clean_configs_have_no_notes_or_jitter() {
        let e = estimate(&vscale(512, 4, 4));
        assert!(e.correct);
        assert!(
            e.notes.iter().all(|n| !n.contains("II")),
            "matched config must not serialize: {:?}",
            e.notes
        );
    }

    #[test]
    fn bram_and_lutram_split() {
        let big = estimate(&vscale(4096, 1, 1));
        assert!(big.brams > 0);
        assert_eq!(big.lut_mems, 0);
        let tiny = estimate(&vscale(16, 1, 1));
        assert_eq!(tiny.brams, 0);
        assert!(tiny.lut_mems > 0);
    }

    #[test]
    fn runtime_conversion() {
        let e = estimate(&vscale(512, 1, 1));
        let ms = e.runtime_ms(250.0);
        assert!((ms - e.cycles as f64 / 250e3).abs() < 1e-9);
    }

    #[test]
    fn fits_on_vu9p() {
        let e = estimate(&vscale(512, 8, 8));
        assert!(e.fits(&VU9P));
        assert!(e.lut_utilization(&VU9P) < 0.05);
    }

    #[test]
    fn nested_loops_multiply() {
        let inner = Loop::new("j", 8).stmt(Op::compute(OpKind::FMul).into_stmt());
        let outer = Loop::new("i", 8).stmt(inner.into_stmt());
        let k = Kernel::new("nest").stmt(outer.into_stmt());
        let e = estimate(&k);
        // 8 × (inner ≈ 8·depth) — at least 64 cycles of work.
        assert!(e.cycles > 64, "{}", e.cycles);
    }

    #[test]
    fn some_messy_points_miscompile() {
        // Sweep mismatched unrolls over a few sizes; the deterministic hash
        // should flag at least one configuration as miscompiled, and never
        // a clean one.
        let mut bad = 0;
        for n in [7 * 16 * 9, 5 * 16 * 9, 1008] {
            for u in 2..=16 {
                if !estimate(&vscale(n, 8, u)).correct {
                    bad += 1;
                }
            }
        }
        for u in [1, 2, 4, 8] {
            assert!(estimate(&vscale(512, 8, u)).correct);
        }
        assert!(bad >= 1, "expected at least one simulated miscompilation");
    }
}
