//! The compiler front-end benchmark: per-stage wall time over the
//! MachSuite kernels plus a cold `gemm-blocked` DSE sweep.
//!
//! The paper's headline workload (Fig. 7/8) is a design-space sweep: a
//! storm of near-identical programs where every cache *miss* pays the
//! full front end. This harness times exactly that hot path —
//! `parse`, `check`, `desugar`, and `lower` per MachSuite kernel, and a
//! strided slice of the 32,000-point gemm-blocked sweep compiled cold
//! (parse + affine check per configuration, desugar for the accepted
//! subset) — and records the numbers in `BENCH_frontend.json` at the
//! repository root so every PR has a trajectory to compare against.
//!
//! The harness deliberately uses only stable public APIs (`parse`,
//! `typecheck`, `desugar`, `lower`), so the same binary measures the
//! tree before and after a front-end change.

use std::time::Instant;

use dahlia_server::json::{obj, Json};

/// Median-of-samples wall time for every measured workload, in
/// nanoseconds. `sweep_points`/`sweep_accepted` pin the workload size so
/// recorded numbers are only compared like-for-like.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontendReport {
    /// Σ over MachSuite kernels of median parse time.
    pub parse_ns: f64,
    /// Σ over MachSuite kernels of median typecheck time (pre-parsed).
    pub check_ns: f64,
    /// Σ over MachSuite kernels of median desugar time (pre-parsed).
    pub desugar_ns: f64,
    /// Σ over MachSuite kernels of median lower time (pre-parsed).
    pub lower_ns: f64,
    /// Median lower-only pass over the sweep's accepted ASTs, parse
    /// and check prepaid — the lower stage measured in isolation
    /// rather than inside the sweep aggregate.
    pub lower_warm_ns: f64,
    /// One cold front-end pass over the strided gemm-blocked sweep.
    pub dse_sweep_ns: f64,
    /// Number of sweep configurations compiled.
    pub sweep_points: u64,
    /// How many of them the affine checker accepted.
    pub sweep_accepted: u64,
}

/// Measurement effort: `quick` is the CI smoke setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Few samples/iterations and a coarse sweep stride. Seconds, not
    /// minutes — used by `cargo test` and the CI bench smoke step.
    Quick,
    /// Several samples per stage and a finer sweep stride.
    Full,
}

impl Effort {
    fn samples(self) -> usize {
        match self {
            Effort::Quick => 3,
            Effort::Full => 7,
        }
    }

    fn iters(self) -> usize {
        match self {
            Effort::Quick => 2,
            Effort::Full => 6,
        }
    }

    fn sweep_stride(self) -> usize {
        match self {
            Effort::Quick => 401,
            Effort::Full => 101,
        }
    }
}

/// Time `f` (run `iters` times per sample) and return the median
/// per-iteration nanoseconds across `samples` samples.
fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(samples);
    // One untimed warm-up pass.
    f();
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        xs.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Run the full measurement suite.
pub fn run(effort: Effort) -> FrontendReport {
    let (s, n) = (effort.samples(), effort.iters());
    let mut report = FrontendReport::default();

    // Per-stage medians over the 16 MachSuite kernels.
    for b in dahlia_kernels::all_benches() {
        let src = b.source.clone();
        report.parse_ns += median_ns(s, n, || {
            std::hint::black_box(dahlia_core::parse(&src).expect("kernel parses"));
        });
        let ast = dahlia_core::parse(&src).expect("kernel parses");
        report.check_ns += median_ns(s, n, || {
            std::hint::black_box(dahlia_core::typecheck(&ast).expect("kernel typechecks"));
        });
        report.desugar_ns += median_ns(s, n, || {
            std::hint::black_box(dahlia_core::desugar::desugar(&ast));
        });
        report.lower_ns += median_ns(s, n, || {
            std::hint::black_box(dahlia_backend::lower(&ast, b.name));
        });
    }

    // The cold DSE sweep: every configuration is a distinct source, so
    // nothing can be served from cache — this is the miss storm the
    // cluster pays during Fig. 7/8 exploration.
    let cfgs: Vec<_> = crate::fig7::space()
        .iter()
        .step_by(effort.sweep_stride())
        .collect();
    let sources: Vec<String> = cfgs
        .iter()
        .map(|cfg| dahlia_kernels::gemm::gemm_blocked_source(&crate::fig7::params_of(cfg)))
        .collect();
    report.sweep_points = sources.len() as u64;
    let mut accepted = 0u64;
    report.dse_sweep_ns = median_ns(s.min(3), 1, || {
        accepted = 0;
        for src in &sources {
            let Ok(ast) = dahlia_core::parse(src) else {
                continue;
            };
            if dahlia_core::typecheck(&ast).is_ok() {
                accepted += 1;
                std::hint::black_box(dahlia_core::desugar::desugar(&ast));
            }
        }
    });
    report.sweep_accepted = accepted;

    // The lower-only warm scenario: every accepted configuration's AST
    // with parse + check prepaid, so a lowering regression shows up
    // here undiluted by the rest of the front end.
    let accepted_asts: Vec<_> = sources
        .iter()
        .filter_map(|src| {
            let ast = dahlia_core::parse(src).ok()?;
            dahlia_core::typecheck(&ast).ok()?;
            Some(ast)
        })
        .collect();
    report.lower_warm_ns = median_ns(s, n, || {
        for ast in &accepted_asts {
            std::hint::black_box(dahlia_backend::lower(ast, "gemm_blocked"));
        }
    });
    report
}

impl FrontendReport {
    /// Encode as a JSON object (stable field order).
    pub fn to_json(&self) -> Json {
        obj([
            ("parse_ns", Json::Num(self.parse_ns)),
            ("check_ns", Json::Num(self.check_ns)),
            ("desugar_ns", Json::Num(self.desugar_ns)),
            ("lower_ns", Json::Num(self.lower_ns)),
            ("lower_warm_ns", Json::Num(self.lower_warm_ns)),
            ("dse_sweep_ns", Json::Num(self.dse_sweep_ns)),
            ("sweep_points", Json::Num(self.sweep_points as f64)),
            ("sweep_accepted", Json::Num(self.sweep_accepted as f64)),
        ])
    }

    /// Decode from JSON (`None` on any structural mismatch).
    pub fn from_json(v: &Json) -> Option<FrontendReport> {
        Some(FrontendReport {
            parse_ns: v.get("parse_ns")?.as_f64()?,
            check_ns: v.get("check_ns")?.as_f64()?,
            desugar_ns: v.get("desugar_ns")?.as_f64()?,
            lower_ns: v.get("lower_ns")?.as_f64()?,
            lower_warm_ns: v.get("lower_warm_ns")?.as_f64()?,
            dse_sweep_ns: v.get("dse_sweep_ns")?.as_f64()?,
            sweep_points: v.get("sweep_points")?.as_u64()?,
            sweep_accepted: v.get("sweep_accepted")?.as_u64()?,
        })
    }
}

/// Merge a fresh measurement into the trajectory file's JSON: the first
/// ever measurement becomes the pinned `baseline`; later runs only
/// replace `current` and the derived `speedup` block, so the baseline
/// records the pre-optimization tree forever.
pub fn merge_into_trajectory(existing: Option<&Json>, current: &FrontendReport) -> Json {
    let baseline = existing
        .and_then(|j| j.get("baseline"))
        .and_then(FrontendReport::from_json)
        .unwrap_or_else(|| current.clone());
    let ratio = |b: f64, c: f64| {
        if c > 0.0 {
            Json::Num(b / c)
        } else {
            Json::Num(0.0)
        }
    };
    // The sweep's point count differs between `--quick` and full runs;
    // normalize to per-point cost so the ratio stays like-for-like.
    let per_point = |r: &FrontendReport| {
        if r.sweep_points > 0 {
            r.dse_sweep_ns / r.sweep_points as f64
        } else {
            r.dse_sweep_ns
        }
    };
    obj([
        ("schema", Json::Num(1.0)),
        ("unit", Json::Str("ns".into())),
        ("workload", Json::Str(
            "16 MachSuite kernels x {parse,check,desugar,lower} + cold gemm-blocked DSE sweep (front end only)".into(),
        )),
        ("baseline", baseline.to_json()),
        ("current", current.to_json()),
        (
            "speedup",
            obj([
                ("parse", ratio(baseline.parse_ns, current.parse_ns)),
                ("check", ratio(baseline.check_ns, current.check_ns)),
                ("desugar", ratio(baseline.desugar_ns, current.desugar_ns)),
                ("lower", ratio(baseline.lower_ns, current.lower_ns)),
                (
                    "lower_warm",
                    ratio(baseline.lower_warm_ns, current.lower_warm_ns),
                ),
                ("dse_sweep", ratio(per_point(&baseline), per_point(current))),
            ]),
        ),
    ])
}

/// The trajectory file of the checkout the bench runs in: the nearest
/// `BENCH_frontend.json` at or above the working directory (cargo runs
/// a bench from its package directory, two levels below the root), or
/// one in the working directory when there is none yet. Resolved at run
/// time, so a bench binary built in one checkout never writes another's.
pub fn trajectory_path() -> std::path::PathBuf {
    const FILE: &str = "BENCH_frontend.json";
    let cwd = std::env::current_dir().unwrap_or_default();
    cwd.ancestors()
        .map(|dir| dir.join(FILE))
        .find(|path| path.is_file())
        .unwrap_or_else(|| cwd.join(FILE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_json() {
        let r = FrontendReport {
            parse_ns: 1.5,
            check_ns: 2.5,
            desugar_ns: 3.5,
            lower_ns: 4.5,
            lower_warm_ns: 4.25,
            dse_sweep_ns: 5.5,
            sweep_points: 80,
            sweep_accepted: 3,
        };
        let back = FrontendReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn first_measurement_pins_the_baseline() {
        let r = FrontendReport {
            parse_ns: 100.0,
            dse_sweep_ns: 1000.0,
            ..Default::default()
        };
        let j = merge_into_trajectory(None, &r);
        assert_eq!(
            FrontendReport::from_json(j.get("baseline").unwrap()).unwrap(),
            r
        );
        // A second, faster run keeps the original baseline.
        let faster = FrontendReport {
            parse_ns: 50.0,
            dse_sweep_ns: 250.0,
            ..Default::default()
        };
        let j2 = merge_into_trajectory(Some(&j), &faster);
        assert_eq!(
            FrontendReport::from_json(j2.get("baseline").unwrap())
                .unwrap()
                .parse_ns,
            100.0
        );
        assert_eq!(
            FrontendReport::from_json(j2.get("current").unwrap())
                .unwrap()
                .parse_ns,
            50.0
        );
        let sp = j2.get("speedup").unwrap();
        assert_eq!(sp.get("parse").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(sp.get("dse_sweep").unwrap().as_f64().unwrap(), 4.0);
    }

    #[test]
    fn malformed_trajectory_rebaselines() {
        let r = FrontendReport {
            check_ns: 7.0,
            ..Default::default()
        };
        let garbled = Json::parse(r#"{"baseline":{"parse_ns":"zap"}}"#).unwrap();
        let j = merge_into_trajectory(Some(&garbled), &r);
        assert_eq!(
            FrontendReport::from_json(j.get("baseline").unwrap()).unwrap(),
            r
        );
    }
}
