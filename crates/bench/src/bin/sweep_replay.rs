//! Times a sweep thread's per-point work over the full 32,000-point
//! Fig. 7 space: decode, render, then the front end. Two ways, in
//! alternating rounds:
//!
//! * `full` runs `front_end` on each rendered source, lexing and
//!   parsing every point;
//! * `replayed` parses each template shape once and patches every other
//!   point's integer slots into that shape's AST before checking it, as
//!   the gateway's sweep does.
//!
//! Every round compares the two ways' verdicts point by point and exits
//! 1 at the first disagreement, naming the point. Otherwise it prints
//! one JSON line: the median and quartile µs per point of each way, the
//! accept counts (both must be 504) and the number of shapes.
//!
//! ```text
//! cargo run --release -p dahlia-bench --bin sweep_replay [ROUNDS]   # default 12
//! ```

use std::collections::HashMap;
use std::time::Instant;

use dahlia_dse::{ShapeAst, Slots, SweepSpec};
use dahlia_kernels::gemm::{gemm_blocked_template, GEMM_BLOCKED_AXES};
use dahlia_server::json::{obj, Json};
use dahlia_server::{front_end, verdict, Diagnostic, Stage};

/// One pass over every point, replacing `verdicts` with each point's;
/// returns µs per point and the number of shapes.
fn round(
    spec: &SweepSpec,
    replay: bool,
    verdicts: &mut Vec<Result<(), Diagnostic>>,
) -> (f64, usize) {
    let plan = spec.plan().expect("the Fig. 7 spec plans");
    let mut shapes: HashMap<Vec<u8>, Option<ShapeAst>> = HashMap::new();
    let mut values = vec![0; plan.axes()];
    let mut source = String::new();
    let mut slots = Slots::default();
    verdicts.clear();
    let t0 = Instant::now();
    for n in 0..plan.count() {
        plan.decode(n, &mut values);
        verdicts.push(if replay {
            plan.render_slots(&values, &mut source, &mut slots);
            let shape = shapes
                .entry(slots.shape.clone())
                .or_insert_with(|| ShapeAst::build(&source, &slots.ints));
            match shape.as_mut().and_then(|s| s.patch(&slots.ints)) {
                Some(ast) => verdict(ast, Stage::Estimate),
                None => front_end(&source, Stage::Estimate),
            }
        } else {
            plan.render(&values, &mut source);
            front_end(&source, Stage::Estimate)
        });
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / plan.count() as f64;
    (us, shapes.len())
}

/// How many `verdicts` accept their point.
fn accepted(verdicts: &[Result<(), Diagnostic>]) -> f64 {
    verdicts.iter().filter(|v| v.is_ok()).count() as f64
}

/// Median and quartiles of `xs`.
fn spread(mut xs: Vec<f64>) -> Json {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    obj([
        ("median", Json::Num(at(0.5))),
        (
            "quartiles",
            Json::Arr(vec![Json::Num(at(0.25)), Json::Num(at(0.75))]),
        ),
    ])
}

fn main() {
    let rounds: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        None => 12,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("sweep_replay: ROUNDS must be a positive integer");
            std::process::exit(2);
        }
    };
    let spec = SweepSpec {
        name: "gemm-blocked".to_string(),
        template: gemm_blocked_template(128, 8),
        params: GEMM_BLOCKED_AXES
            .iter()
            .map(|(name, values)| (name.to_string(), values.to_vec()))
            .collect(),
        stage: "est".to_string(),
        stride: 1,
    };
    let (mut full, mut replayed) = (Vec::new(), Vec::new());
    let (mut by_full, mut by_replay) = (Vec::new(), Vec::new());
    let mut shapes = 0;
    for _ in 0..rounds {
        full.push(round(&spec, false, &mut by_full).0);
        let (us, s) = round(&spec, true, &mut by_replay);
        replayed.push(us);
        shapes = s;
        if let Some(n) = (0..by_full.len()).find(|&n| by_full[n] != by_replay[n]) {
            let plan = spec.plan().expect("the Fig. 7 spec plans");
            let mut values = vec![0; plan.axes()];
            plan.decode(n as u64, &mut values);
            eprintln!(
                "sweep_replay: point {n} ({}) disagrees: full {:?}, replayed {:?}",
                plan.key(&values),
                by_full[n],
                by_replay[n]
            );
            std::process::exit(1);
        }
    }
    let line = obj([
        ("points", Json::Num(32_000.0)),
        ("rounds", Json::Num(rounds as f64)),
        ("full_us_per_point", spread(full)),
        ("replayed_us_per_point", spread(replayed)),
        ("accepted_full", Json::Num(accepted(&by_full))),
        ("accepted_replayed", Json::Num(accepted(&by_replay))),
        ("shapes", Json::Num(shapes as f64)),
    ]);
    println!("{}", line.emit());
}
