//! Times a sweep thread's per-point work over the full 32,000-point
//! Fig. 7 space: decode, render, then the front end. Two ways, in
//! alternating rounds:
//!
//! * `full` runs `front_end` on each rendered source, lexing every point;
//! * `replayed` lexes each template shape once and patches every other
//!   point's integer slots into that shape's tokens before parsing and
//!   checking, as the gateway's sweep does.
//!
//! Prints one JSON line: the median and quartile µs per point of each
//! way, the accept counts (both must be 504) and the number of shapes.
//!
//! ```text
//! cargo run --release -p dahlia-bench --bin sweep_replay [ROUNDS]   # default 12
//! ```

use std::collections::HashMap;
use std::time::Instant;

use dahlia_dse::{ShapeTokens, Slots, SweepSpec};
use dahlia_kernels::gemm::{gemm_blocked_template, GEMM_BLOCKED_AXES};
use dahlia_server::json::{obj, Json};
use dahlia_server::{front_end, front_end_tokens, Stage};

/// One pass over every point; returns µs per point and points accepted.
fn round(spec: &SweepSpec, replay: bool) -> (f64, u64, usize) {
    let plan = spec.plan().expect("the Fig. 7 spec plans");
    let mut shapes: HashMap<Vec<u8>, Option<ShapeTokens>> = HashMap::new();
    let mut values = vec![0; plan.axes()];
    let mut source = String::new();
    let mut slots = Slots::default();
    let mut accepted = 0;
    let t0 = Instant::now();
    for n in 0..plan.count() {
        plan.decode(n, &mut values);
        let verdict = if replay {
            plan.render_slots(&values, &mut source, &mut slots);
            let shape = shapes
                .entry(slots.shape.clone())
                .or_insert_with(|| ShapeTokens::lex(&source, &slots.ints));
            match shape.as_mut().and_then(|t| t.patch(&slots.ints)) {
                Some(tokens) => front_end_tokens(tokens, Stage::Estimate),
                None => front_end(&source, Stage::Estimate),
            }
        } else {
            plan.render(&values, &mut source);
            front_end(&source, Stage::Estimate)
        };
        accepted += u64::from(verdict.is_ok());
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / plan.count() as f64;
    (us, accepted, shapes.len())
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
    let (mut accepted, mut shapes) = ((0, 0), 0);
    for _ in 0..rounds {
        let (us, a, _) = round(&spec, false);
        full.push(us);
        accepted.0 = a;
        let (us, a, s) = round(&spec, true);
        replayed.push(us);
        accepted.1 = a;
        shapes = s;
    }
    let line = obj([
        ("points", Json::Num(32_000.0)),
        ("rounds", Json::Num(rounds as f64)),
        ("full_us_per_point", spread(full)),
        ("replayed_us_per_point", spread(replayed)),
        ("accepted_full", Json::Num(accepted.0 as f64)),
        ("accepted_replayed", Json::Num(accepted.1 as f64)),
        ("shapes", Json::Num(shapes as f64)),
    ]);
    println!("{}", line.emit());
}
