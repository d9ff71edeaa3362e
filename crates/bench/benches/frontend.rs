//! `cargo bench --bench frontend` — the front-end hot-path benchmark.
//!
//! Measures parse/check/desugar/lower per MachSuite kernel plus a cold
//! gemm-blocked DSE sweep (see [`dahlia_bench::frontend`]), prints the
//! per-stage numbers, and (full runs only) updates `BENCH_frontend.json`
//! at the root of the checkout it runs in: the first ever run pins the
//! `baseline` block, later runs rewrite `current` and the derived
//! `speedup` ratios.
//!
//! Flags (after `--`):
//!   `--quick`  coarse sweep stride and few samples (the CI smoke mode);
//!              prints only — a quick run is not comparable to the
//!              full-mode trajectory, so it never writes it;
//!   `--test`   passed by `cargo test` to harness-less benches: runs
//!              quick.

use dahlia_bench::frontend::{self, Effort};
use dahlia_server::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let quick = test_mode || args.iter().any(|a| a == "--quick");
    let effort = if quick { Effort::Quick } else { Effort::Full };

    let report = frontend::run(effort);
    println!(
        "frontend ({} mode): parse {:>10.1} ns | check {:>10.1} ns | desugar {:>10.1} ns | lower {:>10.1} ns",
        if quick { "quick" } else { "full" },
        report.parse_ns,
        report.check_ns,
        report.desugar_ns,
        report.lower_ns
    );
    println!(
        "cold DSE sweep: {} points ({} accepted) in {:.3} ms",
        report.sweep_points,
        report.sweep_accepted,
        report.dse_sweep_ns / 1e6
    );
    println!(
        "lower-only warm pass over the {} accepted ASTs: {:>10.1} ns",
        report.sweep_accepted, report.lower_warm_ns
    );

    if quick {
        println!("quick mode: not comparable to full runs; BENCH_frontend.json left unchanged");
        return;
    }

    let path = frontend::trajectory_path();
    let existing = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| Json::parse(&s).ok());
    let merged = frontend::merge_into_trajectory(existing.as_ref(), &report);
    std::fs::write(&path, merged.emit() + "\n").expect("write BENCH_frontend.json");
    if let Some(sp) = merged.get("speedup").and_then(|s| s.get("dse_sweep")) {
        println!(
            "recorded {} (dse_sweep speedup vs baseline: {:.2}x)",
            path.display(),
            sp.as_f64().unwrap_or(0.0)
        );
    }
}
