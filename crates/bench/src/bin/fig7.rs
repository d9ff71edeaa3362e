//! Regenerates Fig. 7: the exhaustive 32,000-point gemm-blocked DSE.
//!
//! Pass stride arguments to subsample (default 1 = the full sweep).
//! Several strides may be given; every sweep submits to one shared
//! `dahlia_server::Server`, so overlapping configurations are compiled
//! once — re-running at a finer stride only pays for the new points.

use dahlia_bench::fig7;
use dahlia_dse::to_csv;
use dahlia_server::Server;

fn main() {
    let strides = match dahlia_bench::strides_from_args(std::env::args().skip(1)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fig7: {e}");
            std::process::exit(2);
        }
    };
    let server = Server::new();
    for stride in strides {
        let points = fig7::run(stride, &server);
        let summary = fig7::summarize(&points);
        eprintln!("gemm-blocked DSE (stride {stride}): {summary}");
        println!(
            "# Fig. 7 — gemm-blocked design space (stride {stride}, {} points)",
            points.len()
        );
        println!("# {summary}");
        let params = [
            "bank_m1_d1",
            "bank_m1_d2",
            "bank_m2_d1",
            "bank_m2_d2",
            "unroll_i",
            "unroll_j",
            "unroll_k",
        ];
        // 7a: the Pareto-optimal points; 7b: the Dahlia-accepted points.
        let pareto: Vec<_> = points.iter().filter(|p| p.pareto).cloned().collect();
        let accepted: Vec<_> = points.iter().filter(|p| p.accepted).cloned().collect();
        println!("\n# Fig. 7a — Pareto-optimal points ({})", pareto.len());
        print!("{}", to_csv(&pareto, &params));
        println!("\n# Fig. 7b — Dahlia-accepted points ({})", accepted.len());
        print!("{}", to_csv(&accepted, &params));
    }
    eprintln!("cache: {}", server.stats());
}
