//! Regenerates Fig. 8: Dahlia-directed DSE for stencil2d, md-knn, md-grid.
//!
//! Pass stride arguments to subsample (default 1 = full sweeps). Several
//! strides may be given; all sweeps — across strides *and* studies —
//! submit to one `dahlia_server::Server`, so overlapping configurations
//! compile once and front-end artifacts are reused across
//! differently-named requests.

use dahlia_bench::fig8::{run, summarize, Study};
use dahlia_dse::to_csv;
use dahlia_server::Server;

fn main() {
    let strides = match dahlia_bench::strides_from_args(std::env::args().skip(1)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fig8: {e}");
            std::process::exit(2);
        }
    };
    let server = Server::new();
    for stride in strides {
        for (study, fig) in [
            (Study::Stencil2d, "8a"),
            (Study::MdKnn, "8b"),
            (Study::MdGrid, "8c"),
        ] {
            let points = run(study, stride, &server);
            let s = summarize(&points);
            eprintln!("{} (stride {stride}): {s}", study.name());
            println!(
                "\n# Fig. {fig} — {} (stride {stride}, {} points swept): {s}",
                study.name(),
                points.len()
            );
            let names = study.space();
            let params: Vec<&str> = names.names();
            let accepted: Vec<_> = points.iter().filter(|p| p.accepted).cloned().collect();
            print!("{}", to_csv(&accepted, &params));
        }
    }
    eprintln!("cache: {}", server.stats());
}
