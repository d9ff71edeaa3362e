//! Pins which designs the affine type checker accepts: for the full
//! Fig. 7 gemm-blocked space and each Fig. 8 study's full space, the
//! accepted configuration keys (`name=value,...`, in space order) must
//! match `tests/golden/accept_*.txt` exactly, so speed work on the
//! front end cannot silently change the accept set.
//!
//! Regenerate the goldens with `DAHLIA_BLESS=1 cargo test -p
//! dahlia-bench --test accept_sets` (and review the diff: a changed
//! line is a changed verdict on a real design).

use dahlia_bench::{fig7, fig8::Study};
use dahlia_dse::{accepts, Config, ParamSpace};

/// The golden text: a header with the space and accept counts, then
/// one line per accepted configuration.
fn accept_set(title: &str, space: &ParamSpace, source: impl Fn(&Config) -> String) -> String {
    let names = space.names();
    let accepted: Vec<String> = space
        .iter()
        .filter(|cfg| accepts(&source(cfg)))
        .map(|cfg| {
            names
                .iter()
                .map(|n| format!("{n}={}", cfg[*n]))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let mut text = format!(
        "# {title}: {} points, {} accepted\n",
        space.len(),
        accepted.len()
    );
    for key in accepted {
        text.push_str(&key);
        text.push('\n');
    }
    text
}

fn check_golden(file: &str, text: &str) {
    let path = format!("tests/golden/{file}");
    if std::env::var_os("DAHLIA_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file");
    assert!(text == golden, "accept set drifted from {path}");
}

#[test]
fn fig7_gemm_blocked_accept_set_matches_the_golden() {
    let space = fig7::space();
    assert_eq!(space.len(), 32_000);
    let text = accept_set("fig7 gemm-blocked", &space, |cfg| {
        dahlia_kernels::gemm::gemm_blocked_source(&fig7::params_of(cfg))
    });
    check_golden("accept_fig7_gemm_blocked.txt", &text);
}

fn study_matches_the_golden(study: Study) {
    let text = accept_set(&format!("fig8 {}", study.name()), &study.space(), |cfg| {
        study.source(cfg)
    });
    check_golden(&format!("accept_fig8_{}.txt", study.name()), &text);
}

#[test]
fn fig8_stencil2d_accept_set_matches_the_golden() {
    study_matches_the_golden(Study::Stencil2d);
}

#[test]
fn fig8_md_knn_accept_set_matches_the_golden() {
    study_matches_the_golden(Study::MdKnn);
}

#[test]
fn fig8_md_grid_accept_set_matches_the_golden() {
    study_matches_the_golden(Study::MdGrid);
}
