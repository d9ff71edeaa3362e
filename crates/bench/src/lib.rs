//! # dahlia-bench
//!
//! The benchmark harness that regenerates every figure of the Dahlia paper
//! against this repository's substrates. Each `figN` module exposes the
//! experiment as a library function (tested at reduced scale) and a binary
//! of the same name prints the full data series:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig4` | Fig. 4a/4b/4c — HLS predictability pitfalls |
//! | `fig7` | Fig. 7a/7b/7c — gemm-blocked exhaustive DSE |
//! | `fig8` | Fig. 8a/8b/8c — Dahlia-directed DSE case studies |
//! | `fig9` | Fig. 9 + Fig. 13 — Spatial banking-inference sweep |
//! | `fig11` | Fig. 11a–f — MachSuite baseline vs Dahlia rewrite |
//!
//! `cargo bench --bench frontend` times the front-end stages (parse,
//! check, desugar, lower) per MachSuite kernel; the socket-level
//! benchmark of the whole serving stack lives in `perfbench/`.

pub mod ablation;
pub mod fig11;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod frontend;

use dahlia_dse::{Config, DesignPoint, ParamSpace};
use dahlia_server::{Artifact, Request, Server, Stage};

/// Compile one configuration's `source` to an estimate through `server`
/// (kernel `name`) and turn the `est` response into a design point:
/// estimated and accepted when the pipeline accepts the program,
/// [`DesignPoint::rejected`] when it does not.
pub fn estimate_point(server: &Server, config: Config, name: &str, source: String) -> DesignPoint {
    match server
        .submit(Request::new("dse", Stage::Estimate, source, name))
        .value
    {
        Ok(Artifact::Estimate(e)) => DesignPoint::from_estimate(config, &e, true),
        Ok(other) => unreachable!("est request returned {other:?}"),
        Err(_) => DesignPoint::rejected(config),
    }
}

/// The space a kernel's sweep axes span, in their enumeration order.
fn space_of(axes: &[(&str, &[u64])]) -> ParamSpace {
    axes.iter().fold(ParamSpace::new(), |s, (name, values)| {
        s.param(*name, values.iter().copied())
    })
}

/// Parse figure-driver arguments into sweep strides (default `[1]`,
/// the full sweep). Shared by the `fig7` and `fig8` binaries, which
/// accept several strides per invocation and run them against one
/// [`Server`]. Rejects anything unparseable — a typo must not
/// silently launch the full 32,000-point sweep.
pub fn strides_from_args(args: impl Iterator<Item = String>) -> Result<Vec<usize>, String> {
    let mut strides = Vec::new();
    for a in args {
        match a.parse::<usize>() {
            Ok(n) if n > 0 => strides.push(n),
            _ => return Err(format!("bad stride `{a}` (want a positive integer)")),
        }
    }
    if strides.is_empty() {
        strides.push(1);
    }
    Ok(strides)
}

#[cfg(test)]
mod tests {
    #[test]
    fn strides_default_and_reject() {
        let parse = |xs: &[&str]| super::strides_from_args(xs.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]).unwrap(), vec![1]);
        assert_eq!(parse(&["101", "7"]).unwrap(), vec![101, 7]);
        assert!(parse(&["10x"]).is_err());
        assert!(parse(&["0"]).is_err());
    }
}
