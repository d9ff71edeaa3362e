//! # dahlia-dse
//!
//! Design-space exploration for the Dahlia evaluation (§5): parameter
//! spaces, Dahlia-acceptance filtering, the Pareto front, sweep
//! planning, and CSV reports.
//!
//! The workflow mirrors the paper's: enumerate a [`ParamSpace`], generate a
//! Dahlia program per configuration, record whether the type checker
//! accepts it, estimate every point with the HLS substrate, and compare the
//! accepted subset against the full frontier. This crate only plans and
//! folds: the points themselves are compiled by a `dahlia_server::Server`
//! (the figure drivers in `dahlia-bench` submit to one directly; the
//! gateway's `sweep` op routes them to its shards), and both fold the
//! results through the one [`ParetoFront`].
//!
//! ```
//! use dahlia_dse::{accepts, ParamSpace};
//!
//! let space = ParamSpace::new().param("bank", [1, 2, 4]).param("unroll", [1, 2, 4]);
//! let mut accepted = 0;
//! for cfg in &space {
//!     let src = format!(
//!         "let A: float[8 bank {b}];
//!          for (let i = 0..8) unroll {u} {{ A[i] := 1.0; }}",
//!         b = cfg["bank"], u = cfg["unroll"],
//!     );
//!     if accepts(&src) { accepted += 1; }
//! }
//! // Sequential loops (unroll 1) always pass; parallel ones only when the
//! // unroll factor matches the banking factor.
//! assert_eq!(accepted, 5);
//! ```

pub mod pareto;
pub mod point;
pub mod report;
pub mod rules;
pub mod space;
pub mod sweep;

pub use pareto::{dominates, FrontEntry, ParetoFront};
pub use point::{mark_pareto, DesignPoint};
pub use report::{to_csv, Summary};
pub use space::{Config, ConfigIter, ParamSpace};
pub use sweep::{point_digest, render, Plan, ShapeAst, Slot, Slots, SweepSpec};

/// Does the Dahlia type checker accept this source text?
///
/// Parse errors count as rejections (the DSE generators may produce
/// configurations that are not even syntactically pluggable).
pub fn accepts(src: &str) -> bool {
    match dahlia_core::parse(src) {
        Ok(p) => dahlia_core::typecheck(&p).is_ok(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_matches_checker() {
        assert!(accepts("let A: float[8 bank 2]; let x = A[0];"));
        assert!(!accepts("let A: float[8]; let x = A[0]; A[1] := 1.0;"));
        assert!(!accepts("syntax error ~~~"));
    }
}
