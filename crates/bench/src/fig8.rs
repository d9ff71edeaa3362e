//! Fig. 8 — Dahlia-directed design-space exploration for the three §5.3
//! case studies: `stencil2d`, `md-knn`, and `md-grid`.
//!
//! Following the paper's methodology, the full space is *filtered by the
//! type checker first*; only the accepted configurations are estimated
//! (through the real pipeline: parse → check → lower → estimate), and the
//! Pareto frontier is computed within the accepted set.

use dahlia_dse::{mark_pareto, Config, DesignPoint, ParamSpace, Summary};
use dahlia_kernels::md::{md_grid_source, md_knn_source, MdGridParams, MdKnnParams};
use dahlia_kernels::stencil::{stencil2d_source, Stencil2dParams};
use dahlia_server::Server;

/// One of the three case studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Fig. 8a.
    Stencil2d,
    /// Fig. 8b.
    MdKnn,
    /// Fig. 8c.
    MdGrid,
}

impl Study {
    /// Benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Study::Stencil2d => "stencil2d",
            Study::MdKnn => "md-knn",
            Study::MdGrid => "md-grid",
        }
    }

    /// The full parameter space of the study.
    pub fn space(self) -> ParamSpace {
        match self {
            // orig banks {1..6}², filter banks {1..3}², unroll {1..3}²
            // = 2,916 points.
            Study::Stencil2d => ParamSpace::new()
                .param("bank_r", 1..=6)
                .param("bank_c", 1..=6)
                .param("bank_f1", 1..=3)
                .param("bank_f2", 1..=3)
                .param("unroll_1", 1..=3)
                .param("unroll_2", 1..=3),
            // four memories × banking {1..4}, two loops × unroll {1..8}
            // = 16,384 points.
            Study::MdKnn => ParamSpace::new()
                .param("bank_dx", 1..=4)
                .param("bank_dy", 1..=4)
                .param("bank_dz", 1..=4)
                .param("bank_f", 1..=4)
                .param("unroll_i", 1..=8)
                .param("unroll_j", 1..=8),
            // per-dimension banking {1..4} (block dims, particle dim,
            // counts), two loops × unroll {1..8} = 16,384 points.
            Study::MdGrid => ParamSpace::new()
                .param("bank_b1", 1..=4)
                .param("bank_b2", 1..=4)
                .param("bank_p", 1..=4)
                .param("bank_np", 1..=4)
                .param("unroll_y", 1..=8)
                .param("unroll_z", 1..=8),
        }
    }

    /// Generate the Dahlia source for one configuration.
    pub fn source(self, cfg: &Config) -> String {
        match self {
            Study::Stencil2d => stencil2d_source(&Stencil2dParams {
                rows: 126,
                cols: 66,
                bank_orig: (cfg["bank_r"], cfg["bank_c"]),
                bank_filter: (cfg["bank_f1"], cfg["bank_f2"]),
                unroll: (cfg["unroll_1"], cfg["unroll_2"]),
            }),
            Study::MdKnn => md_knn_source(&MdKnnParams {
                n: 64,
                k: 16,
                bank_d: (cfg["bank_dx"], cfg["bank_dy"], cfg["bank_dz"]),
                bank_f: cfg["bank_f"],
                unroll: (cfg["unroll_i"], cfg["unroll_j"]),
            }),
            Study::MdGrid => md_grid_source(&MdGridParams {
                b: 4,
                p: 8,
                bank_pos: (cfg["bank_b1"], cfg["bank_b2"], cfg["bank_p"]),
                bank_np: cfg["bank_np"],
                unroll: (cfg["unroll_y"], cfg["unroll_z"]),
            }),
        }
    }
}

/// Explore every `stride`-th configuration through `server`: accepted
/// points are estimated by the full Dahlia pipeline, rejected points
/// carry no estimate (mirroring the paper, which only measures the
/// accepted space). Pareto is marked among the estimated (accepted,
/// correct) points. The figure driver passes one server to every stride
/// and study, so overlapping configurations compile once.
pub fn run(study: Study, stride: usize, server: &Server) -> Vec<DesignPoint> {
    let mut points: Vec<DesignPoint> = study
        .space()
        .iter()
        .step_by(stride.max(1))
        .map(|cfg| {
            let source = study.source(&cfg);
            crate::estimate_point(server, cfg, study.name(), source)
        })
        .collect();
    mark_pareto(&mut points);
    points
}

/// Summary for a study run.
pub fn summarize(points: &[DesignPoint]) -> Summary {
    Summary::of(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_sizes_match_paper() {
        assert_eq!(Study::Stencil2d.space().len(), 2_916);
        assert_eq!(Study::MdKnn.space().len(), 16_384);
        assert_eq!(Study::MdGrid.space().len(), 16_384);
    }

    #[test]
    fn stencil_acceptance_is_sparse_and_useful() {
        let pts = run(Study::Stencil2d, 7, &Server::with_threads(1));
        let s = summarize(&pts);
        assert!(s.accepted > 0, "{s}");
        let ratio = s.acceptance_ratio();
        assert!(
            ratio < 0.12,
            "stencil acceptance should be sparse: {ratio:.3}"
        );
        // Accepted points vary in latency (a real trade-off space).
        let lats: std::collections::BTreeSet<u64> = pts
            .iter()
            .filter(|p| p.accepted)
            .map(|p| p.cycles)
            .collect();
        assert!(lats.len() > 1);
    }

    #[test]
    fn mdknn_acceptance_sparse() {
        let pts = run(Study::MdKnn, 37, &Server::with_threads(1));
        let s = summarize(&pts);
        assert!(s.accepted > 0, "{s}");
        assert!(s.acceptance_ratio() < 0.15, "{s}");
    }

    #[test]
    fn mdgrid_acceptance_sparse() {
        let pts = run(Study::MdGrid, 37, &Server::with_threads(1));
        let s = summarize(&pts);
        assert!(s.accepted > 0, "{s}");
        assert!(s.acceptance_ratio() < 0.15, "{s}");
    }

    #[test]
    fn accepted_points_have_pareto_subset() {
        let pts = run(Study::Stencil2d, 5, &Server::with_threads(1));
        let s = summarize(&pts);
        assert!(s.accepted_pareto > 0);
        assert!(s.accepted_pareto <= s.accepted);
    }
}
