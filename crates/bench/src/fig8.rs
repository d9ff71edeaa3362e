//! Fig. 8 — Dahlia-directed design-space exploration for the three §5.3
//! case studies: `stencil2d`, `md-knn`, and `md-grid`.
//!
//! Following the paper's methodology, the full space is *filtered by the
//! type checker first*; only the accepted configurations are estimated
//! (through the real pipeline: parse → check → lower → estimate), and the
//! Pareto frontier is computed within the accepted set.

use dahlia_dse::{mark_pareto, render, Config, DesignPoint, ParamSpace, Summary};
use dahlia_kernels::md::{md_grid_template, md_knn_template, MD_GRID_AXES, MD_KNN_AXES};
use dahlia_kernels::stencil::{stencil2d_template, STENCIL2D_AXES};
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

    /// The study's free parameters with their values, in enumeration
    /// order: 2,916 stencil2d points, 16,384 each for md-knn and md-grid.
    pub fn axes(self) -> &'static [(&'static str, &'static [u64])] {
        match self {
            Study::Stencil2d => &STENCIL2D_AXES,
            Study::MdKnn => &MD_KNN_AXES,
            Study::MdGrid => &MD_GRID_AXES,
        }
    }

    /// The study's kernel as a sweep template over its [`Study::axes`],
    /// at the paper's problem size.
    pub fn template(self) -> String {
        match self {
            Study::Stencil2d => stencil2d_template(126, 66),
            Study::MdKnn => md_knn_template(64, 16),
            Study::MdGrid => md_grid_template(4, 8),
        }
    }

    /// The full parameter space of the study.
    pub fn space(self) -> ParamSpace {
        crate::space_of(self.axes())
    }

    /// Generate the Dahlia source for one configuration.
    pub fn source(self, cfg: &Config) -> String {
        render(&self.template(), cfg).expect("a Fig. 8 template renders")
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
    fn every_swept_point_and_machsuite_port_renders_its_pinned_bytes() {
        // One fold over the digest of every rendered Fig. 8 point and
        // every MachSuite source (gemm-ncubed among them): any changed
        // byte changes it, and with it every cache key and journal
        // identity built on those sources.
        const PINNED: u128 = 0x05d2_f52f_9e59_8f30_7c48_aabd_eb57_b017;
        let mut h = hls_sim::Fnv::new();
        let mut fold = |source: &str| {
            let d = dahlia_dse::point_digest(source);
            h.u64(d as u64).u64((d >> 64) as u64);
        };
        for study in [Study::Stencil2d, Study::MdKnn, Study::MdGrid] {
            for cfg in &study.space() {
                fold(&study.source(&cfg));
            }
        }
        for b in dahlia_kernels::all_benches()
            .into_iter()
            .chain(dahlia_kernels::small_benches())
        {
            fold(&b.source);
        }
        assert_eq!(h.finish(), PINNED);
    }

    #[test]
    fn accepted_points_have_pareto_subset() {
        let pts = run(Study::Stencil2d, 5, &Server::with_threads(1));
        let s = summarize(&pts);
        assert!(s.accepted_pareto > 0);
        assert!(s.accepted_pareto <= s.accepted);
    }
}
