//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Port constraints** — re-estimate kernels with idealized
//!    (unbounded-port) memories. The gap between real and idealized
//!    latency is exactly the serialization the paper's Fig. 4a/4b
//!    attribute to bank ports; on matched configurations the gap vanishes.
//! 2. **The affine discipline as a pruner** — compare the best accepted
//!    design against the best point of the unrestricted space. The paper's
//!    position (§8): predictability costs a few outliers but keeps the
//!    frontier.

use dahlia_dse::DesignPoint;
use dahlia_server::Server;
use hls_sim::{estimate, Estimate, Kernel};

use crate::fig4::matmul_kernel;
use crate::fig7;

/// Re-estimate with idealized memories (every bank gets effectively
/// unlimited ports), ablating the port-conflict model.
pub fn estimate_idealized(k: &Kernel) -> Estimate {
    let mut ideal = k.clone();
    for a in &mut ideal.arrays {
        a.ports = u32::MAX >> 1;
    }
    estimate(&ideal)
}

/// One row of the port-constraint ablation.
#[derive(Debug, Clone)]
pub struct PortAblation {
    /// Unroll factor swept.
    pub unroll: u64,
    /// Real (port-constrained) estimate.
    pub real: Estimate,
    /// Idealized estimate.
    pub ideal: Estimate,
}

impl PortAblation {
    /// Latency penalty attributable to bank-port serialization.
    pub fn serialization_factor(&self) -> f64 {
        self.real.cycles as f64 / self.ideal.cycles.max(1) as f64
    }
}

/// Sweep the §2 matmul with fixed banking, comparing real vs idealized
/// memories.
pub fn port_ablation(n: u64, banking: u64, max_unroll: u64) -> Vec<PortAblation> {
    (1..=max_unroll)
        .map(|u| {
            let k = matmul_kernel(n, banking, u);
            PortAblation {
                unroll: u,
                real: estimate(&k),
                ideal: estimate_idealized(&k),
            }
        })
        .collect()
}

/// The affine-pruning ablation over a (possibly subsampled) gemm-blocked
/// space: best latency among accepted vs among all points.
#[derive(Debug, Clone, Copy)]
pub struct PruningAblation {
    /// Fastest correct design in the unrestricted space (cycles).
    pub best_unrestricted: u64,
    /// Fastest design Dahlia accepts (cycles).
    pub best_accepted: u64,
    /// Points the checker pruned away.
    pub pruned: usize,
    /// Pruned points that were *incorrect hardware*.
    pub pruned_incorrect: usize,
}

/// Run the pruning ablation.
pub fn pruning_ablation(stride: usize) -> PruningAblation {
    let points: Vec<DesignPoint> = fig7::run(stride, &Server::with_threads(1));
    let best = |it: &mut dyn Iterator<Item = &DesignPoint>| {
        it.filter(|p| p.correct)
            .map(|p| p.cycles)
            .min()
            .unwrap_or(u64::MAX)
    };
    PruningAblation {
        best_unrestricted: best(&mut points.iter()),
        best_accepted: best(&mut points.iter().filter(|p| p.accepted)),
        pruned: points.iter().filter(|p| !p.accepted).count(),
        pruned_incorrect: points.iter().filter(|p| !p.accepted && !p.correct).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idealized_memories_remove_serialization() {
        // Unroll 8 on a single bank: real is ~8× slower than ideal.
        let rows = port_ablation(256, 1, 8);
        let row8 = &rows[7];
        assert!(
            row8.serialization_factor() > 4.0,
            "expected heavy serialization: {:.2}",
            row8.serialization_factor()
        );
        // On matched banking, the gap closes.
        let matched = port_ablation(256, 8, 8);
        let m8 = &matched[7];
        assert!(
            m8.serialization_factor() < 1.5,
            "matched config should not serialize: {:.2}",
            m8.serialization_factor()
        );
    }

    #[test]
    fn sequential_configs_are_port_insensitive() {
        let rows = port_ablation(128, 2, 1);
        assert!(rows[0].serialization_factor() <= 1.01);
    }

    #[test]
    fn pruning_keeps_competitive_designs() {
        let a = pruning_ablation(61);
        assert!(a.best_accepted < u64::MAX, "some design accepted");
        assert!(a.pruned > 0);
        assert!(
            a.best_unrestricted <= a.best_accepted,
            "accepted ⊆ unrestricted"
        );

        // The *full-space* accepted optimum (all-4 banking, unroll 4/4/4 —
        // the highest parallelism the affine rules admit here) must be
        // within a small factor of the sampled unrestricted optimum: the
        // paper's "worthy sacrifice".
        let flagship = fig7::evaluate(
            [
                ("bank_m1_d1", 4u64),
                ("bank_m1_d2", 4),
                ("bank_m2_d1", 4),
                ("bank_m2_d2", 4),
                ("unroll_i", 4),
                ("unroll_j", 4),
                ("unroll_k", 4),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        );
        assert!(flagship.accepted, "the flagship config is accepted");
        assert!(
            flagship.cycles <= a.best_unrestricted.saturating_mul(4),
            "accepted flagship {} vs unrestricted best {}",
            flagship.cycles,
            a.best_unrestricted
        );
    }
}
