//! Evaluated design points.

use crate::pareto::ParetoFront;
use crate::space::Config;

/// One evaluated configuration of a design space.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The parameter assignment.
    pub config: Config,
    /// Estimated cycle latency.
    pub cycles: u64,
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Block RAMs.
    pub brams: u64,
    /// LUTs used as memory.
    pub lut_mems: u64,
    /// Did the Dahlia type checker accept this configuration?
    pub accepted: bool,
    /// Did the (simulated) toolchain produce correct hardware?
    pub correct: bool,
    /// Is the point Pareto-optimal (filled in by [`mark_pareto`])?
    pub pareto: bool,
}

impl DesignPoint {
    /// The paper's five minimization objectives:
    /// latency, LUTs, FFs, BRAMs, DSPs.
    pub fn objectives(&self) -> Vec<f64> {
        vec![
            self.cycles as f64,
            self.luts as f64,
            self.ffs as f64,
            self.brams as f64,
            self.dsps as f64,
        ]
    }

    /// A checker-rejected point: never estimated, never on the frontier.
    pub fn rejected(config: Config) -> DesignPoint {
        DesignPoint {
            config,
            cycles: 0,
            luts: 0,
            ffs: 0,
            dsps: 0,
            brams: 0,
            lut_mems: 0,
            accepted: false,
            correct: false,
            pareto: false,
        }
    }

    /// Build a point from an `hls_sim` estimate.
    pub fn from_estimate(config: Config, e: &hls_sim::Estimate, accepted: bool) -> DesignPoint {
        DesignPoint {
            config,
            cycles: e.cycles,
            luts: e.luts,
            ffs: e.ffs,
            dsps: e.dsps,
            brams: e.brams,
            lut_mems: e.lut_mems,
            accepted,
            correct: e.correct,
            pareto: false,
        }
    }
}

/// Mark the Pareto-optimal points in place (five-objective minimization,
/// following §5.2) by folding them through a [`ParetoFront`] keyed by
/// point index. Incorrect-hardware points are excluded from the
/// frontier (the paper omits their runtimes).
pub fn mark_pareto(points: &mut [DesignPoint]) {
    let mut front = ParetoFront::new();
    for (i, p) in points.iter().enumerate().filter(|(_, p)| p.correct) {
        front.insert(i.to_string(), p.objectives());
    }
    for p in points.iter_mut() {
        p.pareto = false;
    }
    for e in front.entries() {
        points[e.key.parse::<usize>().expect("keyed by index")].pareto = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(cycles: u64, luts: u64, correct: bool) -> DesignPoint {
        DesignPoint {
            config: Config::new(),
            cycles,
            luts,
            ffs: luts,
            dsps: 0,
            brams: 0,
            lut_mems: 0,
            accepted: true,
            correct,
            pareto: false,
        }
    }

    #[test]
    fn pareto_marking() {
        let mut pts = vec![pt(10, 100, true), pt(20, 50, true), pt(20, 200, true)];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto);
        assert!(pts[1].pareto);
        assert!(!pts[2].pareto);
    }

    #[test]
    fn incorrect_points_never_pareto() {
        let mut pts = vec![pt(1, 1, false), pt(10, 10, true)];
        mark_pareto(&mut pts);
        assert!(!pts[0].pareto, "miscompiled designs are excluded");
        assert!(pts[1].pareto);
    }
}
