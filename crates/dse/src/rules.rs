//! The "unwritten rules" of HLS (§2.2), written down.
//!
//! The paper's §2 identifies two implicit rules a programmer must obey for
//! traditional HLS to behave:
//!
//! 1. *the unrolling factor must divide the banking factor*, and
//! 2. *the banking factor must divide the array size*.
//!
//! Dahlia's contribution is enforcing these **compositionally** through
//! types rather than as global syntactic checks. This module states the
//! rules explicitly as a symbolic acceptance predictor for simple
//! loop-over-array templates. It is a cross-validation oracle:
//! `tests/rules_vs_checker.rs` checks that the type checker's verdict on
//! generated programs coincides with the written-down rules on the
//! template space (and the checker generalizes far beyond it). Nothing
//! else calls it; no sweep pre-filters with it. A parameter-level
//! pre-filter that keeps rejected points away from the parser (the
//! paper's §6 "polymorphism" future work) is ROADMAP item 5's remaining
//! work, and would be derived from the checker, not from these rules.

/// One parallel access pattern of a loop nest: a memory dimension swept by
/// a (possibly unrolled) iterator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweptAccess {
    /// Elements in the dimension.
    pub size: u64,
    /// Cyclic banking factor of the dimension.
    pub banks: u64,
    /// Trip count of the sweeping loop.
    pub trips: u64,
    /// Unroll factor of the sweeping loop.
    pub unroll: u64,
    /// Is a `shrink` view available to bridge unroll < banks?
    /// (The idiomatic Dahlia port always provides one.)
    pub shrinkable: bool,
}

/// Why a configuration violates the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleViolation {
    /// Banking does not divide the array size (Fig. 4c).
    BankingVsSize,
    /// Unroll does not divide the trip count (epilogue hardware).
    UnrollVsTrips,
    /// Unroll exceeds or does not divide the banking factor (Fig. 4b).
    UnrollVsBanking,
}

impl SweptAccess {
    /// Apply the unwritten rules to this access.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn check(&self) -> Result<(), RuleViolation> {
        if self.banks == 0 || !self.size.is_multiple_of(self.banks) {
            return Err(RuleViolation::BankingVsSize);
        }
        if self.unroll == 0 || !self.trips.is_multiple_of(self.unroll) {
            return Err(RuleViolation::UnrollVsTrips);
        }
        if self.unroll == 1 {
            return Ok(());
        }
        let matched = self.unroll == self.banks;
        let bridged =
            self.shrinkable && self.unroll < self.banks && self.banks.is_multiple_of(self.unroll);
        if matched || bridged {
            Ok(())
        } else {
            Err(RuleViolation::UnrollVsBanking)
        }
    }

    /// Convenience: does the configuration obey every rule?
    pub fn predict_accepted(&self) -> bool {
        self.check().is_ok()
    }
}

/// Predict acceptance for a whole template: every swept access must obey
/// the rules.
pub fn predict_accepted(accesses: &[SweptAccess]) -> bool {
    accesses.iter().all(SweptAccess::predict_accepted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(size: u64, banks: u64, trips: u64, unroll: u64) -> SweptAccess {
        SweptAccess {
            size,
            banks,
            trips,
            unroll,
            shrinkable: true,
        }
    }

    #[test]
    fn the_three_rules() {
        assert_eq!(acc(10, 3, 10, 1).check(), Err(RuleViolation::BankingVsSize));
        assert_eq!(acc(10, 2, 10, 3).check(), Err(RuleViolation::UnrollVsTrips));
        assert_eq!(
            acc(16, 2, 16, 4).check(),
            Err(RuleViolation::UnrollVsBanking)
        );
        assert_eq!(acc(16, 4, 16, 4).check(), Ok(()));
        assert_eq!(acc(16, 4, 16, 2).check(), Ok(()), "shrink bridges 2 | 4");
    }

    #[test]
    fn without_shrink_only_exact_matches() {
        let a = SweptAccess {
            shrinkable: false,
            ..acc(16, 4, 16, 2)
        };
        assert_eq!(a.check(), Err(RuleViolation::UnrollVsBanking));
    }

    #[test]
    fn sequential_loops_always_pass_banking() {
        for b in [1, 2, 4, 8] {
            assert!(acc(16, b, 16, 1).predict_accepted());
        }
    }

    #[test]
    fn whole_template_conjunction() {
        assert!(predict_accepted(&[acc(16, 2, 16, 2), acc(16, 4, 16, 4)]));
        assert!(!predict_accepted(&[acc(16, 2, 16, 2), acc(16, 3, 16, 1)]));
    }
}
