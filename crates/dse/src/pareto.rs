//! Multi-objective Pareto analysis.
//!
//! The paper identifies Pareto-optimal configurations "according to their
//! estimated cycle latency and number of lookup tables (LUTs), flip flops
//! (FFs), block RAMs (BRAMs), and arithmetic units (DSPs)" — five
//! minimization objectives. [`ParetoFront`] is the one front algorithm:
//! the figure drivers fold their points through it
//! ([`mark_pareto`](crate::mark_pareto)) and the cluster `sweep` op folds
//! shard results through it. Insertion is dominance-pruned, fronts
//! merge, and a canonical serialization order makes two sweeps over the
//! same point set emit byte-identical fronts regardless of arrival
//! order.

/// `a` dominates `b` iff `a` is no worse in every objective and strictly
/// better in at least one (all objectives minimized).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// One entry of a streaming [`ParetoFront`]: an opaque point key (the
/// sweep uses the rendered source digest) plus its objective vector.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEntry {
    /// Identifies the design point; never interpreted, only carried.
    pub key: String,
    /// Minimization objectives, all the same arity within one front.
    pub objectives: Vec<f64>,
}

/// An incremental Pareto front: points stream in via [`insert`], fronts
/// built on disjoint shards combine via [`merge`], and [`entries`]
/// returns a canonical order so serialized fronts are byte-identical for
/// equal point sets.
///
/// Two entries with equal objective vectors but distinct keys are both
/// retained (neither dominates the other).
/// Re-inserting an entry whose key is already present is a no-op, which
/// makes journal-replay resumption idempotent.
///
/// [`insert`]: ParetoFront::insert
/// [`merge`]: ParetoFront::merge
/// [`entries`]: ParetoFront::entries
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    entries: Vec<FrontEntry>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Number of non-dominated entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry has survived insertion yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when some current entry dominates `objectives` — the early
    /// pruning test: a candidate that is already dominated cannot change
    /// the front, so its evaluation can be skipped entirely.
    pub fn dominates_point(&self, objectives: &[f64]) -> bool {
        self.entries
            .iter()
            .any(|e| dominates(&e.objectives, objectives))
    }

    /// Offer one point. Returns `true` when the point joined the front
    /// (evicting any entries it dominates), `false` when it was dominated
    /// by an existing entry or its key is already present.
    pub fn insert(&mut self, key: impl Into<String>, objectives: Vec<f64>) -> bool {
        let key = key.into();
        if self.entries.iter().any(|e| e.key == key) {
            return false;
        }
        if self.dominates_point(&objectives) {
            return false;
        }
        self.entries
            .retain(|e| !dominates(&objectives, &e.objectives));
        self.entries.push(FrontEntry { key, objectives });
        true
    }

    /// Fold another front in. Since a front is just a set of surviving
    /// points, merging is insertion of every entry; commutativity and
    /// idempotence follow from the set semantics (pinned by property
    /// tests).
    pub fn merge(&mut self, other: &ParetoFront) {
        for e in &other.entries {
            self.insert(e.key.clone(), e.objectives.clone());
        }
    }

    /// The surviving entries in canonical order: objectives compared
    /// lexicographically, ties broken by key. Serializing this order
    /// makes equal fronts byte-identical regardless of insertion order.
    pub fn entries(&self) -> Vec<FrontEntry> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| {
            a.objectives
                .iter()
                .zip(&b.objectives)
                .find_map(|(x, y)| x.partial_cmp(y).filter(|o| o.is_ne()))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.key.cmp(&b.key))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indices that survive folding `objectives` through a front
    /// keyed by point index, ascending.
    fn front_indices(objectives: &[Vec<f64>]) -> Vec<usize> {
        let mut front = ParetoFront::new();
        for (i, o) in objectives.iter().enumerate() {
            front.insert(i.to_string(), o.clone());
        }
        let mut idx: Vec<usize> = front
            .entries()
            .iter()
            .map(|e| e.key.parse().unwrap())
            .collect();
        idx.sort_unstable();
        idx
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 1.0]), "incomparable");
        assert!(
            !dominates(&[1.0, 1.0], &[1.0, 1.0]),
            "equal points do not dominate"
        );
    }

    #[test]
    fn simple_frontier() {
        let pts = vec![
            vec![1.0, 4.0], // frontier
            vec![2.0, 3.0], // frontier
            vec![3.0, 3.5], // dominated by (2,3)
            vec![4.0, 1.0], // frontier
            vec![4.0, 4.0], // dominated
        ];
        assert_eq!(front_indices(&pts), vec![0, 1, 3]);
    }

    #[test]
    fn duplicates_survive() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(front_indices(&pts), vec![0, 1]);
    }

    #[test]
    fn frontier_axioms_hold_on_random_like_data() {
        // Deterministic pseudo-random points.
        let mut x = 0x1234_5678_u64;
        let mut pts = Vec::new();
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) % 1000;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) % 1000;
            pts.push(vec![a as f64, b as f64]);
        }
        let front = front_indices(&pts);
        let mask: Vec<bool> = (0..pts.len()).map(|i| front.contains(&i)).collect();
        // 1. No frontier point is dominated by any other point.
        for (i, m) in mask.iter().enumerate() {
            if *m {
                assert!(!pts.iter().any(|p| dominates(p, &pts[i])));
            }
        }
        // 2. Every non-frontier point is dominated by some frontier point.
        for (i, m) in mask.iter().enumerate() {
            if !*m {
                assert!(
                    pts.iter()
                        .enumerate()
                        .any(|(j, p)| mask[j] && dominates(p, &pts[i])),
                    "point {i} neither on frontier nor dominated"
                );
            }
        }
    }

    #[test]
    fn single_objective_is_min() {
        let pts = vec![vec![5.0], vec![2.0], vec![9.0], vec![2.0]];
        assert_eq!(front_indices(&pts), vec![1, 3]);
    }

    #[test]
    fn front_insertion_prunes_dominated_entries() {
        let mut f = ParetoFront::new();
        assert!(f.insert("a", vec![3.0, 3.0]));
        assert!(f.insert("b", vec![1.0, 4.0]));
        // Dominates "a": evicts it on the way in.
        assert!(f.insert("c", vec![2.0, 2.0]));
        assert_eq!(f.len(), 2);
        // Dominated on arrival: rejected without changing the front.
        assert!(!f.insert("d", vec![2.5, 2.5]));
        assert!(f.dominates_point(&[4.0, 4.0]));
        assert!(!f.dominates_point(&[0.5, 0.5]));
        let keys: Vec<String> = f.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(keys, vec!["b", "c"]);
    }

    #[test]
    fn front_retains_equal_points_and_dedups_keys() {
        let mut f = ParetoFront::new();
        assert!(f.insert("x", vec![1.0, 1.0]));
        // Equal objectives, distinct key: neither dominates, both stay.
        assert!(f.insert("y", vec![1.0, 1.0]));
        // Same key again: idempotent no-op (journal replay relies on it).
        assert!(!f.insert("x", vec![1.0, 1.0]));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn front_matches_batch_indices_and_merge_agrees() {
        let pts: Vec<Vec<f64>> = vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 3.5],
            vec![4.0, 1.0],
            vec![4.0, 4.0],
        ];
        let mut whole = ParetoFront::new();
        for (i, p) in pts.iter().enumerate() {
            whole.insert(format!("p{i}"), p.clone());
        }
        let survivors: Vec<String> = whole.entries().into_iter().map(|e| e.key).collect();
        // `simple_frontier`'s points: 0, 1 and 3 survive, in canonical
        // (sorted-objective) order.
        let expect = vec!["p0", "p1", "p3"];
        assert_eq!(survivors, expect);

        // Split the stream in half, front each part, merge: same result.
        let (mut left, mut right) = (ParetoFront::new(), ParetoFront::new());
        for (i, p) in pts.iter().enumerate() {
            let f = if i % 2 == 0 { &mut left } else { &mut right };
            f.insert(format!("p{i}"), p.clone());
        }
        left.merge(&right);
        let merged: Vec<String> = left.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(merged, expect);
    }
}
