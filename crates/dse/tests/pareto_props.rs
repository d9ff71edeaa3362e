//! Property tests for the Pareto machinery: [`mark_pareto`] (the
//! figures' fold through a [`ParetoFront`] keyed by point index) agrees
//! with a naive O(n²) oracle, frontier axioms hold on random point
//! clouds, and the streaming front the cluster sweep folds shard results
//! through is insertion-order independent with commutative, idempotent
//! merges. Failing cases are minimized by the proptest shim's shrinking.

use proptest::prelude::*;

use dahlia_dse::{dominates, mark_pareto, Config, DesignPoint, ParetoFront};

/// Naive quadratic oracle.
fn pareto_naive(objs: &[Vec<f64>]) -> Vec<bool> {
    objs.iter()
        .map(|p| !objs.iter().any(|q| dominates(q, p)))
        .collect()
}

/// The Pareto flags [`mark_pareto`] sets on `objs`, read as five-objective
/// design points (unused objectives are zero).
fn marked(objs: &[Vec<f64>]) -> Vec<bool> {
    let mut points: Vec<DesignPoint> = objs
        .iter()
        .map(|o| {
            let at = |i: usize| o.get(i).map_or(0, |&x| x as u64);
            DesignPoint {
                config: Config::new(),
                cycles: at(0),
                luts: at(1),
                ffs: at(2),
                brams: at(3),
                dsps: at(4),
                lut_mems: 0,
                accepted: true,
                correct: true,
                pareto: false,
            }
        })
        .collect();
    mark_pareto(&mut points);
    points.iter().map(|p| p.pareto).collect()
}

fn cloud() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let dims = 1usize..5;
    dims.prop_flat_map(|d| {
        prop::collection::vec(
            prop::collection::vec(0u32..50, d..=d)
                .prop_map(|row| row.into_iter().map(f64::from).collect::<Vec<f64>>()),
            0..60,
        )
    })
}

/// Key each point by its objective values, so a generated list denotes a
/// *set* of labeled points (duplicate rows collapse onto one key — the
/// front's key-dedup makes re-insertion a no-op, like journal replay).
fn labeled(objs: &[Vec<f64>]) -> Vec<(String, Vec<f64>)> {
    objs.iter().map(|p| (format!("{p:?}"), p.clone())).collect()
}

/// Build a front by inserting the labeled points in the given order.
fn front_of(points: &[(String, Vec<f64>)]) -> ParetoFront {
    let mut f = ParetoFront::new();
    for (k, p) in points {
        f.insert(k.clone(), p.clone());
    }
    f
}

/// Canonical, comparable rendering of a front.
fn rendered(f: &ParetoFront) -> Vec<(String, Vec<f64>)> {
    f.entries()
        .into_iter()
        .map(|e| (e.key, e.objectives))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn incremental_matches_naive(objs in cloud()) {
        prop_assert_eq!(marked(&objs), pareto_naive(&objs));
    }

    #[test]
    fn frontier_points_are_mutually_incomparable(objs in cloud()) {
        let mask = marked(&objs);
        for (i, &mi) in mask.iter().enumerate() {
            for (j, &mj) in mask.iter().enumerate() {
                if mi && mj {
                    prop_assert!(!dominates(&objs[i], &objs[j]) || i == j);
                }
            }
        }
    }

    #[test]
    fn dominance_is_a_strict_partial_order(a in prop::collection::vec(0u32..50, 3),
                                           b in prop::collection::vec(0u32..50, 3),
                                           c in prop::collection::vec(0u32..50, 3)) {
        let f = |v: &[u32]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
        let (a, b, c) = (f(&a), f(&b), f(&c));
        // Irreflexive.
        prop_assert!(!dominates(&a, &a));
        // Asymmetric.
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
        // Transitive.
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    #[test]
    fn shuffling_does_not_change_the_frontier_set(objs in cloud()) {
        let mask = marked(&objs);
        let mut rev = objs.clone();
        rev.reverse();
        let mask_rev = marked(&rev);
        let fwd: Vec<&Vec<f64>> =
            objs.iter().zip(&mask).filter(|(_, m)| **m).map(|(p, _)| p).collect();
        let mut bwd: Vec<&Vec<f64>> =
            rev.iter().zip(&mask_rev).filter(|(_, m)| **m).map(|(p, _)| p).collect();
        bwd.reverse();
        let mut fwd_sorted = fwd.clone();
        fwd_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bwd.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(fwd_sorted, bwd);
    }

    #[test]
    fn front_is_insertion_order_independent(objs in cloud()) {
        let pts = labeled(&objs);
        let fwd = front_of(&pts);
        let mut rev = pts;
        rev.reverse();
        prop_assert_eq!(rendered(&fwd), rendered(&front_of(&rev)));
    }

    #[test]
    fn front_never_retains_a_dominated_point(objs in cloud()) {
        let f = front_of(&labeled(&objs));
        for e in f.entries() {
            prop_assert!(
                !objs.iter().any(|p| dominates(p, &e.objectives)),
                "front kept dominated point {:?}",
                e.objectives
            );
        }
        // And it drops nothing it should keep: survivor count matches the
        // naive oracle over the deduplicated point set.
        let mut uniq = objs;
        uniq.sort_by(|a, b| a.partial_cmp(b).unwrap());
        uniq.dedup();
        let oracle = pareto_naive(&uniq).into_iter().filter(|m| *m).count();
        prop_assert_eq!(f.len(), oracle);
    }

    #[test]
    fn merge_is_commutative_and_idempotent(objs in cloud(), split in 0u32..64) {
        let pts = labeled(&objs);
        let cut = if pts.is_empty() { 0 } else { split as usize % (pts.len() + 1) };
        let (a, b) = (front_of(&pts[..cut]), front_of(&pts[cut..]));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(rendered(&ab), rendered(&ba));

        let mut twice = ab.clone();
        twice.merge(&b);
        twice.merge(&ab.clone());
        prop_assert_eq!(rendered(&twice), rendered(&ab));
    }

    #[test]
    fn front_of_union_is_union_of_fronts(objs in cloud(), split in 0u32..64) {
        // The load-bearing sweep property: folding per-shard fronts
        // together equals fronting the whole point stream, so shard
        // completion order cannot change the final front.
        let pts = labeled(&objs);
        let cut = if pts.is_empty() { 0 } else { split as usize % (pts.len() + 1) };
        let whole = front_of(&pts);
        let mut merged = front_of(&pts[..cut]);
        merged.merge(&front_of(&pts[cut..]));
        prop_assert_eq!(rendered(&whole), rendered(&merged));
    }
}
