//! Property tests for the rendezvous router: distribution and
//! stability over randomized keys, shard sets, and weights. The
//! headline properties — keys move only off dead shards, and only
//! from/to a re-weighted shard — are what make failover and re-sharding
//! cheap: a topology change invalidates exactly the affected shard's
//! cache locality, never the whole cluster's.

use proptest::prelude::*;

use dahlia_gateway::hash::{score, weighted_rank, weighted_score};

fn shard_ids(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.1.0.{i}:4500")).collect()
}

/// `n` shards of weight 1.
fn equal(n: usize) -> Vec<(String, f64)> {
    shard_ids(n).into_iter().map(|id| (id, 1.0)).collect()
}

/// The owner among the shards where `alive` holds: the ranking's first
/// surviving entry, as the router picks it.
fn owner(k: u128, shards: &[(String, f64)], alive: impl Fn(usize) -> bool) -> usize {
    weighted_rank(k, shards)
        .into_iter()
        .find(|&i| alive(i))
        .expect("a live shard")
}

fn key(lo: u64, hi: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rank_is_a_permutation_headed_by_the_owner(
        lo in any::<u64>(), hi in any::<u64>(), n in 1usize..9
    ) {
        let shards = equal(n);
        let k = key(lo, hi);
        let r = weighted_rank(k, &shards);
        let best = (0..n).max_by_key(|&i| score(k, &shards[i].0)).unwrap();
        prop_assert_eq!(r[0], best);
        let mut sorted = r;
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn keys_move_only_off_dead_shards(
        lo in any::<u64>(), hi in any::<u64>(), n in 2usize..9, pick in any::<u64>()
    ) {
        let shards = equal(n);
        let k = key(lo, hi);
        let dead = (pick as usize) % n;
        let before = owner(k, &shards, |_| true);
        let after = owner(k, &shards, |i| i != dead);
        if before == dead {
            // Displaced keys land on their second choice…
            prop_assert_eq!(after, weighted_rank(k, &shards)[1]);
        } else {
            // …everything else stays pinned.
            prop_assert_eq!(after, before);
        }
    }

    #[test]
    fn revived_shards_reclaim_exactly_their_keys(
        lo in any::<u64>(), hi in any::<u64>(), n in 2usize..9, pick in any::<u64>()
    ) {
        // Kill-then-revive round-trips placement: failover is symmetric.
        let shards = equal(n);
        let k = key(lo, hi);
        let dead = (pick as usize) % n;
        let original = owner(k, &shards, |_| true);
        let _failed_over = owner(k, &shards, |i| i != dead);
        let revived = owner(k, &shards, |_| true);
        prop_assert_eq!(revived, original);
    }

    #[test]
    fn scores_are_deterministic_functions(
        lo in any::<u64>(), hi in any::<u64>(), shard in any::<u16>()
    ) {
        let id = format!("10.1.0.{shard}:4500");
        prop_assert_eq!(score(key(lo, hi), &id), score(key(lo, hi), &id));
    }

    #[test]
    fn weighted_rank_is_a_permutation_headed_by_the_owner(
        lo in any::<u64>(), hi in any::<u64>(), n in 1usize..9, heavy in any::<u64>()
    ) {
        let shards: Vec<(String, f64)> = shard_ids(n)
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, if i == (heavy as usize) % n { 3.0 } else { 1.0 }))
            .collect();
        let k = key(lo, hi);
        let r = weighted_rank(k, &shards);
        let best = (0..n)
            .max_by(|&a, &b| {
                weighted_score(k, &shards[a].0, shards[a].1)
                    .total_cmp(&weighted_score(k, &shards[b].0, shards[b].1))
            })
            .unwrap();
        prop_assert_eq!(r[0], best);
        let mut sorted = r;
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn keys_move_only_off_dead_shards_under_weights(
        lo in any::<u64>(), hi in any::<u64>(), n in 2usize..9,
        pick in any::<u64>(), heavy in any::<u64>()
    ) {
        // The minimal-disruption property survives heterogeneous
        // weights: killing one shard displaces exactly its keys, each
        // to its weighted second choice.
        let shards: Vec<(String, f64)> = shard_ids(n)
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, if i == (heavy as usize) % n { 2.5 } else { 1.0 }))
            .collect();
        let k = key(lo, hi);
        let dead = (pick as usize) % n;
        let before = owner(k, &shards, |_| true);
        let after = owner(k, &shards, |i| i != dead);
        if before == dead {
            prop_assert_eq!(after, weighted_rank(k, &shards)[1]);
        } else {
            prop_assert_eq!(after, before);
        }
    }

    #[test]
    fn reweighting_moves_keys_only_from_or_to_that_shard(
        lo in any::<u64>(), hi in any::<u64>(), n in 2usize..9,
        pick in any::<u64>(), up in any::<bool>()
    ) {
        // Raising shard i's weight only pulls keys *to* i; lowering it
        // only pushes keys *off* i. Every other pairwise order is
        // untouched, so no key moves between two unchanged shards —
        // the re-sharding analogue of the dead-shard property.
        let base = equal(n);
        let target = (pick as usize) % n;
        let mut changed = base.clone();
        changed[target].1 = if up { 2.0 } else { 0.5 };
        let k = key(lo, hi);
        let before = owner(k, &base, |_| true);
        let after = owner(k, &changed, |_| true);
        if up {
            // Weight raised: keys move only TO the target.
            prop_assert!(after == before || after == target,
                "key moved between unchanged shards: {before}→{after}");
        } else {
            // Weight lowered: keys move only OFF the target.
            prop_assert!(after == before || before == target,
                "key moved between unchanged shards: {before}→{after}");
        }
    }
}

#[test]
fn load_spreads_across_shards() {
    // Deterministic distribution check at a fixed scale: 4 shards,
    // 4096 keys derived from a counter, each shard within ±40% of the
    // uniform share.
    let shards = equal(4);
    let n = 4096u64;
    let mut counts = [0usize; 4];
    for i in 0..n {
        let k = key(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
        counts[owner(k, &shards, |_| true)] += 1;
    }
    for (i, &c) in counts.iter().enumerate() {
        assert!(
            (614..=1434).contains(&c),
            "shard {i} got {c} of {n} keys: {counts:?}"
        );
    }
}

#[test]
fn key_share_is_weight_proportional() {
    // Weights 4:2:1:1 over 8192 keys: each shard's share must be
    // within ±20% of weight/Σweight — the defining property of the
    // logarithmic-score method.
    let weights = [4.0, 2.0, 1.0, 1.0];
    let shards: Vec<(String, f64)> = shard_ids(4).into_iter().zip(weights).collect();
    let n = 8192u64;
    let total: f64 = weights.iter().sum();
    let mut counts = [0usize; 4];
    for i in 0..n {
        let k = key(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i.rotate_left(17));
        counts[owner(k, &shards, |_| true)] += 1;
    }
    for (i, &c) in counts.iter().enumerate() {
        let expected = n as f64 * weights[i] / total;
        let lo = (expected * 0.8) as usize;
        let hi = (expected * 1.2) as usize;
        assert!(
            (lo..=hi).contains(&c),
            "shard {i} (weight {}) got {c} of {n} keys, expected ~{expected}: {counts:?}",
            weights[i]
        );
    }
}
