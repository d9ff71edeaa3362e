//! Rendezvous (highest-random-weight) hashing over shard addresses,
//! with optional per-shard **weights** for heterogeneous clusters.
//!
//! Every request key — the request's **source digest** — scores each
//! shard independently ([`score`]); [`weighted_rank`] orders the shards
//! by score, and the request belongs to the first live shard in that
//! order. Two properties make this the right
//! shape for a compile cluster:
//!
//! * **cache locality** — a given source always lands on the same
//!   shard while that shard is alive, so its warm artifacts live in
//!   exactly one place instead of being recomputed everywhere;
//! * **minimal disruption** — when a shard dies, only the keys it
//!   owned move (each to its second-choice shard); every other key
//!   keeps its owner, so a failure invalidates one shard's worth of
//!   locality, never the whole cluster's. When the shard returns, the
//!   same keys move straight back.
//!
//! Raw scores are 128-bit FNV digests over `(shard address, key)`, the
//! same stable hash the content-addressed store uses — deterministic
//! across processes, so an operator can predict placement offline.
//!
//! ## Weighted rendezvous
//!
//! Heterogeneous shards (one box with twice the cores or twice the
//! cache disk) want a proportionally larger share of the key space.
//! [`weighted_score`] implements the standard **logarithmic-score**
//! method: the raw 128-bit hash is mapped to a uniform `u ∈ (0, 1)`
//! and the shard's score is `weight / -ln(u)`. Each score is an
//! exponential draw with rate `1/weight`, so shard *i* wins a key with
//! probability `wᵢ / Σw` — exactly weight-proportional — while keeping
//! every rendezvous property: changing one shard's weight moves keys
//! only **to** it (weight raised) or only **off** it (weight lowered);
//! all other pairwise orders are untouched. With equal weights shards
//! rank by descending raw score, because the map from hash to score is
//! monotone.

use hls_sim::digest::Fnv;

/// The raw (unweighted) rendezvous score of `shard` for `key` (higher
/// wins).
pub fn score(key: u128, shard: &str) -> u128 {
    let mut h = Fnv::new();
    h.tag(b'g').str(shard).bytes(&key.to_le_bytes());
    h.finish()
}

/// The weighted rendezvous score of `shard` for `key` (higher wins):
/// `weight / -ln(u)` where `u ∈ (0, 1)` is the raw score scaled down.
/// Deterministic — the same `(key, shard, weight)` always produces the
/// same score, on every machine.
pub fn weighted_score(key: u128, shard: &str, weight: f64) -> f64 {
    // Top 53 bits of the raw digest → a uniform double in (0, 1).
    // The +0.5 offset keeps u strictly inside the open interval, so
    // ln(u) is finite and nonzero.
    let bits = (score(key, shard) >> 75) as u64; // 53 bits
    let u = (bits as f64 + 0.5) / (1u64 << 53) as f64;
    weight.max(f64::MIN_POSITIVE) / -u.ln()
}

/// Shard indices in descending [`weighted_score`] order for `key`: the
/// first entry is the owner, the second is where the key fails over,
/// and so on. A shard with twice the weight owns twice the keys in
/// expectation. Ties (astronomically unlikely) break toward the lower
/// index.
pub fn weighted_rank<S: AsRef<str>>(key: u128, shards: &[(S, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards.len()).collect();
    // Sort descending by score; f64 comparison is total here because
    // weighted_score never produces NaN (u is in (0,1), weight > 0).
    order.sort_by(|&a, &b| {
        weighted_score(key, shards[b].0.as_ref(), shards[b].1)
            .partial_cmp(&weighted_score(key, shards[a].0.as_ref(), shards[a].1))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// Parse one `--shards` entry: `addr` or `addr=weight`. Weights must be
/// finite and positive; a bare address weighs 1.
pub fn parse_weighted(entry: &str) -> Result<(String, f64), String> {
    match entry.rsplit_once('=') {
        None => Ok((entry.to_string(), 1.0)),
        Some((addr, w)) => {
            let weight: f64 = w
                .parse()
                .map_err(|_| format!("bad shard weight `{w}` in `{entry}`"))?;
            if !weight.is_finite() || weight <= 0.0 {
                return Err(format!(
                    "shard weight must be finite and positive, got `{w}` in `{entry}`"
                ));
            }
            if addr.is_empty() {
                return Err(format!("empty shard address in `{entry}`"));
            }
            Ok((addr.to_string(), weight))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted(n: usize, w: impl Fn(usize) -> f64) -> Vec<(String, f64)> {
        (0..n).map(|i| (format!("10.0.0.{i}:4500"), w(i))).collect()
    }

    fn shards(n: usize) -> Vec<(String, f64)> {
        weighted(n, |_| 1.0)
    }

    /// The owner among the shards where `alive` holds: the ranking's
    /// first surviving entry, as the router picks it.
    fn owner(key: u128, shards: &[(String, f64)], alive: impl Fn(usize) -> bool) -> usize {
        weighted_rank(key, shards)
            .into_iter()
            .find(|&i| alive(i))
            .expect("a live shard")
    }

    /// A cheap deterministic key stream.
    fn keys(n: usize) -> impl Iterator<Item = u128> {
        (0..n as u128).map(|i| {
            let mut h = Fnv::new();
            h.tag(b'k').bytes(&i.to_le_bytes());
            h.finish()
        })
    }

    #[test]
    fn rank_is_a_permutation_and_owner_is_its_head() {
        let s = weighted(5, |i| 1.0 + i as f64);
        for key in keys(200) {
            let mut r = weighted_rank(key, &s);
            let best = (0..5)
                .max_by(|&a, &b| {
                    weighted_score(key, &s[a].0, s[a].1)
                        .total_cmp(&weighted_score(key, &s[b].0, s[b].1))
                })
                .unwrap();
            assert_eq!(r[0], best, "the head scores highest");
            r.sort_unstable();
            assert_eq!(r, (0..5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let s = shards(4);
        let n = 4000;
        let mut counts = [0usize; 4];
        for key in keys(n) {
            counts[owner(key, &s, |_| true)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Expected 1000 per shard; FNV should stay well inside ±40%.
            assert!((600..=1400).contains(&c), "shard {i} got {c}/{n}");
        }
    }

    #[test]
    fn keys_move_only_off_the_dead_shard() {
        let s = shards(4);
        for dead in 0..4 {
            for key in keys(500) {
                let before = owner(key, &s, |_| true);
                let after = owner(key, &s, |i| i != dead);
                if before == dead {
                    // Displaced keys land on their second choice…
                    assert_eq!(after, weighted_rank(key, &s)[1]);
                } else {
                    // …and everyone else stays put.
                    assert_eq!(after, before);
                }
            }
        }
    }

    #[test]
    fn placement_is_stable_under_shard_list_extension() {
        // Adding a shard only *steals* keys for the new shard; it never
        // shuffles keys between existing shards.
        let four = shards(4);
        let five = shards(5);
        for key in keys(500) {
            let a = owner(key, &four, |_| true);
            let b = owner(key, &five, |_| true);
            assert!(b == a || b == 4, "key moved between old shards: {a}→{b}");
        }
    }

    #[test]
    fn equal_weights_agree_with_the_unweighted_ranking() {
        // The hash→score map is monotone, so equal weights must rank
        // shards by descending raw score.
        let s = shards(5);
        for key in keys(300) {
            let raw: Vec<u128> = weighted_rank(key, &s)
                .into_iter()
                .map(|i| score(key, &s[i].0))
                .collect();
            assert!(raw.windows(2).all(|w| w[0] > w[1]), "{raw:?}");
        }
    }

    #[test]
    fn double_weight_owns_roughly_double_the_keys() {
        // Weights 2:1:1 over 4000 keys: the heavy shard expects 1/2 of
        // what two light shards get combined — i.e. 2000 · (2/4).
        let w = weighted(3, |i| if i == 0 { 2.0 } else { 1.0 });
        let n = 4000;
        let mut counts = [0usize; 3];
        for key in keys(n) {
            counts[owner(key, &w, |_| true)] += 1;
        }
        // Heavy shard expects 2000, light ones 1000 each; ±20%.
        assert!(
            (1600..=2400).contains(&counts[0]),
            "heavy shard got {counts:?}"
        );
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!((800..=1200).contains(&c), "light shard {i} got {counts:?}");
        }
    }

    #[test]
    fn parse_weighted_accepts_bare_and_weighted_entries() {
        assert_eq!(
            parse_weighted("10.0.0.1:4500").unwrap(),
            ("10.0.0.1:4500".to_string(), 1.0)
        );
        assert_eq!(
            parse_weighted("10.0.0.1:4500=2.5").unwrap(),
            ("10.0.0.1:4500".to_string(), 2.5)
        );
        assert!(parse_weighted("10.0.0.1:4500=zero").is_err());
        assert!(parse_weighted("10.0.0.1:4500=0").is_err());
        assert!(parse_weighted("10.0.0.1:4500=-1").is_err());
        assert!(parse_weighted("10.0.0.1:4500=inf").is_err());
        assert!(parse_weighted("=2").is_err());
    }
}
