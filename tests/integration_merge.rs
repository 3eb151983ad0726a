//! Distributed aggregation: merge semantics of the mergeable summaries.
//!
//! Each test shards a stream, summarises shards independently, merges,
//! and checks the merged summary against ground truth with the
//! merge-appropriate budget (errors add per merge level).

use cqs::gk::{CompressRule, Gk};
use cqs::prelude::*;

fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (1..=n).collect();
    let mut s = seed | 1;
    for i in (1..v.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

fn max_rank_error<S: ComparisonSummary<u64>>(s: &S, n: u64, grid: u64) -> u64 {
    // Values are a permutation of 1..=n, so value == true rank.
    (0..=grid)
        .map(|j| {
            let r = (1 + j * (n - 1) / grid).clamp(1, n);
            s.query_rank(r).unwrap().abs_diff(r)
        })
        .max()
        .unwrap()
}

#[test]
fn gk_pairwise_merge_stays_within_summed_eps() {
    let n = 40_000u64;
    let eps = 0.005;
    let vals = shuffled(n, 1);
    let (left, right) = vals.split_at(vals.len() / 2);
    let mut a = GkSummary::new(eps);
    let mut b = GkSummary::new(eps);
    for &v in left {
        a.insert(v);
    }
    for &v in right {
        b.insert(v);
    }
    a.merge(&b);
    assert_eq!(a.items_processed(), n);
    let budget = (2.0 * eps * n as f64).ceil() as u64 + 2; // ε doubles per merge
    let err = max_rank_error(&a, n, 64);
    assert!(err <= budget, "merged GK err {err} > {budget}");
    // Mass conservation through the merge.
    let mass: u64 = a.tuples().iter().map(|t| t.g).sum();
    assert_eq!(mass, n);
}

#[test]
fn gk_tree_merge_over_shards() {
    let n = 64_000u64;
    let shards = 8usize;
    let eps = 0.002;
    let vals = shuffled(n, 2);
    let mut summaries: Vec<GkSummary<u64>> = vals
        .chunks(vals.len() / shards)
        .map(|chunk| {
            let mut s = GkSummary::new(eps);
            for &v in chunk {
                s.insert(v);
            }
            s
        })
        .collect();
    // Balanced binary merge tree: 3 levels for 8 shards.
    while summaries.len() > 1 {
        let mut next = Vec::with_capacity(summaries.len() / 2);
        while summaries.len() >= 2 {
            let mut a = summaries.remove(0);
            let b = summaries.remove(0);
            a.merge(&b);
            next.push(a);
        }
        next.append(&mut summaries);
        summaries = next;
    }
    let merged = &summaries[0];
    assert_eq!(merged.items_processed(), n);
    // ε multiplies by the tree height (3 doublings), plus slack.
    let budget = (8.0 * eps * n as f64).ceil() as u64 + 8;
    let err = max_rank_error(merged, n, 64);
    assert!(err <= budget, "tree-merged GK err {err} > {budget}");
}

#[test]
fn gk_merge_with_empty_and_into_empty() {
    fn check<R: CompressRule>(new: fn(f64) -> Gk<u64, R>) {
        let mut a = new(0.01);
        let b = new(0.01);
        for v in 1..=1000u64 {
            a.insert(v);
        }
        let before = a.items_processed();
        a.merge(&b);
        assert_eq!(a.items_processed(), before);

        let mut c = new(0.01);
        c.merge(&a);
        assert_eq!(c.items_processed(), 1000);
        assert!(c.query_rank(500).unwrap().abs_diff(500) <= 30);
        // An empty `self` adopts the composed ε and, with it, the
        // canonical compress period a fresh summary at that ε would use.
        assert_eq!(
            c.snapshot_parts().3,
            new(c.eps()).snapshot_parts().3,
            "{}: stale compress period after merging into an empty summary",
            c.name()
        );
    }
    check(GkSummary::new);
    check(GreedyGk::new);
}

#[test]
fn ckms_merge_with_empty_and_into_empty() {
    for bias in [Bias::Low, Bias::High] {
        let mut a = CkmsSummary::with_bias(0.01, bias);
        let b = CkmsSummary::with_bias(0.01, bias);
        for v in 1..=1000u64 {
            a.insert(v);
        }
        let before = a.items_processed();
        a.try_merge(&b).expect("merging an empty summary");
        assert_eq!(a.items_processed(), before);

        let mut c = CkmsSummary::with_bias(0.01, bias);
        c.try_merge(&a).expect("merging into an empty summary");
        assert_eq!(c.items_processed(), 1000);
        assert_eq!(c.query_rank(1), Some(1));
        // An empty `self` adopts the composed ε and, with it, the
        // canonical compress period a fresh summary at that ε would use.
        assert_eq!(
            c.snapshot_parts().4,
            CkmsSummary::<u64>::with_bias(c.eps(), bias)
                .snapshot_parts()
                .4,
            "{bias:?}: stale compress period after merging into an empty summary"
        );
    }
}

#[test]
fn kll_merge_matches_single_stream_accuracy() {
    let n = 60_000u64;
    let vals = shuffled(n, 3);
    let mut parts: Vec<KllSketch<u64>> = Vec::new();
    for (i, chunk) in vals.chunks(vals.len() / 6).enumerate() {
        let mut s = KllSketch::with_seed(256, 100 + i as u64);
        for &v in chunk {
            s.insert(v);
        }
        parts.push(s);
    }
    let mut merged = parts.remove(0);
    for p in &parts {
        merged.merge(p);
    }
    assert_eq!(merged.items_processed(), n);
    assert_eq!(
        merged.total_weight(),
        n,
        "weight must be conserved through merges"
    );
    let err = max_rank_error(&merged, n, 64);
    assert!(err <= n / 40, "merged KLL err {err}");
    // Extremes survive merging exactly.
    assert_eq!(merged.query_rank(1), Some(1));
    assert_eq!(merged.query_rank(n), Some(n));
}

#[test]
fn mrl_merge_conserves_weight_and_accuracy() {
    let n = 32_000u64;
    let eps = 0.01;
    let vals = shuffled(n, 4);
    let (left, right) = vals.split_at(vals.len() / 2);
    let mut a = MrlSummary::new(eps, n);
    let mut b = MrlSummary::new(eps, n);
    for &v in left {
        a.insert(v);
    }
    for &v in right {
        b.insert(v);
    }
    a.merge(&b);
    assert_eq!(a.items_processed(), n);
    assert_eq!(a.total_weight(), n);
    let budget = (2.0 * eps * n as f64).ceil() as u64 + 2;
    let err = max_rank_error(&a, n, 64);
    assert!(err <= budget, "merged MRL err {err} > {budget}");
}

#[test]
fn qdigest_merge_adds_counts() {
    let mut a = QDigest::new(16, 0.02);
    let mut b = QDigest::new(16, 0.02);
    for v in shuffled(20_000, 5) {
        a.insert(v % 65_536);
    }
    for v in shuffled(20_000, 6) {
        b.insert(v % 65_536);
    }
    a.merge(&b).expect("matching universes and compression");
    assert_eq!(a.items_processed(), 40_000);
    // Median of the union of two identical-distribution shards.
    let med = a.quantile(0.5);
    assert!(med.abs_diff(10_000) <= 1_500, "merged qdigest median {med}");
}

#[test]
fn qdigest_merge_rejects_mismatched_universe() {
    let mut a = QDigest::new(16, 0.05);
    let b = QDigest::new(12, 0.05);
    for v in 0..100u64 {
        a.insert(v);
    }
    let err = a
        .merge(&b)
        .expect_err("mismatched universes must be refused");
    assert!(
        err.to_string().contains("identical universes"),
        "unexpected refusal: {err}"
    );
    // The typed refusal leaves the receiver untouched.
    assert_eq!(a.items_processed(), 100);
}

#[test]
fn qdigest_merge_rejects_mismatched_compression() {
    // Same universe, different ε ⇒ different compression factor k. The
    // old merge silently accepted this, producing a digest whose error
    // guarantee matched neither input.
    let mut a = QDigest::new(16, 0.05);
    let mut b = QDigest::new(16, 0.005);
    for v in 0..100u64 {
        a.insert(v);
        b.insert(v);
    }
    let err = a
        .merge(&b)
        .expect_err("mismatched compression must be refused");
    assert!(
        err.to_string().contains("compression"),
        "unexpected refusal: {err}"
    );
    assert_eq!(a.items_processed(), 100);
}

#[test]
#[should_panic(expected = "identical buffer capacity")]
fn mrl_merge_rejects_mismatched_capacity() {
    let mut a: MrlSummary<u64> = MrlSummary::new(0.01, 10_000);
    let b: MrlSummary<u64> = MrlSummary::new(0.05, 10_000);
    a.merge(&b);
}

// ---------------------------------------------------------------------
// Adversary-driven error composition: shard the Theorem 2.2 stream π
// (the hardest comparison-based input we can construct), summarise each
// shard independently, fold the shards with `try_merge`, and probe
// *every* rank against the stream's ground truth. The composed error
// must stay within the merged summary's own `eps_bound` — the
// mergeable-summaries contract under maximal adversarial pressure.
// ---------------------------------------------------------------------

/// The adversarial stream π in arrival order, with its ground-truth
/// state (ranks are computed against the live order index).
fn adversarial_stream() -> (
    cqs::core::StreamState<MaxSpaceTracker<GkSummary<Item>>>,
    Vec<Item>,
) {
    let eps = Eps::from_inverse(32);
    let out = cqs::core::adversary::run_adversary(eps, 4, || GkSummary::<Item>::new(eps.value()));
    let mut arrivals: Vec<(u64, Item)> = Vec::new();
    out.pi
        .for_each_arrival(&mut |item, tag| arrivals.push((tag, item.clone())));
    arrivals.sort_unstable_by_key(|&(tag, _)| tag);
    let items = arrivals.into_iter().map(|(_, item)| item).collect();
    (out.pi, items)
}

/// Shards `items` round-robin, folds the shards left-to-right with
/// `try_merge`, and returns the merged summary.
fn fold_shards<S, F>(items: &[Item], shards: usize, make: F) -> S
where
    S: MergeableSummary<Item>,
    F: Fn() -> S,
{
    let mut parts: Vec<S> = (0..shards).map(|_| make()).collect();
    for (i, item) in items.iter().enumerate() {
        parts[i % shards].insert(item.clone());
    }
    let mut merged = parts.remove(0);
    for part in &parts {
        merged
            .try_merge(part)
            .expect("identically-built shards must be mergeable");
    }
    merged
}

/// Probes every rank of π and asserts the summary's answer is within
/// `budget` of the truth.
fn assert_all_ranks_within<S: ComparisonSummary<Item>>(
    state: &cqs::core::StreamState<MaxSpaceTracker<GkSummary<Item>>>,
    merged: &S,
    budget: u64,
    label: &str,
) {
    let n = state.len();
    assert_eq!(merged.items_processed(), n, "{label}: merged item count");
    for r in 1..=n {
        let answer = merged
            .query_rank(r)
            .unwrap_or_else(|| panic!("{label}: no answer for rank {r}"));
        let err = state.rank_error(&answer, r);
        assert!(
            err <= budget,
            "{label}: rank {r} answered with error {err} > budget {budget}"
        );
    }
}

#[test]
fn adversarial_composition_gk_within_composed_eps() {
    let (state, items) = adversarial_stream();
    let n = state.len();
    for shards in [2usize, 4] {
        let merged = fold_shards(&items, shards, || GkSummary::<Item>::new(0.01));
        let composed = merged.eps_bound().expect("gk reports a composed eps");
        assert!(
            composed <= 0.01 * shards as f64 + 1e-12,
            "composed eps {composed} exceeds shards * eps0"
        );
        let budget = (composed * n as f64).ceil() as u64 + 1;
        assert_all_ranks_within(&state, &merged, budget, &format!("gk x{shards}"));
    }
}

#[test]
fn adversarial_composition_greedy_gk_within_composed_eps() {
    let (state, items) = adversarial_stream();
    let n = state.len();
    let shards = 4usize;
    let merged = fold_shards(&items, shards, || GreedyGk::<Item>::new(0.01));
    let composed = merged
        .eps_bound()
        .expect("greedy gk reports a composed eps");
    assert!(composed <= 0.01 * shards as f64 + 1e-12);
    let budget = (composed * n as f64).ceil() as u64 + 1;
    assert_all_ranks_within(&state, &merged, budget, "greedy-gk x4");
}

#[test]
fn adversarial_composition_mrl_within_composed_eps() {
    let (state, items) = adversarial_stream();
    let n = state.len();
    let shards = 4usize;
    let merged = fold_shards(&items, shards, || MrlSummary::<Item>::new(0.02, n));
    let composed = merged.eps_bound().expect("mrl reports a composed eps");
    let budget = (composed * n as f64).ceil() as u64 + 1;
    assert_all_ranks_within(&state, &merged, budget, "mrl x4");
}

#[test]
fn adversarial_composition_kll_conserves_weight() {
    // KLL's guarantee is probabilistic (`eps_bound` is `None` by
    // design), so the differential checks the structural half of the
    // contract — exact weight conservation through the fold — plus a
    // generous empirical error ceiling with fixed seeds.
    let (state, items) = adversarial_stream();
    let n = state.len();
    let shards = 4usize;
    let mut parts: Vec<KllSketch<Item>> = (0..shards)
        .map(|i| KllSketch::with_seed(256, 900 + i as u64))
        .collect();
    for (i, item) in items.iter().enumerate() {
        parts[i % shards].insert(item.clone());
    }
    let mut merged = parts.remove(0);
    for part in &parts {
        merged.try_merge(part).expect("kll shards always merge");
    }
    assert!(
        merged.eps_bound().is_none(),
        "kll must not claim a deterministic eps"
    );
    assert_eq!(merged.total_weight(), n);
    let budget = n / 8;
    assert_all_ranks_within(&state, &merged, budget, "kll x4");
}
