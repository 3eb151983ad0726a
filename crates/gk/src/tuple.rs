//! The GK tuple `(v, g, Δ)` and shared tuple-list plumbing.

/// One stored tuple of a GK-family summary.
///
/// * `v` — a stored stream item;
/// * `g` — `r_min(v_i) − r_min(v_{i−1})`: the rank mass this tuple is
///   responsible for;
/// * `delta` — `r_max(v_i) − r_min(v_i)`: the uncertainty in v's rank.
#[derive(Clone, Debug)]
pub struct GkTuple<T> {
    /// The stored item.
    pub v: T,
    /// Rank mass since the previous tuple.
    pub g: u64,
    /// Rank uncertainty of this tuple.
    pub delta: u64,
}

/// Structural validation of a snapshot restore: ε in range, positive
/// compress period, tuples sorted non-decreasing by value, every `g`
/// positive (COMPRESS reads `g = 0` as "folded away"), and total `g`
/// mass equal to the stream length. Returns a diagnostic for the first
/// violation found.
pub(crate) fn validate_tuple_parts<T: Ord>(
    tuples: &[GkTuple<T>],
    n: u64,
    eps: f64,
    compress_period: u64,
) -> Result<(), String> {
    if !(eps > 0.0 && eps < 0.5) {
        return Err(format!("snapshot eps {eps} outside (0, 0.5)"));
    }
    if compress_period < 1 {
        return Err("snapshot compress period must be positive".to_string());
    }
    if !tuples.windows(2).all(|w| match (w.first(), w.last()) {
        (Some(a), Some(b)) => a.v <= b.v,
        _ => true,
    }) {
        return Err("snapshot tuples are not sorted by value".to_string());
    }
    if tuples.iter().any(|t| t.g == 0) {
        return Err("snapshot holds a tuple with g = 0".to_string());
    }
    let mass: u64 = tuples.iter().map(|t| t.g).sum();
    if mass != n {
        return Err(format!(
            "snapshot g mass {mass} disagrees with stream length {n}"
        ));
    }
    Ok(())
}

/// Shared query logic over a tuple list with running minimum-rank sums.
/// Returns a stored item whose rank bounds bracket `r` within the
/// available uncertainty budget (the caller's invariant guarantees one
/// exists whenever the summary is within its advertised ε).
pub(crate) fn query_rank_from_tuples<T: Clone>(tuples: &[GkTuple<T>], r: u64, n: u64) -> Option<T> {
    if tuples.is_empty() {
        return None;
    }
    let r = r.clamp(1, n);
    // Return the tuple minimizing the worst-side deviation
    // max(|r_min − r|, |r_max − r|). The GK invariant guarantees some
    // tuple has deviation ≤ ⌈max_i(g_i + Δ_i)/2⌉ ≤ ⌈εn⌉, so the best
    // tuple certainly does.
    let mut r_min = 0u64;
    let mut best: Option<(&GkTuple<T>, u64)> = None;
    for t in tuples {
        r_min += t.g;
        let r_max = r_min + t.delta;
        let dev = (r_min.abs_diff(r)).max(r_max.abs_diff(r));
        if best.map(|(_, d)| dev < d).unwrap_or(true) {
            best = Some((t, dev));
        }
    }
    best.map(|(t, _)| t.v.clone())
}

/// Shared rank-estimation logic: the midpoint estimator
/// `(r_min(i) + r_max(i+1) − 1)/2` for the last tuple with `v_i ≤ q`.
pub(crate) fn estimate_rank_from_tuples<T: Ord>(tuples: &[GkTuple<T>], q: &T, n: u64) -> u64 {
    if tuples.first().is_none_or(|t| *q < t.v) {
        return 0;
    }
    let mut r_min = 0u64;
    let mut prev_r_min = 0u64;
    let mut idx_le: Option<usize> = None;
    for (idx, t) in tuples.iter().enumerate() {
        r_min += t.g;
        if t.v <= *q {
            idx_le = Some(idx);
            prev_r_min = r_min;
        } else {
            // First tuple above q: estimate between prev r_min and this
            // tuple's r_max.
            let r_max_next = r_min + t.delta;
            return (prev_r_min + r_max_next.saturating_sub(1)) / 2;
        }
    }
    debug_assert!(idx_le.is_some());
    n
}

/// Merges two GK tuple lists by value into `out` (cleared first, its
/// capacity reused) — the standard mergeable-summaries composition
/// (Agarwal et al.). Each emitted tuple's rank bounds are its source's,
/// widened by the bracketing tuples of the *other* list:
///
/// ```text
///   r_min'(x) = r_min_A(x) + r_min_B(pred_B(x))
///   r_max'(x) = r_max_A(x) + r_max_B(succ_B(x)) − 1
/// ```
///
/// In merged order (ties take A first) both bounds reduce to per-tuple
/// terms. The tuples emitted before x are A's up to x's predecessor and
/// B's up to `pred_B(x)`, so `r_min'` advances by x's own mass: `g' = g`.
/// With `s = succ_B(x)`, the other list's next unconsumed tuple,
///
/// ```text
///   Δ' = r_max'(x) − r_min'(x) = Δ + g_s + Δ_s − 1,
/// ```
///
/// and once the other list is exhausted (`r_max_B = r_min_B = n_B`),
/// `Δ' = Δ`: the rest of the list is copied unchanged. One two-way pass
/// therefore needs no rank-bound arrays and no running rank state. The
/// result summarises the concatenated streams with error at most
/// (ε_A + ε_B)·(n_A + n_B); the engine compresses it under its rule
/// afterwards.
pub(crate) fn merge_tuple_lists<T: Ord + Clone>(
    a: &[GkTuple<T>],
    b: &[GkTuple<T>],
    out: &mut Vec<GkTuple<T>>,
) {
    // Live tuples carry g ≥ 1, so the subtraction never saturates.
    let widened = |t: &GkTuple<T>, s: &GkTuple<T>| GkTuple {
        v: t.v.clone(),
        g: t.g,
        delta: (t.delta + s.g + s.delta).saturating_sub(1),
    };
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut a, mut b) = (a, b);
    while let (Some((x, a_rest)), Some((y, b_rest))) = (a.split_first(), b.split_first()) {
        if x.v <= y.v {
            out.push(widened(x, y));
            a = a_rest;
        } else {
            out.push(widened(y, x));
            b = b_rest;
        }
    }
    // At most one side is left; its tail keeps its own (g, Δ).
    out.extend_from_slice(a);
    out.extend_from_slice(b);
}

/// The three-pass merge the one-pass kernel replaced, kept as its
/// oracle: prefix rank bounds for both lists, widened bounds per
/// emitted tuple, then `(g, Δ)` re-derived from the bounds.
#[cfg(test)]
pub(crate) fn three_pass_merge<T: Ord + Clone>(
    a: &[GkTuple<T>],
    b: &[GkTuple<T>],
    na: u64,
    nb: u64,
) -> Vec<GkTuple<T>> {
    // Prefix rank bounds for both sides.
    let bounds = |ts: &[GkTuple<T>]| -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(ts.len());
        let mut r_min = 0u64;
        for t in ts {
            r_min += t.g;
            out.push((r_min, r_min + t.delta));
        }
        out
    };
    let ba = bounds(a);
    let bb = bounds(b);

    // Merge by value; for each emitted tuple compute widened bounds.
    let mut merged: Vec<(T, u64, u64)> = Vec::with_capacity(ba.len() + bb.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        // The loop condition guarantees at least one side is non-empty,
        // so (None, None) cannot occur; folding it into the take-b arm
        // keeps the merge panic-free.
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x.v <= y.v,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let (v, own, other_ts, other_bounds, other_n, pos) = if take_a {
            (a[i].v.clone(), ba[i], b, &bb, nb, j)
        } else {
            (b[j].v.clone(), bb[j], a, &ba, na, i)
        };
        // pred: last tuple of the other side with value <= v is at
        // pos−1 (the cursor has consumed exactly those); succ is at pos.
        let pred_min = if pos == 0 { 0 } else { other_bounds[pos - 1].0 };
        let succ_max = match other_ts.get(pos) {
            Some(_) => other_bounds[pos].1.saturating_sub(1),
            None => other_n,
        };
        let r_min = own.0 + pred_min;
        let r_max = (own.1 + succ_max).max(r_min);
        merged.push((v, r_min, r_max));
        if take_a {
            i += 1;
        } else {
            j += 1;
        }
    }

    // Re-derive (g, Δ) from the widened bounds.
    let mut tuples = Vec::with_capacity(merged.len());
    let mut prev_min = 0u64;
    for (v, r_min, r_max) in merged {
        let r_min = r_min.max(prev_min); // monotone by construction; guard anyway
        tuples.push(GkTuple {
            v,
            g: r_min - prev_min,
            delta: r_max.saturating_sub(r_min),
        });
        prev_min = r_min;
    }
    debug_assert_eq!(prev_min, na + nb, "merged rank mass mismatch");
    tuples
}

/// Merges a non-decreasing `chunk` of fresh items into `tuples` in one
/// pass, replicating — tuple for tuple — what the sequential
/// `insert_value` loop would build, minus the per-item binary search and
/// `Vec::insert` shuffles. The caller guarantees no COMPRESS fires
/// inside the chunk (it slices runs at compress-period boundaries), so
/// the only sequential effects to reproduce are the position-dependent
/// Δ assignment and the placement of duplicates:
///
/// * `pos == 0` for item x ⟺ no tuple with `v < x` had been emitted;
/// * `pos == len` ⟺ the old list is fully consumed *and* x is the first
///   of its equal group (earlier equals sit at/after the insertion
///   point);
/// * sequential inserts place each new equal item *before* the previous
///   ones, so an equal group is emitted in reverse insertion order.
///
/// `n` advances by one per item; Δ uses the threshold ⌊2εn⌋ evaluated
/// *before* each increment, exactly as `insert_value` does.
pub(crate) fn merge_sorted_chunk<T: Ord + Clone>(
    tuples: &mut Vec<GkTuple<T>>,
    n: &mut u64,
    eps: f64,
    chunk: &[T],
    mid: &mut Vec<GkTuple<T>>,
) {
    if chunk.is_empty() {
        return;
    }
    // Tuples below the chunk's smallest item are untouched, so the merge
    // materializes only the interleaved middle (consumed old tuples plus
    // the chunk) and splices it over the consumed range; `mid` is
    // caller-owned scratch so repeated runs reuse one buffer. The
    // adversary's runs land inside one refined interval, where this
    // turns the old whole-list rebuild into a short middle plus one
    // tail move.
    let lo = tuples.partition_point(|t| t.v < chunk[0]);
    let mut cur = lo;
    mid.clear();
    let mut idx = 0usize;
    while idx < chunk.len() {
        let x = &chunk[idx];
        let mut end = idx + 1;
        while end < chunk.len() && chunk[end] == *x {
            end += 1;
        }
        while cur < tuples.len() && tuples[cur].v < *x {
            mid.push(tuples[cur].clone());
            cur += 1;
        }
        let any_lt = lo > 0 || !mid.is_empty();
        let old_empty = cur == tuples.len();
        let group_start = mid.len();
        for j in 0..end - idx {
            let thr = (2.0 * eps * *n as f64).floor() as u64;
            let delta = if !any_lt || (old_empty && j == 0) || thr < 1 {
                0
            } else {
                thr.saturating_sub(1)
            };
            mid.push(GkTuple {
                v: x.clone(),
                g: 1,
                delta,
            });
            *n += 1;
        }
        mid[group_start..].reverse();
        idx = end;
    }
    tuples.splice(lo..cur, mid.drain(..));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GkSummary, GreedyGk};
    use cqs_core::rng::check_cases;
    use cqs_core::{ComparisonSummary, SplitMix64};

    fn exact_tuples(n: u64) -> Vec<GkTuple<u64>> {
        (1..=n).map(|v| GkTuple { v, g: 1, delta: 0 }).collect()
    }

    #[test]
    fn query_on_exact_tuples_is_exact() {
        let ts = exact_tuples(100);
        for r in [1u64, 17, 50, 99, 100] {
            assert_eq!(query_rank_from_tuples(&ts, r, 100), Some(r));
        }
    }

    #[test]
    fn query_clamps_out_of_range_targets() {
        let ts = exact_tuples(10);
        assert_eq!(query_rank_from_tuples(&ts, 0, 10), Some(1));
        assert_eq!(query_rank_from_tuples(&ts, 999, 10), Some(10));
    }

    #[test]
    fn estimate_rank_on_exact_tuples() {
        let ts = exact_tuples(100);
        assert_eq!(estimate_rank_from_tuples(&ts, &0, 100), 0);
        assert_eq!(estimate_rank_from_tuples(&ts, &100, 100), 100);
        assert_eq!(estimate_rank_from_tuples(&ts, &1000, 100), 100);
        // q = 42: 42 items ≤ 42; estimator midpoint is (42 + 43−1)/2 = 42.
        assert_eq!(estimate_rank_from_tuples(&ts, &42, 100), 42);
    }

    #[test]
    fn empty_tuple_list() {
        let ts: Vec<GkTuple<u64>> = Vec::new();
        assert_eq!(query_rank_from_tuples(&ts, 1, 0), None);
        assert_eq!(estimate_rank_from_tuples(&ts, &5, 0), 0);
    }

    /// Runs the one-pass kernel (into a buffer holding stale tuples, which
    /// it must discard) and the three-pass oracle on `a`, `b`, and asserts
    /// equal `(v, g, Δ)` lists.
    fn assert_kernel_matches_oracle(a: &[GkTuple<u64>], b: &[GkTuple<u64>]) {
        let mass = |ts: &[GkTuple<u64>]| ts.iter().map(|t| t.g).sum::<u64>();
        let want = three_pass_merge(a, b, mass(a), mass(b));
        let mut got = exact_tuples(3);
        merge_tuple_lists(a, b, &mut got);
        let parts = |ts: &[GkTuple<u64>]| -> Vec<(u64, u64, u64)> {
            ts.iter().map(|t| (t.v, t.g, t.delta)).collect()
        };
        assert_eq!(parts(&got), parts(&want));
    }

    /// A stream of up to 3000 values over `distinct` values — heavy ties
    /// when `distinct` is small — and empty one time in five.
    fn tie_heavy_stream(rng: &mut SplitMix64, distinct: u64) -> Vec<u64> {
        let len = if rng.below(5) == 0 {
            0
        } else {
            rng.index(3000)
        };
        (0..len).map(|_| rng.below(distinct)).collect()
    }

    fn random_eps(rng: &mut SplitMix64) -> f64 {
        [0.2, 0.05, 0.013, 0.004][rng.index(4)]
    }

    #[test]
    fn one_pass_merge_matches_three_pass_oracle_on_summaries() {
        check_cases(0x7a, 48, |rng| {
            let distinct = 1 + rng.below(60);
            let (xs, ys) = (
                tie_heavy_stream(rng, distinct),
                tie_heavy_stream(rng, distinct),
            );
            let (ea, eb) = (random_eps(rng), random_eps(rng));
            let mut banded = (GkSummary::new(ea), GkSummary::new(eb));
            let mut greedy = (GreedyGk::new(ea), GreedyGk::new(eb));
            for &x in &xs {
                banded.0.insert(x);
                greedy.0.insert(x);
            }
            for &y in &ys {
                banded.1.insert(y);
                greedy.1.insert(y);
            }
            for (a, b) in [
                (banded.0.tuples(), banded.1.tuples()),
                (greedy.0.tuples(), greedy.1.tuples()),
            ] {
                assert_kernel_matches_oracle(a, b);
                assert_kernel_matches_oracle(b, a);
            }
        });
    }

    #[test]
    fn one_pass_merge_matches_three_pass_oracle_on_raw_lists() {
        // Lists no summary would build: arbitrary g ≥ 1 and wide Δ.
        check_cases(0x7b, 64, |rng| {
            let distinct = 1 + rng.below(20);
            let list = |rng: &mut SplitMix64| -> Vec<GkTuple<u64>> {
                let mut vs: Vec<u64> = (0..rng.index(40)).map(|_| rng.below(distinct)).collect();
                vs.sort_unstable();
                vs.into_iter()
                    .map(|v| GkTuple {
                        v,
                        g: 1 + rng.below(9),
                        delta: rng.below(50),
                    })
                    .collect()
            };
            let (a, b) = (list(rng), list(rng));
            assert_kernel_matches_oracle(&a, &b);
            assert_kernel_matches_oracle(&b, &a);
        });
    }
}
