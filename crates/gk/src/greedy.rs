//! The greedy GK variant: merge adjacent tuples whenever the combined
//! span fits, with no band bookkeeping.
//!
//! Suggested in the original GK paper and reported by Luo et al. to
//! outperform the banded version in practice; whether it retains the
//! O((1/ε)·log εN) worst-case bound is the open problem recalled in
//! Section 6 of the lower-bound paper. The ablation benches compare the
//! two head-to-head, including on the adversarial streams.

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary, RankEstimator};

use crate::tuple::{
    estimate_rank_from_tuples, merge_sorted_chunk, merge_tuple_lists, query_rank_from_tuples,
    validate_tuple_parts, GkTuple,
};

/// Greedy-merge GK summary.
#[derive(Clone, Debug)]
pub struct GreedyGk<T> {
    tuples: Vec<GkTuple<T>>,
    n: u64,
    eps: f64,
    compress_period: u64,
    /// Sorted-run merge scratch, kept across calls so the bulk insert
    /// path never allocates on the adversary's hot path (the periodic
    /// compress itself runs in place). Transient: excluded from
    /// snapshots and rebuilt empty on restore.
    scratch_mid: Vec<GkTuple<T>>,
}

impl<T: Ord + Clone> GreedyGk<T> {
    /// Creates a summary with guarantee ε ∈ (0, 0.5).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε.
    pub fn new(eps: f64) -> Self {
        let period = (1.0 / (2.0 * eps)).floor().max(1.0) as u64;
        Self::with_compress_period(eps, period)
    }

    /// Creates a summary compressing every `period` inserts (ablation
    /// knob; see [`crate::GkSummary::with_compress_period`]).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε or a zero period.
    pub fn with_compress_period(eps: f64, period: u64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        assert!(period >= 1, "compress period must be positive");
        GreedyGk {
            tuples: Vec::new(),
            n: 0,
            eps,
            compress_period: period,
            scratch_mid: Vec::new(),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Raw tuples (diagnostics and tests).
    pub fn tuples(&self) -> &[GkTuple<T>] {
        &self.tuples
    }

    /// The persistent state as `(tuples, n, eps, compress_period)`; see
    /// [`crate::GkSummary::snapshot_parts`].
    pub fn snapshot_parts(&self) -> (&[GkTuple<T>], u64, f64, u64) {
        (&self.tuples, self.n, self.eps, self.compress_period)
    }

    /// Rebuilds a summary from snapshot parts with the same validation
    /// as [`crate::GkSummary::from_snapshot_parts`].
    pub fn from_snapshot_parts(
        tuples: Vec<GkTuple<T>>,
        n: u64,
        eps: f64,
        compress_period: u64,
    ) -> Result<Self, String> {
        validate_tuple_parts(&tuples, n, eps, compress_period)?;
        let s = GreedyGk {
            tuples,
            n,
            eps,
            compress_period,
            scratch_mid: Vec::new(),
        };
        if !s.invariant_holds() {
            return Err("snapshot violates the GK span invariant g+Δ ≤ ⌊2εn⌋".to_string());
        }
        Ok(s)
    }

    fn threshold(&self) -> u64 {
        (2.0 * self.eps * self.n as f64).floor() as u64
    }

    /// Merges another greedy-GK summary into this one: the same
    /// widened-bounds tuple interleave as [`crate::GkSummary::merge`]
    /// (shared via the tuple plumbing), followed by a greedy compress.
    /// `self` adopts ε_A + ε_B, so the merged summary answers within
    /// (ε_A + ε_B)·(n_A + n_B).
    pub fn merge(&mut self, other: &GreedyGk<T>) {
        if other.tuples.is_empty() {
            return;
        }
        if self.tuples.is_empty() {
            // Adopting the other side wholesale is the one unavoidable
            // copy: merge takes `&other` by contract.
            // cqs-lint: allow(hot-path-alloc)
            self.tuples = other.tuples.clone();
            self.n = other.n;
            self.eps = (self.eps + other.eps).min(0.499);
            return;
        }
        let (na, nb) = (self.n, other.n);
        self.tuples = merge_tuple_lists(&self.tuples, &other.tuples, na, nb);
        self.n = na + nb;
        self.eps = (self.eps + other.eps).min(0.499);
        self.compress_period = (1.0 / (2.0 * self.eps)).floor().max(1.0) as u64;
        self.compress(self.threshold());
    }

    /// The correctness invariant shared with the banded variant.
    pub fn invariant_holds(&self) -> bool {
        let cap = self.threshold().max(1);
        self.tuples.iter().all(|t| t.g + t.delta <= cap)
    }

    pub(crate) fn insert_value(&mut self, item: T) {
        let pos = self.tuples.partition_point(|t| t.v < item);
        let thr = self.threshold();
        let delta = if pos == 0 || pos == self.tuples.len() || thr < 1 {
            0
        } else {
            thr.saturating_sub(1)
        };
        self.tuples.insert(
            pos,
            GkTuple {
                v: item,
                g: 1,
                delta,
            },
        );
        self.n += 1;
        if self.n.is_multiple_of(self.compress_period) {
            self.compress(self.threshold());
        }
    }

    /// Greedy compress: one right-to-left pass merging `t_i` into
    /// `t_{i+1}` whenever `g_i + g_{i+1} + Δ_{i+1} < cap` (the successor
    /// absorbs the mass and keeps its own Δ, so the test is exactly the
    /// post-merge span). Cascades naturally: an absorber's grown `g` is
    /// what the next candidate is tested against. The first and last
    /// tuples (stream extremes) are never removed.
    ///
    /// Runs in place: an absorbed tuple is marked dead via `g = 0`
    /// (live tuples always carry `g >= 1`) and swept out by one
    /// `retain` pass — the compress fires every `period` inserts, and
    /// shuffling the whole tuple vector through a scratch buffer on
    /// each firing dominated the greedy insert path.
    pub(crate) fn compress(&mut self, cap: u64) {
        if self.tuples.len() < 3 || cap < 2 {
            return;
        }
        let mut succ = self.tuples.len() - 1;
        for i in (1..self.tuples.len() - 1).rev() {
            let t_g = self.tuples.get(i).map_or(0, |t| t.g);
            let fits = self
                .tuples
                .get(succ)
                .is_some_and(|s| t_g + s.g + s.delta < cap);
            if fits {
                if let Some(s) = self.tuples.get_mut(succ) {
                    s.g += t_g;
                }
                if let Some(t) = self.tuples.get_mut(i) {
                    t.g = 0;
                }
            } else {
                succ = i;
            }
        }
        self.tuples.retain(|t| t.g != 0);
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for GreedyGk<T> {
    fn insert(&mut self, item: T) {
        self.insert_value(item);
    }

    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        debug_assert!(
            run.windows(2).all(|w| w[0] <= w[1]),
            "insert_sorted_run requires a non-decreasing run"
        );
        let mut peak = 0usize;
        let mut rest = run;
        while !rest.is_empty() {
            // Chunk at compress boundaries (see GkSummary's override for
            // the peak-accounting rationale).
            let until = (self.compress_period - self.n % self.compress_period) as usize;
            let (chunk, tail) = rest.split_at(until.min(rest.len()));
            merge_sorted_chunk(
                &mut self.tuples,
                &mut self.n,
                self.eps,
                chunk,
                &mut self.scratch_mid,
            );
            let pre_compress = self.tuples.len();
            if self.n.is_multiple_of(self.compress_period) {
                self.compress(self.threshold());
                let post = self.tuples.len();
                peak = peak.max(if chunk.len() >= 2 {
                    (pre_compress - 1).max(post)
                } else {
                    post
                });
            } else {
                peak = peak.max(pre_compress);
            }
            rest = tail;
        }
        peak
    }

    fn item_array(&self) -> Vec<T> {
        self.tuples.iter().map(|t| t.v.clone()).collect()
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        for t in &self.tuples {
            f(&t.v);
        }
    }

    fn for_each_item_between(&self, lo: Option<&T>, hi: Option<&T>, f: &mut dyn FnMut(&T)) {
        // Both bounds become plain indices (ranks) via partition scans,
        // so the visit loop below runs comparison-free: the per-tuple
        // `>= hi` probe was a deep label comparison on every visited
        // item of the gap scan.
        let mut start = 0;
        if let Some(lo) = lo {
            start = self.tuples.partition_point(|t| &t.v <= lo);
        }
        let mut end = self.tuples.len();
        if let Some(hi) = hi {
            end = start
                + self
                    .tuples
                    .get(start..)
                    .map_or(0, |ts| ts.partition_point(|t| &t.v < hi));
        }
        for t in self.tuples.get(start..end).unwrap_or(&[]) {
            f(&t.v);
        }
    }

    fn stored_count(&self) -> usize {
        self.tuples.len()
    }

    fn items_processed(&self) -> u64 {
        self.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        query_rank_from_tuples(&self.tuples, r, self.n)
    }

    fn name(&self) -> &'static str {
        "gk-greedy"
    }
}

impl<T: Ord + Clone> RankEstimator<T> for GreedyGk<T> {
    fn estimate_rank(&self, q: &T) -> u64 {
        estimate_rank_from_tuples(&self.tuples, q, self.n)
    }
}

impl<T: Ord + Clone> MergeableSummary<T> for GreedyGk<T> {
    /// Same contract as the banded variant: composed-ε range check up
    /// front, widened-bounds fold, span-invariant re-validation after.
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        let composed = self.eps + other.eps;
        if !(composed > 0.0 && composed < 0.5) {
            return Err(MergeError::EpsOverflow { composed });
        }
        self.merge(other);
        if !self.invariant_holds() {
            return Err(MergeError::InvariantViolated {
                detail: format!("GK span invariant g+Δ ≤ ⌊2εn⌋ at eps {}", self.eps),
            });
        }
        Ok(())
    }

    fn eps_bound(&self) -> Option<f64> {
        Some(self.eps)
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::check_cases;

    const CASES: u32 = 32;

    #[test]
    fn greedy_invariant_and_mass_on_random_streams() {
        check_cases(0x23, CASES, |rng| {
            let xs: Vec<u32> = (0..1 + rng.index(1499))
                .map(|_| rng.below(100_000) as u32)
                .collect();
            let mut gk = GreedyGk::new(0.03);
            for &x in &xs {
                gk.insert(x);
            }
            assert!(gk.invariant_holds());
            let mass: u64 = gk.tuples().iter().map(|t| t.g).sum();
            assert_eq!(mass, xs.len() as u64);
            let arr = gk.item_array();
            assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        });
    }

    #[test]
    fn greedy_quantiles_within_budget_on_random_streams() {
        check_cases(0x24, CASES, |rng| {
            let xs: Vec<u32> = (0..200 + rng.index(1800))
                .map(|_| rng.below(10_000) as u32)
                .collect();
            let eps = 0.05;
            let mut gk = GreedyGk::new(eps);
            let mut sorted = xs.clone();
            for &x in &xs {
                gk.insert(x);
            }
            sorted.sort_unstable();
            let n = xs.len() as u64;
            let budget = (eps * n as f64).floor() as u64 + 1;
            for step in 1..=8u64 {
                let r = (step * n / 8).max(1);
                let ans = gk.query_rank(r).unwrap();
                let lo = sorted.partition_point(|&v| v < ans) as u64 + 1;
                let hi = sorted.partition_point(|&v| v <= ans) as u64;
                let err = if r < lo { lo - r } else { r.saturating_sub(hi) };
                assert!(err <= budget, "rank {r}: err {err}");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_conservation_under_greedy_merging() {
        let mut gk = GreedyGk::new(0.02);
        for i in 0..5000u64 {
            gk.insert((i * 48271) % 100_000);
        }
        let mass: u64 = gk.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 5000);
    }

    #[test]
    fn invariant_holds_on_random_inserts() {
        let mut gk = GreedyGk::new(0.05);
        for i in 0..3000u64 {
            gk.insert((i * 2654435761) % 4096);
            assert!(gk.invariant_holds(), "broken at n={}", i + 1);
        }
    }

    #[test]
    fn sorted_stream_compresses_aggressively() {
        let mut gk = GreedyGk::new(0.1);
        for x in 0..2000u64 {
            gk.insert(x);
        }
        assert!(gk.stored_count() < 400);
        assert!(gk.invariant_holds());
    }

    #[test]
    fn extremes_survive_merging() {
        let mut gk = GreedyGk::new(0.05);
        for x in (0..4000u64).rev() {
            gk.insert(x);
        }
        let arr = gk.item_array();
        assert_eq!(arr[0], 0);
        assert_eq!(*arr.last().unwrap(), 3999);
    }
}
