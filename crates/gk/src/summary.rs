//! The Greenwald–Khanna tuple-list engine, generic over its COMPRESS
//! rule.
//!
//! Both GK variants keep the same tuples `(v, g, Δ)` under the same
//! invariant `g + Δ ≤ ⌊2εn⌋`, insert and merge them the same way, and
//! answer queries from them the same way; they differ only in which
//! adjacent tuples a periodic COMPRESS folds together. That choice is
//! the [`CompressRule`] type parameter, fixed by the two aliases
//! [`GkSummary`] (banded) and [`crate::GreedyGk`] (greedy).

use cqs_core::{composed_eps, ComparisonSummary, MergeError, MergeableSummary, RankEstimator};

use crate::band::Banded;
use crate::tuple::{
    estimate_rank_from_tuples, merge_sorted_chunk, merge_tuple_lists, query_rank_from_tuples,
    validate_tuple_parts, GkTuple,
};

/// The Greenwald–Khanna ε-approximate quantile summary (SIGMOD 2001),
/// with the band-based COMPRESS and subtree merging of the original
/// analysis. Space: O((1/ε)·log εN) — proved optimal by the lower bound
/// in `cqs-core`.
pub type GkSummary<T> = Gk<T, Banded>;

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::Banded {}
    impl Sealed for crate::Greedy {}
}

/// Which adjacent tuples a GK COMPRESS pass folds together. Sealed: the
/// implementors are exactly [`Banded`] and [`crate::Greedy`].
pub trait CompressRule: sealed::Sealed + Default {
    /// [`ComparisonSummary::name`] of the engine under this rule.
    const NAME: &'static str;

    /// One COMPRESS pass over at least three tuples at merge threshold
    /// `cap`. A tuple folded into its successor adds its `g` to the
    /// successor's and is marked dead with `g = 0` (live tuples always
    /// carry `g >= 1`); the engine sweeps the dead out afterwards. The
    /// first and last tuples (the stream extremes) are never folded.
    fn absorb<T>(&mut self, tuples: &mut [GkTuple<T>], cap: u64);
}

/// The GK tuple list under COMPRESS rule `R`; use it as [`GkSummary`] or
/// [`crate::GreedyGk`].
#[derive(Clone, Debug)]
pub struct Gk<T, R> {
    tuples: Vec<GkTuple<T>>,
    n: u64,
    eps: f64,
    compress_period: u64,
    /// Sorted-run merge scratch and the rule (with whatever scratch it
    /// keeps), kept across calls so neither the bulk insert path nor the
    /// periodic compress allocates on the adversary's hot path.
    /// Transient: excluded from snapshots and rebuilt empty on restore.
    scratch_mid: Vec<GkTuple<T>>,
    rule: R,
}

/// The canonical compress period ⌊1/(2ε)⌋ (at least 1).
fn period_for(eps: f64) -> u64 {
    (1.0 / (2.0 * eps)).floor().max(1.0) as u64
}

impl<T: Ord + Clone, R: CompressRule> Gk<T, R> {
    /// Creates a summary with guarantee ε ∈ (0, 0.5).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε.
    pub fn new(eps: f64) -> Self {
        Self::with_compress_period(eps, period_for(eps))
    }

    /// Creates a summary that runs COMPRESS every `period` inserts
    /// instead of the canonical 1/(2ε) — an ablation knob: more frequent
    /// compression trades update time for space, and never affects
    /// correctness (the invariant is checked against 2εn regardless).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε or a zero period.
    pub fn with_compress_period(eps: f64, period: u64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        assert!(period >= 1, "compress period must be positive");
        Gk {
            tuples: Vec::new(),
            n: 0,
            eps,
            compress_period: period,
            scratch_mid: Vec::new(),
            rule: R::default(),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The COMPRESS threshold ⌊2εn⌋ at the current stream length.
    fn threshold(&self) -> u64 {
        (2.0 * self.eps * self.n as f64).floor() as u64
    }

    /// Exposes the raw tuples (diagnostics and tests).
    pub fn tuples(&self) -> &[GkTuple<T>] {
        &self.tuples
    }

    /// The persistent state as `(tuples, n, eps, compress_period)` —
    /// everything a snapshot must carry; the scratch buffers are
    /// transient and rebuilt empty on restore.
    pub fn snapshot_parts(&self) -> (&[GkTuple<T>], u64, f64, u64) {
        (&self.tuples, self.n, self.eps, self.compress_period)
    }

    /// Rebuilds a summary from snapshot parts, validating every
    /// structural invariant a corrupt snapshot could violate — ε range,
    /// positive period, sorted tuples with positive `g`, total `g` mass
    /// equal to `n`, and the GK span invariant — and returning a
    /// diagnostic instead of constructing a broken summary.
    pub fn from_snapshot_parts(
        tuples: Vec<GkTuple<T>>,
        n: u64,
        eps: f64,
        compress_period: u64,
    ) -> Result<Self, String> {
        validate_tuple_parts(&tuples, n, eps, compress_period)?;
        let s = Gk {
            tuples,
            n,
            eps,
            compress_period,
            scratch_mid: Vec::new(),
            rule: R::default(),
        };
        if !s.invariant_holds() {
            return Err("snapshot violates the GK span invariant g+Δ ≤ ⌊2εn⌋".to_string());
        }
        Ok(s)
    }

    /// Merges another summary under the same rule into this one.
    ///
    /// Standard GK merge (cf. the Mergeable Summaries line of work): the
    /// tuple lists are interleaved in sorted order and each tuple's rank
    /// bounds are widened by the bracketing tuples of the other summary:
    ///
    /// ```text
    ///   r_min'(x) = r_min_A(x) + r_min_B(pred_B(x))
    ///   r_max'(x) = r_max_A(x) + r_max_B(succ_B(x)) − 1
    /// ```
    ///
    /// which one pass computes as `(v, g, Δ + g_s + Δ_s − 1)` with `s` the
    /// other list's next unconsumed tuple (see `merge_tuple_lists`). The
    /// merged summary answers within (ε_A + ε_B)·(n_A + n_B); `self`
    /// adopts ε_A + ε_B and its canonical compress period so its
    /// invariant and future compressions remain coherent — also when
    /// `self` was empty. ε values add under merging, in a chain or a
    /// balanced tree alike: folding shards gives composed ε = Σ ε.
    pub fn merge(&mut self, other: &Self) {
        if other.tuples.is_empty() {
            return;
        }
        self.eps = composed_eps(self.eps, other.eps);
        self.compress_period = period_for(self.eps);
        if self.tuples.is_empty() {
            // Adopting the other side wholesale is the one unavoidable
            // copy: merge takes `&other` by contract.
            // cqs-lint: allow(hot-path-alloc)
            self.tuples = other.tuples.clone();
            self.n = other.n;
            return;
        }
        merge_tuple_lists(&self.tuples, &other.tuples, &mut self.scratch_mid);
        std::mem::swap(&mut self.tuples, &mut self.scratch_mid);
        self.n += other.n;
        self.compress(self.threshold());
        // A merged summary may live on (the service caches its folds), so
        // it keeps only what it stores: the pre-merge list is freed rather
        // than kept as scratch, and the merged list gives back the slack
        // COMPRESS leaves below its n_A + n_B-tuple capacity.
        self.scratch_mid = Vec::new();
        self.tuples.shrink_to_fit();
    }

    /// Certified rank bounds for any universe item `q`: the true number
    /// of stream items ≤ q lies in the returned `[lo, hi]` interval.
    /// The interval width is at most 2εn + 1 by the GK invariant.
    pub fn rank_bounds(&self, q: &T) -> (u64, u64) {
        if self.tuples.first().is_none_or(|t| *q < t.v) {
            return (0, 0);
        }
        let mut r_min = 0u64;
        let mut last_le_rmin = 0u64;
        for t in &self.tuples {
            r_min += t.g;
            if t.v <= *q {
                last_le_rmin = r_min;
            } else {
                // True rank is at least the last ≤-tuple's minimum rank
                // and strictly below this tuple's maximum rank.
                return (last_le_rmin, (r_min + t.delta).saturating_sub(1));
            }
        }
        (last_le_rmin, self.n)
    }

    /// The summary's internal invariant: every tuple span `g_i + Δ_i`
    /// is at most ⌊2εn⌋ (grace-period aside for the first 1/(2ε) items).
    pub fn invariant_holds(&self) -> bool {
        let cap = self.threshold().max(1);
        self.tuples.iter().all(|t| t.g + t.delta <= cap)
    }

    pub(crate) fn insert_value(&mut self, item: T) {
        let pos = self.tuples.partition_point(|t| t.v < item);
        // Δ for an interior insert is ⌊2εn⌋ − 1; 0 at either end (the
        // new extreme has exact rank) and during the initial grace
        // period where everything is stored.
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

    /// One COMPRESS pass under the rule at merge threshold `cap` — the
    /// span bound ⌊2εn⌋, except where `CappedGk` escalates it past
    /// correctness — then one `retain` sweep of the tuples it folded.
    pub(crate) fn compress(&mut self, cap: u64) {
        if cap < 2 || self.tuples.len() < 3 {
            return;
        }
        self.rule.absorb(&mut self.tuples, cap);
        self.tuples.retain(|t| t.g != 0);
    }
}

impl<T: Ord + Clone, R: CompressRule> ComparisonSummary<T> for Gk<T, R> {
    fn insert(&mut self, item: T) {
        self.insert_value(item);
    }

    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        debug_assert!(
            run.is_sorted(),
            "insert_sorted_run requires a non-decreasing run"
        );
        let mut peak = 0usize;
        let mut rest = run;
        while !rest.is_empty() {
            // Slice the run at the next compress boundary so the chunk
            // merge never has to interleave with COMPRESS.
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
                // The per-item path polls |I| after every insert (incl.
                // the compressing one), so it never observes the full
                // pre-compress length — only up to one item before it.
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
        R::NAME
    }
}

impl<T: Ord + Clone, R: CompressRule> RankEstimator<T> for Gk<T, R> {
    fn estimate_rank(&self, q: &T) -> u64 {
        estimate_rank_from_tuples(&self.tuples, q, self.n)
    }
}

impl<T: Ord + Clone, R: CompressRule> MergeableSummary<T> for Gk<T, R> {
    /// The principled merge path: refuse up front when the composed ε
    /// leaves (0, 0.5), fold via [`Gk::merge`], then re-validate the GK
    /// span invariant under the composed ε — the check that makes shard
    /// composition trustworthy rather than assumed.
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
mod tests {
    use super::*;

    #[test]
    fn invariant_holds_throughout_adversarial_like_inserts() {
        // Alternating extremes stress the Δ assignment.
        let mut gk = GkSummary::new(0.02);
        for i in 0..5000u64 {
            let v = if i % 2 == 0 { i } else { u64::MAX - i };
            gk.insert(v);
            assert!(gk.invariant_holds(), "invariant broken at n={}", i + 1);
        }
    }

    #[test]
    fn total_g_mass_equals_n() {
        let mut gk = GkSummary::new(0.05);
        for x in (0..3000u64).rev() {
            gk.insert(x);
        }
        let mass: u64 = gk.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 3000);
    }

    #[test]
    fn compress_actually_shrinks() {
        let mut gk = GkSummary::new(0.05);
        for x in 0..10_000u64 {
            gk.insert(x);
        }
        assert!(gk.stored_count() < 1000, "no compression happened");
    }

    #[test]
    fn rank_bounds_bracket_truth_and_are_narrow() {
        let n = 20_000u64;
        let eps = 0.01;
        let mut gk = GkSummary::new(eps);
        for i in 0..n {
            gk.insert((i * 48271) % n + 1);
        }
        let width_cap = (2.0 * eps * n as f64) as u64 + 2;
        for q in (1..=n).step_by(997) {
            let (lo, hi) = gk.rank_bounds(&q);
            // Values are a permutation-ish of 1..=n; exact truth needs
            // counting, so check bracketing against the estimator and
            // width against the invariant.
            let est = cqs_core::RankEstimator::estimate_rank(&gk, &q);
            assert!(
                lo <= est && est <= hi,
                "q={q}: est {est} outside [{lo},{hi}]"
            );
            assert!(hi - lo <= width_cap, "q={q}: bounds too wide: {}", hi - lo);
        }
        // Below the minimum and above the maximum the bounds are exact.
        assert_eq!(gk.rank_bounds(&0), (0, 0));
        assert_eq!(gk.rank_bounds(&(n + 10)).0, n);
    }

    #[test]
    fn merge_conserves_mass_and_bounds() {
        let mut a = GkSummary::new(0.01);
        let mut b = GkSummary::new(0.01);
        for x in 0..5_000u64 {
            a.insert(x * 2); // evens
            b.insert(x * 2 + 1); // odds
        }
        a.merge(&b);
        assert_eq!(a.items_processed(), 10_000);
        let mass: u64 = a.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 10_000);
        // Extremes of the union are retained.
        let arr = a.item_array();
        assert_eq!(arr[0], 0);
        assert_eq!(*arr.last().unwrap(), 9_999);
        // Error within the merged 2ε guarantee.
        let med = a.query_rank(5_000).unwrap();
        assert!(med.abs_diff(5_000) <= 250, "merged median {med}");
    }

    #[test]
    fn merge_adopts_summed_eps() {
        let mut a: GkSummary<u64> = GkSummary::new(0.01);
        let mut b: GkSummary<u64> = GkSummary::new(0.02);
        a.insert(1);
        b.insert(2);
        a.merge(&b);
        assert!((a.eps() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn composed_eps_near_half_is_not_understated() {
        // 0.25 + 0.2495 = 0.4995 is a merge `try_merge` accepts, so the
        // merged summary must report (and check its invariant at) the
        // whole composed ε, not a clamp below it.
        fn check<R: CompressRule>() {
            let mut a: Gk<u64, R> = Gk::new(0.25);
            let mut b: Gk<u64, R> = Gk::new(0.2495);
            for x in 0..200u64 {
                a.insert(x);
                b.insert(x + 100);
            }
            a.try_merge(&b).expect("composed eps 0.4995 < 0.5");
            let eps = a.eps_bound().expect("gk reports eps");
            assert!(eps >= 0.4995, "{}: composed eps {eps}", R::NAME);
        }
        check::<Banded>();
        check::<crate::Greedy>();
    }

    #[test]
    fn merge_matches_the_three_pass_reference() {
        // The whole engine merge — one-pass kernel, buffer swap, eps and
        // period adoption, compress — against the three-pass kernel it
        // replaced, for both rules.
        fn check<R: CompressRule + Clone>(xs: &[u64], ys: &[u64]) {
            let mut a: Gk<u64, R> = Gk::new(0.01);
            let mut b: Gk<u64, R> = Gk::new(0.003);
            xs.iter().for_each(|&x| a.insert(x));
            ys.iter().for_each(|&y| b.insert(y));
            let mut want = a.clone();
            want.eps = a.eps + b.eps;
            want.compress_period = period_for(want.eps);
            want.tuples = crate::tuple::three_pass_merge(&a.tuples, &b.tuples, a.n, b.n);
            want.n = a.n + b.n;
            want.compress(want.threshold());
            a.merge(&b);
            let parts = |g: &Gk<u64, R>| {
                let ts: Vec<_> = g.tuples.iter().map(|t| (t.v, t.g, t.delta)).collect();
                (ts, g.n, g.eps, g.compress_period)
            };
            assert_eq!(parts(&a), parts(&want), "{}", R::NAME);
        }
        let xs: Vec<u64> = (0..4000u64).map(|i| (i * 7919) % 97).collect();
        let ys: Vec<u64> = (0..2500u64).map(|i| (i * 104_729) % 131).collect();
        check::<Banded>(&xs, &ys);
        check::<crate::Greedy>(&xs, &ys);
        check::<Banded>(&ys, &xs);
        check::<crate::Greedy>(&ys, &xs);
    }

    #[test]
    fn merge_is_usable_after_more_inserts() {
        let mut a = GkSummary::new(0.02);
        let mut b = GkSummary::new(0.02);
        for x in 0..2_000u64 {
            a.insert(x);
            b.insert(x + 2_000);
        }
        a.merge(&b);
        for x in 4_000..6_000u64 {
            a.insert(x);
        }
        assert_eq!(a.items_processed(), 6_000);
        assert!(a.invariant_holds());
        let q = a.query_rank(3_000).unwrap();
        assert!(
            q.abs_diff(3_000) <= 6_000 / 8,
            "post-merge insert broke queries: {q}"
        );
    }

    #[test]
    fn tuples_stay_sorted() {
        let mut gk = GkSummary::new(0.03);
        for i in 0..4000u64 {
            gk.insert((i * 2654435761) % 65536);
        }
        let arr = gk.item_array();
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::check_cases;

    const CASES: u32 = 32;

    #[test]
    fn gk_rank_errors_bounded() {
        check_cases(0x21, CASES, |rng| {
            let xs: Vec<u32> = (0..100 + rng.index(1900))
                .map(|_| rng.below(10_000) as u32)
                .collect();
            let eps = 0.05;
            let mut gk = GkSummary::new(eps);
            let mut sorted = xs.clone();
            for &x in &xs {
                gk.insert(x);
            }
            sorted.sort_unstable();
            let n = xs.len() as u64;
            let budget = (eps * n as f64).floor() as u64 + 1;
            for step in 1..=10u64 {
                let r = (step * n / 10).max(1);
                let ans = gk.query_rank(r).unwrap();
                // True rank range of `ans` in the multiset.
                let lo = sorted.partition_point(|&v| v < ans) as u64 + 1;
                let hi = sorted.partition_point(|&v| v <= ans) as u64;
                let err = if r < lo { lo - r } else { r.saturating_sub(hi) };
                assert!(err <= budget, "rank {r}: answer {ans} err {err} > {budget}");
            }
        });
    }

    #[test]
    fn gk_invariant_on_random_streams() {
        check_cases(0x22, CASES, |rng| {
            let xs: Vec<u64> = (0..1 + rng.index(499))
                .map(|_| rng.below(1_000_000))
                .collect();
            let mut gk = GkSummary::new(0.02);
            for &x in &xs {
                gk.insert(x);
                assert!(gk.invariant_holds());
            }
            let mass: u64 = gk.tuples().iter().map(|t| t.g).sum();
            assert_eq!(mass, xs.len() as u64);
        });
    }
}
