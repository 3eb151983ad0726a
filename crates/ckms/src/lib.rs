#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # cqs-ckms — biased (relative-error) quantiles
//!
//! The CKMS summary of Cormode, Korn, Muthukrishnan & Srivastava
//! (ICDE 2005): a GK-style tuple list whose invariant is driven by a
//! rank-dependent error function `f(r, n) = max(⌊2εr⌋, 1)`, granting the
//! *biased* guarantee — a ϕ-quantile query is answered within ε·ϕ·N
//! ranks, which is far stronger than the uniform ε·N at small ϕ (e.g.
//! p99.9 latency tracking).
//!
//! Role in the reproduction: Theorem 6.5 of the lower-bound paper proves
//! any comparison-based biased-quantile summary needs Ω((1/ε)·log² εN)
//! items via the k-phase construction in `cqs_core::biased`; this crate
//! is the upper-bound side whose retention the experiment measures.
//! Because ε·r ≤ ε·n, a biased summary is also a valid uniform summary —
//! it simply pays more space near low ranks.
//!
//! # Example
//!
//! ```
//! use cqs_ckms::CkmsSummary;
//! use cqs_core::ComparisonSummary;
//!
//! let mut ck = CkmsSummary::new(0.01);
//! for x in 0..100_000u64 {
//!     ck.insert(x);
//! }
//! // Relative error: the 0.1%-quantile is pinned within ±ε·0.001·N ≈ ±1.
//! let low = ck.quantile(0.001).unwrap();
//! assert!((95..=105).contains(&low));
//! ```

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary, RankEstimator};

/// One CKMS tuple (same shape as GK's).
#[derive(Clone, Debug)]
pub struct CkmsTuple<T> {
    /// Stored item.
    pub v: T,
    /// Rank mass since the previous tuple.
    pub g: u64,
    /// Rank uncertainty.
    pub delta: u64,
}

/// Which end of the rank spectrum gets the sharp relative guarantee.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Bias {
    /// Error ε·r — sharp at *low* ranks (small quantiles), the original
    /// CKMS setting.
    #[default]
    Low,
    /// Error ε·(n − r + 1) — sharp at *high* ranks (tail percentiles,
    /// e.g. p99.9 latency), by running the same invariant mirrored.
    High,
}

/// The CKMS biased-quantiles summary (low-rank biased: error ε·r).
#[derive(Clone, Debug)]
pub struct CkmsSummary<T> {
    tuples: Vec<CkmsTuple<T>>,
    n: u64,
    eps: f64,
    bias: Bias,
    compress_period: u64,
}

impl<T: Ord + Clone> CkmsSummary<T> {
    /// Creates a summary with relative guarantee ε ∈ (0, 0.5).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε.
    pub fn new(eps: f64) -> Self {
        Self::with_bias(eps, Bias::Low)
    }

    /// Creates a summary whose sharp end is at high ranks — the natural
    /// configuration for tail-latency (p99/p99.9) tracking.
    pub fn new_high_biased(eps: f64) -> Self {
        Self::with_bias(eps, Bias::High)
    }

    /// Creates a summary with an explicit [`Bias`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε.
    pub fn with_bias(eps: f64, bias: Bias) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        CkmsSummary {
            tuples: Vec::new(),
            n: 0,
            eps,
            bias,
            compress_period: (1.0 / (2.0 * eps)).floor().max(1.0) as u64,
        }
    }

    /// The configured bias direction.
    pub fn bias(&self) -> Bias {
        self.bias
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Raw tuples (diagnostics and tests).
    pub fn tuples(&self) -> &[CkmsTuple<T>] {
        &self.tuples
    }

    /// The persistent state as `(tuples, n, eps, bias, compress_period)`
    /// — everything a snapshot must carry.
    pub fn snapshot_parts(&self) -> (&[CkmsTuple<T>], u64, f64, Bias, u64) {
        (
            &self.tuples,
            self.n,
            self.eps,
            self.bias,
            self.compress_period,
        )
    }

    /// Rebuilds a summary from snapshot parts, validating ε range,
    /// positive period, sorted tuples, total `g` mass equal to `n`, and
    /// the biased span invariant. Returns a diagnostic instead of
    /// constructing a broken summary.
    pub fn from_snapshot_parts(
        tuples: Vec<CkmsTuple<T>>,
        n: u64,
        eps: f64,
        bias: Bias,
        compress_period: u64,
    ) -> Result<Self, String> {
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
        let mass: u64 = tuples.iter().map(|t| t.g).sum();
        if mass != n {
            return Err(format!(
                "snapshot g mass {mass} disagrees with stream length {n}"
            ));
        }
        let s = CkmsSummary {
            tuples,
            n,
            eps,
            bias,
            compress_period,
        };
        if !s.invariant_holds() {
            return Err("snapshot violates the CKMS biased span invariant".to_string());
        }
        Ok(s)
    }

    /// The biased invariant function: f(r) = max(⌊2εr⌋, 1) for low
    /// bias, mirrored to max(⌊2ε(n − r + 1)⌋, 1) for high bias.
    fn f(&self, r: u64) -> u64 {
        let effective = match self.bias {
            Bias::Low => r,
            Bias::High => (self.n + 1).saturating_sub(r),
        };
        ((2.0 * self.eps * effective as f64).floor() as u64).max(1)
    }

    /// The biased invariant: every tuple's span fits its rank budget.
    pub fn invariant_holds(&self) -> bool {
        let mut r = 0u64;
        for t in &self.tuples {
            if t.g + t.delta > self.f(r).max(1) + 1 {
                return false;
            }
            r += t.g;
        }
        true
    }

    /// Merges another CKMS summary of the *same bias direction* into
    /// this one: the standard widened-bounds tuple interleave (each
    /// emitted tuple's rank bounds widen by the bracketing tuples of the
    /// other list), then a compress under the composed budget. `self`
    /// adopts ε_A + ε_B; the biased guarantee composes the same way the
    /// uniform one does — error at rank r grows to (ε_A + ε_B)·r.
    ///
    /// Bias directions cannot be mixed (their invariants pull opposite
    /// ways); use [`MergeableSummary::try_merge`] for the checked path.
    fn merge_same_bias(&mut self, other: &CkmsSummary<T>) {
        if other.tuples.is_empty() {
            return;
        }
        if self.tuples.is_empty() {
            self.tuples = other.tuples.clone();
            self.n = other.n;
            self.eps = (self.eps + other.eps).min(0.499);
            return;
        }
        let bounds = |ts: &[CkmsTuple<T>]| -> Vec<(u64, u64)> {
            let mut out = Vec::with_capacity(ts.len());
            let mut r_min = 0u64;
            for t in ts {
                r_min += t.g;
                out.push((r_min, r_min + t.delta));
            }
            out
        };
        let ba = bounds(&self.tuples);
        let bb = bounds(&other.tuples);
        let (na, nb) = (self.n, other.n);
        let mut merged: Vec<(T, u64, u64)> = Vec::with_capacity(ba.len() + bb.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.tuples.len() || j < other.tuples.len() {
            let take_a = match (self.tuples.get(i), other.tuples.get(j)) {
                (Some(a), Some(b)) => a.v <= b.v,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let (v, own, other_ts, other_bounds, other_n, pos) = if take_a {
                (self.tuples[i].v.clone(), ba[i], &other.tuples, &bb, nb, j)
            } else {
                (other.tuples[j].v.clone(), bb[j], &self.tuples, &ba, na, i)
            };
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
        let mut tuples = Vec::with_capacity(merged.len());
        let mut prev_min = 0u64;
        for (v, r_min, r_max) in merged {
            let r_min = r_min.max(prev_min);
            tuples.push(CkmsTuple {
                v,
                g: r_min - prev_min,
                delta: r_max.saturating_sub(r_min),
            });
            prev_min = r_min;
        }
        self.tuples = tuples;
        self.n = na + nb;
        self.eps = (self.eps + other.eps).min(0.499);
        self.compress_period = (1.0 / (2.0 * self.eps)).floor().max(1.0) as u64;
        self.compress();
    }

    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        // Right-to-left greedy merge under the rank-dependent budget.
        // Precompute r_min prefix to know each candidate's rank budget.
        let mut r_mins: Vec<u64> = Vec::with_capacity(self.tuples.len());
        let mut acc = 0u64;
        for t in &self.tuples {
            acc += t.g;
            r_mins.push(acc);
        }
        let mut ts = std::mem::take(&mut self.tuples);
        let mut kept_rev: Vec<CkmsTuple<T>> = Vec::with_capacity(ts.len());
        kept_rev.extend(ts.pop());
        let mut idx = ts.len();
        while let Some(t) = ts.pop() {
            idx -= 1;
            let is_first = ts.is_empty();
            // Budget at the *predecessor's* rank, per CKMS.
            let budget = if idx == 0 { 1 } else { self.f(r_mins[idx - 1]) };
            match kept_rev.last_mut() {
                Some(succ) if !is_first && t.g + succ.g + succ.delta <= budget => {
                    succ.g += t.g;
                }
                _ => kept_rev.push(t),
            }
        }
        kept_rev.reverse();
        self.tuples = kept_rev;
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for CkmsSummary<T> {
    fn insert(&mut self, item: T) {
        let pos = self.tuples.partition_point(|t| t.v < item);
        let delta = if pos == 0 || pos == self.tuples.len() {
            0
        } else {
            let r_prev: u64 = self.tuples[..pos].iter().map(|t| t.g).sum();
            self.f(r_prev).saturating_sub(1)
        };
        self.tuples.insert(
            pos,
            CkmsTuple {
                v: item,
                g: 1,
                delta,
            },
        );
        self.n += 1;
        if self.n.is_multiple_of(self.compress_period) {
            self.compress();
        }
    }

    fn item_array(&self) -> Vec<T> {
        self.tuples.iter().map(|t| t.v.clone()).collect()
    }

    fn stored_count(&self) -> usize {
        self.tuples.len()
    }

    fn items_processed(&self) -> u64 {
        self.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        if self.tuples.is_empty() {
            return None;
        }
        let r = r.clamp(1, self.n);
        let mut r_min = 0u64;
        let mut best: Option<(&CkmsTuple<T>, u64)> = None;
        for t in &self.tuples {
            r_min += t.g;
            let r_max = r_min + t.delta;
            let dev = (r_min.abs_diff(r)).max(r_max.abs_diff(r));
            if best.map(|(_, d)| dev < d).unwrap_or(true) {
                best = Some((t, dev));
            }
        }
        best.map(|(t, _)| t.v.clone())
    }

    fn name(&self) -> &'static str {
        "ckms"
    }
}

impl<T: Ord + Clone> MergeableSummary<T> for CkmsSummary<T> {
    /// Refuses mixed bias directions and out-of-range composed ε up
    /// front, folds via the widened-bounds merge, then validates mass
    /// conservation and sortedness of the merged tuple list. (The
    /// rank-dependent span invariant is a *maintenance* invariant — the
    /// widened merge can exceed it by a constant at the sharp end, which
    /// subsequent compressions absorb; mass and order are the structural
    /// properties every query path relies on.)
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.bias != other.bias {
            return Err(MergeError::IncompatibleParams {
                what: "bias direction",
                left: format!("{:?}", self.bias),
                right: format!("{:?}", other.bias),
            });
        }
        let composed = self.eps + other.eps;
        if !(composed > 0.0 && composed < 0.5) {
            return Err(MergeError::EpsOverflow { composed });
        }
        self.merge_same_bias(other);
        let mass: u64 = self.tuples.iter().map(|t| t.g).sum();
        if mass != self.n {
            return Err(MergeError::InvariantViolated {
                detail: format!("CKMS g mass {mass} disagrees with stream length {}", self.n),
            });
        }
        if !self.tuples.windows(2).all(|w| match (w.first(), w.last()) {
            (Some(a), Some(b)) => a.v <= b.v,
            _ => true,
        }) {
            return Err(MergeError::InvariantViolated {
                detail: "CKMS tuples out of order after merge".to_string(),
            });
        }
        Ok(())
    }

    fn eps_bound(&self) -> Option<f64> {
        Some(self.eps)
    }
}

impl<T: Ord + Clone> RankEstimator<T> for CkmsSummary<T> {
    fn estimate_rank(&self, q: &T) -> u64 {
        if self.tuples.is_empty() || *q < self.tuples[0].v {
            return 0;
        }
        let mut r_min = 0u64;
        let mut prev = 0u64;
        for t in &self.tuples {
            r_min += t.g;
            if t.v <= *q {
                prev = r_min;
            } else {
                return (prev + (r_min + t.delta).saturating_sub(1)) / 2;
            }
        }
        self.n
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::check_cases;

    const CASES: u32 = 32;

    #[test]
    fn invariant_and_mass_on_random_streams() {
        check_cases(0x41, CASES, |rng| {
            let xs: Vec<u32> = (0..1 + rng.index(1199))
                .map(|_| rng.below(50_000) as u32)
                .collect();
            let mut ck = CkmsSummary::new(0.05);
            for &x in &xs {
                ck.insert(x);
            }
            assert!(ck.invariant_holds());
            let mass: u64 = ck.tuples().iter().map(|t| t.g).sum();
            assert_eq!(mass, xs.len() as u64);
        });
    }

    #[test]
    fn biased_budget_respected_at_sampled_ranks() {
        check_cases(0x42, CASES, |rng| {
            let xs: Vec<u32> = (0..500 + rng.index(2000))
                .map(|_| rng.below(10_000) as u32)
                .collect();
            let eps = 0.05;
            let mut ck = CkmsSummary::new(eps);
            let mut sorted = xs.clone();
            for &x in &xs {
                ck.insert(x);
            }
            sorted.sort_unstable();
            let n = xs.len() as u64;
            for &frac in &[0.02f64, 0.1, 0.5, 0.9] {
                let r = ((frac * n as f64) as u64).max(1);
                let ans = ck.query_rank(r).unwrap();
                let lo = sorted.partition_point(|&v| v < ans) as u64 + 1;
                let hi = sorted.partition_point(|&v| v <= ans) as u64;
                let err = if r < lo { lo - r } else { r.saturating_sub(hi) };
                let budget = ((2.0 * eps * r as f64).ceil() as u64).max(3);
                assert!(err <= budget, "rank {r}: err {err} > {budget}");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn mass_conservation() {
        let mut ck = CkmsSummary::new(0.02);
        for x in shuffled(30_000, 1) {
            ck.insert(x);
        }
        let mass: u64 = ck.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 30_000);
    }

    #[test]
    fn relative_error_at_low_ranks() {
        let n = 100_000u64;
        let eps = 0.01;
        let mut ck = CkmsSummary::new(eps);
        for x in shuffled(n, 2) {
            ck.insert(x);
        }
        // At rank r the permitted error is ~ε·r (plus slack for the
        // floor/compress rounding).
        for r in [10u64, 100, 1_000, 10_000, 50_000] {
            let ans = ck.query_rank(r).unwrap();
            let budget = ((eps * r as f64).ceil() as u64).max(2) * 2;
            assert!(
                ans.abs_diff(r) <= budget,
                "rank {r}: answer {ans}, err {} > {budget}",
                ans.abs_diff(r)
            );
        }
    }

    #[test]
    fn low_ranks_are_much_sharper_than_uniform_budget() {
        let n = 100_000u64;
        let eps = 0.01;
        let mut ck = CkmsSummary::new(eps);
        for x in shuffled(n, 3) {
            ck.insert(x);
        }
        // Uniform budget would allow ±1000 at rank 50; biased must be
        // within a handful.
        let ans = ck.query_rank(50).unwrap();
        assert!(ans.abs_diff(50) <= 5, "rank 50 answered {ans}");
    }

    #[test]
    fn space_exceeds_gk_but_stays_polylog() {
        let n = 100_000u64;
        let eps = 0.02;
        let mut ck = CkmsSummary::new(eps);
        let mut peak = 0usize;
        for x in shuffled(n, 4) {
            ck.insert(x);
            peak = peak.max(ck.stored_count());
        }
        // Θ((1/ε)·log(εN)·log n)-ish; demand clearly sublinear.
        assert!(peak < (n as usize) / 10, "peak {peak} not sublinear");
        // And clearly more than the flat 1/(2ε) offline floor — the
        // price of the biased guarantee.
        assert!(peak as f64 > 1.0 / (2.0 * eps));
    }

    #[test]
    fn invariant_holds_throughout() {
        let mut ck = CkmsSummary::new(0.05);
        for (i, x) in shuffled(5_000, 5).into_iter().enumerate() {
            ck.insert(x);
            assert!(ck.invariant_holds(), "invariant broken at n={}", i + 1);
        }
    }

    #[test]
    fn extremes_are_stored() {
        let mut ck = CkmsSummary::new(0.05);
        for x in shuffled(10_000, 6) {
            ck.insert(x);
        }
        let arr = ck.item_array();
        assert_eq!(arr[0], 1);
        assert_eq!(*arr.last().unwrap(), 10_000);
    }

    #[test]
    fn rank_estimation_tracks_biased_budget() {
        let n = 50_000u64;
        let eps = 0.02;
        let mut ck = CkmsSummary::new(eps);
        for x in shuffled(n, 7) {
            ck.insert(x);
        }
        for q in [100u64, 1_000, 10_000, 40_000] {
            let est = ck.estimate_rank(&q);
            let budget = ((eps * q as f64).ceil() as u64).max(2) * 2;
            assert!(est.abs_diff(q) <= budget, "rank({q}) est {est}");
        }
    }

    #[test]
    fn high_biased_is_sharp_at_the_tail() {
        let n = 100_000u64;
        let eps = 0.01;
        let mut ck = CkmsSummary::new_high_biased(eps);
        for x in shuffled(n, 8) {
            ck.insert(x);
        }
        // Tail ranks get relative precision: at rank n−50 the budget is
        // ~ε·51.
        for back in [10u64, 100, 1_000] {
            let r = n - back;
            let ans = ck.query_rank(r).unwrap();
            let budget = ((2.0 * eps * (back + 1) as f64).ceil() as u64).max(2) * 2;
            assert!(
                ans.abs_diff(r) <= budget,
                "rank {r} (back {back}): answer {ans}, err {} > {budget}",
                ans.abs_diff(r)
            );
        }
        // …while low ranks are allowed to be coarse (uniform-grade).
        assert!(ck.invariant_holds());
    }

    #[test]
    fn high_biased_p999_much_sharper_than_low_biased() {
        let n = 100_000u64;
        let eps = 0.01;
        let mut high = CkmsSummary::new_high_biased(eps);
        let mut low = CkmsSummary::new(eps);
        for x in shuffled(n, 9) {
            high.insert(x);
            low.insert(x);
        }
        let r = n - n / 1000; // p99.9
        let err_high = high.query_rank(r).unwrap().abs_diff(r);
        let err_low = low.query_rank(r).unwrap().abs_diff(r);
        assert!(
            err_high * 4 <= err_low.max(40),
            "high-biased p99.9 err {err_high} not clearly sharper than low-biased {err_low}"
        );
    }

    #[test]
    fn empty_summary() {
        let ck: CkmsSummary<u64> = CkmsSummary::new(0.1);
        assert_eq!(ck.quantile(0.5), None);
        assert_eq!(ck.estimate_rank(&1), 0);
    }
}
