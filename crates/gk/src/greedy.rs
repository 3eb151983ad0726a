//! The greedy GK variant: merge adjacent tuples whenever the combined
//! span fits, with no band bookkeeping.
//!
//! Suggested in the original GK paper and reported by Luo et al. to
//! outperform the banded version in practice; whether it retains the
//! O((1/ε)·log εN) worst-case bound is the open problem recalled in
//! Section 6 of the lower-bound paper. The ablation benches compare the
//! two head-to-head, including on the adversarial streams.

use crate::summary::{CompressRule, Gk};
use crate::tuple::GkTuple;

/// Greedy-merge GK summary: the GK engine under the [`Greedy`] rule.
pub type GreedyGk<T> = Gk<T, Greedy>;

/// The greedy COMPRESS rule. Stateless: the pass runs in place.
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

impl CompressRule for Greedy {
    const NAME: &'static str = "gk-greedy";

    /// One right-to-left pass folding `t_i` into `t_{i+1}` whenever
    /// `g_i + g_{i+1} + Δ_{i+1} < cap` (the successor absorbs the mass
    /// and keeps its own Δ, so the test is exactly the post-merge span).
    /// Cascades naturally: an absorber's grown `g` is what the next
    /// candidate is tested against.
    ///
    /// Marking folded tuples with `g = 0` for one sweep, instead of
    /// shuffling the whole tuple vector through a scratch buffer on each
    /// firing, is what keeps the greedy insert path cheap.
    fn absorb<T>(&mut self, tuples: &mut [GkTuple<T>], cap: u64) {
        let mut succ = tuples.len() - 1;
        for i in (1..tuples.len() - 1).rev() {
            let t_g = tuples.get(i).map_or(0, |t| t.g);
            let fits = tuples.get(succ).is_some_and(|s| t_g + s.g + s.delta < cap);
            if fits {
                if let Some(s) = tuples.get_mut(succ) {
                    s.g += t_g;
                }
                if let Some(t) = tuples.get_mut(i) {
                    t.g = 0;
                }
            } else {
                succ = i;
            }
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::check_cases;
    use cqs_core::ComparisonSummary;

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
    use cqs_core::ComparisonSummary;

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
