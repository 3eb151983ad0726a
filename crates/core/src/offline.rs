//! The offline baseline from Section 1: with random access to the whole
//! data set, ⌈1/(2ε)⌉ stored items are sufficient — and necessary.
//!
//! Sufficiency: store the ε-, 3ε-, 5ε-, … quantiles; every target rank is
//! within εN of a stored one. Necessity: any summary answering from a set
//! of stored items must cover \[0,1\] with intervals of width 2ε around the
//! stored quantiles, so fewer than ⌈1/(2ε)⌉ items leave a hole.

use crate::eps::Eps;

/// The offline ε-approximate summary over a fully-known data set.
#[derive(Clone, Debug)]
pub struct OfflineSummary<T> {
    items: Vec<T>,
    ranks: Vec<u64>,
    n: u64,
    eps: Eps,
}

impl<T: Ord + Clone> OfflineSummary<T> {
    /// Builds from sorted data: selects the items of rank
    /// (2j−1)·εN for j = 1..⌈1/(2ε)⌉ (clamped to [1, N]).
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty or not sorted.
    pub fn build(sorted: &[T], eps: Eps) -> Self {
        assert!(!sorted.is_empty(), "offline summary needs data");
        assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "input must be sorted"
        );
        let n = sorted.len() as u64;
        let count = eps.inverse().div_ceil(2); // ⌈1/(2ε)⌉
        let mut items = Vec::with_capacity(count as usize);
        let mut ranks = Vec::with_capacity(count as usize);
        for j in 1..=count {
            // rank (2j−1)·εN, rounded to nearest so the ⌊εN⌋ error
            // budget is met on both sides of every stored rank.
            let r = (((2 * j - 1) * n + eps.inverse() / 2) / eps.inverse()).clamp(1, n);
            if ranks.last() == Some(&r) {
                continue; // tiny n can collapse adjacent picks
            }
            items.push(sorted[(r - 1) as usize].clone());
            ranks.push(r);
        }
        OfflineSummary {
            items,
            ranks,
            n,
            eps,
        }
    }

    /// Number of stored items — at most ⌈1/(2ε)⌉.
    pub fn stored_count(&self) -> usize {
        self.items.len()
    }

    /// Answers a rank query with the stored item of nearest selected
    /// rank (ties go to the higher rank); `None` only if nothing is
    /// stored, which [`build`](Self::build) rules out.
    pub fn query_rank(&self, r: u64) -> Option<&T> {
        let r = r.clamp(1, self.n);
        let idx = match self.ranks.binary_search(&r) {
            Ok(i) => i,
            // Nearest of ranks[i−1], ranks[i], whichever exist.
            Err(i) => match (
                i.checked_sub(1).and_then(|j| self.ranks.get(j)),
                self.ranks.get(i),
            ) {
                (Some(&lo), Some(&hi)) if r - lo < hi - r => i - 1,
                (Some(_), None) => i - 1,
                _ => i,
            },
        };
        self.items.get(idx)
    }

    /// The stored rank actually returned for target `r` — used to verify
    /// the εN guarantee.
    pub fn answered_rank(&self, r: u64) -> u64 {
        let r = r.clamp(1, self.n);
        let item_idx = {
            let q = self.query_rank(r).expect("build stores at least one item");
            self.items.iter().position(|x| x == q).expect("stored")
        };
        self.ranks[item_idx]
    }

    /// The worst-case rank error over all targets 1..=N.
    pub fn max_rank_error(&self) -> u64 {
        (1..=self.n)
            .map(|r| self.answered_rank(r).abs_diff(r))
            .max()
            .unwrap_or(0)
    }

    /// The ε this summary was built for.
    pub fn eps(&self) -> Eps {
        self.eps
    }
}

/// The Section-1 necessity argument, executable: given the sorted ranks a
/// summary can answer with (as fractions of N), returns a quantile ϕ that
/// is more than ε away from all of them, if one exists. Any summary
/// storing fewer than ⌈1/(2ε)⌉ items always leaves such a hole.
pub fn uncovered_quantile(stored_ranks: &[u64], n: u64, eps: Eps) -> Option<f64> {
    let budget = n as f64 / eps.inverse() as f64; // εN
    let mut prev = 0.0f64;
    for &r in stored_ranks {
        let r = r as f64;
        if r - prev > 2.0 * budget {
            return Some(((prev + r) / 2.0) / n as f64);
        }
        prev = r;
    }
    if n as f64 - prev > budget {
        return Some(((prev + n as f64) / 2.0 + budget / 2.0).min(n as f64) / n as f64);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn stores_at_most_half_inverse_eps() {
        let eps = Eps::from_inverse(20);
        let s = OfflineSummary::build(&data(1000), eps);
        assert!(s.stored_count() <= 10);
        assert!(s.stored_count() >= 9);
    }

    #[test]
    fn every_rank_is_answered_within_budget() {
        let eps = Eps::from_inverse(20);
        let s = OfflineSummary::build(&data(1000), eps);
        assert!(
            s.max_rank_error() <= 1000 / 20,
            "error {} exceeds eps*N",
            s.max_rank_error()
        );
    }

    #[test]
    fn small_n_does_not_panic_or_duplicate() {
        let eps = Eps::from_inverse(100);
        let s = OfflineSummary::build(&data(10), eps);
        assert!(s.stored_count() <= 10);
        assert!(s.max_rank_error() <= 10);
    }

    #[test]
    fn too_few_stored_ranks_leave_a_hole() {
        let eps = Eps::from_inverse(20);
        let n = 1000;
        // Only 5 stored ranks where ~10 are needed: a hole must exist.
        let ranks: Vec<u64> = (1..=5).map(|j| j * n / 5).collect();
        let hole = uncovered_quantile(&ranks, n, eps);
        assert!(hole.is_some());
        let phi = hole.unwrap();
        let t = phi * n as f64;
        for &r in &ranks {
            assert!(
                (r as f64 - t).abs() > n as f64 / 20.0,
                "rank {r} covers the supposed hole at {t}"
            );
        }
    }

    #[test]
    fn full_offline_summary_leaves_no_hole() {
        let eps = Eps::from_inverse(20);
        let n = 1000;
        let s = OfflineSummary::build(&data(n), eps);
        assert!(uncovered_quantile(&s.ranks, n, eps).is_none());
    }
}
