#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # cqs-sampling — reservoir-sampling quantile summary
//!
//! The classic randomized baseline (cf. Manku–Rajagopalan–Lindsay 1999
//! and the experimental survey of Luo et al.): keep a uniform reservoir
//! of m items (Vitter's Algorithm R) and answer quantile queries from
//! the sorted sample. By the DKW inequality, m = ⌈ln(2/δ)/(2ε²)⌉ gives
//! ε-accurate ranks for *all* quantiles simultaneously with probability
//! 1 − δ.
//!
//! Note the contrast that motivates the paper: the sample size is
//! independent of N but quadratic in 1/ε, whereas deterministic
//! summaries pay (1/ε)·log εN — and the lower bound shows the log εN is
//! unavoidable without randomness.
//!
//! # Example
//!
//! ```
//! use cqs_sampling::ReservoirSummary;
//! use cqs_core::ComparisonSummary;
//!
//! let mut rs = ReservoirSummary::with_seed(0.05, 0.01, 7);
//! for x in 0..100_000u64 {
//!     rs.insert(x);
//! }
//! let med = rs.quantile(0.5).unwrap();
//! assert!((40_000..=60_000).contains(&med));
//! ```

use cqs_core::rng::SplitMix64;
use cqs_core::{ComparisonSummary, RankEstimator};

/// A reservoir-sampling summary with (ε, δ) guarantee.
#[derive(Clone, Debug)]
pub struct ReservoirSummary<T> {
    reservoir: Vec<T>,
    capacity: usize,
    n: u64,
    rng: SplitMix64,
    min: Option<T>,
    max: Option<T>,
    eps: f64,
}

impl<T: Ord + Clone> ReservoirSummary<T> {
    /// Creates a reservoir sized by the DKW bound for the requested
    /// (ε, δ).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn with_seed(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let m = ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize;
        Self::with_capacity(m.max(2), eps, seed)
    }

    /// Creates a reservoir with an explicit capacity (for space-accuracy
    /// sweeps).
    pub fn with_capacity(capacity: usize, eps: f64, seed: u64) -> Self {
        assert!(capacity >= 2);
        ReservoirSummary {
            reservoir: Vec::with_capacity(capacity),
            capacity,
            n: 0,
            rng: SplitMix64::new(seed),
            min: None,
            max: None,
            eps,
        }
    }

    /// The reservoir capacity m.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ε this reservoir was sized for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    fn sorted_sample(&self) -> Vec<T> {
        let mut s = self.reservoir.clone();
        s.sort_unstable();
        s
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for ReservoirSummary<T> {
    fn insert(&mut self, item: T) {
        if self.min.as_ref().map(|m| item < *m).unwrap_or(true) {
            self.min = Some(item.clone());
        }
        if self.max.as_ref().map(|m| item > *m).unwrap_or(true) {
            self.max = Some(item.clone());
        }
        self.n += 1;
        if self.reservoir.len() < self.capacity {
            self.reservoir.push(item);
        } else {
            // Algorithm R: replace a uniform slot with probability m/n.
            let j = self.rng.below(self.n);
            if let Some(slot) = self.reservoir.get_mut(j as usize) {
                *slot = item;
            }
        }
    }

    fn item_array(&self) -> Vec<T> {
        let mut out = self.sorted_sample();
        out.extend(self.min.clone());
        out.extend(self.max.clone());
        out.sort_unstable();
        out.dedup();
        out
    }

    fn stored_count(&self) -> usize {
        self.reservoir.len()
    }

    fn items_processed(&self) -> u64 {
        self.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        if self.n == 0 {
            return None;
        }
        let r = r.clamp(1, self.n);
        if r == 1 {
            return self.min.clone();
        }
        if r == self.n {
            return self.max.clone();
        }
        let s = self.sorted_sample();
        let m = s.len() as u64;
        let idx = ((r as u128 * m as u128 / self.n as u128) as u64).clamp(1, m) - 1;
        s.get(idx as usize).cloned()
    }

    fn name(&self) -> &'static str {
        "reservoir"
    }
}

impl<T: Ord + Clone> RankEstimator<T> for ReservoirSummary<T> {
    fn estimate_rank(&self, q: &T) -> u64 {
        if self.reservoir.is_empty() {
            return 0;
        }
        let le = self.reservoir.iter().filter(|x| *x <= q).count() as u128;
        (le * self.n as u128 / self.reservoir.len() as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (1..=n).collect();
        SplitMix64::new(seed).shuffle(&mut v);
        v
    }

    #[test]
    fn dkw_sizing() {
        let rs: ReservoirSummary<u64> = ReservoirSummary::with_seed(0.01, 0.01, 0);
        // ln(200)/(2·1e-4) ≈ 26 492.
        assert!((26_000..27_000).contains(&rs.capacity()));
    }

    #[test]
    fn reservoir_never_exceeds_capacity() {
        let mut rs = ReservoirSummary::with_capacity(100, 0.05, 1);
        for x in shuffled(10_000, 2) {
            rs.insert(x);
            assert!(rs.stored_count() <= 100);
        }
        assert_eq!(rs.stored_count(), 100);
    }

    #[test]
    fn quantiles_close_on_uniform_data() {
        let n = 100_000u64;
        let mut rs = ReservoirSummary::with_seed(0.02, 0.01, 3);
        for x in shuffled(n, 4) {
            rs.insert(x);
        }
        for phi in [0.1, 0.5, 0.9] {
            let ans = rs.quantile(phi).unwrap();
            let target = (phi * n as f64) as u64;
            assert!(
                ans.abs_diff(target) <= (0.02 * n as f64) as u64 * 2,
                "phi={phi}: ans {ans} target {target}"
            );
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut rs = ReservoirSummary::with_capacity(10, 0.1, 5);
        for x in shuffled(5_000, 6) {
            rs.insert(x);
        }
        assert_eq!(rs.query_rank(1), Some(1));
        assert_eq!(rs.query_rank(5_000), Some(5_000));
    }

    #[test]
    fn rank_estimates_scale_to_stream_length() {
        let n = 50_000u64;
        let mut rs = ReservoirSummary::with_seed(0.02, 0.01, 7);
        for x in shuffled(n, 8) {
            rs.insert(x);
        }
        let est = rs.estimate_rank(&25_000);
        assert!(est.abs_diff(25_000) <= 2_500, "est {est}");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut rs = ReservoirSummary::with_capacity(50, 0.05, 42);
            for x in shuffled(10_000, 9) {
                rs.insert(x);
            }
            rs.item_array()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_summary() {
        let rs: ReservoirSummary<u64> = ReservoirSummary::with_capacity(10, 0.1, 0);
        assert_eq!(rs.quantile(0.5), None);
        assert_eq!(rs.estimate_rank(&3), 0);
    }
}
