#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # cqs-qdigest — the q-digest summary over a bounded integer universe
//!
//! The q-digest of Shrivastava, Buragohain, Agrawal & Suri (SenSys 2004)
//! summarises a stream from a *known, bounded* universe [0, 2^L) by
//! maintaining counts on a pruned dyadic tree, in O((1/ε)·log |U|)
//! space.
//!
//! Role in the reproduction: the lower-bound paper explicitly exempts
//! q-digest from its Ω((1/ε)·log εN) bound — it is **not**
//! comparison-based (Definition 2.1 fails twice: it inspects item values
//! to build the dyadic tree, and it can answer queries with items that
//! never occurred in the stream). This crate exists as that contrast:
//! the T9 comparison experiment shows its space is flat in N where all
//! comparison-based summaries grow, and the type system shows the
//! adversary cannot even be mounted on it (it consumes `u64`, not the
//! opaque `Item`).
//!
//! # Example
//!
//! ```
//! use cqs_qdigest::QDigest;
//!
//! let mut qd = QDigest::new(16, 0.01); // universe [0, 2^16)
//! for x in 0..50_000u64 {
//!     qd.insert(x % 65_536);
//! }
//! let med = qd.quantile(0.5);
//! assert!((24_000..=26_500).contains(&med));
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// Typed refusal of a q-digest merge: the two digests were built over
/// different parameter spaces, so their dyadic trees are not
/// comparable and adding node counts would silently corrupt both the
/// ranges and the error guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeMismatch {
    /// The universes differ: node ids index different dyadic trees.
    Universe {
        /// Receiver's log₂ universe size.
        left: u32,
        /// Argument's log₂ universe size.
        right: u32,
    },
    /// The compression factors differ: the merged digest's ⌊n/k⌋
    /// pruning threshold — and with it the ε·n error bound — would be
    /// silently governed by whichever k the receiver happened to have.
    Compression {
        /// Receiver's compression factor.
        left: u64,
        /// Argument's compression factor.
        right: u64,
    },
}

impl fmt::Display for MergeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeMismatch::Universe { left, right } => write!(
                f,
                "q-digest merge requires identical universes (2^{left} vs 2^{right})"
            ),
            MergeMismatch::Compression { left, right } => write!(
                f,
                "q-digest merge requires identical compression factors ({left} vs {right})"
            ),
        }
    }
}

impl std::error::Error for MergeMismatch {}

/// A q-digest over the universe [0, 2^log_universe).
#[derive(Clone, Debug)]
pub struct QDigest {
    /// Dyadic-node counts; node ids follow the heap convention
    /// (root = 1, children 2v and 2v+1, leaves at depth L).
    counts: BTreeMap<u64, u64>,
    log_universe: u32,
    /// Compression factor k: nodes are merged while
    /// `count(v) + count(sibling) + count(parent) < ⌊n/k⌋`.
    k: u64,
    n: u64,
}

impl QDigest {
    /// Creates a digest for universe [0, 2^log_universe) with rank error
    /// at most ε·n (k is set to ⌈log₂|U|/ε⌉ per the q-digest analysis).
    ///
    /// # Panics
    ///
    /// Panics if `log_universe` is outside [1, 40] or ε out of (0, 0.5).
    pub fn new(log_universe: u32, eps: f64) -> Self {
        assert!(
            (1..=40).contains(&log_universe),
            "log_universe out of range"
        );
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        let k = ((log_universe as f64) / eps).ceil() as u64;
        QDigest {
            counts: BTreeMap::new(),
            log_universe,
            k: k.max(1),
            n: 0,
        }
    }

    /// The universe size 2^L.
    pub fn universe(&self) -> u64 {
        1u64 << self.log_universe
    }

    /// Number of tree nodes currently stored — the digest's space.
    pub fn node_count(&self) -> usize {
        self.counts.len()
    }

    /// Items processed.
    pub fn items_processed(&self) -> u64 {
        self.n
    }

    /// The compression factor k.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Inserts a value.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the universe.
    pub fn insert(&mut self, x: u64) {
        assert!(x < self.universe(), "value outside universe");
        let leaf = (1u64 << self.log_universe) | x;
        *self.counts.entry(leaf).or_insert(0) += 1;
        self.n += 1;
        // Compress when the tree outgrows its target size of ~3k nodes.
        if self.counts.len() as u64 > 3 * self.k {
            self.compress();
        }
    }

    /// Merges another digest into this one (distributed aggregation over
    /// the same universe): node counts add, then a compress restores the
    /// size bound. Error bounds add in the worst case.
    ///
    /// Mismatched universes or compression factors come back as a typed
    /// [`MergeMismatch`] with `self` unchanged — a digest over a
    /// different dyadic tree, or pruned against a different ⌊n/k⌋
    /// threshold, must never be silently absorbed.
    pub fn merge(&mut self, other: &QDigest) -> Result<(), MergeMismatch> {
        if self.log_universe != other.log_universe {
            return Err(MergeMismatch::Universe {
                left: self.log_universe,
                right: other.log_universe,
            });
        }
        if self.k != other.k {
            return Err(MergeMismatch::Compression {
                left: self.k,
                right: other.k,
            });
        }
        for (&id, &c) in &other.counts {
            *self.counts.entry(id).or_insert(0) += c;
        }
        self.n += other.n;
        self.compress();
        Ok(())
    }

    /// The q-digest COMPRESS: bottom-up, merge under-full sibling pairs
    /// into their parent while the triple stays below ⌊n/k⌋.
    pub fn compress(&mut self) {
        let thr = (self.n / self.k).max(1);
        // Process nodes deepest-first so freed counts can cascade up.
        let mut ids: Vec<u64> = self.counts.keys().copied().filter(|&v| v > 1).collect();
        ids.sort_unstable_by_key(|&v| std::cmp::Reverse(v.ilog2()));
        for id in ids {
            let Some(&c) = self.counts.get(&id) else {
                continue;
            };
            let sibling = id ^ 1;
            let parent = id >> 1;
            let cs = self.counts.get(&sibling).copied().unwrap_or(0);
            let cp = self.counts.get(&parent).copied().unwrap_or(0);
            if c + cs + cp < thr {
                self.counts.remove(&id);
                self.counts.remove(&sibling);
                *self.counts.entry(parent).or_insert(0) += c + cs;
            }
        }
    }

    /// Depth of a node (root = 0, leaves = L).
    fn depth(&self, id: u64) -> u32 {
        id.ilog2()
    }

    /// Inclusive value range [lo, hi] covered by a node.
    fn range(&self, id: u64) -> (u64, u64) {
        let d = self.depth(id);
        let width = 1u64 << (self.log_universe - d);
        let index = id - (1u64 << d);
        let lo = index * width;
        (lo, lo + width - 1)
    }

    /// Nodes sorted q-digest-style: by range upper bound, ties by
    /// smaller range first.
    fn sorted_nodes(&self) -> Vec<(u64, u64, u64)> {
        // (hi, width, count)
        let mut v: Vec<(u64, u64, u64)> = self
            .counts
            .iter()
            .map(|(&id, &c)| {
                let (lo, hi) = self.range(id);
                (hi, hi - lo + 1, c)
            })
            .collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        v
    }

    /// Answers a quantile query: the smallest value `y` such that the
    /// accumulated count of nodes with upper bound ≤ y reaches ⌊ϕn⌋.
    /// Note the answer is a universe value that need not have occurred
    /// in the stream — one of the two reasons q-digest is not
    /// comparison-based.
    pub fn quantile(&self, phi: f64) -> u64 {
        let target = ((phi * self.n as f64).floor() as u64).clamp(1, self.n.max(1));
        let mut cum = 0u64;
        for (hi, _, c) in self.sorted_nodes() {
            cum += c;
            if cum >= target {
                return hi;
            }
        }
        self.universe() - 1
    }

    /// Estimated number of stream items ≤ q (counts every node whose
    /// range lies entirely at or below q).
    pub fn estimate_rank(&self, q: u64) -> u64 {
        self.counts
            .iter()
            .map(|(&id, &c)| {
                let (_, hi) = self.range(id);
                if hi <= q {
                    c
                } else {
                    0
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::check_cases;

    const CASES: u32 = 32;

    #[test]
    fn mass_conserved_and_space_bounded() {
        check_cases(0x51, CASES, |rng| {
            let xs: Vec<u64> = (0..1 + rng.index(2999)).map(|_| rng.below(4096)).collect();
            let mut qd = QDigest::new(12, 0.05);
            for &x in &xs {
                qd.insert(x);
            }
            qd.compress();
            // estimate_rank of the universe max counts everything.
            assert_eq!(qd.estimate_rank(4095), xs.len() as u64);
            assert!(qd.node_count() as u64 <= 3 * qd.k() + 2);
        });
    }

    #[test]
    fn rank_estimates_never_overcount() {
        check_cases(0x52, CASES, |rng| {
            let xs: Vec<u64> = (0..1 + rng.index(999)).map(|_| rng.below(1024)).collect();
            let mut qd = QDigest::new(10, 0.05);
            let mut sorted = xs.clone();
            for &x in &xs {
                qd.insert(x);
            }
            sorted.sort_unstable();
            for q in [0u64, 100, 500, 1023] {
                let est = qd.estimate_rank(q);
                let truth = sorted.partition_point(|&x| x <= q) as u64;
                assert!(est <= truth, "rank({q}): est {est} > true {truth}");
            }
        });
    }

    #[test]
    fn quantile_monotone_in_phi() {
        check_cases(0x53, CASES, |rng| {
            let xs: Vec<u64> = (0..50 + rng.index(1950)).map(|_| rng.below(4096)).collect();
            let mut qd = QDigest::new(12, 0.05);
            for &x in &xs {
                qd.insert(x);
            }
            let mut prev = 0u64;
            for i in 1..=10 {
                let q = qd.quantile(i as f64 / 10.0);
                assert!(
                    q >= prev,
                    "quantile not monotone at phi={}",
                    i as f64 / 10.0
                );
                prev = q;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled(n: u64, modulo: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(|i| (i * 48271 + seed) % modulo).collect();
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
    fn count_mass_is_conserved() {
        let mut qd = QDigest::new(16, 0.02);
        for x in shuffled(20_000, 65_536, 1) {
            qd.insert(x);
        }
        let total: u64 = qd.counts.values().sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn space_is_bounded_by_o_k() {
        let mut qd = QDigest::new(16, 0.02);
        let mut peak = 0usize;
        for x in shuffled(200_000, 65_536, 2) {
            qd.insert(x);
            peak = peak.max(qd.node_count());
        }
        assert!(
            (peak as u64) <= 3 * qd.k() + 2,
            "peak {peak} exceeds 3k = {}",
            3 * qd.k()
        );
    }

    #[test]
    fn space_is_flat_in_stream_length() {
        // The non-comparison-based escape hatch: space depends on |U|
        // and ε only.
        let measure = |n: u64| {
            let mut qd = QDigest::new(12, 0.05);
            for x in shuffled(n, 4096, 3) {
                qd.insert(x);
            }
            qd.compress();
            qd.node_count()
        };
        let s_small = measure(10_000);
        let s_big = measure(320_000);
        assert!(
            s_big <= s_small * 2 + 16,
            "space grew with N: {s_small} -> {s_big}"
        );
    }

    #[test]
    fn quantiles_within_eps_on_uniform_values() {
        let n = 65_536u64;
        let eps = 0.02;
        let mut qd = QDigest::new(16, eps);
        // Values 0..65536 once each: value ≈ rank − 1.
        for x in shuffled(n, 65_536, 4) {
            qd.insert(x);
        }
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let ans = qd.quantile(phi);
            let target = (phi * n as f64) as u64;
            let err = ans.abs_diff(target);
            assert!(
                err <= (2.0 * eps * n as f64) as u64,
                "phi={phi}: ans {ans}, target {target}, err {err}"
            );
        }
    }

    #[test]
    fn rank_estimates_are_underestimates_within_budget() {
        let n = 65_536u64;
        let eps = 0.02;
        let mut qd = QDigest::new(16, eps);
        for x in shuffled(n, 65_536, 5) {
            qd.insert(x);
        }
        for q in (0..65_536u64).step_by(8_192) {
            let est = qd.estimate_rank(q);
            let truth = q + 1;
            assert!(est <= truth, "rank({q}) overestimated: {est} > {truth}");
            assert!(
                truth - est <= (2.0 * eps * n as f64) as u64,
                "rank({q}) underestimated too much: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn duplicates_concentrate_mass() {
        let mut qd = QDigest::new(10, 0.05);
        for _ in 0..10_000 {
            qd.insert(512);
        }
        assert!(qd.node_count() <= 12);
        let med = qd.quantile(0.5);
        // All mass near 512; the answer's node range must cover it.
        assert!((512..1024).contains(&med));
    }

    #[test]
    #[should_panic(expected = "value outside universe")]
    fn out_of_universe_rejected() {
        let mut qd = QDigest::new(8, 0.1);
        qd.insert(256);
    }
}
