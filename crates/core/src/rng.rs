//! A tiny in-tree deterministic PRNG (SplitMix64).
//!
//! The determinism requirement of the lower bound (the adversary's
//! indistinguishability argument of Lemma 3.4 needs summary behaviour to
//! be a pure function of comparison outcomes) rules out ambient
//! randomness such as `thread_rng` or OS entropy — and the repo's
//! conformance lint (`cqs-xtask`) rejects them statically. Randomized
//! summaries (KLL, reservoir sampling) are still in scope via the
//! derandomization reduction of Section 6.3: a *fixed-seed* generator is
//! just hard-coded random bits, i.e. a deterministic summary.
//!
//! [`SplitMix64`] is that generator: Steele, Lea & Flood's 64-bit
//! finalizer-based stream (the same one `rand` uses to seed its
//! generators), small enough to carry in-tree so the workspace builds
//! with zero external dependencies and no registry access.
//!
//! [`check_cases`] is the property-test loop built on it: fixed seeds,
//! one generator per case, the failing case's seed in the panic.
//!
//! ```
//! use cqs_core::rng::SplitMix64;
//!
//! let mut a = SplitMix64::new(42);
//! let mut b = SplitMix64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! ```

/// A deterministic, seedable SplitMix64 generator.
///
/// Passes BigCrush in its original publication; more than adequate for
/// compactor coin flips, reservoir slots, and workload shuffles. Not
/// cryptographic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Equal seeds yield equal
    /// output streams on every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & (1 << 63) != 0
    }

    /// A uniform integer in `0..n` (Lemire's unbiased multiply-shift
    /// rejection method).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo < n {
                // 2^64 mod n: the size of the biased low fringe.
                let t = n.wrapping_neg() % n;
                if lo < t {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// A uniform index in `0..len` for slice access.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Runs a property `cases` times, each case on its own [`SplitMix64`]
/// seeded from a stream keyed by `base_seed` — the workspace's offline,
/// dependency-free property-test loop (no shrinking).
///
/// The case body draws its inputs from the generator it is handed and
/// asserts with the ordinary `assert!` macros. When a case panics, the
/// loop panics in turn with the case index and that case's seed, so the
/// failure replays by running the body on `SplitMix64::new(seed)`.
///
/// ```
/// use cqs_core::rng::check_cases;
///
/// check_cases(7, 16, |rng| {
///     let x = rng.below(100);
///     assert!(x < 100);
/// });
/// ```
///
/// # Panics
///
/// Panics if any case panics.
pub fn check_cases(base_seed: u64, cases: u32, mut case: impl FnMut(&mut SplitMix64)) {
    let mut seeds = SplitMix64::new(base_seed);
    for index in 0..cases {
        let seed = seeds.next_u64();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(&mut SplitMix64::new(seed))
        }));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            panic!("property case {index} of {cases} failed (case seed {seed:#018x}): {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567, from the published SplitMix64
        // reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residue never drawn");
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 1/2");
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut r = SplitMix64::new(11);
        let heads = (0..10_000).filter(|_| r.gen_bool()).count();
        assert!((4_500..5_500).contains(&heads), "heads {heads}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn check_cases_runs_every_case_on_distinct_seeds() {
        let mut firsts = Vec::new();
        check_cases(1, 64, |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts.len(), 64);
        let mut again = Vec::new();
        check_cases(1, 64, |rng| again.push(rng.next_u64()));
        assert_eq!(firsts, again, "same base seed, same cases");
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 64);
    }

    #[test]
    fn check_cases_reports_the_failing_case_and_its_seed() {
        let mut seen = Vec::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_cases(9, 10, |rng| {
                let x = rng.next_u64();
                seen.push(x);
                assert!(seen.len() < 4, "boom {x}");
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        let mut seeds = SplitMix64::new(9);
        let seed = (0..4).map(|_| seeds.next_u64()).last().unwrap();
        assert!(msg.starts_with(&format!(
            "property case 3 of 10 failed (case seed {seed:#018x})"
        )));
        // The reported seed replays the failing case's inputs.
        let replayed = SplitMix64::new(seed).next_u64();
        assert!(msg.ends_with(&format!("boom {replayed}")), "{msg}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }
}
