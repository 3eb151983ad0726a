//! GK bands and the banded COMPRESS rule.
//!
//! Bands group tuples by the "age" of their uncertainty: with
//! `p = ⌊2εn⌋`, a tuple's Δ lies in band α ≥ 1 when
//!
//! ```text
//!   2^{α−1} + (p mod 2^{α−1}) ≤ p − Δ < 2^α + (p mod 2^α),
//! ```
//!
//! band 0 holds exactly Δ = p (tuples inserted "now"). Higher bands are
//! older tuples carrying more rank mass capacity; COMPRESS only merges a
//! tuple into a successor of equal or higher band, which is what caps
//! the tree height and yields the O((1/ε)·log εN) space bound.

use crate::summary::CompressRule;
use crate::tuple::GkTuple;

/// The band-based COMPRESS rule of the original GK analysis.
#[derive(Clone, Debug, Default)]
pub struct Banded {
    /// Band per tuple, kept across passes so the periodic compress does
    /// not allocate on the adversary's hot path.
    bands: Vec<u32>,
}

impl CompressRule for Banded {
    const NAME: &'static str = "gk";

    /// Walk right-to-left; a tuple whose band does not exceed its
    /// successor's is folded — together with its band-subtree of
    /// preceding lower-band tuples — into the successor, provided the
    /// combined span stays below `cap`. A folded successor is skipped.
    fn absorb<T>(&mut self, tuples: &mut [GkTuple<T>], cap: u64) {
        let bands = &mut self.bands;
        bands.clear();
        bands.extend(tuples.iter().map(|t| band(t.delta.min(cap), cap)));
        let mut i = tuples.len() - 2;
        while i >= 1 {
            let succ = i + 1;
            let b = bands.get(i).copied().unwrap_or(0);
            if tuples.get(succ).is_some_and(|s| s.g != 0)
                && bands.get(succ).is_some_and(|&bs| b <= bs)
            {
                // Extent of i's band-subtree: consecutive predecessors
                // with strictly smaller bands (the "descendants").
                let mut start = i;
                let mut g_star = tuples.get(i).map_or(0, |t| t.g);
                while start > 1 && bands.get(start - 1).is_some_and(|&bp| bp < b) {
                    start -= 1;
                    g_star += tuples.get(start).map_or(0, |t| t.g);
                }
                if let Some(s) = tuples
                    .get_mut(succ)
                    .filter(|s| g_star + s.g + s.delta < cap)
                {
                    s.g += g_star;
                    if let Some(subtree) = tuples.get_mut(start..=i) {
                        for t in subtree {
                            t.g = 0;
                        }
                    }
                    i = start - 1;
                    continue;
                }
            }
            i -= 1;
        }
    }
}

/// The band of an uncertainty value `delta` at threshold `p = ⌊2εn⌋`.
///
/// Closed form: writing `diff = p − Δ ≥ 1` and `lo_α = 2^{α−1} +
/// (p mod 2^{α−1})`, the band windows `[lo_α, lo_{α+1})` tile `[1, ∞)`
/// contiguously (the window's upper end `2^α + (p mod 2^α)` IS the next
/// window's `lo`), so the band is the largest α with `lo_α ≤ diff`.
/// Since `lo_α ∈ [2^{α−1}, 2^α)`, that α is `⌊log₂ diff⌋ + 1` or one
/// less — a `leading_zeros` and one comparison, where the defining scan
/// pays one iteration per candidate band. COMPRESS evaluates this per
/// stored tuple per call, which made the scan the single hottest piece
/// of the GK insert path under the adversary.
///
/// # Panics
///
/// Debug-panics if `delta > p` (no legal tuple exceeds the threshold).
pub fn band(delta: u64, p: u64) -> u32 {
    debug_assert!(delta <= p, "delta {delta} exceeds threshold {p}");
    if delta == p {
        return 0;
    }
    let diff = p - delta; // ≥ 1
    let alpha = 64 - diff.leading_zeros(); // ⌊log₂ diff⌋ + 1, in [1, 64]
    let half = 1u64 << (alpha - 1);
    if half + (p & (half - 1)) <= diff {
        alpha
    } else {
        alpha - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defining window scan from the paper, kept as the oracle for
    /// the closed form.
    fn band_by_scan(delta: u64, p: u64) -> u32 {
        if delta == p {
            return 0;
        }
        let diff = p - delta;
        let mut alpha = 1u32;
        while alpha < 64 {
            let half = 1u64 << (alpha - 1);
            let full = 1u64 << alpha;
            let lo = half + (p & (half - 1));
            let hi = full + (p & (full - 1));
            if diff >= lo && diff < hi {
                return alpha;
            }
            alpha += 1;
        }
        64
    }

    #[test]
    fn closed_form_matches_window_scan() {
        for p in [1u64, 2, 3, 7, 8, 9, 100, 255, 256, 1023, 1024, 65535] {
            for delta in 0..=p.min(5000) {
                assert_eq!(
                    band(delta, p),
                    band_by_scan(delta, p),
                    "mismatch at delta={delta}, p={p}"
                );
            }
            // High-Δ corner (thresholds above the exhaustive sweep).
            for delta in p.saturating_sub(300)..=p {
                assert_eq!(band(delta, p), band_by_scan(delta, p));
            }
        }
    }

    #[test]
    fn band_zero_is_exactly_p() {
        assert_eq!(band(10, 10), 0);
        assert_eq!(band(0, 0), 0);
    }

    #[test]
    fn every_delta_gets_a_small_band() {
        // Totality: every Δ in [0, p] falls in some band, and the number
        // of distinct bands is logarithmic in p.
        for p in [1u64, 2, 7, 8, 100, 1023, 1024] {
            let mut distinct = std::collections::BTreeSet::new();
            for delta in 0..=p {
                let b = band(delta, p);
                assert!(b < 64, "band overflowed at p={p}, delta={delta}");
                if delta == p {
                    assert_eq!(b, 0);
                } else {
                    assert!(b >= 1);
                }
                distinct.insert(b);
            }
            let log_bound = (p as f64 + 2.0).log2().ceil() as usize + 2;
            assert!(
                distinct.len() <= log_bound,
                "p={p}: {} bands exceeds log bound {log_bound}",
                distinct.len()
            );
        }
    }

    #[test]
    fn band_monotone_nonincreasing_in_delta() {
        for p in [16u64, 100, 255] {
            let mut last = u32::MAX;
            for delta in 0..=p {
                let b = band(delta, p);
                assert!(
                    b <= last,
                    "p={p}, delta={delta}: band {b} > previous {last}"
                );
                last = b;
            }
        }
    }

    #[test]
    fn freshest_delta_zero_has_highest_band() {
        for p in [4u64, 100, 4096] {
            let b0 = band(0, p);
            for delta in 1..=p {
                assert!(band(delta, p) <= b0);
            }
            // Band of Δ=0 is ~⌈log₂ p⌉.
            let expect = (p as f64).log2().ceil() as u32;
            assert!(b0 >= expect, "p={p}: band(0)={b0} < log2(p)={expect}");
            assert!(b0 <= expect + 1);
        }
    }
}
