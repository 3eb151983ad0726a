//! Property-based tests over the whole construction: for *random*
//! adversary parameters and random summary behaviours, the paper's
//! inequalities must hold without exception.

#![cfg(test)]

use crate::adversary::run_adversary;
use crate::eps::Eps;
use crate::failure::quantile_failure_witness;
use crate::reference::{DecimatedSummary, ExactSummary};
use crate::rng::{check_cases, SplitMix64};
use crate::spacegap::claim1_holds;
use cqs_universe::{between_items, generate_increasing, Interval, Item};
use std::collections::BTreeSet;

const CASES: u32 = 24;

/// A uniform draw from `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// The construction's audited inequalities hold for any budgeted
/// comparison-based summary at any (small) parameterisation.
#[test]
fn adversary_invariants_hold_for_random_parameters() {
    check_cases(0x11, CASES, |rng| {
        let inv = draw(rng, 4, 24);
        let k = draw(rng, 1, 6) as u32;
        let budget = draw(rng, 3, 40) as usize;
        let eps = Eps::from_inverse(inv);
        let out = run_adversary(eps, k, || DecimatedSummary::<Item>::new(budget));
        assert!(
            out.equivalence_error.is_none(),
            "{:?}",
            out.equivalence_error
        );
        assert_eq!(out.pi.len(), eps.stream_len(k));
        assert_eq!(out.audits.len(), (1usize << k) - 1);
        for a in &out.audits {
            assert!(a.claim1_ok, "Claim 1 failed at level {}", a.level);
            assert!(a.lemma52_ok, "Lemma 5.2 failed at level {}", a.level);
            assert!(a.g >= 1);
            if let (Some(gp), Some(gd)) = (a.g_prime, a.g_dprime) {
                assert!(claim1_holds(a.g, gp, gd));
            }
        }
    });
}

/// The dilemma is total: every run either keeps the gap within 2εN
/// or yields a demonstrated failure witness.
#[test]
fn dilemma_is_total() {
    check_cases(0x12, CASES, |rng| {
        let inv = draw(rng, 4, 16);
        let k = draw(rng, 2, 6) as u32;
        let budget = draw(rng, 3, 30) as usize;
        let eps = Eps::from_inverse(inv);
        let out = run_adversary(eps, k, || DecimatedSummary::<Item>::new(budget));
        match quantile_failure_witness(&out) {
            Some(w) => assert!(
                w.demonstrates_failure(),
                "witness exists but demonstrates nothing: {w:?}"
            ),
            None => assert!(out.gap_within_correctness_ceiling()),
        }
    });
}

/// Gap monotonicity under storage: storing *more* (a bigger budget)
/// never increases the final gap.
#[test]
fn bigger_budget_never_bigger_gap() {
    check_cases(0x13, CASES, |rng| {
        let inv = draw(rng, 4, 12);
        let k = draw(rng, 2, 5) as u32;
        let b = draw(rng, 4, 20) as usize;
        let eps = Eps::from_inverse(inv);
        let small = run_adversary(eps, k, || DecimatedSummary::<Item>::new(b)).final_gap();
        let large = run_adversary(eps, k, || DecimatedSummary::<Item>::new(4 * b)).final_gap();
        assert!(
            large <= small,
            "budget {b}->{}: gap {small} -> {large}",
            4 * b
        );
    });
}

/// Universe continuity under arbitrary nesting: a chain of random
/// interval refinements always admits fresh in-between items.
#[test]
fn universe_supports_random_refinement_chains() {
    check_cases(0x14, CASES, |rng| {
        let mut iv = Interval::whole();
        for _ in 0..draw(rng, 1, 40) {
            let pts = generate_increasing(&iv, 3);
            let (lo, hi) = match rng.below(4) {
                0 => (pts[0].clone(), pts[1].clone()),
                1 => (pts[1].clone(), pts[2].clone()),
                2 => (pts[0].clone(), pts[2].clone()),
                _ => (pts[0].clone(), between_items(&pts[0], &pts[1])),
            };
            assert!(lo < hi);
            iv = Interval::open(lo, hi);
        }
        // Still continuous at the end of the chain.
        let last = generate_increasing(&iv, 2);
        assert!(iv.contains(&last[0]) && iv.contains(&last[1]));
    });
}

/// ExactSummary under the adversary: gap exactly 1 and every audit
/// node sees S_k = N_k + 2 (all items plus the two boundaries).
#[test]
fn exact_summary_audits_are_tight() {
    check_cases(0x15, CASES, |rng| {
        let inv = draw(rng, 2, 10);
        let k = draw(rng, 1, 5) as u32;
        let eps = Eps::from_inverse(inv);
        let out = run_adversary(eps, k, ExactSummary::<Item>::new);
        assert_eq!(out.final_gap(), 1);
        for a in &out.audits {
            // All N_k items of the node's subtree fall inside the node's
            // intervals and are stored.
            assert_eq!(a.stored_inside as u64, a.n_k, "level {}", a.level);
        }
    });
}

/// The rank_in/restricted-array machinery agrees with a brute-force
/// recomputation on random decimation patterns.
#[test]
fn restricted_ranks_match_bruteforce() {
    check_cases(0x16, CASES, |rng| {
        // A set of 2..20 distinct positions in 0..40 whose extremes are
        // not adjacent (redrawn until they are not).
        let (lo_idx, hi_idx) = loop {
            let size = draw(rng, 2, 20) as usize;
            let mut keep = BTreeSet::new();
            while keep.len() < size {
                keep.insert(rng.index(40));
            }
            let (lo, hi) = (*keep.first().unwrap(), *keep.last().unwrap());
            if hi > lo + 1 {
                break (lo, hi);
            }
        };
        let items = generate_increasing(&Interval::whole(), 40);
        let mut st = crate::state::StreamState::new(ExactSummary::<Item>::new());
        for it in &items {
            st.push(it.clone());
        }
        let iv = Interval::open(items[lo_idx].clone(), items[hi_idx].clone());
        for (pos, it) in items.iter().enumerate().take(hi_idx + 1).skip(lo_idx) {
            let r = st.rank_in(&iv, &cqs_universe::Endpoint::Finite(it.clone()));
            // Brute force: position within [lo..=pos] window.
            assert_eq!(r as usize, pos - lo_idx + 1);
        }
        assert_eq!(st.count_inside(&iv) as usize, hi_idx - lo_idx - 1);
    });
}

mod regression {
    use super::*;

    /// k = 1 degenerate tree: a single leaf, no refinement.
    #[test]
    fn single_leaf_tree() {
        let eps = Eps::from_inverse(4);
        let out = run_adversary(eps, 1, ExactSummary::<Item>::new);
        assert_eq!(out.audits.len(), 1);
        assert_eq!(out.pi.len(), 8);
    }

    /// Budget exactly at the extremes-only floor.
    #[test]
    fn minimal_budget_summary_survives() {
        let eps = Eps::from_inverse(4);
        let out = run_adversary(eps, 4, || DecimatedSummary::<Item>::new(2));
        assert!(out.equivalence_error.is_none());
        assert!(out.final_gap() > 1);
    }

    /// A summary that stores nothing inside refined intervals still has
    /// well-defined (boundary-only) restricted arrays everywhere.
    #[test]
    fn boundary_only_restricted_arrays() {
        let eps = Eps::from_inverse(4);
        let out = run_adversary(eps, 5, || DecimatedSummary::<Item>::new(2));
        for a in &out.audits {
            assert!(a.s_k >= 2, "restricted array lost its boundaries");
        }
    }
}
