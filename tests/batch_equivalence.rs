//! Batched-insert equivalence: the bulk hot paths added for throughput
//! (`OsTree::extend_sorted`, the GK one-pass sorted-run merge, and the
//! adversary's batched leaves) must be *observationally identical* to
//! the per-item paths they replace — same order-statistic answers, same
//! tuples, same audit trail, byte for byte.

use cqs::prelude::*;
use cqs_core::adversary::Adversary;
use cqs_core::reference::ExactSummary;
use cqs_gk::{GkSummary, GreedyGk};
use cqs_ostree::OsTree;
use cqs_streams::{workload, Workload};

const SEED: u64 = 0xC0FFEE;

fn chunks_of(values: &[u64], chunk: usize) -> Vec<Vec<u64>> {
    values
        .chunks(chunk)
        .map(|c| {
            let mut run = c.to_vec();
            run.sort_unstable();
            run
        })
        .collect()
}

#[test]
fn ostree_extend_sorted_equivalent_to_per_item_insert() {
    for which in [
        Workload::Sorted,
        Workload::Shuffled,
        Workload::Sawtooth,
        Workload::Zipf,
    ] {
        let values = workload(which, 4_000, SEED).expect("workload");
        for chunk in [1usize, 7, 64, 1000] {
            let mut bulk = OsTree::with_seed(9);
            let mut single = OsTree::with_seed(9);
            for run in chunks_of(&values, chunk) {
                bulk.extend_sorted(run.iter().copied());
                for &x in &run {
                    single.insert(x);
                }
            }
            assert_eq!(bulk.len(), single.len(), "{which:?}/{chunk}");
            let a: Vec<u64> = bulk.iter().copied().collect();
            let b: Vec<u64> = single.iter().copied().collect();
            assert_eq!(a, b, "{which:?}/{chunk}: in-order traversal diverged");
            let probes = [0u64, 1, 5, 100, 2_000, 3_999, 4_000, u64::MAX];
            for q in probes {
                assert_eq!(bulk.rank(&q), single.rank(&q), "{which:?}/{chunk} rank {q}");
                assert_eq!(bulk.count_le(&q), single.count_le(&q));
                assert_eq!(bulk.successor(&q), single.successor(&q));
                assert_eq!(bulk.predecessor(&q), single.predecessor(&q));
            }
            for r in (1..=bulk.len()).step_by(97) {
                assert_eq!(
                    bulk.select(r),
                    single.select(r),
                    "{which:?}/{chunk} select {r}"
                );
            }
        }
    }
}

/// Drives one summary pair through the same stream, one via
/// `insert_sorted_run` over sorted chunks and one per item, asserting
/// tuple-for-tuple identical state and identical space peaks.
fn assert_gk_batch_equivalent<S, F>(label: &str, make: F)
where
    S: ComparisonSummary<u64>,
    F: Fn() -> S,
{
    for which in [
        Workload::Sorted,
        Workload::Shuffled,
        Workload::Sawtooth,
        Workload::Zipf,
    ] {
        let values = workload(which, 6_000, SEED).expect("workload");
        for chunk in [3usize, 50, 512] {
            let mut batched = make();
            let mut sequential = make();
            for run in chunks_of(&values, chunk) {
                let peak_batched = batched.insert_sorted_run(&run);
                let mut peak_seq = 0usize;
                for &x in &run {
                    sequential.insert(x);
                    peak_seq = peak_seq.max(sequential.stored_count());
                }
                assert_eq!(
                    peak_batched, peak_seq,
                    "{label}/{which:?}/{chunk}: intra-run |I| peak diverged"
                );
            }
            assert_eq!(batched.items_processed(), sequential.items_processed());
            assert_eq!(
                batched.stored_count(),
                sequential.stored_count(),
                "{label}/{which:?}/{chunk}: final |I| diverged"
            );
            assert_eq!(
                batched.item_array(),
                sequential.item_array(),
                "{label}/{which:?}/{chunk}: item arrays diverged"
            );
        }
    }
}

#[test]
fn gk_banded_batch_insert_matches_sequential_tuples() {
    assert_gk_batch_equivalent("gk", || GkSummary::<u64>::new(0.01));
    // Tuple-level identity, not just item-level: (v, g, Δ) all match.
    let values = workload(Workload::Shuffled, 5_000, SEED).expect("workload");
    let mut batched = GkSummary::<u64>::new(0.02);
    let mut sequential = GkSummary::<u64>::new(0.02);
    for run in chunks_of(&values, 37) {
        batched.insert_sorted_run(&run);
        for &x in &run {
            sequential.insert(x);
        }
    }
    let (a, b) = (batched.tuples(), sequential.tuples());
    assert_eq!(a.len(), b.len());
    for (i, (ta, tb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(ta.v, tb.v, "tuple {i} value");
        assert_eq!(ta.g, tb.g, "tuple {i} g");
        assert_eq!(ta.delta, tb.delta, "tuple {i} delta");
    }
}

#[test]
fn gk_greedy_batch_insert_matches_sequential_tuples() {
    assert_gk_batch_equivalent("gk-greedy", || GreedyGk::<u64>::new(0.01));
    let values = workload(Workload::Sawtooth, 5_000, SEED).expect("workload");
    let mut batched = GreedyGk::<u64>::new(0.02);
    let mut sequential = GreedyGk::<u64>::new(0.02);
    for run in chunks_of(&values, 41) {
        batched.insert_sorted_run(&run);
        for &x in &run {
            sequential.insert(x);
        }
    }
    let (a, b) = (batched.tuples(), sequential.tuples());
    assert_eq!(a.len(), b.len());
    for (i, (ta, tb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(ta.v, tb.v, "tuple {i} value");
        assert_eq!(ta.g, tb.g, "tuple {i} g");
        assert_eq!(ta.delta, tb.delta, "tuple {i} delta");
    }
}

#[test]
fn gk_batch_insert_handles_duplicate_values() {
    // Equal-item groups are the subtle case: sequential inserts place
    // each new equal item *before* the previous ones.
    let mut values = Vec::new();
    for i in 0..2_000u64 {
        values.push(i % 200 + 1);
    }
    let mut batched = GkSummary::<u64>::new(0.05);
    let mut sequential = GkSummary::<u64>::new(0.05);
    for run in chunks_of(&values, 23) {
        batched.insert_sorted_run(&run);
        for &x in &run {
            sequential.insert(x);
        }
    }
    let (a, b) = (batched.tuples(), sequential.tuples());
    assert_eq!(a.len(), b.len());
    for (i, (ta, tb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            (&ta.v, ta.g, ta.delta),
            (&tb.v, tb.g, tb.delta),
            "tuple {i} diverged on duplicate-heavy stream"
        );
    }
}

/// The adversary's batched leaves must leave *no trace* in the audits:
/// every recursion-tree node's record — gaps, S_k, Claim 1, Lemma 5.2,
/// the space-gap RHS — is byte-identical to the per-item run of the
/// panic-free driver (`try_run` feeds one item at a time), as is the
/// flat report.
fn assert_adversary_modes_agree<S, F>(label: &str, eps_inv: u64, k: u32, make: F)
where
    S: ComparisonSummary<Item>,
    F: Fn() -> S,
{
    let eps = Eps::from_inverse(eps_inv);
    let batched = Adversary::new(eps, make(), make()).run(k);
    let per_item = Adversary::new(eps, make(), make())
        .try_run(k)
        .unwrap_or_else(|e| panic!("{label}: per-item run aborted: {e}"));
    assert_eq!(
        format!("{:?}", batched.audits),
        format!("{:?}", per_item.audits),
        "{label}: audit trails diverged between batched and per-item runs"
    );
    let (rb, rp) = (batched.report(), per_item.report());
    assert_eq!(
        format!("{rb:?}"),
        format!("{rp:?}"),
        "{label}: reports diverged"
    );
    assert!(rb.equivalence_ok, "{label}: batched run broke equivalence");
}

#[test]
fn adversary_audits_identical_across_insert_modes() {
    assert_adversary_modes_agree("exact", 16, 4, ExactSummary::<Item>::new);
    assert_adversary_modes_agree("gk", 16, 4, || GkSummary::<Item>::new(1.0 / 16.0));
    assert_adversary_modes_agree("gk", 8, 5, || GkSummary::<Item>::new(1.0 / 8.0));
    assert_adversary_modes_agree("gk-greedy", 16, 4, || GreedyGk::<Item>::new(1.0 / 16.0));
}
