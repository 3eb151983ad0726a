//! Differential harness: a [`FaultySummary`] carrying the *empty* fault
//! plan must be observationally identical to the bare summary it wraps
//! — same audit trail, same report, same stored item arrays, same
//! stream bookkeeping — across GK, greedy GK and MRL at ε = 1/16, 1/32
//! and 1/64. This is what makes the fault matrix trustworthy: any
//! verdict difference under a non-empty plan is caused by the injected
//! fault, not by the wrapper.

use cqs::prelude::*;
use cqs_core::Adversary;

const K: u32 = 4;

fn assert_transparent<S, F>(name: &str, inv: u64, make: F)
where
    S: ComparisonSummary<Item> + Clone,
    F: Fn() -> S,
{
    let eps = Eps::from_inverse(inv);

    let bare = Adversary::new(eps, make(), make()).run(K);
    let wrapped = Adversary::new(
        eps,
        FaultySummary::new(make(), FaultPlan::none()),
        FaultySummary::new(make(), FaultPlan::none()),
    )
    .try_run(K)
    .unwrap_or_else(|e| panic!("{name} 1/{inv}: zero-fault run errored: {e}"));

    assert_eq!(wrapped.verdict(), RunVerdict::Completed, "{name} 1/{inv}");

    // Audit trails (per-node gaps, Claim 1 / Lemma 5.2 flags) agree.
    assert_eq!(bare.audits, wrapped.audits, "{name} 1/{inv}: audits");

    // Flat reports agree (the wrapper forwards `name`, so even the
    // summary_name field matches).
    assert_eq!(bare.report(), wrapped.report(), "{name} 1/{inv}: report");

    // Stream bookkeeping agrees.
    assert_eq!(bare.pi.len(), wrapped.pi.len(), "{name} 1/{inv}: |π|");
    assert_eq!(bare.rho.len(), wrapped.rho.len(), "{name} 1/{inv}: |ϱ|");
    assert_eq!(
        bare.pi.max_label_depth(),
        wrapped.pi.max_label_depth(),
        "{name} 1/{inv}: label depth"
    );

    // The summaries hold bit-identical item arrays on both streams.
    assert_eq!(
        bare.pi.summary.item_array(),
        wrapped.pi.summary.item_array(),
        "{name} 1/{inv}: π item array"
    );
    assert_eq!(
        bare.rho.summary.item_array(),
        wrapped.rho.summary.item_array(),
        "{name} 1/{inv}: ϱ item array"
    );
    assert_eq!(
        bare.pi.summary.max_stored(),
        wrapped.pi.summary.max_stored(),
        "{name} 1/{inv}: max |I|"
    );

    // The wrapper saw every item and invented none.
    assert_eq!(wrapped.pi.summary.inner().steps_fed(), eps.stream_len(K));
    assert_eq!(wrapped.pi.summary.inner().dropped(), 0);
    assert!(!wrapped.pi.summary.inner().is_poisoned());
}

#[test]
fn faulty_wrapper_is_transparent_over_gk() {
    for inv in [16u64, 32, 64] {
        let eps = Eps::from_inverse(inv);
        assert_transparent("gk", inv, move || GkSummary::<Item>::new(eps.value()));
    }
}

#[test]
fn faulty_wrapper_is_transparent_over_greedy_gk() {
    for inv in [16u64, 32, 64] {
        let eps = Eps::from_inverse(inv);
        assert_transparent("gk-greedy", inv, move || GreedyGk::<Item>::new(eps.value()));
    }
}

#[test]
fn faulty_wrapper_is_transparent_over_mrl() {
    for inv in [16u64, 32, 64] {
        let eps = Eps::from_inverse(inv);
        let n = eps.stream_len(K);
        assert_transparent("mrl", inv, move || MrlSummary::<Item>::new(eps.value(), n));
    }
}
