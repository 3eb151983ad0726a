//! Mergeable summaries: the composition contract behind sharding.
//!
//! The lower bound (Theorem 2.2) prices a *single* summary; a sharded
//! service runs S of them and periodically folds shards together. That
//! fold is only correct if merging composes the error bounds in a known
//! way — the Mergeable Summaries line of work (Agarwal et al., PODS
//! 2012) formalises the contract implemented here: merging an
//! ε₁-summary of n₁ items with an ε₂-summary of n₂ items yields a
//! summary of n₁+n₂ items with error at most (ε₁+ε₂)·(n₁+n₂) in the
//! worst case. Folding S equal shards left-to-right therefore lands at
//! S·ε₀; the service's merge worker always folds from scratch so the
//! composed ε stays bounded by the shard count instead of growing with
//! the number of merge cycles.
//!
//! [`MergeableSummary`] is deliberately fallible: GK-family summaries
//! must refuse a merge whose composed ε leaves (0, 0.5), MRL must refuse
//! incompatible buffer capacities, and q-digest (outside this trait —
//! it is not comparison-based) refuses mismatched universes. A typed
//! [`MergeError`] keeps those refusals out of the panic path the
//! hot-path lint polices.

use std::fmt;

use crate::model::ComparisonSummary;

/// Typed refusal of a summary merge.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeError {
    /// The two summaries were built with incompatible parameters (e.g.
    /// MRL buffer capacities, CKMS bias directions).
    IncompatibleParams {
        /// What disagreed, e.g. `"buffer capacity"`.
        what: &'static str,
        /// The receiver's value, rendered.
        left: String,
        /// The argument's value, rendered.
        right: String,
    },
    /// The composed error bound ε₁+ε₂ would leave the summary's valid
    /// range (0, 0.5) — the merged summary could no longer promise
    /// anything.
    EpsOverflow {
        /// The out-of-range composed ε.
        composed: f64,
    },
    /// The merged state failed the summary's own structural invariant —
    /// a bug guard: the re-validation the service runs after every fold.
    InvariantViolated {
        /// The invariant that failed, rendered.
        detail: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::IncompatibleParams { what, left, right } => {
                write!(f, "merge refused: {what} differs ({left} vs {right})")
            }
            MergeError::EpsOverflow { composed } => {
                write!(f, "merge refused: composed eps {composed} outside (0, 0.5)")
            }
            MergeError::InvariantViolated { detail } => {
                write!(f, "merge produced an invalid summary: {detail}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// The ε a merged deterministic summary adopts: ε₁ + ε₂ as is whenever
/// it is a valid ε (< 0.5), which is every merge a `try_merge` accepts
/// after its [`MergeError::EpsOverflow`] check; an unchecked merge past
/// that point is clamped to 0.499, keeping the summary constructible but
/// no longer promising the composed bound.
pub fn composed_eps(eps1: f64, eps2: f64) -> f64 {
    let composed = eps1 + eps2;
    if composed < 0.5 {
        composed
    } else {
        0.499
    }
}

/// A comparison-based summary that supports the mergeable-summaries
/// composition: `try_merge` folds another summary of the *same type and
/// compatible parameters* into `self`, after which `self` summarises the
/// concatenation of both streams with error at most
/// [`eps_bound`](Self::eps_bound) times the combined length.
pub trait MergeableSummary<T: Ord + Clone>: ComparisonSummary<T> {
    /// Folds `other` into `self`. On a parameter refusal
    /// ([`MergeError::IncompatibleParams`] / [`MergeError::EpsOverflow`])
    /// the receiver is unchanged; [`MergeError::InvariantViolated`]
    /// reports a post-merge re-validation failure and the receiver must
    /// be discarded.
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError>;

    /// The worst-case rank-error bound as a fraction of
    /// `items_processed()`, *after* any merges performed so far —
    /// deterministic summaries (GK family, MRL, CKMS) report their
    /// composed ε; randomized sketches (KLL) return `None` because
    /// their guarantee is probabilistic, not worst-case.
    fn eps_bound(&self) -> Option<f64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_error_messages_name_the_refusal() {
        let e = MergeError::IncompatibleParams {
            what: "buffer capacity",
            left: "100".to_string(),
            right: "200".to_string(),
        };
        assert!(e.to_string().contains("buffer capacity"));
        let e = MergeError::EpsOverflow { composed: 0.6 };
        assert!(e.to_string().contains("0.6"));
        let e = MergeError::InvariantViolated {
            detail: "span".to_string(),
        };
        assert!(e.to_string().contains("span"));
    }
}
