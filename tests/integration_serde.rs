//! Checkpoint/restore: the deterministic summaries round-trip through
//! the `cqs-snapshot` wire format and continue the stream exactly where
//! they left off.

use cqs::prelude::*;
use cqs_snapshot::{RestoreError, SnapshotRead, SnapshotWrite};

fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (1..=n).collect();
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

/// Runs half a stream, checkpoints through the wire format, restores,
/// runs the second half on both the original and the restored copy, and
/// demands bit-identical behaviour.
fn roundtrip_continues_identically<S>(mut live: S, name: &str)
where
    S: ComparisonSummary<u64> + SnapshotRead,
{
    let vals = shuffled(20_000, 0x5EDE);
    let (first, second) = vals.split_at(vals.len() / 2);
    for &v in first {
        live.insert(v);
    }
    let bytes = live.to_snapshot_bytes();
    let mut restored = match S::from_snapshot_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => panic!("{name}: restore failed: {e}"),
    };

    for &v in second {
        live.insert(v);
        restored.insert(v);
    }
    assert_eq!(
        live.items_processed(),
        restored.items_processed(),
        "{name}: n diverged"
    );
    assert_eq!(
        live.item_array(),
        restored.item_array(),
        "{name}: item arrays diverged"
    );
    for r in [1u64, 100, 10_000, 20_000] {
        assert_eq!(
            live.query_rank(r),
            restored.query_rank(r),
            "{name}: query({r}) diverged"
        );
    }
}

#[test]
fn gk_banded_checkpoints() {
    roundtrip_continues_identically(GkSummary::new(0.01), "gk");
}

#[test]
fn gk_greedy_checkpoints() {
    roundtrip_continues_identically(GreedyGk::new(0.01), "gk-greedy");
}

#[test]
fn mrl_checkpoints() {
    roundtrip_continues_identically(MrlSummary::new(0.01, 20_000), "mrl");
}

#[test]
fn ckms_checkpoints() {
    roundtrip_continues_identically(CkmsSummary::new(0.01), "ckms");
}

#[test]
fn empty_summaries_round_trip() {
    let gk = GkSummary::<u64>::new(0.02);
    let bytes = gk.to_snapshot_bytes();
    let restored = GkSummary::<u64>::from_snapshot_bytes(&bytes).expect("empty gk");
    assert_eq!(restored.items_processed(), 0);
    assert_eq!(restored.item_array(), gk.item_array());

    let mrl = MrlSummary::<u64>::new(0.02, 1_000);
    let restored =
        MrlSummary::<u64>::from_snapshot_bytes(&mrl.to_snapshot_bytes()).expect("empty mrl");
    assert_eq!(restored.items_processed(), 0);
}

#[test]
fn snapshots_are_deterministic_bytes() {
    // Two identical streams produce byte-identical snapshots — the
    // property the crash/resume CSV-diff guarantee ultimately rests on.
    let mut a = GreedyGk::<u64>::new(0.01);
    let mut b = GreedyGk::<u64>::new(0.01);
    for v in shuffled(5_000, 0xBEEF) {
        a.insert(v);
        b.insert(v);
    }
    assert_eq!(a.to_snapshot_bytes(), b.to_snapshot_bytes());
}

#[test]
fn restoring_the_wrong_kind_is_a_typed_error() {
    let mut gk = GkSummary::<u64>::new(0.05);
    for v in 1..=100u64 {
        gk.insert(v);
    }
    let bytes = gk.to_snapshot_bytes();
    match MrlSummary::<u64>::from_snapshot_bytes(&bytes) {
        Err(RestoreError::WrongKind { .. }) => {}
        Err(other) => panic!("expected WrongKind, got {other}"),
        Ok(_) => panic!("a GK snapshot restored as MRL"),
    }
}

#[test]
fn truncated_snapshots_are_corruption_not_garbage() {
    let mut ckms = CkmsSummary::<u64>::new(0.05);
    for v in 1..=500u64 {
        ckms.insert(v);
    }
    let bytes = ckms.to_snapshot_bytes();
    // Every proper prefix must fail with a *typed* corruption error —
    // never restore, never panic.
    for keep in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
        match CkmsSummary::<u64>::from_snapshot_bytes(&bytes[..keep]) {
            Err(e) => assert!(
                e.is_corruption(),
                "prefix {keep}: expected corruption verdict, got {e}"
            ),
            Ok(_) => panic!("prefix {keep} of a snapshot restored successfully"),
        }
    }
}
