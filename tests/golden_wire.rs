//! Golden-file pins for the `cqs-snapshot` wire format.
//!
//! The committed `tests/golden/*.cqss` fixtures are byte-for-byte
//! images of small deterministic snapshots. These tests fail on ANY
//! encoding drift — field order, framing, endianness, CRC polynomial —
//! because an incompatible writer silently strands every checkpoint a
//! user has on disk. A deliberate format change must bump
//! `cqs_snapshot::VERSION` and re-bless with
//! `UPDATE_GOLDEN=1 cargo test --test golden_wire`.

use cqs::prelude::*;
use cqs_core::SplitMix64;
use cqs_snapshot::{SnapshotRead, SnapshotWrite, MAGIC, VERSION};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.cqss"))
}

/// Compares `bytes` against the committed fixture, blessing it instead
/// when `UPDATE_GOLDEN=1` is set.
fn assert_matches_golden(name: &str, bytes: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, bytes).expect("write golden");
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}) — run UPDATE_GOLDEN=1 cargo test --test golden_wire",
            path.display()
        )
    });
    assert_eq!(
        bytes,
        golden.as_slice(),
        "{name}: wire bytes drifted from the committed fixture; a \
         deliberate format change must bump cqs_snapshot::VERSION and \
         re-bless with UPDATE_GOLDEN=1 cargo test --test golden_wire"
    );
}

/// The fixture streams: small, deterministic, and chosen to exercise
/// non-trivial compression inside each summary.
fn feed<S: ComparisonSummary<u64>>(mut s: S) -> S {
    // A fixed permutation of 1..=64 (bit-reversal order) — enough to
    // trigger merges/compression at eps = 0.1 without bloating the
    // committed fixture.
    for i in 0..64u64 {
        let v = (i.reverse_bits() >> 58) + 1;
        s.insert(v);
    }
    s
}

#[test]
fn gk_wire_bytes_are_stable() {
    assert_matches_golden(
        "gk_v1",
        &feed(GkSummary::<u64>::new(0.1)).to_snapshot_bytes(),
    );
}

#[test]
fn greedy_gk_wire_bytes_are_stable() {
    assert_matches_golden(
        "gk_greedy_v1",
        &feed(GreedyGk::<u64>::new(0.1)).to_snapshot_bytes(),
    );
}

#[test]
fn mrl_wire_bytes_are_stable() {
    assert_matches_golden(
        "mrl_v1",
        &feed(MrlSummary::<u64>::new(0.1, 64)).to_snapshot_bytes(),
    );
}

#[test]
fn ckms_wire_bytes_are_stable() {
    assert_matches_golden(
        "ckms_v1",
        &feed(CkmsSummary::<u64>::new(0.1)).to_snapshot_bytes(),
    );
}

/// A fixed multi-key fill of an 8-shard GK registry: every shard holds
/// 2048 items, enough to compress at ε₀ = 0.01/8, so each key's export
/// folds eight summaries carrying non-zero Δ with seven merges.
/// One key is tie-heavy (64 distinct values), one ascending, one drawn
/// from a wide range.
fn filled_service_registry() -> QuantileRegistry<u64, GkSummary<u64>> {
    let reg = QuantileRegistry::new(
        ServiceConfig {
            shards: 8,
            stripes: 4,
            fold_cadence: 1 << 20,
        },
        || GkSummary::new(0.01 / 8.0),
    );
    let mut rng = SplitMix64::new(0x9511_c0de);
    for (key, kind) in [("api.latency", 0u64), ("db.rows", 1), ("queue.depth", 2)] {
        let batches: Vec<Vec<u64>> = (0..64u64)
            .map(|b| {
                (0..256u64)
                    .map(|i| match kind {
                        0 => rng.below(1_000_000),
                        1 => b * 256 + i,
                        _ => rng.below(64),
                    })
                    .collect()
            })
            .collect();
        parallel_ingest(&reg.handle(key), &batches, 1);
    }
    reg
}

#[test]
fn service_export_wire_bytes_are_stable() {
    // Pins the folded quantiles and composed ε, not just the QSVC
    // framing: a merge or fold change that moves any answer fails here.
    let export = filled_service_registry()
        .export_quantiles(&DEFAULT_PHI_GRID)
        .expect("fold");
    assert_matches_golden("qsvc_v1", &export.to_snapshot_bytes());
}

#[test]
fn golden_fixtures_still_restore() {
    // The committed images must remain readable by the current build —
    // the compatibility promise the fixtures exist to enforce.
    let gk = GkSummary::<u64>::from_snapshot_bytes(
        &std::fs::read(golden_path("gk_v1")).expect("gk_v1 fixture"),
    )
    .expect("gk_v1 must restore");
    assert_eq!(gk.items_processed(), 64);
    assert_eq!(
        gk.item_array(),
        feed(GkSummary::<u64>::new(0.1)).item_array()
    );

    let mrl = MrlSummary::<u64>::from_snapshot_bytes(
        &std::fs::read(golden_path("mrl_v1")).expect("mrl_v1 fixture"),
    )
    .expect("mrl_v1 must restore");
    assert_eq!(mrl.items_processed(), 64);
}

#[test]
fn golden_fixtures_carry_the_current_header() {
    // Every fixture opens with the magic and the version this build
    // writes; a bumped VERSION with stale fixtures fails here first
    // with a clearer message than a byte-diff.
    for name in ["gk_v1", "gk_greedy_v1", "mrl_v1", "ckms_v1", "qsvc_v1"] {
        let bytes = std::fs::read(golden_path(name)).expect("fixture");
        assert_eq!(&bytes[..4], &MAGIC, "{name}: magic");
        let ver = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(ver, VERSION, "{name}: header version");
    }
}
