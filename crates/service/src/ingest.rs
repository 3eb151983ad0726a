//! Deterministic parallel ingest.
//!
//! The determinism contract is the same as the harness's `--jobs` flag:
//! the *placement* of work is fixed by input position — batch `b` goes
//! to shard `b mod S` — and worker threads claim whole shards from an
//! atomic counter (the `cqs_bench::exec::run_cells` pattern). Each
//! shard therefore receives exactly its batches, in input order, from
//! exactly one thread, so the final shard states — and any export
//! folded from them — are byte-identical for every thread count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use cqs_core::ComparisonSummary;

use crate::registry::SummaryHandle;

/// Sorts a copy of `batch` and applies it to `shard` through the
/// summary's batched `insert_sorted_run` path. Sorting happens inside
/// the claiming worker, so it parallelizes with the rest of the ingest.
fn apply_batch<T, S>(handle: &SummaryHandle<T, S>, shard: usize, batch: &[T]) -> u64
where
    T: Ord + Clone,
    S: ComparisonSummary<T>,
{
    let mut run = batch.to_vec();
    run.sort_unstable();
    handle.record_sorted_run_at(shard, &run) as u64
}

/// Ingests `batches` under `handle` using up to `threads` worker
/// threads; returns the total number of items accepted.
///
/// Batch `b` lands on shard `b mod S` regardless of `threads`, so for a
/// fixed batch sequence the resulting shard states (and everything
/// folded or exported from them) are identical for every thread count.
/// Parallelism is capped at the shard count — extra threads would have
/// no shard to claim.
pub fn parallel_ingest<T, S>(
    handle: &SummaryHandle<T, S>,
    batches: &[Vec<T>],
    threads: usize,
) -> u64
where
    T: Ord + Clone + Send + Sync,
    S: ComparisonSummary<T> + Send,
{
    let shards = handle.shard_count();
    let threads = threads.clamp(1, shards);
    let next = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    // One worker: claim whole shards until none is left. The claimer
    // owns shard `s` outright and applies batches s, s+S, s+2S, ... in
    // input order.
    let worker = || {
        let mut local = 0u64;
        loop {
            let shard = next.fetch_add(1, Ordering::Relaxed);
            if shard >= shards {
                break;
            }
            for batch in batches.iter().skip(shard).step_by(shards) {
                local += apply_batch(handle, shard, batch);
            }
        }
        total.fetch_add(local, Ordering::Relaxed);
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    total.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QuantileRegistry, ServiceConfig};
    use cqs_core::MergeableSummary;
    use cqs_gk::GkSummary;

    fn batches(n: u64, batch: usize) -> Vec<Vec<u64>> {
        // Shuffled values via an LCG so sorting inside ingest matters.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut vals: Vec<u64> = (0..n).collect();
        for i in (1..vals.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state % (i as u64 + 1)) as usize;
            vals.swap(i, j);
        }
        vals.chunks(batch).map(|c| c.to_vec()).collect()
    }

    fn exported_state(threads: usize) -> (u64, Vec<Option<u64>>) {
        let reg: QuantileRegistry<u64, GkSummary<u64>> = QuantileRegistry::new(
            ServiceConfig {
                shards: 4,
                stripes: 4,
                fold_cadence: 1024,
            },
            || GkSummary::new(0.01),
        );
        let h = reg.handle("det");
        let total = parallel_ingest(&h, &batches(5000, 64), threads);
        let folded = h.folded().expect("fold").expect("non-empty");
        let phis: Vec<Option<u64>> = (1..20).map(|i| folded.quantile(i as f64 / 20.0)).collect();
        (total, phis)
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let serial = exported_state(1);
        for threads in [2, 4, 8] {
            assert_eq!(exported_state(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_ingest_counts_every_item() {
        let reg: QuantileRegistry<u64, GkSummary<u64>> =
            QuantileRegistry::new(ServiceConfig::default(), || GkSummary::new(0.02));
        let h = reg.handle("count");
        let total = parallel_ingest(&h, &batches(3000, 50), 4);
        assert_eq!(total, 3000);
        assert_eq!(h.items_processed(), 3000);
    }

    #[test]
    fn composed_eps_tracks_non_empty_shards() {
        let reg: QuantileRegistry<u64, GkSummary<u64>> = QuantileRegistry::new(
            ServiceConfig {
                shards: 8,
                stripes: 1,
                fold_cadence: 1024,
            },
            || GkSummary::new(0.005),
        );
        let h = reg.handle("eps");
        // Two batches -> only shards 0 and 1 are non-empty.
        parallel_ingest(&h, &batches(200, 100), 8);
        let folded = h.folded().expect("fold").expect("non-empty");
        let eps = folded.eps_bound().expect("gk reports eps");
        assert!(
            eps <= 2.0 * 0.005 + 1e-12,
            "eps {eps} should reflect 2 non-empty shards, not 8"
        );
    }
}
