//! The `service-mixed` workload: a closed loop of callers recording
//! sorted batches into a sharded `QuantileRegistry` with the merge
//! worker running, reading quantiles and exporting every key.

use std::cell::Cell;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cqs_core::{MergeableSummary, SplitMix64};
use cqs_gk::GkSummary;
use cqs_service::{QuantileExport, QuantileRegistry, ServiceConfig, DEFAULT_PHI_GRID};
use cqs_snapshot::{SnapshotRead as _, SnapshotWrite as _};
use cqs_streams::{workload, Workload};

use crate::report::{fnv1a, median, quantile_sorted, Checks, Metric};
use crate::timed::{
    merges_here, summary_nanos_here, Layer, Op, OpTotals, Timed, Traced, Tracer, Untraced,
};

/// The workload's fixed parameters (all but the caller count, which is
/// `min(2, available_parallelism)`).
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Shards per key.
    pub shards: usize,
    /// Lock stripes over the key map.
    pub stripes: usize,
    /// Runs per key between merge-worker wake-ups.
    pub fold_cadence: u64,
    /// Keys each caller owns (and alone writes).
    pub keys_per_caller: usize,
    /// Items per recorded batch.
    pub batch: usize,
    /// Batches each caller records per repetition.
    pub batches_per_caller: usize,
    /// A quantile read follows every this many batches.
    pub read_every: usize,
    /// Caller 0 exports every key after every this many batches.
    pub export_every: usize,
    /// The ε the service promises readers; shards run at ε/shards.
    pub served_eps: f64,
}

/// The `service-mixed` configuration.
pub const PARAMS: Params = Params {
    shards: 8,
    stripes: 8,
    fold_cadence: 64,
    keys_per_caller: 32,
    batch: 1024,
    batches_per_caller: 2048,
    read_every: 4,
    export_every: 128,
    served_eps: 0.01,
};

impl Params {
    /// Per-shard ε: shards compose additively, so S shards at ε/S serve ε.
    pub fn shard_eps(&self) -> f64 {
        self.served_eps / self.shards as f64
    }
}

/// Caller count: two callers where the host has two cores, one
/// otherwise. More than the host's cores would measure contention for
/// processors, not the service.
pub fn callers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One caller's pre-generated inputs.
#[derive(Debug, PartialEq)]
pub struct CallerInput {
    keys: Vec<String>,
    /// `(key index, sorted batch)` in recording order.
    batches: Vec<(usize, Vec<u64>)>,
    /// `(key index, φ)` of the read after every `read_every` batches.
    reads: Vec<(usize, f64)>,
}

/// Draws a key index with popularity ∝ 1/(i+1).
fn skewed_key(rng: &mut SplitMix64, cdf: &[f64]) -> usize {
    let u = rng.next_f64() * cdf.last().copied().unwrap_or(1.0);
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Generates caller `c`'s inputs from the run seed: skewed key choices,
/// and per key a `cqs_streams` value stream (shuffled or clustered by
/// key) cut into sorted batches.
pub fn caller_input(p: &Params, seed: u64, c: usize) -> CallerInput {
    let mut rng = SplitMix64::new(seed ^ (0x5e41_ce00 + c as u64));
    let mut cdf = Vec::with_capacity(p.keys_per_caller);
    let mut acc = 0.0;
    for i in 0..p.keys_per_caller {
        acc += 1.0 / (i + 1) as f64;
        cdf.push(acc);
    }
    let order: Vec<usize> = (0..p.batches_per_caller)
        .map(|_| skewed_key(&mut rng, &cdf))
        .collect();
    let mut per_key: Vec<Vec<Vec<u64>>> = vec![Vec::new(); p.keys_per_caller];
    for (i, chunks) in per_key.iter_mut().enumerate() {
        let m = order.iter().filter(|&&k| k == i).count();
        let family = if i % 2 == 0 {
            Workload::Shuffled
        } else {
            Workload::Clustered
        };
        let key_seed = rng.next_u64();
        let values = workload(family, (m * p.batch) as u64, key_seed).unwrap_or_default();
        // Reversed so `pop` hands the batches out in stream order.
        *chunks = values
            .chunks(p.batch)
            .rev()
            .map(|b| {
                let mut b = b.to_vec();
                b.sort_unstable();
                b
            })
            .collect();
    }
    let batches = order
        .iter()
        .map(|&k| (k, per_key[k].pop().unwrap_or_default()))
        .collect();
    let reads = (0..p.batches_per_caller / p.read_every)
        .map(|_| (skewed_key(&mut rng, &cdf), rng.next_f64()))
        .collect();
    CallerInput {
        keys: (0..p.keys_per_caller)
            .map(|i| format!("caller{c}/key{i:02}"))
            .collect(),
        batches,
        reads,
    }
}

/// Layers of one caller thread.
#[derive(Default)]
struct CallerLayers {
    handle: Cell<Layer>,
    record: Cell<Layer>,
    read: Cell<Layer>,
    export: Cell<Layer>,
    encode: Cell<Layer>,
    decode: Cell<Layer>,
}

/// What one caller measured.
#[derive(Default)]
struct CallerOut {
    read_ns: Vec<u64>,
    reads: u64,
    read_hits: u64,
    export_ms: Vec<f64>,
    export_bytes: usize,
    checks: Checks,
    wall: f64,
    summary_secs: f64,
    handle: Layer,
    record: Layer,
    read: Layer,
    export: Layer,
    encode: Layer,
    decode: Layer,
}

fn caller_loop<S, T>(
    reg: &QuantileRegistry<u64, S>,
    input: &CallerInput,
    p: &Params,
    exporter: bool,
    tracer: &T,
) -> CallerOut
where
    S: MergeableSummary<u64> + Clone,
    T: Tracer,
{
    let l = CallerLayers::default();
    let mut out = CallerOut::default();
    // Each key has this caller as its only writer, so whether a read
    // must find data is known here.
    let mut written = vec![false; input.keys.len()];
    let summary_before = summary_nanos_here();
    let start = Instant::now();
    for (j, (key, batch)) in input.batches.iter().enumerate() {
        let h = tracer.span(&l.handle, || reg.handle(&input.keys[*key]));
        tracer.span(&l.record, || h.record_sorted_run(batch));
        written[*key] = true;
        if (j + 1) % p.read_every == 0 {
            let (rk, phi) = input.reads[j / p.read_every];
            let rh = tracer.span(&l.handle, || reg.handle(&input.keys[rk]));
            let merges = merges_here();
            let t = Instant::now();
            let v = tracer.span(&l.read, || rh.quantile(phi));
            out.read_ns.push(t.elapsed().as_nanos() as u64);
            out.reads += 1;
            if merges_here() == merges {
                out.read_hits += 1;
            }
            let ok = match v {
                Ok(Some(_)) => written[rk],
                Ok(None) => !written[rk],
                Err(_) => false,
            };
            out.checks.expect(ok, || {
                format!("read of {} at phi {phi} answered {v:?}", input.keys[rk])
            });
        }
        if exporter && (j + 1) % p.export_every == 0 {
            let t = Instant::now();
            let export = tracer.span(&l.export, || reg.export_quantiles(&DEFAULT_PHI_GRID));
            let Ok(export) = export else {
                out.checks
                    .expect(false, || "periodic export failed to fold".into());
                continue;
            };
            let bytes = tracer.span(&l.encode, || export.to_snapshot_bytes());
            let back = tracer.span(&l.decode, || {
                QuantileExport::<u64>::from_snapshot_bytes(&bytes)
            });
            out.export_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.export_bytes = bytes.len();
            out.checks.expect(back.is_ok_and(|b| b == export), || {
                "periodic export QSVC round trip differs".into()
            });
        }
    }
    CallerOut {
        wall: start.elapsed().as_secs_f64(),
        summary_secs: (summary_nanos_here() - summary_before) as f64 * 1e-9,
        handle: l.handle.get(),
        record: l.record.get(),
        read: l.read.get(),
        export: l.export.get(),
        encode: l.encode.get(),
        decode: l.decode.get(),
        ..out
    }
}

/// One repetition's results.
struct Rep {
    setup: f64,
    wall: f64,
    items: u64,
    outs: Vec<CallerOut>,
    fold_errors: u64,
}

/// Sets up a fresh registry and inputs, runs every caller to completion,
/// then checks the final state against the inputs (untimed).
fn rep<S, T>(
    p: &Params,
    make: fn(f64) -> S,
    seed: u64,
    tracer: &T,
    digest: &mut Option<u64>,
    checks: &mut Checks,
) -> Rep
where
    S: MergeableSummary<u64> + Clone + Send + 'static,
    T: Tracer + Sync,
{
    let n_callers = callers();
    let t = Instant::now();
    let inputs: Vec<CallerInput> = (0..n_callers).map(|c| caller_input(p, seed, c)).collect();
    let eps0 = p.shard_eps();
    let reg: QuantileRegistry<u64, S> = QuantileRegistry::new(
        ServiceConfig {
            shards: p.shards,
            stripes: p.stripes,
            fold_cadence: p.fold_cadence,
        },
        move || make(eps0),
    );
    for input in &inputs {
        for key in &input.keys {
            reg.handle(key);
        }
    }
    let worker = reg.start_merge_worker();
    let setup = t.elapsed().as_secs_f64();

    let barrier = Barrier::new(n_callers);
    let t = Instant::now();
    let outs: Vec<CallerOut> = std::thread::scope(|s| {
        let threads: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(c, input)| {
                let (reg, barrier) = (&reg, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    caller_loop(reg, input, p, c == 0, tracer)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let fold_errors = worker.fold_errors();
    worker.shutdown();
    checks.expect(fold_errors == 0, || {
        format!("{fold_errors} worker fold errors")
    });

    let items = (n_callers * p.batches_per_caller * p.batch) as u64;
    check_final_state(&reg, &inputs, p.served_eps, items, digest, checks);
    Rep {
        setup,
        wall,
        items,
        outs,
        fold_errors,
    }
}

/// Checks after the loop: every item ingested, the export round-trips
/// through QSVC, its bytes match every other repetition of the run, and
/// every exported quantile lies within served-ε·n of its exact rank.
fn check_final_state<S: MergeableSummary<u64> + Clone>(
    reg: &QuantileRegistry<u64, S>,
    inputs: &[CallerInput],
    eps: f64,
    items: u64,
    digest: &mut Option<u64>,
    checks: &mut Checks,
) {
    let export = match reg.export_quantiles(&DEFAULT_PHI_GRID) {
        Ok(e) => e,
        Err(e) => {
            checks.expect(false, || format!("final export failed: {e}"));
            return;
        }
    };
    let ingested: u64 = export.keys.iter().map(|row| row.n).sum();
    checks.expect(ingested == items, || {
        format!("ingested {ingested} of {items} items")
    });
    let bytes = export.to_snapshot_bytes();
    let back = QuantileExport::<u64>::from_snapshot_bytes(&bytes);
    checks.expect(back.is_ok_and(|b| b == export), || {
        "final export QSVC round trip differs".into()
    });
    let d = fnv1a(&bytes);
    let want = *digest.get_or_insert(d);
    checks.expect(d == want, || {
        format!("export digest {d:016x} differs from the run's first {want:016x}")
    });

    for input in inputs {
        for (i, key) in input.keys.iter().enumerate() {
            let Some(row) = export.keys.iter().find(|r| &r.key == key) else {
                checks.expect(false, || format!("key {key} missing from the export"));
                continue;
            };
            let mut exact: Vec<u64> = input
                .batches
                .iter()
                .filter(|(k, _)| *k == i)
                .flat_map(|(_, b)| b.iter().copied())
                .collect();
            exact.sort_unstable();
            let n = exact.len() as u64;
            if n == 0 {
                continue;
            }
            checks.expect(row.eps_bound.is_some_and(|e| e <= eps + 1e-12), || {
                format!(
                    "{key}: composed eps {:?} exceeds served {eps}",
                    row.eps_bound
                )
            });
            let budget = eps * n as f64;
            for (&phi, value) in DEFAULT_PHI_GRID.iter().zip(&row.values) {
                let target = ((phi * n as f64).floor() as u64).clamp(1, n);
                let err = value.map(|v| {
                    // Ranks v can stand for: (count < v, count ≤ v].
                    let lo = exact.partition_point(|&x| x < v) as u64 + 1;
                    let hi = exact.partition_point(|&x| x <= v) as u64;
                    if hi < lo {
                        u64::MAX // not a stream value
                    } else {
                        target.saturating_sub(hi).max(lo.saturating_sub(target))
                    }
                });
                checks.expect(err.is_some_and(|e| e as f64 <= budget), || {
                    format!("{key}: phi {phi} answered {value:?}, rank error {err:?} > {budget}")
                });
            }
        }
    }
}

fn gk(eps: f64) -> GkSummary<u64> {
    GkSummary::new(eps)
}

fn timed_gk(eps: f64) -> Timed<GkSummary<u64>> {
    Timed(GkSummary::new(eps))
}

/// The untraced run: fresh repetitions until `budget` has elapsed.
/// Throughput is all items over all timed loop time, export time the
/// median of every export, and read latencies the median over
/// repetitions of each repetition's percentile (at 2 callers a
/// repetition makes 1024 reads, so its 99th percentile has 10 beyond
/// it). The host's speed drifts within seconds, so these vary less
/// between runs than a median of repetition rates or a pooled tail.
pub fn run_e2e(p: &Params, seed: u64, budget: Duration, checks: &mut Checks) -> Vec<Metric> {
    let (mut setup, mut read_p50_us, mut read_p99_us, mut export_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut items, mut wall) = (0u64, 0.0);
    let mut digest = None;
    let start = Instant::now();
    while setup.is_empty() || start.elapsed() < budget {
        let r = rep(p, gk, seed, &Untraced, &mut digest, checks);
        setup.push(r.setup);
        items += r.items;
        wall += r.wall;
        let mut read_ns = Vec::new();
        for out in r.outs {
            read_ns.extend(out.read_ns);
            export_ms.extend(out.export_ms);
            checks.absorb(out.checks);
        }
        read_ns.sort_unstable();
        read_p50_us.push(quantile_sorted(&read_ns, 0.5) as f64 / 1e3);
        read_p99_us.push(quantile_sorted(&read_ns, 0.99) as f64 / 1e3);
        eprintln!(
            "rep {}: {:.3} s, {:.0} items/s, {} reads",
            setup.len(),
            r.wall,
            r.items as f64 / r.wall,
            read_ns.len()
        );
    }
    vec![
        Metric::new("items_per_s", items as f64 / wall, "items/s"),
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("read_p50_us", median(&read_p50_us), "us"),
        Metric::new("read_p99_us", median(&read_p99_us), "us"),
        Metric::new("export_ms", median(&export_ms), "ms"),
    ]
}

/// The traced run: untraced and traced repetitions alternate, each
/// going first in turn, until `budget` has elapsed. Layer times are
/// summed over callers and are medians over traced repetitions, per
/// repetition.
pub fn run_traced_workload(
    p: &Params,
    seed: u64,
    budget: Duration,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut digest_plain = None;
    let mut digest_traced = None;
    let (mut plain_walls, mut traced_walls) = (vec![], vec![]);
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = vec![];
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed() < budget {
        let plain = |digest: &mut Option<u64>, checks: &mut Checks| {
            let r = rep(p, gk, seed, &Untraced, digest, checks);
            for out in r.outs {
                checks.absorb(out.checks);
            }
            r.wall
        };
        let plain_first = traced_walls.len() % 2 == 0;
        let mut plain_wall = 0.0;
        if plain_first {
            plain_wall = plain(&mut digest_plain, checks);
        }
        let before = OpTotals::now();
        let r = rep(p, timed_gk, seed, &Traced, &mut digest_traced, checks);
        let ops = OpTotals::now().since(before);
        if !plain_first {
            plain_wall = plain(&mut digest_plain, checks);
        }
        plain_walls.push(plain_wall);
        traced_walls.push(r.wall);
        let mut sum = CallerOut::default();
        for out in r.outs {
            sum.reads += out.reads;
            sum.read_hits += out.read_hits;
            sum.export_bytes = sum.export_bytes.max(out.export_bytes);
            sum.wall += out.wall;
            sum.summary_secs += out.summary_secs;
            sum.handle.add(out.handle);
            sum.record.add(out.record);
            sum.read.add(out.read);
            sum.export.add(out.export);
            sum.encode.add(out.encode);
            sum.decode.add(out.decode);
            checks.absorb(out.checks);
        }
        let layers = [
            sum.handle, sum.record, sum.read, sum.export, sum.encode, sum.decode,
        ];
        let attributed = layers.iter().map(Layer::secs).sum::<f64>() + sum.summary_secs;
        per_rep.push(vec![
            ("gk.insert_run_s", ops.secs(Op::InsertRun)),
            ("gk.insert_run_calls", ops.calls(Op::InsertRun) as f64),
            ("gk.scan_s", ops.secs(Op::Scan)),
            ("gk.scan_calls", ops.calls(Op::Scan) as f64),
            ("gk.query_s", ops.secs(Op::Query)),
            ("gk.query_calls", ops.calls(Op::Query) as f64),
            ("gk.merge_s", ops.secs(Op::Merge)),
            ("gk.merge_calls", ops.calls(Op::Merge) as f64),
            ("gk.clone_s", ops.secs(Op::Clone)),
            ("registry.handle_s", sum.handle.secs()),
            ("service.record_s", sum.record.secs()),
            ("service.record_calls", sum.record.calls as f64),
            ("service.fold_s", sum.read.secs()),
            ("service.fold_calls", (sum.reads - sum.read_hits) as f64),
            (
                "service.fold_cache_hit_ratio",
                sum.read_hits as f64 / sum.reads.max(1) as f64,
            ),
            ("service.export_s", sum.export.secs()),
            ("snapshot.encode_s", sum.encode.secs()),
            ("snapshot.decode_s", sum.decode.secs()),
            ("snapshot.export_bytes", sum.export_bytes as f64),
            ("worker.fold_errors", r.fold_errors as f64),
            (
                "trace.unattributed_frac",
                (sum.wall - attributed) / sum.wall,
            ),
        ]);
        eprintln!(
            "traced rep {}: {:.3} s traced, {:.3} s untraced",
            traced_walls.len(),
            r.wall,
            plain_wall
        );
    }
    checks.expect(digest_plain == digest_traced, || {
        format!("traced export digest {digest_traced:?} != untraced {digest_plain:?}")
    });
    let mut metrics = crate::per_layer_medians(&per_rep);
    metrics.push(Metric::new(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
        "ratio",
    ));
    metrics
}

/// Compile-time audit of what crosses the caller threads: inputs,
/// parameters and tracers are shared by reference, results come back by
/// value. The workspace `sharding-send-sync` lint requires these lines.
#[allow(dead_code)]
fn sharding_send_audit() {
    fn assert_send<X: Send>() {}
    fn assert_sync<X: Sync>() {}
    assert_sync::<Params>();
    assert_sync::<CallerInput>();
    assert_sync::<Traced>();
    assert_sync::<Untraced>();
    assert_send::<Params>();
    assert_send::<CallerInput>();
    assert_send::<CallerOut>();
    assert_send::<Checks>();
    assert_send::<Layer>();
    assert_send::<Metric>();
    assert_send::<Op>();
    assert_send::<OpTotals>();
    assert_send::<Rep>();
    assert_send::<Traced>();
    assert_send::<Untraced>();
}
