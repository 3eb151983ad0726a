//! The `adv-materialized` and `adv-implicit` workloads: the Theorem 2.2
//! adversary against banded GK, untraced through `Adversary::run` and
//! traced through [`run_traced`], which drives the same recursion from
//! public `cqs-core` calls so each layer can be timed from outside.

use std::cell::Cell;
use std::time::{Duration, Instant};

use cqs_core::adversary::NodeAudit;
use cqs_core::gap::TieBreak;
use cqs_core::refine::refine_from;
use cqs_core::spacegap::{claim1_holds, space_gap_holds, space_gap_rhs};
use cqs_core::state::EquivalenceChecker;
use cqs_core::{
    compute_gap_scratch, Adversary, AdversaryOutcome, AdversaryReport, ComparisonSummary, Eps,
    GapInfo, GapScratch, Interval, Item, MaxSpaceTracker, SplitMix64, StreamRepr, StreamState,
};
use cqs_gk::GkSummary;
use cqs_snapshot::{SnapshotRead as _, SnapshotWrite as _};
use cqs_universe::{generate_increasing, generate_increasing_grouped};

use crate::report::{fnv1a, median, quantile_sorted, Checks, Metric};
use crate::timed::{Layer, Op, OpTotals, Timed, Traced, Tracer};

/// 1/ε of both adversary workloads.
pub const INV_EPS: u64 = 256;
/// Recursion depth of both adversary workloads: N = 256 · 2¹² = 1,048,576
/// items per stream.
pub const K: u32 = 12;
/// Digest of the `AdversaryReport` at (1/ε, k) = (256, 12) against GK:
/// final gap 8145, max stored 1795, label depth 56. Both representations
/// must reproduce it.
pub const EXPECTED_DIGEST: u64 = 0x8a5d_73cb_2181_292b;

/// Chunk-sealing group of implicit leaf runs — the value of the adversary's
/// private `LEAF_SEAL_GROUP`, which the traced run must match.
const LEAF_SEAL_GROUP: usize = 32;
/// Cap of the adversary's index pre-sizing (`reserve_streams`).
const RESERVE_CAP: u64 = 1 << 21;
/// Distinct φ values read from the attacked summary per repetition.
const READS_PER_PASS: usize = 16384;
/// Timed passes over them. A read takes microseconds, so the reads of a
/// repetition must add up to a good share of its time to sample the
/// host's speed as evenly as the construction does.
const READ_PASSES: usize = 8;
/// Untimed reads that warm the caches before the timed ones.
const WARM_READS: usize = 1024;
/// Snapshot round trips of the attacked summary per repetition.
const EXPORTS_PER_REP: usize = 128;
/// Timed builds of the adversary per repetition.
const SETUP_REPEATS: usize = 16;

/// Stable digest of a report (its `Debug` rendering).
pub fn report_digest(r: &AdversaryReport) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

/// The per-run adversary checks: indistinguishability held, Claim 1
/// held at every node, the summary stayed correct (final gap within
/// 2εN), Theorem 2.2's space bound was met, and — when `expected` is
/// given — the report matches the pinned digest.
pub fn check_report(r: &AdversaryReport, expected: Option<u64>, checks: &mut Checks) {
    checks.expect(r.equivalence_ok, || "equivalence check failed".into());
    checks.expect(r.claim1_violations == 0, || {
        format!("{} Claim 1 violations", r.claim1_violations)
    });
    checks.expect(r.final_gap <= r.gap_ceiling, || {
        format!("final gap {} > ceiling {}", r.final_gap, r.gap_ceiling)
    });
    checks.expect(r.max_stored as f64 >= r.theorem22_bound, || {
        format!(
            "max stored {} < Theorem 2.2 bound {}",
            r.max_stored, r.theorem22_bound
        )
    });
    if let Some(want) = expected {
        let got = report_digest(r);
        checks.expect(got == want, || {
            format!("report digest {got:016x} != expected {want:016x}: {r:?}")
        });
    }
}

/// Layers of the traced adversary run, each a self time and call count.
#[derive(Default)]
pub struct AdvLayers {
    /// `generate_increasing` / `generate_increasing_grouped`.
    pub mint: Cell<Layer>,
    /// `StreamState::push_run_in` and `reserve_items`.
    pub index: Cell<Layer>,
    /// `compute_gap_scratch`.
    pub gap: Cell<Layer>,
    /// `refine_from`.
    pub refine: Cell<Layer>,
    /// `EquivalenceChecker::check`.
    pub equiv: Cell<Layer>,
}

impl AdvLayers {
    fn self_secs(&self) -> f64 {
        [
            &self.mint,
            &self.index,
            &self.gap,
            &self.refine,
            &self.equiv,
        ]
        .iter()
        .map(|l| l.get().secs())
        .sum()
    }
}

type State<S> = StreamState<MaxSpaceTracker<S>>;

/// The recursion of `Adversary::run`, rebuilt from public calls.
struct Recursion<'a, S, T> {
    pi: State<S>,
    rho: State<S>,
    eps: Eps,
    repr: StreamRepr,
    audits: Vec<NodeAudit>,
    equivalence_error: Option<String>,
    scratch: GapScratch,
    equiv: EquivalenceChecker,
    tracer: &'a T,
    layers: &'a AdvLayers,
}

impl<S: ComparisonSummary<Item>, T: Tracer> Recursion<'_, S, T> {
    fn adv(&mut self, k: u32, iv_pi: &Interval, iv_rho: &Interval) -> GapInfo {
        let (g_prime, g_dprime) = if k == 1 {
            self.leaf(iv_pi, iv_rho);
            (None, None)
        } else {
            let left = self.adv(k - 1, iv_pi, iv_rho);
            let (pi, rho) = (&self.pi, &self.rho);
            let refinement = self.tracer.span(&self.layers.refine, || {
                refine_from(pi, rho, iv_pi, iv_rho, left.clone())
            });
            let right = self.adv(k - 1, &refinement.iv_pi, &refinement.iv_rho);
            (Some(left.gap), Some(right.gap))
        };
        self.audit_node(k, iv_pi, iv_rho, g_prime, g_dprime)
    }

    fn audit_node(
        &mut self,
        k: u32,
        iv_pi: &Interval,
        iv_rho: &Interval,
        g_prime: Option<u64>,
        g_dprime: Option<u64>,
    ) -> GapInfo {
        let (pi, rho, scratch) = (&self.pi, &self.rho, &mut self.scratch);
        let gap_now = self.tracer.span(&self.layers.gap, || {
            compute_gap_scratch(pi, rho, iv_pi, iv_rho, TieBreak::LowestIndex, scratch)
        });
        let n_k = self.eps.try_stream_len(k).unwrap_or(u64::MAX);
        let s_k = gap_now.restricted_len;
        let claim1_ok = match (g_prime, g_dprime) {
            (Some(gp), Some(gd)) => claim1_holds(gap_now.gap, gp, gd),
            _ => true,
        };
        self.audits.push(NodeAudit {
            level: k,
            n_k,
            g: gap_now.gap,
            g_prime,
            g_dprime,
            s_k,
            stored_inside: s_k.saturating_sub(2),
            claim1_ok,
            lemma52_ok: space_gap_holds(self.eps, n_k, gap_now.gap, s_k),
            space_gap_rhs: space_gap_rhs(self.eps, n_k, gap_now.gap),
        });
        gap_now
    }

    fn leaf(&mut self, iv_pi: &Interval, iv_rho: &Interval) {
        let n = self.eps.leaf_items() as usize;
        let repr = self.repr;
        let mint = |iv: &Interval| match repr {
            StreamRepr::Materialized => generate_increasing(iv, n),
            StreamRepr::Implicit => generate_increasing_grouped(iv, n, LEAF_SEAL_GROUP),
        };
        let mint_layer = &self.layers.mint;
        let (items_pi, items_rho) = if iv_pi == iv_rho {
            self.tracer.span(mint_layer, || {
                let shared = mint(iv_pi);
                (shared.clone(), shared)
            })
        } else {
            (
                self.tracer.span(mint_layer, || mint(iv_pi)),
                self.tracer.span(mint_layer, || mint(iv_rho)),
            )
        };
        let (pi, rho) = (&mut self.pi, &mut self.rho);
        self.tracer.span(&self.layers.index, || {
            pi.push_run_in(iv_pi, &items_pi);
            rho.push_run_in(iv_rho, &items_rho);
        });
        if self.equivalence_error.is_none() {
            let (a, b) = (
                self.pi.summary.stored_count(),
                self.rho.summary.stored_count(),
            );
            if a != b {
                self.equivalence_error = Some(format!(
                    "|I| diverged at stream position {}: {a} vs {b}",
                    self.pi.len().saturating_sub(1),
                ));
            }
        }
        if self.equivalence_error.is_none() {
            let (pi, rho, equiv) = (&self.pi, &self.rho, &mut self.equiv);
            if let Err(e) = self
                .tracer
                .span(&self.layers.equiv, || equiv.check(pi, rho))
            {
                self.equivalence_error = Some(e);
            }
        }
    }
}

/// Runs `AdvStrategy(k, ∅, ∅, (−∞,∞), (−∞,∞))` exactly as
/// `Adversary::run` does (batched leaves, lowest-index tie break), with
/// every layer call wrapped in a `tracer` span recorded into `layers`.
pub fn run_traced<S, T>(
    eps: Eps,
    k: u32,
    repr: StreamRepr,
    mut make: impl FnMut() -> S,
    tracer: &T,
    layers: &AdvLayers,
) -> AdversaryOutcome<S>
where
    S: ComparisonSummary<Item>,
    T: Tracer,
{
    assert!(k >= 1);
    let mut d = Recursion {
        pi: StreamState::with_repr(MaxSpaceTracker::new(make()), repr),
        rho: StreamState::with_repr(MaxSpaceTracker::new(make()), repr),
        eps,
        repr,
        audits: Vec::new(),
        equivalence_error: None,
        scratch: GapScratch::default(),
        equiv: EquivalenceChecker::new(),
        tracer,
        layers,
    };
    let reserve =
        usize::try_from(eps.try_stream_len(k).unwrap_or(u64::MAX).min(RESERVE_CAP)).unwrap_or(0);
    let (pi, rho) = (&mut d.pi, &mut d.rho);
    tracer.span(&layers.index, || {
        pi.reserve_items(reserve);
        rho.reserve_items(reserve);
    });
    let whole = Interval::whole();
    d.adv(k, &whole, &whole);
    AdversaryOutcome {
        pi: d.pi,
        rho: d.rho,
        eps,
        k,
        audits: d.audits,
        equivalence_error: d.equivalence_error,
        rank_probe: None,
    }
}

/// Builds the untraced adversary exactly as `cqs_bench::attack_repr`
/// does for the GK target.
pub fn build(eps: Eps, repr: StreamRepr) -> Adversary<GkSummary<Item>> {
    Adversary::new(
        eps,
        GkSummary::new(eps.value()),
        GkSummary::new(eps.value()),
    )
    .with_stream_repr(repr)
}

/// Times `quantile` reads on the attacked π summary in passes over
/// `phis`, appending each pass's median and 99th-percentile latency in
/// µs, and checks the answers: each first-pass answer must be a stream
/// item within εN of its target rank, and every later pass must repeat
/// it.
fn timed_reads<S: ComparisonSummary<Item>>(
    out: &AdversaryOutcome<S>,
    phis: &[f64],
    samples: &mut Samples,
    checks: &mut Checks,
) {
    let summary = &out.pi.summary;
    // A short untimed pass first, so the timed passes read warm caches.
    for &phi in phis.iter().take(WARM_READS) {
        std::hint::black_box(summary.quantile(phi));
    }
    let mut answers = Vec::with_capacity(phis.len());
    let mut repeats_ok = true;
    let mut lat_ns = Vec::with_capacity(phis.len());
    for pass in 0..READ_PASSES {
        lat_ns.clear();
        for (i, &phi) in phis.iter().enumerate() {
            let t = Instant::now();
            let a = std::hint::black_box(summary.quantile(phi));
            lat_ns.push(t.elapsed().as_nanos() as u64);
            if pass == 0 {
                answers.push(a);
            } else {
                repeats_ok &= answers.get(i) == Some(&a);
            }
        }
        lat_ns.sort_unstable();
        samples
            .read_p50_us
            .push(quantile_sorted(&lat_ns, 0.5) as f64 / 1e3);
        samples
            .read_p99_us
            .push(quantile_sorted(&lat_ns, 0.99) as f64 / 1e3);
    }
    checks.expect(repeats_ok, || {
        "a repeated quantile read changed its answer".into()
    });
    let n = out.pi.len();
    let budget = out.eps.rank_budget(n);
    for (&phi, a) in phis.iter().zip(&answers) {
        let target = ((phi * n as f64).floor() as u64).clamp(1, n);
        let ok = a.as_ref().is_some_and(|it| {
            out.pi.arrival_of(it).is_some() && out.pi.rank_error(it, target) <= budget
        });
        checks.expect(ok, || {
            format!("quantile({phi}) missed rank {target} by more than {budget}")
        });
    }
}

/// Times snapshot round trips of the attacked π summary, appending each
/// in ms, and checks that each decodes to the same bytes.
fn timed_exports(summary: &GkSummary<Item>, ms: &mut Vec<f64>, checks: &mut Checks) {
    for _ in 0..EXPORTS_PER_REP {
        let t = Instant::now();
        let bytes = summary.to_snapshot_bytes();
        let back = GkSummary::<Item>::from_snapshot_bytes(&bytes);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        let ok = back.is_ok_and(|b| b.to_snapshot_bytes() == bytes);
        checks.expect(ok, || "GK snapshot round trip changed the summary".into());
    }
}

/// Samples an untraced run pools over its repetitions.
#[derive(Default)]
struct Samples {
    /// Wall time of `run` + `report` per repetition, s.
    walls: Vec<f64>,
    /// Every timed set-up, s.
    setups: Vec<f64>,
    /// Median read latency of every read pass, µs.
    read_p50_us: Vec<f64>,
    /// 99th-percentile read latency of every read pass, µs.
    read_p99_us: Vec<f64>,
    /// Every timed snapshot round trip, ms.
    export_ms: Vec<f64>,
}

/// One untraced repetition: set-up, the timed construction, then the
/// checks, reads and snapshot round trips. Returns the report.
fn untraced_rep(
    repr: StreamRepr,
    rng: &mut SplitMix64,
    samples: &mut Samples,
    checks: &mut Checks,
) -> AdversaryReport {
    let eps = Eps::from_inverse(INV_EPS);
    // Set-up takes microseconds, so it is timed over several builds of
    // which the last one runs.
    let seed = rng.next_u64();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let mut phi_rng = SplitMix64::new(seed);
        let phis: Vec<f64> = (0..READS_PER_PASS).map(|_| phi_rng.next_f64()).collect();
        let adversary = build(eps, repr);
        samples.setups.push(t.elapsed().as_secs_f64());
        built = Some((phis, adversary));
    }
    let (phis, adversary) = built.expect("SETUP_REPEATS is positive");
    let t = Instant::now();
    let out = adversary.run(K);
    let report = out.report();
    samples.walls.push(t.elapsed().as_secs_f64());
    check_report(&report, Some(EXPECTED_DIGEST), checks);
    timed_reads(&out, &phis, samples, checks);
    timed_exports(out.pi.summary.inner(), &mut samples.export_ms, checks);
    report
}

/// Items fed to both streams per repetition (2N).
fn items_per_rep() -> f64 {
    2.0 * Eps::from_inverse(INV_EPS).stream_len(K) as f64
}

/// The untraced run: repetitions of the whole construction until
/// `budget` has elapsed. Throughput is all items over all timed wall
/// time, set-up and snapshot times are medians of every sample, and read
/// latencies are medians over the run's read passes of each pass's
/// percentile. The host's speed drifts within seconds: throughput over
/// the whole run varies less than a median of repetitions, and a
/// per-pass tail is not swung by one disturbed pass as a pooled tail is.
pub fn run_e2e(repr: StreamRepr, seed: u64, budget: Duration, checks: &mut Checks) -> Vec<Metric> {
    let mut rng = SplitMix64::new(seed);
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.walls.is_empty() || start.elapsed() < budget {
        let report = untraced_rep(repr, &mut rng, &mut samples, checks);
        eprintln!(
            "rep {}: {:.3} s, digest {:016x}",
            samples.walls.len(),
            samples.walls.last().copied().unwrap_or(0.0),
            report_digest(&report)
        );
    }
    let Samples {
        walls,
        setups,
        read_p50_us,
        read_p99_us,
        export_ms,
    } = samples;
    let total_wall: f64 = walls.iter().sum();
    vec![
        Metric::new(
            "items_per_s",
            items_per_rep() * walls.len() as f64 / total_wall,
            "items/s",
        ),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("read_p50_us", median(&read_p50_us), "us"),
        Metric::new("read_p99_us", median(&read_p99_us), "us"),
        Metric::new("export_ms", median(&export_ms), "ms"),
    ]
}

/// The traced run: untraced and traced repetitions alternate until
/// `budget` has elapsed. Per-layer metrics are medians over the traced
/// repetitions, in seconds or calls per repetition.
pub fn run_traced_workload(
    repr: StreamRepr,
    seed: u64,
    budget: Duration,
    checks: &mut Checks,
) -> Vec<Metric> {
    let eps = Eps::from_inverse(INV_EPS);
    let mut rng = SplitMix64::new(seed);
    let mut samples = Samples::default();
    let mut traced_walls = vec![];
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = vec![];
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed() < budget {
        let mut plain = |checks: &mut Checks| {
            let report = untraced_rep(repr, &mut rng, &mut samples, checks);
            (report, samples.walls.last().copied().unwrap_or(0.0))
        };
        // Each side goes first in turn, so drift lands on both.
        let plain_first = traced_walls.len() % 2 == 0;
        let mut first = None;
        if plain_first {
            first = Some(plain(checks));
        }
        let layers = AdvLayers::default();
        let before = OpTotals::now();
        let t = Instant::now();
        let out = run_traced(
            eps,
            K,
            repr,
            || Timed(GkSummary::new(eps.value())),
            &Traced,
            &layers,
        );
        let report = out.report();
        let wall = t.elapsed().as_secs_f64();
        let ops = OpTotals::now().since(before);
        drop(out);
        let (plain_report, plain_wall) = match first {
            Some(rep) => rep,
            None => plain(checks),
        };
        traced_walls.push(wall);
        check_report(&report, Some(EXPECTED_DIGEST), checks);
        checks.expect(report == plain_report, || {
            format!("traced report differs from Adversary::run: {report:?} vs {plain_report:?}")
        });
        let attributed = layers.self_secs() + ops.total_secs();
        per_rep.push(vec![
            ("universe.mint_s", layers.mint.get().secs()),
            ("universe.mint_calls", layers.mint.get().calls as f64),
            ("state.index_s", layers.index.get().secs()),
            ("gk.insert_run_s", ops.secs(Op::InsertRun)),
            ("gk.insert_run_calls", ops.calls(Op::InsertRun) as f64),
            ("gk.scan_s", ops.secs(Op::Scan)),
            ("gk.scan_calls", ops.calls(Op::Scan) as f64),
            ("gk.query_s", ops.secs(Op::Query)),
            ("gk.query_calls", ops.calls(Op::Query) as f64),
            ("gk.merge_s", ops.secs(Op::Merge)),
            ("gk.merge_calls", ops.calls(Op::Merge) as f64),
            ("gk.clone_s", ops.secs(Op::Clone)),
            ("gap.self_s", layers.gap.get().secs()),
            ("gap.calls", layers.gap.get().calls as f64),
            ("refine.self_s", layers.refine.get().secs()),
            ("equiv.self_s", layers.equiv.get().secs()),
            ("equiv.calls", layers.equiv.get().calls as f64),
            ("trace.unattributed_frac", (wall - attributed) / wall),
        ]);
        eprintln!(
            "traced rep {}: {:.3} s traced, {:.3} s untraced",
            traced_walls.len(),
            wall,
            plain_wall
        );
    }
    let mut metrics: Vec<Metric> = crate::per_layer_medians(&per_rep);
    metrics.push(Metric::new(
        "trace.overhead_frac",
        median(&traced_walls) / median(&samples.walls) - 1.0,
        "ratio",
    ));
    metrics
}
