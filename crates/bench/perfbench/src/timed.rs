//! The summary timing wrapper and the span recorder of the traced run.
//!
//! Tracing lives entirely in the benchmark: [`Timed`] wraps a summary
//! and times every call the program makes into it, and a [`Tracer`] times
//! the calls the benchmark makes into the other layers. A layer's self
//! time is its span minus the summary time recorded *on the same thread*
//! inside that span, which keeps self times exact when the service's
//! callers and merge worker run summary code concurrently.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary};

/// The summary operations the wrapper times, one counter pair each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `insert` and `insert_sorted_run` (a single insert is a run of one).
    InsertRun,
    /// `item_array`, `for_each_item` and `for_each_item_between`,
    /// including the visitor the caller passes in.
    Scan,
    /// `query_rank` and `quantile`.
    Query,
    /// `try_merge`.
    Merge,
    /// `clone` (the fold's shard copy and fold-cache hand-out).
    Clone,
}

const OPS: usize = 5;
// Process-wide totals: statistics only, published to nobody, so
// `Relaxed` suffices; readers take them after joining every thread.
static NANOS: [AtomicU64; OPS] = [const { AtomicU64::new(0) }; OPS];
static CALLS: [AtomicU64; OPS] = [const { AtomicU64::new(0) }; OPS];

thread_local! {
    /// Summary nanoseconds spent on this thread, for self-time
    /// subtraction by the spans that enclose summary calls.
    static HERE: Cell<u64> = const { Cell::new(0) };
    /// Merges run on this thread, to tell fold-cache hits from misses.
    static MERGES_HERE: Cell<u64> = const { Cell::new(0) };
}

/// Summary nanoseconds recorded on the calling thread so far.
pub fn summary_nanos_here() -> u64 {
    HERE.with(Cell::get)
}

/// Merges recorded on the calling thread so far.
pub fn merges_here() -> u64 {
    MERGES_HERE.with(Cell::get)
}

/// Process-wide summary totals, per operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Nanoseconds, indexed by `Op as usize`.
    pub nanos: [u64; OPS],
    /// Calls, indexed by `Op as usize`.
    pub calls: [u64; OPS],
}

impl OpTotals {
    /// Reads the current process-wide totals.
    pub fn now() -> Self {
        let mut t = OpTotals::default();
        for i in 0..OPS {
            t.nanos[i] = NANOS[i].load(Ordering::Relaxed);
            t.calls[i] = CALLS[i].load(Ordering::Relaxed);
        }
        t
    }

    /// Totals accumulated since `earlier`.
    pub fn since(self, earlier: OpTotals) -> OpTotals {
        let mut t = OpTotals::default();
        for i in 0..OPS {
            t.nanos[i] = self.nanos[i] - earlier.nanos[i];
            t.calls[i] = self.calls[i] - earlier.calls[i];
        }
        t
    }

    /// Seconds spent in `op`.
    pub fn secs(&self, op: Op) -> f64 {
        self.nanos[op as usize] as f64 * 1e-9
    }

    /// Calls of `op`.
    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }

    /// Seconds spent in all summary operations.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }
}

fn record(op: Op, started: Instant) {
    let ns = elapsed_nanos(started);
    NANOS[op as usize].fetch_add(ns, Ordering::Relaxed);
    CALLS[op as usize].fetch_add(1, Ordering::Relaxed);
    HERE.with(|c| c.set(c.get() + ns));
    if op == Op::Merge {
        MERGES_HERE.with(|c| c.set(c.get() + 1));
    }
}

fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A summary whose every call is timed. Forwards every
/// [`ComparisonSummary`] and [`MergeableSummary`] method, defaulted ones
/// included, so the wrapped program runs the inner summary's own code
/// paths and never a trait fallback.
#[derive(Debug)]
pub struct Timed<S>(pub S);

impl<S: Clone> Clone for Timed<S> {
    fn clone(&self) -> Self {
        let t = Instant::now();
        let inner = self.0.clone();
        record(Op::Clone, t);
        Timed(inner)
    }
}

impl<T: Ord + Clone, S: ComparisonSummary<T>> ComparisonSummary<T> for Timed<S> {
    fn insert(&mut self, item: T) {
        let t = Instant::now();
        self.0.insert(item);
        record(Op::InsertRun, t);
    }

    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        let t = Instant::now();
        let peak = self.0.insert_sorted_run(run);
        record(Op::InsertRun, t);
        peak
    }

    fn item_array(&self) -> Vec<T> {
        let t = Instant::now();
        let items = self.0.item_array();
        record(Op::Scan, t);
        items
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        let t = Instant::now();
        self.0.for_each_item(f);
        record(Op::Scan, t);
    }

    fn for_each_item_between(&self, lo: Option<&T>, hi: Option<&T>, f: &mut dyn FnMut(&T)) {
        let t = Instant::now();
        self.0.for_each_item_between(lo, hi, f);
        record(Op::Scan, t);
    }

    fn stored_count(&self) -> usize {
        self.0.stored_count()
    }

    fn items_processed(&self) -> u64 {
        self.0.items_processed()
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        let t = Instant::now();
        let answer = self.0.query_rank(r);
        record(Op::Query, t);
        answer
    }

    fn quantile(&self, phi: f64) -> Option<T> {
        let t = Instant::now();
        let answer = self.0.quantile(phi);
        record(Op::Query, t);
        answer
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<T: Ord + Clone, S: MergeableSummary<T>> MergeableSummary<T> for Timed<S> {
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        let t = Instant::now();
        let merged = self.0.try_merge(&other.0);
        record(Op::Merge, t);
        merged
    }

    fn eps_bound(&self) -> Option<f64> {
        self.0.eps_bound()
    }
}

/// Self time and call count of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Nanoseconds inside the layer's spans, minus summary time inside.
    pub self_nanos: u64,
    /// Spans recorded.
    pub calls: u64,
}

impl Layer {
    /// Self time in seconds.
    pub fn secs(&self) -> f64 {
        self.self_nanos as f64 * 1e-9
    }

    /// Adds another thread's totals.
    pub fn add(&mut self, other: Layer) {
        self.self_nanos += other.self_nanos;
        self.calls += other.calls;
    }
}

/// Times a call into a layer. The untraced path uses [`Untraced`], whose
/// span is the bare call.
pub trait Tracer {
    /// Runs `f` as one span of `layer`.
    fn span<R>(&self, layer: &Cell<Layer>, f: impl FnOnce() -> R) -> R;
}

/// The untraced path: no clocks, no counters.
pub struct Untraced;

impl Tracer for Untraced {
    #[inline(always)]
    fn span<R>(&self, _layer: &Cell<Layer>, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The traced path: wall time of the span minus the summary time the
/// calling thread recorded inside it.
pub struct Traced;

impl Tracer for Traced {
    fn span<R>(&self, layer: &Cell<Layer>, f: impl FnOnce() -> R) -> R {
        let inner_before = summary_nanos_here();
        let t = Instant::now();
        let r = f();
        let total = elapsed_nanos(t);
        let inner = summary_nanos_here() - inner_before;
        let mut l = layer.get();
        l.self_nanos += total.saturating_sub(inner);
        l.calls += 1;
        layer.set(l);
        r
    }
}
