//! A live (stream, summary) pair with order-statistic indexing.
//!
//! The adversary grows two of these — one for π, one for ϱ. Each tracks:
//!
//! * the summary under attack (any [`ComparisonSummary<Item>`]);
//! * an order-statistic treap over all stream items, giving the paper's
//!   `rank_σ(a)`, `next(σ, a)` and `prev(σ, b)` in O(log N) — each node
//!   also carries the item's arrival position as its tag, used to
//!   *verify* (not assume) indistinguishability: Definition 3.2(2)
//!   demands that the i-th stored items of the two summaries arrived at
//!   the same stream position.

use cqs_ostree::OsTree;
use cqs_universe::{Endpoint, Interval, Item};

use crate::implicit::ImplicitOrder;
use crate::model::ComparisonSummary;

/// How a [`StreamState`] represents the stream's order statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamRepr {
    /// Every stream item lives in an order-statistic treap: Θ(N)
    /// memory, supports arbitrary per-item appends. The default.
    Materialized,
    /// Interval-compressed: runs are stored as generators plus a
    /// fragment treap ([`crate::implicit`]), so memory is sublinear in
    /// N. Streams must grow through the run-based entry points
    /// ([`StreamState::push_run_in`] / [`StreamState::index_run_in`]).
    Implicit,
}

/// The order-statistic index behind a [`StreamState`], in either
/// representation. Every query forwards to the active index; the two
/// sides answer byte-identically for the same stream (the implicit
/// side replays the deterministic mint subdivision), which the
/// `cqs-bench` differential suite pins end-to-end.
enum OrderIndex {
    Materialized(OsTree<Item>),
    Implicit(ImplicitOrder),
}

impl OrderIndex {
    fn len(&self) -> u64 {
        match self {
            OrderIndex::Materialized(t) => t.len() as u64,
            OrderIndex::Implicit(i) => i.len(),
        }
    }

    fn count_less(&self, q: &Item) -> u64 {
        match self {
            OrderIndex::Materialized(t) => t.count_less(q) as u64,
            OrderIndex::Implicit(i) => i.count_less(q),
        }
    }

    fn count_le(&self, q: &Item) -> u64 {
        match self {
            OrderIndex::Materialized(t) => t.count_le(q) as u64,
            OrderIndex::Implicit(i) => i.count_le(q),
        }
    }

    fn successor(&self, q: &Item) -> Option<Item> {
        match self {
            OrderIndex::Materialized(t) => t.successor(q).cloned(),
            OrderIndex::Implicit(i) => i.successor(q),
        }
    }

    fn predecessor(&self, q: &Item) -> Option<Item> {
        match self {
            OrderIndex::Materialized(t) => t.predecessor(q).cloned(),
            OrderIndex::Implicit(i) => i.predecessor(q),
        }
    }

    fn min(&self) -> Option<Item> {
        match self {
            OrderIndex::Materialized(t) => t.min().cloned(),
            OrderIndex::Implicit(i) => i.min(),
        }
    }

    fn max(&self) -> Option<Item> {
        match self {
            OrderIndex::Materialized(t) => t.max().cloned(),
            OrderIndex::Implicit(i) => i.max(),
        }
    }

    fn tag_of(&self, q: &Item) -> Option<u64> {
        match self {
            OrderIndex::Materialized(t) => t.tag_of(q),
            OrderIndex::Implicit(i) => i.tag_of(q),
        }
    }

    /// Batched `count_le` over sorted queries, one tree walk.
    fn multi_count_le(&self, qs: &[Item], out: &mut Vec<usize>) {
        match self {
            OrderIndex::Materialized(t) => t.multi_count_le(qs, out),
            OrderIndex::Implicit(i) => i.multi_count_le(qs, out),
        }
    }

    fn multi_tag_of(&self, qs: &[Item], out: &mut Vec<Option<u64>>) {
        match self {
            OrderIndex::Materialized(t) => t.multi_tag_of(qs, out),
            OrderIndex::Implicit(i) => {
                out.clear();
                i.multi_tag_of(qs, out);
            }
        }
    }

    fn for_each_tagged(&self, f: &mut dyn FnMut(&Item, u64)) {
        match self {
            OrderIndex::Materialized(t) => t.for_each_tagged(f),
            OrderIndex::Implicit(i) => i.for_each_tagged(f),
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            OrderIndex::Materialized(t) => t.reserve(additional),
            // The implicit index allocates per fragment, not per item;
            // run counts are unknowable here and tiny anyway.
            OrderIndex::Implicit(_) => {}
        }
    }
}

/// A stream being fed to a summary, with full order-statistic indexing.
pub struct StreamState<S> {
    /// The summary under adversarial attack.
    pub summary: S,
    order: OrderIndex,
    n: u64,
    max_label_depth: usize,
}

impl<S: ComparisonSummary<Item>> StreamState<S> {
    /// Wraps a fresh summary; the stream starts empty. Materialized
    /// representation — see [`with_repr`](Self::with_repr).
    pub fn new(summary: S) -> Self {
        Self::with_repr(summary, StreamRepr::Materialized)
    }

    /// Wraps a fresh summary with an explicit stream representation.
    pub fn with_repr(summary: S, repr: StreamRepr) -> Self {
        let order = match repr {
            StreamRepr::Materialized => OrderIndex::Materialized(OsTree::new()),
            StreamRepr::Implicit => OrderIndex::Implicit(ImplicitOrder::new()),
        };
        StreamState {
            summary,
            order,
            n: 0,
            max_label_depth: 0,
        }
    }

    /// The active stream representation.
    pub fn repr(&self) -> StreamRepr {
        match self.order {
            OrderIndex::Materialized(_) => StreamRepr::Materialized,
            OrderIndex::Implicit(_) => StreamRepr::Implicit,
        }
    }

    /// Whether the stream is interval-compressed.
    pub fn is_implicit(&self) -> bool {
        matches!(self.order, OrderIndex::Implicit(_))
    }

    /// Rebuilds a state from snapshot parts: a restored summary plus the
    /// stream's `(item, arrival tag)` pairs in sorted item order.
    ///
    /// Validates everything a corrupt or hand-forged snapshot could get
    /// wrong — items must be strictly increasing, the tags must be a
    /// permutation of `0..pairs.len()`, and the summary must have
    /// processed exactly `pairs.len()` items — and returns a diagnostic
    /// instead of restoring silently. `max_label_depth` is recomputed
    /// from the items themselves.
    pub fn from_snapshot_parts(summary: S, pairs: Vec<(Item, u64)>) -> Result<Self, String> {
        let n = pairs.len() as u64;
        if !pairs.windows(2).all(|w| match (w.first(), w.last()) {
            (Some(a), Some(b)) => a.0 < b.0,
            _ => true,
        }) {
            return Err("stream snapshot items are not strictly increasing".to_string());
        }
        let mut seen = vec![false; pairs.len()];
        for &(_, tag) in &pairs {
            match seen.get_mut(tag as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(format!(
                        "stream snapshot arrival tags are not a permutation of 0..{n} \
                         (tag {tag} repeated or out of range)"
                    ));
                }
            }
        }
        if summary.items_processed() != n {
            return Err(format!(
                "stream snapshot length {n} disagrees with summary items_processed {}",
                summary.items_processed()
            ));
        }
        let max_label_depth = pairs.iter().map(|(it, _)| it.depth()).max().unwrap_or(0);
        let mut order = OsTree::new();
        order.extend_sorted_tagged(pairs);
        Ok(StreamState {
            summary,
            order: OrderIndex::Materialized(order),
            n,
            max_label_depth,
        })
    }

    /// Visits every stream item in sorted order with its arrival tag —
    /// the exact pairs [`from_snapshot_parts`](Self::from_snapshot_parts)
    /// accepts back.
    pub fn for_each_arrival(&self, f: &mut dyn FnMut(&Item, u64)) {
        self.order.for_each_tagged(f);
    }

    /// Appends one item to the stream and feeds it to the summary.
    ///
    /// # Panics
    ///
    /// Panics if the item already occurred — the adversarial streams
    /// consist of distinct items, and `rank_σ` is only well-defined then.
    pub fn push(&mut self, item: Item) {
        let OrderIndex::Materialized(order) = &mut self.order else {
            // Per-item appends carry no interval, which the implicit
            // index needs to register a run; the adversary rejects
            // per-item insertion mode on implicit streams up front.
            panic!("per-item push requires a materialized stream");
        };
        self.max_label_depth = self.max_label_depth.max(item.depth());
        // The treap descent doubles as the distinctness check, and the
        // node's tag records the arrival position — one walk where the
        // old BTreeMap-plus-treap layout paid for two.
        let fresh = order.insert_unique_tagged(item.clone(), self.n);
        assert!(fresh, "adversarial stream items must be distinct");
        self.summary.insert(item);
        self.n += 1;
    }

    /// Appends a strictly increasing run of fresh items, minted inside
    /// the open interval `iv`, whose closed span `[run[0], run[last]]`
    /// contains no existing stream item — exactly the situation at every
    /// adversary leaf, where the current interval was refined to be empty
    /// of stream items. Returns the largest `|I|` the summary reported at
    /// any point of the run (cf. [`ComparisonSummary::insert_sorted_run`]).
    ///
    /// Equivalent to calling [`push`](Self::push) per item, but the order
    /// index costs one bulk join instead of |run| descents. A
    /// materialized stream indexes the items directly (the interval is
    /// redundant there); an implicit stream registers the interval's run
    /// generator and fragments instead of the items.
    ///
    /// # Panics
    ///
    /// Panics (with the same "distinct" diagnostic as `push`) if the run
    /// is not strictly increasing or its span overlaps existing items.
    pub fn push_run_in(&mut self, iv: &Interval, run: &[Item]) -> usize {
        self.index_run_in(iv, run);
        let peak = self.summary.insert_sorted_run(run);
        self.n += run.len() as u64;
        peak
    }

    /// Indexes a strictly increasing run of fresh items, minted inside
    /// `iv`, in the order index *without* feeding the summary or
    /// advancing the stream length — the first half of
    /// [`push_run_in`](Self::push_run_in), split out for the panic-free
    /// driver: the index must know the items before any summary call so
    /// that, when the summary panics mid-run, rank/next/prev queries for
    /// the partial audit trail stay coherent. Follow up with
    /// [`feed_summary`](Self::feed_summary) per item.
    ///
    /// # Panics
    ///
    /// Same validity requirements as [`push_run_in`](Self::push_run_in);
    /// on an implicit stream additionally panics if the run-id space is
    /// exhausted (callers on the panic-free driver path check
    /// [`runs_exhausted`](Self::runs_exhausted) first).
    pub fn index_run_in(&mut self, iv: &Interval, run: &[Item]) {
        self.validate_run(run);
        match &mut self.order {
            OrderIndex::Materialized(order) => {
                let start = self.n;
                order.extend_sorted_tagged(run.iter().cloned().zip(start..));
            }
            OrderIndex::Implicit(imp) => {
                debug_assert!(
                    run.iter().all(|it| iv.contains(it)),
                    "run item escaped its mint interval"
                );
                imp.insert_run(iv, run);
            }
        }
    }

    /// Shared validity checks of the run entry points: strictly
    /// increasing items whose closed span contains no existing stream
    /// item. Also folds the run into the label-depth statistic.
    fn validate_run(&mut self, run: &[Item]) {
        assert!(
            run.iter().zip(run.iter().skip(1)).all(|(a, b)| a < b),
            "adversarial stream items must be distinct"
        );
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            let occupied = self.order.count_le(last) - self.order.count_less(first);
            assert!(occupied == 0, "adversarial stream items must be distinct");
        }
        for it in run {
            self.max_label_depth = self.max_label_depth.max(it.depth());
        }
    }

    /// Whether the stream can no longer accept runs: an implicit stream
    /// has a `u32` run-id space (4 × 10⁹ runs ≈ 10¹² items at the
    /// adversary's leaf sizes — a capacity probe, not a practical
    /// limit). Materialized streams never exhaust here.
    pub fn runs_exhausted(&self) -> bool {
        match &self.order {
            OrderIndex::Materialized(_) => false,
            OrderIndex::Implicit(imp) => imp.runs_exhausted(),
        }
    }

    /// Feeds one item (already indexed via [`index_run_in`](Self::index_run_in))
    /// to the summary and advances the stream length. The caller is
    /// responsible for feeding items in the same order they were indexed;
    /// the arrival tags assigned by `index_run_in` assume it.
    pub fn feed_summary(&mut self, item: Item) {
        self.summary.insert(item);
        self.n += 1;
    }

    /// Pre-allocates order-statistic index capacity for `additional`
    /// more stream items (see [`OsTree::reserve`]).
    pub fn reserve_items(&mut self, additional: usize) {
        self.order.reserve(additional);
    }

    /// Stream length so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The longest universe label (in bytes) the stream has minted — the
    /// adversary-side cost of the continuity assumption. Balanced
    /// subdivision adds only O(log 1/ε) per leaf, but the in-order
    /// refinement chain can nest Θ(2^k) times when every gap ties (the
    /// store-everything summary), so worst-case depth is Θ(εN) bytes —
    /// matching the paper's remark that the string universe works "by
    /// making the strings even longer".
    pub fn max_label_depth(&self) -> usize {
        self.max_label_depth
    }

    /// Whether the stream is still empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `rank_σ(a)`: 1-based position of `a` in the sorted order of the
    /// stream (valid for any universe item, present or not).
    pub fn rank(&self, a: &Item) -> u64 {
        self.order.count_less(a) + 1
    }

    /// `next(σ, a)`: smallest stream item strictly greater than `a`.
    pub fn next(&self, a: &Item) -> Option<Item> {
        self.order.successor(a)
    }

    /// `prev(σ, b)`: largest stream item strictly smaller than `b`.
    pub fn prev(&self, b: &Item) -> Option<Item> {
        self.order.predecessor(b)
    }

    /// Smallest stream item.
    pub fn min(&self) -> Option<Item> {
        self.order.min()
    }

    /// Largest stream item.
    pub fn max(&self) -> Option<Item> {
        self.order.max()
    }

    /// Arrival position (0-based) of a stream item — the tag its treap
    /// node carries.
    pub fn arrival_of(&self, a: &Item) -> Option<u64> {
        self.order.tag_of(a)
    }

    /// Number of stream items strictly inside the open interval.
    pub fn count_inside(&self, iv: &Interval) -> u64 {
        let below_hi = match iv.hi() {
            Endpoint::PosInf => self.order.len(),
            Endpoint::Finite(h) => self.order.count_less(h),
            Endpoint::NegInf => 0,
        };
        let upto_lo = match iv.lo() {
            Endpoint::NegInf => 0,
            Endpoint::Finite(l) => self.order.count_le(l),
            Endpoint::PosInf => self.order.len(),
        };
        below_hi - upto_lo
    }

    /// The rank of an endpoint within the *restricted substream* of
    /// interval `iv`: the conceptual sorted list
    /// `[lo if finite] ++ (stream items strictly inside iv) ++ [hi if finite]`,
    /// 1-based. The −∞ sentinel has rank 0; the +∞ sentinel has rank
    /// (list length + 1). This realises Definition 5.1's
    /// `rank_σ̄` including the enclosing boundary items of `I^(ℓ,r)`.
    pub fn rank_in(&self, iv: &Interval, x: &Endpoint) -> u64 {
        let lo_finite = matches!(iv.lo(), Endpoint::Finite(_));
        let base = match iv.lo() {
            Endpoint::NegInf => 0,
            Endpoint::Finite(l) => self.order.count_le(l),
            // Interval construction forbids a +inf lower endpoint.
            // cqs-lint: allow(driver-no-panic)
            Endpoint::PosInf => unreachable!("interval lo cannot be +inf"),
        };
        match x {
            Endpoint::NegInf => 0,
            Endpoint::Finite(it) => {
                debug_assert!(
                    iv.lo().cmp_item(it).is_le() && iv.hi().cmp_item(it).is_ge(),
                    "rank_in item outside interval"
                );
                let le = self.order.count_le(it);
                (lo_finite as u64) + le.saturating_sub(base)
            }
            Endpoint::PosInf => (lo_finite as u64) + self.count_inside(iv) + 1,
        }
    }

    /// [`rank_in`](Self::rank_in) for a finite item without wrapping it
    /// in an [`Endpoint`] — the shape the gap scan iterates in, sparing
    /// an `Arc` clone per visited item.
    pub fn rank_in_item(&self, iv: &Interval, it: &Item) -> u64 {
        self.rank_in_item_from(iv, self.rank_base(iv), it)
    }

    /// The interval-lo data that [`rank_in_item`](Self::rank_in_item)
    /// recomputes per call: whether `lo` is finite, and `count_le(lo)`.
    /// Callers ranking many items within one interval hoist this once
    /// and use [`rank_in_item_from`](Self::rank_in_item_from), halving
    /// the treap descents of the scan.
    pub fn rank_base(&self, iv: &Interval) -> (bool, u64) {
        match iv.lo() {
            Endpoint::NegInf => (false, 0),
            Endpoint::Finite(l) => (true, self.order.count_le(l)),
            // Interval construction forbids a +inf lower endpoint. (No
            // lint suppression here: since the fused rank_in_item_from
            // took over the gap scan, no driver root reaches this.)
            Endpoint::PosInf => unreachable!("interval lo cannot be +inf"),
        }
    }

    /// [`rank_in_item`](Self::rank_in_item) with the interval-lo work
    /// precomputed by [`rank_base`](Self::rank_base) — one treap descent
    /// per item instead of two.
    pub fn rank_in_item_from(&self, iv: &Interval, base: (bool, u64), it: &Item) -> u64 {
        debug_assert!(
            iv.lo().cmp_item(it).is_le() && iv.hi().cmp_item(it).is_ge(),
            "rank_in item outside interval"
        );
        let (lo_finite, base) = base;
        let le = self.order.count_le(it);
        (lo_finite as u64) + le.saturating_sub(base)
    }

    /// Batched [`rank_in_item_from`](Self::rank_in_item_from) over the
    /// whole restricted item array: fills `out` with the Definition 5.1
    /// rank sequence
    /// `[rank(lo)] ++ [rank(it) for stored it inside iv] ++ [rank(hi)]`
    /// while collecting the enclosed restricted array — finite
    /// boundaries included — into `items` (O(1) arena clones). ALL ranks
    /// come from ONE batched tree walk ([`OsTree::multi_count_le`], or
    /// the fragment treap's `multi_locate` on an implicit stream):
    /// the finite boundaries ride along as the first/last queries (the
    /// open interval keeps the batch sorted), so the per-call
    /// `rank_base`/`rank_in` descents of the unfused version disappear,
    /// and a +∞ high sentinel needs only the tree size. `les` is the
    /// walk's count scratch.
    ///
    /// Returns the interior offset into `items`: `1` when the low
    /// boundary is finite (and therefore occupies `items[0]`), else `0`
    /// — interior item `j` of the restricted array lives at
    /// `items[j + offset]`.
    pub fn restricted_ranks_inside(
        &self,
        iv: &Interval,
        items: &mut Vec<Item>,
        les: &mut Vec<usize>,
        out: &mut Vec<u64>,
    ) -> usize {
        items.clear();
        let lo_finite = match iv.lo() {
            Endpoint::Finite(l) => {
                items.push(l.clone());
                true
            }
            _ => false,
        };
        self.for_each_stored_inside(iv, &mut |it| items.push(it.clone()));
        let hi_finite = match iv.hi() {
            Endpoint::Finite(h) => {
                items.push(h.clone());
                true
            }
            _ => false,
        };
        self.order.multi_count_le(items, les);
        let lo_off = usize::from(lo_finite);
        let base = if lo_finite {
            les.first().copied().unwrap_or(0) as u64
        } else {
            0
        };
        out.clear();
        out.reserve(les.len() + 2);
        // The low boundary's restricted rank is 1 when finite (it is the
        // array's first element), 0 for the −∞ sentinel.
        out.push(u64::from(lo_finite));
        let interior = les.len().saturating_sub(lo_off + usize::from(hi_finite));
        for &le in les.iter().skip(lo_off).take(interior) {
            out.push(u64::from(lo_finite) + (le as u64).saturating_sub(base));
        }
        let hi_rank = if hi_finite {
            u64::from(lo_finite) + (les.last().copied().unwrap_or(0) as u64).saturating_sub(base)
        } else {
            // +∞ sentinel: one past the whole restricted substream,
            // whose length is the tree size minus everything ≤ lo.
            u64::from(lo_finite) + self.order.len().saturating_sub(base) + 1
        };
        out.push(hi_rank);
        lo_off
    }

    /// Batched [`arrival_of`](Self::arrival_of): arrival tags for a
    /// *sorted* slice of query items, one treap walk for the whole
    /// batch.
    pub fn multi_arrival_of(&self, qs: &[Item], out: &mut Vec<Option<u64>>) {
        self.order.multi_tag_of(qs, out);
    }

    /// The restricted item array `I^(ℓ,r)`: the summary's stored items
    /// that fall strictly inside `iv`, *enclosed* by the interval's own
    /// endpoints (which, per the paper, count as array elements even when
    /// the summary has discarded them).
    pub fn restricted_item_array(&self, iv: &Interval) -> Vec<Endpoint> {
        let mut out = Vec::new();
        out.push(iv.lo().clone());
        self.summary.for_each_item(&mut |it| {
            if iv.contains(it) {
                out.push(Endpoint::Finite(it.clone()));
            }
        });
        out.push(iv.hi().clone());
        out
    }

    /// Visits, in order, the summary's stored items strictly inside `iv`
    /// — the allocation-free face of
    /// [`restricted_item_array`](Self::restricted_item_array), minus the
    /// two boundary entries the caller supplies itself.
    pub fn for_each_stored_inside(&self, iv: &Interval, f: &mut dyn FnMut(&Item)) {
        let lo = match iv.lo() {
            Endpoint::Finite(l) => Some(l),
            _ => None,
        };
        let hi = match iv.hi() {
            Endpoint::Finite(h) => Some(h),
            _ => None,
        };
        self.summary.for_each_item_between(lo, hi, f);
    }

    /// Number of summary-stored items strictly inside `iv`.
    pub fn stored_inside(&self, iv: &Interval) -> usize {
        let mut count = 0usize;
        self.for_each_stored_inside(iv, &mut |_| count += 1);
        count
    }

    /// True rank error of answering rank-query `r` with item `x`:
    /// `|rank_σ(x) − r|`.
    pub fn rank_error(&self, x: &Item, r: u64) -> u64 {
        self.rank(x).abs_diff(r)
    }
}

/// Verifies the *observable* part of stream indistinguishability
/// (Definition 3.2) between the two live states: equal item-array sizes,
/// and positional correspondence — the i-th stored item of each summary
/// arrived at the same position of its stream.
///
/// Returns `Err` with a human-readable reason on the first violation.
/// A violation means the summary is not deterministic-comparison-based
/// (or the construction is buggy); the paper's argument then does not
/// apply, so the harness treats it as fatal.
pub fn check_indistinguishable<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
) -> Result<(), String> {
    let ia = pi.summary.item_array();
    let ib = rho.summary.item_array();
    if ia.len() != ib.len() {
        return Err(format!(
            "item arrays differ in size: |I_pi| = {}, |I_rho| = {}",
            ia.len(),
            ib.len()
        ));
    }
    for (i, (a, b)) in ia.iter().zip(ib.iter()).enumerate() {
        let pa = pi.arrival_of(a);
        let pb = rho.arrival_of(b);
        if pa.is_none() || pb.is_none() {
            return Err(format!(
                "stored item at index {i} never appeared in its stream"
            ));
        }
        if pa != pb {
            return Err(format!(
                "stored items at index {i} arrived at different positions: {pa:?} vs {pb:?}"
            ));
        }
    }
    Ok(())
}

/// Incremental re-verifier for [`check_indistinguishable`] over a
/// growing pair of streams.
///
/// Arrival positions never change once an item enters its stream, so an
/// item's tag, once learned, is valid forever. The checker memoizes
/// tags per side in a direct-mapped arena-id table ([`TagTable`]): each
/// call streams the item arrays straight off the summaries (no
/// materialisation, no item clones for previously seen items) and only
/// never-seen items pay a treap lookup — all of them in one batched
/// walk. Amortized cost per leaf is therefore O(|I| + new·log N)
/// instead of O(|I|·log N), which is what makes the per-leaf
/// Definition 3.2 check affordable at depth k = 12.
///
/// Any anomaly (size mismatch, unknown item, tag divergence) falls back
/// to the full [`check_indistinguishable`] walk, so results — including
/// the diagnostic strings — are always identical to the non-memoized
/// check.
#[derive(Default)]
pub struct EquivalenceChecker {
    tag_pi: TagTable,
    tag_rho: TagTable,
    // Streaming scratch, reused across calls so a steady-state check
    // performs no allocation at all.
    tags_pi: Vec<u64>,
    tags_rho: Vec<u64>,
    misses: Vec<Item>,
    miss_pos: Vec<usize>,
    miss_tags: Vec<Option<u64>>,
}

impl EquivalenceChecker {
    /// A checker with an empty memo (first call runs at full cost).
    pub fn new() -> Self {
        Self::default()
    }

    /// Semantically identical to [`check_indistinguishable`] on the same
    /// pair of states; see the type docs for the cost model.
    pub fn check<S: ComparisonSummary<Item>>(
        &mut self,
        pi: &StreamState<S>,
        rho: &StreamState<S>,
    ) -> Result<(), String> {
        let ok = resolve_side_streaming(
            pi,
            &mut self.tag_pi,
            &mut self.tags_pi,
            &mut self.misses,
            &mut self.miss_pos,
            &mut self.miss_tags,
        ) && resolve_side_streaming(
            rho,
            &mut self.tag_rho,
            &mut self.tags_rho,
            &mut self.misses,
            &mut self.miss_pos,
            &mut self.miss_tags,
        );
        // Equal tag sequences imply equal array sizes (one tag per
        // stored item), so this is the whole Definition 3.2 condition.
        if ok && self.tags_pi == self.tags_rho {
            return Ok(());
        }
        // Anomaly: let the reference walk produce the diagnostic. The
        // tag tables stay — a memoized tag is an immutable fact about
        // its stream, never stale.
        check_indistinguishable(pi, rho)
    }
}

/// Direct-mapped arena-id → arrival-tag memo for one stream side.
///
/// Arrival positions never change once an item enters its stream, and
/// arena ids are globally unique with id equality proving label equality
/// ([`Item::arena_id`]), so `id → tag` is an immutable fact: the table
/// only ever grows and is never invalidated. Ids minted during one
/// adversary run form a compact range, so a plain vector offset by the
/// first id seen beats a hash map; `u32::MAX` marks unknown slots.
///
/// Tags are stored as `u32`: the table is the equivalence check's
/// hottest randomly-accessed structure, and halving its footprint keeps
/// it cache-resident at bench stream lengths. A stream position at or
/// beyond `u32::MAX` (never reached in practice) is simply not
/// memoized — the item stays a miss and resolves through the batched
/// treap walk, costing speed, never correctness.
#[derive(Default)]
struct TagTable {
    base: u32,
    tags: Vec<u32>,
}

impl TagTable {
    const EMPTY: u32 = u32::MAX;

    fn get(&self, id: u32) -> Option<u64> {
        let idx = (id as usize).checked_sub(self.base as usize)?;
        match self.tags.get(idx) {
            Some(&t) if t != Self::EMPTY => Some(u64::from(t)),
            _ => None,
        }
    }

    fn set(&mut self, id: u32, tag: u64) {
        let Ok(tag) = u32::try_from(tag) else {
            // Beyond the compact representation; the item would just
            // stay a cache miss.
            return;
        };
        if tag == Self::EMPTY {
            // The sentinel value itself is likewise unrepresentable.
            return;
        }
        if self.tags.is_empty() {
            self.base = id;
        } else if id < self.base {
            // Rare: an id below the first one seen. Re-base by
            // prepending empty slots.
            let shift = (self.base - id) as usize;
            let old = std::mem::take(&mut self.tags);
            self.tags = std::iter::repeat_n(Self::EMPTY, shift).chain(old).collect();
            self.base = id;
        }
        let idx = (id - self.base) as usize;
        if idx >= self.tags.len() {
            self.tags.resize(idx + 1, Self::EMPTY);
        }
        if let Some(slot) = self.tags.get_mut(idx) {
            *slot = tag;
        }
    }
}

/// Arrival tags of one side's item array, streamed straight off the
/// summary (no intermediate `item_array` materialisation): items seen in
/// any earlier call resolve from the [`TagTable`] in O(1) with no item
/// clone at all, and the newly stored remainder — sorted, because the
/// walk is — pays ONE batched treap walk
/// ([`StreamState::multi_arrival_of`]) instead of an O(log N) descent
/// per miss, then lands in the table for every later call. Fills `tags`
/// with the array's tag sequence. Returns `false` if any item never
/// appeared in its stream (an anomaly; the caller falls back to the
/// reference walk for the diagnostic).
fn resolve_side_streaming<S: ComparisonSummary<Item>>(
    st: &StreamState<S>,
    table: &mut TagTable,
    tags: &mut Vec<u64>,
    misses: &mut Vec<Item>,
    miss_pos: &mut Vec<usize>,
    miss_tags: &mut Vec<Option<u64>>,
) -> bool {
    tags.clear();
    misses.clear();
    miss_pos.clear();
    // The dense id-indexed table spans the full range of arena ids the
    // run has minted — Θ(N) slots. That is the right trade on a
    // materialized stream (which is Θ(N) anyway), but it would be the
    // single superlinear structure of an interval-compressed stream,
    // whose own index already memoizes id → tag in a fixed
    // direct-mapped table (2¹⁹ slots, 6 MiB, whatever N is). So
    // implicit streams skip this table: every item goes through the
    // batched lookup, which the implicit index answers with one slot
    // load per memo hit, re-resolving an item whose slot a later mint
    // overwrote through its run's generator.
    let memoize = !st.is_implicit();
    // Pass 1: table lookups; misses are queued for the batch, with a
    // placeholder tag marking the slot to patch.
    st.summary.for_each_item(&mut |q| {
        let hit = if memoize {
            q.arena_id().and_then(|id| table.get(id))
        } else {
            None
        };
        match hit {
            Some(t) => tags.push(t),
            None => {
                miss_pos.push(tags.len());
                tags.push(0);
                misses.push(q.clone());
            }
        }
    });
    // Pass 2: all index lookups in one walk.
    st.multi_arrival_of(misses, miss_tags);
    if miss_tags.len() != miss_pos.len() {
        return false;
    }
    // Pass 3: patch the batched answers into their slots and memoize.
    for ((&pos, mt), q) in miss_pos.iter().zip(miss_tags.iter()).zip(misses.iter()) {
        match (tags.get_mut(pos), mt) {
            (Some(slot), Some(t)) => {
                *slot = *t;
                if memoize {
                    if let Some(id) = q.arena_id() {
                        table.set(id, *t);
                    }
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ExactSummary;
    use cqs_universe::generate_increasing;

    fn state_with(n: usize) -> StreamState<ExactSummary<Item>> {
        let mut st = StreamState::new(ExactSummary::new());
        for it in generate_increasing(&Interval::whole(), n) {
            st.push(it);
        }
        st
    }

    #[test]
    fn ranks_and_neighbours() {
        let st = state_with(10);
        let items = st.summary.item_array();
        for (i, it) in items.iter().enumerate() {
            assert_eq!(st.rank(it), i as u64 + 1);
        }
        assert_eq!(st.next(&items[3]), Some(items[4].clone()));
        assert_eq!(st.prev(&items[3]), Some(items[2].clone()));
        assert_eq!(st.min(), Some(items[0].clone()));
        assert_eq!(st.max(), Some(items[9].clone()));
    }

    #[test]
    fn rank_in_whole_interval_matches_global_rank() {
        let st = state_with(10);
        let iv = Interval::whole();
        let items = st.summary.item_array();
        assert_eq!(st.rank_in(&iv, &Endpoint::NegInf), 0);
        assert_eq!(st.rank_in(&iv, &Endpoint::PosInf), 11);
        for (i, it) in items.iter().enumerate() {
            assert_eq!(st.rank_in(&iv, &Endpoint::Finite(it.clone())), i as u64 + 1);
        }
    }

    #[test]
    fn rank_in_finite_interval_counts_boundary_as_one() {
        let st = state_with(10);
        let items = st.summary.item_array();
        // Interval (items[2], items[7]): inside are items 3..=6 (4 items).
        let iv = Interval::open(items[2].clone(), items[7].clone());
        assert_eq!(st.count_inside(&iv), 4);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[2].clone())), 1);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[3].clone())), 2);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[6].clone())), 5);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[7].clone())), 6);
    }

    #[test]
    fn restricted_item_array_encloses_with_boundaries() {
        let st = state_with(10);
        let items = st.summary.item_array();
        let iv = Interval::open(items[2].clone(), items[7].clone());
        let arr = st.restricted_item_array(&iv);
        // lo + 4 inside + hi.
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[0], Endpoint::Finite(items[2].clone()));
        assert_eq!(arr[5], Endpoint::Finite(items[7].clone()));
        assert_eq!(st.stored_inside(&iv), 4);
    }

    #[test]
    fn identical_streams_are_indistinguishable() {
        let a = state_with(20);
        let b = state_with(20);
        assert!(check_indistinguishable(&a, &b).is_ok());
    }

    #[test]
    fn different_length_arrays_are_flagged() {
        let a = state_with(20);
        let b = state_with(21);
        assert!(check_indistinguishable(&a, &b).is_err());
    }

    #[test]
    fn incremental_checker_matches_reference_as_streams_grow() {
        let items = generate_increasing(&Interval::whole(), 30);
        let mut a = StreamState::new(ExactSummary::new());
        let mut b = StreamState::new(ExactSummary::new());
        let mut chk = EquivalenceChecker::new();
        for it in items {
            a.push(it.clone());
            b.push(it);
            assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
        }
    }

    #[test]
    fn incremental_checker_reports_reference_diagnostics() {
        let items = generate_increasing(&Interval::whole(), 8);
        let mut a = StreamState::new(ExactSummary::new());
        let mut b = StreamState::new(ExactSummary::new());
        let mut chk = EquivalenceChecker::new();
        // Same first four items, verified once to warm the memo.
        for it in &items[..4] {
            a.push(it.clone());
            b.push(it.clone());
        }
        assert!(chk.check(&a, &b).is_ok());
        // Diverge: the same two items arrive in swapped order, so the
        // sorted arrays agree but positional correspondence breaks and
        // the memoized path must produce the exact reference diagnostics.
        a.push(items[5].clone());
        a.push(items[4].clone());
        b.push(items[4].clone());
        b.push(items[5].clone());
        assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
        assert!(chk.check(&a, &b).is_err());
        // After a fallback the memo restarts cold and keeps agreeing.
        a.push(items[6].clone());
        b.push(items[6].clone());
        assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_stream_items_rejected() {
        let mut st = StreamState::new(ExactSummary::new());
        let it = generate_increasing(&Interval::whole(), 1).pop().unwrap();
        st.push(it.clone());
        st.push(it);
    }

    #[test]
    fn push_run_matches_per_item_push() {
        let items = generate_increasing(&Interval::whole(), 24);
        let mut bulk = StreamState::new(ExactSummary::new());
        bulk.push_run_in(&Interval::whole(), &items);
        let mut single = StreamState::new(ExactSummary::new());
        for it in items.clone() {
            single.push(it);
        }
        assert_eq!(bulk.len(), single.len());
        assert_eq!(bulk.summary.item_array(), single.summary.item_array());
        for it in &items {
            assert_eq!(bulk.rank(it), single.rank(it));
            assert_eq!(bulk.arrival_of(it), single.arrival_of(it));
            assert_eq!(bulk.next(it), single.next(it));
            assert_eq!(bulk.prev(it), single.prev(it));
        }
    }

    #[test]
    fn push_run_tracks_label_depth_and_peak() {
        let items = generate_increasing(&Interval::whole(), 8);
        let depth = items.iter().map(|i| i.depth()).max().unwrap();
        let mut st = StreamState::new(ExactSummary::new());
        let peak = st.push_run_in(&Interval::whole(), &items);
        assert_eq!(peak, 8, "exact summary peak is the run length");
        assert_eq!(st.max_label_depth(), depth);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn push_run_rejects_span_overlapping_existing_items() {
        let items = generate_increasing(&Interval::whole(), 4);
        let mut st = StreamState::new(ExactSummary::new());
        st.push(items[1].clone());
        // The run's closed span [items[0], items[2]] contains items[1].
        st.push_run_in(&Interval::whole(), &[items[0].clone(), items[2].clone()]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn push_run_rejects_non_increasing_runs() {
        let items = generate_increasing(&Interval::whole(), 2);
        let mut st = StreamState::new(ExactSummary::new());
        st.push_run_in(&Interval::whole(), &[items[1].clone(), items[0].clone()]);
    }
}
