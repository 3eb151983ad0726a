//! Interval-compressed stream index — the billion-item adversary's
//! order statistics without the billion items.
//!
//! The materialized [`StreamState`](crate::state::StreamState) keeps
//! every appended item in an order-statistic treap, so memory grows as
//! Θ(N). But the adversary's stream has far more structure than an
//! arbitrary item sequence: it is a concatenation of *runs*, each run
//! minted by the deterministic balanced subdivision of
//! [`cqs_universe::generate_increasing`] inside one open interval. A
//! run is therefore a **pure function of its interval and count** — the
//! stream is fully described by the run table, which has one entry per
//! leaf of the recursion tree (2^{k-1} entries) instead of one per item
//! (N = (1/ε)·2^k).
//!
//! [`ImplicitOrder`] stores exactly that: a [`RunGenerator`] per run
//! (the label oracle), a fragment treap ([`RunTree`]) ordering the
//! runs' contiguous blocks by label with cached *virtual* counts, and a
//! direct-mapped id→arrival-tag memo so the hot queries — rank and
//! arrival tag of summary-retained items — skip the O(log n · |label|)
//! generator descent. The memo is a fixed table of `MEMO_CAP` slots
//! (6 MiB, allocated with the first run): a later mint whose id
//! aliases a retained item's slot evicts it, and that item's next
//! query takes the descent and re-memoizes. Every answer is
//! byte-identical to what the materialized treap over the same stream
//! would give (the differential suite in `cqs-bench` pins this at
//! moderate N), because both sides replay the identical subdivision.
//!
//! Memory is O(#fragments + summary-retained label bytes) plus the
//! constant-size memo: sublinear in N, which is what lets the Theorem
//! 2.2 sweep verify the Ω((1/ε)·log εN) shape at N = 10⁸–10⁹ on one
//! machine.

use std::cell::RefCell;

use cqs_ostree::{Fragment, RunTree};
use cqs_universe::{Interval, Item, RunGenerator};

/// Direct-mapped memo from arena id to global arrival tag.
///
/// A fixed power-of-two number of slots in two parallel vectors: id `i`
/// lives in slot `i & mask`, and `ids` holds `i + 1` so that a zeroed
/// slot reads as empty (safe because [`Item::arena_id`] never returns
/// `u32::MAX`). A hit is one load and one compare; an insert overwrites
/// its slot. Two ids that share a slot evict each other — a lookup that
/// misses falls back to the generator descent, so aliasing costs time,
/// never an answer.
///
/// Seeded when a run is inserted (every item's tag is known at that
/// moment for free) and consulted on every rank / tag query. The
/// vectors are allocated on the first insert, not in [`TagMemo::new`],
/// so building an index that never receives a run costs nothing.
struct TagMemo {
    mask: u32,
    ids: Vec<u32>,
    tags: Vec<u64>,
}

impl TagMemo {
    /// A memo of `slots` slots (a power of two), not yet allocated.
    fn new(slots: u32) -> Self {
        debug_assert!(slots.is_power_of_two(), "memo slots must be a power of two");
        TagMemo {
            mask: slots - 1,
            ids: Vec::new(),
            tags: Vec::new(),
        }
    }

    fn get(&self, id: u32) -> Option<u64> {
        let slot = (id & self.mask) as usize;
        match self.ids.get(slot) {
            Some(&stored) if Some(stored) == id.checked_add(1) => self.tags.get(slot).copied(),
            _ => None,
        }
    }

    fn insert(&mut self, id: u32, tag: u64) {
        let Some(stored) = id.checked_add(1) else {
            return;
        };
        if self.ids.is_empty() {
            let slots = self.mask as usize + 1;
            self.ids = vec![0; slots];
            self.tags = vec![0; slots];
        }
        let slot = (id & self.mask) as usize;
        if let (Some(i), Some(t)) = (self.ids.get_mut(slot), self.tags.get_mut(slot)) {
            *i = stored;
            *t = tag;
        }
    }
}

/// Memo slots: 2¹⁹ × (4 + 8) bytes = 6 MiB, independent of N. Holds
/// the summary's working set (stored items plus the latest leaf runs)
/// with ample slack; past 2¹⁹ mints, later ids alias earlier ones'
/// slots and evicted items re-resolve through the generator.
const MEMO_CAP: u32 = 1 << 19;

/// The interval-compressed order index. See the module docs.
pub(crate) struct ImplicitOrder {
    /// Label oracle per run, indexed by the `run` field of fragments.
    gens: Vec<RunGenerator>,
    /// Global arrival tag of each run's item 0: runs arrive whole, so
    /// the tag of run `r`'s `j`-th item is `starts[r] + j`.
    starts: Vec<u64>,
    /// Fragments of contiguous in-run index ranges, in label order.
    tree: RunTree<Item>,
    /// Total virtual items (= stream length so far).
    len: u64,
    /// Id → arrival tag fast path; interior-mutable because `tag_of`
    /// takes `&self` but re-memoizes what it resolves on a miss.
    memo: RefCell<TagMemo>,
}

impl ImplicitOrder {
    pub(crate) fn new() -> Self {
        ImplicitOrder {
            gens: Vec::new(),
            starts: Vec::new(),
            tree: RunTree::new(),
            len: 0,
            memo: RefCell::new(TagMemo::new(MEMO_CAP)),
        }
    }

    /// Number of virtual items indexed.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Number of fragments — the actual resident footprint driver.
    #[cfg(test)]
    pub(crate) fn fragment_count(&self) -> usize {
        self.tree.fragment_count()
    }

    /// Appends a freshly minted run of `items` (strictly increasing,
    /// all inside the open interval `iv`) to the stream.
    ///
    /// The adversary only ever mints into an interval whose endpoints
    /// are order-adjacent existing stream items (or ±∞), so at most the
    /// fragment containing `iv`'s low endpoint needs splitting — the
    /// high endpoint is the very next virtual item and lands on a
    /// fragment boundary automatically.
    ///
    /// # Panics
    ///
    /// Panics if the run table would exceed the fragment treap's `u32`
    /// run-id space; callers on the panic-free driver path check
    /// [`Self::runs_exhausted`] before minting.
    pub(crate) fn insert_run(&mut self, iv: &Interval, items: &[Item]) {
        let Some((first, last)) = items.first().zip(items.last()) else {
            return;
        };
        assert!(
            self.gens.len() < u32::MAX as usize,
            "implicit stream exhausted the u32 run-id space"
        );
        self.split_at_endpoint(iv);
        let run = self.gens.len() as u32;
        let count = items.len() as u64;
        self.tree.insert_fragment(Fragment {
            lo: first.clone(),
            hi: last.clone(),
            count,
            run,
            base: 0,
        });
        let start = self.len;
        {
            let mut memo = self.memo.borrow_mut();
            for (j, it) in items.iter().enumerate() {
                if let Some(id) = it.arena_id() {
                    memo.insert(id, start + j as u64);
                }
            }
        }
        self.gens.push(RunGenerator::new(iv, count));
        self.starts.push(start);
        self.len += count;
    }

    /// Whether one more run can be registered without overflowing the
    /// `u32` run-id space.
    pub(crate) fn runs_exhausted(&self) -> bool {
        self.gens.len() >= u32::MAX as usize
    }

    /// Splits the fragment containing `iv`'s low endpoint so the
    /// endpoint becomes a fragment's `hi`. No-op when the endpoint is
    /// infinite, not inside any fragment, or already a boundary.
    fn split_at_endpoint(&mut self, iv: &Interval) {
        let cqs_universe::Endpoint::Finite(a) = iv.lo() else {
            return;
        };
        let needs_split = match self.tree.locate(a).hit {
            Some(f) => f.hi != *a,
            None => false,
        };
        if !needs_split {
            return;
        }
        // A locate hit guarantees both lookups succeed; on the guarded
        // driver path we still degrade to a no-op (reinserting what was
        // removed) rather than unwind.
        let Some(f) = self.tree.remove_containing(a) else {
            return;
        };
        let Some(gen) = self.gens.get(f.run as usize) else {
            self.tree.insert_fragment(f);
            return;
        };
        let Some(idx) = self.id_index(f.run, a).or_else(|| gen.index_of(a.label())) else {
            self.tree.insert_fragment(f);
            return;
        };
        debug_assert!(idx >= f.base && idx < f.base + f.count);
        let left = Fragment {
            lo: f.lo,
            hi: a.clone(),
            count: idx + 1 - f.base,
            run: f.run,
            base: f.base,
        };
        let right = Fragment {
            lo: gen.item_at(idx + 1),
            hi: f.hi,
            count: f.base + f.count - idx - 1,
            run: f.run,
            base: idx + 1,
        };
        debug_assert!(right.count >= 1, "endpoint was not mid-fragment after all");
        self.tree.insert_fragment(left);
        self.tree.insert_fragment(right);
    }

    /// Memo fast path: the in-run index of `q` within run `run`, if the
    /// memo knows `q`'s arrival tag and it belongs to that run.
    fn id_index(&self, run: u32, q: &Item) -> Option<u64> {
        let id = q.arena_id()?;
        let tag = self.memo.borrow().get(id)?;
        let start = *self.starts.get(run as usize)?;
        let idx = tag.checked_sub(start)?;
        (idx < self.gens.get(run as usize)?.count()).then_some(idx)
    }

    /// How many items of `f`'s run compare below `q` (or `<= q` when
    /// `inclusive`), for a `q` inside `f`'s closed range: by subtraction
    /// on a memo hit, else by the generator descent.
    fn in_run_count(&self, f: &Fragment<Item>, q: &Item, inclusive: bool) -> u64 {
        match self.id_index(f.run, q) {
            Some(idx) if idx >= f.base && idx < f.base + f.count => idx + u64::from(inclusive),
            _ => self.gens.get(f.run as usize).map_or(f.base, |g| {
                if inclusive {
                    g.count_le(q.label())
                } else {
                    g.count_less(q.label())
                }
            }),
        }
    }

    /// How many stream items compare strictly below `q`.
    pub(crate) fn count_less(&self, q: &Item) -> u64 {
        let l = self.tree.locate(q);
        l.before + l.hit.map_or(0, |f| self.in_run_count(f, q, false) - f.base)
    }

    /// How many stream items compare `<= q`.
    pub(crate) fn count_le(&self, q: &Item) -> u64 {
        let l = self.tree.locate(q);
        l.before + l.hit.map_or(0, |f| self.in_run_count(f, q, true) - f.base)
    }

    /// Batched [`Self::count_le`] over label-sorted queries: one
    /// fragment-treap walk for the whole batch. Counts land in `usize`
    /// scratch, the materialized treap's native width; they stay exact
    /// because stream lengths stay far below `usize::MAX` on the 64-bit
    /// targets the billion-item sweep runs on.
    pub(crate) fn multi_count_le(&self, qs: &[Item], out: &mut Vec<usize>) {
        out.clear();
        out.reserve(qs.len());
        self.tree.multi_locate(qs, &mut |q, before, hit| {
            let le = before + hit.map_or(0, |f| self.in_run_count(f, q, true) - f.base);
            out.push(le as usize);
        });
    }

    /// The arrival tag of stream item `q`, if `q` is in the stream.
    pub(crate) fn tag_of(&self, q: &Item) -> Option<u64> {
        if let Some(id) = q.arena_id() {
            if let Some(tag) = self.memo.borrow().get(id) {
                return Some(tag);
            }
        }
        let f = self.tree.locate(q).hit?;
        let idx = self.gens.get(f.run as usize)?.index_of(q.label())?;
        debug_assert!(idx >= f.base && idx < f.base + f.count);
        let tag = *self.starts.get(f.run as usize)? + idx;
        if let Some(id) = q.arena_id() {
            self.memo.borrow_mut().insert(id, tag);
        }
        Some(tag)
    }

    /// The smallest stream item strictly above `q`, freshly
    /// materialized. Label-equality makes the mint interchangeable with
    /// the original arrival.
    pub(crate) fn successor(&self, q: &Item) -> Option<Item> {
        let l = self.tree.locate(q);
        if let Some(f) = l.hit {
            let le_in_run = self.in_run_count(f, q, true);
            if le_in_run < f.base + f.count {
                return self.gens.get(f.run as usize).map(|g| g.item_at(le_in_run));
            }
        }
        l.succ.map(|s| s.lo.clone())
    }

    /// The largest stream item strictly below `q`, freshly materialized.
    pub(crate) fn predecessor(&self, q: &Item) -> Option<Item> {
        let l = self.tree.locate(q);
        if let Some(f) = l.hit {
            let less_in_run = self.in_run_count(f, q, false);
            if less_in_run > f.base {
                return self
                    .gens
                    .get(f.run as usize)
                    .map(|g| g.item_at(less_in_run - 1));
            }
        }
        l.pred.map(|p| p.hi.clone())
    }

    /// The smallest stream item.
    pub(crate) fn min(&self) -> Option<Item> {
        self.tree.first().map(|f| f.lo.clone())
    }

    /// The largest stream item.
    pub(crate) fn max(&self) -> Option<Item> {
        self.tree.last().map(|f| f.hi.clone())
    }

    /// Batched [`Self::tag_of`] over label-sorted queries. Answered
    /// per item: a memo hit needs no tree walk at all, and a batched
    /// fragment walk over every query measured several times slower.
    pub(crate) fn multi_tag_of(&self, qs: &[Item], out: &mut Vec<Option<u64>>) {
        out.reserve(qs.len());
        for q in qs {
            out.push(self.tag_of(q));
        }
    }

    /// Visits every stream item in label order with its arrival tag,
    /// materializing each item on the fly. O(N log N) label mints —
    /// meant for snapshots and differential tests at moderate N, not
    /// for the billion-item hot path.
    pub(crate) fn for_each_tagged(&self, f: &mut dyn FnMut(&Item, u64)) {
        self.tree.for_each(&mut |frag| {
            let (Some(gen), Some(&start)) = (
                self.gens.get(frag.run as usize),
                self.starts.get(frag.run as usize),
            ) else {
                return;
            };
            for j in frag.base..frag.base + frag.count {
                let it = gen.item_at(j);
                f(&it, start + j);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_ostree::OsTree;
    use cqs_universe::{generate_increasing, Endpoint};

    /// Builds the same stream both ways: a materialized treap and an
    /// implicit index with `memo_slots` memo slots, from a root run
    /// refined twice in the adversary's pattern (mint between
    /// order-adjacent items).
    fn build_both(root_n: usize, leaf_n: usize, memo_slots: u32) -> (OsTree<Item>, ImplicitOrder) {
        let mut mat = OsTree::new();
        let mut imp = ImplicitOrder::new();
        imp.memo.replace(TagMemo::new(memo_slots));
        let mut tag = 0u64;
        let mut feed =
            |mat: &mut OsTree<Item>, imp: &mut ImplicitOrder, iv: &Interval, n: usize| {
                let items = generate_increasing(iv, n);
                for it in &items {
                    mat.insert_unique_tagged(it.clone(), tag);
                    tag += 1;
                }
                imp.insert_run(iv, &items);
                items
            };
        let whole = Interval::whole();
        let root = feed(&mut mat, &mut imp, &whole, root_n);
        // Refine between two order-adjacent items in the middle.
        let m = root_n / 2;
        let iv1 = Interval::open(root[m].clone(), root[m + 1].clone());
        let left = feed(&mut mat, &mut imp, &iv1, leaf_n);
        // And again inside the new run (order-adjacent pair of it).
        let iv2 = Interval::open(left[0].clone(), left[1].clone());
        feed(&mut mat, &mut imp, &iv2, leaf_n);
        // Also refine at a fragment boundary: just above the root max.
        let iv3 = Interval::new(Endpoint::Finite(root[root_n - 1].clone()), Endpoint::PosInf);
        feed(&mut mat, &mut imp, &iv3, leaf_n);
        (mat, imp)
    }

    /// Every point query on `imp` agrees with the treap, on stream
    /// items and on probes between adjacent items.
    fn assert_matches_treap(mat: &OsTree<Item>, imp: &ImplicitOrder) {
        assert_eq!(imp.len(), mat.len() as u64);
        let mut all: Vec<(Item, u64)> = Vec::new();
        mat.for_each_tagged(&mut |it, t| all.push((it.clone(), t)));
        for (it, t) in &all {
            assert_eq!(imp.count_less(it), mat.count_less(it) as u64);
            assert_eq!(imp.count_le(it), mat.count_le(it) as u64);
            assert_eq!(imp.tag_of(it), Some(*t));
            assert_eq!(imp.successor(it), mat.successor(it).cloned());
            assert_eq!(imp.predecessor(it), mat.predecessor(it).cloned());
        }
        assert_eq!(imp.min(), mat.min().cloned());
        assert_eq!(imp.max(), mat.max().cloned());
        // Probes between adjacent stream items.
        for w in all.windows(2) {
            if w[0].0 < w[1].0 {
                let probe = cqs_universe::between_items(&w[0].0, &w[1].0);
                assert_eq!(imp.count_less(&probe), mat.count_less(&probe) as u64);
                assert_eq!(imp.count_le(&probe), mat.count_le(&probe) as u64);
                assert_eq!(imp.tag_of(&probe), None);
                assert_eq!(imp.successor(&probe), mat.successor(&probe).cloned());
                assert_eq!(imp.predecessor(&probe), mat.predecessor(&probe).cloned());
            }
        }
    }

    #[test]
    fn matches_materialized_treap_on_refined_stream() {
        let (mat, imp) = build_both(32, 8, MEMO_CAP);
        assert_matches_treap(&mat, &imp);
    }

    #[test]
    fn aliased_memo_matches_materialized_treap() {
        // Four slots for ~56 items: later runs' ids overwrite the slots
        // of earlier retained items, so most queries miss and take the
        // generator descent.
        let (mat, imp) = build_both(32, 8, 4);
        assert_matches_treap(&mat, &imp);
        // A second pass sees the slots the first pass re-memoized.
        assert_matches_treap(&mat, &imp);
    }

    #[test]
    fn tag_memo_slot_edges() {
        let mut memo = TagMemo::new(4);
        // Never allocated: every lookup misses.
        assert_eq!(memo.get(0), None);
        assert_eq!(memo.get(u32::MAX - 1), None);
        assert!(memo.ids.is_empty() && memo.tags.is_empty());
        // The largest real id is stored as `u32::MAX` in its slot.
        memo.insert(u32::MAX - 1, 7);
        assert_eq!(memo.ids.len(), 4);
        assert_eq!(memo.get(u32::MAX - 1), Some(7));
        // Empty slots read as absent, including for id 0.
        assert_eq!(memo.get(0), None);
        assert_eq!(memo.get(1), None);
        // The `NO_ID` sentinel is never stored and never found.
        memo.insert(u32::MAX, 9);
        assert_eq!(memo.get(u32::MAX), None);
        assert_eq!(memo.get(u32::MAX - 1), Some(7));
        // An aliasing id overwrites the slot.
        memo.insert(2, 11);
        assert_eq!(memo.get(2), Some(11));
        assert_eq!(memo.get(u32::MAX - 1), None);
    }

    #[test]
    fn replay_visits_identical_items_and_tags() {
        let (mat, imp) = build_both(16, 4, MEMO_CAP);
        let mut a: Vec<(Vec<u8>, u64)> = Vec::new();
        mat.for_each_tagged(&mut |it, t| a.push((it.label().to_vec(), t)));
        let mut b: Vec<(Vec<u8>, u64)> = Vec::new();
        imp.for_each_tagged(&mut |it, t| b.push((it.label().to_vec(), t)));
        assert_eq!(a, b);
    }

    #[test]
    fn fresh_remints_resolve_without_memo() {
        let (mat, imp) = build_both(16, 4, MEMO_CAP);
        let mut items: Vec<(Item, u64)> = Vec::new();
        mat.for_each_tagged(&mut |it, t| items.push((it.clone(), t)));
        for (it, t) in &items {
            // A brand-new mint of the same label: different arena id,
            // so every memo lookup misses and the generator descent
            // must produce the same answers.
            let fresh = Item::from_label(it.label().to_vec());
            assert_eq!(imp.tag_of(&fresh), Some(*t));
            assert_eq!(imp.count_less(&fresh), mat.count_less(it) as u64);
        }
    }

    #[test]
    fn multi_queries_match_scalar_queries() {
        let (mat, imp) = build_both(16, 4, MEMO_CAP);
        let mut qs: Vec<Item> = Vec::new();
        mat.for_each_tagged(&mut |it, _| qs.push(it.clone()));
        let mut tags = Vec::new();
        imp.multi_tag_of(&qs, &mut tags);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(tags[i], imp.tag_of(q));
        }
        // Counts over stream items interleaved with probes between
        // them, on a full memo and on an aliased one.
        let mut mixed = Vec::new();
        for w in qs.windows(2) {
            mixed.push(w[0].clone());
            mixed.push(cqs_universe::between_items(&w[0], &w[1]));
        }
        let (_, aliased) = build_both(16, 4, 4);
        for imp in [&imp, &aliased] {
            let mut les = Vec::new();
            imp.multi_count_le(&mixed, &mut les);
            let want: Vec<usize> = mixed.iter().map(|q| imp.count_le(q) as usize).collect();
            assert_eq!(les, want);
            let want: Vec<usize> = mixed.iter().map(|q| mat.count_le(q)).collect();
            assert_eq!(les, want);
        }
    }

    #[test]
    fn memo_aliasing_keeps_answers_correct() {
        let mut imp = ImplicitOrder::new();
        imp.memo.replace(TagMemo::new(4)); // force constant aliasing
        let whole = Interval::whole();
        let items = generate_increasing(&whole, 64);
        imp.insert_run(&whole, &items);
        let iv = Interval::open(items[10].clone(), items[11].clone());
        let inner = generate_increasing(&iv, 32);
        imp.insert_run(&iv, &inner);
        for (j, it) in items.iter().enumerate() {
            let extra = if j <= 10 { 0 } else { 32 };
            assert_eq!(imp.count_less(it), j as u64 + extra);
            assert_eq!(imp.tag_of(it), Some(j as u64));
        }
        for (j, it) in inner.iter().enumerate() {
            assert_eq!(imp.count_less(it), 11 + j as u64);
            assert_eq!(imp.tag_of(it), Some(64 + j as u64));
        }
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let mut imp = ImplicitOrder::new();
        imp.insert_run(&Interval::whole(), &[]);
        assert_eq!(imp.len(), 0);
        assert_eq!(imp.fragment_count(), 0);
        assert!(imp.min().is_none() && imp.max().is_none());
    }
}
