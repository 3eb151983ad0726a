//! An order-statistic treap over *runs* of virtual items.
//!
//! The adversary's interval-compressed stream representation stores, per
//! contiguous block of minted items, one [`Fragment`]: the block's first
//! and last (materialized) items, the count of virtual items between and
//! including them, and bookkeeping locating the block inside its minted
//! run. A [`RunTree`] keeps the fragments in label order and caches the
//! **virtual** subtree size (sum of fragment counts) at every node, so
//! rank ([`locate`](RunTree::locate)) and select
//! ([`select`](RunTree::select)) descend in O(log #fragments) while
//! representing arbitrarily many items per fragment.
//!
//! The tree compares only the fragments' endpoint items (`T: Ord`) —
//! everything *between* a fragment's endpoints is opaque to it. Point
//! queries that land inside a fragment are answered by the caller (the
//! implicit stream keeps a run-label generator per run); the tree's job
//! is to find the fragment and the virtual count to its left.
//!
//! Arena discipline, deterministic SplitMix64 priorities, and the
//! split/merge machinery mirror [`crate::OsTree`] — a tree built by the
//! same operation sequence always has the same shape.

/// Sentinel link: no child / empty tree.
const NIL: u32 = u32::MAX;

/// One contiguous block of virtual items: every item of run `run` with
/// in-run index in `[base, base + count)`. `lo` and `hi` are the
/// materialized first and last items of the block (equal when
/// `count == 1`).
#[derive(Clone, Debug)]
pub struct Fragment<T> {
    /// First item of the block (inclusive).
    pub lo: T,
    /// Last item of the block (inclusive).
    pub hi: T,
    /// Number of virtual items in the block (≥ 1).
    pub count: u64,
    /// Caller-side run identifier (index into the run-generator table).
    pub run: u32,
    /// In-run index of `lo`.
    pub base: u64,
}

struct Node<T> {
    frag: Fragment<T>,
    pri: u64,
    left: u32,
    right: u32,
    /// Virtual items in this subtree: `frag.count` + both children.
    subtotal: u64,
}

/// Where a point query landed: the virtual count strictly left of the
/// probe's fragment, the fragment containing it (if any), and the
/// in-order neighbor fragments.
pub struct Locate<'a, T> {
    /// Virtual items in fragments wholly below the probe.
    pub before: u64,
    /// The fragment with `lo <= q <= hi`, if one exists.
    pub hit: Option<&'a Fragment<T>>,
    /// Nearest fragment wholly below the probe (below `hit` when hit).
    pub pred: Option<&'a Fragment<T>>,
    /// Nearest fragment wholly above the probe (above `hit` when hit).
    pub succ: Option<&'a Fragment<T>>,
}

/// The fragment treap. See the module docs.
pub struct RunTree<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    root: u32,
    state: u64,
}

impl<T: Ord + Clone> Default for RunTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone> RunTree<T> {
    /// An empty tree with the default deterministic priority seed.
    pub fn new() -> Self {
        Self::with_seed(0x9e37_79b9_7f4a_7c15)
    }

    /// An empty tree with an explicit priority seed.
    pub fn with_seed(seed: u64) -> Self {
        RunTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            state: seed,
        }
    }

    /// Total virtual items across all fragments.
    pub fn virtual_len(&self) -> u64 {
        subtotal(&self.nodes, self.root)
    }

    /// Number of stored fragments.
    pub fn fragment_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the tree stores no fragments.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Pre-allocates arena capacity for `additional` more fragments.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes
            .reserve(additional.saturating_sub(self.free.len()));
    }

    fn node(&self, link: u32) -> Option<&Node<T>> {
        self.nodes.get(link as usize)
    }

    fn frag_at(&self, link: u32) -> Option<&Fragment<T>> {
        self.node(link).map(|n| &n.frag)
    }

    /// SplitMix64 step — same deterministic sequence discipline as
    /// [`crate::OsTree`].
    fn next_pri(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn alloc(&mut self, frag: Fragment<T>) -> u32 {
        let pri = self.next_pri();
        let node = Node {
            subtotal: frag.count,
            frag,
            pri,
            left: NIL,
            right: NIL,
        };
        if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.nodes.get_mut(idx as usize) {
                *slot = node;
            }
            return idx;
        }
        assert!(
            self.nodes.len() < NIL as usize,
            "RunTree arena exhausted the u32 index space"
        );
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Inserts a fragment. The caller guarantees its item range
    /// `[lo, hi]` is disjoint from every stored fragment's range.
    pub fn insert_fragment(&mut self, frag: Fragment<T>) {
        debug_assert!(frag.count >= 1, "fragments hold at least one item");
        debug_assert!(frag.lo <= frag.hi, "fragment endpoints out of order");
        let idx = self.alloc(frag);
        let (lt, ge) = split_idx(&mut self.nodes, self.root, idx);
        let merged = merge(&mut self.nodes, lt, idx);
        self.root = merge(&mut self.nodes, merged, ge);
    }

    /// Removes and returns the fragment whose closed range contains `q`,
    /// if any. Used to split a fragment: remove it, then insert the
    /// replacement pieces.
    pub fn remove_containing(&mut self, q: &T) -> Option<Fragment<T>> {
        let mut ab = (NIL, NIL);
        split_hi_lt(&mut self.nodes, self.root, q, &mut ab);
        let (below, rest) = ab;
        let mut bc = (NIL, NIL);
        split_lo_le(&mut self.nodes, rest, q, &mut bc);
        let (hit, above) = bc;
        let taken = self.node(hit).map(|n| {
            // Disjoint ranges: at most one fragment can contain q, so
            // the middle part is a single node.
            debug_assert!(n.left == NIL && n.right == NIL);
            n.frag.clone()
        });
        if taken.is_some() {
            self.free.push(hit);
        }
        self.root = merge(&mut self.nodes, below, above);
        taken
    }

    /// Point query: finds the fragment containing `q` (closed range),
    /// the virtual count strictly left of it, and the neighbor
    /// fragments. When no fragment contains `q`, `before` counts every
    /// virtual item in fragments below `q`.
    pub fn locate(&self, q: &T) -> Locate<'_, T> {
        let mut before = 0u64;
        let mut link = self.root;
        let mut pred = NIL;
        let mut succ = NIL;
        while let Some(node) = self.node(link) {
            if *q < node.frag.lo {
                succ = link;
                link = node.left;
            } else if *q > node.frag.hi {
                before += subtotal(&self.nodes, node.left) + node.frag.count;
                pred = link;
                link = node.right;
            } else {
                before += subtotal(&self.nodes, node.left);
                let p = rightmost(&self.nodes, node.left);
                if p != NIL {
                    pred = p;
                }
                let s = leftmost(&self.nodes, node.right);
                if s != NIL {
                    succ = s;
                }
                return Locate {
                    before,
                    hit: Some(&node.frag),
                    pred: self.frag_at(pred),
                    succ: self.frag_at(succ),
                };
            }
        }
        Locate {
            before,
            hit: None,
            pred: self.frag_at(pred),
            succ: self.frag_at(succ),
        }
    }

    /// Batched [`locate`](Self::locate) over sorted queries, without
    /// the neighbor fragments: one walk for the whole batch, calling
    /// `visit(q, before, hit)` once per query, in query order.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `qs` is sorted non-decreasingly.
    pub fn multi_locate<'a>(
        &'a self,
        qs: &[T],
        visit: &mut impl FnMut(&T, u64, Option<&'a Fragment<T>>),
    ) {
        debug_assert!(
            qs.iter().zip(qs.iter().skip(1)).all(|(a, b)| a <= b),
            "multi_locate queries must be sorted"
        );
        multi_locate_walk(&self.nodes, self.root, qs, 0, visit);
    }

    /// The fragment holding the virtual item of 0-based global rank `r`,
    /// plus the item's offset within the fragment.
    pub fn select(&self, r: u64) -> Option<(&Fragment<T>, u64)> {
        let mut link = self.root;
        let mut r = r;
        while let Some(node) = self.node(link) {
            let ls = subtotal(&self.nodes, node.left);
            if r < ls {
                link = node.left;
            } else if r < ls + node.frag.count {
                return Some((&node.frag, r - ls));
            } else {
                r -= ls + node.frag.count;
                link = node.right;
            }
        }
        None
    }

    /// The lowest fragment.
    pub fn first(&self) -> Option<&Fragment<T>> {
        self.frag_at(leftmost(&self.nodes, self.root))
    }

    /// The highest fragment.
    pub fn last(&self) -> Option<&Fragment<T>> {
        self.frag_at(rightmost(&self.nodes, self.root))
    }

    /// Visits every fragment in label order.
    pub fn for_each(&self, f: &mut dyn FnMut(&Fragment<T>)) {
        fn walk<T>(nodes: &[Node<T>], link: u32, f: &mut dyn FnMut(&Fragment<T>)) {
            let Some(node) = nodes.get(link as usize) else {
                return;
            };
            walk(nodes, node.left, f);
            f(&node.frag);
            walk(nodes, node.right, f);
        }
        walk(&self.nodes, self.root, f);
    }
}

/// [`RunTree::multi_locate`]'s walk: `qs` splits at each node into the
/// queries below its fragment, inside it, and above it; `acc` counts the
/// virtual items left of the subtree.
fn multi_locate_walk<'a, T: Ord>(
    nodes: &'a [Node<T>],
    link: u32,
    qs: &[T],
    acc: u64,
    visit: &mut impl FnMut(&T, u64, Option<&'a Fragment<T>>),
) {
    if qs.is_empty() {
        return;
    }
    match nodes.get(link as usize) {
        None => {
            for q in qs {
                visit(q, acc, None);
            }
        }
        Some(node) => {
            // Virtual items before this node's fragment, and through it.
            let before = acc + subtotal(nodes, node.left);
            let through = before + node.frag.count;
            // Clustered batches (the adversary's interval scans) fall
            // wholly on one side of most nodes on the shared descent
            // path: probing the sorted slice's endpoints answers those
            // with one comparison.
            if qs.last().is_some_and(|q| *q < node.frag.lo) {
                return multi_locate_walk(nodes, node.left, qs, acc, visit);
            }
            if qs.first().is_some_and(|q| *q > node.frag.hi) {
                return multi_locate_walk(nodes, node.right, qs, through, visit);
            }
            let (below, rest) = qs.split_at(qs.partition_point(|q| *q < node.frag.lo));
            let (inside, above) = rest.split_at(rest.partition_point(|q| *q <= node.frag.hi));
            multi_locate_walk(nodes, node.left, below, acc, visit);
            for q in inside {
                visit(q, before, Some(&node.frag));
            }
            multi_locate_walk(nodes, node.right, above, through, visit);
        }
    }
}

#[inline]
fn subtotal<T>(nodes: &[Node<T>], link: u32) -> u64 {
    nodes.get(link as usize).map_or(0, |n| n.subtotal)
}

fn leftmost<T>(nodes: &[Node<T>], mut link: u32) -> u32 {
    while let Some(n) = nodes.get(link as usize) {
        if n.left == NIL {
            return link;
        }
        link = n.left;
    }
    NIL
}

fn rightmost<T>(nodes: &[Node<T>], mut link: u32) -> u32 {
    while let Some(n) = nodes.get(link as usize) {
        if n.right == NIL {
            return link;
        }
        link = n.right;
    }
    NIL
}

/// Replaces a node's left child, refreshing the cached virtual subtotal.
fn set_left<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = subtotal(nodes, child);
    let right = match nodes.get(i as usize) {
        Some(n) => n.right,
        None => return,
    };
    let rs = subtotal(nodes, right);
    if let Some(n) = nodes.get_mut(i as usize) {
        n.left = child;
        n.subtotal = n.frag.count + cs + rs;
    }
}

/// Replaces a node's right child, refreshing the cached virtual subtotal.
fn set_right<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = subtotal(nodes, child);
    let left = match nodes.get(i as usize) {
        Some(n) => n.left,
        None => return,
    };
    let ls = subtotal(nodes, left);
    if let Some(n) = nodes.get_mut(i as usize) {
        n.right = child;
        n.subtotal = n.frag.count + ls + cs;
    }
}

/// Splits into `(fragments below nodes[key], the rest)`, ordering by the
/// fragments' `lo` endpoints. The pivot lives in the same arena, so it
/// is addressed by index (mirrors `OsTree`'s `split_idx`).
fn split_idx<T: Ord>(nodes: &mut [Node<T>], link: u32, key: u32) -> (u32, u32) {
    let (less, left, right) = match (nodes.get(link as usize), nodes.get(key as usize)) {
        (Some(n), Some(k)) => (n.frag.lo < k.frag.lo, n.left, n.right),
        _ => return (NIL, NIL),
    };
    if less {
        let (a, b) = split_idx(nodes, right, key);
        set_right(nodes, link, a);
        (link, b)
    } else {
        let (a, b) = split_idx(nodes, left, key);
        set_left(nodes, link, b);
        (a, link)
    }
}

/// Splits into `out = (fragments with hi < q, fragments with hi >= q)`.
/// The query is external to the arena and lands only in the comparison;
/// the halves go through an out-parameter so the links stay the plain
/// indices they are (mirrors `OsTree`'s `split`, including the
/// comparison spelled with the query on the left).
fn split_hi_lt<T: Ord>(nodes: &mut [Node<T>], link: u32, q: &T, out: &mut (u32, u32)) {
    let (goes_left, left, right) = match nodes.get(link as usize) {
        Some(n) => (*q > n.frag.hi, n.left, n.right),
        None => {
            *out = (NIL, NIL);
            return;
        }
    };
    if goes_left {
        split_hi_lt(nodes, right, q, out);
        set_right(nodes, link, out.0);
        out.0 = link;
    } else {
        split_hi_lt(nodes, left, q, out);
        set_left(nodes, link, out.1);
        out.1 = link;
    }
}

/// Splits into `out = (fragments with lo <= q, fragments with lo > q)`.
fn split_lo_le<T: Ord>(nodes: &mut [Node<T>], link: u32, q: &T, out: &mut (u32, u32)) {
    let (goes_left, left, right) = match nodes.get(link as usize) {
        Some(n) => (*q >= n.frag.lo, n.left, n.right),
        None => {
            *out = (NIL, NIL);
            return;
        }
    };
    if goes_left {
        split_lo_le(nodes, right, q, out);
        set_right(nodes, link, out.0);
        out.0 = link;
    } else {
        split_lo_le(nodes, left, q, out);
        set_left(nodes, link, out.1);
        out.1 = link;
    }
}

fn merge<T>(nodes: &mut [Node<T>], a: u32, b: u32) -> u32 {
    let (pa, pb) = match (nodes.get(a as usize), nodes.get(b as usize)) {
        (None, _) => return b,
        (_, None) => return a,
        (Some(an), Some(bn)) => (an.pri, bn.pri),
    };
    if pa >= pb {
        let ar = nodes.get(a as usize).map_or(NIL, |n| n.right);
        let m = merge(nodes, ar, b);
        set_right(nodes, a, m);
        a
    } else {
        let bl = nodes.get(b as usize).map_or(NIL, |n| n.left);
        let m = merge(nodes, a, bl);
        set_left(nodes, b, m);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: fragments in a sorted Vec.
    fn model_locate(model: &[Fragment<u64>], q: u64) -> (u64, Option<usize>) {
        let mut before = 0u64;
        for (i, f) in model.iter().enumerate() {
            if f.hi < q {
                before += f.count;
            } else if f.lo <= q {
                return (before, Some(i));
            } else {
                break;
            }
        }
        (before, None)
    }

    fn frag(lo: u64, hi: u64, count: u64, run: u32, base: u64) -> Fragment<u64> {
        Fragment {
            lo,
            hi,
            count,
            run,
            base,
        }
    }

    fn build(frags: &[Fragment<u64>]) -> RunTree<u64> {
        let mut t = RunTree::new();
        for f in frags {
            t.insert_fragment(f.clone());
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: RunTree<u64> = RunTree::new();
        assert_eq!(t.virtual_len(), 0);
        assert_eq!(t.fragment_count(), 0);
        assert!(t.is_empty());
        assert!(t.select(0).is_none());
        assert!(t.first().is_none());
        assert!(t.last().is_none());
        let l = t.locate(&5);
        assert_eq!(l.before, 0);
        assert!(l.hit.is_none() && l.pred.is_none() && l.succ.is_none());
    }

    #[test]
    fn locate_and_select_match_reference_model() {
        // Disjoint fragments with gaps, inserted out of order.
        let mut model = vec![
            frag(10, 19, 10, 0, 0),
            frag(30, 30, 1, 1, 0),
            frag(40, 59, 5, 2, 3),
            frag(70, 99, 30, 3, 0),
        ];
        let t = build(&[
            model[2].clone(),
            model[0].clone(),
            model[3].clone(),
            model[1].clone(),
        ]);
        model.sort_by_key(|f| f.lo);
        assert_eq!(t.virtual_len(), 46);
        assert_eq!(t.fragment_count(), 4);
        assert_eq!(t.first().unwrap().lo, 10);
        assert_eq!(t.last().unwrap().hi, 99);
        for q in 0..=110u64 {
            let (before, hit) = model_locate(&model, q);
            let l = t.locate(&q);
            assert_eq!(l.before, before, "before diverged at {q}");
            assert_eq!(
                l.hit.map(|f| f.run),
                hit.map(|i| model[i].run),
                "hit diverged at {q}"
            );
            // Neighbor fragments: nearest wholly-below / wholly-above.
            let pred = model
                .iter()
                .rev()
                .find(|f| f.hi < q || (hit.is_some() && f.hi < model[hit.unwrap()].lo));
            let succ = model
                .iter()
                .find(|f| f.lo > q || (hit.is_some() && f.lo > model[hit.unwrap()].hi));
            assert_eq!(
                l.pred.map(|f| f.run),
                pred.map(|f| f.run),
                "pred diverged at {q}"
            );
            assert_eq!(
                l.succ.map(|f| f.run),
                succ.map(|f| f.run),
                "succ diverged at {q}"
            );
        }
        // Select: walk the model's virtual items in order.
        let mut r = 0u64;
        for f in &model {
            for off in 0..f.count {
                let (got, goff) = t.select(r).expect("rank in range");
                assert_eq!((got.run, goff), (f.run, off), "select({r}) diverged");
                r += 1;
            }
        }
        assert!(t.select(r).is_none());
    }

    #[test]
    fn multi_locate_matches_locate() {
        let t = build(&[
            frag(40, 59, 5, 2, 3),
            frag(10, 19, 10, 0, 0),
            frag(70, 99, 30, 3, 0),
            frag(30, 30, 1, 1, 0),
        ]);
        let empty: RunTree<u64> = RunTree::new();
        // Every probe, duplicates included, then clustered sub-batches.
        let all: Vec<u64> = (0..=110u64).flat_map(|q| [q, q]).collect();
        let batches = [&all[..], &all[20..40], &all[150..160], &all[..1], &[]];
        for tree in [&t, &empty] {
            for qs in batches {
                let mut got = Vec::new();
                tree.multi_locate(qs, &mut |q, before, hit| {
                    got.push((*q, before, hit.map(|f| f.run)));
                });
                let want: Vec<_> = qs
                    .iter()
                    .map(|q| {
                        let l = tree.locate(q);
                        (*q, l.before, l.hit.map(|f| f.run))
                    })
                    .collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn split_via_remove_and_reinsert() {
        let mut t = build(&[frag(10, 99, 90, 0, 0)]);
        // Split the fragment at virtual offsets: [10..=40], [60..=99].
        let removed = t.remove_containing(&50).expect("fragment contains 50");
        assert_eq!(removed.count, 90);
        assert_eq!(t.virtual_len(), 0);
        t.insert_fragment(frag(10, 40, 31, 0, 0));
        t.insert_fragment(frag(60, 99, 40, 0, 50));
        // Insert a new run's fragment in the gap.
        t.insert_fragment(frag(45, 55, 200, 1, 0));
        assert_eq!(t.virtual_len(), 271);
        assert_eq!(t.fragment_count(), 3);
        assert_eq!(t.locate(&44).before, 31);
        assert_eq!(t.locate(&45).before, 31);
        assert_eq!(t.locate(&56).before, 231);
        let (f, off) = t.select(31).unwrap();
        assert_eq!((f.run, off), (1, 0));
        let (f, off) = t.select(230).unwrap();
        assert_eq!((f.run, off), (1, 199));
        let (f, off) = t.select(231).unwrap();
        assert_eq!((f.run, f.base, off), (0, 50, 0));
        // Arena slot reuse after the removal.
        assert_eq!(t.fragment_count(), 3);
        assert!(t.remove_containing(&42).is_none(), "gap contains nothing");
    }

    #[test]
    fn for_each_visits_in_label_order() {
        let t = build(&[
            frag(50, 59, 3, 2, 0),
            frag(10, 19, 3, 0, 0),
            frag(30, 39, 3, 1, 0),
        ]);
        let mut runs = Vec::new();
        t.for_each(&mut |f| runs.push(f.run));
        assert_eq!(runs, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_shape_across_builds() {
        let build_once = || {
            let mut t = RunTree::with_seed(7);
            for i in 0..200u64 {
                let lo = i * 10;
                t.insert_fragment(frag(lo, lo + 5, 1 + i % 7, i as u32, 0));
            }
            let mut order = Vec::new();
            t.for_each(&mut |f| order.push(f.run));
            (t.virtual_len(), order)
        };
        assert_eq!(build_once(), build_once());
    }

    #[test]
    fn many_single_item_fragments_behave_like_a_plain_tree() {
        let mut t = RunTree::new();
        for i in 0..1000u64 {
            t.insert_fragment(frag(i * 2, i * 2, 1, 0, i));
        }
        assert_eq!(t.virtual_len(), 1000);
        for i in 0..1000u64 {
            let l = t.locate(&(i * 2));
            assert_eq!(l.before, i);
            assert_eq!(l.hit.unwrap().base, i);
            let (f, off) = t.select(i).unwrap();
            assert_eq!((f.base, off), (i, 0));
        }
        // Odd probes fall in gaps.
        let l = t.locate(&501);
        assert!(l.hit.is_none());
        assert_eq!(l.before, 251);
        assert_eq!(l.pred.unwrap().lo, 500);
        assert_eq!(l.succ.unwrap().lo, 502);
    }
}
