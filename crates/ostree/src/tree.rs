//! Treap internals: split/merge with subtree-size augmentation.
//!
//! Nodes live in one contiguous `Vec` arena and link to each other by
//! `u32` index (`NIL` = absent), not by `Box` pointer. The adversary
//! inserts items in sorted leaf runs, so arena order correlates with
//! key order and a descent touches a handful of cache lines where the
//! boxed layout chased pointers across the heap; it also makes a node
//! allocation a bump of the `Vec` instead of a `malloc`.

use crate::iter::Iter;

/// Absent-link sentinel. `nodes.get(NIL as usize)` is `None` because
/// the arena never grows to `u32::MAX` entries (checked on alloc), so
/// every walk treats `NIL` uniformly as an empty subtree.
pub(crate) const NIL: u32 = u32::MAX;

pub(crate) struct Node<T> {
    pub(crate) item: T,
    pri: u64,
    tag: u64,
    size: u32,
    /// Cached size of the left subtree. Redundant with
    /// `size(nodes, left)`, but keeping it in the node means every
    /// rank/select descent reads ONE arena slot per level instead of
    /// also touching the left child just for its size.
    left_size: u32,
    pub(crate) left: u32,
    pub(crate) right: u32,
}

/// A multiset ordered by `T: Ord`, supporting order statistics.
///
/// See the crate docs for the operation set. All operations are
/// O(log n) expected; shape is deterministic given the seed and the
/// insert sequence.
pub struct OsTree<T> {
    nodes: Vec<Node<T>>,
    /// Slots of removed nodes, reused before the arena grows. A freed
    /// slot keeps its (unreachable) item until reuse; removal is off
    /// the adversary's hot path, so the transient retention is cheaper
    /// than compacting the arena.
    free: Vec<u32>,
    root: u32,
    rng: u64,
    /// Right-spine scratch for the bulk sorted build, kept across
    /// [`extend_sorted`](Self::extend_sorted) calls.
    spine: Vec<u32>,
}

impl<T: Ord> Default for OsTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> OsTree<T> {
    /// An empty tree with the default priority seed.
    pub fn new() -> Self {
        Self::with_seed(0x9e37_79b9_7f4a_7c15)
    }

    /// An empty tree whose priority sequence starts from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        OsTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng: seed | 1,
            spine: Vec::new(),
        }
    }

    fn next_pri(&mut self) -> u64 {
        // SplitMix64: deterministic, well-distributed priorities.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Claims an arena slot for a fresh leaf node, writing its index to
    /// `out`. Out-parameter (not return value) so the model-purity
    /// analysis sees the caller's link variable as what it is — an
    /// arena index, not an item derivative — and certifies the index
    /// arithmetic downstream of it.
    fn alloc(&mut self, item: T, pri: u64, tag: u64, out: &mut u32) {
        let node = Node {
            item,
            pri,
            tag,
            size: 1,
            left_size: 0,
            left: NIL,
            right: NIL,
        };
        if let Some(i) = self.free.pop() {
            if let Some(slot) = self.nodes.get_mut(i as usize) {
                *slot = node;
                *out = i;
                return;
            }
        }
        assert!(
            self.nodes.len() < NIL as usize,
            "OsTree arena exhausted the u32 index space"
        );
        let i = self.nodes.len() as u32;
        self.nodes.push(node);
        *out = i;
    }

    #[inline]
    fn node(&self, i: u32) -> Option<&Node<T>> {
        self.nodes.get(i as usize)
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        size(&self.nodes, self.root)
    }

    /// Pre-allocates arena capacity for `additional` more items. A
    /// caller that knows its final size up front (the adversary knows
    /// N = (1/ε)·2^k before the first insert) spares the arena its
    /// doubling re-allocations, each of which copies every node.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.node(self.root).is_none()
    }

    /// Inserts `item`; duplicates are kept (multiset semantics).
    pub fn insert(&mut self, item: T) {
        self.insert_tagged(item, 0);
    }

    /// Inserts `item` carrying a 64-bit tag — an augmentation slot each
    /// node stores alongside the item (the adversary keeps the arrival
    /// position there, fusing what used to be a parallel
    /// `BTreeMap<Item, u64>` walk into this one). Duplicates are kept.
    pub fn insert_tagged(&mut self, item: T, tag: u64) {
        let pri = self.next_pri();
        let mut halves = (NIL, NIL);
        split(&mut self.nodes, self.root, &item, &mut halves);
        let mut idx = NIL;
        self.alloc(item, pri, tag, &mut idx);
        let lo = merge(&mut self.nodes, halves.0, idx);
        self.root = merge(&mut self.nodes, lo, halves.1);
    }

    /// Inserts `item` with `tag` only if no equal item is stored;
    /// returns whether the insert happened. Costs a single descent, so
    /// callers needing set (not multiset) semantics get the duplicate
    /// check for free instead of paying a separate `contains` walk.
    pub fn insert_unique_tagged(&mut self, item: T, tag: u64) -> bool {
        let pri = self.next_pri();
        let mut halves = (NIL, NIL);
        split(&mut self.nodes, self.root, &item, &mut halves);
        // `halves.1` holds everything ≥ item, so an equal occurrence,
        // if any, is exactly its minimum.
        if leftmost(&self.nodes, halves.1).is_some_and(|m| *m == item) {
            self.root = merge(&mut self.nodes, halves.0, halves.1);
            return false;
        }
        let mut idx = NIL;
        self.alloc(item, pri, tag, &mut idx);
        let lo = merge(&mut self.nodes, halves.0, idx);
        self.root = merge(&mut self.nodes, lo, halves.1);
        true
    }

    /// The tag of a stored occurrence of `q` (the one nearest the root
    /// if duplicates exist), or `None` if `q` is not stored.
    pub fn tag_of(&self, q: &T) -> Option<u64> {
        let mut n = self.node(self.root);
        while let Some(node) = n {
            match q.cmp(&node.item) {
                std::cmp::Ordering::Equal => return Some(node.tag),
                std::cmp::Ordering::Less => n = self.node(node.left),
                std::cmp::Ordering::Greater => n = self.node(node.right),
            }
        }
        None
    }

    /// Bulk insert of a non-decreasing run: builds a treap from the run
    /// in O(m) (stack-based Cartesian construction over the drawn
    /// priorities) and joins it with the existing tree in
    /// O(m + log n) expected when the run occupies a key range free of
    /// existing items (the adversary's leaf case), degrading gracefully
    /// to a treap union — O(m·log(n/m)) expected — under arbitrary
    /// interleaving. Equivalent to calling [`insert`](Self::insert) per
    /// item: same multiset, same order-statistic answers.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `items` is sorted non-decreasingly.
    pub fn extend_sorted<I: IntoIterator<Item = T>>(&mut self, items: I) {
        self.extend_sorted_tagged(items.into_iter().map(|it| (it, 0)));
    }

    /// [`extend_sorted`](Self::extend_sorted) with a tag per item (see
    /// [`insert_tagged`](Self::insert_tagged)).
    pub fn extend_sorted_tagged<I: IntoIterator<Item = (T, u64)>>(&mut self, pairs: I) {
        let mut run = NIL;
        self.build_sorted(pairs, &mut run);
        self.root = union(&mut self.nodes, self.root, run);
    }

    /// Builds a heap-ordered treap from non-decreasing `pairs` in one
    /// pass: the stack holds the right spine; each new (rightmost) node
    /// absorbs the popped lower-priority suffix as its left subtree.
    fn build_sorted<I: IntoIterator<Item = (T, u64)>>(&mut self, pairs: I, out: &mut u32) {
        let mut spine = std::mem::take(&mut self.spine);
        spine.clear();
        for (item, tag) in pairs {
            debug_assert!(
                spine
                    .last()
                    .is_none_or(|&top| self.node(top).is_none_or(|n| n.item <= item)),
                "extend_sorted run is not sorted"
            );
            let pri = self.next_pri();
            let mut idx = NIL;
            self.alloc(item, pri, tag, &mut idx);
            let mut carry = NIL;
            while spine
                .last()
                .is_some_and(|&top| self.node(top).is_some_and(|n| n.pri < pri))
            {
                let top = spine.pop().expect("checked non-empty");
                set_right(&mut self.nodes, top, carry);
                carry = top;
            }
            set_left(&mut self.nodes, idx, carry);
            spine.push(idx);
        }
        // Re-attach the remaining spine bottom-up.
        let mut right = NIL;
        while let Some(top) = spine.pop() {
            set_right(&mut self.nodes, top, right);
            right = top;
        }
        self.spine = spine;
        *out = right;
    }

    /// Removes one occurrence of `item`; returns whether anything was
    /// removed. O(log n) expected.
    pub fn remove(&mut self, item: &T) -> bool {
        let mut lo_ge = (NIL, NIL);
        split(&mut self.nodes, self.root, item, &mut lo_ge);
        // Split off the run of items equal to `item`, drop one.
        let mut eq_gt = (NIL, NIL);
        split_gt(&mut self.nodes, lo_ge.1, item, &mut eq_gt);
        let (removed, eq) = match self.node(eq_gt.0) {
            None => (false, eq_gt.0),
            Some(n) => {
                let (l, r) = (n.left, n.right);
                self.free.push(eq_gt.0);
                (true, merge(&mut self.nodes, l, r))
            }
        };
        let lo = merge(&mut self.nodes, lo_ge.0, eq);
        self.root = merge(&mut self.nodes, lo, eq_gt.1);
        removed
    }

    /// Number of stored items strictly inside the open range `(lo, hi)`.
    pub fn count_between(&self, lo: &T, hi: &T) -> usize {
        if lo >= hi {
            return 0;
        }
        self.count_less(hi) - self.count_le(lo)
    }

    /// Visits, in order, the stored items within the closed range
    /// `[lo, hi]` — the allocation-free replacement for the old
    /// `range_items` (which collected a `Vec<&T>` on the gap-scan hot
    /// path and failed the `hot-path-alloc` lint).
    pub fn for_each_in_range(&self, lo: &T, hi: &T, f: &mut dyn FnMut(&T)) {
        fn walk<'a, T: Ord>(
            nodes: &'a [Node<T>],
            link: u32,
            lo: &T,
            hi: &T,
            f: &mut dyn FnMut(&'a T),
        ) {
            let Some(node) = nodes.get(link as usize) else {
                return;
            };
            if node.item >= *lo {
                walk(nodes, node.left, lo, hi, f);
            }
            if node.item >= *lo && node.item <= *hi {
                f(&node.item);
            }
            if node.item <= *hi {
                walk(nodes, node.right, lo, hi, f);
            }
        }
        walk(&self.nodes, self.root, lo, hi, f);
    }

    /// Number of stored items strictly smaller than `q`.
    pub fn count_less(&self, q: &T) -> usize {
        let mut n = self.node(self.root);
        let mut acc = 0;
        while let Some(node) = n {
            if node.item < *q {
                acc += node.left_size as usize + 1;
                n = self.node(node.right);
            } else {
                n = self.node(node.left);
            }
        }
        acc
    }

    /// Number of stored items `<= q`.
    pub fn count_le(&self, q: &T) -> usize {
        let mut n = self.node(self.root);
        let mut acc = 0;
        while let Some(node) = n {
            if node.item <= *q {
                acc += node.left_size as usize + 1;
                n = self.node(node.right);
            } else {
                n = self.node(node.left);
            }
        }
        acc
    }

    /// The 1-based rank of `q`: one more than the number of items
    /// strictly smaller (the paper's `rank_σ`, well-defined because the
    /// adversarial streams contain distinct items).
    pub fn rank(&self, q: &T) -> usize {
        self.count_less(q) + 1
    }

    /// Batched [`count_le`](Self::count_le): answers for every query of
    /// the sorted slice `qs` in **one** tree walk, written into `out`
    /// (cleared first; `out[i]` answers `qs[i]`).
    ///
    /// The query set partitions recursively at each node — queries
    /// below the node descend left, the rest descend right with the
    /// accumulator advanced — so queries sharing a descent path share
    /// its comparisons: O(m·log n) worst case like m single walks, but
    /// collapsing toward O(m + log n) when the queries are clustered
    /// (the adversary's interval scans always are).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `qs` is sorted non-decreasingly.
    pub fn multi_count_le(&self, qs: &[T], out: &mut Vec<usize>) {
        debug_assert!(
            qs.iter().zip(qs.iter().skip(1)).all(|(a, b)| a <= b),
            "multi_count_le queries must be sorted"
        );
        out.clear();
        out.resize(qs.len(), 0);
        // A query q goes right (answer includes left subtree + node)
        // exactly when node.item <= q, mirroring `count_le`'s descent.
        multi_count(&self.nodes, self.root, qs, 0, out, &|q, item| *q < *item);
    }

    /// Batched [`count_less`](Self::count_less) over the sorted `qs`;
    /// one walk, same output convention as
    /// [`multi_count_le`](Self::multi_count_le).
    pub fn multi_count_less(&self, qs: &[T], out: &mut Vec<usize>) {
        debug_assert!(
            qs.iter().zip(qs.iter().skip(1)).all(|(a, b)| a <= b),
            "multi_count_less queries must be sorted"
        );
        out.clear();
        out.resize(qs.len(), 0);
        multi_count(&self.nodes, self.root, qs, 0, out, &|q, item| *q <= *item);
    }

    /// Batched [`rank`](Self::rank) over the sorted `qs`: one walk,
    /// `out[i]` is the 1-based rank of `qs[i]`.
    pub fn multi_rank(&self, qs: &[T], out: &mut Vec<usize>) {
        self.multi_count_less(qs, out);
        for r in out.iter_mut() {
            *r += 1;
        }
    }

    /// Batched [`select`](Self::select) over the sorted rank slice:
    /// one walk, `out[i]` is the item of rank `ranks[i]` (or `None`
    /// when the rank is out of range).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `ranks` is sorted non-decreasingly.
    pub fn multi_select<'a>(&'a self, ranks: &[usize], out: &mut Vec<Option<&'a T>>) {
        debug_assert!(
            ranks.iter().zip(ranks.iter().skip(1)).all(|(a, b)| a <= b),
            "multi_select ranks must be sorted"
        );
        out.clear();
        out.resize(ranks.len(), None);
        multi_select_walk(&self.nodes, self.root, 0, ranks, out);
    }

    /// Batched [`tag_of`](Self::tag_of) over the sorted `qs`: one walk,
    /// `out[i]` is the tag of a stored occurrence of `qs[i]` (`None`
    /// when absent). Resolves the same occurrence `tag_of` would (the
    /// one nearest the root).
    pub fn multi_tag_of(&self, qs: &[T], out: &mut Vec<Option<u64>>) {
        debug_assert!(
            qs.iter().zip(qs.iter().skip(1)).all(|(a, b)| a <= b),
            "multi_tag_of queries must be sorted"
        );
        out.clear();
        out.resize(qs.len(), None);
        multi_tag_walk(&self.nodes, self.root, qs, out);
    }

    /// The item of 1-based rank `r` (i.e. the r-th smallest), if any.
    pub fn select(&self, r: usize) -> Option<&T> {
        if r == 0 || r > self.len() {
            return None;
        }
        let mut n = self.node(self.root);
        let mut r = r;
        while let Some(node) = n {
            let ls = node.left_size as usize;
            if r == ls + 1 {
                return Some(&node.item);
            } else if r <= ls {
                n = self.node(node.left);
            } else {
                r -= ls + 1;
                n = self.node(node.right);
            }
        }
        None
    }

    /// Smallest stored item strictly greater than `q` — the paper's
    /// `next(σ, q)`.
    pub fn successor(&self, q: &T) -> Option<&T> {
        let mut n = self.node(self.root);
        let mut best = None;
        while let Some(node) = n {
            if node.item > *q {
                best = Some(&node.item);
                n = self.node(node.left);
            } else {
                n = self.node(node.right);
            }
        }
        best
    }

    /// Largest stored item strictly smaller than `q` — the paper's
    /// `prev(σ, q)`.
    pub fn predecessor(&self, q: &T) -> Option<&T> {
        let mut n = self.node(self.root);
        let mut best = None;
        while let Some(node) = n {
            if node.item < *q {
                best = Some(&node.item);
                n = self.node(node.right);
            } else {
                n = self.node(node.left);
            }
        }
        best
    }

    /// Whether `q` is stored.
    pub fn contains(&self, q: &T) -> bool {
        let mut n = self.node(self.root);
        while let Some(node) = n {
            match q.cmp(&node.item) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => n = self.node(node.left),
                std::cmp::Ordering::Greater => n = self.node(node.right),
            }
        }
        false
    }

    /// The minimum item.
    pub fn min(&self) -> Option<&T> {
        leftmost(&self.nodes, self.root)
    }

    /// The maximum item.
    pub fn max(&self) -> Option<&T> {
        let mut n = self.node(self.root)?;
        while let Some(r) = self.node(n.right) {
            n = r;
        }
        Some(&n.item)
    }

    /// In-order iterator over stored items.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter::new(&self.nodes, self.root)
    }

    /// Visits, in order, every stored item together with its tag — the
    /// traversal snapshot/restore uses to persist arrival positions
    /// alongside the sorted stream (tags are invisible to [`iter`](Self::iter)).
    pub fn for_each_tagged(&self, f: &mut dyn FnMut(&T, u64)) {
        fn walk<'a, T>(nodes: &'a [Node<T>], link: u32, f: &mut dyn FnMut(&'a T, u64)) {
            let Some(node) = nodes.get(link as usize) else {
                return;
            };
            walk(nodes, node.left, f);
            f(&node.item, node.tag);
            walk(nodes, node.right, f);
        }
        walk(&self.nodes, self.root, f);
    }

    /// Tree height (diagnostics; expected O(log n)).
    pub fn height(&self) -> usize {
        fn h<T>(nodes: &[Node<T>], link: u32) -> usize {
            nodes
                .get(link as usize)
                .map_or(0, |n| 1 + h(nodes, n.left).max(h(nodes, n.right)))
        }
        h(&self.nodes, self.root)
    }
}

impl<'a, T: Ord> IntoIterator for &'a OsTree<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Ord> FromIterator<T> for OsTree<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut t = OsTree::new();
        for x in iter {
            t.insert(x);
        }
        t
    }
}

#[inline]
fn size<T>(nodes: &[Node<T>], link: u32) -> usize {
    nodes.get(link as usize).map_or(0, |n| n.size as usize)
}

/// Replaces a node's left child, refreshing both cached sizes. Reads
/// the (unchanged) right child's size from the arena; the new left
/// size is taken from `child`.
fn set_left<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = size(nodes, child) as u32;
    let right = match nodes.get(i as usize) {
        Some(n) => n.right,
        None => return,
    };
    let rs = size(nodes, right) as u32;
    if let Some(n) = nodes.get_mut(i as usize) {
        n.left = child;
        n.left_size = cs;
        n.size = 1 + cs + rs;
    }
}

/// Replaces a node's right child. The left subtree is untouched by
/// every caller, so its cached `left_size` is still valid and the
/// total needs no left-child lookup.
fn set_right<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = size(nodes, child) as u32;
    if let Some(n) = nodes.get_mut(i as usize) {
        n.right = child;
        n.size = 1 + n.left_size + cs;
    }
}

/// Shared descent of the batched counting walks: `qs` (sorted) splits
/// at each node into the prefix that descends left (per `goes_left`)
/// and the suffix that descends right carrying `acc + |left| + 1`; a
/// query reaching an empty link has accumulated its full answer.
fn multi_count<T: Ord>(
    nodes: &[Node<T>],
    link: u32,
    qs: &[T],
    acc: usize,
    out: &mut [usize],
    goes_left: &impl Fn(&T, &T) -> bool,
) {
    if qs.is_empty() {
        return;
    }
    if qs.len() == 1 {
        // A lone query needs no more partitioning: finish with the
        // plain `count_le`-style descent loop, skipping the recursion
        // frames and per-node binary searches of the general walk.
        if let (Some(q), Some(slot)) = (qs.first(), out.first_mut()) {
            let mut n = nodes.get(link as usize);
            let mut acc = acc;
            while let Some(node) = n {
                if goes_left(q, &node.item) {
                    n = nodes.get(node.left as usize);
                } else {
                    acc += node.left_size as usize + 1;
                    n = nodes.get(node.right as usize);
                }
            }
            *slot = acc;
        }
        return;
    }
    match nodes.get(link as usize) {
        None => out.fill(acc),
        Some(node) => {
            // Clustered batches (the adversary's interval scans) fall
            // entirely on one side at every node of the shared descent
            // path; probing the sorted slice's endpoints first answers
            // those nodes with one comparison instead of the log|qs|
            // partition scan.
            let split_at = if qs.last().is_some_and(|q| goes_left(q, &node.item)) {
                qs.len()
            } else if qs.first().is_some_and(|q| !goes_left(q, &node.item)) {
                0
            } else {
                qs.partition_point(|q| goes_left(q, &node.item))
            };
            let (ql, qr) = qs.split_at(split_at);
            let (ol, or) = out.split_at_mut(ql.len());
            let below = acc + node.left_size as usize + 1;
            multi_count(nodes, node.left, ql, acc, ol, goes_left);
            multi_count(nodes, node.right, qr, below, or, goes_left);
        }
    }
}

/// Batched select descent: `base` is the number of items in-order
/// before this subtree, so the node answers global rank
/// `base + |left| + 1`; smaller ranks go left, larger go right. Ranks
/// outside `(base, base + size]` fall off an empty link and stay
/// `None`.
fn multi_select_walk<'a, T: Ord>(
    nodes: &'a [Node<T>],
    link: u32,
    base: usize,
    ranks: &[usize],
    out: &mut [Option<&'a T>],
) {
    if ranks.is_empty() {
        return;
    }
    if ranks.len() == 1 {
        // Lone rank: the `select`-style descent loop.
        if let (Some(&r), Some(slot)) = (ranks.first(), out.first_mut()) {
            let mut n = nodes.get(link as usize);
            let mut base = base;
            *slot = None;
            while let Some(node) = n {
                let here = base + node.left_size as usize + 1;
                if r < here {
                    n = nodes.get(node.left as usize);
                } else if r == here {
                    *slot = Some(&node.item);
                    break;
                } else {
                    base = here;
                    n = nodes.get(node.right as usize);
                }
            }
        }
        return;
    }
    match nodes.get(link as usize) {
        None => out.fill(None),
        Some(node) => {
            let here = base + node.left_size as usize + 1;
            let (rl, rest) = ranks.split_at(ranks.partition_point(|&r| r < here));
            let (req, rr) = rest.split_at(rest.partition_point(|&r| r <= here));
            let (ol, orest) = out.split_at_mut(rl.len());
            let (oeq, orr) = orest.split_at_mut(req.len());
            multi_select_walk(nodes, node.left, base, rl, ol);
            oeq.fill(Some(&node.item));
            multi_select_walk(nodes, node.right, here, rr, orr);
        }
    }
}

/// Batched tag descent: queries equal to the node resolve here (the
/// occurrence nearest the root, as `tag_of` returns), smaller continue
/// left, larger right; a query falling off an empty link stays `None`.
fn multi_tag_walk<T: Ord>(nodes: &[Node<T>], link: u32, qs: &[T], out: &mut [Option<u64>]) {
    if qs.is_empty() {
        return;
    }
    if qs.len() == 1 {
        // Lone query: the `tag_of` descent loop.
        if let (Some(q), Some(slot)) = (qs.first(), out.first_mut()) {
            let mut n = nodes.get(link as usize);
            *slot = None;
            while let Some(node) = n {
                match q.cmp(&node.item) {
                    std::cmp::Ordering::Equal => {
                        *slot = Some(node.tag);
                        break;
                    }
                    std::cmp::Ordering::Less => n = nodes.get(node.left as usize),
                    std::cmp::Ordering::Greater => n = nodes.get(node.right as usize),
                }
            }
        }
        return;
    }
    match nodes.get(link as usize) {
        None => out.fill(None),
        Some(node) => {
            // Same endpoint probe as `multi_count`: a batch wholly on
            // one side of the node costs one comparison, not two
            // log|qs| partition scans.
            let below = if qs.last().is_some_and(|q| *q < node.item) {
                qs.len()
            } else if qs.first().is_some_and(|q| *q >= node.item) {
                0
            } else {
                qs.partition_point(|q| *q < node.item)
            };
            let (ql, rest) = qs.split_at(below);
            let (qeq, qr) = rest.split_at(rest.partition_point(|q| *q <= node.item));
            let (ol, orest) = out.split_at_mut(ql.len());
            let (oeq, orr) = orest.split_at_mut(qeq.len());
            multi_tag_walk(nodes, node.left, ql, ol);
            oeq.fill(Some(node.tag));
            multi_tag_walk(nodes, node.right, qr, orr);
        }
    }
}

/// Splits into `out = (items < key, items >= key)`. The key is
/// external to the arena (an item being inserted or removed), so
/// comparing it never aliases the mutable arena borrow. The halves
/// land in an out-parameter: the purity analysis then sees the links
/// as the indices they are — only the `goes_right` comparison touches
/// the key — and the size bookkeeping below stays certified.
fn split<T: Ord>(nodes: &mut [Node<T>], link: u32, key: &T, out: &mut (u32, u32)) {
    let (goes_right, left, right) = match nodes.get(link as usize) {
        Some(n) => (*key > n.item, n.left, n.right),
        None => {
            *out = (NIL, NIL);
            return;
        }
    };
    if goes_right {
        split(nodes, right, key, out);
        set_right(nodes, link, out.0);
        out.0 = link;
    } else {
        split(nodes, left, key, out);
        set_left(nodes, link, out.1);
        out.1 = link;
    }
}

/// Splits into `out = (items <= key, items > key)`.
fn split_gt<T: Ord>(nodes: &mut [Node<T>], link: u32, key: &T, out: &mut (u32, u32)) {
    let (goes_right, left, right) = match nodes.get(link as usize) {
        Some(n) => (*key >= n.item, n.left, n.right),
        None => {
            *out = (NIL, NIL);
            return;
        }
    };
    if goes_right {
        split_gt(nodes, right, key, out);
        set_right(nodes, link, out.0);
        out.0 = link;
    } else {
        split_gt(nodes, left, key, out);
        set_left(nodes, link, out.1);
        out.1 = link;
    }
}

/// [`split`] keyed by a node *inside* the arena (identified by index,
/// so no item borrow outlives the mutable arena borrow); used by
/// [`union`], whose pivot item lives in the same arena as the subtree
/// being split.
fn split_idx<T: Ord>(nodes: &mut [Node<T>], link: u32, key: u32) -> (u32, u32) {
    let (less, left, right) = match (nodes.get(link as usize), nodes.get(key as usize)) {
        (Some(n), Some(k)) => (n.item < k.item, n.left, n.right),
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

fn merge<T: Ord>(nodes: &mut [Node<T>], a: u32, b: u32) -> u32 {
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

/// Minimum item of a subtree, if any (no mutation, no allocation).
fn leftmost<T>(nodes: &[Node<T>], link: u32) -> Option<&T> {
    let mut n = nodes.get(link as usize)?;
    while let Some(l) = nodes.get(n.left as usize) {
        n = l;
    }
    Some(&n.item)
}

/// Treap union: the higher-priority root stays a root, the other tree
/// is split by its item, and the halves recurse. O(m·log(n/m))
/// expected in general; when the smaller tree's key range contains no
/// items of the larger one (the adversary's leaf case) the recursion
/// degenerates into a single split path, i.e. O(m + log n).
fn union<T: Ord>(nodes: &mut [Node<T>], a: u32, b: u32) -> u32 {
    let (pa, pb) = match (nodes.get(a as usize), nodes.get(b as usize)) {
        (None, _) => return b,
        (_, None) => return a,
        (Some(an), Some(bn)) => (an.pri, bn.pri),
    };
    let (root, other) = if pa >= pb { (a, b) } else { (b, a) };
    let (lt, ge) = split_idx(nodes, other, root);
    let (rl, rr) = match nodes.get(root as usize) {
        Some(n) => (n.left, n.right),
        None => (NIL, NIL),
    };
    let nl = union(nodes, rl, lt);
    let nr = union(nodes, rr, ge);
    // set_left's size total is transiently stale (it reads the old
    // right child); set_right recomputes it from the fresh left_size.
    set_left(nodes, root, nl);
    set_right(nodes, root, nr);
    root
}

#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::{check_cases, SplitMix64};
    use std::collections::BTreeSet;

    const CASES: u32 = 256;

    impl<T: Ord> OsTree<T> {
        /// Total arena slots (live + freed); test-only introspection.
        fn arena_slots(&self) -> usize {
            self.nodes.len()
        }
    }

    /// `len` distinct draws from `0..bound`, in draw order.
    fn distinct(rng: &mut SplitMix64, len: usize, bound: u64) -> Vec<u64> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let x = rng.below(bound);
            if seen.insert(x) {
                out.push(x);
            }
        }
        out
    }

    #[test]
    fn matches_sorted_vec_reference() {
        check_cases(0x81, CASES, |rng| {
            let xs: Vec<u32> = (0..rng.index(300))
                .map(|_| rng.below(1000) as u32)
                .collect();
            let mut t = OsTree::new();
            let mut reference = Vec::new();
            for &x in &xs {
                t.insert(x);
                reference.push(x);
            }
            reference.sort_unstable();
            assert_eq!(t.len(), reference.len());
            let collected: Vec<u32> = t.iter().copied().collect();
            assert_eq!(&collected, &reference);
            for q in [0u32, 1, 500, 999, 1000] {
                assert_eq!(
                    t.count_less(&q),
                    reference.iter().filter(|&&x| x < q).count()
                );
                assert_eq!(
                    t.count_le(&q),
                    reference.iter().filter(|&&x| x <= q).count()
                );
                let suc = reference.iter().find(|&&x| x > q);
                assert_eq!(t.successor(&q), suc);
                let pre = reference.iter().rev().find(|&&x| x < q);
                assert_eq!(t.predecessor(&q), pre);
            }
            for r in 1..=reference.len() {
                assert_eq!(t.select(r), Some(&reference[r - 1]));
            }
        });
    }

    #[test]
    fn insert_remove_differential() {
        // Differential test: treap vs sorted Vec under a random
        // interleaving of inserts and removes.
        check_cases(0x82, CASES, |rng| {
            let ops: Vec<(bool, u32)> = (0..1 + rng.index(399))
                .map(|_| (rng.gen_bool(), rng.below(50) as u32))
                .collect();
            let mut t = OsTree::new();
            let mut reference: Vec<u32> = Vec::new();
            for (is_insert, x) in ops {
                if is_insert {
                    t.insert(x);
                    let pos = reference.partition_point(|&v| v <= x);
                    reference.insert(pos, x);
                } else {
                    let removed = t.remove(&x);
                    let expected = reference.iter().position(|&v| v == x);
                    assert_eq!(removed, expected.is_some());
                    if let Some(i) = expected {
                        reference.remove(i);
                    }
                }
                assert_eq!(t.len(), reference.len());
            }
            let collected: Vec<u32> = t.iter().copied().collect();
            assert_eq!(collected, reference.clone());
            for q in [0u32, 10, 25, 49] {
                assert_eq!(
                    t.count_less(&q),
                    reference.iter().filter(|&&x| x < q).count()
                );
            }
        });
    }

    #[test]
    fn rank_select_roundtrip() {
        check_cases(0x83, CASES, |rng| {
            let len = 1 + rng.index(199);
            let xs = distinct(rng, len, 100_000);
            let mut t = OsTree::new();
            for &x in &xs {
                t.insert(x);
            }
            for &x in &xs {
                let r = t.rank(&x);
                assert_eq!(t.select(r), Some(&x));
            }
        });
    }

    #[test]
    fn batched_walks_match_single_queries() {
        // Property: one batched walk == m single walks, for every
        // operation, on arbitrary multisets and query sets.
        check_cases(0x84, CASES, |rng| {
            let xs: Vec<u64> = (0..rng.index(250)).map(|_| rng.below(600)).collect();
            let mut qs: Vec<u64> = (0..rng.index(80)).map(|_| rng.below(650)).collect();
            let mut t = OsTree::new();
            for &x in &xs {
                t.insert(x);
            }
            qs.sort_unstable();
            let (mut le, mut less, mut ranks) = (Vec::new(), Vec::new(), Vec::new());
            t.multi_count_le(&qs, &mut le);
            t.multi_count_less(&qs, &mut less);
            t.multi_rank(&qs, &mut ranks);
            for ((q, &l), (&ls, &r)) in qs.iter().zip(&le).zip(less.iter().zip(&ranks)) {
                assert_eq!(l, t.count_le(q));
                assert_eq!(ls, t.count_less(q));
                assert_eq!(r, t.rank(q));
            }
            let rs: Vec<usize> = (0..=t.len() + 1).collect();
            let mut sel = Vec::new();
            t.multi_select(&rs, &mut sel);
            for (&r, &s) in rs.iter().zip(&sel) {
                assert_eq!(s, t.select(r));
            }
        });
    }

    #[test]
    fn batched_tags_match_single_lookups() {
        check_cases(0x85, CASES, |rng| {
            let len = 1 + rng.index(119);
            let xs = distinct(rng, len, 400);
            let mut qs: Vec<u64> = (0..rng.index(60)).map(|_| rng.below(450)).collect();
            let mut t = OsTree::new();
            for (i, &x) in xs.iter().enumerate() {
                assert!(t.insert_unique_tagged(x, i as u64));
            }
            qs.sort_unstable();
            let mut tags = Vec::new();
            t.multi_tag_of(&qs, &mut tags);
            for (q, &tag) in qs.iter().zip(&tags) {
                assert_eq!(tag, t.tag_of(q));
            }
        });
    }

    #[test]
    fn removed_slots_are_reused() {
        // Arena discipline: interleaved insert/remove pairs must not
        // grow the arena beyond the peak live count.
        check_cases(0x86, CASES, |rng| {
            let ops: Vec<u32> = (0..1 + rng.index(199))
                .map(|_| rng.below(40) as u32)
                .collect();
            let mut t = OsTree::new();
            for (i, &x) in ops.iter().enumerate() {
                t.insert(x);
                if i % 2 == 1 {
                    assert!(t.remove(&x));
                }
            }
            let live = t.len();
            assert!(t.arena_slots() <= ops.len());
            assert!(t.arena_slots() >= live);
        });
    }
}
