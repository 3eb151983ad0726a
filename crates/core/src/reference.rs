//! Reference summaries used as ground truth and as test instruments.
//!
//! [`ExactSummary`] stores the entire stream — the trivially correct
//! (and trivially space-hungry) end of the trade-off. [`DecimatedSummary`]
//! keeps only every j-th item by rank — a deliberately *incorrect*
//! comparison-based summary used to exercise the failure-witness
//! machinery of Lemma 3.4.

use crate::model::ComparisonSummary;

/// A summary that stores every item. Exactly correct for all queries.
///
/// Insertion is O(n) (sorted `Vec`); it exists for ground truth and for
/// small-scale adversary tests, not for production use.
#[derive(Clone, Debug, Default)]
pub struct ExactSummary<T> {
    items: Vec<T>,
    n: u64,
}

impl<T: Ord + Clone> ExactSummary<T> {
    /// An empty exact summary.
    pub fn new() -> Self {
        ExactSummary {
            items: Vec::new(),
            n: 0,
        }
    }

    /// True rank of `q` (count of items `<= q`).
    pub fn true_rank(&self, q: &T) -> u64 {
        self.items.partition_point(|x| x <= q) as u64
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for ExactSummary<T> {
    fn insert(&mut self, item: T) {
        let pos = self.items.partition_point(|x| *x <= item);
        self.items.insert(pos, item);
        self.n += 1;
    }

    fn item_array(&self) -> Vec<T> {
        self.items.clone()
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        for item in &self.items {
            f(item);
        }
    }

    fn stored_count(&self) -> usize {
        self.items.len()
    }

    fn items_processed(&self) -> u64 {
        self.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        let idx = (r.clamp(1, self.n) - 1) as usize;
        self.items.get(idx).cloned()
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// A deliberately lossy comparison-based summary: after every insert it
/// thins the stored set down to at most `budget` items, keeping the
/// extremes and an evenly spaced selection in between.
///
/// With a budget below ⌈1/(2ε)⌉ it *cannot* be ε-approximate, so the
/// adversary's gap grows past 2εN and Lemma 3.4 yields a concrete failing
/// query — which is exactly what this type is for.
#[derive(Clone, Debug)]
pub struct DecimatedSummary<T> {
    items: Vec<T>,
    n: u64,
    budget: usize,
}

impl<T: Ord + Clone> DecimatedSummary<T> {
    /// A summary that never stores more than `budget >= 2` items.
    pub fn new(budget: usize) -> Self {
        assert!(budget >= 2, "need room for min and max");
        DecimatedSummary {
            items: Vec::new(),
            n: 0,
            budget,
        }
    }

    fn thin(&mut self) {
        if self.items.len() <= self.budget {
            return;
        }
        let m = self.items.len();
        let keep = self.budget;
        let mut kept = Vec::with_capacity(keep);
        // Evenly spaced positions including both extremes. Positions are
        // pure index arithmetic — no item-value inspection — so this
        // remains comparison-based.
        for i in 0..keep {
            let pos = i * (m - 1) / (keep - 1);
            kept.push(self.items[pos].clone());
        }
        kept.dedup_by(|a, b| a == b);
        self.items = kept;
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for DecimatedSummary<T> {
    fn insert(&mut self, item: T) {
        let pos = self.items.partition_point(|x| *x <= item);
        self.items.insert(pos, item);
        self.n += 1;
        self.thin();
    }

    fn item_array(&self) -> Vec<T> {
        self.items.clone()
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        for item in &self.items {
            f(item);
        }
    }

    fn stored_count(&self) -> usize {
        self.items.len()
    }

    fn items_processed(&self) -> u64 {
        self.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        // Best effort: pretend stored items are evenly spaced.
        let frac = (r.clamp(1, self.n) - 1) as f64 / (self.n.max(1) - 1).max(1) as f64;
        let idx = (frac * (self.items.len() - 1) as f64).round() as usize;
        self.items.get(idx).cloned()
    }

    fn name(&self) -> &'static str {
        "decimated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_summary_answers_exactly() {
        let mut s = ExactSummary::new();
        for x in [30u32, 10, 20, 50, 40] {
            s.insert(x);
        }
        assert_eq!(s.query_rank(1), Some(10));
        assert_eq!(s.query_rank(3), Some(30));
        assert_eq!(s.query_rank(5), Some(50));
        assert_eq!(s.true_rank(&25), 2);
        assert_eq!(s.stored_count(), 5);
    }

    #[test]
    fn exact_summary_item_array_sorted() {
        let mut s = ExactSummary::new();
        for x in [5u32, 1, 4, 2, 3] {
            s.insert(x);
        }
        assert_eq!(s.item_array(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn decimated_respects_budget_and_extremes() {
        let mut s = DecimatedSummary::new(5);
        for x in 0..1000u32 {
            s.insert(x);
        }
        assert!(s.stored_count() <= 5);
        let arr = s.item_array();
        assert_eq!(arr.first(), Some(&0));
        assert_eq!(arr.last(), Some(&999));
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn decimated_counts_stream_length() {
        let mut s = DecimatedSummary::new(3);
        for x in 0..57u32 {
            s.insert(x);
        }
        assert_eq!(s.items_processed(), 57);
    }
}
