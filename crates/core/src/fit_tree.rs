//! `FitTree` — a sublinear placement index over open bins.
//!
//! The Any-Fit reference implementations scan every open bin per
//! arrival, which makes a replay with `B` concurrent bins cost
//! `Θ(n·B)`. This module provides the classic alternative (a
//! Johnson-style tournament tree over residual capacities): one leaf
//! per bin, internal nodes storing the **maximum residual gap** of
//! their subtree, so that First Fit and Worst Fit become `O(log B)`
//! tree descents:
//!
//! * [`first_fit`](FitTree::first_fit) — the leftmost leaf with
//!   `gap ≥ s`;
//! * [`worst_fit`](FitTree::worst_fit) — the leftmost leaf attaining
//!   the maximum gap, provided it fits `s`.
//!
//! **Leaves are scan positions.** The caller decides which bin sits
//! at which position, under one rule: position order is opening
//! order. "Leftmost" then *is* "earliest opened", so the descents
//! above answer First Fit and Worst Fit with their canonical
//! tie-breaks. The `Rational` `*Fast` algorithms use a bin's
//! [`BinId`](crate::BinId) index as its position (ids are minted in
//! opening order and never reused). The tick engine hands out
//! positions itself and maps them to bin ids and store slots.
//!
//! **Compaction keeps the index bounded.** A closed bin leaves a
//! tombstone leaf holding [`GapKey::CLOSED`], which no query can
//! match. Left alone, tombstones make the leaf array grow with bins
//! *ever opened*. [`compact`](FitTree::compact) slides the live
//! leaves left in one pass, order preserved, and reports each move so
//! the caller can remap its own position arrays. The tick engine
//! compacts once positions reach twice its open bins (above a floor),
//! so every compaction is paid for by at least as many closes and the
//! index stays within about twice peak open bins.
//!
//! **Best Fit needs an ordered set.** A max tree cannot answer
//! "minimum gap `≥ s`" in one descent. [`BestFitSet`] is the
//! companion for that query: live leaves ordered by `(gap, position)`.
//! Only Best Fit maintains it, so First Fit and Worst Fit never touch
//! a `BTreeSet`.
//!
//! Both structures are generic over their gap key through
//! [`GapKey`]. The default, [`Rational`], keeps feasibility decisions
//! bit-identical to the linear scans the fast algorithms replace; the
//! tick engine (`crate::tick`) instantiates them over `u64` keys —
//! scaled gaps shifted by one so that `0` can serve as the tombstone
//! — turning every comparison on the descent into a machine integer
//! compare.

use dbp_numeric::Rational;
use std::collections::BTreeSet;
use std::ops::Sub;

/// A totally ordered gap key with a sentinel strictly below every
/// value a live bin can hold, used to tombstone closed leaves.
pub trait GapKey: Copy + Ord {
    /// Sentinel for tombstoned (closed) and never-opened leaves. No
    /// feasibility query may ever pass a size at or below it.
    const CLOSED: Self;
}

/// Exact rational gaps; real gaps are `≥ 0`, so `-1` tombstones.
impl GapKey for Rational {
    const CLOSED: Rational = Rational::from_int(-1);
}

/// Scaled integer gaps for the tick engine. Stored shifted by one
/// (`key = gap + 1 ≥ 1`) so `0` is free for the tombstone; queries
/// shift the size the same way, which preserves every comparison.
impl GapKey for u64 {
    const CLOSED: u64 = 0;
}

/// Tournament (max-)tree over the residual gaps of scan positions.
/// See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FitTree<V: GapKey = Rational> {
    /// Number of leaves (a power of two, or 0 before first use).
    cap: usize,
    /// 1-based flat tree: `tree[1]` is the root, leaves occupy
    /// `tree[cap..2·cap]`; `tree[i]` is the max gap in the subtree.
    tree: Vec<V>,
    /// Number of live (open) leaves.
    live: usize,
}

impl<V: GapKey> FitTree<V> {
    /// Creates an empty index.
    pub fn new() -> FitTree<V> {
        FitTree {
            cap: 0,
            tree: Vec::new(),
            live: 0,
        }
    }

    /// Removes every bin (start of a new run).
    pub fn clear(&mut self) {
        self.cap = 0;
        self.tree.clear();
        self.live = 0;
    }

    /// Number of live (open) leaves.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff no leaf is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The residual gap at a live position (`None` if closed or
    /// never opened).
    pub fn gap(&self, pos: usize) -> Option<V> {
        if pos < self.cap && self.tree[self.cap + pos] != V::CLOSED {
            Some(self.tree[self.cap + pos])
        } else {
            None
        }
    }

    /// Grows the leaf array to cover `want` leaves, rebuilding the
    /// internal max nodes.
    fn grow(&mut self, want: usize) {
        let cap = want.next_power_of_two().max(self.cap);
        if cap == self.cap {
            return;
        }
        let mut tree = vec![V::CLOSED; 2 * cap];
        if self.cap > 0 {
            tree[cap..cap + self.cap].copy_from_slice(&self.tree[self.cap..2 * self.cap]);
        }
        self.cap = cap;
        self.tree = tree;
        self.rebuild_internal();
    }

    /// Recomputes every internal node from the leaves, bottom up.
    fn rebuild_internal(&mut self) {
        for i in (1..self.cap).rev() {
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
    }

    /// Re-establishes the max invariant on the path above leaf `pos`.
    fn pull_up(&mut self, pos: usize) {
        let mut i = (self.cap + pos) / 2;
        while i >= 1 {
            let m = self.tree[2 * i].max(self.tree[2 * i + 1]);
            if self.tree[i] == m {
                break;
            }
            self.tree[i] = m;
            i /= 2;
        }
    }

    /// Registers a freshly opened bin at `pos` with the given gap.
    ///
    /// # Panics
    /// Panics if `pos` is already live.
    pub fn open(&mut self, pos: usize, gap: V) {
        self.grow(pos + 1);
        assert!(
            self.tree[self.cap + pos] == V::CLOSED,
            "position {pos} opened twice in FitTree"
        );
        self.tree[self.cap + pos] = gap;
        self.pull_up(pos);
        self.live += 1;
    }

    /// Shrinks a live leaf's gap by `size` (an item was placed).
    /// Returns the old gap.
    ///
    /// # Panics
    /// Panics if `pos` is not live.
    pub fn place(&mut self, pos: usize, size: V) -> V
    where
        V: Sub<Output = V>,
    {
        let old = self
            .gap(pos)
            .expect("place() into a position not in FitTree");
        self.set_gap(pos, old - size)
    }

    /// Sets a live leaf's gap to an absolute value (an item departed
    /// and the bin's level is known). Returns the old gap.
    ///
    /// # Panics
    /// Panics if `pos` is not live.
    pub fn set_gap(&mut self, pos: usize, gap: V) -> V {
        let old = self
            .gap(pos)
            .expect("set_gap() on a position not in FitTree");
        if old != gap {
            self.tree[self.cap + pos] = gap;
            self.pull_up(pos);
        }
        old
    }

    /// Tombstones a closed bin's leaf. Returns its last gap.
    ///
    /// # Panics
    /// Panics if `pos` is not live.
    pub fn close(&mut self, pos: usize) -> V {
        let old = self.gap(pos).expect("close() of a position not in FitTree");
        self.tree[self.cap + pos] = V::CLOSED;
        self.pull_up(pos);
        self.live -= 1;
        old
    }

    /// Drops every tombstone: the live leaves move to positions
    /// `0..len()` in their current order, and `moved(old, new)` runs
    /// once per live leaf, in ascending order, so the caller can
    /// remap its own position arrays. The leaf array shrinks to the
    /// smallest power of two that holds the live leaves. One pass
    /// over the leaf array.
    pub fn compact(&mut self, mut moved: impl FnMut(usize, usize)) {
        let mut next = 0;
        for old in 0..self.cap {
            let gap = self.tree[self.cap + old];
            if gap != V::CLOSED {
                self.tree[self.cap + next] = gap;
                moved(old, next);
                next += 1;
            }
        }
        debug_assert_eq!(next, self.live, "live counter out of sync");
        let cap = next.next_power_of_two();
        if cap < self.cap {
            // The target range ends at `2·cap ≤ self.cap`, before the
            // source range starts: no overlap.
            self.tree.copy_within(self.cap..self.cap + next, cap);
            self.tree.truncate(2 * cap);
            self.cap = cap;
        }
        self.tree[self.cap + next..].fill(V::CLOSED);
        self.rebuild_internal();
    }

    /// First Fit: the leftmost live position with `gap ≥ size`.
    pub fn first_fit(&self, size: V) -> Option<usize> {
        self.first_fit_counted(size).0
    }

    /// [`first_fit`](Self::first_fit) plus the number of tree nodes
    /// the descent visited (root check counts as 1). The counter is a
    /// register increment, so callers that discard it (the plain
    /// query) pay nothing after inlining; profiling probes read it as
    /// the per-arrival descent depth.
    pub fn first_fit_counted(&self, size: V) -> (Option<usize>, u32) {
        if self.cap == 0 || self.tree[1] < size {
            return (None, 1);
        }
        let mut i = 1;
        let mut depth = 1u32;
        while i < self.cap {
            i = if self.tree[2 * i] >= size {
                2 * i
            } else {
                2 * i + 1
            };
            depth += 1;
        }
        (Some(i - self.cap), depth)
    }

    /// Worst Fit: the lowest-level (largest-gap) live position,
    /// provided it can take `size`; ties broken toward the leftmost
    /// position (the leftmost leaf attaining the root's maximum).
    pub fn worst_fit(&self, size: V) -> Option<usize> {
        self.worst_fit_counted(size).0
    }

    /// [`worst_fit`](Self::worst_fit) plus the descent node count
    /// (see [`first_fit_counted`](Self::first_fit_counted)).
    pub fn worst_fit_counted(&self, size: V) -> (Option<usize>, u32) {
        if self.cap == 0 || self.tree[1] < size {
            return (None, 1);
        }
        let max = self.tree[1];
        let mut i = 1;
        let mut depth = 1u32;
        while i < self.cap {
            i = if self.tree[2 * i] == max {
                2 * i
            } else {
                2 * i + 1
            };
            depth += 1;
        }
        (Some(i - self.cap), depth)
    }
}

/// Best Fit's companion to a [`FitTree`]: the live positions ordered
/// by `(gap, position)`. The caller mirrors every open, gap change
/// and close of the tree into it. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct BestFitSet<V: GapKey = Rational> {
    by_gap: BTreeSet<(V, usize)>,
}

impl<V: GapKey> BestFitSet<V> {
    /// Creates an empty set.
    pub fn new() -> BestFitSet<V> {
        BestFitSet {
            by_gap: BTreeSet::new(),
        }
    }

    /// Removes every position.
    pub fn clear(&mut self) {
        self.by_gap.clear();
    }

    /// Number of live positions.
    pub fn len(&self) -> usize {
        self.by_gap.len()
    }

    /// `true` iff no position is live.
    pub fn is_empty(&self) -> bool {
        self.by_gap.is_empty()
    }

    /// Adds a freshly opened position.
    pub fn insert(&mut self, pos: usize, gap: V) {
        self.by_gap.insert((gap, pos));
    }

    /// Moves a live position from gap `old` to gap `new`.
    pub fn update(&mut self, pos: usize, old: V, new: V) {
        if old != new {
            self.by_gap.remove(&(old, pos));
            self.by_gap.insert((new, pos));
        }
    }

    /// Drops a closed position whose last gap was `gap`.
    pub fn remove(&mut self, pos: usize, gap: V) {
        self.by_gap.remove(&(gap, pos));
    }

    /// Replaces the contents with `live` (`(position, gap)` pairs),
    /// e.g. after a [`FitTree::compact`] renumbered the positions.
    pub fn rebuild(&mut self, live: impl IntoIterator<Item = (usize, V)>) {
        self.by_gap = live.into_iter().map(|(pos, gap)| (gap, pos)).collect();
    }

    /// Best Fit: the highest-level (smallest-gap) live position with
    /// `gap ≥ size`; ties broken toward the leftmost position.
    pub fn best_fit(&self, size: V) -> Option<usize> {
        self.by_gap.range((size, 0)..).next().map(|&(_, pos)| pos)
    }

    /// [`best_fit`](Self::best_fit) with a descent count of 1 (the
    /// ordered-set range lookup is one probe from the caller's view).
    pub fn best_fit_counted(&self, size: V) -> (Option<usize>, u32) {
        (self.best_fit(size), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_numeric::rat;

    /// A tree plus its Best Fit companion, updated in lockstep the
    /// way a Best Fit caller keeps them.
    #[derive(Default)]
    struct Both {
        tree: FitTree,
        order: BestFitSet,
    }

    impl Both {
        fn open(&mut self, pos: usize, gap: Rational) {
            self.tree.open(pos, gap);
            self.order.insert(pos, gap);
        }
        fn set_gap(&mut self, pos: usize, gap: Rational) {
            let old = self.tree.set_gap(pos, gap);
            self.order.update(pos, old, gap);
        }
        fn close(&mut self, pos: usize) {
            let old = self.tree.close(pos);
            self.order.remove(pos, old);
        }
        fn compact(&mut self) {
            self.tree.compact(|_, _| {});
            let tree = &self.tree;
            self.order
                .rebuild((0..tree.len()).map(|p| (p, tree.gap(p).unwrap())));
        }
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let t = FitTree::new();
        assert!(t.is_empty());
        assert_eq!(t.first_fit(rat(1, 2)), None);
        assert_eq!(t.worst_fit(rat(1, 2)), None);
        assert_eq!(t.gap(0), None);
        assert_eq!(BestFitSet::new().best_fit(rat(1, 2)), None);
    }

    #[test]
    fn selection_rules_agree_with_definitions() {
        let mut t = Both::default();
        // Gaps: p0=0.1, p1=0.5, p2=0.4, p3=0.5.
        t.open(0, rat(1, 10));
        t.open(1, rat(1, 2));
        t.open(2, rat(2, 5));
        t.open(3, rat(1, 2));
        assert_eq!(t.tree.len(), 4);
        assert_eq!(t.order.len(), 4);
        // size 0.3: leftmost feasible is p1; tightest feasible is p2;
        // roomiest is p1 (gap 0.5, tie with p3 → leftmost).
        assert_eq!(t.tree.first_fit(rat(3, 10)), Some(1));
        assert_eq!(t.order.best_fit(rat(3, 10)), Some(2));
        assert_eq!(t.tree.worst_fit(rat(3, 10)), Some(1));
        // size 0.05 fits everything: FF→p0, BF→p0 (tightest), WF→p1.
        assert_eq!(t.tree.first_fit(rat(1, 20)), Some(0));
        assert_eq!(t.order.best_fit(rat(1, 20)), Some(0));
        assert_eq!(t.tree.worst_fit(rat(1, 20)), Some(1));
        // Nothing fits 0.6.
        assert_eq!(t.tree.first_fit(rat(3, 5)), None);
        assert_eq!(t.order.best_fit(rat(3, 5)), None);
        assert_eq!(t.tree.worst_fit(rat(3, 5)), None);
    }

    /// First Fit and Worst Fit are answered by the tree alone: no
    /// companion set exists in this test.
    #[test]
    fn first_and_worst_fit_need_no_ordered_set() {
        let mut t: FitTree<u64> = FitTree::new();
        for (pos, key) in [5u64, 9, 7, 9, 2].into_iter().enumerate() {
            t.open(pos, key);
        }
        assert_eq!(t.first_fit(6), Some(1));
        assert_eq!(t.worst_fit(6), Some(1));
        t.place(1, 4); // p1: 9 → 5
        assert_eq!(t.first_fit(6), Some(2));
        assert_eq!(t.worst_fit(6), Some(3));
        t.close(3);
        assert_eq!(t.worst_fit(6), Some(2));
        t.set_gap(0, 8);
        assert_eq!(t.first_fit(6), Some(0));
        assert_eq!(t.worst_fit(1), Some(0));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn updates_and_closures_are_tracked() {
        let mut t = FitTree::new();
        t.open(0, rat(1, 2));
        t.open(1, rat(1, 2));
        assert_eq!(t.place(0, rat(1, 4)), rat(1, 2)); // p0 gap → 1/4
        assert_eq!(t.gap(0), Some(rat(1, 4)));
        assert_eq!(t.first_fit(rat(1, 3)), Some(1));
        assert_eq!(t.set_gap(0, rat(3, 4)), rat(1, 4)); // departure grew the gap
        assert_eq!(t.first_fit(rat(2, 3)), Some(0));
        assert_eq!(t.close(0), rat(3, 4));
        assert_eq!(t.gap(0), None);
        assert_eq!(t.first_fit(rat(1, 8)), Some(1));
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.first_fit(rat(1, 8)), None);
    }

    #[test]
    fn exact_fill_boundary_is_inclusive() {
        let mut t = Both::default();
        t.open(0, rat(1, 4));
        // gap == size is feasible (capacity is inclusive).
        assert_eq!(t.tree.first_fit(rat(1, 4)), Some(0));
        assert_eq!(t.order.best_fit(rat(1, 4)), Some(0));
        assert_eq!(t.tree.worst_fit(rat(1, 4)), Some(0));
        t.set_gap(0, Rational::ZERO);
        assert_eq!(t.tree.gap(0), Some(Rational::ZERO));
        assert_eq!(t.tree.first_fit(rat(1, 100)), None);
        assert_eq!(t.order.best_fit(rat(1, 100)), None);
    }

    #[test]
    fn growth_preserves_existing_leaves() {
        let mut t = FitTree::new();
        for k in 0..100usize {
            t.open(k, rat(1 + (k as i128 % 7), 10));
        }
        assert_eq!(t.len(), 100);
        // Leftmost with gap ≥ 0.7: gaps cycle 1/10..7/10, so the
        // first leaf holding 7/10 is position 6.
        assert_eq!(t.first_fit(rat(7, 10)), Some(6));
        // Close the first fifty; queries shift right.
        for k in 0..50usize {
            t.close(k);
        }
        assert_eq!(t.first_fit(rat(7, 10)), Some(55));
        assert_eq!(t.len(), 50);
    }

    /// Compaction drops tombstones, keeps order, reports every move,
    /// and shrinks the leaf array; queries answer the same bins.
    #[test]
    fn compaction_preserves_order_and_shrinks() {
        let mut t: FitTree<u64> = FitTree::new();
        for k in 0..100usize {
            t.open(k, 1 + (k as u64 % 7));
        }
        for k in (0..100usize).filter(|k| k % 4 != 3) {
            t.close(k);
        }
        // Survivors: positions 3, 7, 11, ... (25 of them).
        let before: Vec<Option<usize>> = (1..=8).map(|s| t.first_fit(s)).collect();
        let mut moves = Vec::new();
        t.compact(|old, new| moves.push((old, new)));
        assert_eq!(moves.len(), 25);
        assert!(moves.iter().all(|&(old, new)| old == 4 * new + 3));
        assert_eq!(t.len(), 25);
        let after: Vec<Option<usize>> = (1..=8).map(|s| t.first_fit(s)).collect();
        let remapped: Vec<Option<usize>> = before
            .iter()
            .map(|hit| hit.map(|old| (old - 3) / 4))
            .collect();
        assert_eq!(after, remapped);
        // Leaf array shrank from 128 to 32: a full descent visits
        // root + 5 levels.
        assert_eq!(t.first_fit_counted(1).1, 6);
        // New opens append after the compacted prefix.
        t.open(25, 9);
        assert_eq!(t.first_fit(9), Some(25));
        assert_eq!(t.worst_fit(1), Some(25));
        // Compacting an all-tombstone tree leaves it empty.
        for k in 0..26 {
            t.close(k);
        }
        t.compact(|_, _| panic!("no live leaf to move"));
        assert!(t.is_empty());
        assert_eq!(t.first_fit(1), None);
        t.open(0, 3);
        assert_eq!(t.first_fit(2), Some(0));
    }

    #[test]
    fn counted_queries_report_descent_depth() {
        let mut t = Both::default();
        for k in 0..5usize {
            t.open(k, rat(1, 2));
        }
        // cap grew to 8: a full descent visits root + 3 levels.
        let (hit, depth) = t.tree.first_fit_counted(rat(1, 4));
        assert_eq!(hit, Some(0));
        assert_eq!(depth, 4);
        assert_eq!(t.tree.worst_fit_counted(rat(1, 4)), (Some(0), 4));
        assert_eq!(t.order.best_fit_counted(rat(1, 4)), (Some(0), 1));
        // Infeasible queries stop at the root.
        assert_eq!(t.tree.first_fit_counted(rat(3, 4)), (None, 1));
        assert_eq!(t.tree.worst_fit_counted(rat(3, 4)), (None, 1));
    }

    #[test]
    #[should_panic(expected = "opened twice")]
    fn double_open_panics() {
        let mut t = FitTree::new();
        t.open(0, rat(1, 2));
        t.open(0, rat(1, 2));
    }

    /// The `u64` instantiation (shifted keys, tombstone `0`) answers
    /// exactly like the `Rational` tree over the same scaled gaps.
    #[test]
    fn integer_keys_mirror_rational_keys() {
        const SCALE: i128 = 20;
        let gaps: [(usize, i128); 4] = [(0, 2), (1, 10), (2, 8), (3, 10)];
        let mut rt = Both::default();
        let mut it: FitTree<u64> = FitTree::new();
        let mut io: BestFitSet<u64> = BestFitSet::new();
        for &(pos, g) in &gaps {
            rt.open(pos, rat(g, SCALE));
            it.open(pos, g as u64 + 1);
            io.insert(pos, g as u64 + 1);
        }
        let check = |rt: &Both, it: &FitTree<u64>, io: &BestFitSet<u64>| {
            for s in 1..=SCALE {
                let size = rat(s, SCALE);
                assert_eq!(rt.tree.first_fit(size), it.first_fit(s as u64 + 1));
                assert_eq!(rt.order.best_fit(size), io.best_fit(s as u64 + 1));
                assert_eq!(rt.tree.worst_fit(size), it.worst_fit(s as u64 + 1));
            }
        };
        check(&rt, &it, &io);
        // Churn: place, depart, close — shifted keys stay aligned.
        rt.set_gap(1, rat(6, SCALE));
        let old = it.place(1, 4);
        io.update(1, old, old - 4);
        assert_eq!(rt.tree.gap(1), Some(rat(6, SCALE)));
        assert_eq!(it.gap(1), Some(7));
        rt.set_gap(0, rat(5, SCALE));
        let old = it.set_gap(0, 6);
        io.update(0, old, 6);
        rt.close(3);
        let old = it.close(3);
        io.remove(3, old);
        check(&rt, &it, &io);
        assert_eq!(it.len(), 3);
        assert_eq!(io.len(), 3);
    }

    /// Cross-check every query against a brute-force scan on a
    /// deterministic pseudo-random churn sequence, compacting now and
    /// then: all three rules, positions remapped like a caller would.
    #[test]
    fn matches_linear_scan_under_churn() {
        let mut t = Both::default();
        // (position, gap) of every live bin, in position order.
        let mut live: Vec<(usize, Rational)> = Vec::new();
        let mut next = 0usize;
        let mut state = 0x9E37u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i128
        };
        for step in 0..600 {
            match rng() % 3 {
                0 => {
                    let gap = rat(rng() % 100, 100).abs();
                    t.open(next, gap);
                    live.push((next, gap));
                    next += 1;
                }
                1 if !live.is_empty() => {
                    let k = (rng().unsigned_abs() as usize) % live.len();
                    let (pos, _) = live.remove(k);
                    t.close(pos);
                }
                _ if !live.is_empty() => {
                    let k = (rng().unsigned_abs() as usize) % live.len();
                    let gap = rat(rng() % 100, 100).abs();
                    live[k].1 = gap;
                    t.set_gap(live[k].0, gap);
                }
                _ => {}
            }
            if step % 97 == 96 {
                t.compact();
                for (new, entry) in live.iter_mut().enumerate() {
                    entry.0 = new;
                }
                next = live.len();
            }
            let s = rat(1 + rng().unsigned_abs() as i128 % 99, 100);
            let ff = live
                .iter()
                .filter(|(_, g)| *g >= s)
                .min_by_key(|(pos, _)| *pos)
                .map(|&(pos, _)| pos);
            let bf = live
                .iter()
                .filter(|(_, g)| *g >= s)
                .min_by_key(|&&(pos, g)| (g, pos))
                .map(|&(pos, _)| pos);
            let wf = live
                .iter()
                .filter(|(_, g)| *g >= s)
                .max_by(|a, b| (a.1, std::cmp::Reverse(a.0)).cmp(&(b.1, std::cmp::Reverse(b.0))))
                .map(|&(pos, _)| pos);
            assert_eq!(t.tree.first_fit(s), ff, "first_fit diverged at step {step}");
            assert_eq!(t.order.best_fit(s), bf, "best_fit diverged at step {step}");
            assert_eq!(t.tree.worst_fit(s), wf, "worst_fit diverged at step {step}");
            assert_eq!(t.tree.len(), live.len());
            assert_eq!(t.order.len(), live.len());
        }
    }
}
