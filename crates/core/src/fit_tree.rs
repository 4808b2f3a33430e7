//! `FitTree` — the tick engine's sublinear placement index.
//!
//! Below the scan crossover the tick engine sweeps a dense gap array
//! ([`crate::scan`]); above it, it answers placements from a
//! Johnson-style tournament tree over residual capacities: one leaf
//! per open bin, internal nodes storing the **maximum key** of their
//! subtree, so that First Fit and Worst Fit become `O(log B)` tree
//! descents:
//!
//! * [`first_fit`](FitTree::first_fit) — the leftmost leaf with
//!   `key ≥ size`;
//! * [`worst_fit`](FitTree::worst_fit) — the leftmost leaf attaining
//!   the maximum key, provided it fits `size`.
//!
//! **Keys are shifted gaps.** A live leaf stores its bin's scaled
//! residual gap plus one (`key = gap + 1 ≥ 1`), so `0` is free to
//! tombstone closed and never-opened leaves; queries shift the size
//! the same way, which preserves every comparison.
//!
//! **Leaves are scan positions.** The tick engine hands out positions
//! in opening order and maps them to bin ids and store slots.
//! "Leftmost" then *is* "earliest opened", so the descents above
//! answer First Fit and Worst Fit with their canonical tie-breaks.
//!
//! **Compaction keeps the index bounded.** A closed bin leaves a
//! tombstone leaf, which no query can match. Left alone, tombstones
//! make the leaf array grow with bins *ever opened*.
//! [`compact`](FitTree::compact) slides the live leaves left in one
//! pass, order preserved, and reports each move so the caller can
//! remap its own position arrays. The tick engine compacts once
//! positions reach twice its open bins (above a floor), so every
//! compaction is paid for by at least as many closes and the index
//! stays within about twice peak open bins.
//!
//! **Best Fit needs an ordered set.** A max tree cannot answer
//! "minimum key `≥ size`" in one descent. [`BestFitSet`] is the
//! companion for that query: live leaves ordered by `(key, position)`.
//! Only Best Fit maintains it, so First Fit and Worst Fit never touch
//! a `BTreeSet`.
//!
//! Every query returns its answer together with the number of nodes
//! it visited (root check counts as 1); profiling probes read that as
//! the per-arrival descent depth, and it costs a register increment
//! when nobody does.

use std::collections::BTreeSet;

/// Key of tombstoned (closed) and never-opened leaves; live keys are
/// `gap + 1 ≥ 1`, and no query passes a size key at or below it.
const CLOSED: u64 = 0;

/// Tournament (max-)tree over the shifted gaps of scan positions.
/// See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FitTree {
    /// Number of leaves (a power of two, or 0 before first use).
    cap: usize,
    /// 1-based flat tree: `tree[1]` is the root, leaves occupy
    /// `tree[cap..2·cap]`; `tree[i]` is the max key in the subtree.
    tree: Vec<u64>,
    /// Number of live (open) leaves.
    live: usize,
}

impl FitTree {
    /// Creates an empty index.
    pub fn new() -> FitTree {
        FitTree::default()
    }

    /// Number of live (open) leaves.
    pub fn len(&self) -> usize {
        self.live
    }

    /// The key at a live position (`None` if closed or never
    /// opened).
    pub fn gap(&self, pos: usize) -> Option<u64> {
        if pos < self.cap && self.tree[self.cap + pos] != CLOSED {
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
        let mut tree = vec![CLOSED; 2 * cap];
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

    /// Registers a freshly opened bin at `pos` with the given key.
    ///
    /// # Panics
    /// Panics if `pos` is already live.
    pub fn open(&mut self, pos: usize, key: u64) {
        self.grow(pos + 1);
        assert!(
            self.tree[self.cap + pos] == CLOSED,
            "position {pos} opened twice in FitTree"
        );
        self.tree[self.cap + pos] = key;
        self.pull_up(pos);
        self.live += 1;
    }

    /// Sets a live leaf's key (an item arrived or departed). Returns
    /// the old key.
    ///
    /// # Panics
    /// Panics if `pos` is not live.
    pub fn set_gap(&mut self, pos: usize, key: u64) -> u64 {
        let old = self
            .gap(pos)
            .expect("set_gap() on a position not in FitTree");
        if old != key {
            self.tree[self.cap + pos] = key;
            self.pull_up(pos);
        }
        old
    }

    /// Tombstones a closed bin's leaf. Returns its last key.
    ///
    /// # Panics
    /// Panics if `pos` is not live.
    pub fn close(&mut self, pos: usize) -> u64 {
        let old = self.gap(pos).expect("close() of a position not in FitTree");
        self.tree[self.cap + pos] = CLOSED;
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
            let key = self.tree[self.cap + old];
            if key != CLOSED {
                self.tree[self.cap + next] = key;
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
        self.tree[self.cap + next..].fill(CLOSED);
        self.rebuild_internal();
    }

    /// First Fit: the leftmost live position with `key ≥ size`, plus
    /// the number of nodes the descent visited.
    pub fn first_fit(&self, size: u64) -> (Option<usize>, u32) {
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

    /// Worst Fit: the lowest-level (largest-key) live position,
    /// provided it can take `size`; ties broken toward the leftmost
    /// position (the leftmost leaf attaining the root's maximum).
    /// Returns the descent's node count alongside.
    pub fn worst_fit(&self, size: u64) -> (Option<usize>, u32) {
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
/// by `(key, position)`. The caller mirrors every open, key change
/// and close of the tree into it. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct BestFitSet {
    by_gap: BTreeSet<(u64, usize)>,
}

impl BestFitSet {
    /// Creates an empty set.
    pub fn new() -> BestFitSet {
        BestFitSet::default()
    }

    /// Adds a freshly opened position.
    pub fn insert(&mut self, pos: usize, key: u64) {
        self.by_gap.insert((key, pos));
    }

    /// Moves a live position from key `old` to key `new`.
    pub fn update(&mut self, pos: usize, old: u64, new: u64) {
        if old != new {
            self.by_gap.remove(&(old, pos));
            self.by_gap.insert((new, pos));
        }
    }

    /// Drops a closed position whose last key was `key`.
    pub fn remove(&mut self, pos: usize, key: u64) {
        self.by_gap.remove(&(key, pos));
    }

    /// Replaces the contents with `live` (`(position, key)` pairs),
    /// e.g. after a [`FitTree::compact`] renumbered the positions.
    pub fn rebuild(&mut self, live: impl IntoIterator<Item = (usize, u64)>) {
        self.by_gap = live.into_iter().map(|(pos, key)| (key, pos)).collect();
    }

    /// Best Fit: the highest-level (smallest-key) live position with
    /// `key ≥ size`, ties broken toward the leftmost position. The
    /// ordered-set range lookup counts as one probe.
    pub fn best_fit(&self, size: u64) -> (Option<usize>, u32) {
        let hit = self.by_gap.range((size, 0)..).next().map(|&(_, pos)| pos);
        (hit, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree plus its Best Fit companion, updated in lockstep the
    /// way a Best Fit caller keeps them, with the hits alone.
    #[derive(Default)]
    struct Both {
        tree: FitTree,
        order: BestFitSet,
    }

    impl Both {
        fn open(&mut self, pos: usize, key: u64) {
            self.tree.open(pos, key);
            self.order.insert(pos, key);
        }
        fn set_gap(&mut self, pos: usize, key: u64) {
            let old = self.tree.set_gap(pos, key);
            self.order.update(pos, old, key);
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
        fn ff(&self, size: u64) -> Option<usize> {
            self.tree.first_fit(size).0
        }
        fn bf(&self, size: u64) -> Option<usize> {
            self.order.best_fit(size).0
        }
        fn wf(&self, size: u64) -> Option<usize> {
            self.tree.worst_fit(size).0
        }
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let t = Both::default();
        assert_eq!(t.tree.len(), 0);
        assert_eq!(t.ff(5), None);
        assert_eq!(t.bf(5), None);
        assert_eq!(t.wf(5), None);
        assert_eq!(t.tree.gap(0), None);
    }

    #[test]
    fn selection_rules_agree_with_definitions() {
        let mut t = Both::default();
        // Keys: p0=1, p1=5, p2=4, p3=5.
        for (pos, key) in [1, 5, 4, 5].into_iter().enumerate() {
            t.open(pos, key);
        }
        assert_eq!(t.tree.len(), 4);
        // size 3: leftmost feasible is p1; tightest feasible is p2;
        // roomiest is p1 (key 5, tie with p3 → leftmost).
        assert_eq!(t.ff(3), Some(1));
        assert_eq!(t.bf(3), Some(2));
        assert_eq!(t.wf(3), Some(1));
        // size 1 fits everything: FF→p0, BF→p0 (tightest), WF→p1.
        assert_eq!(t.ff(1), Some(0));
        assert_eq!(t.bf(1), Some(0));
        assert_eq!(t.wf(1), Some(1));
        // Nothing fits 6.
        assert_eq!(t.ff(6), None);
        assert_eq!(t.bf(6), None);
        assert_eq!(t.wf(6), None);
    }

    #[test]
    fn updates_and_closures_are_tracked() {
        let mut t = Both::default();
        for (pos, key) in [5, 9, 7, 9, 2].into_iter().enumerate() {
            t.open(pos, key);
        }
        assert_eq!(t.ff(6), Some(1));
        assert_eq!(t.wf(6), Some(1));
        t.set_gap(1, 5); // an item landed in p1: 9 → 5
        assert_eq!(t.tree.gap(1), Some(5));
        assert_eq!(t.ff(6), Some(2));
        assert_eq!(t.bf(6), Some(2));
        assert_eq!(t.wf(6), Some(3));
        t.close(3);
        assert_eq!(t.tree.gap(3), None);
        assert_eq!(t.wf(6), Some(2));
        t.set_gap(0, 8); // a departure grew p0's gap
        assert_eq!(t.ff(6), Some(0));
        assert_eq!(t.wf(1), Some(0));
        assert_eq!(t.tree.len(), 4);
    }

    #[test]
    fn exact_fill_boundary_is_inclusive() {
        let mut t = Both::default();
        t.open(0, 4);
        // key == size is feasible (capacity is inclusive).
        assert_eq!(t.ff(4), Some(0));
        assert_eq!(t.bf(4), Some(0));
        assert_eq!(t.wf(4), Some(0));
        // A full bin keeps key 1 (gap 0): live, but fits nothing.
        t.set_gap(0, 1);
        assert_eq!(t.tree.gap(0), Some(1));
        assert_eq!(t.ff(2), None);
        assert_eq!(t.bf(2), None);
    }

    #[test]
    fn growth_preserves_existing_leaves() {
        let mut t = FitTree::new();
        for k in 0..100usize {
            t.open(k, 1 + (k as u64 % 7));
        }
        assert_eq!(t.len(), 100);
        // Leftmost with key ≥ 7: keys cycle 1..=7, so the first leaf
        // holding 7 is position 6.
        assert_eq!(t.first_fit(7).0, Some(6));
        // Close the first fifty; queries shift right.
        for k in 0..50usize {
            t.close(k);
        }
        assert_eq!(t.first_fit(7).0, Some(55));
        assert_eq!(t.len(), 50);
    }

    /// Compaction drops tombstones, keeps order, reports every move,
    /// and shrinks the leaf array; queries answer the same bins.
    #[test]
    fn compaction_preserves_order_and_shrinks() {
        let mut t = FitTree::new();
        for k in 0..100usize {
            t.open(k, 1 + (k as u64 % 7));
        }
        for k in (0..100usize).filter(|k| k % 4 != 3) {
            t.close(k);
        }
        // Survivors: positions 3, 7, 11, ... (25 of them).
        let before: Vec<Option<usize>> = (1..=8).map(|s| t.first_fit(s).0).collect();
        let mut moves = Vec::new();
        t.compact(|old, new| moves.push((old, new)));
        assert_eq!(moves.len(), 25);
        assert!(moves.iter().all(|&(old, new)| old == 4 * new + 3));
        assert_eq!(t.len(), 25);
        let after: Vec<Option<usize>> = (1..=8).map(|s| t.first_fit(s).0).collect();
        let remapped: Vec<Option<usize>> = before
            .iter()
            .map(|hit| hit.map(|old| (old - 3) / 4))
            .collect();
        assert_eq!(after, remapped);
        // Leaf array shrank from 128 to 32: a full descent visits
        // root + 5 levels.
        assert_eq!(t.first_fit(1).1, 6);
        // New opens append after the compacted prefix.
        t.open(25, 9);
        assert_eq!(t.first_fit(9).0, Some(25));
        assert_eq!(t.worst_fit(1).0, Some(25));
        // Compacting an all-tombstone tree leaves it empty.
        for k in 0..26 {
            t.close(k);
        }
        t.compact(|_, _| panic!("no live leaf to move"));
        assert_eq!(t.len(), 0);
        assert_eq!(t.first_fit(1).0, None);
        t.open(0, 3);
        assert_eq!(t.first_fit(2).0, Some(0));
    }

    #[test]
    fn queries_report_descent_depth() {
        let mut t = Both::default();
        for k in 0..5usize {
            t.open(k, 4);
        }
        // cap grew to 8: a full descent visits root + 3 levels.
        assert_eq!(t.tree.first_fit(2), (Some(0), 4));
        assert_eq!(t.tree.worst_fit(2), (Some(0), 4));
        assert_eq!(t.order.best_fit(2), (Some(0), 1));
        // Infeasible queries stop at the root.
        assert_eq!(t.tree.first_fit(6), (None, 1));
        assert_eq!(t.tree.worst_fit(6), (None, 1));
    }

    #[test]
    #[should_panic(expected = "opened twice")]
    fn double_open_panics() {
        let mut t = FitTree::new();
        t.open(0, 3);
        t.open(0, 3);
    }

    /// Cross-check every query against a brute-force scan on a
    /// deterministic pseudo-random churn sequence, compacting now and
    /// then: all three rules, positions remapped like a caller would.
    #[test]
    fn matches_linear_scan_under_churn() {
        let mut t = Both::default();
        // (position, key) of every live bin, in position order.
        let mut live: Vec<(usize, u64)> = Vec::new();
        let mut next = 0usize;
        let mut state = 0x9E37u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..600 {
            match rng() % 3 {
                0 => {
                    let key = 1 + rng() % 100;
                    t.open(next, key);
                    live.push((next, key));
                    next += 1;
                }
                1 if !live.is_empty() => {
                    let k = rng() as usize % live.len();
                    let (pos, _) = live.remove(k);
                    t.close(pos);
                }
                _ if !live.is_empty() => {
                    let k = rng() as usize % live.len();
                    let key = 1 + rng() % 100;
                    live[k].1 = key;
                    t.set_gap(live[k].0, key);
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
            let s = 2 + rng() % 99;
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
            assert_eq!(t.ff(s), ff, "first_fit diverged at step {step}");
            assert_eq!(t.bf(s), bf, "best_fit diverged at step {step}");
            assert_eq!(t.wf(s), wf, "worst_fit diverged at step {step}");
            assert_eq!(t.tree.len(), live.len());
        }
    }
}
