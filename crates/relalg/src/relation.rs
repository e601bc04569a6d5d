//! The bit-matrix [`Relation`] type and its algebra.

use std::fmt;

const WORD: usize = 64;

/// A binary relation over the universe `{0, 1, .., n-1}`.
///
/// Stored as a dense bit matrix: row `a` is the set of `b` with `(a, b)` in
/// the relation. All operations that combine two relations require both to
/// have the same universe size and panic otherwise (mixing relations over
/// different event sets is always a logic error in this codebase).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// Creates the empty relation over a universe of size `n`.
    pub fn empty(n: usize) -> Self {
        let words_per_row = n.div_ceil(WORD);
        Relation {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// Creates the identity relation `{(i, i)}` over a universe of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut r = Self::empty(n);
        for i in 0..n {
            r.insert(i, i);
        }
        r
    }

    /// Creates the full relation (every ordered pair) over `n` elements.
    pub fn full(n: usize) -> Self {
        let words_per_row = n.div_ceil(WORD);
        let mut bits = vec![!0u64; n * words_per_row];
        let tail = n % WORD;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            for row in 0..n {
                bits[row * words_per_row + words_per_row - 1] = mask;
            }
        }
        Relation {
            n,
            words_per_row,
            bits,
        }
    }

    /// Creates a relation from an iterator of pairs.
    ///
    /// # Panics
    ///
    /// Panics if any pair element is `>= n`.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut r = Self::empty(n);
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// The size of the universe this relation ranges over.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Returns `true` if the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Adds the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` or `b >= n`.
    pub fn insert(&mut self, a: usize, b: usize) {
        assert!(
            a < self.n && b < self.n,
            "pair ({a}, {b}) outside universe {}",
            self.n
        );
        self.bits[a * self.words_per_row + b / WORD] |= 1u64 << (b % WORD);
    }

    /// Removes the pair `(a, b)` if present.
    pub fn remove(&mut self, a: usize, b: usize) {
        if a < self.n && b < self.n {
            self.bits[a * self.words_per_row + b / WORD] &= !(1u64 << (b % WORD));
        }
    }

    /// Returns `true` if `(a, b)` is in the relation.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.n
            && b < self.n
            && self.bits[a * self.words_per_row + b / WORD] & (1u64 << (b % WORD)) != 0
    }

    fn row(&self, a: usize) -> &[u64] {
        &self.bits[a * self.words_per_row..(a + 1) * self.words_per_row]
    }

    /// Iterates over the successors of `a` (all `b` with `(a, b)` present).
    pub fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        let row = self.row(a);
        row.iter()
            .enumerate()
            .flat_map(|(wi, &w)| BitIter(w).map(move |b| wi * WORD + b))
    }

    /// Iterates over the predecessors of `b` (all `a` with `(a, b)` present).
    pub fn predecessors(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&a| self.contains(a, b))
    }

    /// Iterates over all pairs in the relation in row-major order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| self.successors(a).map(move |b| (a, b)))
    }

    fn assert_same_universe(&self, other: &Relation) {
        assert_eq!(
            self.n, other.n,
            "relations over different universes ({} vs {})",
            self.n, other.n
        );
    }

    /// Set union of two relations.
    #[must_use]
    pub fn union(&self, other: &Relation) -> Relation {
        self.assert_same_universe(other);
        let mut out = self.clone();
        for (w, o) in out.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
        out
    }

    /// In-place set union.
    pub fn union_in_place(&mut self, other: &Relation) {
        self.assert_same_universe(other);
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
    }

    /// Adds every successor of `src` to the successors of `dst` (row
    /// `dst |= row src`): the step of a closure built in reverse
    /// topological order.
    pub fn union_row_into(&mut self, src: usize, dst: usize) {
        assert!(
            src < self.n && dst < self.n,
            "row outside universe {}",
            self.n
        );
        if src == dst {
            return;
        }
        let w = self.words_per_row;
        let (lo, hi) = self.bits.split_at_mut(src.max(dst) * w);
        let (from, to) = if src < dst {
            (&lo[src * w..(src + 1) * w], &mut hi[..w])
        } else {
            (&hi[..w], &mut lo[dst * w..(dst + 1) * w])
        };
        for (t, f) in to.iter_mut().zip(from) {
            *t |= f;
        }
    }

    /// Set intersection of two relations.
    #[must_use]
    pub fn intersect(&self, other: &Relation) -> Relation {
        self.assert_same_universe(other);
        let mut out = self.clone();
        for (w, o) in out.bits.iter_mut().zip(&other.bits) {
            *w &= o;
        }
        out
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &Relation) -> Relation {
        self.assert_same_universe(other);
        let mut out = self.clone();
        for (w, o) in out.bits.iter_mut().zip(&other.bits) {
            *w &= !o;
        }
        out
    }

    /// Returns `true` if every pair of `self` is also in `other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.assert_same_universe(other);
        self.bits.iter().zip(&other.bits).all(|(w, o)| w & !o == 0)
    }

    /// Relational transpose: `{(b, a) | (a, b) in self}`.
    ///
    /// Written `r˘` (or `~r`) in the memory-model literature.
    #[must_use]
    pub fn transpose(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        for (a, b) in self.pairs() {
            out.insert(b, a);
        }
        out
    }

    /// Relational composition (join): `{(a, c) | ∃b. (a, b) ∈ self ∧ (b, c) ∈ other}`.
    ///
    /// Written `self ; other` (or `self.other`) in the memory-model
    /// literature.
    #[must_use]
    pub fn compose(&self, other: &Relation) -> Relation {
        let mut out = Relation::empty(self.n);
        self.compose_into(other, &mut out);
        out
    }

    /// Relational composition into a caller-provided buffer.
    ///
    /// `out` is cleared and overwritten with `self ; other`; its
    /// allocation is reused, so closure-style loops that compose
    /// repeatedly allocate nothing after the first iteration.
    pub fn compose_into(&self, other: &Relation, out: &mut Relation) {
        self.assert_same_universe(other);
        self.assert_same_universe(out);
        out.bits.fill(0);
        for a in 0..self.n {
            let row_start = a * self.words_per_row;
            for wi in 0..self.words_per_row {
                let mut w = self.bits[row_start + wi];
                while w != 0 {
                    let b = wi * WORD + w.trailing_zeros() as usize;
                    w &= w - 1;
                    let other_row = other.row(b);
                    for (oi, &ow) in other_row.iter().enumerate() {
                        out.bits[row_start + oi] |= ow;
                    }
                }
            }
        }
    }

    /// Transitive closure `r⁺` via iterated squaring over the bit matrix.
    #[must_use]
    pub fn transitive_closure(&self) -> Relation {
        // Floyd-Warshall on bit rows: O(n^2 * n/64).
        let mut out = self.clone();
        for k in 0..self.n {
            let krow: Vec<u64> = out.row(k).to_vec();
            for a in 0..self.n {
                if out.contains(a, k) {
                    let start = a * out.words_per_row;
                    for (wi, &kw) in krow.iter().enumerate() {
                        out.bits[start + wi] |= kw;
                    }
                }
            }
        }
        out
    }

    /// Reflexive-transitive closure `r*`.
    #[must_use]
    pub fn reflexive_transitive_closure(&self) -> Relation {
        self.transitive_closure().union(&Relation::identity(self.n))
    }

    /// Restricts the relation to pairs whose endpoints both satisfy `keep`.
    #[must_use]
    pub fn restrict(&self, keep: impl Fn(usize) -> bool) -> Relation {
        Relation::from_pairs(self.n, self.pairs().filter(|&(a, b)| keep(a) && keep(b)))
    }

    /// Restricts to pairs whose *source* satisfies `keep`.
    #[must_use]
    pub fn restrict_domain(&self, keep: impl Fn(usize) -> bool) -> Relation {
        Relation::from_pairs(self.n, self.pairs().filter(|&(a, _)| keep(a)))
    }

    /// Restricts to pairs whose *target* satisfies `keep`.
    #[must_use]
    pub fn restrict_range(&self, keep: impl Fn(usize) -> bool) -> Relation {
        Relation::from_pairs(self.n, self.pairs().filter(|&(_, b)| keep(b)))
    }

    /// Finds a cycle if one exists, returned as a vector of nodes
    /// `[v0, v1, .., vk]` such that each consecutive pair is an edge and
    /// `(vk, v0)` is an edge. Self-loops yield a single-element cycle.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.n];
        let mut parent = vec![usize::MAX; self.n];
        // Iterative DFS with an explicit stack of (node, successor iterator
        // position materialised as Vec index).
        for start in 0..self.n {
            if color[start] != Color::White {
                continue;
            }
            let mut stack: Vec<(usize, Vec<usize>, usize)> =
                vec![(start, self.successors(start).collect(), 0)];
            color[start] = Color::Gray;
            while let Some((node, succs, idx)) = stack.last_mut() {
                if *idx < succs.len() {
                    let next = succs[*idx];
                    *idx += 1;
                    match color[next] {
                        Color::White => {
                            parent[next] = *node;
                            color[next] = Color::Gray;
                            let nsuccs = self.successors(next).collect();
                            stack.push((next, nsuccs, 0));
                        }
                        Color::Gray => {
                            // Found a back edge node -> next: reconstruct.
                            let mut cycle = vec![*node];
                            let mut cur = *node;
                            while cur != next {
                                cur = parent[cur];
                                cycle.push(cur);
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[*node] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Returns the elements reachable from `start` (excluding `start` itself
    /// unless it lies on a cycle through itself).
    pub fn reachable_from(&self, start: usize) -> Vec<usize> {
        let mut seen = vec![false; self.n];
        let mut stack = vec![start];
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            for s in self.successors(v) {
                if !seen[s] {
                    seen[s] = true;
                    out.push(s);
                    stack.push(s);
                }
            }
        }
        out
    }

    /// A topological order of the universe consistent with the relation, or
    /// `None` if the relation is cyclic.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for (_, b) in self.pairs() {
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for s in self.successors(v) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(n={}, {{", self.n)?;
        for (i, (a, b)) in self.pairs().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({a},{b})")?;
        }
        write!(f, "}})")
    }
}

impl FromIterator<(usize, usize)> for Relation {
    /// Collects pairs into a relation sized to fit the largest element.
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let pairs: Vec<_> = iter.into_iter().collect();
        let n = pairs.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
        Relation::from_pairs(n, pairs)
    }
}

impl Extend<(usize, usize)> for Relation {
    fn extend<I: IntoIterator<Item = (usize, usize)>>(&mut self, iter: I) {
        for (a, b) in iter {
            self.insert(a, b);
        }
    }
}

struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(n: usize, pairs: &[(usize, usize)]) -> Relation {
        Relation::from_pairs(n, pairs.iter().copied())
    }

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::empty(70);
        r.insert(0, 69);
        r.insert(69, 0);
        assert!(r.contains(0, 69));
        assert!(r.contains(69, 0));
        assert!(!r.contains(1, 1));
        r.remove(0, 69);
        assert!(!r.contains(0, 69));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn union_row_into_ors_one_row_into_another() {
        // Rows straddle a word boundary, in both directions.
        let mut r = rel(130, &[(0, 1), (0, 129), (100, 64), (100, 2)]);
        r.union_row_into(100, 0);
        assert_eq!(r.successors(0).collect::<Vec<_>>(), vec![1, 2, 64, 129]);
        r.union_row_into(0, 129);
        assert_eq!(r.successors(129).collect::<Vec<_>>(), vec![1, 2, 64, 129]);
        r.union_row_into(5, 5);
        assert_eq!(r.len(), 10);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        Relation::empty(3).insert(3, 0);
    }

    #[test]
    fn compose_basic() {
        let a = rel(4, &[(0, 1), (1, 2)]);
        let b = rel(4, &[(1, 3), (2, 0)]);
        let c = a.compose(&b);
        assert!(c.contains(0, 3));
        assert!(c.contains(1, 0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn full_covers_every_pair_across_word_boundaries() {
        for n in [0, 1, 63, 64, 65, 70, 128] {
            let f = Relation::full(n);
            assert_eq!(f.len(), n * n, "n={n}");
            if n > 0 {
                assert!(f.contains(0, n - 1));
                assert!(f.contains(n - 1, 0));
                assert!(!f.contains(n, 0), "out-of-universe stays absent");
            }
        }
    }

    #[test]
    fn compose_into_matches_compose_and_clears_buffer() {
        let a = rel(70, &[(0, 1), (1, 65), (69, 0)]);
        let b = rel(70, &[(1, 3), (65, 69)]);
        let mut out = Relation::full(70); // stale contents must be cleared
        a.compose_into(&b, &mut out);
        assert_eq!(out, a.compose(&b));
        assert!(out.contains(0, 3));
        assert!(out.contains(1, 69));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn transpose_involutive() {
        let r = rel(5, &[(0, 1), (3, 2), (4, 4)]);
        assert_eq!(r.transpose().transpose(), r);
    }

    #[test]
    fn closure_chain() {
        let r = rel(4, &[(0, 1), (1, 2), (2, 3)]);
        let t = r.transitive_closure();
        assert!(t.contains(0, 3));
        assert!(t.contains(1, 3));
        assert!(!t.contains(3, 0));
        assert_eq!(t, t.transitive_closure(), "closure is idempotent");
    }

    #[test]
    fn closure_cycle_has_self_loops() {
        let r = rel(3, &[(0, 1), (1, 0)]);
        let t = r.transitive_closure();
        assert!(t.contains(0, 0));
        assert!(t.contains(1, 1));
        assert!(!t.contains(2, 2));
    }

    #[test]
    fn identity_is_compose_neutral() {
        let r = rel(6, &[(0, 5), (2, 3), (5, 5)]);
        let id = Relation::identity(6);
        assert_eq!(r.compose(&id), r);
        assert_eq!(id.compose(&r), r);
    }

    #[test]
    fn find_cycle_reports_real_cycle() {
        let r = rel(6, &[(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)]);
        let cyc = r.find_cycle().expect("has a cycle");
        // Each consecutive pair, plus the wrap-around, must be an edge.
        for w in cyc.windows(2) {
            assert!(r.contains(w[0], w[1]));
        }
        assert!(r.contains(*cyc.last().unwrap(), cyc[0]));
    }

    #[test]
    fn find_cycle_none_on_dag() {
        let r = rel(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        assert!(r.find_cycle().is_none());
    }

    #[test]
    fn find_cycle_self_loop() {
        let r = rel(3, &[(1, 1)]);
        assert_eq!(r.find_cycle(), Some(vec![1]));
    }

    #[test]
    fn topo_order_respects_edges() {
        let r = rel(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let order = r.topological_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (a, b) in r.pairs() {
            assert!(pos[a] < pos[b]);
        }
    }

    #[test]
    fn topo_order_none_on_cycle() {
        assert!(rel(3, &[(0, 1), (1, 0)]).topological_order().is_none());
    }

    #[test]
    fn union_intersect_difference_laws() {
        let a = rel(4, &[(0, 1), (1, 2)]);
        let b = rel(4, &[(1, 2), (2, 3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersect(&b), rel(4, &[(1, 2)]));
        assert_eq!(a.difference(&b), rel(4, &[(0, 1)]));
        assert!(a.intersect(&b).is_subset(&a));
        assert!(a.is_subset(&a.union(&b)));
    }

    #[test]
    fn restrict_variants() {
        let r = rel(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(r.restrict(|x| x != 2), rel(4, &[(0, 1)]));
        assert_eq!(r.restrict_domain(|x| x == 1), rel(4, &[(1, 2)]));
        assert_eq!(r.restrict_range(|x| x == 3), rel(4, &[(2, 3)]));
    }

    #[test]
    fn successors_and_predecessors() {
        let r = rel(5, &[(1, 0), (1, 2), (1, 4), (3, 4)]);
        assert_eq!(r.successors(1).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(r.predecessors(4).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn reachable_from_basic() {
        let r = rel(6, &[(0, 1), (1, 2), (3, 4)]);
        let mut reach = r.reachable_from(0);
        reach.sort_unstable();
        assert_eq!(reach, vec![1, 2]);
    }

    #[test]
    fn from_iter_sizes_universe() {
        let r: Relation = [(0usize, 3usize), (2, 1)].into_iter().collect();
        assert_eq!(r.universe(), 4);
        assert!(r.contains(0, 3));
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", Relation::empty(2)).is_empty());
    }
}
