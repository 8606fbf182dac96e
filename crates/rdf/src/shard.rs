//! Subject-hash shards — the per-partition storage unit of [`Graph`].
//!
//! A [`Graph`] is a set of independent `Shard`s. Every triple belongs to
//! exactly one shard, chosen by hashing its **subject** (`shard_of_subject`),
//! so each shard is a complete, self-contained CSR triple store for its slice
//! of the data: its own SPO/POS/OSP sorted column sets, its own sorted delta
//! runs for incremental inserts, and its own merge threshold. Shards never
//! reference each other — the bulk loader builds them in parallel, and the
//! query engine evaluates BGP steps against them in parallel.
//!
//! Subject-hashing gives two structural guarantees the merge layers above
//! rely on:
//!
//! * any **subject-bound** probe touches exactly one shard (routing is a
//!   hash, not a search);
//! * for **subject-free** probes, a k-way merge of the per-shard sorted runs
//!   by the index's sort key reproduces the global sorted order with no ties
//!   across shards — equal subjects always share a shard.
//!
//! The pending delta keeps the same three permutations as ordered sets, so
//! both guarantees hold for it as they do for the CSR runs: a read is the
//! CSR run followed by the delta run, each in index order.
//!
//! [`Graph`]: crate::graph::Graph

use crate::dictionary::TermId;
use crate::fx::FxHashSet;
use crate::triple::{Triple, TriplePattern};
use std::collections::{btree_set, BTreeSet};
use std::sync::atomic::Ordering;

/// Minimum delta size before an automatic merge is considered; below this
/// a merge would rewrite the shard's columns for a handful of rows that the
/// delta runs serve at the same `O(log δ)` per probe.
pub(crate) const DELTA_MERGE_MIN: usize = 1024;

/// Upper bound on a shard's delta regardless of its size. Reads do not
/// degrade with the delta (they range over sorted runs), but a delta row
/// costs three tree nodes where a CSR row costs twelve bytes, and the graph's
/// insertion log is bounded by the same figure — letting both track
/// `len / 4` unbounded would make an incrementally-built giant graph carry a
/// giant second copy of its tail.
pub(crate) const DELTA_MERGE_MAX: usize = 65_536;

/// One triple in some index's component order.
type Tuple = (TermId, TermId, TermId);

/// The shard owning subject `s` in an `n_shards`-way partitioning.
///
/// A Fibonacci multiplicative hash over the dense term id, taking the high
/// half before the modulo — the low bits of a multiplicative hash are poorly
/// mixed, and shard counts are not restricted to powers of two.
#[inline]
pub(crate) fn shard_of_subject(s: TermId, n_shards: usize) -> usize {
    if n_shards == 1 {
        return 0;
    }
    let h = u64::from(s.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % n_shards
}

/// One access-path index: triples sorted by a fixed component permutation,
/// stored as split columns under a CSR offset table over the first
/// component. The permutation itself is the caller's convention — this type
/// only sees `(first, second, third)` tuples.
#[derive(Debug, Default, Clone)]
pub(crate) struct CsrIndex {
    /// `offsets[a] .. offsets[a + 1]` is the row range whose first component
    /// is the term id `a`. Ids beyond the table (interned after the last
    /// rebuild) simply have no sorted rows.
    offsets: Vec<u32>,
    /// Second components, grouped by first component, sorted within a group.
    seconds: Vec<TermId>,
    /// Third components, sorted within each `(first, second)` run.
    thirds: Vec<TermId>,
}

impl CsrIndex {
    /// Number of rows (triples) in the sorted store.
    pub(crate) fn len(&self) -> usize {
        self.seconds.len()
    }

    /// The row range of first component `a`.
    fn group(&self, a: TermId) -> (usize, usize) {
        let i = a.index();
        if i + 1 >= self.offsets.len() {
            return (0, 0);
        }
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    /// Number of rows with first component `a`.
    pub(crate) fn first_len(&self, a: TermId) -> usize {
        let (lo, hi) = self.group(a);
        hi - lo
    }

    /// The row range of the `(a, b)` pair, found by binary search within
    /// `a`'s group.
    pub(crate) fn pair_range(&self, a: TermId, b: TermId) -> (usize, usize) {
        let (lo, hi) = self.group(a);
        let run = &self.seconds[lo..hi];
        let from = lo + run.partition_point(|&x| x < b);
        let to = lo + run.partition_point(|&x| x <= b);
        (from, to)
    }

    /// The sorted third components of the `(a, b)` pair — a contiguous
    /// column slice.
    pub(crate) fn thirds_of_pair(&self, a: TermId, b: TermId) -> &[TermId] {
        let (from, to) = self.pair_range(a, b);
        &self.thirds[from..to]
    }

    /// True if the `(a, b, c)` tuple is present.
    pub(crate) fn contains(&self, a: TermId, b: TermId, c: TermId) -> bool {
        self.thirds_of_pair(a, b).binary_search(&c).is_ok()
    }

    /// `(second, third)` pairs of first component `a`, in sorted order.
    pub(crate) fn pairs_of_first(&self, a: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        let (lo, hi) = self.group(a);
        self.seconds[lo..hi]
            .iter()
            .copied()
            .zip(self.thirds[lo..hi].iter().copied())
    }

    /// All tuples in sorted order (first components reconstructed from the
    /// offset table).
    pub(crate) fn tuples(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |a| {
            let (lo, hi) = (self.offsets[a] as usize, self.offsets[a + 1] as usize);
            (lo..hi).map(move |i| (TermId(a as u32), self.seconds[i], self.thirds[i]))
        })
    }

    /// Number of distinct first components with at least one row.
    pub(crate) fn distinct_firsts(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// `(first, group size)` for every non-empty first component.
    pub(crate) fn first_group_sizes(&self) -> impl Iterator<Item = (TermId, usize)> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(a, w)| (TermId(a as u32), (w[1] - w[0]) as usize))
    }

    /// Builds the CSR offset table (histogram + prefix sum over the first
    /// component) for `tuples`, covering ids `0..top`.
    fn build_offsets(tuples: &[(TermId, TermId, TermId)], top: usize) -> Vec<u32> {
        let mut offsets = vec![0u32; top + 1];
        for t in tuples {
            offsets[t.0.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        offsets
    }

    /// Replaces the store with `tuples`, which must be sorted and deduped.
    fn rebuild(&mut self, tuples: Vec<(TermId, TermId, TermId)>) {
        debug_assert!(tuples.windows(2).all(|w| w[0] < w[1]), "unsorted rebuild");
        let top = tuples.last().map_or(0, |t| t.0.index() + 1);
        self.offsets = Self::build_offsets(&tuples, top);
        self.seconds = tuples.iter().map(|t| t.1).collect();
        self.thirds = tuples.iter().map(|t| t.2).collect();
    }

    /// Replaces the store with `tuples`, which must be deduped but may be in
    /// any order. Classic CSR construction: a counting pass over the first
    /// component buckets the rows in O(n), then each (small) bucket is
    /// sorted by (second, third) — much cheaper than a global three-way
    /// sort, and the bulk loader's fast path for the two permutations whose
    /// order it does not already have.
    fn rebuild_grouped(&mut self, tuples: Vec<(TermId, TermId, TermId)>) {
        let top = tuples.iter().map(|t| t.0.index() + 1).max().unwrap_or(0);
        let offsets = Self::build_offsets(&tuples, top);
        let mut cursor = offsets.clone();
        let mut pairs: Vec<(TermId, TermId)> = vec![(TermId(0), TermId(0)); tuples.len()];
        for t in &tuples {
            let c = &mut cursor[t.0.index()];
            pairs[*c as usize] = (t.1, t.2);
            *c += 1;
        }
        drop(tuples);
        let mut start = 0usize;
        for a in 0..top {
            let end = offsets[a + 1] as usize;
            pairs[start..end].sort_unstable();
            start = end;
        }
        self.offsets = offsets;
        self.seconds = pairs.iter().map(|p| p.0).collect();
        self.thirds = pairs.iter().map(|p| p.1).collect();
    }

    /// Merges `add` (sorted, internally deduped) into the store, skipping
    /// tuples already present. Returns the number of tuples actually added.
    fn merge(&mut self, add: Vec<(TermId, TermId, TermId)>) -> usize {
        if add.is_empty() {
            return 0;
        }
        let old_len = self.len();
        if old_len == 0 {
            let added = add.len();
            self.rebuild(add);
            return added;
        }
        let mut merged = Vec::with_capacity(old_len + add.len());
        {
            let mut incoming = add.iter().copied().peekable();
            for old in self.tuples() {
                while let Some(&a) = incoming.peek() {
                    if a < old {
                        merged.push(a);
                        incoming.next();
                    } else if a == old {
                        incoming.next();
                    } else {
                        break;
                    }
                }
                merged.push(old);
            }
            merged.extend(incoming);
        }
        let added = merged.len() - old_len;
        self.rebuild(merged);
        added
    }
}

/// The index permutation that serves a pattern shape. The choice is the same
/// for a shard's CSR runs and for its delta runs: the pattern's bound
/// components are a prefix of the chosen component order, so its matches are
/// one contiguous, sorted run of that index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Perm {
    /// `(s, p, o)`: serves `(s p o)`, `(s p ·)`, `(s · ·)` and the full scan.
    Spo,
    /// `(p, o, s)`: serves `(· p o)` and `(· p ·)`.
    Pos,
    /// `(o, s, p)`: serves `(s · o)` and `(· · o)`.
    Osp,
}

impl Perm {
    /// The permutation whose order `pattern`'s matches are enumerated in.
    pub(crate) fn serving(pattern: TriplePattern) -> Perm {
        match (pattern.s, pattern.p, pattern.o) {
            (Some(_), Some(_), _) | (_, None, None) => Perm::Spo,
            (None, Some(_), _) => Perm::Pos,
            (_, None, Some(_)) => Perm::Osp,
        }
    }

    /// `[s, p, o]` rearranged into this permutation's component order.
    fn permute<T>(self, [s, p, o]: [T; 3]) -> (T, T, T) {
        match self {
            Perm::Spo => (s, p, o),
            Perm::Pos => (p, o, s),
            Perm::Osp => (o, s, p),
        }
    }

    /// The triple a tuple of this permutation stands for.
    pub(crate) fn triple(self, (a, b, c): Tuple) -> Triple {
        match self {
            Perm::Spo => Triple::new(a, b, c),
            Perm::Pos => Triple::new(c, a, b),
            Perm::Osp => Triple::new(b, c, a),
        }
    }
}

/// A shard's pending inserts: the triples not yet folded into the CSR runs,
/// held once per permutation as an ordered set — sorted runs that grow by
/// insertion. Every pattern shape reads its matches as one range of one set,
/// `O(log δ + matches)`, in the same index order the CSR run before it came
/// in; the SPO set doubles as the duplicate check.
#[derive(Debug, Default, Clone)]
pub(crate) struct Delta {
    /// Indexed by `Perm as usize`.
    runs: [BTreeSet<Tuple>; 3],
}

impl Delta {
    /// Number of pending triples.
    pub(crate) fn len(&self) -> usize {
        self.runs[0].len()
    }

    /// True if nothing is pending. Every read checks this before it touches
    /// the sets, so a compacted store pays one branch for having a delta.
    pub(crate) fn is_empty(&self) -> bool {
        self.runs[0].is_empty()
    }

    /// Adds `t` to all three runs; `false` if it was already pending.
    fn insert(&mut self, t: Triple) -> bool {
        let fresh = self.runs[Perm::Spo as usize].insert((t.s, t.p, t.o));
        if fresh {
            self.runs[Perm::Pos as usize].insert((t.p, t.o, t.s));
            self.runs[Perm::Osp as usize].insert((t.o, t.s, t.p));
        }
        fresh
    }

    /// The pending triples in SPO order.
    pub(crate) fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        let spo = self.runs[Perm::Spo as usize].iter();
        spo.map(|&t| Perm::Spo.triple(t))
    }

    /// The pending matches of `pattern`: a range of the serving
    /// permutation's set, as tuples in that permutation's order. Callers
    /// report what they consume through [`count_delta_reads`].
    pub(crate) fn run(&self, pattern: TriplePattern) -> (Perm, btree_set::Range<'_, Tuple>) {
        let perm = Perm::serving(pattern);
        let (a, b, c) = perm.permute([pattern.s, pattern.p, pattern.o]);
        debug_assert!(a.is_some() || b.is_none(), "bound components form a prefix");
        debug_assert!(b.is_some() || c.is_none(), "bound components form a prefix");
        let (min, max) = (TermId(0), TermId(u32::MAX));
        let lo = (a.unwrap_or(min), b.unwrap_or(min), c.unwrap_or(min));
        let hi = (a.unwrap_or(max), b.unwrap_or(max), c.unwrap_or(max));
        (perm, self.runs[perm as usize].range(lo..=hi))
    }
}

/// Reports `rows` delta rows visited by a read to the global sink
/// (`rdfcube_graph_delta_rows_read_total`).
pub(crate) fn count_delta_reads(rows: usize) {
    if rows > 0 {
        rdfcube_obs::sink()
            .delta_rows_read
            .fetch_add(rows as u64, Ordering::Relaxed);
    }
}

/// One subject-hash partition of a [`Graph`]: a complete CSR triple store
/// (SPO/POS/OSP) plus the [`Delta`] runs of the shard's incremental inserts.
///
/// [`Graph`]: crate::graph::Graph
#[derive(Debug, Default, Clone)]
pub(crate) struct Shard {
    /// Sorted as (s, p, o).
    pub(crate) spo: CsrIndex,
    /// Sorted as (p, o, s).
    pub(crate) pos: CsrIndex,
    /// Sorted as (o, s, p).
    pub(crate) osp: CsrIndex,
    /// Recent incremental inserts not yet merged.
    pub(crate) delta: Delta,
    len: usize,
}

impl Shard {
    /// Number of triples in the shard (sorted runs + delta).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of triples sitting in the shard's delta runs.
    pub(crate) fn pending_delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Delta size at which this shard's automatic merge fires. Proportional
    /// to the shard so incremental building stays amortized-cheap (each
    /// merge rewrites the columns, so merging every `len / 4` inserts keeps
    /// the total work linear), and capped by [`DELTA_MERGE_MAX`] so the
    /// tree-shaped delta — and the graph's insertion log, which shares this
    /// bound — stays a small fraction of a large store's memory.
    pub(crate) fn delta_threshold(&self) -> usize {
        DELTA_MERGE_MIN.max((self.spo.len() / 4).min(DELTA_MERGE_MAX))
    }

    /// True if the encoded triple is present in this shard.
    pub(crate) fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.spo.contains(s, p, o) || self.delta.runs[Perm::Spo as usize].contains(&(s, p, o))
    }

    /// Inserts one triple into the shard's delta runs; returns `true` if it
    /// was new. The delta auto-merges into the CSR runs once it crosses the
    /// shard's threshold.
    pub(crate) fn insert(&mut self, t: Triple) -> bool {
        if self.spo.contains(t.s, t.p, t.o) || !self.delta.insert(t) {
            return false;
        }
        self.len += 1;
        if self.delta.len() >= self.delta_threshold() {
            self.merge_batch(Vec::new());
        }
        true
    }

    /// Folds the shard's delta plus `batch` into the sorted CSR runs
    /// unconditionally — the one place a merge happens, and so the one place
    /// merges are counted. Returns the number of newly added triples. Because
    /// a duplicate triple shares its subject — and therefore its shard — with
    /// the original, shard-local dedup here is also global dedup.
    pub(crate) fn merge_batch(&mut self, batch: Vec<Triple>) -> usize {
        let before = self.len;
        let delta = std::mem::take(&mut self.delta);
        let mut spo_add: Vec<Tuple> = delta
            .triples()
            .chain(batch)
            .map(|t| (t.s, t.p, t.o))
            .collect();
        if spo_add.is_empty() {
            return 0;
        }
        let sink = rdfcube_obs::sink();
        sink.delta_merges.fetch_add(1, Ordering::Relaxed);
        sink.delta_merge_rows
            .fetch_add(spo_add.len() as u64, Ordering::Relaxed);
        spo_add.sort_unstable();
        spo_add.dedup();
        // One sort + dedup covers all three permutations (a duplicate triple
        // is a duplicate in every component order). The permuted batches
        // therefore only need ordering, not dedup: when the shard is empty
        // they go through the O(n) counting-scatter construction, and only
        // merges into a non-empty shard pay for full permuted sorts.
        let pos_add: Vec<Tuple> = spo_add.iter().map(|&(s, p, o)| (p, o, s)).collect();
        let osp_add: Vec<Tuple> = spo_add.iter().map(|&(s, p, o)| (o, s, p)).collect();
        if self.spo.len() == 0 {
            self.pos.rebuild_grouped(pos_add);
            self.osp.rebuild_grouped(osp_add);
            self.spo.rebuild(spo_add);
        } else {
            self.spo.merge(spo_add);
            let mut pos_add = pos_add;
            pos_add.sort_unstable();
            self.pos.merge(pos_add);
            let mut osp_add = osp_add;
            osp_add.sort_unstable();
            self.osp.merge(osp_add);
        }
        self.len = self.spo.len();
        self.len - before
    }

    /// Calls `f` for every shard-local triple matching `pattern`: the CSR run
    /// first, then the delta run, each in the order of the index that serves
    /// the shape. For a single-shard graph this is exactly the flat store's
    /// enumeration order.
    pub(crate) fn for_each_match_local<F: FnMut(Triple)>(&self, pattern: TriplePattern, f: &mut F) {
        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(s, p, o) {
                    f(Triple::new(s, p, o));
                    // A triple lives in the runs or in the delta, never both.
                    return;
                }
            }
            (Some(s), Some(p), None) => {
                for &o in self.spo.thirds_of_pair(s, p) {
                    f(Triple::new(s, p, o));
                }
            }
            (None, Some(p), Some(o)) => {
                for &s in self.pos.thirds_of_pair(p, o) {
                    f(Triple::new(s, p, o));
                }
            }
            (Some(s), None, Some(o)) => {
                for &p in self.osp.thirds_of_pair(o, s) {
                    f(Triple::new(s, p, o));
                }
            }
            (Some(s), None, None) => {
                for (p, o) in self.spo.pairs_of_first(s) {
                    f(Triple::new(s, p, o));
                }
            }
            (None, Some(p), None) => {
                for (o, s) in self.pos.pairs_of_first(p) {
                    f(Triple::new(s, p, o));
                }
            }
            (None, None, Some(o)) => {
                for (s, p) in self.osp.pairs_of_first(o) {
                    f(Triple::new(s, p, o));
                }
            }
            (None, None, None) => {
                for (s, p, o) in self.spo.tuples() {
                    f(Triple::new(s, p, o));
                }
            }
        }
        if self.delta.is_empty() {
            return;
        }
        let (perm, run) = self.delta.run(pattern);
        let mut rows = 0;
        for &t in run {
            f(perm.triple(t));
            rows += 1;
        }
        count_delta_reads(rows);
    }

    /// Exact number of shard-local triples matching `pattern`, from the CSR
    /// offset/run metadata plus the length of the delta run — no shape falls
    /// back to a full scan, and nothing is materialized.
    pub(crate) fn count_matching_local(&self, pattern: TriplePattern) -> usize {
        let sorted = match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.spo.contains(s, p, o)),
            (Some(s), Some(p), None) => {
                let (from, to) = self.spo.pair_range(s, p);
                to - from
            }
            (None, Some(p), Some(o)) => {
                let (from, to) = self.pos.pair_range(p, o);
                to - from
            }
            (Some(s), None, Some(o)) => {
                let (from, to) = self.osp.pair_range(o, s);
                to - from
            }
            (Some(s), None, None) => self.spo.first_len(s),
            (None, Some(p), None) => self.pos.first_len(p),
            (None, None, Some(o)) => self.osp.first_len(o),
            (None, None, None) => return self.len,
        };
        if self.delta.is_empty() {
            return sorted;
        }
        let pending = self.delta.run(pattern).1.count();
        count_delta_reads(pending);
        sorted + pending
    }

    /// Number of distinct subjects in this shard (sorted runs + delta).
    /// Subjects never cross shards, so the graph-level count is the plain
    /// sum of these.
    pub(crate) fn distinct_subjects(&self) -> usize {
        distinct_with_delta(&self.spo, &self.delta, |t| t.s)
    }
}

/// Distinct first components of `idx`, counting delta extras not yet in the
/// sorted runs.
pub(crate) fn distinct_with_delta(
    idx: &CsrIndex,
    delta: &Delta,
    key: impl Fn(&Triple) -> TermId,
) -> usize {
    let base = idx.distinct_firsts();
    if delta.is_empty() {
        return base;
    }
    let mut extra: FxHashSet<TermId> = FxHashSet::default();
    for t in delta.triples() {
        let k = key(&t);
        if idx.first_len(k) == 0 {
            extra.insert(k);
        }
    }
    base + extra.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in [1usize, 2, 7, 16] {
            for id in 0..1000u32 {
                let w = shard_of_subject(TermId(id), n);
                assert!(w < n);
                assert_eq!(w, shard_of_subject(TermId(id), n), "routing must be pure");
            }
        }
        // One shard routes everything to slot 0 without hashing.
        assert_eq!(shard_of_subject(TermId(u32::MAX), 1), 0);
    }

    #[test]
    fn routing_spreads_subjects_across_shards() {
        // Dense sequential ids (the dictionary's allocation pattern) must
        // not collapse onto few shards.
        for n in [2usize, 7, 16] {
            let mut hist = vec![0usize; n];
            for id in 0..10_000u32 {
                hist[shard_of_subject(TermId(id), n)] += 1;
            }
            let (min, max) = (
                hist.iter().min().copied().unwrap(),
                hist.iter().max().copied().unwrap(),
            );
            assert!(
                min * 2 > max,
                "unbalanced {n}-way split of sequential ids: {hist:?}"
            );
        }
    }
}
