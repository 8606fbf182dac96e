//! An in-memory, dictionary-encoded RDF graph over subject-hash-sharded,
//! flat CSR-style indexes.
//!
//! ## Storage layout
//!
//! A graph is a set of independent `Shard`s (one by default — the flat
//! store; N under [`Graph::with_shards`]). Every triple is hash-partitioned
//! by **subject** into exactly one shard, and each shard stores its triples
//! three times, once per access-path permutation — SPO, POS and OSP — as a
//! *sorted column set* rather than nested maps:
//!
//! * per permutation, the triples are sorted by `(first, second, third)` and
//!   the second/third components live in two parallel flat columns;
//! * a CSR **offset table** indexed by the first component's dense [`TermId`]
//!   (`offsets[id] .. offsets[id + 1]`) replaces the outer hash map: one
//!   array lookup locates a first-component group, one binary search inside
//!   its `seconds` run locates a `(first, second)` pair, and that pair's
//!   `thirds` are a contiguous sorted slice.
//!
//! This gives every one of the eight triple-pattern shapes an index-backed
//! access path with zero pointer chasing: lookups are array arithmetic plus
//! binary search, scans are linear over dense `u32` columns.
//!
//! ## Sharding and enumeration order
//!
//! Every read enumerates the **CSR run, then the delta run**, both in the
//! order of the index that serves the pattern's shape (SPO, POS or OSP —
//! each shape's bound components are a prefix of one of them). The pending
//! delta is stored the same way as the runs it will be merged into, one
//! ordered set per permutation, so neither half is ever swept: a probe costs
//! `O(log n)` to find its run plus its matches, whatever is pending.
//!
//! Subject hashing makes the partitioning transparent to readers:
//!
//! * a **subject-bound** probe routes to exactly one shard — its local
//!   enumeration order *is* the flat store's order;
//! * a **subject-free** probe k-way merges the per-shard CSR runs by the
//!   index's sort key, then the per-shard delta runs by the same key. Each
//!   merge reproduces the flat store's order exactly: ties across shards are
//!   impossible, because every index key contains the subject and equal
//!   subjects share a shard.
//!
//! Every read of a sharded graph is therefore **bit-identical** to the same
//! read of a flat graph holding the same triples in the same state (merged
//! or pending) — sharding changes the cost model (per-shard parallel loading
//! and evaluation, shard skipping), never the answer. The query engine
//! additionally probes shards directly through
//! [`Graph::for_each_match_in_shard`] / [`Graph::count_matching_in_shard`]
//! to run BGP steps shard-parallel.
//!
//! ## Bulk loading vs incremental inserts
//!
//! The fast path is the **bulk loader** ([`Graph::from_triples`] /
//! [`Graph::bulk_insert_ids`]): it scatters the batch by subject shard, then
//! sorts and dedups each shard's slice once per batch — in parallel across
//! shards when the graph has more than one. The parsers, the data
//! generators, the reasoner and schema materialization all load through it.
//!
//! The incremental [`Graph::insert`] path goes through each shard's
//! **delta**: three small ordered sets (SPO/POS/OSP; the SPO one is the
//! duplicate check) that reads range over after the CSR runs. An insert is
//! three `O(log δ)` tree insertions and moves no column; a read over a
//! pending delta costs what a read of a compacted store costs, plus the
//! delta rows it actually matches. A delta is merged into its shard's CSR
//! runs automatically once it exceeds a fraction of the shard, or eagerly
//! via [`Graph::compact`]. A batch handed to [`Graph::bulk_insert_ids`]
//! takes whichever path is cheaper for its size.
//!
//! Beside the delta the graph keeps a bounded **insertion log**: the triples
//! added since some earlier triple count, in arrival order
//! ([`Graph::inserted_since`]). It is what lets a materialized view built at
//! that count be brought up to date from the new triples alone. The log
//! survives delta merges (merging adds nothing) and is dropped when a bulk
//! merge adds triples it does not itemize, or when it outgrows the delta
//! threshold.
//!
//! Graphs are append-only: the analytical framework of the paper only ever
//! loads data, saturates it, and materializes analytical-schema instances —
//! none of which deletes triples.

use crate::dictionary::{Dictionary, TermId};
use crate::fx::{FxHashMap, FxHashSet};
use crate::shard::{
    count_delta_reads, distinct_with_delta, shard_of_subject, CsrIndex, Perm, Shard,
};
use crate::term::Term;
use crate::triple::{Triple, TriplePattern};

/// Minimum number of staged rows before the bulk loader fans shard merges
/// out to scoped worker threads; below this the scatter + per-shard sorts
/// are cheaper serially than the thread spawns.
const PARALLEL_LOAD_MIN: usize = 4096;

/// An indexed RDF graph owning its [`Dictionary`], partitioned into
/// subject-hash `Shard`s (one by default).
#[derive(Debug, Clone)]
pub struct Graph {
    dict: Dictionary,
    shards: Vec<Shard>,
    len: usize,
    /// The insertion log: `log[i]` is the triple that took the graph from
    /// `log_start + i` to `log_start + i + 1` triples, so
    /// `log_start + log.len() == len` always.
    log: Vec<Triple>,
    log_start: usize,
}

impl Default for Graph {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl Graph {
    /// Creates an empty single-shard (flat) graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph partitioned into `n_shards` subject-hash
    /// shards (clamped to at least 1). Reads are bit-identical at any shard
    /// count; more shards buy parallel bulk loading and per-shard BGP
    /// evaluation at the cost of a k-way merge on subject-free scans.
    pub fn with_shards(n_shards: usize) -> Self {
        Graph {
            dict: Dictionary::new(),
            shards: vec![Shard::default(); n_shards.max(1)],
            len: 0,
            log: Vec::new(),
            log_start: 0,
        }
    }

    /// Builds a graph from an owned dictionary and a batch of triples
    /// encoded against it, through the bulk loader (one scatter + per-shard
    /// sort + dedup — the fast path for loading at scale).
    pub fn from_triples(dict: Dictionary, triples: impl IntoIterator<Item = Triple>) -> Self {
        Self::from_triples_sharded(dict, triples, 1)
    }

    /// [`Self::from_triples`] into an `n_shards`-way partitioned graph; the
    /// per-shard scatter/sort/build runs on scoped worker threads when both
    /// the batch and the shard count warrant it.
    pub fn from_triples_sharded(
        dict: Dictionary,
        triples: impl IntoIterator<Item = Triple>,
        n_shards: usize,
    ) -> Self {
        let mut g = Self::with_shards(n_shards);
        g.dict = dict;
        g.bulk_insert_ids(triples);
        g
    }

    /// Number of subject-hash shards in this graph.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning subject `s`.
    #[inline]
    pub fn shard_of(&self, s: TermId) -> usize {
        shard_of_subject(s, self.shards.len())
    }

    /// Number of triples stored in shard `shard` (sorted runs + delta).
    ///
    /// # Panics
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// Number of distinct subjects in shard `shard`. Subjects never cross
    /// shards, so these sum to [`Self::subject_count`] exactly — the
    /// per-shard statistic planners use to skip or weight shards.
    ///
    /// # Panics
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard_subject_count(&self, shard: usize) -> usize {
        self.shards[shard].distinct_subjects()
    }

    /// Repartitions the graph into `n_shards` subject-hash shards (clamped
    /// to at least 1). A loading-time operation: any pending delta is folded
    /// into the rebuilt sorted runs, exactly like [`Self::compact`].
    pub fn set_shard_count(&mut self, n_shards: usize) {
        let n_shards = n_shards.max(1);
        if n_shards == self.shards.len() {
            return;
        }
        let all: Vec<Triple> = self.triples().collect();
        self.shards = vec![Shard::default(); n_shards];
        self.len = 0;
        self.bulk_insert_ids(all);
    }

    /// Read access to the term dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Write access to the term dictionary (interning terms ahead of bulk
    /// insertion).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Interns a term in this graph's dictionary.
    pub fn encode(&mut self, term: &Term) -> TermId {
        self.dict.encode(term)
    }

    /// Number of triples in the graph.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of triples sitting in the delta runs (not yet merged into the
    /// CSR runs), summed across shards. Exposed for instrumentation and
    /// tests.
    pub fn pending_delta_len(&self) -> usize {
        self.shards.iter().map(Shard::pending_delta_len).sum()
    }

    /// True if any shard holds unmerged delta triples. The engine's
    /// per-shard parallel paths require fully sorted shards and fall back to
    /// row partitioning while this holds.
    pub fn has_pending_delta(&self) -> bool {
        self.shards.iter().any(|sh| sh.pending_delta_len() > 0)
    }

    /// Total rows in the sorted CSR runs (excluding deltas).
    fn sorted_len(&self) -> usize {
        self.shards.iter().map(|sh| sh.spo.len()).sum()
    }

    /// Graph-level delta capacity, mirroring the per-shard thresholds: the
    /// routing bound below which a bulk batch rides the delta runs instead
    /// of forcing per-shard merges, and the bound of the insertion log.
    fn delta_threshold(&self) -> usize {
        self.shards.iter().map(Shard::delta_threshold).sum()
    }

    /// The triples added since the graph held `watermark` triples, in
    /// arrival order — or `None` if the insertion log no longer reaches back
    /// that far: a bulk merge added triples since then (it reports how many
    /// were new, not which), or the log outgrew the delta threshold and was
    /// dropped. `watermark` is a value [`Self::len`] returned earlier; the
    /// graph is append-only, so the two triple counts identify the slice.
    pub fn inserted_since(&self, watermark: usize) -> Option<&[Triple]> {
        debug_assert_eq!(self.log_start + self.log.len(), self.len);
        self.log.get(watermark.checked_sub(self.log_start)?..)
    }

    /// Forgets the insertion log: from here on only triples added later can
    /// be itemized.
    fn restart_log(&mut self) {
        self.log.clear();
        self.log_start = self.len;
    }

    /// Bulk-inserts a batch of already-encoded triples: scatters the batch
    /// by subject shard, then sorts + dedups each shard's slice (folding in
    /// any pending delta) and merges it into that shard's CSR runs in one
    /// pass — shards merge in parallel on scoped worker threads when the
    /// graph has more than one and the batch is large enough. Returns the
    /// number of newly added triples.
    ///
    /// Small batches arriving at a large store (e.g. a reasoner round that
    /// entails a handful of triples over millions, or a trickle of new
    /// facts under a serving session) are routed through the delta runs
    /// instead: a full three-index rebuild for a few rows would cost O(n),
    /// while the deltas' auto-merge amortizes it away — and only triples
    /// that arrive this way are itemized in the insertion log.
    ///
    /// The ids must come from this graph's dictionary (debug-asserted).
    pub fn bulk_insert_ids(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        let batch: Vec<Triple> = triples.into_iter().collect();
        if self.sorted_len() > 0 && self.pending_delta_len() + batch.len() < self.delta_threshold()
        {
            let mut added = 0;
            for t in batch {
                added += usize::from(self.insert_ids(t.s, t.p, t.o));
            }
            return added;
        }
        self.merge_into_runs(batch)
    }

    /// The merge path of [`Self::bulk_insert_ids`]: scatters `batch` by
    /// subject shard and folds each shard's delta plus its slice into the
    /// sorted CSR runs unconditionally.
    fn merge_into_runs(&mut self, batch: Vec<Triple>) -> usize {
        #[cfg(debug_assertions)]
        for t in &batch {
            debug_assert!(t.s.index() < self.dict.len(), "foreign subject id");
            debug_assert!(t.p.index() < self.dict.len(), "foreign predicate id");
            debug_assert!(t.o.index() < self.dict.len(), "foreign object id");
        }
        let before = self.len;
        let n = self.shards.len();
        let work = batch.len() + self.pending_delta_len();
        if n == 1 {
            self.shards[0].merge_batch(batch);
        } else {
            let mut per_shard: Vec<Vec<Triple>> = vec![Vec::new(); n];
            for t in batch {
                per_shard[shard_of_subject(t.s, n)].push(t);
            }
            if work >= PARALLEL_LOAD_MIN {
                std::thread::scope(|scope| {
                    for (shard, add) in self.shards.iter_mut().zip(per_shard) {
                        scope.spawn(move || shard.merge_batch(add));
                    }
                });
            } else {
                for (shard, add) in self.shards.iter_mut().zip(per_shard) {
                    shard.merge_batch(add);
                }
            }
        }
        self.len = self.shards.iter().map(Shard::len).sum();
        if self.len != before {
            // The batch added triples the log cannot name.
            self.restart_log();
        }
        self.len - before
    }

    /// Folds the pending delta buffers into the sorted CSR runs, so that
    /// subsequent reads are pure index scans. Idempotent; cheap when the
    /// deltas are empty.
    pub fn compact(&mut self) {
        if self.has_pending_delta() {
            self.merge_into_runs(Vec::new());
        }
    }

    /// Inserts a triple given as terms; returns `true` if it was new.
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let s = self.dict.encode(s);
        let p = self.dict.encode(p);
        let o = self.dict.encode(o);
        self.insert_ids(s, p, o)
    }

    /// Inserts a triple with subject/predicate given as IRI strings.
    pub fn insert_iri(&mut self, s: &str, p: &str, o: &Term) -> bool {
        let s = self.dict.encode_owned(Term::iri(s));
        let p = self.dict.encode_owned(Term::iri(p));
        let o = self.dict.encode(o);
        self.insert_ids(s, p, o)
    }

    /// Inserts an already-encoded triple; returns `true` if it was new.
    ///
    /// The ids must come from this graph's dictionary (debug-asserted). The
    /// triple lands in its subject shard's delta runs, which auto-merge into
    /// the shard's CSR runs once they outgrow a fraction of the shard, and
    /// in the insertion log.
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        debug_assert!(s.index() < self.dict.len(), "foreign subject id");
        debug_assert!(p.index() < self.dict.len(), "foreign predicate id");
        debug_assert!(o.index() < self.dict.len(), "foreign object id");
        let w = shard_of_subject(s, self.shards.len());
        let t = Triple::new(s, p, o);
        if !self.shards[w].insert(t) {
            return false;
        }
        self.len += 1;
        self.log.push(t);
        if self.log.len() > self.delta_threshold() {
            self.restart_log();
        }
        true
    }

    /// Inserts an encoded [`Triple`].
    pub fn insert_triple(&mut self, t: Triple) -> bool {
        self.insert_ids(t.s, t.p, t.o)
    }

    /// True if the encoded triple is present.
    pub fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.shards[self.shard_of(s)].contains_ids(s, p, o)
    }

    /// True if the term-level triple is present.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.dict.id(s), self.dict.id(p), self.dict.id(o)) {
            (Some(s), Some(p), Some(o)) => self.contains_ids(s, p, o),
            _ => false,
        }
    }

    /// The objects of `(s, p, ·)`: the sorted CSR run first, then the
    /// not-yet-merged delta run, each ascending. Subject-bound, so a single
    /// shard serves the whole iteration.
    pub fn objects(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        let sh = &self.shards[self.shard_of(s)];
        let pending = sh.delta.run(TriplePattern::new(Some(s), Some(p), None)).1;
        let sorted = sh.spo.thirds_of_pair(s, p).iter().copied();
        sorted.chain(pending.map(|&(_, _, o)| {
            count_delta_reads(1);
            o
        }))
    }

    /// The subjects of `(·, p, o)`: the sorted CSR runs first, then the
    /// not-yet-merged delta runs, each merged across shards in ascending
    /// subject order — exactly the flat store's order.
    pub fn subjects(&self, p: TermId, o: TermId) -> impl Iterator<Item = TermId> + '_ {
        let pattern = TriplePattern::new(None, Some(p), Some(o));
        let mut delta: Vec<TermId> = Vec::new();
        self.for_each_delta_match(pattern, &mut |t| delta.push(t.s));
        let shards = self.shards.iter();
        let sorted = shards.map(move |sh| sh.pos.thirds_of_pair(p, o).iter().copied());
        merge_sorted_runs(sorted).chain(delta)
    }

    /// Iterates every triple: the sorted SPO runs first, then the delta
    /// runs, each merged across shards in global SPO order.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        let mut delta: Vec<Triple> = Vec::new();
        self.for_each_delta_match(TriplePattern::default(), &mut |t| delta.push(t));
        merge_sorted_runs(self.shards.iter().map(|sh| sh.spo.tuples()))
            .map(|(s, p, o)| Triple::new(s, p, o))
            .chain(delta)
    }

    /// Fires `f` for every pending triple matching `pattern`: the shards'
    /// delta runs, k-way merged by the key of the index that serves the
    /// shape — the delta half of every cross-shard read.
    fn for_each_delta_match<F: FnMut(Triple)>(&self, pattern: TriplePattern, f: &mut F) {
        if !self.has_pending_delta() {
            return;
        }
        let perm = Perm::serving(pattern);
        let pending = self.shards.iter().filter(|sh| !sh.delta.is_empty());
        let mut rows = 0;
        for t in merge_sorted_runs(pending.map(|sh| sh.delta.run(pattern).1.copied())) {
            f(perm.triple(t));
            rows += 1;
        }
        count_delta_reads(rows);
    }

    /// Calls `f` for every triple matching `pattern`, using the cheapest
    /// index for the pattern's shape — every shape is index-backed.
    ///
    /// The enumeration order is independent of the shard count: a
    /// subject-bound shape routes to one shard (whose local order is the
    /// flat order), and subject-free shapes k-way merge the per-shard CSR
    /// runs, then the per-shard delta runs, by the index's sort key, which
    /// cannot tie across shards.
    pub fn for_each_match<F: FnMut(Triple)>(&self, pattern: TriplePattern, mut f: F) {
        if self.shards.len() == 1 {
            self.shards[0].for_each_match_local(pattern, &mut f);
            return;
        }
        match pattern.s {
            Some(s) => self.shards[self.shard_of(s)].for_each_match_local(pattern, &mut f),
            None => self.for_each_match_merged(pattern, &mut f),
        }
    }

    /// The subject-free read of a sharded graph. Kept out of
    /// [`Self::for_each_match`] so that the routed reads there — the flat
    /// store's only path — stay small enough to inline into the evaluator's
    /// row kernel whatever the merge arms here grow into.
    fn for_each_match_merged<F: FnMut(Triple)>(&self, pattern: TriplePattern, f: &mut F) {
        let shards = self.shards.iter();
        match (pattern.p, pattern.o) {
            (Some(p), Some(o)) => {
                let runs = shards.map(|sh| sh.pos.thirds_of_pair(p, o).iter().copied());
                merge_sorted_runs(runs).for_each(|s| f(Triple::new(s, p, o)));
            }
            (Some(p), None) => {
                let runs = shards.map(|sh| sh.pos.pairs_of_first(p));
                merge_sorted_runs(runs).for_each(|(o, s)| f(Triple::new(s, p, o)));
            }
            (None, Some(o)) => {
                let runs = shards.map(|sh| sh.osp.pairs_of_first(o));
                merge_sorted_runs(runs).for_each(|(s, p)| f(Triple::new(s, p, o)));
            }
            (None, None) => {
                let runs = shards.map(|sh| sh.spo.tuples());
                merge_sorted_runs(runs).for_each(|(s, p, o)| f(Triple::new(s, p, o)));
            }
        }
        self.for_each_delta_match(pattern, f);
    }

    /// Calls `f` for every triple of shard `shard` matching `pattern`, in
    /// the shard's local order (CSR run, then delta run). The engine's
    /// per-shard evaluation workers use this to probe shards directly;
    /// patterns whose subject routes elsewhere simply match nothing here.
    ///
    /// # Panics
    /// Panics if `shard >= self.shard_count()`.
    pub fn for_each_match_in_shard<F: FnMut(Triple)>(
        &self,
        shard: usize,
        pattern: TriplePattern,
        mut f: F,
    ) {
        self.shards[shard].for_each_match_local(pattern, &mut f);
    }

    /// Collects the triples matching `pattern`.
    pub fn matching(&self, pattern: TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pattern, |t| out.push(t));
        out
    }

    /// Exact number of triples matching `pattern`, computed from the CSR
    /// offset/run metadata plus the lengths of the matching delta runs — no
    /// shape falls back to a full scan. Used for join-order selectivity.
    ///
    /// Subject-bound shapes are answered by one shard; subject-free shapes
    /// are an integer sum of shard-local counts — nothing is materialized
    /// per shard, so the planning path stays allocation-free at any shard
    /// count.
    pub fn count_matching(&self, pattern: TriplePattern) -> usize {
        if let Some(s) = pattern.s {
            return self.shards[self.shard_of(s)].count_matching_local(pattern);
        }
        if pattern.p.is_none() && pattern.o.is_none() {
            return self.len;
        }
        self.shards
            .iter()
            .map(|sh| sh.count_matching_local(pattern))
            .sum()
    }

    /// Exact number of triples of shard `shard` matching `pattern` — the
    /// shard-level statistic the engine uses to skip shards that cannot
    /// contribute to a probe (predicate/constant pushdown).
    ///
    /// # Panics
    /// Panics if `shard >= self.shard_count()`.
    pub fn count_matching_in_shard(&self, shard: usize, pattern: TriplePattern) -> usize {
        self.shards[shard].count_matching_local(pattern)
    }

    /// Decodes a triple back to its terms.
    ///
    /// # Panics
    /// Panics if the ids are foreign to this graph's dictionary.
    pub fn decode(&self, t: Triple) -> (&Term, &Term, &Term) {
        (
            self.dict.term(t.s),
            self.dict.term(t.p),
            self.dict.term(t.o),
        )
    }

    /// Per-predicate triple counts, sorted descending — the store's summary
    /// statistics (used by consoles and for eyeballing generated workloads).
    pub fn predicate_counts(&self) -> Vec<(TermId, usize)> {
        let mut counts: FxHashMap<TermId, usize> = FxHashMap::default();
        for sh in &self.shards {
            for (p, n) in sh.pos.first_group_sizes() {
                *counts.entry(p).or_insert(0) += n;
            }
            for t in sh.delta.triples() {
                *counts.entry(t.p).or_insert(0) += 1;
            }
        }
        let mut counts: Vec<(TermId, usize)> = counts.into_iter().collect();
        counts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Number of distinct subjects. Subjects never cross shards, so this is
    /// the exact sum of per-shard distinct counts — no cross-shard set is
    /// built.
    pub fn subject_count(&self) -> usize {
        self.shards.iter().map(Shard::distinct_subjects).sum()
    }

    /// Distinct first components of the chosen per-shard index, unioned
    /// across shards (predicates and objects may appear in many shards).
    fn distinct_union(
        &self,
        idx_of: impl Fn(&Shard) -> &CsrIndex,
        key: impl Fn(&Triple) -> TermId,
    ) -> usize {
        if self.shards.len() == 1 {
            let sh = &self.shards[0];
            return distinct_with_delta(idx_of(sh), &sh.delta, key);
        }
        let mut set: FxHashSet<TermId> = FxHashSet::default();
        for sh in &self.shards {
            for (k, _) in idx_of(sh).first_group_sizes() {
                set.insert(k);
            }
            for t in sh.delta.triples() {
                set.insert(key(&t));
            }
        }
        set.len()
    }

    /// Number of distinct predicates.
    pub fn predicate_count(&self) -> usize {
        self.distinct_union(|sh| &sh.pos, |t| t.p)
    }

    /// Number of distinct objects.
    pub fn object_count(&self) -> usize {
        self.distinct_union(|sh| &sh.osp, |t| t.o)
    }

    /// Copies every triple of `other` into `self`, re-encoding terms into
    /// this graph's dictionary through the bulk loader. Returns the number
    /// of newly added triples.
    pub fn absorb(&mut self, other: &Graph) -> usize {
        let mut batch = Vec::with_capacity(other.len());
        for t in other.triples() {
            let (s, p, o) = other.decode(t);
            batch.push(Triple::new(
                self.dict.encode(s),
                self.dict.encode(p),
                self.dict.encode(o),
            ));
        }
        self.bulk_insert_ids(batch)
    }
}

/// Lazily k-way merges per-shard sorted runs in ascending order — the one
/// cross-shard merge behind every read of this module. Ties across runs are
/// impossible for its call sites (the runs' sort keys start with — or
/// determine — the subject, and a subject lives in exactly one shard), so a
/// plain minimum scan is exact.
fn merge_sorted_runs<T: Copy + Ord, I: Iterator<Item = T>>(
    runs: impl Iterator<Item = I>,
) -> impl Iterator<Item = T> {
    let mut runs: Vec<I> = runs.collect();
    let mut heads: Vec<Option<T>> = runs.iter_mut().map(Iterator::next).collect();
    std::iter::from_fn(move || {
        let live = heads
            .iter()
            .enumerate()
            .filter_map(|(i, head)| Some((i, (*head)?)));
        let (i, least) = live.min_by_key(|&(_, head)| head)?;
        heads[i] = runs[i].next();
        Some(least)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::DELTA_MERGE_MIN;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_iri("user1", "hasAge", &Term::integer(28));
        g.insert_iri("user2", "hasAge", &Term::integer(40));
        g.insert_iri("user3", "hasAge", &Term::integer(35));
        g.insert_iri("user1", "livesIn", &Term::literal("Madrid"));
        g.insert_iri("user1", "identifiedBy", &Term::literal("Bill"));
        g.insert_iri("user1", "identifiedBy", &Term::literal("William"));
        g
    }

    /// The same graph with the delta folded into the CSR runs, so tests can
    /// exercise both storage states.
    fn sample_compacted() -> Graph {
        let mut g = sample();
        g.compact();
        assert_eq!(g.pending_delta_len(), 0);
        g
    }

    /// The sample graph rebuilt at a given shard count, through the same
    /// incremental insertion sequence.
    fn sample_sharded(n: usize) -> Graph {
        let flat = sample();
        let mut g = Graph::with_shards(n);
        g.dict = flat.dict.clone();
        for t in flat.triples() {
            g.insert_ids(t.s, t.p, t.o);
        }
        g
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = Graph::new();
        assert!(g.insert_iri("a", "p", &Term::literal("x")));
        assert!(!g.insert_iri("a", "p", &Term::literal("x")));
        assert_eq!(g.len(), 1);
        // Dedup also holds across the delta/CSR boundary.
        g.compact();
        assert!(!g.insert_iri("a", "p", &Term::literal("x")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn contains_and_decode() {
        for g in [sample(), sample_compacted()] {
            assert!(g.contains(
                &Term::iri("user1"),
                &Term::iri("hasAge"),
                &Term::integer(28)
            ));
            assert!(!g.contains(
                &Term::iri("user1"),
                &Term::iri("hasAge"),
                &Term::integer(99)
            ));
            let t = g.matching(TriplePattern::new(g.dict().iri_id("user2"), None, None))[0];
            let (s, _, o) = g.decode(t);
            assert_eq!(s, &Term::iri("user2"));
            assert_eq!(o, &Term::integer(40));
        }
    }

    #[test]
    fn all_eight_pattern_shapes_agree_with_full_scan() {
        for g in [sample(), sample_compacted()] {
            let all: Vec<Triple> = g.triples().collect();
            assert_eq!(all.len(), g.len());
            // Enumerate every (s?, p?, o?) choice drawn from an actual triple
            // and check index-backed matching equals a brute-force filter.
            let probe = all[0];
            for mask in 0u8..8 {
                let pat = TriplePattern::new(
                    (mask & 1 != 0).then_some(probe.s),
                    (mask & 2 != 0).then_some(probe.p),
                    (mask & 4 != 0).then_some(probe.o),
                );
                let mut via_index = g.matching(pat);
                let mut via_scan: Vec<Triple> =
                    all.iter().copied().filter(|t| pat.matches(t)).collect();
                via_index.sort();
                via_scan.sort();
                assert_eq!(via_index, via_scan, "pattern shape {mask:#05b}");
                assert_eq!(g.count_matching(pat), via_scan.len(), "count {mask:#05b}");
            }
        }
    }

    #[test]
    fn sharded_reads_are_bit_identical_to_flat() {
        let flat = sample();
        let all: Vec<Triple> = flat.triples().collect();
        for n in [2usize, 7, 16] {
            for (mode, g) in [
                ("incremental", sample_sharded(n)),
                ("compacted", {
                    let mut g = sample_sharded(n);
                    g.compact();
                    g
                }),
                (
                    "bulk",
                    Graph::from_triples_sharded(flat.dict.clone(), all.clone(), n),
                ),
            ] {
                // Compare against the flat graph in the matching storage
                // state (delta order only lines up delta-to-delta).
                let reference = if mode == "incremental" {
                    sample()
                } else {
                    sample_compacted()
                };
                assert_eq!(g.len(), reference.len(), "{mode}@{n}");
                assert_eq!(
                    g.triples().collect::<Vec<_>>(),
                    reference.triples().collect::<Vec<_>>(),
                    "{mode}@{n} triples order"
                );
                let probe = all[0];
                for mask in 0u8..8 {
                    let pat = TriplePattern::new(
                        (mask & 1 != 0).then_some(probe.s),
                        (mask & 2 != 0).then_some(probe.p),
                        (mask & 4 != 0).then_some(probe.o),
                    );
                    assert_eq!(
                        g.matching(pat),
                        reference.matching(pat),
                        "{mode}@{n} shape {mask:#05b} (order-sensitive)"
                    );
                    assert_eq!(g.count_matching(pat), reference.count_matching(pat));
                }
                assert_eq!(g.subject_count(), reference.subject_count());
                assert_eq!(g.predicate_count(), reference.predicate_count());
                assert_eq!(g.object_count(), reference.object_count());
                assert_eq!(g.predicate_counts(), reference.predicate_counts());
            }
        }
    }

    #[test]
    fn shard_statistics_partition_the_store() {
        let mut g = sample_sharded(7);
        g.compact();
        assert_eq!(g.shard_count(), 7);
        let total: usize = (0..7)
            .map(|w| g.shard_len(w))
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert_eq!(total, g.len());
        let subjects: usize = (0..7).map(|w| g.shard_subject_count(w)).sum();
        assert_eq!(subjects, g.subject_count());
        // Per-shard counts of a subject-free shape sum to the global count.
        let p = g.dict().iri_id("hasAge").unwrap();
        let pat = TriplePattern::new(None, Some(p), None);
        let per_shard: usize = (0..7).map(|w| g.count_matching_in_shard(w, pat)).sum();
        assert_eq!(per_shard, g.count_matching(pat));
        // A subject-bound probe is served entirely by its owner shard.
        let s = g.dict().iri_id("user1").unwrap();
        let own = g.shard_of(s);
        let bound = TriplePattern::new(Some(s), None, None);
        assert_eq!(
            g.count_matching_in_shard(own, bound),
            g.count_matching(bound)
        );
        let mut routed = Vec::new();
        g.for_each_match_in_shard(own, bound, |t| routed.push(t));
        assert_eq!(routed, g.matching(bound));
    }

    #[test]
    fn set_shard_count_repartitions_in_place() {
        let mut g = sample();
        g.set_shard_count(7);
        assert_eq!(g.shard_count(), 7);
        assert_eq!(g.pending_delta_len(), 0, "resharding compacts");
        let reference = sample_compacted();
        assert_eq!(
            g.triples().collect::<Vec<_>>(),
            reference.triples().collect::<Vec<_>>()
        );
        g.set_shard_count(1);
        assert_eq!(g.shard_count(), 1);
        assert_eq!(
            g.triples().collect::<Vec<_>>(),
            reference.triples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bulk_loader_equals_incremental_inserts() {
        let incremental = sample_compacted();
        let bulk = Graph::from_triples(
            incremental.dict().clone(),
            incremental.triples().collect::<Vec<_>>(),
        );
        assert_eq!(bulk.len(), incremental.len());
        for t in incremental.triples() {
            assert!(bulk.contains_ids(t.s, t.p, t.o));
        }
        // Bulk loading dedups batch-internal repeats too.
        let twice: Vec<Triple> = incremental.triples().chain(incremental.triples()).collect();
        let deduped = Graph::from_triples(incremental.dict().clone(), twice);
        assert_eq!(deduped.len(), incremental.len());
    }

    #[test]
    fn bulk_insert_reports_only_new_triples() {
        let mut g = sample();
        let existing: Vec<Triple> = g.triples().collect();
        // Re-inserting the whole graph adds nothing…
        assert_eq!(g.bulk_insert_ids(existing), 0);
        // …and the delta was folded in by the bulk call.
        assert_eq!(g.pending_delta_len(), 0);
        let s = g.encode(&Term::iri("user9"));
        let p = g.encode(&Term::iri("livesIn"));
        let o = g.encode(&Term::literal("Kyoto"));
        assert_eq!(g.bulk_insert_ids([Triple::new(s, p, o)]), 1);
        assert!(g.contains_ids(s, p, o));
    }

    #[test]
    fn delta_auto_merges_at_threshold() {
        let mut g = Graph::new();
        let p = g.encode(&Term::iri("p"));
        let ids: Vec<TermId> = (0..2 * DELTA_MERGE_MIN)
            .map(|i| g.encode(&Term::iri(format!("n{i}"))))
            .collect();
        for (i, &s) in ids.iter().enumerate() {
            g.insert_ids(s, p, ids[(i + 1) % ids.len()]);
        }
        assert!(
            g.pending_delta_len() < DELTA_MERGE_MIN,
            "delta should have auto-merged at least once, still {}",
            g.pending_delta_len()
        );
        assert_eq!(g.len(), 2 * DELTA_MERGE_MIN);
        assert_eq!(
            g.count_matching(TriplePattern::new(None, Some(p), None)),
            g.len()
        );
    }

    #[test]
    fn multi_valued_properties_are_kept() {
        // user1 is identified both as William and as Bill (paper §2).
        for g in [sample(), sample_compacted(), sample_sharded(7)] {
            let p = g.dict().iri_id("identifiedBy").unwrap();
            let s = g.dict().iri_id("user1").unwrap();
            assert_eq!(g.objects(s, p).count(), 2);
        }
    }

    #[test]
    fn objects_and_subjects_missing_are_empty() {
        let g = sample();
        let s = g.dict().iri_id("user1").unwrap();
        assert_eq!(g.objects(s, TermId(9999)).count(), 0);
        assert_eq!(g.subjects(TermId(9999), s).count(), 0);
    }

    #[test]
    fn absorb_merges_and_reencodes() {
        let g1 = sample();
        let mut g2 = Graph::new();
        g2.insert_iri("user9", "livesIn", &Term::literal("Kyoto"));
        let added = g2.absorb(&g1);
        assert_eq!(added, g1.len());
        assert_eq!(g2.len(), g1.len() + 1);
        assert!(g2.contains(
            &Term::iri("user1"),
            &Term::iri("hasAge"),
            &Term::integer(28)
        ));
        // Absorbing again adds nothing.
        assert_eq!(g2.absorb(&g1), 0);
    }

    #[test]
    fn count_matching_full_wildcard_is_len() {
        let g = sample();
        assert_eq!(g.count_matching(TriplePattern::default()), g.len());
    }

    #[test]
    fn summary_statistics() {
        for g in [sample(), sample_compacted(), sample_sharded(16)] {
            assert_eq!(g.subject_count(), 3);
            assert_eq!(g.predicate_count(), 3); // hasAge, livesIn, identifiedBy
            let counts = g.predicate_counts();
            assert_eq!(counts.len(), 3);
            // hasAge has 3 triples, identifiedBy 2, livesIn 1 — sorted desc.
            assert_eq!(counts[0].1, 3);
            assert_eq!(counts[1].1, 2);
            assert_eq!(counts[2].1, 1);
            assert_eq!(counts.iter().map(|(_, n)| n).sum::<usize>(), g.len());
            assert!(g.object_count() >= 5);
        }
    }

    #[test]
    fn mixed_bulk_then_incremental_then_bulk() {
        // Interleave the three load paths and check reads stay consistent.
        let mut g = sample_compacted();
        assert!(g.insert_iri("user2", "livesIn", &Term::literal("Oslo")));
        assert_eq!(g.pending_delta_len(), 1);
        let s = g.encode(&Term::iri("user3"));
        let p = g.encode(&Term::iri("livesIn"));
        let o = g.encode(&Term::literal("Lima"));
        assert_eq!(g.bulk_insert_ids([Triple::new(s, p, o)]), 1);
        // A small batch into a non-empty store rides the delta buffer (a
        // full three-index rebuild for one row would cost O(n))…
        assert_eq!(g.pending_delta_len(), 2);
        assert_eq!(g.len(), 8);
        // …and compaction folds it in on demand.
        g.compact();
        assert_eq!(g.pending_delta_len(), 0);
        assert_eq!(g.len(), 8);
        let lives = g.dict().iri_id("livesIn").unwrap();
        assert_eq!(
            g.count_matching(TriplePattern::new(None, Some(lives), None)),
            3
        );
        assert!(g.contains(
            &Term::iri("user2"),
            &Term::iri("livesIn"),
            &Term::literal("Oslo")
        ));
    }
}
