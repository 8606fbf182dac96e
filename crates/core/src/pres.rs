//! Partial results (Definitions 3–4) — the materialized view the paper's
//! rewriting algorithms consume.
//!
//! For a query `Q = ⟨c, m, ⊕⟩`, the *extended measure result* `m^k(I)`
//! attaches a fresh key `newk()` to every tuple of the bag `m(I)`, so that
//! identical measure values of one fact stay distinguishable after
//! relational operations. A table here stores every tuple once, so a
//! tuple's place in it is such a key, and no key is stored. The *partial
//! result* is
//!
//! ```text
//! pres(Q, I) = c(I) ⋈ₓ m^k(I)      — a table ⟨root, d₁…dₙ, k, v⟩
//! ```
//!
//! `pres(Q)` is exactly the input of the final aggregation of `Q`
//! (Equation 1), so materializing it while answering `Q` costs almost
//! nothing extra, and Equation 3 recovers `ans(Q)` from it:
//! `ans(Q) = γ_{d₁…dₙ,⊕(v)}(π_{x,d₁…dₙ,v}(pres(Q)))`.
//!
//! # The invariant
//!
//! `pres` is a join on the fact: a fact brings the same keyed measure
//! tuples to every cell it sits in. A [`PartialResult`] stores the join's
//! two sides, never its expansion: **cell heads** `(d₁…dₙ, fact)`, strictly
//! ascending on `(d₁…dₙ, root)`, over a root-ascending **fact table** that
//! holds each fact's measure values once — the run every head of the fact
//! points at. A tuple's key `k` is `1 +` its index in the table's values.
//! A row `⟨root, d₁…dₙ, k, v⟩` is a head with one value of its run
//! ([`PartialResult::rows`], in `(d₁…dₙ, root, k)` order). The layout is
//! canonical (every fact referenced, every run non-empty), so:
//!
//! * every cube cell is one block of heads, and [`PartialResult::to_cube`]
//!   is a scan with no sort that folds each cell over their runs in place;
//! * a SLICE/DICE tests Σ once per cell (or per refused prefix of cells)
//!   and keeps the admitted heads and the facts they reference;
//! * tables holding the same rows are equal buffer for buffer, which is
//!   what the derived `PartialEq` compares.
//!
//! # Counting passes, one scan
//!
//! Whoever builds a table — the classifier ⋈ measure join of
//! [`PartialResult::compute`], or the π / ⋈ of a rewriting in
//! [`crate::rewrite`] — fills the crate-private `Records` buffer, which has
//! the same two sides: `key_join` builds a fresh fact table, a rewriting
//! borrows its source's and pushes heads that copy a fact's reference,
//! never its tuples. The kernel, `Records::into_pres`, puts the heads in
//! `(dims, fact)` order — which is `(dims, root)` order, as facts are in
//! root order — without comparing two heads: stable LSD counting passes
//! over an index array, first on the fact (skipped when the heads arrive
//! in fact order, as a join's do; a rewriting's do not), then on each
//! dimension from the last to the first, keyed by the dense rank of the
//! value among that column's distinct values. The only sort is of those
//! values, `c log c` for `c` of them, and the kernel works at any width.
//! One scan then drops adjacent equal heads (δ) and keeps the facts the
//! survivors reference. No tuple is copied but to be kept.
//!
//! # The measure of the admitted facts only
//!
//! `c(I) ⋈ₓ m^k(I)` keeps no measure tuple whose root the Σ-filtered
//! classifier refused, so [`PartialResult::compute`] and a refresh's
//! re-derivation (one function, `evaluate_parts`) evaluate the classifier
//! first and then the measure with its root *seeded* to the classifier's
//! distinct roots — a semi-join reduction on the fact, done at query time:
//! a 10 % dice enumerates about a tenth of the measure, not all of it.
//!
//! * **Bag classifier.** The classifier is evaluated without δ: a root that
//!   reaches one cell along two embeddings (two posts on one site) gives
//!   that row twice, and the kernel's δ drops the repeated head, so the
//!   table is the one set semantics gives. This pays off while repeats are
//!   rare, as the heads, and the memory and passes they cost, grow with
//!   the embeddings rather than the distinct rows. Over each of
//!   olapbench's workloads at most 9 % of the classifier rows repeat one
//!   (Q3's `dsite`), and no single query exceeds 16 %.
//!
//! * **Guard.** The measure stays unseeded when one of its patterns matches
//!   fewer triples (its constant shape's exact `count_matching`) than there
//!   are roots: its unseeded plan then reads fewer rows in its first step
//!   than seeding would probe.
//! * **Elision.** A seeded measure drops each pattern `?root p o` (`p`, `o`
//!   constants) that the classifier also states on its own root: every
//!   seeded root matches it, and exactly once, so the bag is unchanged. The
//!   root's last pattern stays, as it must bind the seeded variable.
//! * **Keys.** `newk()` is realized by position: a tuple's key is `1 +` its
//!   index in the fact table's values, so the keys of a table of `n` tuples
//!   are exactly `1..=n`, whoever built it. A run keeps the order in which
//!   the measure enumerated the fact's tuples, so two tables of one query
//!   are equal up to a bijective renaming of keys, which is what every
//!   consumer relies on.

use crate::answer::Cube;
use crate::cost::pattern_counts;
use crate::error::CoreError;
use crate::extended::{CompiledSigma, ExtendedQuery};
use rdfcube_engine::{
    evaluate_seeded, AggFunc, Bgp, PatternTerm, QueryPattern, Relation, Seed, Semantics,
};
use rdfcube_obs as obs;
use rdfcube_rdf::fx::FxHashMap;
use rdfcube_rdf::{Dictionary, Graph, TermId, Triple};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// One row of a partial result, viewed by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresRow<'a> {
    /// The fact (the classifier's root binding).
    pub root: TermId,
    /// The dimension values `d₁…dₙ`.
    pub dims: &'a [TermId],
    /// The `newk()` key identifying one measure tuple within this table:
    /// `1 +` the tuple's place in the table's fact side, so a table's keys
    /// are `1..=n`. Two tables of the same query agree up to a bijective
    /// renaming of keys.
    pub key: u32,
    /// The measure value `v`.
    pub value: TermId,
}

/// The materialized `pres(Q, I)` table: cell heads over a fact table (see
/// the [module docs](self)), labelled with a query's dimension names and ⊕.
///
/// The table is built once and never changed, and every clone shares it:
/// a clone, `with_agg` and [`Self::with_dim_names`] copy a pointer,
/// not the rows. So the ⊕ twins of a query hold one table. `PartialEq`
/// still compares the rows, not the pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult {
    dim_names: Vec<String>,
    agg: AggFunc,
    table: Arc<Table>,
}

/// The rows of a [`PartialResult`], whatever its labels.
#[derive(Debug, PartialEq)]
struct Table {
    n_dims: usize,
    /// Flat heads `[d₁…dₙ, f]`, strictly ascending: a cell and the index
    /// `f` (not a term) of a fact of `facts` that sits in it.
    heads: Vec<TermId>,
    facts: Facts,
    /// The rows the heads stand for (see [`PartialResult::len`]).
    rows: usize,
}

/// The fact side of a table: facts in root order, each with its run of
/// measure values. A value's `newk()` key is `1 +` its index in `values`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Facts {
    roots: Vec<TermId>,
    /// Where each fact's run ends in `values` (and the next one starts).
    ends: Vec<u32>,
    values: Vec<TermId>,
}

impl Facts {
    fn len(&self) -> usize {
        self.roots.len()
    }

    /// Appends a fact after every fact of a smaller root.
    fn push(&mut self, root: TermId, run: impl IntoIterator<Item = TermId>) {
        self.roots.push(root);
        self.values.extend(run);
        // Fits: a table holds at most `u32::MAX` values (`check_size`).
        self.ends.push(self.values.len() as u32);
    }

    /// Appends the facts `fs` of `other`, whose roots follow this table's.
    fn extend_from(&mut self, other: &Facts, fs: Range<usize>) {
        let (from, to) = (other.start(fs.start), other.start(fs.end));
        let shift = |&end: &u32| end - from as u32 + self.values.len() as u32;
        self.ends.extend(other.ends[fs.clone()].iter().map(shift));
        self.roots.extend_from_slice(&other.roots[fs]);
        self.values.extend_from_slice(&other.values[from..to]);
    }

    /// Where the run of fact `f` starts in `values`.
    fn start(&self, f: usize) -> usize {
        f.checked_sub(1).map_or(0, |e| self.ends[e] as usize)
    }

    /// The run of fact `f`.
    fn run(&self, f: usize) -> &[TermId] {
        &self.values[self.start(f)..self.start(f + 1)]
    }
}

/// A table holds at most `u32::MAX` values, as `ends` are `u32`: a bound on
/// the size of one table, not on its history.
fn check_size(values: usize) -> Result<(), CoreError> {
    let error = || CoreError::InvalidOperation(format!("{values} measure tuples in one pres"));
    u32::try_from(values).map(drop).map_err(|_| error())
}

/// The rows `heads` (of `n` dimensions) stand for over `facts`.
fn row_count(heads: &[TermId], n: usize, facts: &Facts) -> usize {
    let runs = heads.chunks_exact(n + 1).map(|h| facts.run(h[n].index()));
    runs.map(<[TermId]>::len).sum()
}

/// A table on its way into a [`PartialResult`]: heads in any order, some
/// perhaps repeated, over a fact table that is built fresh or borrowed
/// from the table they derive from. [`Records::into_pres`] sorts it.
#[derive(Debug)]
pub(crate) struct Records<'a> {
    n_dims: usize,
    /// Flat heads `[d₁…dₙ, f]`, as in [`PartialResult`].
    heads: Vec<TermId>,
    facts: Cow<'a, Facts>,
}

impl<'a> Records<'a> {
    /// An empty buffer for heads of `n_dims` dimensions over the facts of
    /// `source`, or over a fact table of its own that `key_join` fills.
    pub(crate) fn new(n_dims: usize, source: Option<&'a PartialResult>) -> Self {
        let facts = source.map_or_else(Cow::default, |pres| Cow::Borrowed(&pres.table.facts));
        let heads = Vec::new();
        Records {
            n_dims,
            heads,
            facts,
        }
    }

    /// Number of rows pushed so far.
    pub(crate) fn len(&self) -> usize {
        row_count(&self.heads, self.n_dims, &self.facts)
    }

    /// `c(I) ⋈ₓ m^k(I)` into an empty buffer: stores each admitted fact's
    /// values of the measure result `m_rel` once, in enumeration order (a
    /// value's place is its `newk()` key), and pushes one head per
    /// classifier row of `c_rel` that has measure tuples — a merge on the
    /// root, in the order a root scan gives (else a sort). An error if the
    /// values might not fit one table.
    fn key_join(&mut self, c_rel: &Relation, m_rel: &Relation) -> Result<(), CoreError> {
        let sp = obs::span("key_join");
        check_size(m_rel.len())?;
        // A side's row indices in root order: `None` when its rows arrive in
        // it (the side is walked as it is), else sorted once by `(root, row)`.
        let by_root = |rel: &Relation| {
            (!rel.rows().map(|row| row[0]).is_sorted()).then(|| {
                let roots = rel.rows().map(|row| row[0]);
                let mut pairs: Vec<(TermId, u32)> = roots.zip(0..).collect();
                pairs.sort_unstable();
                pairs.into_iter().map(|(_, i)| i).collect::<Vec<u32>>()
            })
        };
        let (c_order, m_order) = (by_root(c_rel), by_root(m_rel));
        let nth = |o: &Option<Vec<u32>>, at| o.as_ref().map_or(at, |o| o[at] as usize);
        let m_root = |at| u64::from(m_rel.row(nth(&m_order, at))[0].0);
        let below = |from, bound| (from..m_rel.len()).find(|&at| m_root(at) >= bound);
        let value = |at| m_rel.row(nth(&m_order, at))[1];
        let (mut next, mut last, mut fact) = (0, None, None);
        self.heads.reserve(c_rel.len() * (self.n_dims + 1));
        for i in (0..c_rel.len()).map(|at| nth(&c_order, at)) {
            let root = c_rel.row(i)[0];
            if last != Some(root) {
                let from = below(next, u64::from(root.0)).unwrap_or(m_rel.len());
                let to = below(from, u64::from(root.0) + 1).unwrap_or(m_rel.len());
                fact = (from < to).then(|| {
                    let facts = self.facts.to_mut();
                    facts.push(root, (from..to).map(value));
                    facts.len() - 1
                });
                (next, last) = (to, Some(root));
            }
            if let Some(fact) = fact {
                self.push(c_rel.row(i)[1..].iter().copied(), fact);
            }
        }
        if sp.active() {
            sp.rows((c_rel.len() + m_rel.len()) as u64, self.len() as u64);
        }
        let sorted = u64::from(c_order.is_some()) + u64::from(m_order.is_some());
        sp.attr("sorted_sides", sorted);
        Ok(())
    }

    /// Pushes a head: fact `fact` of this buffer sits in the cell `dims`.
    pub(crate) fn push(&mut self, dims: impl IntoIterator<Item = TermId>, fact: usize) {
        self.heads.extend(dims);
        self.heads.push(TermId(fact as u32));
    }

    /// The counting kernel: orders the heads on `(dims, fact)` by stable
    /// counting passes — on the fact unless they arrive in fact order, then
    /// on each dimension's value rank, the last dimension first — and in one
    /// scan drops adjacent equal ones (δ): a table that is born sorted.
    pub(crate) fn into_pres(self, dim_names: Vec<String>, agg: AggFunc) -> PartialResult {
        let (n, stride) = (self.n_dims, self.n_dims + 1);
        let head = |i: u32| &self.heads[i as usize * stride..][..stride];
        let sp = obs::span("sort");
        let mut order: Vec<u32> = (0..(self.heads.len() / stride) as u32).collect();
        for d in (0..=n).rev() {
            let column = self.heads.iter().skip(d).step_by(stride);
            let (keys, buckets) = if d < n {
                distinct(column)
            } else if column.clone().is_sorted() {
                continue;
            } else {
                let facts = 0..self.facts.len() as u32;
                (column.map(|f| f.0).collect(), facts.collect())
            };
            counting_pass(&mut order, &keys, &buckets);
        }
        sp.rows(order.len() as u64, order.len() as u64);
        drop(sp);

        let sp = obs::span("dedup");
        let rows_in = if sp.active() { self.len() } else { 0 };
        let mut heads = Vec::with_capacity(self.heads.len());
        for h in order.into_iter().map(head) {
            if !heads.ends_with(h) {
                heads.extend_from_slice(h);
            }
        }
        let pres = Records { heads, ..self }.finish(dim_names, agg);
        if sp.active() {
            sp.rows(rows_in as u64, pres.len() as u64);
            sp.bytes(pres.approx_bytes() as u64);
        }
        pres
    }

    /// The one way a table comes to be, from sorted and distinct heads: keeps
    /// the facts they reference (renumbered in order, so the heads stay
    /// sorted), drops spare capacity and, in debug builds, checks the layout.
    fn finish(self, dim_names: Vec<String>, agg: AggFunc) -> PartialResult {
        let (n, mut heads, facts) = (self.n_dims, self.heads, self.facts);
        let mut renumbered = vec![u32::MAX; facts.len()];
        let referenced = heads.chunks_exact(n + 1).map(|h| h[n].index());
        referenced.for_each(|f| renumbered[f] = 0);
        let mut facts = if !renumbered.contains(&u32::MAX) {
            facts.into_owned()
        } else {
            let (mut kept, referenced) = (Facts::default(), renumbered.iter_mut().enumerate());
            for (f, at) in referenced.filter(|(_, at)| **at == 0) {
                *at = kept.len() as u32;
                kept.extend_from(&facts, f..f + 1);
            }
            let heads = heads.chunks_exact_mut(n + 1);
            heads.for_each(|h| h[n] = TermId(renumbered[h[n].index()]));
            kept
        };
        heads.shrink_to_fit();
        facts.roots.shrink_to_fit();
        facts.ends.shrink_to_fit();
        facts.values.shrink_to_fit();
        let table = Table {
            n_dims: n,
            rows: row_count(&heads, n, &facts),
            heads,
            facts,
        };
        let pres = PartialResult {
            dim_names,
            agg,
            table: Arc::new(table),
        };
        debug_assert!(pres.is_canonical(), "pres layout must be canonical");
        pres
    }
}

impl PartialResult {
    /// Heads strictly ascending, every fact referenced, facts strictly
    /// root-ascending, and runs non-empty.
    fn is_canonical(&self) -> bool {
        let facts = &self.table.facts;
        let mut referenced = vec![false; facts.len()];
        self.heads().for_each(|(_, _, f)| referenced[f] = true);
        let heads = self.table.heads.chunks_exact(self.table.n_dims + 1);
        heads.is_sorted_by(|a, b| a < b)
            && referenced.iter().all(|&r| r)
            && facts.roots.is_sorted_by(|a, b| a < b)
            && (0..facts.len()).all(|f| !facts.run(f).is_empty())
    }

    /// Computes `pres(Q, I)` for an extended query over `instance`.
    ///
    /// The classifier is filtered by Σ and evaluated as a bag, its repeated
    /// rows left to the kernel's δ; the measure under bag semantics for the
    /// facts it admits, each fact's values stored in enumeration order, so
    /// a tuple's key is its place in the table (the paper's illustrative
    /// `newk()` returning 1, 2, 3…). The joined heads go through the same
    /// counting kernel as every rewriting.
    pub fn compute(eq: &ExtendedQuery, instance: &Graph) -> Result<Self, CoreError> {
        let q = eq.query();
        let (c_rel, m_rel) = evaluate_parts(eq, instance, None)?;
        let mut records = Records::new(q.n_dims(), None);
        records.key_join(&c_rel, &m_rel)?;
        let dim_names = q.dim_names().iter().map(|s| s.to_string()).collect();
        Ok(records.into_pres(dim_names, q.agg()))
    }

    /// `pres(Q, I)` from `self = pres(Q, I ∖ Δ)` and the inserted triples
    /// `new = Δ`, without re-evaluating the untouched part of `I`.
    ///
    /// `pres` is partitioned by fact, and a fact's heads and run are found
    /// from its root by the rooted BGPs of `Q`. So only the facts some
    /// embedding of which uses a triple of `Δ` — the *touched roots*, found
    /// semi-naively — can have changed. Theirs are re-derived on `instance`
    /// (Σ as in [`Self::compute`]) and one merge of each side replaces their
    /// heads and runs whole; every tuple's key is its place in the merged
    /// table. Whatever ⊕ is, [`Self::to_cube`] of the result is `ans(Q, I)`,
    /// and the table equals [`Self::compute`]'s up to a renaming of keys.
    ///
    /// Returns the table and the number of touched roots.
    pub(crate) fn refreshed(
        &self,
        eq: &ExtendedQuery,
        instance: &Graph,
        new: &[Triple],
    ) -> Result<(Self, usize), CoreError> {
        let touched = touched_roots(eq, instance, new)?;
        let (c_rel, m_rel) = evaluate_parts(eq, instance, Some(&touched))?;
        let mut records = Records::new(self.table.n_dims, None);
        records.key_join(&c_rel, &m_rel)?;
        let fresh = records.into_pres(self.dim_names.clone(), self.agg);
        // The merge holds no more values than the two tables together.
        check_size(self.table.facts.values.len() + fresh.table.facts.values.len())?;

        // Facts by root: the untouched old ones copied in ranges between the
        // touched roots, fresh ones in their place; `*_at`: merged indices.
        let sp = obs::span("merge");
        let (old, new) = (&self.table.facts, &fresh.table.facts);
        let mut merged = Records::new(self.n_dims(), None);
        let facts = merged.facts.to_mut();
        let (mut old_at, mut new_at) = (vec![None; old.len()], vec![0; new.len()]);
        let mut carry = |facts: &mut Facts, fs: Range<usize>| {
            let ats = old_at[fs.clone()].iter_mut();
            ats.zip(facts.len()..).for_each(|(at, i)| *at = Some(i));
            facts.extend_from(old, fs);
        };
        let mut next = 0;
        for &root in &touched {
            let cut = next + old.roots[next..].partition_point(|&r| r < root);
            carry(facts, next..cut);
            next = cut + usize::from(old.roots.get(cut) == Some(&root));
            if let Ok(f) = new.roots.binary_search(&root) {
                new_at[f] = facts.len();
                facts.extend_from(new, f..f + 1);
            }
        }
        carry(facts, next..old.len());
        // Heads by `(dims, root)`: each fresh one before the first old head
        // not below it, the old ones of untouched facts renumbered.
        let (s, mut next) = (self.table.n_dims + 1, 0);
        let carry = |merged: &mut Records, hs: &[TermId]| {
            for h in hs.chunks_exact(s) {
                if let Some(at) = old_at[h[s - 1].index()] {
                    merged.push(h[..s - 1].iter().copied(), at);
                }
            }
        };
        let fact = |h: usize| self.table.heads[h * s + s - 1].index();
        let old_head = |h: usize| (self.dims_of(h), old.roots[fact(h)]);
        for (dims, root, f) in fresh.heads() {
            let cut = gallop(next, self.n_heads(), |h| old_head(h) < (dims, root));
            carry(&mut merged, &self.table.heads[next * s..cut * s]);
            merged.push(dims.iter().copied(), new_at[f]);
            next = cut;
        }
        carry(&mut merged, &self.table.heads[next * s..]);
        let pres = merged.finish(self.dim_names.clone(), self.agg);
        sp.rows((self.len() + fresh.len()) as u64, pres.len() as u64);
        Ok((pres, touched.len()))
    }

    /// The dimension names, in classifier-head order.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// The same table under different dimension names (see
    /// [`crate::Cube::with_dim_names`]).
    ///
    /// # Panics
    ///
    /// If `dim_names` does not name as many dimensions as the table has.
    pub fn with_dim_names(mut self, dim_names: Vec<String>) -> Self {
        assert_eq!(dim_names.len(), self.table.n_dims);
        self.dim_names = dim_names;
        self
    }

    /// The same table labelled with another ⊕: the rows of `pres(Q)` do
    /// not depend on it, only the γ of [`Self::to_cube`] does. The result
    /// shares the table with every clone of `self`.
    pub(crate) fn with_agg(mut self, agg: AggFunc) -> Self {
        self.agg = agg;
        self
    }

    /// True if `self` and `other` hold one table, not two equal ones.
    pub(crate) fn shares_table(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.table.n_dims
    }

    /// The aggregation function of the query this pres belongs to.
    pub fn agg(&self) -> AggFunc {
        self.agg
    }

    /// Number of rows: each head counts its fact's measure tuples.
    pub fn len(&self) -> usize {
        self.table.rows
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.heads.is_empty()
    }

    /// Number of cell heads: one per fact and cell it sits in.
    pub fn n_heads(&self) -> usize {
        self.table.heads.len() / (self.table.n_dims + 1)
    }

    /// Number of facts, each stored once with its measure tuples.
    pub fn n_facts(&self) -> usize {
        self.table.facts.len()
    }

    fn dims_of(&self, h: usize) -> &[TermId] {
        &self.table.heads[h * (self.table.n_dims + 1)..][..self.table.n_dims]
    }

    /// The heads as `(dims, root, fact)`, in `(dims, root)` order.
    pub(crate) fn heads(&self) -> impl Iterator<Item = (&[TermId], TermId, usize)> + '_ {
        let (t, n) = (&*self.table, self.table.n_dims);
        let fact = move |h: &[TermId]| h[n].index();
        let heads = t.heads.chunks_exact(n + 1);
        heads.map(move |h| (&h[..n], t.facts.roots[fact(h)], fact(h)))
    }

    /// Iterates all rows, in `(dims, root, key)` order.
    pub fn rows(&self) -> impl Iterator<Item = PresRow<'_>> {
        let facts = &self.table.facts;
        self.heads().flat_map(move |(dims, root, f)| {
            let row = move |(key, &value)| PresRow {
                root,
                dims,
                key,
                value,
            };
            let keys = facts.start(f) as u32 + 1..=facts.start(f + 1) as u32;
            keys.zip(facts.run(f)).map(row)
        })
    }

    /// Approximate memory footprint in bytes (reported by the benchmarks
    /// comparing pres size against instance size).
    pub fn approx_bytes(&self) -> usize {
        let (heads, facts) = (&self.table.heads, &self.table.facts);
        let ids = heads.len() + facts.roots.len() + facts.ends.len() + facts.values.len();
        ids * std::mem::size_of::<u32>()
    }

    /// The Σ-selection of the table: the heads of the cells `sigma` admits,
    /// with the facts they reference; sorted because `self` is.
    pub(crate) fn select_cells(&self, sigma: &CompiledSigma, dict: &Dictionary) -> Self {
        let (s, mut kept) = (self.n_dims() + 1, Records::new(self.n_dims(), Some(self)));
        select_rows(&self.table.heads, s, self.n_heads(), sigma, dict, |hs| {
            kept.heads
                .extend_from_slice(&self.table.heads[hs.start * s..hs.end * s]);
        });
        kept.finish(self.dim_names.clone(), self.agg)
    }

    /// Equation 3: recovers `ans(Q)` from the partial result by grouping on
    /// the dimension columns (the projection keeps duplicates — bag
    /// semantics — so repeated measure values aggregate correctly).
    ///
    /// A scan with no sort: the invariant clusters each cell's heads, one
    /// [`Fold`](rdfcube_engine::aggfn::Fold) takes the runs they point at
    /// straight from the fact table, and cells emerge in canonical key order.
    pub fn to_cube(&self, dict: &Dictionary) -> Result<Cube, CoreError> {
        let sp = obs::span("group_aggregate");
        let (heads, facts) = (&self.table.heads[..], &self.table.facts);
        let (n, rows, mut start) = (self.n_dims(), self.n_heads(), 0);
        let (mut keys, mut values, mut fold) = (vec![], vec![], self.agg.fold(dict));
        while start < rows {
            let end = block_end(heads, n + 1, rows, start, n);
            let cell = heads[start * (n + 1)..end * (n + 1)].chunks_exact(n + 1);
            values.push(fold.cell(cell.map(|h| facts.run(h[n].index())))?);
            keys.extend_from_slice(&heads[start * (n + 1)..][..n]);
            start = end;
        }
        sp.rows(self.len() as u64, values.len() as u64);
        let cube = Cube::from_columns(self.dim_names.clone(), self.agg, keys, values);
        Ok(cube)
    }
}

/// The end of the block of rows of the sorted key column `column` (`rows`
/// rows of `s` ids) that share row `start`'s first `shared` ids. The sort
/// order makes the block a contiguous prefix of `start..`, so it is found by
/// galloping: a block of `b` rows costs `O(log b)` probes, however many
/// cells it spans.
fn block_end(column: &[TermId], s: usize, rows: usize, start: usize, shared: usize) -> usize {
    let prefix = |r: usize| &column[r * s..][..shared];
    gallop(start + 1, rows, |r| prefix(r) == prefix(start))
}

/// Σ's selection over a sorted key column (`rows` rows of `s` ids, each
/// starting with a dimension vector): `pres`'s heads, the fact last, or a
/// cube's keys. `keep` gets each block of rows whose cell `sigma` admits, in
/// order. Σ is tested once per cell, and a value it refuses skips every
/// cell that shares the refused prefix.
pub(crate) fn select_rows(
    column: &[TermId],
    s: usize,
    rows: usize,
    sigma: &CompiledSigma,
    dict: &Dictionary,
    mut keep: impl FnMut(Range<usize>),
) {
    let (n, mut start) = (sigma.n_dims(), 0);
    while start < rows {
        let refused = sigma.refused_at(&column[start * s..][..n], dict);
        let end = block_end(column, s, rows, start, refused.map_or(n, |d| d + 1));
        if refused.is_none() {
            keep(start..end);
        }
        start = end;
    }
}

/// The first index of `from..len` at which `holds`, true on a prefix of
/// the range and false after it, fails (or `len`): `O(log d)` probes away.
pub(crate) fn gallop(from: usize, len: usize, holds: impl Fn(usize) -> bool) -> usize {
    let (mut at, mut step) = (from, 1);
    while step > 0 {
        if at + step <= len && holds(at + step - 1) {
            (at, step) = (at + step, step * 2);
        } else {
            step /= 2;
        }
    }
    at
}

/// Numbers the distinct values of `column` in order of first sight: each
/// value's number, and the numbers by ascending value. Only the distinct
/// values are sorted.
fn distinct<'a>(column: impl Iterator<Item = &'a TermId>) -> (Vec<u32>, Vec<u32>) {
    let mut seen = FxHashMap::default();
    let number = |&v: &TermId| {
        let next = seen.len() as u32;
        *seen.entry(v).or_insert(next)
    };
    let ids = column.map(number).collect();
    let mut values: Vec<(TermId, u32)> = seen.into_iter().collect();
    values.sort_unstable();
    (ids, values.into_iter().map(|(_, id)| id).collect())
}

/// One stable counting pass: reorders the head indices `order` by `keys`
/// (one per head), laying the keys' buckets out in the order `buckets`.
fn counting_pass(order: &mut Vec<u32>, keys: &[u32], buckets: &[u32]) {
    let mut at = vec![0u32; buckets.len()];
    keys.iter().for_each(|&k| at[k as usize] += 1);
    // Each bucket's count becomes its start: sums in bucket order.
    let start = |sum, &b: &u32| sum + std::mem::replace(&mut at[b as usize], sum);
    buckets.iter().fold(0, start);
    let mut sorted = vec![0; order.len()];
    for &i in order.iter() {
        let at = &mut at[keys[i as usize] as usize];
        (sorted[*at as usize], *at) = (i, *at + 1);
    }
    *order = sorted;
}

/// The two halves of `pres(Q, I)`: the Σ-filtered classifier relation, over
/// all of `instance` or — given `roots` — for those facts only, and the
/// measure relation of the facts it admits — the measure's root seeded to
/// the classifier's roots (see the [module docs](self) for the guard and
/// the elided patterns). Both are bags: a classifier row repeats once per
/// embedding, and the kernel's δ, not the evaluator's, drops the repeats.
/// That assumes a root reaches a cell along few embeddings: a classifier
/// whose rows mostly repeat would hand the kernel many times its distinct
/// heads (see "Bag classifier" in the module docs).
fn evaluate_parts(
    eq: &ExtendedQuery,
    instance: &Graph,
    roots: Option<&[TermId]>,
) -> Result<(Relation, Relation), CoreError> {
    let (c, m) = (eq.query().classifier(), eq.query().measure());
    let seed = |bgp: &Bgp, roots: &[TermId]| {
        let mut seed = Seed::new(vec![bgp.head()[0]]);
        roots.iter().for_each(|&root| seed.push(&[root]));
        seed
    };
    let sp = obs::span("classifier");
    let c_seed = roots.map_or_else(Seed::unit, |roots| seed(c, roots));
    let c_rel = eq.classifier_relation_from(instance, &c_seed, Semantics::Bag)?;
    let rows_in = roots.map_or(instance.len(), <[TermId]>::len);
    sp.rows(rows_in as u64, c_rel.len() as u64);
    drop(sp);

    let sp = obs::span("measure");
    let mut admitted: Vec<TermId> = c_rel.rows().map(|row| row[0]).collect();
    admitted.sort_unstable();
    admitted.dedup();
    let seeded = pattern_counts(m, instance).min().unwrap_or(0) >= admitted.len();
    let mut measure = m.clone();
    let m_seed = if seeded {
        // `?root p o` (`p`, `o` constants), stated by the classifier on its
        // root: every admitted root matches it once. The root's last stays.
        let (m_root, c_root) = (m.head()[0], PatternTerm::Var(c.head()[0]));
        let stated = |p: &QueryPattern| {
            let on_c_root = QueryPattern { s: c_root, ..*p };
            p.s.as_var() == Some(m_root) && p.vars().count() == 1 && c.body().contains(&on_c_root)
        };
        let mut on_root = m.body().iter().filter(|p| p.mentions(m_root)).count();
        measure.retain_body(|_, p| {
            let elide = on_root > 1 && stated(p);
            on_root -= usize::from(elide);
            !elide
        });
        seed(m, &admitted)
    } else {
        Seed::unit()
    };
    let m_rel = evaluate_seeded(instance, &measure, &m_seed, &[], Semantics::Bag)?;
    if sp.active() {
        let seeded_roots = if seeded { admitted.len() } else { 0 };
        let rows_in = if seeded { seeded_roots } else { instance.len() };
        sp.rows(rows_in as u64, m_rel.len() as u64);
        sp.attr("seeded_roots", seeded_roots as u64);
        let elided = m.body().len() - measure.body().len();
        sp.attr("elided_patterns", elided as u64);
    }
    Ok((c_rel, m_rel))
}

/// The facts whose classifier or measure embeddings can use a triple of
/// `new`, ascending: each pattern of each BGP in turn is bound to its
/// matches among `new` and the rest of the BGP is joined on `instance`
/// (which already holds `new`). Σ plays no part — a superset of the facts
/// whose rows changed is as good as the set.
fn touched_roots(
    eq: &ExtendedQuery,
    instance: &Graph,
    new: &[Triple],
) -> Result<Vec<TermId>, CoreError> {
    let sp = obs::span("touched_roots");
    let mut roots = Vec::new();
    for bgp in [eq.query().classifier(), eq.query().measure()] {
        let mut rooted = bgp.clone();
        rooted.set_head(vec![bgp.head()[0]]);
        for pattern in 0..rooted.body().len() {
            let seed = Seed::of_pattern(&rooted, pattern, new);
            if !seed.is_empty() {
                let found = evaluate_seeded(instance, &rooted, &seed, &[], Semantics::Set)?;
                roots.extend(found.rows().map(|row| row[0]));
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    sp.rows(new.len() as u64, roots.len() as u64);
    Ok(roots)
}

/// What each key of `pres` stands for: a measure tuple `(root, value)` and
/// the cells it contributes to. Two tables are equal up to a bijective
/// renaming of keys exactly when these multisets are equal.
#[cfg(test)]
pub(crate) fn key_classes(pres: &PartialResult) -> Vec<(TermId, TermId, Vec<Vec<TermId>>)> {
    let mut by_key = std::collections::BTreeMap::<u32, (_, _, Vec<_>)>::new();
    for row in pres.rows() {
        let class = by_key
            .entry(row.key)
            .or_insert_with(|| (row.root, row.value, Vec::new()));
        assert_eq!((class.0, class.1), (row.root, row.value), "one tuple a key");
        class.2.push(row.dims.to_vec());
    }
    let mut classes: Vec<_> = by_key.into_values().collect();
    classes.sort();
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anq::AnalyticalQuery;
    use crate::answer::answer;
    use rdfcube_engine::AggValue;
    use rdfcube_rdf::{parse_turtle, Term};

    /// `compute` under a trace, with its `measure` span's rows out and its
    /// `seeded_roots` and `elided_patterns` attributes.
    fn traced_compute(eq: &ExtendedQuery, g: &Graph) -> (PartialResult, [u64; 3]) {
        assert!(obs::trace_begin("compute"));
        let pres = PartialResult::compute(eq, g).unwrap();
        let trace = obs::trace_end().unwrap();
        let m = trace.find("measure").unwrap();
        let attr = |name| m.attr(name).unwrap();
        (
            pres,
            [m.rows_out, attr("seeded_roots"), attr("elided_patterns")],
        )
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn with_dim_names_rejects_another_width() {
        let (g, eq) = example_2_setup();
        let pres = PartialResult::compute(&eq, &g).unwrap();
        pres.with_dim_names(vec!["only_one".into()]);
    }

    #[test]
    fn restricted_compute_enumerates_the_admitted_facts_only() {
        use crate::extended::{Sigma, ValueSelector};
        let (g, eq) = example_2_setup();
        let whole = PartialResult::compute(&eq, &g).unwrap();
        let mut sigma = Sigma::all(2);
        sigma.set(1, ValueSelector::one(Term::literal("NY")));
        let ny = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();
        // user3 and user4 wrote one post each; user1's three are never
        // enumerated, and neither is the classifier's `rdf:type Blogger`.
        let (pres, measure) = traced_compute(&ny, &g);
        assert_eq!(measure, [2, 2, 1]);
        let diced = crate::rewrite::dice_pres(&whole, ny.sigma(), g.dict());
        assert_eq!(key_classes(&pres), key_classes(&diced));
        // Keys are places: the two tables hold the same facts and runs.
        assert_eq!(pres, diced);
    }

    #[test]
    fn a_measure_rarer_than_the_roots_stays_unseeded() {
        let (mut g, eq) = example_2_setup();
        // `?p postedOn s1` matches two triples, against three roots.
        let classifier = eq.query().classifier().to_text(g.dict());
        let measure = "m(?x, ?p) :- ?x wrotePost ?p, ?p postedOn s1";
        let q = AnalyticalQuery::parse(&classifier, measure, AggFunc::Count, g.dict_mut());
        let eq = ExtendedQuery::from_query(q.unwrap());
        let (pres, measure) = traced_compute(&eq, &g);
        assert_eq!(measure, [2, 0, 0]);
        // The table of the unseeded evaluation, keys and all.
        let c_rel = eq.classifier_relation(&g).unwrap();
        let m_rel = rdfcube_engine::evaluate(&g, eq.query().measure(), Semantics::Bag).unwrap();
        let mut records = Records::new(2, None);
        records.key_join(&c_rel, &m_rel).unwrap();
        let unseeded = records.into_pres(pres.dim_names().to_vec(), AggFunc::Count);
        assert_eq!(pres, unseeded);
    }

    #[test]
    fn elided_root_patterns_keep_the_relational_oracles_cells() {
        // z is no `C`, so only x and y are admitted; x writes 7 twice.
        let mut g = parse_turtle(
            "<x> rdf:type <C> ; <kind> <K> ; <vip> <V> ; <dim> <a>, <b> ; <wrote> <p1>, <p2> .
             <y> rdf:type <C> ; <kind> <K> ; <dim> <b> ; <wrote> <p3> .
             <z> <kind> <K> ; <vip> <V> ; <dim> <a> ; <wrote> <p4> .
             <p1> <val> 7 . <p2> <val> 7 . <p3> <val> 9 . <p4> <val> 5 .",
        )
        .unwrap();
        let classifier = "c(?x, ?d) :- ?x rdf:type C, ?x kind K, ?x dim ?d";
        // (measure, patterns elided): the root's last pattern always stays.
        for (measure, elided) in [
            ("m(?x, ?v) :- ?x rdf:type C, ?x wrote ?p, ?p val ?v", 1),
            (
                "m(?x, ?v) :- ?x kind K, ?x rdf:type C, ?x wrote ?p, ?p val ?v",
                2,
            ),
            // The classifier does not state `?x vip V`: y has no measure.
            (
                "m(?x, ?v) :- ?x rdf:type C, ?x vip V, ?x wrote ?p, ?p val ?v",
                1,
            ),
            ("m(?x, ?x) :- ?x rdf:type C, ?x kind K", 1),
        ] {
            for agg in [AggFunc::Count, AggFunc::CountDistinct] {
                let q = AnalyticalQuery::parse(classifier, measure, agg, g.dict_mut());
                let eq = ExtendedQuery::from_query(q.unwrap());
                let (pres, [_, seeded, got]) = traced_compute(&eq, &g);
                assert_eq!([seeded, got], [2, elided], "{measure}");
                let cube = pres.to_cube(g.dict()).unwrap();
                assert!(cube.same_cells(&eq.answer(&g).unwrap()), "{measure}");
            }
        }
    }

    fn example_2_setup() -> (Graph, ExtendedQuery) {
        let mut g = parse_turtle(
            "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user4> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user1> <wrotePost> <p1>, <p2>, <p3> .
             <p1> <postedOn> <s1> . <p2> <postedOn> <s1> . <p3> <postedOn> <s2> .
             <user3> <wrotePost> <p4> . <p4> <postedOn> <s2> .
             <user4> <wrotePost> <p5> . <p5> <postedOn> <s3> .",
        )
        .unwrap();
        let q = AnalyticalQuery::parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
            AggFunc::Count,
            g.dict_mut(),
        )
        .unwrap();
        (g, ExtendedQuery::from_query(q))
    }

    #[test]
    fn pres_has_one_row_per_classifier_measure_pair() {
        let (g, eq) = example_2_setup();
        let pres = PartialResult::compute(&eq, &g).unwrap();
        // user1: 1 classifier row × 3 measures; user3: ×1; user4: ×1.
        assert_eq!(pres.len(), 5);
        assert_eq!(pres.n_dims(), 2);
        assert_eq!(pres.dim_names(), &["dage".to_string(), "dcity".to_string()]);
    }

    #[test]
    fn keys_distinguish_identical_measure_values() {
        // user1's bag {|s1, s1, s2|}: the two s1 tuples carry distinct keys.
        let (g, eq) = example_2_setup();
        let pres = PartialResult::compute(&eq, &g).unwrap();
        let user1 = g.dict().iri_id("user1").unwrap();
        let s1 = g.dict().iri_id("s1").unwrap();
        let s1_keys: Vec<u32> = pres
            .rows()
            .filter(|r| r.root == user1 && r.value == s1)
            .map(|r| r.key)
            .collect();
        assert_eq!(s1_keys.len(), 2);
        assert_ne!(s1_keys[0], s1_keys[1]);
    }

    #[test]
    fn equation_3_recovers_the_answer() {
        let (g, eq) = example_2_setup();
        let pres = PartialResult::compute(&eq, &g).unwrap();
        let from_pres = pres.to_cube(g.dict()).unwrap();
        let direct = answer(eq.query(), &g).unwrap();
        assert!(from_pres.same_cells(&direct));
    }

    #[test]
    fn multivalued_dimension_repeats_rows_with_same_key() {
        // Example 5's shape: a fact multi-valued along one dimension keeps
        // the same key on both rows.
        let mut g = parse_turtle(
            "<x> rdf:type <C> ; <dim> <a>, <b> ; <val> 7 .
             <y> rdf:type <C> ; <dim> <b> ; <val> 9 .",
        )
        .unwrap();
        let q = AnalyticalQuery::parse(
            "c(?x, ?d) :- ?x rdf:type C, ?x dim ?d",
            "m(?x, ?v) :- ?x val ?v",
            AggFunc::Sum,
            g.dict_mut(),
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(q);
        let pres = PartialResult::compute(&eq, &g).unwrap();
        assert_eq!(pres.len(), 3);
        let x = g.dict().iri_id("x").unwrap();
        let x_keys: Vec<u32> = pres.rows().filter(|r| r.root == x).map(|r| r.key).collect();
        assert_eq!(x_keys.len(), 2);
        assert_eq!(x_keys[0], x_keys[1], "same measure tuple ⇒ same key");
        // Stored once: x heads two cells, and both point at its one tuple.
        assert_eq!((pres.n_heads(), pres.n_facts()), (3, 2));
        assert_eq!(pres.table.facts.values.len(), 2);
        // Equation 3 still sums x's value once per cell.
        let cube = pres.to_cube(g.dict()).unwrap();
        let a = g.dict().iri_id("a").unwrap();
        let b = g.dict().iri_id("b").unwrap();
        assert_eq!(cube.get(&[a]), Some(&AggValue::Int(7)));
        assert_eq!(cube.get(&[b]), Some(&AggValue::Int(16)));
    }

    #[test]
    fn sigma_filters_pres_rows() {
        use crate::extended::{Sigma, ValueSelector};
        let (mut g, eq) = example_2_setup();
        let mut sigma = Sigma::all(2);
        sigma.set(1, ValueSelector::one(Term::literal("NY")));
        let _ = &mut g;
        let restricted = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();
        let pres = PartialResult::compute(&restricted, &g).unwrap();
        assert_eq!(pres.len(), 2); // only user3 and user4 rows survive
    }

    #[test]
    fn facts_without_measures_are_absent() {
        let mut g = parse_turtle(
            "<x> rdf:type <C> ; <dim> <a> .
             <y> rdf:type <C> ; <dim> <a> ; <val> 1 .",
        )
        .unwrap();
        let q = AnalyticalQuery::parse(
            "c(?x, ?d) :- ?x rdf:type C, ?x dim ?d",
            "m(?x, ?v) :- ?x val ?v",
            AggFunc::Count,
            g.dict_mut(),
        )
        .unwrap();
        let pres = PartialResult::compute(&ExtendedQuery::from_query(q), &g).unwrap();
        let x = g.dict().iri_id("x").unwrap();
        assert!(pres.rows().all(|r| r.root != x));
    }

    /// A refresh replaces a touched fact's heads and run whole: the table
    /// holds what recomputation holds, up to keys, and no more bytes.
    #[test]
    fn refreshed_tables_hold_what_recomputation_holds() {
        let (mut g, eq) = example_2_setup();
        let old = PartialResult::compute(&eq, &g).unwrap();
        let watermark = g.len();
        // A new fact, a second city for one old fact, a post for another.
        for (s, p, o) in [
            ("user5", rdfcube_rdf::vocab::RDF_TYPE, Term::iri("Blogger")),
            ("user5", "hasAge", Term::integer(35)),
            ("user5", "livesIn", Term::literal("NY")),
            ("user5", "wrotePost", Term::iri("p6")),
            ("p6", "postedOn", Term::iri("s1")),
            ("user3", "livesIn", Term::literal("Madrid")),
            ("user4", "wrotePost", Term::iri("p7")),
            ("p7", "postedOn", Term::iri("s2")),
        ] {
            g.insert(&Term::iri(s), &Term::iri(p), &o);
        }
        let new = g.inserted_since(watermark).unwrap().to_vec();
        let (fresh, touched) = old.refreshed(&eq, &g, &new).unwrap();
        assert_eq!(touched, 3);
        let recomputed = PartialResult::compute(&eq, &g).unwrap();
        assert_eq!(key_classes(&fresh), key_classes(&recomputed));
        assert_eq!(fresh.approx_bytes(), recomputed.approx_bytes());
    }

    /// `ends` are `u32`: a table of `u32::MAX` values is the largest.
    #[test]
    fn a_table_holds_at_most_u32_max_values() {
        assert!(check_size(u32::MAX as usize).is_ok());
        let too_many = check_size(u32::MAX as usize + 1);
        assert!(matches!(too_many, Err(CoreError::InvalidOperation(_))));
    }

    #[test]
    fn approx_bytes_grows_with_rows() {
        let (g, eq) = example_2_setup();
        let pres = PartialResult::compute(&eq, &g).unwrap();
        assert!(pres.approx_bytes() >= pres.len() * 16);
    }

    /// The kernel at several widths: heads pushed out of order, one of
    /// them twice, come out strictly ascending on `(dims, root, key)`,
    /// every row once, each keyed by its place in the fact table.
    #[test]
    fn kernel_sorts_and_deduplicates_at_every_width() {
        for n_dims in [0usize, 1, 3, 4, 6] {
            let names: Vec<String> = (0..n_dims).map(|d| format!("d{d}")).collect();
            let dims = |first: u32| (0..n_dims as u32).map(move |d| TermId(first + d));
            let mut records = Records::new(n_dims, None);
            let facts = records.facts.to_mut();
            facts.push(TermId(1), [TermId(80)]);
            facts.push(TermId(2), [TermId(60), TermId(70)]);
            facts.push(TermId(3), [TermId(90)]);
            facts.push(TermId(4), [TermId(10), TermId(20), TermId(30)]);
            records.push(dims(9), 1);
            records.push(dims(9), 0);
            records.push(dims(5), 2);
            records.push(dims(9), 1);
            records.push(dims(9), 3);
            assert_eq!(records.len(), 9);
            let pres = records.into_pres(names.clone(), AggFunc::Count);
            let got: Vec<(Vec<TermId>, u32, u32, u32)> = pres
                .rows()
                .map(|r| (r.dims.to_vec(), r.root.0, r.key, r.value.0))
                .collect();
            let d = |first: u32| dims(first).collect::<Vec<_>>();
            let mut want = vec![
                (d(5), 3, 4, 90),
                (d(9), 1, 1, 80),
                (d(9), 2, 2, 60),
                (d(9), 2, 3, 70),
                (d(9), 4, 5, 10),
                (d(9), 4, 6, 20),
                (d(9), 4, 7, 30),
            ];
            want.sort();
            assert_eq!(got, want, "{n_dims} dims");

            // Arrival order is not part of a table's identity, and the
            // table's own heads rebuild it.
            let mut again = Records::new(n_dims, Some(&pres));
            let heads: Vec<_> = pres
                .heads()
                .map(|(dims, _, f)| (dims.to_vec(), f))
                .collect();
            for (dims, f) in heads.into_iter().rev() {
                again.push(dims, f);
            }
            assert_eq!(again.into_pres(names, AggFunc::Count), pres);
        }
    }

    /// The kernel against a `BTreeSet` of its heads, on random heads: up to
    /// five dimensions, dimension values that repeat (so every counting pass
    /// has ties to keep in order), and the
    /// facts are pushed in fact order or out of it, over a fact table of the
    /// buffer's own and over one borrowed from a table. An unstable pass, or
    /// a fact pass skipped on out-of-order heads, breaks the sort.
    #[test]
    fn kernel_equals_a_sorted_set_of_random_heads() {
        use std::collections::BTreeSet;
        // A splitmix64 stream, shared by the closures below.
        let state = std::cell::Cell::new(0x243F_6A88_85A3_08D3_u64);
        let below = |bound: u32| {
            state.set(state.get().wrapping_add(0x9E37_79B9_7F4A_7C15));
            let z = (state.get() ^ (state.get() >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z ^ (z >> 29)) % u64::from(bound)) as u32
        };
        // Rows `(dims, root, key, value)` of the distinct heads, in order:
        // keys count the values of the referenced facts, in fact order.
        let reference = |heads: &[(Vec<TermId>, usize)], facts: &Facts| {
            let set: BTreeSet<_> = heads.iter().map(|(d, f)| (d.clone(), *f)).collect();
            let referenced: BTreeSet<usize> = set.iter().map(|&(_, f)| f).collect();
            let (mut first_key, mut next) = (vec![0u32; facts.len()], 1);
            for f in referenced {
                first_key[f] = next;
                next += facts.run(f).len() as u32;
            }
            let rows = set.into_iter().flat_map(|(dims, f)| {
                let row = move |(k, v): (u32, &TermId)| (dims.clone(), facts.roots[f], k, v.0);
                (first_key[f]..)
                    .zip(facts.run(f))
                    .map(row)
                    .collect::<Vec<_>>()
            });
            rows.collect::<Vec<_>>()
        };
        let rows = |pres: &PartialResult| -> Vec<_> {
            let row = |r: PresRow| (r.dims.to_vec(), r.root, r.key, r.value.0);
            pres.rows().map(row).collect()
        };
        for n_dims in [0usize, 1, 2, 3, 5] {
            let names: Vec<String> = (0..n_dims).map(|d| format!("d{d}")).collect();
            for case in 0..200 {
                let random_heads = |n_facts: u32| {
                    let mut heads: Vec<(Vec<TermId>, usize)> = (0..below(40))
                        .map(|_| {
                            // Large, spread ids: a value's rank is not its id.
                            let dims = (0..n_dims).map(|_| TermId(below(4) * 7_919 + 3));
                            (dims.collect(), below(n_facts) as usize)
                        })
                        .collect();
                    if case % 3 == 0 {
                        heads.sort_by_key(|&(_, f)| f);
                    }
                    heads
                };
                let mut records = Records::new(n_dims, None);
                let n_facts = 1 + below(12);
                let mut root = 0;
                for _ in 0..n_facts {
                    root += 1 + below(50);
                    let run: Vec<TermId> = (0..1 + below(3)).map(|_| TermId(below(5))).collect();
                    records.facts.to_mut().push(TermId(root), run);
                }
                let heads = random_heads(n_facts);
                let want = reference(&heads, &records.facts);
                heads
                    .iter()
                    .for_each(|(d, f)| records.push(d.iter().copied(), *f));
                let pres = records.into_pres(names.clone(), AggFunc::Count);
                assert_eq!(rows(&pres), want, "{n_dims} dims, case {case}, own facts");
                if pres.n_facts() == 0 {
                    continue;
                }

                let mut borrowed = Records::new(n_dims, Some(&pres));
                let heads = random_heads(pres.n_facts() as u32);
                let want = reference(&heads, &pres.table.facts);
                heads
                    .iter()
                    .for_each(|(d, f)| borrowed.push(d.iter().copied(), *f));
                let derived = borrowed.into_pres(names.clone(), AggFunc::Count);
                assert_eq!(rows(&derived), want, "{n_dims} dims, case {case}, borrowed");
            }
        }
    }

    /// Q3's shape with one blogger reaching the same site through two posts:
    /// the classifier is evaluated as a bag, so its row repeats, and the
    /// kernel's δ keeps one head per (cell, root).
    #[test]
    fn the_kernel_drops_the_bag_classifiers_repeated_rows() {
        let turtle = "<u1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" ;
                          <wrotePost> <p1>, <p2> .
             <p1> <postedOn> <s1> ; <words> 10 . <p2> <postedOn> <s1> ; <words> 20 .
             <u2> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" ; <wrotePost> <p3> .
             <p3> <postedOn> <s2> ; <words> 5 .";
        let mut g = parse_turtle(turtle).unwrap();
        let classifier = "c(?x, ?dage, ?dcity, ?dsite) :- ?x rdf:type Blogger, \
             ?x hasAge ?dage, ?x livesIn ?dcity, ?x wrotePost ?p, ?p postedOn ?dsite";
        let sites = "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite";
        let words = "m(?x, ?w) :- ?x wrotePost ?p, ?p words ?w";
        for (measure, agg) in [
            (sites, AggFunc::Count),
            (words, AggFunc::Sum),
            (sites, AggFunc::CountDistinct),
        ] {
            let q = AnalyticalQuery::parse(classifier, measure, agg, g.dict_mut()).unwrap();
            let eq = ExtendedQuery::from_query(q);
            assert!(obs::trace_begin("compute"));
            let pres = PartialResult::compute(&eq, &g).unwrap();
            let trace = obs::trace_end().unwrap();
            // u1's (28, Madrid, s1) row twice, u2's once; one head each.
            assert_eq!(trace.find("classifier").unwrap().rows_out, 3);
            assert_eq!(pres.n_heads(), 2);
            let cube = pres.to_cube(g.dict()).unwrap();
            assert!(cube.same_cells(&eq.answer(&g).unwrap()), "{agg}");

            // A third post of u1's on the same site.
            let mut g2 = g.clone();
            let watermark = g2.len();
            for (s, p, o) in [
                ("u1", "wrotePost", Term::iri("p4")),
                ("p4", "postedOn", Term::iri("s1")),
                ("p4", "words", Term::integer(7)),
            ] {
                g2.insert(&Term::iri(s), &Term::iri(p), &o);
            }
            let new = g2.inserted_since(watermark).unwrap().to_vec();
            let (fresh, _) = pres.refreshed(&eq, &g2, &new).unwrap();
            let recomputed = PartialResult::compute(&eq, &g2).unwrap();
            assert_eq!(key_classes(&fresh), key_classes(&recomputed), "{agg}");
            assert_eq!(fresh.n_heads(), 2);
        }
    }

    /// γ folding each cell over its facts' runs gives, cell for cell,
    /// exactly what `AggFunc::apply` gives each cell's bag alone: cells share
    /// values, one bag mixes ints and floats (sum falls back to floats),
    /// one overflows `i64`, and one holds text (min and max order it).
    #[test]
    fn folded_gamma_equals_apply_on_every_cell() {
        let mut dict = Dictionary::new();
        let terms = [
            Term::integer(1),
            Term::integer(2),
            Term::double(2.5),
            Term::integer(i64::MAX),
            Term::literal("Madrid"),
            Term::literal("Kyoto"),
            Term::double(0.1),
        ];
        let ids: Vec<u32> = terms.iter().map(|t| dict.encode(t).0).collect();
        // Each fact's values, by index into `ids`.
        let numeric: &[&[usize]] = &[&[0, 2], &[3, 3], &[0, 1], &[1, 6, 6]];
        let textual: &[&[usize]] = &[&[4, 0], &[5, 4], &[0, 1]];
        // (cell, fact) heads: cells share facts, and facts share values.
        // Over `numeric`, cells 1, 3 and 4 mix ints and floats, cell 2's
        // ints overflow and cell 5's do not.
        let heads = [
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 2),
            (3, 2),
            (3, 3),
            (4, 3),
            (4, 0),
            (5, 2),
        ];
        for runs in [numeric, textual] {
            let mut records = Records::new(1, None);
            for (f, run) in runs.iter().enumerate() {
                let values = run.iter().map(|&v| TermId(ids[v]));
                records.facts.to_mut().push(TermId(f as u32 + 1), values);
            }
            for &(cell, f) in heads.iter().filter(|&&(_, f)| f < runs.len()) {
                records.push([TermId(cell)], f);
            }
            let pres = records.into_pres(vec!["d".into()], AggFunc::Count);
            let mut bags = std::collections::BTreeMap::<TermId, Vec<TermId>>::new();
            pres.rows()
                .for_each(|r| bags.entry(r.dims[0]).or_default().push(r.value));
            for agg in [
                AggFunc::Count,
                AggFunc::CountDistinct,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ] {
                let table = PartialResult {
                    agg,
                    ..pres.clone()
                };
                let each: Result<Vec<_>, rdfcube_engine::EngineError> = bags
                    .iter()
                    .map(|(&cell, bag)| Ok((vec![cell], agg.apply(bag, &dict)?)))
                    .collect();
                match (table.to_cube(&dict), each) {
                    (Ok(cube), Ok(each)) => {
                        let each = Cube::from_cells(vec!["d".into()], agg, each);
                        assert_eq!(cube.cells(), each.cells(), "{agg}");
                        if agg == AggFunc::Sum {
                            let sum = |cell| cube.get(&[TermId(cell)]).copied();
                            assert!(matches!(sum(2), Some(AggValue::Float(_))), "overflow");
                            assert_eq!(sum(5), Some(AggValue::Int(3)));
                        }
                    }
                    (Err(_), Err(_)) => {
                        assert!(runs == textual && matches!(agg, AggFunc::Sum | AggFunc::Avg))
                    }
                    (got, want) => panic!("{agg}: {got:?} against {want:?}"),
                }
            }
        }
    }

    /// The merge's fallback: a side that arrives out of root order (a
    /// pending delta's run after the CSR's) is sorted once, and the table is
    /// every classifier × measure pair on one root, each fact's values kept
    /// in measure enumeration order and keyed by their place.
    #[test]
    fn key_join_sorts_the_sides_that_arrive_out_of_root_order() {
        // `c(x, d)` and `m(x, v)`: root 2 sits in two cells, root 3 has no
        // measure and root 5 no classifier row.
        let c_rows = [[4, 40], [2, 20], [1, 10], [2, 21], [3, 30]];
        let m_rows = [[2, 200], [4, 400], [1, 100], [2, 201], [5, 500]];
        let join = |c_rows: &[[u32; 2]], m_rows: &[[u32; 2]]| {
            let rel = |rows: &[[u32; 2]]| {
                let mut rel =
                    Relation::new(vec![rdfcube_engine::VarId(0), rdfcube_engine::VarId(1)]);
                rows.iter().for_each(|row| rel.push_row(&row.map(TermId)));
                rel
            };
            let mut records = Records::new(1, None);
            assert!(obs::trace_begin("join"));
            records.key_join(&rel(c_rows), &rel(m_rows)).unwrap();
            let trace = obs::trace_end().unwrap();
            let sorted = trace
                .find("key_join")
                .and_then(|join| join.attr("sorted_sides"));
            let pres = records.into_pres(vec!["d".into()], AggFunc::Count);
            (pres, sorted.unwrap())
        };
        let (pres, sorted) = join(&c_rows, &m_rows);
        assert_eq!(sorted, 2);
        let mut in_order = c_rows;
        in_order.sort_by_key(|row| row[0]);
        assert_eq!(join(&in_order, &m_rows), (pres.clone(), 1));
        // The stored values: those of a root with a classifier row, by root
        // and then in enumeration order (a stable sort).
        let mut stored: Vec<_> = m_rows
            .into_iter()
            .filter(|m| c_rows.iter().any(|c| c[0] == m[0]))
            .collect();
        stored.sort_by_key(|m| m[0]);
        let mut want = Vec::new();
        for c in c_rows {
            for (key, m) in (1..).zip(&stored).filter(|(_, m)| m[0] == c[0]) {
                want.push((c[1], c[0], key, m[1]));
            }
        }
        want.sort();
        let got = pres
            .rows()
            .map(|r| (r.dims[0].0, r.root.0, r.key, r.value.0));
        assert_eq!(got.collect::<Vec<_>>(), want);
        // Both sides in root order: nothing to sort.
        let mut m_in_order = m_rows;
        m_in_order.sort_by_key(|row| row[0]);
        assert_eq!(join(&in_order, &m_in_order).1, 0);
    }

    #[test]
    fn compute_returns_rows_in_group_major_order() {
        let (g, eq) = example_2_setup();
        let pres = PartialResult::compute(&eq, &g).unwrap();
        let order: Vec<_> = pres.rows().map(|r| (r.dims, r.root, r.key)).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }
}
