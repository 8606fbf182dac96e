//! Partial results (Definitions 3–4) — the materialized view the paper's
//! rewriting algorithms consume.
//!
//! For a query `Q = ⟨c, m, ⊕⟩`, the *extended measure result* `m^k(I)`
//! attaches a fresh key `newk()` to every tuple of the bag `m(I)`, so that
//! identical measure values of one fact stay distinguishable after
//! relational operations. The *partial result* is
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
//! A [`PartialResult`] is immutable columnar data (`roots / dims / keys /
//! values`) whose rows are **strictly ascending on `(d₁…dₙ, root, key)`**
//! from the moment it exists — group-major and duplicate-free, written
//! once and only ever scanned. Three things follow:
//!
//! * every cube cell is one contiguous run of rows, so
//!   [`PartialResult::to_cube`] is a run scan with no sort, and `ans(Q)` is
//!   the run-length summary of `pres(Q)`;
//! * a SLICE/DICE keeps or drops whole runs: it tests Σ once per cell (or
//!   once per refused prefix of cells) and copies the admitted runs, order
//!   intact;
//! * two tables holding the same rows are equal column for column, which
//!   is what the derived `PartialEq` compares.
//!
//! # One sort, one scan
//!
//! Rows enter a table in one way only. Whoever produces them — the
//! classifier ⋈ measure join of [`PartialResult::compute`], or the π / ⋈ of
//! a rewriting in [`crate::rewrite`] — pushes them into the crate-private
//! `Records` buffer one *fact run* at a time: a fixed-width record
//! `(d₁…dₙ, root)` plus the `(key, value)` tuples that fact carries in that
//! cell (`pres` is a join on the root, so a fact brings the same tuples to
//! every cell it belongs to, and a table has one run per fact and cell,
//! not one per row). The kernel, `Records::into_pres`, then
//!
//! 1. sorts the records once, on a packed `u128` key — the first four ids
//!    of `(dims, root)`, which is the whole key up to three dimensions —
//!    and only within the segments that are not in order already: records
//!    derived from a sorted table keep a sorted key prefix;
//! 2. in one scan merges adjacent records of the same fact (δ) and appends
//!    the surviving rows column-wise.
//!
//! Every derivation is therefore one sort plus one scan, over one record
//! per fact run rather than per row, and no row ever owns a heap vector.
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
//! * **Guard.** The measure stays unseeded when one of its patterns matches
//!   fewer triples (its constant shape's exact `count_matching`) than there
//!   are roots: its unseeded plan then reads fewer rows in its first step
//!   than seeding would probe.
//! * **Elision.** A seeded measure drops each pattern `?root p o` (`p`, `o`
//!   constants) that the classifier also states on its own root: every
//!   seeded root matches it, and exactly once, so the bag is unchanged. The
//!   root's last pattern stays, as it must bind the seeded variable.
//! * **Keys.** `newk()` numbers the tuples the measure enumerated, so a
//!   table's keys are fresh but not canonical: a restricted `compute` keys
//!   only its admitted facts' tuples, where a dice of the unrestricted table
//!   keeps that table's keys. Two tables of one query are equal up to a
//!   bijective renaming of keys, which is what every consumer relies on.

use crate::answer::Cube;
use crate::cost::pattern_counts;
use crate::error::CoreError;
use crate::extended::ExtendedQuery;
use rdfcube_engine::{
    evaluate_seeded, AggFunc, Bgp, PatternTerm, QueryPattern, Relation, Seed, Semantics,
};
use rdfcube_obs as obs;
use rdfcube_rdf::{Dictionary, Graph, TermId, Triple};
use std::ops::Range;

/// One row of a partial result, viewed by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresRow<'a> {
    /// The fact (the classifier's root binding).
    pub root: TermId,
    /// The dimension values `d₁…dₙ`.
    pub dims: &'a [TermId],
    /// The `newk()` key identifying one measure tuple within this table.
    /// Keys are fresh, not canonical: two tables of the same query agree
    /// up to a bijective renaming of keys.
    pub key: u32,
    /// The measure value `v`.
    pub value: TermId,
}

/// The materialized `pres(Q, I)` table. Its rows are strictly ascending on
/// `(d₁…dₙ, root, key)` — see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult {
    dim_names: Vec<String>,
    agg: AggFunc,
    n_dims: usize,
    roots: Vec<TermId>,
    /// Row-major, `n_dims` entries per row.
    dims: Vec<TermId>,
    keys: Vec<u32>,
    values: Vec<TermId>,
}

/// The four columns of a table under construction.
#[derive(Debug)]
struct Columns {
    roots: Vec<TermId>,
    dims: Vec<TermId>,
    keys: Vec<u32>,
    values: Vec<TermId>,
}

impl Columns {
    fn with_capacity(rows: usize, n_dims: usize) -> Self {
        Columns {
            roots: Vec::with_capacity(rows),
            dims: Vec::with_capacity(rows * n_dims),
            keys: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows),
        }
    }

    /// Appends the rows `rows` of `table`, column by column.
    fn extend_from(&mut self, table: &PartialResult, rows: Range<usize>) {
        let n = table.n_dims;
        self.roots.extend_from_slice(&table.roots[rows.clone()]);
        self.dims
            .extend_from_slice(&table.dims[rows.start * n..rows.end * n]);
        self.keys.extend_from_slice(&table.keys[rows.clone()]);
        self.values.extend_from_slice(&table.values[rows]);
    }
}

/// Rows on their way into a [`PartialResult`], one record per pushed fact
/// run, for [`Records::into_pres`] to sort and scan.
#[derive(Debug)]
pub(crate) struct Records {
    n_dims: usize,
    /// Flat records `[d₁…dₙ, root, start, len]`: a fact (as raw term ids)
    /// and where its run sits in `tuples`.
    heads: Vec<u32>,
    /// `key‖value` of every pushed measure tuple, run after run (records may share a run).
    tuples: Vec<u64>,
}

impl Records {
    /// An empty buffer for facts of `n_dims` dimensions, sized for `rows`
    /// measure tuples.
    pub(crate) fn new(n_dims: usize, rows: usize) -> Self {
        let (heads, tuples) = (Vec::new(), Vec::with_capacity(rows));
        Records {
            n_dims,
            heads,
            tuples,
        }
    }

    /// Number of rows pushed so far.
    pub(crate) fn len(&self) -> usize {
        let n = self.n_dims;
        let lens = self.heads.chunks_exact(n + 3).map(|h| h[n + 2] as usize);
        lens.sum()
    }

    /// `c(I) ⋈ₓ m^k(I)`: keys every tuple of the measure result `m_rel`
    /// (`newk()` counts up from `keys_above + 1` in enumeration order) and
    /// pushes one fact run per classifier row of `c_rel` that has measure
    /// tuples, in `c_rel`'s order — a merge on the root, the order a root
    /// scan gives (else a sort). `None` if the keys would not fit `u32`.
    fn key_join(&mut self, c_rel: &Relation, m_rel: &Relation, keys_above: u32) -> Option<()> {
        let sp = obs::span("key_join");
        u32::try_from(m_rel.len()).ok()?.checked_add(keys_above)?;
        let by_root = |rel: &Relation| {
            let pair = |(row, i): (&[TermId], u64)| u64::from(row[0].0) << 32 | i;
            let mut pairs: Vec<u64> = rel.rows().zip(0..).map(pair).collect();
            let sorted = pairs.is_sorted();
            pairs.sort_unstable();
            (pairs, !sorted)
        };
        let ((c_roots, c_sorted), (m_roots, m_sorted)) = (by_root(c_rel), by_root(m_rel));
        let below = |from: usize, bound: u64| {
            from + m_roots[from..].iter().take_while(|&&m| m < bound).count()
        };
        let keyed = |&m: &u64| {
            let j = m as u32;
            u64::from(keys_above + j + 1) << 32 | u64::from(m_rel.row(j as usize)[1].0)
        };
        let (mut runs, mut next, mut fact, mut run) = (vec![0..0; c_rel.len()], 0, None, 0..0);
        for (root, i) in c_roots.iter().map(|&c| (c >> 32 << 32, c as u32 as usize)) {
            if fact != Some(root) {
                let from = below(next, root);
                let to = below(from, root.saturating_add(1 << 32));
                let start = self.tuples.len() as u32;
                self.tuples.extend(m_roots[from..to].iter().map(keyed));
                (next, fact, run) = (to, Some(root), start..start + (to - from) as u32);
            }
            runs[i].clone_from(&run);
        }
        self.heads.reserve(c_rel.len() * (self.n_dims + 3));
        for (c_row, run) in c_rel.rows().zip(runs).filter(|(_, run)| !run.is_empty()) {
            self.heads.extend(c_row[1..].iter().map(|id| id.0));
            self.heads.extend([c_row[0].0, run.start, run.len() as u32]);
        }
        sp.rows((c_rel.len() + m_rel.len()) as u64, self.len() as u64);
        sp.attr("sorted_sides", u64::from(c_sorted) + u64::from(m_sorted));
        Some(())
    }

    /// Appends one fact run: its `(key, value)` tuples, keys ascending,
    /// under `dims` (the `n_dims` values this buffer was created for).
    pub(crate) fn push(
        &mut self,
        dims: impl IntoIterator<Item = TermId>,
        root: TermId,
        measures: impl IntoIterator<Item = (u32, TermId)>,
    ) {
        // Offsets wrap past 2³² rows; `into_pres` refuses such a buffer
        // before it reads any of them.
        let start = self.tuples.len() as u32;
        let tuples = measures.into_iter();
        let tuples = tuples.map(|(k, v)| u64::from(k) << 32 | u64::from(v.0));
        self.tuples.extend(tuples);
        let len = (self.tuples.len() as u32).wrapping_sub(start);
        self.heads.extend(dims.into_iter().map(|d| d.0));
        self.heads.extend([root.0, start, len]);
    }

    /// The sort–scan kernel: sorts the records on `(dims, root)` and in one
    /// scan merges the runs of adjacent equal facts (δ — a key determines
    /// its measure value, so whole tuples compare) and appends the
    /// surviving rows column-wise as a table that is born sorted.
    pub(crate) fn into_pres(
        self,
        dim_names: Vec<String>,
        agg: AggFunc,
    ) -> Result<PartialResult, CoreError> {
        let (n, stride, rows_in) = (self.n_dims, self.n_dims + 3, self.len());
        if u32::try_from(rows_in).is_err() {
            return Err(CoreError::InvalidOperation(
                "a partial result of more than 2^32 − 1 rows".into(),
            ));
        }
        let head = |i: u32| &self.heads[i as usize * stride..][..stride];
        let run = |h: &(u128, u32, u32, u32)| &self.tuples[h.2 as usize..][..h.3 as usize];

        // One sort, on a fixed-width packed key: the first four ids of
        // `(dims, root)` in a `u128` — the whole fact up to three
        // dimensions — with the rest of a wider fact breaking ties.
        let sp = obs::span("sort");
        let lanes = (n + 1).min(4);
        let pack = |k: u128, id: &u32| k << 32 | u128::from(*id);
        let fact = |(i, h): (u32, &[u32])| (h[..lanes].iter().fold(0, pack), i, h[n + 1], h[n + 2]);
        let facts = self.heads.chunks_exact(stride);
        let mut order: Vec<(u128, u32, u32, u32)> = (0..).zip(facts).map(fact).collect();
        // Facts derived from a sorted table arrive with their leading key
        // bits still in order (a drill-in keeps all of the old key, a
        // drill-out the dimensions before the first removed one). `low` is
        // the key width below the widest such prefix: equal prefixes are
        // contiguous and ascending, so sorting each of those segments alone
        // sorts the buffer.
        let descents = order.windows(2).filter(|w| w[1].0 < w[0].0);
        let low = descents.map(|w| u128::BITS - (w[0].0 ^ w[1].0).leading_zeros());
        let low = low.max().unwrap_or(0);
        let prefix = |h: &(u128, u32, u32, u32)| h.0.checked_shr(low).unwrap_or(0);
        let rest = |h: &(u128, u32, u32, u32)| &head(h.1)[lanes..=n];
        for segment in order.chunk_by_mut(|a, b| prefix(a) == prefix(b)) {
            segment.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| rest(a).cmp(rest(b))));
        }
        sp.rows(order.len() as u64, order.len() as u64);
        drop(sp);

        let sp = obs::span("dedup");
        let mut columns = Columns::with_capacity(rows_in, n);
        let (mut merged, mut ids): (Vec<u64>, Vec<u32>) = (Vec::new(), Vec::new());
        for group in order.chunk_by(|a, b| a.0 == b.0 && rest(a) == rest(b)) {
            let first = &group[0];
            let tuples = if group.iter().all(|h| run(h) == run(first)) {
                run(first)
            } else {
                merged.clear();
                merged.extend(group.iter().flat_map(run));
                merged.sort_unstable();
                merged.dedup();
                &merged
            };
            let lane = |l: usize| (first.0 >> (32 * l)) as u32; // the fact's ids, in order
            ids.clear();
            ids.extend((0..lanes).rev().map(lane));
            ids.extend_from_slice(rest(first));
            for &tuple in tuples {
                columns.dims.extend(ids[..n].iter().map(|&d| TermId(d)));
                columns.roots.push(TermId(ids[n]));
                columns.keys.push((tuple >> 32) as u32);
                columns.values.push(TermId(tuple as u32));
            }
        }
        let pres = PartialResult::from_columns(dim_names, agg, columns);
        if sp.active() {
            sp.rows(rows_in as u64, pres.len() as u64);
            sp.bytes(pres.approx_bytes() as u64);
        }
        Ok(pres)
    }
}

impl PartialResult {
    /// The one constructor: takes the four columns as they are (less any
    /// spare capacity — a table is never appended to) and checks, in debug
    /// builds, that they satisfy the sort invariant.
    fn from_columns(dim_names: Vec<String>, agg: AggFunc, columns: Columns) -> Self {
        let Columns {
            mut roots,
            mut dims,
            mut keys,
            mut values,
        } = columns;
        roots.shrink_to_fit();
        dims.shrink_to_fit();
        keys.shrink_to_fit();
        values.shrink_to_fit();
        let pres = PartialResult {
            n_dims: dim_names.len(),
            dim_names,
            agg,
            roots,
            dims,
            keys,
            values,
        };
        debug_assert_eq!(pres.dims.len(), pres.len() * pres.n_dims);
        debug_assert!(pres.keys.len() == pres.len() && pres.values.len() == pres.len());
        let order = |i| (pres.dims_of(i), pres.roots[i], pres.keys[i]);
        debug_assert!(
            (1..pres.len()).all(|i| order(i - 1) < order(i)),
            "pres rows must be strictly ascending on (dims, root, key)"
        );
        pres
    }

    /// Computes `pres(Q, I)` for an extended query over `instance`.
    ///
    /// The classifier is evaluated under set semantics and filtered by Σ;
    /// the measure under bag semantics for the facts it admits, with keys
    /// assigned in enumeration order (the paper's illustrative `newk()`
    /// returning 1, 2, 3…). The joined rows go through the same sort–scan
    /// kernel as every rewriting.
    pub fn compute(eq: &ExtendedQuery, instance: &Graph) -> Result<Self, CoreError> {
        let q = eq.query();
        let (c_rel, m_rel) = evaluate_parts(eq, instance, None)?;
        let mut records = Records::new(q.n_dims(), m_rel.len());
        records.key_join(&c_rel, &m_rel, 0).ok_or_else(|| {
            CoreError::InvalidOperation("more than 2^32 − 1 measure tuples to key".into())
        })?;
        let dim_names = q.dim_names().iter().map(|s| s.to_string()).collect();
        records.into_pres(dim_names, q.agg())
    }

    /// `pres(Q, I)` from `self = pres(Q, I ∖ Δ)` and the inserted triples
    /// `new = Δ`, without re-evaluating the untouched part of `I`.
    ///
    /// `pres` is partitioned by fact: a fact's rows are its classifier rows
    /// joined with its measure tuples, and both are found from the root by
    /// the rooted BGPs of `Q`. So only the facts some embedding of which
    /// uses a triple of `Δ` — the *touched roots*, found semi-naively —
    /// can have different rows now. Theirs are re-derived on `instance` (Σ
    /// applied as in [`Self::compute`], measure tuples keyed above every key
    /// of `self`) and sorted by the kernel; one pass over `self` then drops
    /// their old rows and merges the new fact runs in where they sort.
    /// Whatever ⊕ is, [`Self::to_cube`] of the result is `ans(Q, I)`, and
    /// the table equals [`Self::compute`]'s up to a renaming of keys.
    ///
    /// Returns the table and the number of touched roots, or `None` if the
    /// key space is exhausted (recompute: `compute` restarts keys at 1).
    pub(crate) fn refreshed(
        &self,
        eq: &ExtendedQuery,
        instance: &Graph,
        new: &[Triple],
    ) -> Result<Option<(Self, usize)>, CoreError> {
        let touched = touched_roots(eq, instance, new)?;
        let (c_rel, m_rel) = evaluate_parts(eq, instance, Some(&touched))?;
        let mut records = Records::new(self.n_dims, m_rel.len());
        let keys_above = self.keys.iter().copied().max().unwrap_or(0);
        if records.key_join(&c_rel, &m_rel, keys_above).is_none() {
            return Ok(None);
        }
        let fresh = records.into_pres(self.dim_names.clone(), self.agg)?;

        let sp = obs::span("merge");
        let mut columns = Columns::with_capacity(self.len() + fresh.len(), self.n_dims);
        // Copies the rows `rows` of `self` less those of touched roots.
        let carry_over = |columns: &mut Columns, rows: Range<usize>| {
            let mut kept = rows.start;
            for i in rows.clone() {
                if touched.binary_search(&self.roots[i]).is_ok() {
                    columns.extend_from(self, kept..i);
                    kept = i + 1;
                }
            }
            columns.extend_from(self, kept..rows.end);
        };
        let mut done = 0;
        for run in fresh.facts() {
            // The new fact run goes before the first old row not below it.
            let fact = (fresh.dims_of(run.start), fresh.roots[run.start]);
            let (mut cut, mut end) = (done, self.len());
            while cut < end {
                let mid = cut + (end - cut) / 2;
                if (self.dims_of(mid), self.roots[mid]) < fact {
                    cut = mid + 1;
                } else {
                    end = mid;
                }
            }
            carry_over(&mut columns, std::mem::replace(&mut done, cut)..cut);
            columns.extend_from(&fresh, run);
        }
        carry_over(&mut columns, done..self.len());
        let pres = Self::from_columns(self.dim_names.clone(), self.agg, columns);
        sp.rows((self.len() + fresh.len()) as u64, pres.len() as u64);
        Ok(Some((pres, touched.len())))
    }

    /// The dimension names, in classifier-head order.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// The same table under different dimension names (see
    /// [`crate::Cube::with_dim_names`]).
    pub fn with_dim_names(mut self, dim_names: Vec<String>) -> Self {
        debug_assert_eq!(dim_names.len(), self.dim_names.len());
        self.dim_names = dim_names;
        self
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// The aggregation function of the query this pres belongs to.
    pub fn agg(&self) -> AggFunc {
        self.agg
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    fn dims_of(&self, i: usize) -> &[TermId] {
        &self.dims[i * self.n_dims..(i + 1) * self.n_dims]
    }

    /// The `i`-th row, in `(dims, root, key)` order.
    pub fn row(&self, i: usize) -> PresRow<'_> {
        PresRow {
            root: self.roots[i],
            dims: self.dims_of(i),
            key: self.keys[i],
            value: self.values[i],
        }
    }

    /// Iterates all rows, in `(dims, root, key)` order.
    pub fn rows(&self) -> impl Iterator<Item = PresRow<'_>> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The table's fact runs — the consecutive rows sharing `(dims, root)`:
    /// one fact in one cell — as row ranges, in `(dims, root)` order.
    pub(crate) fn facts(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut start = 0;
        std::iter::from_fn(move || {
            let root = *self.roots.get(start)?;
            let same_root = self.roots[start..].iter().take_while(|&&r| r == root);
            let mut end = start + same_root.count();
            // Dimension vectors only ascend, so the rows under this root
            // are one run iff the two ends agree on theirs.
            if self.dims_of(end - 1) != self.dims_of(start) {
                end = self.block_end(start, self.n_dims);
            }
            Some(std::mem::replace(&mut start, end)..end)
        })
    }

    /// The `(key, value)` tuples of the rows in `run`.
    pub(crate) fn measures(&self, run: Range<usize>) -> impl Iterator<Item = (u32, TermId)> + '_ {
        let (keys, values) = (&self.keys[run.clone()], &self.values[run]);
        keys.iter().copied().zip(values.iter().copied())
    }

    /// Approximate memory footprint in bytes (reported by the benchmarks
    /// comparing pres size against instance size).
    pub fn approx_bytes(&self) -> usize {
        self.roots.len() * std::mem::size_of::<TermId>()
            + self.dims.len() * std::mem::size_of::<TermId>()
            + self.keys.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<TermId>()
    }

    /// The end of the block of rows sharing row `start`'s first `shared`
    /// dimension values. The sort order makes the block a contiguous prefix
    /// of `start..`, so it is found by galloping: a block of `b` rows costs
    /// `O(log b)` probes, however many cells it spans.
    fn block_end(&self, start: usize, shared: usize) -> usize {
        let key = &self.dims_of(start)[..shared];
        let same = |i: usize| self.dims_of(i)[..shared] == *key;
        let mut step = 1;
        while start + step < self.len() && same(start + step) {
            step *= 2;
        }
        let (mut inside, mut end) = (start + step / 2, self.len().min(start + step));
        while inside + 1 < end {
            let mid = inside + (end - inside) / 2;
            if same(mid) {
                inside = mid;
            } else {
                end = mid;
            }
        }
        end
    }

    /// The Σ-selection of the table. `refused_at` names the first dimension
    /// whose value Σ refuses in a dimension vector, or `None` to admit it:
    /// an admitted cell is copied column by column, a refused one is
    /// skipped together with every cell that shares the refused prefix. The
    /// result is sorted because `self` is.
    pub(crate) fn select_cells(
        &self,
        mut refused_at: impl FnMut(&[TermId]) -> Option<usize>,
    ) -> Self {
        let n = self.n_dims;
        let mut columns = Columns::with_capacity(0, n);
        let mut start = 0;
        while start < self.len() {
            let refused = refused_at(self.dims_of(start));
            let end = self.block_end(start, refused.map_or(n, |d| d + 1));
            if refused.is_none() {
                columns.extend_from(self, start..end);
            }
            start = end;
        }
        Self::from_columns(self.dim_names.clone(), self.agg, columns)
    }

    /// Equation 3: recovers `ans(Q)` from the partial result by grouping on
    /// the dimension columns (the projection keeps duplicates — bag
    /// semantics — so repeated measure values aggregate correctly).
    ///
    /// A run scan, with no sort: the invariant already clusters each cell's
    /// rows, its bag is a slice of the value column, and cells emerge in
    /// canonical key order.
    pub fn to_cube(&self, dict: &Dictionary) -> Result<Cube, CoreError> {
        let sp = obs::span("group_aggregate");
        let mut cells = Vec::new();
        let mut start = 0;
        while start < self.len() {
            let end = self.block_end(start, self.n_dims);
            let bag = &self.values[start..end];
            cells.push((self.dims_of(start).to_vec(), self.agg.apply(bag, dict)?));
            start = end;
        }
        sp.rows(self.len() as u64, cells.len() as u64);
        drop(sp);
        let sp = obs::span("cube_build");
        let cube = Cube::from_cells(self.dim_names.clone(), self.agg, cells);
        if sp.active() {
            sp.rows(cube.len() as u64, cube.len() as u64);
            sp.bytes(cube.approx_bytes() as u64);
        }
        Ok(cube)
    }
}

/// The two halves of `pres(Q, I)`: the Σ-filtered classifier relation (set
/// semantics), over all of `instance` or — given `roots` — for those facts
/// only, and the measure relation (bag semantics) of the facts it admits —
/// the measure's root seeded to the classifier's roots (see the
/// [module docs](self) for the guard and the elided patterns).
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
    let c_rel = eq.classifier_relation_from(instance, &c_seed)?;
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
        // The keys are fresh, not the unrestricted table's.
        assert_ne!(pres, diced);
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
        let mut records = Records::new(2, m_rel.len());
        records.key_join(&c_rel, &m_rel, 0).unwrap();
        let unseeded = records.into_pres(pres.dim_names().to_vec(), AggFunc::Count);
        assert_eq!(pres, unseeded.unwrap());
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

    #[test]
    fn approx_bytes_grows_with_rows() {
        let (g, eq) = example_2_setup();
        let pres = PartialResult::compute(&eq, &g).unwrap();
        assert!(pres.approx_bytes() >= pres.len() * 16);
    }

    /// The kernel on both record forms: fact runs pushed out of order, one
    /// of them twice and one split in two overlapping halves, come out
    /// strictly ascending on `(dims, root, key)`, every row once.
    #[test]
    fn kernel_sorts_and_deduplicates_packed_and_wide_records() {
        for n_dims in [0usize, 1, 3, 4, 6] {
            let names: Vec<String> = (0..n_dims).map(|d| format!("d{d}")).collect();
            let dims = |first: u32| (0..n_dims as u32).map(move |d| TermId(first + d));
            let mut records = Records::new(n_dims, 8);
            records.push(dims(9), TermId(2), [(6, TermId(60)), (7, TermId(70))]);
            records.push(dims(9), TermId(1), [(8, TermId(80))]);
            records.push(dims(5), TermId(3), [(9, TermId(90))]);
            records.push(dims(9), TermId(2), [(6, TermId(60)), (7, TermId(70))]);
            records.push(dims(9), TermId(4), [(1, TermId(10)), (3, TermId(30))]);
            records.push(dims(9), TermId(4), [(2, TermId(20)), (3, TermId(30))]);
            assert_eq!(records.len(), 10);
            let pres = records.into_pres(names.clone(), AggFunc::Count).unwrap();
            let got: Vec<(Vec<TermId>, u32, u32, u32)> = pres
                .rows()
                .map(|r| (r.dims.to_vec(), r.root.0, r.key, r.value.0))
                .collect();
            let d = |first: u32| dims(first).collect::<Vec<_>>();
            let mut want = vec![
                (d(5), 3, 9, 90),
                (d(9), 1, 8, 80),
                (d(9), 2, 6, 60),
                (d(9), 2, 7, 70),
                (d(9), 4, 1, 10),
                (d(9), 4, 2, 20),
                (d(9), 4, 3, 30),
            ];
            want.sort();
            assert_eq!(got, want, "{n_dims} dims");

            // Arrival order is not part of a table's identity, and the
            // table's own fact runs rebuild it.
            let mut again = Records::new(n_dims, pres.len());
            let facts: Vec<_> = pres.facts().collect();
            for run in facts.into_iter().rev() {
                let f = pres.row(run.start);
                again.push(f.dims.iter().copied(), f.root, pres.measures(run));
            }
            assert_eq!(again.into_pres(names, AggFunc::Count).unwrap(), pres);
        }
    }

    /// The merge's fallback: a side that arrives out of root order (a
    /// pending delta's run after the CSR's) is sorted once, and the table is
    /// every classifier × measure pair on one root, `newk()` still counting
    /// in measure enumeration order.
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
            let mut records = Records::new(1, 0);
            assert!(obs::trace_begin("join"));
            records.key_join(&rel(c_rows), &rel(m_rows), 7).unwrap();
            let trace = obs::trace_end().unwrap();
            let sorted = trace
                .find("key_join")
                .and_then(|join| join.attr("sorted_sides"));
            let pres = records.into_pres(vec!["d".into()], AggFunc::Count).unwrap();
            (pres, sorted.unwrap())
        };
        let (pres, sorted) = join(&c_rows, &m_rows);
        assert_eq!(sorted, 2);
        let mut in_order = c_rows;
        in_order.sort_by_key(|row| row[0]);
        assert_eq!(join(&in_order, &m_rows), (pres.clone(), 1));
        let mut want = Vec::new();
        for c in c_rows {
            for (nth, m) in (8..).zip(m_rows).filter(|(_, m)| m[0] == c[0]) {
                want.push((c[1], c[0], nth, m[1]));
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
