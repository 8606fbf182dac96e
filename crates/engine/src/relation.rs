//! Materialized relations and the relational-algebra operators the paper's
//! algorithms are written in (π projection, σ selection, δ deduplication,
//! ⋈ natural join).
//!
//! A [`Relation`] stores rows of dictionary-encoded terms in one flat,
//! cache-friendly buffer with an explicit row count (so even zero-column
//! relations keep their multiplicity — the zero-dimensional-cube case); the
//! schema names each column with the [`VarId`] it binds. Operators follow
//! the paper's convention: **bag semantics by default** (§3: "all relational
//! algebra operators are assumed to have bag semantics"), with an explicit
//! [`Relation::distinct`] for δ.
//!
//! δ runs on the served classifier path, so it avoids per-row heap traffic:
//! up to three columns it hashes the ids packed into one integer, beyond
//! that row slices. ⋈ backs only from-scratch answering, the reference the
//! served path is checked against, so it is the plain hash join.

use crate::error::EngineError;
use crate::var::VarId;
use rdfcube_rdf::fx::{FxHashMap, FxHashSet};
use rdfcube_rdf::TermId;

/// Packs two 32-bit term ids into one order-preserving `u64` key
/// (lexicographic `(a, b)` order equals numeric order of the packed value).
#[inline]
fn pack2(a: TermId, b: TermId) -> u64 {
    (u64::from(a.0) << 32) | u64::from(b.0)
}

/// A materialized relation over dictionary-encoded terms.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    schema: Vec<VarId>,
    data: Vec<TermId>,
    /// Explicit row count: `data.len() / arity` when `arity > 0`, but also
    /// meaningful for zero-column relations, whose rows carry no data.
    rows: usize,
}

/// Iterator over the rows of a [`Relation`] as slices. Zero-arity relations
/// yield one empty slice per row, preserving multiplicity.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    data: &'a [TermId],
    arity: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [TermId];

    #[inline]
    fn next(&mut self) -> Option<&'a [TermId]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.arity == 0 {
            Some(&[])
        } else {
            let (row, rest) = self.data.split_at(self.arity);
            self.data = rest;
            Some(row)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl Relation {
    /// Creates an empty relation with the given column schema.
    pub fn new(schema: Vec<VarId>) -> Self {
        Relation {
            schema,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Creates an empty relation pre-sized for `rows` rows.
    pub fn with_capacity(schema: Vec<VarId>, rows: usize) -> Self {
        let arity = schema.len();
        Relation {
            schema,
            data: Vec::with_capacity(rows * arity),
            rows: 0,
        }
    }

    /// The column schema.
    pub fn schema(&self) -> &[VarId] {
        &self.schema
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// Number of rows (multiplicity is tracked even at arity 0).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends a row; its length must equal the arity.
    pub fn push_row(&mut self, row: &[TermId]) {
        debug_assert_eq!(row.len(), self.arity(), "row arity mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends a row produced by an iterator (the evaluator's head
    /// projection writes arena slots straight into the buffer, with no
    /// intermediate row `Vec`). The iterator must yield exactly `arity`
    /// values.
    pub fn push_row_from(&mut self, row: impl IntoIterator<Item = TermId>) {
        let before = self.data.len();
        self.data.extend(row);
        debug_assert_eq!(self.data.len() - before, self.arity(), "row arity mismatch");
        self.rows += 1;
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[TermId] {
        debug_assert!(i < self.rows, "row index out of range");
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates rows as slices (empty slices for a zero-column relation).
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            arity: self.arity(),
            remaining: self.rows,
        }
    }

    /// Index of the column bound to `v`.
    pub fn col(&self, v: VarId) -> Option<usize> {
        self.schema.iter().position(|&c| c == v)
    }

    /// Index of the column bound to `v`, or a schema error naming it.
    pub fn col_required(&self, v: VarId) -> Result<usize, EngineError> {
        self.col(v)
            .ok_or_else(|| EngineError::Schema(format!("column {v} not present in relation")))
    }

    /// π — projects onto `cols` (which may repeat or reorder columns).
    /// Bag semantics: row multiplicities are preserved.
    pub fn project(&self, cols: &[VarId]) -> Result<Relation, EngineError> {
        let idx: Vec<usize> = cols
            .iter()
            .map(|&v| self.col_required(v))
            .collect::<Result<_, _>>()?;
        Ok(self.project_indices(cols.to_vec(), &idx))
    }

    /// π by column positions, with an explicit output schema.
    pub fn project_indices(&self, schema: Vec<VarId>, idx: &[usize]) -> Relation {
        let mut out = Relation::with_capacity(schema, self.len());
        for row in self.rows() {
            for &i in idx {
                out.data.push(row[i]);
            }
            out.rows += 1;
        }
        out
    }

    /// σ — keeps the rows satisfying `keep`.
    pub fn select<F: FnMut(&[TermId]) -> bool>(&self, mut keep: F) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for row in self.rows() {
            if keep(row) {
                out.data.extend_from_slice(row);
                out.rows += 1;
            }
        }
        out
    }

    /// δ — removes duplicate rows (first occurrence kept, order otherwise
    /// preserved). 1- and 2-column relations dedup through packed `u64` keys
    /// instead of hashing slices.
    pub fn distinct(&self) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        match self.arity() {
            0 => {
                // All rows are identical; at most one survives δ.
                out.rows = self.rows.min(1);
            }
            1 => {
                let mut seen: FxHashSet<u32> = FxHashSet::default();
                seen.reserve(self.rows);
                for row in self.rows() {
                    if seen.insert(row[0].0) {
                        out.data.push(row[0]);
                        out.rows += 1;
                    }
                }
            }
            2 => {
                let mut seen: FxHashSet<u64> = FxHashSet::default();
                seen.reserve(self.rows);
                for row in self.rows() {
                    if seen.insert(pack2(row[0], row[1])) {
                        out.data.extend_from_slice(row);
                        out.rows += 1;
                    }
                }
            }
            3 => {
                // Three u32 ids fit one u128 — covers the classifier shape
                // `[x, d₁, d₂]` without hashing slices.
                let mut seen: FxHashSet<u128> = FxHashSet::default();
                seen.reserve(self.rows);
                for row in self.rows() {
                    let key = (u128::from(row[0].0) << 64)
                        | (u128::from(row[1].0) << 32)
                        | u128::from(row[2].0);
                    if seen.insert(key) {
                        out.data.extend_from_slice(row);
                        out.rows += 1;
                    }
                }
            }
            _ => {
                let mut seen: FxHashSet<&[TermId]> = FxHashSet::default();
                seen.reserve(self.rows);
                for row in self.rows() {
                    if seen.insert(row) {
                        out.data.extend_from_slice(row);
                        out.rows += 1;
                    }
                }
            }
        }
        out
    }

    /// ⋈ — natural hash join on all shared columns. The output schema is
    /// `self.schema` followed by the non-shared columns of `other`.
    /// Bag semantics: each matching pair of rows produces one output row,
    /// left-major, a left row's matches in `other`'s order. With no shared
    /// column every pair matches: the cartesian product.
    pub fn natural_join(&self, other: &Relation) -> Relation {
        let shared: Vec<(usize, usize)> = self
            .schema
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| other.col(v).map(|j| (i, j)))
            .collect();
        let other_extra: Vec<usize> = (0..other.arity())
            .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
            .collect();
        let mut schema = self.schema.clone();
        schema.extend(other_extra.iter().map(|&j| other.schema[j]));

        // Build on `other`: each row's key is its shared values, all keys in
        // one buffer; the rows of one key are chained in row order through
        // `next`, so the build allocates nothing per key.
        let k = shared.len();
        let keys: Vec<TermId> = other
            .rows()
            .flat_map(|right| shared.iter().map(move |&(_, j)| right[j]))
            .collect();
        let mut first: FxHashMap<&[TermId], usize> = FxHashMap::default();
        let mut next = vec![usize::MAX; other.len()];
        for ri in (0..other.len()).rev() {
            if let Some(later) = first.insert(&keys[ri * k..][..k], ri) {
                next[ri] = later;
            }
        }
        let mut out = Relation::new(schema);
        let mut key = Vec::with_capacity(k);
        for left in self.rows() {
            key.clear();
            key.extend(shared.iter().map(|&(i, _)| left[i]));
            let mut ri = first.get(&key[..]).copied().unwrap_or(usize::MAX);
            while ri != usize::MAX {
                let right = other.row(ri);
                out.data.extend_from_slice(left);
                out.data.extend(other_extra.iter().map(|&j| right[j]));
                out.rows += 1;
                ri = next[ri];
            }
        }
        out
    }

    /// Rows sorted lexicographically — canonical form for comparisons in
    /// tests and for deterministic output.
    pub fn sorted_rows(&self) -> Vec<Vec<TermId>> {
        let mut rows: Vec<Vec<TermId>> = self.rows().map(|r| r.to_vec()).collect();
        rows.sort_unstable();
        rows
    }

    /// True if `self` and `other` contain the same bag of rows under the
    /// same schema (order-insensitive).
    pub fn same_bag(&self, other: &Relation) -> bool {
        self.schema == other.schema
            && self.rows == other.rows
            && self.sorted_rows() == other.sorted_rows()
    }

    /// Renames a column in place (used when aligning relations produced by
    /// different queries before a join, e.g. classifier ⋈ measure on the
    /// paper's shared root `x`).
    pub fn rename(&mut self, from: VarId, to: VarId) -> Result<(), EngineError> {
        let i = self.col_required(from)?;
        self.schema[i] = to;
        Ok(())
    }

    /// Replaces the whole schema (same arity required). Classifier and
    /// measure queries own independent variable registries whose numeric ids
    /// overlap; before joining their results the caller rebases one side
    /// into the other's variable space with this.
    pub fn set_schema(&mut self, schema: Vec<VarId>) -> Result<(), EngineError> {
        if schema.len() != self.schema.len() {
            return Err(EngineError::Schema(format!(
                "set_schema arity mismatch: {} vs {}",
                schema.len(),
                self.schema.len()
            )));
        }
        self.schema = schema;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u16) -> VarId {
        VarId(n)
    }

    fn t(n: u32) -> TermId {
        TermId(n)
    }

    fn rel(schema: &[u16], rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(schema.iter().map(|&n| v(n)).collect());
        for row in rows {
            let encoded: Vec<TermId> = row.iter().map(|&n| t(n)).collect();
            r.push_row(&encoded);
        }
        r
    }

    #[test]
    fn push_and_read_rows() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.row(1), &[t(3), t(4)]);
    }

    #[test]
    fn zero_arity_relation_keeps_multiplicity() {
        // The zero-dimensional-cube case: q() under bag semantics counts
        // homomorphisms, so an arity-0 relation must remember its row count.
        let mut r = Relation::new(vec![]);
        assert!(r.is_empty());
        r.push_row(&[]);
        r.push_row(&[]);
        r.push_row(&[]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.rows().count(), 3);
        assert!(r.rows().all(|row| row.is_empty()));
        // δ collapses the indistinguishable rows to one.
        let d = r.distinct();
        assert_eq!(d.len(), 1);
        assert_eq!(d.rows().count(), 1);
        // Bag-semantics cartesian join multiplies multiplicities.
        let l = rel(&[0], &[&[1], &[2]]);
        assert_eq!(l.natural_join(&r).len(), 6);
    }

    #[test]
    fn project_reorders_and_repeats() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let p = r.project(&[v(1), v(0), v(1)]).unwrap();
        assert_eq!(p.schema(), &[v(1), v(0), v(1)]);
        assert_eq!(p.row(0), &[t(2), t(1), t(2)]);
    }

    #[test]
    fn project_to_zero_columns_keeps_rows() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let p = r.project(&[]).unwrap();
        assert_eq!(p.arity(), 0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn project_unknown_column_errors() {
        let r = rel(&[0], &[&[1]]);
        assert!(r.project(&[v(9)]).is_err());
    }

    #[test]
    fn select_filters() {
        let r = rel(&[0], &[&[1], &[2], &[3]]);
        let s = r.select(|row| row[0].0 % 2 == 1);
        assert_eq!(s.sorted_rows(), vec![vec![t(1)], vec![t(3)]]);
    }

    #[test]
    fn distinct_removes_duplicates_keeps_order() {
        let r = rel(&[0, 1], &[&[1, 1], &[2, 2], &[1, 1], &[3, 3]]);
        let d = r.distinct();
        assert_eq!(d.len(), 3);
        assert_eq!(d.row(0), &[t(1), t(1)]);
        assert_eq!(d.row(1), &[t(2), t(2)]);
        assert_eq!(d.row(2), &[t(3), t(3)]);
    }

    #[test]
    fn distinct_agrees_across_arities() {
        // The packed 1-/2-column paths must agree with the general slice
        // path; simulate by comparing against sorted+dedup'd rows.
        for arity in 1u16..4 {
            let schema: Vec<u16> = (0..arity).collect();
            let mut r = Relation::new(schema.iter().map(|&n| v(n)).collect());
            for i in 0..40u32 {
                let row: Vec<TermId> = (0..arity).map(|c| t((i * 7 + u32::from(c)) % 5)).collect();
                r.push_row(&row);
            }
            let d = r.distinct();
            let mut expect = r.sorted_rows();
            expect.dedup();
            assert_eq!(d.sorted_rows(), expect, "arity {arity}");
        }
    }

    #[test]
    fn natural_join_on_shared_column() {
        // classifier(x, d) ⋈ measure(x, v) — the paper's pres join shape.
        let c = rel(&[0, 1], &[&[10, 100], &[11, 101], &[12, 102]]);
        let m = rel(&[0, 2], &[&[10, 7], &[10, 8], &[12, 9]]);
        let j = c.natural_join(&m);
        assert_eq!(j.schema(), &[v(0), v(1), v(2)]);
        assert_eq!(
            j.sorted_rows(),
            vec![
                vec![t(10), t(100), t(7)],
                vec![t(10), t(100), t(8)],
                vec![t(12), t(102), t(9)],
            ]
        );
    }

    #[test]
    fn join_respects_bag_semantics() {
        // Duplicate rows multiply: 2 left × 2 right = 4 output rows.
        let l = rel(&[0], &[&[1], &[1]]);
        let r = rel(&[0, 1], &[&[1, 5], &[1, 6]]);
        assert_eq!(l.natural_join(&r).len(), 4);
    }

    #[test]
    fn join_without_shared_columns_is_cartesian() {
        let l = rel(&[0], &[&[1], &[2]]);
        let r = rel(&[1], &[&[8], &[9]]);
        let j = l.natural_join(&r);
        assert_eq!(j.len(), 4);
        assert_eq!(j.schema(), &[v(0), v(1)]);
    }

    #[test]
    fn join_on_multiple_shared_columns() {
        let l = rel(&[0, 1, 2], &[&[1, 2, 3], &[1, 9, 4]]);
        let r = rel(&[1, 0], &[&[2, 1]]);
        let j = l.natural_join(&r);
        assert_eq!(j.sorted_rows(), vec![vec![t(1), t(2), t(3)]]);
        assert_eq!(j.schema(), &[v(0), v(1), v(2)]);
    }

    #[test]
    fn join_on_three_shared_columns_uses_general_path() {
        let l = rel(&[0, 1, 2], &[&[1, 2, 3], &[4, 5, 6], &[1, 2, 9]]);
        let r = rel(&[2, 1, 0], &[&[3, 2, 1], &[6, 5, 4], &[8, 8, 8]]);
        let j = l.natural_join(&r);
        assert_eq!(
            j.sorted_rows(),
            vec![vec![t(1), t(2), t(3)], vec![t(4), t(5), t(6)]]
        );
    }

    #[test]
    fn natural_join_agrees_with_a_nested_loop_join() {
        // Bag semantics, in left-major order with each left row's matches
        // in right order. Row i holds the base-3 digits of i · step, so
        // keys repeat on both sides and narrow rows repeat whole.
        let fill = |schema: &[u16], rows: u32, step: u32| {
            let mut r = Relation::new(schema.iter().map(|&n| v(n)).collect());
            for i in 0..rows {
                let digits = (0..schema.len() as u32).map(|c| t(i * step / 3u32.pow(c) % 3));
                r.push_row(&digits.collect::<Vec<_>>());
            }
            r
        };
        for shared in 0u16..4 {
            for extra in 0u16..3 {
                // The right side lists its shared columns in reverse order,
                // after its extra ones.
                let left_schema: Vec<u16> = (0..shared).chain([10]).collect();
                let right_schema: Vec<u16> = (20..20 + extra).chain((0..shared).rev()).collect();
                let (l, r) = (fill(&left_schema, 30, 1), fill(&right_schema, 20, 2));
                let mut schema = l.schema().to_vec();
                schema.extend((20..20 + extra).map(v));
                let mut expect = Relation::new(schema);
                for left in l.rows() {
                    for right in r.rows() {
                        let (sh, ex) = (shared as usize, extra as usize);
                        if (0..sh).all(|c| left[c] == right[ex + sh - 1 - c]) {
                            let row: Vec<TermId> =
                                left.iter().chain(&right[..ex]).copied().collect();
                            expect.push_row(&row);
                        }
                    }
                }
                let j = l.natural_join(&r);
                let ctx = format!("{shared} shared, {extra} extra");
                assert!(!expect.is_empty(), "{ctx}: vacuous case");
                assert_eq!(j.schema(), expect.schema(), "{ctx}");
                assert_eq!(j.len(), expect.len(), "{ctx}");
                assert!(j.rows().eq(expect.rows()), "{ctx}: rows differ");
            }
        }
    }

    #[test]
    fn rename_aligns_columns_for_joins() {
        let mut l = rel(&[0], &[&[1]]);
        let r = rel(&[5], &[&[1]]);
        l.rename(v(0), v(5)).unwrap();
        assert_eq!(l.natural_join(&r).len(), 1);
        assert!(l.rename(v(7), v(8)).is_err());
    }

    #[test]
    fn same_bag_is_order_insensitive_but_schema_sensitive() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[0], &[&[2], &[1]]);
        let c = rel(&[1], &[&[1], &[2]]);
        assert!(a.same_bag(&b));
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn empty_relation_behaviour() {
        let r = Relation::new(vec![v(0), v(1)]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.rows().count(), 0);
        assert!(r.distinct().is_empty());
    }
}
