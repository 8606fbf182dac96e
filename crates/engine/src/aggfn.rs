//! Aggregation functions (the ⊕ of analytical queries) and grouped
//! aggregation (the γ operator).
//!
//! §3.2 of the paper distinguishes aggregation functions by their
//! *distributivity* — whether `⊕(a, ⊕(b, c)) = ⊕(⊕(a, b), c)` — because the
//! correctness argument for drill-out differs between distributive functions
//! (like `sum`) and non-distributive ones (like `avg`). Each [`AggFunc`]
//! therefore carries a [`Distributivity`] classification.
//!
//! Floating-point sums are folded over a **sorted** copy of the bag, so the
//! same multiset of values always aggregates to bit-identical results no
//! matter which evaluation strategy produced it — a requirement for testing
//! the paper's equivalence propositions exactly. Grouped aggregation
//! ([`group_aggregate`]) stably sorts `(key, value)` records on the key and
//! scans them run by run, so each fold sees its values in row order and the
//! output comes out in canonical key order.

use crate::error::EngineError;
use crate::relation::Relation;
use crate::var::VarId;
use rdfcube_rdf::fx::{FxHashMap, FxHashSet};
use rdfcube_rdf::{Dictionary, Term, TermId};
use std::cmp::Ordering::{self, Greater, Less};
use std::fmt;

/// An aggregation function applicable to a bag of measure values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of values in the bag (duplicates count).
    Count,
    /// Number of distinct values in the bag.
    CountDistinct,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Minimum (numeric when all values are numeric, else lexicographic).
    Min,
    /// Maximum (numeric when all values are numeric, else lexicographic).
    Max,
}

/// Distributivity classification, per the drill-out discussion in §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distributivity {
    /// `⊕` can merge partial aggregates: sum, count, min, max.
    Distributive,
    /// Computable from a bounded set of distributive aggregates: avg.
    Algebraic,
    /// Requires the full bag: count-distinct.
    Holistic,
}

impl AggFunc {
    /// The function's distributivity class.
    pub fn distributivity(&self) -> Distributivity {
        match self {
            AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                Distributivity::Distributive
            }
            AggFunc::Avg => Distributivity::Algebraic,
            AggFunc::CountDistinct => Distributivity::Holistic,
        }
    }

    /// Looks a function up by name, in any case: `count`, `count_distinct`,
    /// `sum`, `avg` (or `average`), `min` or `max`.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "count_distinct" => Some(AggFunc::CountDistinct),
            "sum" => Some(AggFunc::Sum),
            "avg" | "average" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// The paper's name for the function.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count_distinct",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "average",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Aggregates a non-empty bag of values.
    ///
    /// Per Definition 1, an empty bag means the fact does not contribute a
    /// cube cell at all, so calling this with an empty bag is a logic error
    /// reported as a validation failure rather than a panic.
    pub fn apply(&self, values: &[TermId], dict: &Dictionary) -> Result<AggValue, EngineError> {
        self.apply_memo(values, dict, &mut FxHashMap::default())
    }

    /// [`Self::apply`] through `memo`, the numeric views (`Term::as_i64`,
    /// `Term::as_f64`) of every value decoded so far: a γ that folds many
    /// bags through one memo parses each distinct value once, with the same
    /// results as `apply`.
    pub fn apply_memo(
        &self,
        values: &[TermId],
        dict: &Dictionary,
        memo: &mut Memo,
    ) -> Result<AggValue, EngineError> {
        if values.is_empty() {
            return Err(EngineError::Validation(
                "aggregate applied to an empty measure bag (the fact should not contribute)".into(),
            ));
        }
        match self {
            AggFunc::Count => Ok(AggValue::Int(values.len() as i64)),
            AggFunc::CountDistinct => {
                let distinct: FxHashSet<TermId> = values.iter().copied().collect();
                Ok(AggValue::Int(distinct.len() as i64))
            }
            AggFunc::Sum => numeric_bag(values, dict, memo, self.name()).map(|bag| bag.sum()),
            AggFunc::Avg => match numeric_bag(values, dict, memo, self.name())?.sum() {
                AggValue::Int(s) => Ok(AggValue::Float(s as f64 / values.len() as f64)),
                AggValue::Float(s) => Ok(AggValue::Float(s / values.len() as f64)),
                AggValue::Term(_) => unreachable!("sum never yields Term"),
            },
            AggFunc::Min => Ok(AggValue::Term(extremum(values, dict, memo, Less))),
            AggFunc::Max => Ok(AggValue::Term(extremum(values, dict, memo, Greater))),
        }
    }
}

/// A term's numeric views, `Term::as_i64` and `Term::as_f64`.
type Views = (Option<i64>, Option<f64>);
/// The views of every term a γ has decoded so far (see [`AggFunc::apply_memo`]).
type Memo = FxHashMap<TermId, Views>;

/// The views of `id`, decoded on its first sight by `memo`.
fn decode(id: TermId, dict: &Dictionary, memo: &mut Memo) -> Result<Views, EngineError> {
    if let Some(&views) = memo.get(&id) {
        return Ok(views);
    }
    let unknown = || EngineError::Schema(format!("unknown term id {id} in aggregate"));
    let term = dict.get(id).ok_or_else(unknown)?;
    Ok(*memo.entry(id).or_insert((term.as_i64(), term.as_f64())))
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of an aggregation — one cube-cell value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// Exact integer result (count, integer sum, …).
    Int(i64),
    /// Floating-point result (averages, mixed-type sums).
    Float(f64),
    /// A term from the input bag (min/max).
    Term(TermId),
}

impl AggValue {
    /// Numeric view (`Term` values resolve through `dict`).
    pub fn as_f64(&self, dict: &Dictionary) -> Option<f64> {
        match self {
            AggValue::Int(i) => Some(*i as f64),
            AggValue::Float(f) => Some(*f),
            AggValue::Term(id) => dict.get(*id).and_then(Term::as_f64),
        }
    }

    /// Renders the value for reports, decoding `Term` against `dict`.
    pub fn display(&self, dict: &Dictionary) -> String {
        match self {
            AggValue::Int(i) => i.to_string(),
            AggValue::Float(f) => format!("{f}"),
            AggValue::Term(id) => dict
                .get(*id)
                .map_or_else(|| id.to_string(), |t| t.display_compact()),
        }
    }

    /// Approximate equality: exact for `Int`/`Term`, ε-relative for floats.
    pub fn approx_eq(&self, other: &AggValue, eps: f64) -> bool {
        match (self, other) {
            (AggValue::Int(a), AggValue::Int(b)) => a == b,
            (AggValue::Term(a), AggValue::Term(b)) => a == b,
            (AggValue::Float(a), AggValue::Float(b)) => {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= eps * scale
            }
            (AggValue::Int(a), AggValue::Float(b)) | (AggValue::Float(b), AggValue::Int(a)) => {
                (*a as f64 - b).abs() <= eps * (*a as f64).abs().max(b.abs()).max(1.0)
            }
            _ => false,
        }
    }
}

/// A bag of numeric values, kept as exact integers when possible.
enum NumericBag {
    Ints(Vec<i64>),
    Floats(Vec<f64>),
}

impl NumericBag {
    fn sum(self) -> AggValue {
        match self {
            NumericBag::Ints(ints) => match ints.iter().try_fold(0i64, |s, &i| s.checked_add(i)) {
                Some(sum) => AggValue::Int(sum),
                // Fall back to floats on overflow instead of wrapping.
                None => NumericBag::Floats(ints.iter().map(|&i| i as f64).collect()).sum(),
            },
            NumericBag::Floats(mut floats) => {
                floats.sort_unstable_by(f64::total_cmp);
                AggValue::Float(floats.iter().sum())
            }
        }
    }
}

fn numeric_bag(
    values: &[TermId],
    dict: &Dictionary,
    memo: &mut Memo,
    func: &str,
) -> Result<NumericBag, EngineError> {
    let non_numeric = |id| {
        let term = dict.get(id).map(Term::to_string).unwrap_or_default();
        EngineError::NonNumericAggregate(format!("{func} over non-numeric value {term}"))
    };
    let mut ints = Vec::with_capacity(values.len());
    for &id in values {
        match decode(id, dict, memo)?.0 {
            Some(i) => ints.push(i),
            None => {
                // Mixed bag: re-read everything as floats.
                let float = |&id: &TermId| {
                    let f = decode(id, dict, memo)?.1.filter(|f| !f.is_nan());
                    f.ok_or_else(|| non_numeric(id))
                };
                let floats = values.iter().map(float).collect::<Result<_, _>>()?;
                return Ok(NumericBag::Floats(floats));
            }
        }
    }
    Ok(NumericBag::Ints(ints))
}

/// Picks the minimal (`wanted` is `Less`) or maximal (`Greater`) term of
/// the bag: numerically when every value
/// is numeric, otherwise lexicographically on the rendered term. Ties break
/// on the rendered form then the id, so the result is deterministic across
/// evaluation strategies. Each value is decoded once per memo; text is
/// rendered, into two reused buffers, only to order two distinct ids the
/// numbers do not.
fn extremum(values: &[TermId], dict: &Dictionary, memo: &mut Memo, wanted: Ordering) -> TermId {
    use std::fmt::Write;
    let numbers: Option<Vec<f64>> = values
        .iter()
        .map(|&id| decode(id, dict, memo).ok().and_then(|views| views.1))
        .collect();
    let (mut a, mut b) = (String::new(), String::new());
    let mut by_text = |x: TermId, y: TermId| {
        if x == y {
            return Ordering::Equal;
        }
        for (text, id) in [(&mut a, x), (&mut b, y)] {
            text.clear();
            let _ = match dict.get(id) {
                Some(term) => write!(text, "{term}"),
                None => write!(text, "{id}"),
            };
        }
        a.cmp(&b).then(x.0.cmp(&y.0))
    };
    let mut best = 0;
    for i in 1..values.len() {
        let by_number = numbers
            .as_ref()
            .map_or(Ordering::Equal, |n| n[i].total_cmp(&n[best]));
        if by_number.then_with(|| by_text(values[i], values[best])) == wanted {
            best = i;
        }
    }
    values[best]
}

/// γ — grouped aggregation over a relation: groups rows by `group_cols`,
/// aggregates the `value_col` column of each group with `func`.
///
/// Returns `(group key, aggregate)` pairs sorted by key, a canonical order
/// that makes results directly comparable across strategies. One stable
/// sort of the `(key…, value)` records on the key clusters each group, its
/// bag in row order, and one scan aggregates the runs through one decode
/// memo ([`AggFunc::apply_memo`]).
pub fn group_aggregate(
    rel: &Relation,
    group_cols: &[VarId],
    value_col: VarId,
    func: AggFunc,
    dict: &Dictionary,
) -> Result<Vec<(Vec<TermId>, AggValue)>, EngineError> {
    let group_idx: Vec<usize> = group_cols
        .iter()
        .map(|&v| rel.col_required(v))
        .collect::<Result<_, _>>()?;
    let value_idx = rel.col_required(value_col)?;
    let n = group_idx.len();
    let mut flat: Vec<TermId> = Vec::with_capacity(rel.len() * (n + 1));
    for row in rel.rows() {
        flat.extend(group_idx.iter().map(|&i| row[i]));
        flat.push(row[value_idx]);
    }
    let mut records: Vec<&[TermId]> = flat.chunks_exact(n + 1).collect();
    records.sort_by(|a, b| a[..n].cmp(&b[..n]));
    let (mut out, mut bag, mut memo) = (Vec::new(), Vec::new(), FxHashMap::default());
    for run in records.chunk_by(|a, b| a[..n] == b[..n]) {
        bag.clear();
        bag.extend(run.iter().map(|record| record[n]));
        out.push((
            run[0][..n].to_vec(),
            func.apply_memo(&bag, dict, &mut memo)?,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_rdf::Term;

    fn dict_with_ints(values: &[i64]) -> (Dictionary, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids = values
            .iter()
            .map(|&v| d.encode(&Term::integer(v)))
            .collect();
        (d, ids)
    }

    #[test]
    fn count_counts_duplicates() {
        // Example 2: bag {|s1, s1, s2|} counts to 3.
        let (d, ids) = dict_with_ints(&[1, 1, 2]);
        assert_eq!(AggFunc::Count.apply(&ids, &d).unwrap(), AggValue::Int(3));
        assert_eq!(
            AggFunc::CountDistinct.apply(&ids, &d).unwrap(),
            AggValue::Int(2)
        );
    }

    #[test]
    fn sum_and_avg_exact_integers() {
        // Example 4: average of {100, 120, 410} = 210.
        let (d, ids) = dict_with_ints(&[100, 120, 410]);
        assert_eq!(AggFunc::Sum.apply(&ids, &d).unwrap(), AggValue::Int(630));
        assert_eq!(
            AggFunc::Avg.apply(&ids, &d).unwrap(),
            AggValue::Float(210.0)
        );
    }

    #[test]
    fn sum_overflow_falls_back_to_float() {
        let (d, ids) = dict_with_ints(&[i64::MAX, i64::MAX]);
        match AggFunc::Sum.apply(&ids, &d).unwrap() {
            AggValue::Float(f) => assert!(f > 1e18),
            other => panic!("expected float fallback, got {other:?}"),
        }
    }

    #[test]
    fn mixed_numeric_bag_sums_as_float() {
        let mut d = Dictionary::new();
        let ids = vec![d.encode(&Term::integer(1)), d.encode(&Term::double(2.5))];
        assert_eq!(AggFunc::Sum.apply(&ids, &d).unwrap(), AggValue::Float(3.5));
    }

    #[test]
    fn non_numeric_sum_is_an_error() {
        let mut d = Dictionary::new();
        let ids = vec![d.encode(&Term::literal("Madrid"))];
        assert!(matches!(
            AggFunc::Sum.apply(&ids, &d),
            Err(EngineError::NonNumericAggregate(_))
        ));
    }

    #[test]
    fn empty_bag_is_rejected() {
        let d = Dictionary::new();
        assert!(AggFunc::Count.apply(&[], &d).is_err());
    }

    #[test]
    fn min_max_numeric() {
        let (d, ids) = dict_with_ints(&[35, 28, 40]);
        assert_eq!(
            AggFunc::Min.apply(&ids, &d).unwrap(),
            AggValue::Term(ids[1])
        );
        assert_eq!(
            AggFunc::Max.apply(&ids, &d).unwrap(),
            AggValue::Term(ids[2])
        );
    }

    #[test]
    fn min_max_lexicographic_for_strings() {
        let mut d = Dictionary::new();
        let ids = vec![
            d.encode(&Term::literal("Madrid")),
            d.encode(&Term::literal("Kyoto")),
            d.encode(&Term::literal("NY")),
        ];
        assert_eq!(
            AggFunc::Min.apply(&ids, &d).unwrap(),
            AggValue::Term(ids[1])
        );
        assert_eq!(
            AggFunc::Max.apply(&ids, &d).unwrap(),
            AggValue::Term(ids[2])
        );
    }

    /// `extremum` as it was before it stopped rendering every value twice
    /// per comparison: one `(number?, text, id)` key per value.
    fn extremum_by_keys(values: &[TermId], d: &Dictionary, want_max: bool) -> TermId {
        use std::cmp::Ordering;
        let all_numeric = values
            .iter()
            .all(|&id| d.get(id).and_then(Term::as_f64).is_some());
        let key = |id: TermId| {
            let term = d.get(id).unwrap();
            (
                term.as_f64().filter(|_| all_numeric),
                term.to_string(),
                id.0,
            )
        };
        let wanted = if want_max {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        let mut best = values[0];
        for &v in &values[1..] {
            let ((nv, tv, iv), (nb, tb, ib)) = (key(v), key(best));
            let by_number = nv.zip(nb).map_or(Ordering::Equal, |(x, y)| x.total_cmp(&y));
            if by_number.then(tv.cmp(&tb)).then(iv.cmp(&ib)) == wanted {
                best = v;
            }
        }
        best
    }

    #[test]
    fn min_max_break_numeric_ties_on_text_then_id() {
        let mut d = Dictionary::new();
        let terms = [
            Term::integer(7),
            Term::literal("9.0"),
            Term::double(3.0),
            Term::literal(" 3"),
            Term::integer(9),
            Term::literal("3e0"),
            Term::integer(3),
            Term::integer(7),
        ];
        let tied: Vec<TermId> = terms.iter().map(|t| d.encode(t)).collect();
        // Every 3 and every 9 ties on its number; the rendered text decides:
        // `" 3"` sorts first and `"9.0"` after `"9"^^<…integer>`.
        let min = AggFunc::Min.apply(&tied, &d).unwrap();
        let max = AggFunc::Max.apply(&tied, &d).unwrap();
        assert_eq!(
            (min, max),
            (AggValue::Term(tied[3]), AggValue::Term(tied[1]))
        );
        // Not all numeric: every value compares as text.
        let words = ["NY", "Kyoto", "12", "Madrid", "Kyoto"].map(|w| d.encode(&Term::literal(w)));
        let mut mixed = words.to_vec();
        mixed.push(d.encode(&Term::iri("Kyoto")));
        for bag in [&tied[..], &words[..], &mixed[..], &tied[6..], &words[1..2]] {
            for (func, want_max) in [(AggFunc::Min, false), (AggFunc::Max, true)] {
                let want = AggValue::Term(extremum_by_keys(bag, &d, want_max));
                assert_eq!(func.apply(bag, &d).unwrap(), want, "{func:?} of {bag:?}");
            }
        }
    }

    #[test]
    fn float_sum_is_order_independent() {
        let mut d = Dictionary::new();
        let a: Vec<TermId> = [0.1, 0.2, 0.3, 1e10, -1e10]
            .iter()
            .map(|&f| d.encode(&Term::double(f)))
            .collect();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(
            AggFunc::Sum.apply(&a, &d).unwrap(),
            AggFunc::Sum.apply(&b, &d).unwrap()
        );
    }

    #[test]
    fn distributivity_classification() {
        assert_eq!(AggFunc::Sum.distributivity(), Distributivity::Distributive);
        assert_eq!(
            AggFunc::Count.distributivity(),
            Distributivity::Distributive
        );
        assert_eq!(AggFunc::Avg.distributivity(), Distributivity::Algebraic);
        assert_eq!(
            AggFunc::CountDistinct.distributivity(),
            Distributivity::Holistic
        );
    }

    #[test]
    fn names_look_up_in_any_case() {
        for func in [
            AggFunc::Count,
            AggFunc::CountDistinct,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            assert_eq!(AggFunc::from_name(func.name()), Some(func));
            assert_eq!(AggFunc::from_name(&func.name().to_uppercase()), Some(func));
        }
        assert_eq!(AggFunc::from_name("Avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn group_aggregate_groups_and_sorts() {
        use crate::var::VarId;
        let mut d = Dictionary::new();
        let madrid = d.encode(&Term::literal("Madrid"));
        let ny = d.encode(&Term::literal("NY"));
        let v100 = d.encode(&Term::integer(100));
        let v120 = d.encode(&Term::integer(120));
        let v570 = d.encode(&Term::integer(570));

        let mut rel = Relation::new(vec![VarId(0), VarId(1)]);
        rel.push_row(&[madrid, v100]);
        rel.push_row(&[madrid, v120]);
        rel.push_row(&[ny, v570]);

        let groups = group_aggregate(&rel, &[VarId(0)], VarId(1), AggFunc::Avg, &d).unwrap();
        assert_eq!(groups.len(), 2);
        let madrid_avg = groups.iter().find(|(k, _)| k[0] == madrid).unwrap();
        assert_eq!(madrid_avg.1, AggValue::Float(110.0));
    }

    #[test]
    fn group_aggregate_empty_group_cols_is_global() {
        let (d, ids) = dict_with_ints(&[1, 2, 3]);
        let mut rel = Relation::new(vec![VarId(0)]);
        for id in &ids {
            rel.push_row(&[*id]);
        }
        let groups = group_aggregate(&rel, &[], VarId(0), AggFunc::Sum, &d).unwrap();
        assert_eq!(groups, vec![(vec![], AggValue::Int(6))]);
    }

    #[test]
    fn group_aggregate_agrees_with_a_map_of_bags_at_every_arity() {
        use std::collections::BTreeMap;
        let (d, ids) = dict_with_ints(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let funcs = [
            AggFunc::Count,
            AggFunc::CountDistinct,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        for n in 0u16..=4 {
            // The value column sits among the grouping columns, which are
            // grouped on in reverse schema order; keys draw from three ids,
            // so groups repeat and hold several values.
            let value = VarId(n / 2);
            let schema: Vec<VarId> = (0..=n).map(VarId).collect();
            let group: Vec<VarId> = schema
                .iter()
                .rev()
                .copied()
                .filter(|&c| c != value)
                .collect();
            let mut rel = Relation::new(schema.clone());
            for i in 0..60usize {
                let row: Vec<TermId> = schema
                    .iter()
                    .map(|&c| match c == value {
                        true => ids[(i * 5 + 1) % ids.len()],
                        false => ids[(i * (c.0 as usize + 2) / 3) % 3],
                    })
                    .collect();
                rel.push_row(&row);
            }
            let mut bags: BTreeMap<Vec<TermId>, Vec<TermId>> = BTreeMap::new();
            for row in rel.rows() {
                let key = group.iter().map(|&c| row[c.0 as usize]).collect();
                bags.entry(key).or_default().push(row[value.0 as usize]);
            }
            for func in funcs {
                let got = group_aggregate(&rel, &group, value, func, &d).unwrap();
                let want: Vec<(Vec<TermId>, AggValue)> = bags
                    .iter()
                    .map(|(key, bag)| (key.clone(), func.apply(bag, &d).unwrap()))
                    .collect();
                assert_eq!(got, want, "{n} grouping columns, {func}");
                let empty = Relation::new(schema.clone());
                assert!(group_aggregate(&empty, &group, value, func, &d)
                    .unwrap()
                    .is_empty());
            }
        }
    }

    #[test]
    fn agg_value_display_and_approx_eq() {
        let mut d = Dictionary::new();
        let id = d.encode(&Term::literal("NY"));
        assert_eq!(AggValue::Int(3).display(&d), "3");
        assert_eq!(AggValue::Term(id).display(&d), "NY");
        assert!(AggValue::Float(1.0).approx_eq(&AggValue::Float(1.0 + 1e-12), 1e-9));
        assert!(AggValue::Int(2).approx_eq(&AggValue::Float(2.0), 1e-9));
        assert!(!AggValue::Int(2).approx_eq(&AggValue::Int(3), 1e-9));
    }
}
