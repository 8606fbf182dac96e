//! Aggregation functions (the ⊕ of analytical queries) and grouped
//! aggregation (the γ operator).
//!
//! §3.2 of the paper distinguishes aggregation functions by their
//! *distributivity* — whether `⊕(a, ⊕(b, c)) = ⊕(⊕(a, b), c)` — because the
//! correctness argument for drill-out differs between distributive functions
//! (like `sum`) and non-distributive ones (like `avg`). Each [`AggFunc`]
//! therefore carries a [`Distributivity`] classification.
//!
//! γ is one [`Fold`] per call, which aggregates a cell in one pass over the
//! runs of ids that make up its bag (a `pres` cell's fact runs, a group's
//! records), never gathering the bag, and reads numbers from the
//! dictionary's numeric column, decoded once at encode: no γ parses text.
//! Integer sums are exact; a floating-point sum is folded over a **sorted**
//! copy of the bag, so the same multiset of values always aggregates to
//! bit-identical results no matter which evaluation strategy produced it or
//! how its runs are cut — a requirement for testing the paper's equivalence
//! propositions exactly. [`AggFunc::apply`] is the fold of one run; grouped
//! aggregation ([`group_aggregate`]) stably sorts `(key, value)` records on
//! the key and folds each group, so the output comes out in canonical key
//! order.

use crate::error::EngineError;
use crate::relation::Relation;
use crate::var::VarId;
use rdfcube_rdf::{Dictionary, TermId};
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

    /// Aggregates a non-empty bag of values: the [`Fold`] of one run.
    ///
    /// Per Definition 1, an empty bag means the fact does not contribute a
    /// cube cell at all, so calling this with an empty bag is a logic error
    /// reported as a validation failure rather than a panic. A caller with
    /// many bags folds them through one [`AggFunc::fold`], which keeps its
    /// buffers (for `count_distinct`, one slot per dictionary id).
    pub fn apply(&self, values: &[TermId], dict: &Dictionary) -> Result<AggValue, EngineError> {
        self.fold(dict).cell([values])
    }

    /// γ with this function over ids of `dict`: a [`Fold`] that aggregates
    /// cell after cell through the same buffers.
    pub fn fold(self, dict: &Dictionary) -> Fold<'_> {
        // Zeroed by the allocator: a page is touched only when an id on it is.
        let seen = match self {
            AggFunc::CountDistinct => vec![0; dict.len()],
            _ => Vec::new(),
        };
        Fold {
            func: self,
            dict,
            floats: Vec::new(),
            seen,
            stamp: 0,
            text: Default::default(),
        }
    }
}

/// The runs of ids that together make up one cell's bag; iterable again.
pub trait Runs<'a>: IntoIterator<Item = &'a [TermId]> + Clone {}
impl<'a, R: IntoIterator<Item = &'a [TermId]> + Clone> Runs<'a> for R {}

/// γ's fold: aggregates one cell at a time in one pass over the runs that
/// make up its bag, which is never gathered, reading each value's number
/// from the dictionary's numeric column ([`Dictionary::as_i64`],
/// [`Dictionary::as_f64`]).
///
/// * `count` sums the run lengths and reads no value;
/// * `count_distinct` stamps each id in an id-indexed array every cell
///   reuses;
/// * `sum` / `avg` fold a checked `i64` sum;
/// * `min` / `max` keep the best number.
///
/// A cell the fast fold cannot settle falls back, inside the fold, to the
/// exact rules: a sum with a non-integer value or an overflow is the sum of
/// the sorted floats, so the same multiset always sums to the same bits; a
/// min/max with a non-numeric value orders every value by its rendered
/// text, and two distinct ids with equal numbers are ordered by text too.
pub struct Fold<'d> {
    func: AggFunc,
    dict: &'d Dictionary,
    /// The cell's values as floats, for the sorted sum.
    floats: Vec<f64>,
    /// Per id, the stamp of the last `count_distinct` cell that held it.
    seen: Vec<u32>,
    stamp: u32,
    /// Two rendered terms, for a text comparison.
    text: [String; 2],
}

impl Fold<'_> {
    /// Aggregates the bag that `runs` make up together.
    pub fn cell<'a>(&mut self, runs: impl Runs<'a>) -> Result<AggValue, EngineError> {
        let value = match self.func {
            AggFunc::Count => {
                let n: usize = runs.into_iter().map(<[TermId]>::len).sum();
                (n > 0).then_some(AggValue::Int(n as i64))
            }
            AggFunc::CountDistinct => self.count_distinct(runs),
            AggFunc::Sum => self.sum(runs)?.map(|(sum, _)| sum),
            AggFunc::Avg => self
                .sum(runs)?
                .and_then(|(sum, n)| Some(AggValue::Float(sum.as_f64(self.dict)? / n as f64))),
            AggFunc::Min => self.extremum(runs, Less).map(AggValue::Term),
            AggFunc::Max => self.extremum(runs, Greater).map(AggValue::Term),
        };
        value.ok_or_else(|| {
            EngineError::Validation(
                "aggregate applied to an empty measure bag (the fact should not contribute)".into(),
            )
        })
    }

    fn count_distinct<'a>(&mut self, runs: impl Runs<'a>) -> Option<AggValue> {
        self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
            self.seen.fill(0);
            1
        });
        let mut n = 0;
        for &id in runs.into_iter().flatten() {
            if id.index() >= self.seen.len() {
                self.seen.resize(id.index() + 1, 0); // a foreign id
            }
            let seen = &mut self.seen[id.index()];
            n += (*seen != self.stamp) as i64;
            *seen = self.stamp;
        }
        (n > 0).then_some(AggValue::Int(n))
    }

    /// The cell's sum, kept an exact integer when possible, and its size.
    fn sum<'a>(&mut self, runs: impl Runs<'a>) -> Result<Option<(AggValue, usize)>, EngineError> {
        let (mut sum, mut n) = (0i64, 0);
        for run in runs.clone() {
            for &id in run {
                match self.dict.as_i64(id).and_then(|i| sum.checked_add(i)) {
                    Some(s) => sum = s,
                    None => return self.float_sum(runs).map(Some),
                }
            }
            n += run.len();
        }
        Ok((n > 0).then_some((AggValue::Int(sum), n)))
    }

    /// A sum that is not an `i64` fold: of every value's float view,
    /// sorted. (When the fold overflowed, every value is an integer whose
    /// float view is the integer as a float, up to the sign of a zero,
    /// which no float sum holding a nonzero value shows.)
    fn float_sum<'a>(&mut self, runs: impl Runs<'a>) -> Result<(AggValue, usize), EngineError> {
        let (dict, func) = (self.dict, self.func.name());
        self.floats.clear();
        for &id in runs.into_iter().flatten() {
            let float = dict.as_f64(id).filter(|f| !f.is_nan());
            self.floats.push(float.ok_or_else(|| match dict.get(id) {
                Some(term) => EngineError::NonNumericAggregate(format!(
                    "{func} over non-numeric value {term}"
                )),
                None => EngineError::Schema(format!("unknown term id {id} in aggregate")),
            })?);
        }
        self.floats.sort_unstable_by(f64::total_cmp);
        Ok((AggValue::Float(self.floats.iter().sum()), self.floats.len()))
    }

    /// The minimal (`wanted` is `Less`) or maximal (`Greater`) term of the
    /// cell, in the order `(number, text, id)` when every value is a number
    /// and `(text, id)` otherwise. The order is total, so the result does
    /// not depend on the order of the runs. Text is rendered only to order
    /// two distinct ids the numbers do not, or once a value is not a number.
    fn extremum<'a>(&mut self, runs: impl Runs<'a>, wanted: Ordering) -> Option<TermId> {
        let (dict, text) = (self.dict, &mut self.text);
        let mut best: Option<(TermId, f64)> = None;
        for &id in runs.clone().into_iter().flatten() {
            let Some(x) = dict.as_f64(id) else {
                let values = runs.into_iter().flatten().copied();
                let order = |a: &TermId, b: &TermId| by_text(dict, text, *a, *b);
                return match wanted {
                    Less => values.min_by(order),
                    _ => values.max_by(order),
                };
            };
            match best {
                Some((b, y))
                    if x.total_cmp(&y).then_with(|| by_text(dict, text, id, b)) != wanted => {}
                _ => best = Some((id, x)),
            }
        }
        best.map(|(id, _)| id)
    }
}

/// Orders two ids by their rendered terms (a foreign id renders as itself),
/// written into the two `text` buffers, then by the id; an id equals itself.
fn by_text(dict: &Dictionary, [a, b]: &mut [String; 2], x: TermId, y: TermId) -> Ordering {
    use std::fmt::Write;
    if x == y {
        return Ordering::Equal;
    }
    for (text, id) in [(&mut *a, x), (&mut *b, y)] {
        text.clear();
        let _ = match dict.get(id) {
            Some(term) => write!(text, "{term}"),
            None => write!(text, "{id}"),
        };
    }
    a.cmp(&b).then(x.0.cmp(&y.0))
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
            AggValue::Term(id) => dict.as_f64(*id),
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

/// γ — grouped aggregation over a relation: groups rows by `group_cols`,
/// aggregates the `value_col` column of each group with `func`.
///
/// Returns `(group key, aggregate)` pairs sorted by key, a canonical order
/// that makes results directly comparable across strategies. One stable
/// sort of the `(key…, value)` records on the key clusters each group, and
/// one [`Fold`] aggregates each group's records, a run of one value each.
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
    let (mut out, mut fold) = (Vec::new(), func.fold(dict));
    for group in records.chunk_by(|a, b| a[..n] == b[..n]) {
        let runs = group.iter().map(|record| &record[n..]);
        out.push((group[0][..n].to_vec(), fold.cell(runs)?));
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

    /// `AggFunc::apply` as it was before γ became a fold over runs: one
    /// bag, each value's numeric views parsed from its term, a hash set for
    /// `count_distinct` and `extremum_by_keys` for `min` / `max`.
    fn apply_by_bag(
        func: AggFunc,
        values: &[TermId],
        d: &Dictionary,
    ) -> Result<AggValue, EngineError> {
        use rdfcube_rdf::fx::FxHashSet;
        if values.is_empty() {
            return Err(EngineError::Validation(
                "aggregate applied to an empty measure bag (the fact should not contribute)".into(),
            ));
        }
        let views = |id: TermId| {
            let unknown = || EngineError::Schema(format!("unknown term id {id} in aggregate"));
            let term = d.get(id).ok_or_else(unknown)?;
            Ok::<_, EngineError>((term.as_i64(), term.as_f64()))
        };
        let float = |&id: &TermId| {
            let f = views(id)?.1.filter(|f| !f.is_nan());
            let term = d.term(id);
            f.ok_or_else(|| {
                EngineError::NonNumericAggregate(format!("{func} over non-numeric value {term}"))
            })
        };
        let float_sum = |mut floats: Vec<f64>| {
            floats.sort_unstable_by(f64::total_cmp);
            AggValue::Float(floats.iter().sum())
        };
        let sum = || {
            let ints: Option<Vec<i64>> = values.iter().map(|&id| views(id).ok()?.0).collect();
            Ok::<_, EngineError>(match ints {
                Some(ints) => match ints.iter().try_fold(0i64, |s, &i| s.checked_add(i)) {
                    Some(sum) => AggValue::Int(sum),
                    None => float_sum(ints.iter().map(|&i| i as f64).collect()),
                },
                None => float_sum(values.iter().map(float).collect::<Result<_, _>>()?),
            })
        };
        let n = values.len() as f64;
        Ok(match func {
            AggFunc::Count => AggValue::Int(values.len() as i64),
            AggFunc::CountDistinct => {
                AggValue::Int(values.iter().collect::<FxHashSet<_>>().len() as i64)
            }
            AggFunc::Sum => sum()?,
            AggFunc::Avg => match sum()? {
                AggValue::Int(s) => AggValue::Float(s as f64 / n),
                AggValue::Float(s) => AggValue::Float(s / n),
                AggValue::Term(_) => unreachable!(),
            },
            AggFunc::Min => AggValue::Term(extremum_by_keys(values, d, false)),
            AggFunc::Max => AggValue::Term(extremum_by_keys(values, d, true)),
        })
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

    /// Measure terms for the fold's property test: integers, decimals and
    /// doubles; values whose sums leave `i64`; distinct ids with equal
    /// numbers; `NaN` and infinities; text and an IRI. Bags draw from the
    /// first 9 (integers only), the first 21 (numbers only) or all.
    fn fold_pool(d: &mut Dictionary) -> Vec<TermId> {
        let mut terms = vec![
            Term::integer(3),
            Term::integer(-7),
            Term::integer(0),
            Term::literal("1"),
            Term::literal("01"),
            Term::literal("-0"),
            Term::integer(i64::MAX),
            Term::integer(i64::MAX - 1),
            Term::integer(i64::MIN),
            Term::double(2.5),
            Term::double(0.1),
            Term::literal("1.0"),
            Term::literal("-0.0"),
            Term::double(-1e300),
            Term::double(3.0),
            Term::literal("3e0"),
            Term::literal("NaN"),
            Term::literal("-NaN"),
            Term::literal("inf"),
            Term::literal("-inf"),
            Term::double(1e19),
        ];
        terms.extend([
            Term::literal("Madrid"),
            Term::literal("Kyoto"),
            Term::literal(" 3"),
            Term::iri("1"),
        ]);
        terms.iter().map(|t| d.encode(t)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// One `Fold` over a sequence of cells, each a bag cut into runs
        /// (some empty), gives every ⊕ bit for bit what the bag-based
        /// `apply` gave the whole bag, errors included.
        #[test]
        fn fold_over_runs_equals_the_bag_based_apply(
            cells in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::collection::vec(0usize..1000, 0..14),
                    proptest::collection::vec(0usize..15, 0..4),
                ),
                1..6,
            ),
        ) {
            let mut d = Dictionary::new();
            let pool = fold_pool(&mut d);
            let funcs = [
                AggFunc::Count,
                AggFunc::CountDistinct,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ];
            let bits = |v: AggValue| match v {
                AggValue::Int(i) => (0, i as u64),
                AggValue::Float(f) => (1, f.to_bits()),
                AggValue::Term(id) => (2, id.0 as u64),
            };
            for func in funcs {
                let mut fold = func.fold(&d);
                for (kind, picks, cuts) in &cells {
                    let reach = [9, 21, pool.len()][*kind];
                    let bag: Vec<TermId> = picks.iter().map(|&p| pool[p % reach]).collect();
                    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bag.len())).collect();
                    cuts.sort_unstable();
                    let runs = std::iter::once(0)
                        .chain(cuts.iter().copied())
                        .zip(cuts.iter().copied().chain(std::iter::once(bag.len())))
                        .map(|(a, b)| &bag[a..b]);
                    let exact = |v: Result<AggValue, EngineError>| v.map(bits).map_err(|e| format!("{e:?}"));
                    let want = exact(apply_by_bag(func, &bag, &d));
                    proptest::prop_assert_eq!(exact(fold.cell(runs)), want.clone(), "{} of {:?}", func, bag);
                    proptest::prop_assert_eq!(exact(func.apply(&bag, &d)), want, "{} of {:?}", func, bag);
                }
            }
        }
    }
}
