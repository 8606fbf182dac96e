//! Cube answers — the answer set of an analytical query (Definition 1).
//!
//! `ans(Q, I)` is the set of tuples `⟨d₁…dₙ, ⊕(qʲ(I))⟩`: one cell per
//! distinct dimension vector appearing in the classifier answer, holding the
//! aggregate of the *bag union* of the measure values of every fact with
//! those dimension values. Facts whose measure bag is empty contribute no
//! cell (the aggregated measure is undefined).
//!
//! # Layout
//!
//! A [`Cube`] is two columns: a flat **key column** of `n` term ids a cell,
//! strictly ascending — the layout of `pres(Q)`'s cell heads
//! ([`crate::pres`]) without the fact — and one [`AggValue`] per cell, in
//! the same order. Both are exact-size boxed slices, as a cube never
//! changes once built. A cell costs `4n + 16` bytes and no allocation of its
//! own, and every read is a read of the columns: [`Cube::get`] gallops over
//! the keys, [`Cube::cells`] pairs them with the values, and σ
//! ([`crate::rewrite::dice_from_ans`]) walks the key column in blocks the
//! way a SLICE/DICE walks `pres`'s heads, copying admitted cells in ranges.
//! `pres`'s cell scan and σ emit cells in key order and fill the columns
//! directly; [`Cube::from_cells`] sorts anything else.

use crate::anq::AnalyticalQuery;
use crate::error::CoreError;
use crate::extended::CompiledSigma;
use crate::pres::{gallop, select_rows};
use rdfcube_engine::{evaluate, group_aggregate, AggFunc, AggValue, Relation, Semantics, VarId};
use rdfcube_rdf::{Dictionary, Graph, TermId};

/// The materialized answer of an analytical query: an n-dimensional cube
/// (see the [module docs](self) for its layout).
#[derive(Debug, Clone)]
pub struct Cube {
    dim_names: Box<[String]>,
    agg: AggFunc,
    /// The cells' dimension vectors, `n_dims` ids each, strictly ascending.
    keys: Box<[TermId]>,
    /// One aggregate per cell, in key order.
    values: Box<[AggValue]>,
}

impl Cube {
    /// Builds a cube from `(dimension vector, aggregate)` pairs, one per
    /// cell, in any order.
    ///
    /// # Panics
    ///
    /// If a dimension vector does not hold one value per dimension name
    /// (and, in debug builds, if two pairs share a dimension vector).
    pub fn from_cells(
        dim_names: Vec<String>,
        agg: AggFunc,
        mut cells: Vec<(Vec<TermId>, AggValue)>,
    ) -> Self {
        let n = dim_names.len();
        let width = cells.iter().all(|(key, _)| key.len() == n);
        assert!(width, "every key of the cube holds {n} values");
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let keys = cells.iter().flat_map(|(key, _)| key).copied().collect();
        let values = cells.into_iter().map(|(_, value)| value).collect();
        Cube::from_columns(dim_names, agg, keys, values)
    }

    /// The one way a cube comes to be: a key column of `dim_names.len()` ids
    /// a cell, strictly ascending, and the cells' aggregates in that order.
    pub(crate) fn from_columns(
        dim_names: Vec<String>,
        agg: AggFunc,
        keys: Vec<TermId>,
        values: Vec<AggValue>,
    ) -> Self {
        let cube = Cube {
            dim_names: dim_names.into(),
            agg,
            keys: keys.into(),
            values: values.into(),
        };
        let ascending = cube.cells().map(|(key, _)| key).is_sorted_by(|a, b| a < b);
        debug_assert!(cube.keys.len() == cube.len() * cube.n_dims() && ascending);
        cube
    }

    /// The dimension names, in classifier-head order.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.dim_names.len()
    }

    /// The aggregation function that produced the cells.
    pub fn agg(&self) -> AggFunc {
        self.agg
    }

    /// The cells, sorted by dimension vector.
    pub fn cells(&self) -> Cells<'_> {
        Cells(self.n_dims(), &self.keys, &self.values)
    }

    /// The same cube under different (user-facing) dimension names — used
    /// when a cube derived from another query's materialization is stored
    /// under the new query's own naming.
    ///
    /// # Panics
    ///
    /// If `dim_names` does not name as many dimensions as the cube has.
    pub fn with_dim_names(mut self, dim_names: Vec<String>) -> Self {
        assert_eq!(dim_names.len(), self.n_dims());
        self.dim_names = dim_names.into();
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate memory footprint in bytes, mirroring
    /// [`crate::PartialResult::approx_bytes`]: per cell, its `n_dims` term
    /// ids in the key column plus its aggregate value. The cube catalog
    /// charges both `ans(Q)` and `pres(Q)` against the session's memory
    /// budget with these estimates.
    pub fn approx_bytes(&self) -> usize {
        let ids = self.keys.len() * std::mem::size_of::<TermId>();
        std::mem::size_of::<Self>() + ids + self.len() * std::mem::size_of::<AggValue>()
    }

    /// The aggregate for an exact dimension vector, if that cell exists.
    pub fn get(&self, key: &[TermId]) -> Option<&AggValue> {
        let n = self.n_dims();
        let key_of = |c: usize| &self.keys[c * n..][..n];
        let at = gallop(0, self.len(), |c| key_of(c) < key);
        (at < self.len() && key_of(at) == key).then(|| &self.values[at])
    }

    /// σ over the cube: the cells `sigma` admits, copied in ranges.
    pub(crate) fn select_cells(&self, sigma: &CompiledSigma, dict: &Dictionary) -> Cube {
        let (n, mut keys, mut values) = (self.n_dims(), vec![], vec![]);
        select_rows(&self.keys, n, self.len(), sigma, dict, |cells| {
            keys.extend_from_slice(&self.keys[cells.start * n..cells.end * n]);
            values.extend_from_slice(&self.values[cells]);
        });
        Cube::from_columns(self.dim_names.to_vec(), self.agg, keys, values)
    }

    /// Exact equality of cells (integer/term aggregates compare exactly;
    /// float aggregates must be bit-identical — our aggregation folds floats
    /// in sorted order precisely so that this holds across strategies).
    pub fn same_cells(&self, other: &Cube) -> bool {
        self.cells() == other.cells()
    }

    /// ε-tolerant comparison for floating-point workloads.
    pub fn approx_same(&self, other: &Cube, eps: f64) -> bool {
        let close = |(a, b): (&AggValue, &AggValue)| a.approx_eq(b, eps);
        self.keys == other.keys
            && self.len() == other.len()
            && self.values.iter().zip(&other.values).all(close)
    }

    /// Exports the cube as CSV (RFC-4180-style quoting), one row per cell,
    /// header = dimension names + the aggregate column.
    pub fn to_csv(&self, dict: &Dictionary) -> String {
        fn field(s: &String) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut header = self.dim_names.to_vec();
        header.push(format!("{}_v", self.agg));
        let mut out = String::new();
        for row in std::iter::once(header).chain(self.decoded(dict)) {
            out.push_str(&row.iter().map(field).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the cube as an aligned text table, decoding terms against
    /// `dict` (for examples and reports).
    pub fn to_table(&self, dict: &Dictionary) -> String {
        let mut header = self.dim_names.to_vec();
        header.push(format!("{}(v)", self.agg));
        render_table(&header, &self.decoded(dict).collect::<Vec<_>>())
    }

    /// The cells decoded against `dict`: the dimension values, then the
    /// aggregate.
    fn decoded<'a>(&'a self, dict: &'a Dictionary) -> impl Iterator<Item = Vec<String>> + 'a {
        // A dimension value renders as a term-valued aggregate does.
        let term = |&id: &TermId| AggValue::Term(id).display(dict);
        let row = move |(key, value): (&[TermId], &AggValue)| {
            key.iter().map(term).chain([value.display(dict)]).collect()
        };
        self.cells().map(row)
    }
}

/// The cells of a [`Cube`] in key order, as `(dimension vector, aggregate)`
/// pairs read off its two columns: the number of dimensions, then the keys
/// and the values not yet read.
#[derive(Debug, Clone, PartialEq)]
pub struct Cells<'a>(usize, &'a [TermId], &'a [AggValue]);

impl<'a> Iterator for Cells<'a> {
    type Item = (&'a [TermId], &'a AggValue);

    fn next(&mut self) -> Option<Self::Item> {
        let (value, values) = self.2.split_first()?;
        let (key, keys) = self.1.split_at(self.0);
        (self.1, self.2) = (keys, values);
        Some((key, value))
    }
}

fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let n_cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    fn emit(out: &mut String, cells: &[String], widths: &[usize]) {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str("| ");
            out.push_str(cell);
            out.push_str(&" ".repeat(widths[i] - cell.len() + 1));
        }
        out.push_str("|\n");
    }
    let mut out = String::new();
    emit(&mut out, header, &widths);
    for w in widths.iter().take(n_cols) {
        out.push('|');
        out.push_str(&"-".repeat(w + 2));
    }
    out.push_str("|\n");
    for row in rows {
        emit(&mut out, row, &widths);
    }
    out
}

/// Evaluates `ans(Q, I)` directly over the instance (Definition 1): the
/// classifier under set semantics, the measure under bag semantics, joined
/// on the fact variable and aggregated per dimension vector (sort-based γ).
///
/// This is the reference ("from scratch") evaluation every rewriting in
/// [`crate::rewrite`] is tested against. Sessions answer from scratch
/// through [`crate::PartialResult::compute`] instead, which evaluates the
/// same two BGPs and builds `pres(Q)` on the way to the same cells.
pub fn answer(q: &AnalyticalQuery, instance: &Graph) -> Result<Cube, CoreError> {
    let c_rel = evaluate(instance, q.classifier(), Semantics::Set)?;
    answer_with_classifier_relation(q, c_rel, instance)
}

/// Same as [`answer`], but takes a pre-computed (possibly Σ-filtered)
/// classifier relation — the hook used by extended queries (Definition 2).
pub fn answer_with_classifier_relation(
    q: &AnalyticalQuery,
    c_rel: Relation,
    instance: &Graph,
) -> Result<Cube, CoreError> {
    // The measure `[x, v]`, rebased onto the classifier's variable space,
    // meets the classifier on the fact variable: `[x, d₁…dₙ, v]`.
    let v_col = measure_value_col(q);
    let mut m_rel = evaluate(instance, q.measure(), Semantics::Bag)?;
    m_rel.set_schema(vec![q.root(), v_col])?;
    let joined = c_rel.natural_join(&m_rel);
    let cells = group_aggregate(&joined, q.dim_vars(), v_col, q.agg(), instance.dict())?;
    Ok(Cube::from_cells(
        q.dim_names().iter().map(|s| s.to_string()).collect(),
        q.agg(),
        cells,
    ))
}

/// The synthetic column id used for the measure value `v` when rebasing the
/// measure relation into the classifier's variable space: one past the
/// classifier registry, hence guaranteed collision-free.
pub(crate) fn measure_value_col(q: &AnalyticalQuery) -> VarId {
    VarId(u16::try_from(q.classifier().vars().len()).expect("classifier variable overflow"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_rdf::{parse_turtle, Term};

    /// The instance of Example 2: classifier answers for user1/3/4 and the
    /// measure bags {|s1,s1,s2|}, {|s2|}, {|s3|}.
    fn example_2_instance() -> Graph {
        parse_turtle(
            "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user4> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user1> <wrotePost> <p1>, <p2>, <p3> .
             <p1> <postedOn> <s1> . <p2> <postedOn> <s1> . <p3> <postedOn> <s2> .
             <user3> <wrotePost> <p4> . <p4> <postedOn> <s2> .
             <user4> <wrotePost> <p5> . <p5> <postedOn> <s3> .",
        )
        .unwrap()
    }

    fn example_1_query(g: &mut Graph) -> AnalyticalQuery {
        AnalyticalQuery::parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
            AggFunc::Count,
            g.dict_mut(),
        )
        .unwrap()
    }

    #[test]
    fn example_2_answer_is_reproduced_exactly() {
        // Paper: ans(Q) = {⟨28, Madrid, 3⟩, ⟨35, NY, 2⟩}.
        let mut g = example_2_instance();
        let q = example_1_query(&mut g);
        let cube = answer(&q, &g).unwrap();
        assert_eq!(cube.len(), 2);

        let age28 = g.dict().id(&Term::integer(28)).unwrap();
        let madrid = g.dict().id(&Term::literal("Madrid")).unwrap();
        let age35 = g.dict().id(&Term::integer(35)).unwrap();
        let ny = g.dict().id(&Term::literal("NY")).unwrap();
        assert_eq!(cube.get(&[age28, madrid]), Some(&AggValue::Int(3)));
        assert_eq!(cube.get(&[age35, ny]), Some(&AggValue::Int(2)));
    }

    #[test]
    fn facts_with_empty_measure_bags_contribute_nothing() {
        // user5 classifies but wrote no posts: no cell for ⟨40, Kyoto⟩.
        let mut g = example_2_instance();
        rdfcube_rdf::parse_into(
            "<user5> rdf:type <Blogger> ; <hasAge> 40 ; <livesIn> \"Kyoto\" .",
            &mut g,
        )
        .unwrap();
        let q = example_1_query(&mut g);
        let cube = answer(&q, &g).unwrap();
        assert_eq!(cube.len(), 2);
        let age40 = g.dict().id(&Term::integer(40)).unwrap();
        let kyoto = g.dict().id(&Term::literal("Kyoto")).unwrap();
        assert_eq!(cube.get(&[age40, kyoto]), None);
    }

    #[test]
    fn multi_valued_dimension_puts_fact_in_multiple_cells() {
        // user1 lives in Madrid AND Kyoto: its 3 posts count in both cells.
        let mut g = example_2_instance();
        rdfcube_rdf::parse_into("<user1> <livesIn> \"Kyoto\" .", &mut g).unwrap();
        let q = example_1_query(&mut g);
        let cube = answer(&q, &g).unwrap();
        let age28 = g.dict().id(&Term::integer(28)).unwrap();
        let madrid = g.dict().id(&Term::literal("Madrid")).unwrap();
        let kyoto = g.dict().id(&Term::literal("Kyoto")).unwrap();
        assert_eq!(cube.get(&[age28, madrid]), Some(&AggValue::Int(3)));
        assert_eq!(cube.get(&[age28, kyoto]), Some(&AggValue::Int(3)));
    }

    #[test]
    fn zero_dimensional_cube_is_a_single_cell() {
        let mut g = example_2_instance();
        let q = AnalyticalQuery::parse(
            "c(?x) :- ?x rdf:type Blogger",
            "m(?x, ?v) :- ?x wrotePost ?v",
            AggFunc::Count,
            g.dict_mut(),
        )
        .unwrap();
        let cube = answer(&q, &g).unwrap();
        assert_eq!(cube.len(), 1);
        assert_eq!(cube.get(&[]), Some(&AggValue::Int(5)));
    }

    #[test]
    fn zero_dimensional_cube_via_pres_matches_direct() {
        // Regression for row multiplicity at arity 0: the dims columns are
        // empty, so both γ and Equation 3 must still see one record per
        // measure tuple (5 posts), not zero rows.
        use crate::extended::ExtendedQuery;
        use crate::pres::PartialResult;
        let mut g = example_2_instance();
        let q = AnalyticalQuery::parse(
            "c(?x) :- ?x rdf:type Blogger",
            "m(?x, ?v) :- ?x wrotePost ?v",
            AggFunc::Count,
            g.dict_mut(),
        )
        .unwrap();
        let direct = answer(&q, &g).unwrap();
        let eq = ExtendedQuery::from_query(q);
        let pres = PartialResult::compute(&eq, &g).unwrap();
        assert_eq!(pres.n_dims(), 0);
        assert_eq!(pres.len(), 5);
        let from_pres = pres.to_cube(g.dict()).unwrap();
        assert!(from_pres.same_cells(&direct));
        assert_eq!(from_pres.get(&[]), Some(&AggValue::Int(5)));
    }

    #[test]
    fn table_rendering_is_stable() {
        let mut g = example_2_instance();
        let q = example_1_query(&mut g);
        let cube = answer(&q, &g).unwrap();
        let table = cube.to_table(g.dict());
        assert!(table.contains("dage"));
        assert!(table.contains("count(v)"));
        assert!(table.contains("Madrid"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn get_on_missing_key_is_none() {
        let cube = Cube::from_cells(vec!["d".into()], AggFunc::Count, vec![]);
        assert!(cube.is_empty());
        assert_eq!(cube.get(&[TermId(0)]), None);
    }

    #[test]
    fn csv_export_quotes_properly() {
        let mut g = example_2_instance();
        rdfcube_rdf::parse_into(
            "<user9> rdf:type <Blogger> ; <hasAge> 41 ; <livesIn> \"Quoted \\\"City\\\", X\" .
             <user9> <wrotePost> <p9> . <p9> <postedOn> <s9> .",
            &mut g,
        )
        .unwrap();
        let q = example_1_query(&mut g);
        let cube = answer(&q, &g).unwrap();
        let csv = cube.to_csv(g.dict());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("dage,dcity,count_v"));
        assert_eq!(csv.lines().count(), cube.len() + 1);
        assert!(csv.contains("\"Quoted \"\"City\"\", X\""), "csv: {csv}");
        assert!(csv.contains("28,Madrid,3"));
    }

    #[test]
    fn approx_same_tolerates_float_jitter_only() {
        let k = vec![TermId(1)];
        let a = Cube::from_cells(
            vec!["d".into()],
            AggFunc::Avg,
            vec![(k.clone(), AggValue::Float(10.0))],
        );
        let b = Cube::from_cells(
            vec!["d".into()],
            AggFunc::Avg,
            vec![(k.clone(), AggValue::Float(10.0 + 1e-12))],
        );
        let c = Cube::from_cells(
            vec!["d".into()],
            AggFunc::Avg,
            vec![(k, AggValue::Float(11.0))],
        );
        assert!(a.approx_same(&b, 1e-9));
        assert!(!a.approx_same(&c, 1e-9));
        assert!(
            !a.same_cells(&b),
            "bit-exact comparison still distinguishes"
        );
    }

    #[test]
    fn approx_bytes_grows_with_rows_and_dims() {
        let one_dim = |n: usize| {
            Cube::from_cells(
                vec!["d".into()],
                AggFunc::Count,
                (0..n)
                    .map(|i| (vec![TermId(i as u32)], AggValue::Int(1)))
                    .collect(),
            )
        };
        assert!(one_dim(100).approx_bytes() > one_dim(10).approx_bytes());

        let wide = Cube::from_cells(
            vec!["a".into(), "b".into(), "c".into()],
            AggFunc::Count,
            (0..10)
                .map(|i| {
                    let t = TermId(i as u32);
                    (vec![t, t, t], AggValue::Int(1))
                })
                .collect(),
        );
        assert!(
            wide.approx_bytes() > one_dim(10).approx_bytes(),
            "more dimensions per cell must weigh more"
        );
        assert!(
            one_dim(0).approx_bytes() > 0,
            "empty cubes still have a header"
        );
    }

    /// The narrow ends of the layout: a key column of one id a cell, and of
    /// none (stride 0), through every producer and every read.
    #[test]
    fn zero_and_one_dimensional_cubes_through_every_producer() {
        use crate::extended::{ExtendedQuery, Sigma, ValueSelector};
        use crate::pres::PartialResult;
        use crate::rewrite::dice_from_ans;
        let mut g = example_2_instance();
        let mut parse = |c| {
            let m = "m(?x, ?v) :- ?x wrotePost ?v";
            AnalyticalQuery::parse(c, m, AggFunc::Count, g.dict_mut()).unwrap()
        };
        let one = parse("c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage");
        let zero = parse("c(?x) :- ?x rdf:type Blogger");
        let (d, int) = (g.dict(), AggValue::Int);
        let age28 = d.id(&Term::integer(28)).unwrap();
        let age35 = d.id(&Term::integer(35)).unwrap();
        let scanned = |q: &AnalyticalQuery| {
            let pres = PartialResult::compute(&ExtendedQuery::from_query(q.clone()), &g);
            pres.unwrap().to_cube(d).unwrap()
        };

        // Unsorted input to `from_cells`; the oracle and `pres`'s scan agree.
        let cells = vec![(vec![age35], int(2)), (vec![age28], int(3))];
        let by_age = Cube::from_cells(vec!["dage".into()], AggFunc::Count, cells);
        assert!(by_age.same_cells(&answer(&one, &g).unwrap()));
        assert!(by_age.same_cells(&scanned(&one)));
        let read: Vec<_> = by_age.cells().collect();
        assert_eq!(read, [(&[age28][..], &int(3)), (&[age35][..], &int(2))]);
        assert_eq!(by_age.get(&[age35]), Some(&int(2)));
        assert_eq!(by_age.get(&[age28, age35]), None);
        assert_eq!(by_age.to_csv(d), "dage,count_v\n28,3\n35,2\n");
        let mut sigma = Sigma::all(1);
        sigma.set(0, ValueSelector::one(Term::integer(35)));
        let diced = dice_from_ans(&by_age, &sigma, d);
        assert_eq!(diced.cells().collect::<Vec<_>>(), [(&[age35][..], &int(2))]);
        assert_eq!(diced.to_csv(d), "dage,count_v\n35,2\n");

        let all = Cube::from_cells(vec![], AggFunc::Count, vec![(vec![], int(5))]);
        assert!(all.same_cells(&answer(&zero, &g).unwrap()));
        assert!(all.same_cells(&scanned(&zero)));
        assert_eq!(all.cells().collect::<Vec<_>>(), [(&[][..], &int(5))]);
        assert_eq!(all.get(&[]), Some(&int(5)));
        assert_eq!(all.get(&[age28]), None);
        assert_eq!(all.to_csv(d), "count_v\n5\n");
        let diced = dice_from_ans(&all, &Sigma::all(0), d);
        assert_eq!(diced.cells(), all.cells());
        assert_eq!(diced.approx_bytes(), all.approx_bytes());
        let empty = Cube::from_cells(vec![], AggFunc::Count, vec![]);
        assert_eq!(empty.cells().next(), None);
        assert_eq!(empty.to_csv(d), "count_v\n");
    }

    #[test]
    #[should_panic(expected = "every key of the cube holds 2 values")]
    fn from_cells_rejects_a_key_of_another_width() {
        let cells = vec![(vec![TermId(1), TermId(2)]), (vec![TermId(3)])];
        let cells = cells
            .into_iter()
            .map(|key| (key, AggValue::Int(1)))
            .collect();
        Cube::from_cells(vec!["a".into(), "b".into()], AggFunc::Count, cells);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn with_dim_names_rejects_another_width() {
        let cube = Cube::from_cells(vec!["d".into()], AggFunc::Count, vec![]);
        cube.with_dim_names(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn with_dim_names_relabels_only() {
        let cube = Cube::from_cells(
            vec!["old".into()],
            AggFunc::Count,
            vec![(vec![TermId(1)], AggValue::Int(2))],
        );
        let renamed = cube.clone().with_dim_names(vec!["new".into()]);
        assert_eq!(renamed.dim_names(), &["new".to_string()]);
        assert_eq!(renamed.cells(), cube.cells());
    }
}
