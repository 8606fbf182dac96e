//! Cube answers — the answer set of an analytical query (Definition 1).
//!
//! `ans(Q, I)` is the set of tuples `⟨d₁…dₙ, ⊕(qʲ(I))⟩`: one cell per
//! distinct dimension vector appearing in the classifier answer, holding the
//! aggregate of the *bag union* of the measure values of every fact with
//! those dimension values. Facts whose measure bag is empty contribute no
//! cell (the aggregated measure is undefined).

use crate::anq::AnalyticalQuery;
use crate::error::CoreError;
use rdfcube_engine::{evaluate, group_aggregate, AggFunc, AggValue, Relation, Semantics, VarId};
use rdfcube_rdf::{Dictionary, Graph, TermId};

/// The materialized answer of an analytical query: an n-dimensional cube.
#[derive(Debug, Clone)]
pub struct Cube {
    dim_names: Vec<String>,
    agg: AggFunc,
    /// `(dimension vector, aggregate)` pairs, sorted by dimension vector.
    cells: Vec<(Vec<TermId>, AggValue)>,
}

impl Cube {
    /// Builds a cube from raw parts. `cells` are sorted internally.
    pub fn from_cells(
        dim_names: Vec<String>,
        agg: AggFunc,
        mut cells: Vec<(Vec<TermId>, AggValue)>,
    ) -> Self {
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Cube {
            dim_names,
            agg,
            cells,
        }
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
    pub fn cells(&self) -> &[(Vec<TermId>, AggValue)] {
        &self.cells
    }

    /// The same cube under different (user-facing) dimension names — used
    /// when a cube derived from another query's materialization is stored
    /// under the new query's own naming.
    pub fn with_dim_names(mut self, dim_names: Vec<String>) -> Self {
        debug_assert_eq!(dim_names.len(), self.dim_names.len());
        self.dim_names = dim_names;
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Approximate memory footprint in bytes, mirroring
    /// [`crate::PartialResult::approx_bytes`]: per cell, the dimension key
    /// vector (header + `n_dims` term ids) plus the aggregate value. The
    /// cube catalog charges both `ans(Q)` and `pres(Q)` against the
    /// session's memory budget with these estimates.
    pub fn approx_bytes(&self) -> usize {
        let per_cell = std::mem::size_of::<(Vec<TermId>, AggValue)>()
            + self.n_dims() * std::mem::size_of::<TermId>();
        std::mem::size_of::<Self>() + self.cells.len() * per_cell
    }

    /// The aggregate for an exact dimension vector, if that cell exists.
    pub fn get(&self, key: &[TermId]) -> Option<&AggValue> {
        self.cells
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| &self.cells[i].1)
    }

    /// Exact equality of cells (integer/term aggregates compare exactly;
    /// float aggregates must be bit-identical — our aggregation folds floats
    /// in sorted order precisely so that this holds across strategies).
    pub fn same_cells(&self, other: &Cube) -> bool {
        self.cells == other.cells
    }

    /// ε-tolerant comparison for floating-point workloads.
    pub fn approx_same(&self, other: &Cube, eps: f64) -> bool {
        self.cells.len() == other.cells.len()
            && self
                .cells
                .iter()
                .zip(&other.cells)
                .all(|((ka, va), (kb, vb))| ka == kb && va.approx_eq(vb, eps))
    }

    /// Exports the cube as CSV (RFC-4180-style quoting), one row per cell,
    /// header = dimension names + the aggregate column.
    pub fn to_csv(&self, dict: &Dictionary) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .dim_names
            .iter()
            .map(|d| field(d))
            .chain(std::iter::once(field(&format!("{}_v", self.agg))))
            .collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for (key, value) in &self.cells {
            let row: Vec<String> = key
                .iter()
                .map(|&id| {
                    field(
                        &dict
                            .get(id)
                            .map_or_else(|| id.to_string(), |t| t.display_compact()),
                    )
                })
                .chain(std::iter::once(field(&value.display(dict))))
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the cube as an aligned text table, decoding terms against
    /// `dict` (for examples and reports).
    pub fn to_table(&self, dict: &Dictionary) -> String {
        let mut header: Vec<String> = self.dim_names.clone();
        header.push(format!("{}(v)", self.agg));
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|(key, value)| {
                let mut row: Vec<String> = key
                    .iter()
                    .map(|&id| {
                        dict.get(id)
                            .map_or_else(|| id.to_string(), |t| t.display_compact())
                    })
                    .collect();
                row.push(value.display(dict));
                row
            })
            .collect();
        render_table(&header, &rows)
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
/// [`crate::rewrite`] is benchmarked and tested against (`olapbench`'s
/// `cold-scratch` workload runs nothing else).
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
    let joined = join_classifier_measure(q, c_rel, instance)?;
    let v_col = measure_value_col(q);
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

/// Evaluates the measure (bag semantics), rebases its schema onto the
/// classifier's variable space, and joins with the classifier relation on
/// the fact variable. The result has schema `[x, d₁…dₙ, v]`.
///
/// Both inputs come out of the engine's flat-buffer evaluator, and the
/// single shared column means [`Relation::natural_join`] takes its packed
/// `u64`-key path — the whole classifier ⋈ measure step allocates no
/// per-row keys.
pub(crate) fn join_classifier_measure(
    q: &AnalyticalQuery,
    c_rel: Relation,
    instance: &Graph,
) -> Result<Relation, CoreError> {
    let mut m_rel = evaluate(instance, q.measure(), Semantics::Bag)?;
    m_rel.set_schema(vec![q.root(), measure_value_col(q)])?;
    Ok(c_rel.natural_join(&m_rel))
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
