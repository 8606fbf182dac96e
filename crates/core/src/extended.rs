//! Extended analytical queries (Definition 2): Σ dimension restrictions.
//!
//! An extended AnQ pairs an [`AnalyticalQuery`] with a total function Σ
//! mapping each dimension to its admissible values: the full domain, or a
//! restricted subset. The paper defines the extended classifier as a union
//! of classifiers over the cross product of Σ values; we implement the
//! equivalent (and far cheaper) formulation the paper itself uses in
//! Example 4 — a selection over the classifier answer.
//!
//! [`ValueSelector`] covers the shapes the paper's operations produce:
//! `All` (unrestricted, Σ(dᵢ) = Vᵢ), `OneOf` (SLICE binds a single value,
//! DICE a set), and `IntRange` (Example 4 dices on `20 ≤ d_age ≤ 30`). Σ
//! stores a value list as a set (sorted, no repeats), so two dices that
//! list the same values are the same query.
//!
//! Σ is translated to term ids in one place, [`ValueSelector::compile`],
//! into the engine's [`Selector`]: the same compiled selector is pushed
//! into classifier evaluation ([`Sigma::to_filters`]) and applied as σ over
//! a materialized cube ([`CompiledSigma`]), so the two cannot disagree.

use crate::anq::AnalyticalQuery;
use crate::answer::{answer_with_classifier_relation, Cube};
use crate::error::CoreError;
use rdfcube_engine::{
    evaluate, evaluate_seeded, FilterExpr, Relation, Seed, Selector, Semantics, VarId,
};
use rdfcube_rdf::{Dictionary, Graph, Term, TermId};

/// The restriction Σ places on one dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSelector {
    /// The full domain Vᵢ — no restriction.
    All,
    /// A finite set of admissible values (SLICE: singleton; DICE: any set).
    OneOf(Vec<Term>),
    /// An inclusive numeric range, e.g. Example 4's `20 ≤ d_age ≤ 30`.
    IntRange {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
}

impl ValueSelector {
    /// A singleton selector (the shape SLICE produces).
    pub fn one(value: Term) -> Self {
        ValueSelector::OneOf(vec![value])
    }

    /// True if this selector admits every value.
    pub fn is_all(&self) -> bool {
        matches!(self, ValueSelector::All)
    }

    /// Translates the selector to term ids of `dict` — the one translation
    /// Σ gets, for push-down and σ alike. `None` admits everything.
    pub fn compile(&self, dict: &Dictionary) -> Option<Selector> {
        match self {
            ValueSelector::All => None,
            // Terms not present in the dictionary cannot match any data
            // row, so they simply drop out of the compiled set.
            ValueSelector::OneOf(terms) => Some(Selector::OneOf(
                terms.iter().filter_map(|t| dict.id(t)).collect(),
            )),
            ValueSelector::IntRange { lo, hi } => Some(Selector::Between { lo: *lo, hi: *hi }),
        }
    }

    /// The selector as Σ stores it: a value list sorted and without
    /// repeats, since it denotes a set.
    fn normalized(mut self) -> Self {
        if let ValueSelector::OneOf(terms) = &mut self {
            terms.sort_unstable();
            terms.dedup();
        }
        self
    }

    /// Conservative refinement check: true only if every value admitted by
    /// `self` is provably admitted by `older`. Used to decide whether a
    /// dice on an already-diced cube can be answered from its materialized
    /// answer (Proposition 1 requires the new Σ to select within the old).
    pub fn refines(&self, older: &ValueSelector) -> bool {
        match (self, older) {
            (_, ValueSelector::All) => true,
            (ValueSelector::All, _) => false,
            (ValueSelector::OneOf(new), ValueSelector::OneOf(old)) => {
                new.iter().all(|t| old.contains(t))
            }
            (ValueSelector::OneOf(new), ValueSelector::IntRange { lo, hi }) => new
                .iter()
                .all(|t| t.as_i64().is_some_and(|v| *lo <= v && v <= *hi)),
            (
                ValueSelector::IntRange { lo: nlo, hi: nhi },
                ValueSelector::IntRange { lo: olo, hi: ohi },
            ) => olo <= nlo && nhi <= ohi,
            // A range refines a finite set only in degenerate cases; treat
            // as non-refining (falls back to from-scratch evaluation).
            (ValueSelector::IntRange { .. }, ValueSelector::OneOf(_)) => false,
        }
    }
}

/// Σ — a total map from the query's dimensions to value restrictions,
/// stored positionally (index i restricts dimension dᵢ).
#[derive(Debug, Clone, PartialEq)]
pub struct Sigma {
    selectors: Vec<ValueSelector>,
}

impl Sigma {
    /// The unrestricted Σ over `n_dims` dimensions (every AnQ corresponds to
    /// an extended AnQ with Σ = {(dᵢ, Vᵢ)}).
    pub fn all(n_dims: usize) -> Self {
        Sigma {
            selectors: vec![ValueSelector::All; n_dims],
        }
    }

    /// Builds Σ from explicit per-dimension selectors.
    pub fn from_selectors(selectors: Vec<ValueSelector>) -> Self {
        let selectors = selectors.into_iter().map(ValueSelector::normalized);
        Sigma {
            selectors: selectors.collect(),
        }
    }

    /// Number of dimensions covered.
    pub fn len(&self) -> usize {
        self.selectors.len()
    }

    /// True if Σ covers no dimensions.
    pub fn is_empty(&self) -> bool {
        self.selectors.is_empty()
    }

    /// The selector for dimension `i`.
    pub fn selector(&self, i: usize) -> &ValueSelector {
        &self.selectors[i]
    }

    /// All selectors, positionally.
    pub fn selectors(&self) -> &[ValueSelector] {
        &self.selectors
    }

    /// Replaces the selector of dimension `i` (the Σ′ construction of the
    /// SLICE and DICE definitions).
    pub fn set(&mut self, i: usize, selector: ValueSelector) {
        self.selectors[i] = selector.normalized();
    }

    /// True if no dimension is restricted.
    pub fn is_unrestricted(&self) -> bool {
        self.selectors.iter().all(ValueSelector::is_all)
    }

    /// Σ with the dimensions at `removed` (sorted ascending) dropped — the
    /// DRILL-OUT construction.
    pub fn without_dims(&self, removed: &[usize]) -> Sigma {
        let selectors = self
            .selectors
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, s)| s.clone())
            .collect();
        Sigma { selectors }
    }

    /// Σ extended with an unrestricted trailing dimension — the DRILL-IN
    /// construction (Σ′ = Σ ∪ {(dₙ₊₁, Vₙ₊₁)}).
    pub fn with_new_dim(&self) -> Sigma {
        let mut selectors = self.selectors.clone();
        selectors.push(ValueSelector::All);
        Sigma { selectors }
    }

    /// Compiles every selector against `dict`.
    pub fn compile(&self, dict: &Dictionary) -> CompiledSigma {
        CompiledSigma {
            selectors: self.selectors.iter().map(|s| s.compile(dict)).collect(),
        }
    }

    /// True if `self` provably admits a subset of what `older` admits,
    /// dimension by dimension.
    pub fn refines(&self, older: &Sigma) -> bool {
        self.selectors.len() == older.selectors.len()
            && self
                .selectors
                .iter()
                .zip(&older.selectors)
                .all(|(n, o)| n.refines(o))
    }

    /// Compiles Σ to engine-level filters over the dimension variables, for
    /// push-down into classifier evaluation. `dim_vars[i]` must be the
    /// variable of dimension `i`.
    pub fn to_filters(&self, dim_vars: &[VarId], dict: &Dictionary) -> Vec<FilterExpr> {
        debug_assert_eq!(dim_vars.len(), self.selectors.len());
        let filter = |(sel, &var): (&ValueSelector, _)| {
            let selector = sel.compile(dict)?;
            Some(FilterExpr { var, selector })
        };
        self.selectors
            .iter()
            .zip(dim_vars)
            .filter_map(filter)
            .collect()
    }
}

/// A compiled Σ, ready to filter rows of dimension values.
#[derive(Debug, Clone)]
pub struct CompiledSigma {
    selectors: Vec<Option<Selector>>,
}

impl CompiledSigma {
    /// The first dimension whose value in `dims` Σ refuses, or `None` if Σ
    /// admits the dimension vector.
    pub fn refused_at(&self, dims: &[TermId], dict: &Dictionary) -> Option<usize> {
        debug_assert_eq!(dims.len(), self.selectors.len());
        let refuses = |(sel, &id): (&Option<Selector>, &TermId)| {
            sel.as_ref().is_some_and(|sel| !sel.admits(id, dict))
        };
        self.selectors.iter().zip(dims).position(refuses)
    }

    /// Number of dimensions covered.
    pub fn n_dims(&self) -> usize {
        self.selectors.len()
    }
}

/// An extended analytical query `⟨c_Σ(x, d₁…dₙ), m(x, v), ⊕⟩`.
#[derive(Debug, Clone)]
pub struct ExtendedQuery {
    query: AnalyticalQuery,
    sigma: Sigma,
}

impl ExtendedQuery {
    /// Wraps a plain AnQ as the extended AnQ with unrestricted Σ.
    pub fn from_query(query: AnalyticalQuery) -> Self {
        let n = query.n_dims();
        ExtendedQuery {
            query,
            sigma: Sigma::all(n),
        }
    }

    /// Builds an extended AnQ with an explicit Σ.
    pub fn with_sigma(query: AnalyticalQuery, sigma: Sigma) -> Result<Self, CoreError> {
        if sigma.len() != query.n_dims() {
            return Err(CoreError::InvalidOperation(format!(
                "Σ covers {} dimensions but the query has {}",
                sigma.len(),
                query.n_dims()
            )));
        }
        Ok(ExtendedQuery { query, sigma })
    }

    /// The underlying analytical query.
    pub fn query(&self) -> &AnalyticalQuery {
        &self.query
    }

    /// The Σ restriction.
    pub fn sigma(&self) -> &Sigma {
        &self.sigma
    }

    /// Evaluates the Σ-filtered classifier relation over the instance,
    /// pushing Σ into pattern matching: bindings violating a restriction
    /// are pruned — compacted out of the evaluator's flat binding arena in
    /// place — the moment the dimension variable binds.
    pub fn classifier_relation(&self, instance: &Graph) -> Result<Relation, CoreError> {
        self.classifier_relation_from(instance, &Seed::unit(), Semantics::Set)
    }

    /// [`Self::classifier_relation`] started from `seed` (bindings of
    /// classifier variables, see [`evaluate_seeded`]) under `semantics`:
    /// the Σ-filtered classifier rows of, say, a given set of facts. Bag
    /// semantics skips δ, for a caller that drops repeated rows itself.
    pub fn classifier_relation_from(
        &self,
        instance: &Graph,
        seed: &Seed,
        semantics: Semantics,
    ) -> Result<Relation, CoreError> {
        // An unrestricted Σ compiles to no filter at all.
        let filters = self
            .sigma
            .to_filters(self.query.dim_vars(), instance.dict());
        let classifier = self.query.classifier();
        Ok(evaluate_seeded(
            instance, classifier, seed, &filters, semantics,
        )?)
    }

    /// The naive formulation — evaluate the unrestricted classifier, then
    /// select — kept as the reference the push-down is tested against.
    pub fn classifier_relation_postfilter(&self, instance: &Graph) -> Result<Relation, CoreError> {
        let rel = evaluate(instance, self.query.classifier(), Semantics::Set)?;
        Ok(self.filter_classifier(rel, instance.dict()))
    }

    /// Applies the compiled Σ to a classifier relation whose schema is
    /// `[x, d₁…dₙ]`.
    pub fn filter_classifier(&self, rel: Relation, dict: &Dictionary) -> Relation {
        if self.sigma.is_unrestricted() {
            return rel;
        }
        let compiled = self.sigma.compile(dict);
        rel.select(|row| compiled.refused_at(&row[1..], dict).is_none())
    }

    /// `ans(Q, I)` for the extended query: Definition 1 semantics over the
    /// Σ-filtered classifier.
    pub fn answer(&self, instance: &Graph) -> Result<Cube, CoreError> {
        let c_rel = self.classifier_relation(instance)?;
        answer_with_classifier_relation(&self.query, c_rel, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_engine::{AggFunc, AggValue};
    use rdfcube_rdf::parse_turtle;

    fn example_4_instance() -> Graph {
        // Example 4's data: word counts per post.
        parse_turtle(
            "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user4> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user1> <wrotePost> <p1>, <p2> .
             <p1> <hasWordCount> 100 . <p2> <hasWordCount> 120 .
             <user3> <wrotePost> <p3> . <p3> <hasWordCount> 570 .
             <user4> <wrotePost> <p4> . <p4> <hasWordCount> 410 .",
        )
        .unwrap()
    }

    fn example_4_query(g: &mut Graph) -> AnalyticalQuery {
        AnalyticalQuery::parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?vwords) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p hasWordCount ?vwords",
            AggFunc::Avg,
            g.dict_mut(),
        )
        .unwrap()
    }

    #[test]
    fn example_4_unrestricted_answer() {
        // Paper: ans(Q) = {⟨28, Madrid, 210⟩, ⟨35, NY, 570⟩}.
        let mut g = example_4_instance();
        let q = example_4_query(&mut g);
        let eq = ExtendedQuery::from_query(q);
        let cube = eq.answer(&g).unwrap();
        assert_eq!(cube.len(), 2);
        let age28 = g.dict().id(&Term::integer(28)).unwrap();
        let madrid = g.dict().id(&Term::literal("Madrid")).unwrap();
        assert_eq!(cube.get(&[age28, madrid]), Some(&AggValue::Float(210.0)));
    }

    #[test]
    fn example_4_dice_range_20_to_30() {
        // QDICE restricts dage to 20..=30; answer is {⟨28, Madrid, 210⟩}.
        let mut g = example_4_instance();
        let q = example_4_query(&mut g);
        let mut sigma = Sigma::all(2);
        sigma.set(0, ValueSelector::IntRange { lo: 20, hi: 30 });
        let eq = ExtendedQuery::with_sigma(q, sigma).unwrap();
        let cube = eq.answer(&g).unwrap();
        assert_eq!(cube.len(), 1);
        let age28 = g.dict().id(&Term::integer(28)).unwrap();
        let madrid = g.dict().id(&Term::literal("Madrid")).unwrap();
        assert_eq!(cube.get(&[age28, madrid]), Some(&AggValue::Float(210.0)));
    }

    #[test]
    fn slice_binds_one_value() {
        let mut g = example_4_instance();
        let q = example_4_query(&mut g);
        let mut sigma = Sigma::all(2);
        sigma.set(1, ValueSelector::one(Term::literal("NY")));
        let eq = ExtendedQuery::with_sigma(q, sigma).unwrap();
        let cube = eq.answer(&g).unwrap();
        assert_eq!(cube.len(), 1);
        let age35 = g.dict().id(&Term::integer(35)).unwrap();
        let ny = g.dict().id(&Term::literal("NY")).unwrap();
        assert_eq!(cube.get(&[age35, ny]), Some(&AggValue::Float(570.0)));
    }

    #[test]
    fn selector_for_unknown_value_yields_empty_cube() {
        let mut g = example_4_instance();
        let q = example_4_query(&mut g);
        let mut sigma = Sigma::all(2);
        sigma.set(1, ValueSelector::one(Term::literal("Atlantis")));
        let eq = ExtendedQuery::with_sigma(q, sigma).unwrap();
        assert!(eq.answer(&g).unwrap().is_empty());
    }

    #[test]
    fn sigma_arity_mismatch_rejected() {
        let mut g = example_4_instance();
        let q = example_4_query(&mut g);
        assert!(ExtendedQuery::with_sigma(q, Sigma::all(5)).is_err());
    }

    #[test]
    fn refinement_rules() {
        let all = ValueSelector::All;
        let small = ValueSelector::OneOf(vec![Term::integer(28)]);
        let big = ValueSelector::OneOf(vec![Term::integer(28), Term::integer(35)]);
        let range = ValueSelector::IntRange { lo: 20, hi: 30 };
        let wider = ValueSelector::IntRange { lo: 0, hi: 99 };

        assert!(small.refines(&all));
        assert!(small.refines(&big));
        assert!(!big.refines(&small));
        assert!(small.refines(&range)); // 28 ∈ [20,30]
        assert!(range.refines(&wider));
        assert!(!wider.refines(&range));
        assert!(!all.refines(&small));
        assert!(!range.refines(&big)); // conservative
    }

    #[test]
    fn pushdown_equals_postfilter() {
        let mut g = example_4_instance();
        let q = example_4_query(&mut g);
        // (Σ, rows admitted): a dice to Madrid bloggers aged 20–30 admits
        // user1 and user4; a term the dictionary lacks, and an integer
        // range over the non-integer city, admit nothing.
        let cases = [
            (
                ValueSelector::IntRange { lo: 20, hi: 30 },
                ValueSelector::one(Term::literal("Madrid")),
                2,
            ),
            (
                ValueSelector::All,
                ValueSelector::one(Term::literal("Atlantis")),
                0,
            ),
            (
                ValueSelector::All,
                ValueSelector::IntRange { lo: 0, hi: 99 },
                0,
            ),
        ];
        for (age, city, rows) in cases {
            let sigma = Sigma::from_selectors(vec![age, city]);
            let eq = ExtendedQuery::with_sigma(q.clone(), sigma).unwrap();
            let pushed = eq.classifier_relation(&g).unwrap();
            let post = eq.classifier_relation_postfilter(&g).unwrap();
            assert!(pushed.same_bag(&post), "{:?}", eq.sigma());
            assert_eq!(pushed.len(), rows, "{:?}", eq.sigma());
        }
    }

    #[test]
    fn sigma_shape_transformations() {
        let mut s = Sigma::all(3);
        s.set(1, ValueSelector::one(Term::integer(35)));
        assert!(!s.is_unrestricted());

        let dropped = s.without_dims(&[1]);
        assert_eq!(dropped.len(), 2);
        assert!(dropped.is_unrestricted());

        let grown = s.with_new_dim();
        assert_eq!(grown.len(), 4);
        assert!(grown.selector(3).is_all());

        assert!(s.refines(&Sigma::all(3)));
        assert!(!Sigma::all(3).refines(&s));
    }
}
