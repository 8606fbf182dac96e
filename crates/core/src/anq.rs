//! Analytical queries (AnQ) — the RDF counterpart of relational cubes.
//!
//! §2, Example 1: an AnQ is a triple `⟨c(x, d₁…dₙ), m(x, v), ⊕⟩` of
//! * a **classifier** query — a rooted BGP whose head is the fact variable
//!   `x` followed by the aggregation dimensions `d₁…dₙ` (set semantics),
//! * a **measure** query — a rooted BGP `m(x, v)` returning the values to
//!   aggregate (bag semantics, so repeated values stay distinct), and
//! * an **aggregation function** ⊕.
//!
//! Both queries must be rooted in the same variable position (their first
//! head variable) and, when checked against an analytical schema, must be
//! homomorphic to it (only analysis classes and properties appear).

use crate::error::CoreError;
use crate::schema::AnalyticalSchema;
use crate::signature::ViewSignature;
use rdfcube_engine::{parse_query, AggFunc, Bgp, PatternTerm, VarId};
use rdfcube_rdf::fx::FxHashSet;
use rdfcube_rdf::{vocab, Dictionary, Term};
use std::sync::Arc;

/// An analytical query `⟨c, m, ⊕⟩` over an analytical-schema instance.
///
/// The query is immutable once built, so its canonical
/// [`ViewSignature`] is computed once, in [`Self::new`], and shared by
/// every clone.
#[derive(Debug, Clone)]
pub struct AnalyticalQuery {
    classifier: Bgp,
    measure: Bgp,
    agg: AggFunc,
    signature: Arc<ViewSignature>,
}

impl AnalyticalQuery {
    /// Builds an AnQ from already-constructed classifier and measure
    /// queries, validating the structural requirements of Definition 1,
    /// and canonicalizes it ([`Self::signature`]).
    pub fn new(classifier: Bgp, measure: Bgp, agg: AggFunc) -> Result<Self, CoreError> {
        classifier.validate_rooted()?;
        measure.validate_rooted()?;
        if classifier.head().is_empty() {
            return Err(CoreError::SchemaViolation(
                "classifier head must at least contain the fact variable".into(),
            ));
        }
        if measure.head().len() != 2 {
            return Err(CoreError::SchemaViolation(format!(
                "measure query must have head (x, v), found arity {}",
                measure.head().len()
            )));
        }
        // Dimensions must be distinct variables: a repeated head variable
        // would make dimension names ambiguous in every OLAP operation.
        let mut seen = FxHashSet::default();
        for &h in classifier.head() {
            if !seen.insert(h) {
                return Err(CoreError::DuplicateDimension(
                    classifier.vars().name(h).to_string(),
                ));
            }
        }
        Ok(AnalyticalQuery {
            signature: Arc::new(ViewSignature::compute(&classifier, &measure, agg)),
            classifier,
            measure,
            agg,
        })
    }

    /// Parses an AnQ from the paper's notation, interning constants into
    /// `dict` (the dictionary of the instance it will run on).
    ///
    /// ```
    /// use rdfcube_core::AnalyticalQuery;
    /// use rdfcube_engine::AggFunc;
    /// use rdfcube_rdf::Dictionary;
    ///
    /// let mut dict = Dictionary::new();
    /// let q = AnalyticalQuery::parse(
    ///     "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
    ///     "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
    ///     AggFunc::Count,
    ///     &mut dict,
    /// ).unwrap();
    /// assert_eq!(q.dim_names(), vec!["dage", "dcity"]);
    /// ```
    pub fn parse(
        classifier: &str,
        measure: &str,
        agg: AggFunc,
        dict: &mut Dictionary,
    ) -> Result<Self, CoreError> {
        let c = parse_query(classifier, dict)?;
        let m = parse_query(measure, dict)?;
        Self::new(c, m, agg)
    }

    /// The classifier query.
    pub fn classifier(&self) -> &Bgp {
        &self.classifier
    }

    /// The measure query.
    pub fn measure(&self) -> &Bgp {
        &self.measure
    }

    /// The aggregation function ⊕.
    pub fn agg(&self) -> AggFunc {
        self.agg
    }

    /// The canonical signature computed when the query was built: its
    /// derivation-family key, canonical dimension names and ⊕.
    pub fn signature(&self) -> &ViewSignature {
        &self.signature
    }

    /// The fact (root) variable — first head variable of the classifier.
    pub fn root(&self) -> VarId {
        self.classifier.head()[0]
    }

    /// The dimension variables `d₁…dₙ` (classifier head minus the root).
    pub fn dim_vars(&self) -> &[VarId] {
        &self.classifier.head()[1..]
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.classifier.head().len() - 1
    }

    /// The dimension names, in head order.
    pub fn dim_names(&self) -> Vec<&str> {
        self.dim_vars()
            .iter()
            .map(|&v| self.classifier.vars().name(v))
            .collect()
    }

    /// Index of the dimension named `name`.
    pub fn dim_index(&self, name: &str) -> Result<usize, CoreError> {
        self.dim_names()
            .iter()
            .position(|&n| n == name)
            .ok_or_else(|| CoreError::UnknownDimension(name.to_string()))
    }

    /// Replaces the classifier (used by the OLAP rewritings; revalidates).
    pub fn with_classifier(&self, classifier: Bgp) -> Result<Self, CoreError> {
        Self::new(classifier, self.measure.clone(), self.agg)
    }

    /// Checks the query is homomorphic to `schema`: every body predicate is
    /// a declared analysis property (or `rdf:type` of a declared class), and
    /// classifier and measure are rooted in the same analysis class when
    /// both declare one.
    pub fn validate_against(
        &self,
        schema: &AnalyticalSchema,
        dict: &Dictionary,
    ) -> Result<(), CoreError> {
        let c_class = check_homomorphic(&self.classifier, self.root(), schema, dict)?;
        let m_root = self.measure.head()[0];
        let m_class = check_homomorphic(&self.measure, m_root, schema, dict)?;
        if let (Some(c), Some(m)) = (&c_class, &m_class) {
            if c != m {
                return Err(CoreError::SchemaViolation(format!(
                    "classifier is rooted in class '{c}' but measure in '{m}'"
                )));
            }
        }
        Ok(())
    }
}

/// Verifies every predicate of `bgp` against the schema; returns the
/// analysis class constraining `root`, if any.
fn check_homomorphic(
    bgp: &Bgp,
    root: VarId,
    schema: &AnalyticalSchema,
    dict: &Dictionary,
) -> Result<Option<String>, CoreError> {
    let mut root_class = None;
    for pattern in bgp.body() {
        let PatternTerm::Const(pred) = pattern.p else {
            return Err(CoreError::SchemaViolation(format!(
                "query '{}' uses a variable predicate; analytical queries must \
                 use analysis properties",
                bgp.name()
            )));
        };
        let pred_term = dict.get(pred).ok_or_else(|| {
            CoreError::SchemaViolation("predicate term missing from dictionary".into())
        })?;
        let Some(pred_iri) = pred_term.as_iri() else {
            return Err(CoreError::SchemaViolation(format!(
                "predicate {pred_term} is not an IRI"
            )));
        };
        if pred_iri == vocab::RDF_TYPE {
            let PatternTerm::Const(class) = pattern.o else {
                return Err(CoreError::SchemaViolation(format!(
                    "query '{}' types a variable with a non-constant class",
                    bgp.name()
                )));
            };
            let class_term = dict.get(class).cloned().unwrap_or_else(|| Term::iri("?"));
            let Some(class_iri) = class_term.as_iri() else {
                return Err(CoreError::SchemaViolation(format!(
                    "class {class_term} is not an IRI"
                )));
            };
            if !schema.has_class(class_iri) {
                return Err(CoreError::SchemaViolation(format!(
                    "'{class_iri}' is not an analysis class of schema '{}'",
                    schema.name()
                )));
            }
            if pattern.s == PatternTerm::Var(root) {
                root_class = Some(class_iri.to_string());
            }
        } else if !schema.has_property(pred_iri) {
            return Err(CoreError::SchemaViolation(format!(
                "'{pred_iri}' is not an analysis property of schema '{}'",
                schema.name()
            )));
        }
    }
    Ok(root_class)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_query(dict: &mut Dictionary) -> AnalyticalQuery {
        AnalyticalQuery::parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
            AggFunc::Count,
            dict,
        )
        .unwrap()
    }

    fn blog_schema() -> AnalyticalSchema {
        let mut s = AnalyticalSchema::new("blog");
        s.add_node("Blogger", "n(?x) :- ?x rdf:type Person")
            .add_node("Age", "n(?a) :- ?x age ?a")
            .add_node("City", "n(?c) :- ?x city ?c")
            .add_node("BlogPost", "n(?p) :- ?x posted ?p")
            .add_node("Site", "n(?s) :- ?p on ?s")
            .add_edge("hasAge", "Blogger", "Age", "e(?x, ?a) :- ?x age ?a")
            .add_edge("livesIn", "Blogger", "City", "e(?x, ?c) :- ?x city ?c")
            .add_edge(
                "wrotePost",
                "Blogger",
                "BlogPost",
                "e(?x, ?p) :- ?x posted ?p",
            )
            .add_edge("postedOn", "BlogPost", "Site", "e(?p, ?s) :- ?p on ?s");
        s
    }

    #[test]
    fn example_1_parses_with_two_dimensions() {
        let mut dict = Dictionary::new();
        let q = paper_query(&mut dict);
        assert_eq!(q.n_dims(), 2);
        assert_eq!(q.dim_names(), vec!["dage", "dcity"]);
        assert_eq!(q.dim_index("dcity").unwrap(), 1);
        assert!(q.dim_index("nope").is_err());
        assert_eq!(q.agg(), AggFunc::Count);
    }

    #[test]
    fn measure_arity_must_be_two() {
        let mut dict = Dictionary::new();
        let err = AnalyticalQuery::parse(
            "c(?x) :- ?x rdf:type Blogger",
            "m(?x, ?v, ?w) :- ?x p ?v, ?x q ?w",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap_err();
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn non_rooted_classifier_rejected() {
        let mut dict = Dictionary::new();
        let err = AnalyticalQuery::parse(
            "c(?x, ?d) :- ?x rdf:type Blogger, ?y hasAge ?d",
            "m(?x, ?v) :- ?x score ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap_err();
        assert!(err.to_string().contains("not rooted"));
    }

    #[test]
    fn duplicate_dimension_rejected() {
        let mut dict = Dictionary::new();
        let err = AnalyticalQuery::parse(
            "c(?x, ?d, ?d) :- ?x hasAge ?d",
            "m(?x, ?v) :- ?x score ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DuplicateDimension(_)));
    }

    #[test]
    fn homomorphism_check_accepts_paper_query() {
        let mut dict = Dictionary::new();
        let q = paper_query(&mut dict);
        q.validate_against(&blog_schema(), &dict).unwrap();
    }

    #[test]
    fn homomorphism_check_rejects_foreign_property() {
        let mut dict = Dictionary::new();
        let q = AnalyticalQuery::parse(
            "c(?x, ?d) :- ?x rdf:type Blogger, ?x shoeSize ?d",
            "m(?x, ?v) :- ?x hasAge ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        let err = q.validate_against(&blog_schema(), &dict).unwrap_err();
        assert!(err.to_string().contains("shoeSize"));
    }

    #[test]
    fn homomorphism_check_rejects_foreign_class() {
        let mut dict = Dictionary::new();
        let q = AnalyticalQuery::parse(
            "c(?x, ?d) :- ?x rdf:type Martian, ?x hasAge ?d",
            "m(?x, ?v) :- ?x hasAge ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        assert!(q.validate_against(&blog_schema(), &dict).is_err());
    }

    #[test]
    fn mismatched_root_classes_rejected() {
        let mut dict = Dictionary::new();
        let q = AnalyticalQuery::parse(
            "c(?x, ?d) :- ?x rdf:type Blogger, ?x hasAge ?d",
            "m(?p, ?v) :- ?p rdf:type BlogPost, ?p postedOn ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        let err = q.validate_against(&blog_schema(), &dict).unwrap_err();
        assert!(err.to_string().contains("rooted in class"));
    }

    /// The signature a query carries is the one a fresh canonicalization
    /// computes — for parsed queries and for every operator's output — and
    /// clones share it rather than copy it.
    #[test]
    fn carried_signature_is_never_stale() {
        use crate::extended::{ExtendedQuery, ValueSelector};
        use crate::olap::{apply, apply_roll_up_encoded, OlapOp};
        let mut dict = Dictionary::new();
        let measure = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v";
        let mut parse = |classifier: &str| {
            let q = AnalyticalQuery::parse(classifier, measure, AggFunc::Count, &mut dict);
            ExtendedQuery::from_query(q.unwrap())
        };
        let ex1 = parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
        );
        let q3 = parse(
            "c(?x, ?dage, ?dcity, ?dsite) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
             ?x livesIn ?dcity, ?x wrotePost ?p, ?p postedOn ?dsite",
        );
        let e5b = parse("c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity");
        let ops = [
            OlapOp::Slice {
                dim: "dage".into(),
                value: Term::integer(35),
            },
            OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 13, hi: 19 })],
            },
            OlapOp::DrillOut {
                dims: vec!["dcity".into()],
            },
        ];
        let mut queries = vec![ex1.clone(), q3, e5b.clone()];
        queries.extend(ops.iter().map(|op| apply(&ex1, op).unwrap()));
        let drill_in = OlapOp::DrillIn {
            var: "dcity".into(),
        };
        queries.push(apply(&e5b, &drill_in).unwrap());
        let via = dict.encode(&Term::iri("locatedIn"));
        queries.push(apply_roll_up_encoded(&ex1, "dcity", via).unwrap());

        for eq in &queries {
            let q = eq.query();
            let fresh = ViewSignature::compute(q.classifier(), q.measure(), q.agg());
            let carried = q.signature();
            assert_eq!(carried.key, fresh.key);
            assert_eq!(carried.dims, fresh.dims);
            assert_eq!(carried.agg, fresh.agg);
            assert!(Arc::ptr_eq(&q.signature, &q.clone().signature));
        }
        // The operators' signatures moved with them: the drill-out kept
        // `dage`, E5b drilled into `dcity` is Example 1, and the roll-up
        // changed the body.
        let sig = |i: usize| queries[i].query().signature();
        assert_eq!(sig(5).dims, sig(0).dims[..1]);
        assert_eq!((&sig(6).key, &sig(6).dims), (&sig(0).key, &sig(0).dims));
        assert_ne!(sig(7).key, sig(0).key);
    }

    #[test]
    fn with_classifier_revalidates() {
        let mut dict = Dictionary::new();
        let q = paper_query(&mut dict);
        let mut c2 = q.classifier().clone();
        let dage = c2.vars().id("dage").unwrap();
        let x = c2.vars().id("x").unwrap();
        c2.set_head(vec![x, dage]);
        let q2 = q.with_classifier(c2).unwrap();
        assert_eq!(q2.dim_names(), vec!["dage"]);
    }
}
