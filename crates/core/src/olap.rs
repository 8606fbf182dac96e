//! The four RDF OLAP operations of §2, as query-to-query rewritings.
//!
//! Each operation maps an extended analytical query to a new one:
//!
//! * **SLICE** — binds one dimension to a single value
//!   (Σ′ replaces that dimension's selector with a singleton);
//! * **DICE** — constrains several dimensions to value sets
//!   (Σ′ replaces their selectors);
//! * **DRILL-OUT** — removes dimensions from the classifier head
//!   (the body is unchanged — the removed variables become existential —
//!   and Σ′ drops their entries);
//! * **DRILL-IN** — promotes an existential classifier variable to a new
//!   dimension (Σ′ gains an unrestricted entry for it).
//!
//! Applying an operation only *rewrites the query* — Example 3's level.
//! Answering the rewritten query efficiently is [`crate::rewrite`]'s job.

use crate::error::CoreError;
use crate::extended::{ExtendedQuery, ValueSelector};
use rdfcube_rdf::Term;

/// An OLAP operation on an extended analytical query.
#[derive(Debug, Clone, PartialEq)]
pub enum OlapOp {
    /// Bind dimension `dim` to exactly `value`.
    Slice {
        /// Dimension name (a classifier head variable).
        dim: String,
        /// The single admitted value.
        value: Term,
    },
    /// Constrain each named dimension to a selector.
    Dice {
        /// `(dimension, admitted values)` pairs.
        constraints: Vec<(String, ValueSelector)>,
    },
    /// Remove the named dimensions from the classifier head.
    DrillOut {
        /// Dimension names to remove.
        dims: Vec<String>,
    },
    /// Promote an existential classifier variable to a dimension.
    DrillIn {
        /// The classifier body variable to promote.
        var: String,
    },
    /// **Extension** (classical OLAP roll-up, expressed in the paper's
    /// framework): coarsen dimension `dim` by following the analysis
    /// property `via` from each dimension value to its parent (e.g.
    /// `livesIn`-city rolled up `locatedIn`-country). The classifier gains
    /// the mapping triple and the head swaps the fine variable for the
    /// coarse one, so `Q_ROLL-UP` is itself a plain AnQ. Facts whose value
    /// has no `via` edge drop out (their coarser value is undefined);
    /// multi-valued mappings fan out, consistent with RDF semantics.
    RollUp {
        /// The dimension to coarsen.
        dim: String,
        /// The analysis property mapping fine values to coarse ones.
        via: String,
    },
}

impl OlapOp {
    /// Short operation name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OlapOp::Slice { .. } => "SLICE",
            OlapOp::Dice { .. } => "DICE",
            OlapOp::DrillOut { .. } => "DRILL-OUT",
            OlapOp::DrillIn { .. } => "DRILL-IN",
            OlapOp::RollUp { .. } => "ROLL-UP",
        }
    }
}

/// Applies `op` to `eq`, producing the transformed extended query `Q_T`.
pub fn apply(eq: &ExtendedQuery, op: &OlapOp) -> Result<ExtendedQuery, CoreError> {
    match op {
        OlapOp::Slice { dim, value } => {
            dice(eq, &[(dim.clone(), ValueSelector::one(value.clone()))])
        }
        OlapOp::Dice { constraints } => dice(eq, constraints),
        OlapOp::DrillOut { dims } => drill_out(eq, dims),
        OlapOp::DrillIn { var } => drill_in(eq, var),
        OlapOp::RollUp { dim, via } => roll_up(eq, dim, via),
    }
}

/// Bare `apply` cannot build `Q_ROLL-UP`: encoding the mapping property
/// needs the instance dictionary, which only the session has. The
/// validation still runs so errors surface early.
fn roll_up(eq: &ExtendedQuery, dim: &str, _via: &str) -> Result<ExtendedQuery, CoreError> {
    let i = eq.query().dim_index(dim)?;
    if !eq.sigma().selector(i).is_all() {
        return Err(CoreError::InvalidOperation(format!(
            "cannot roll up dimension '{dim}' while it is restricted by Σ; \
             drill it out or widen the restriction first"
        )));
    }
    Err(CoreError::InvalidOperation(
        "ROLL-UP needs dictionary access; use OlapSession::transform (or \
         apply_roll_up_encoded) instead of bare apply()"
            .into(),
    ))
}

/// ROLL-UP with the mapping property pre-encoded in the target dictionary.
pub fn apply_roll_up_encoded(
    eq: &ExtendedQuery,
    dim: &str,
    via: rdfcube_rdf::TermId,
) -> Result<ExtendedQuery, CoreError> {
    use rdfcube_engine::{PatternTerm, QueryPattern};
    let q = eq.query();
    let i = q.dim_index(dim)?;
    if !eq.sigma().selector(i).is_all() {
        return Err(CoreError::InvalidOperation(format!(
            "cannot roll up dimension '{dim}' while it is restricted by Σ"
        )));
    }
    let mut classifier = q.classifier().clone();
    let fine = q.dim_vars()[i];
    let coarse_name = format!("{dim}_up");
    let coarse = if classifier.vars().id(&coarse_name).is_none() {
        classifier.var(&coarse_name)
    } else {
        classifier.vars_mut().fresh(&coarse_name)
    };
    classifier.push_pattern(QueryPattern::new(
        PatternTerm::Var(fine),
        PatternTerm::Const(via),
        PatternTerm::Var(coarse),
    ));
    let mut head = classifier.head().to_vec();
    head[i + 1] = coarse;
    classifier.set_head(head);
    let new_q = q.with_classifier(classifier)?;
    // Σ: the rolled-up dimension becomes unrestricted over coarse values;
    // all other selectors carry over positionally.
    let mut sigma = eq.sigma().clone();
    sigma.set(i, crate::extended::ValueSelector::All);
    ExtendedQuery::with_sigma(new_q, sigma)
}

fn dice(
    eq: &ExtendedQuery,
    constraints: &[(String, ValueSelector)],
) -> Result<ExtendedQuery, CoreError> {
    if constraints.is_empty() {
        return Err(CoreError::InvalidOperation(
            "DICE requires at least one constraint".into(),
        ));
    }
    let mut sigma = eq.sigma().clone();
    for (dim, selector) in constraints {
        let i = eq.query().dim_index(dim)?;
        sigma.set(i, selector.clone());
    }
    ExtendedQuery::with_sigma(eq.query().clone(), sigma)
}

/// Resolves the named dimensions to sorted, deduplicated indices.
pub(crate) fn resolve_dims(eq: &ExtendedQuery, dims: &[String]) -> Result<Vec<usize>, CoreError> {
    if dims.is_empty() {
        return Err(CoreError::InvalidOperation("no dimensions named".into()));
    }
    let mut indices = Vec::with_capacity(dims.len());
    for d in dims {
        indices.push(eq.query().dim_index(d)?);
    }
    indices.sort_unstable();
    indices.dedup();
    Ok(indices)
}

fn drill_out(eq: &ExtendedQuery, dims: &[String]) -> Result<ExtendedQuery, CoreError> {
    // Removing every dimension is legal: the 0-dimensional (grand total)
    // cube, whose head keeps only the fact variable.
    let removed = resolve_dims(eq, dims)?;
    let q = eq.query();
    let mut classifier = q.classifier().clone();
    let mut head = vec![q.root()];
    for (i, &d) in q.dim_vars().iter().enumerate() {
        if !removed.contains(&i) {
            head.push(d);
        }
    }
    classifier.set_head(head);
    let new_q = q.with_classifier(classifier)?;
    ExtendedQuery::with_sigma(new_q, eq.sigma().without_dims(&removed))
}

fn drill_in(eq: &ExtendedQuery, var: &str) -> Result<ExtendedQuery, CoreError> {
    let q = eq.query();
    let classifier = q.classifier();
    let vid = classifier
        .vars()
        .id(var)
        .ok_or_else(|| CoreError::UnknownVariable(var.to_string()))?;
    if classifier.head().contains(&vid) {
        return Err(CoreError::InvalidOperation(format!(
            "?{var} is already a dimension of the classifier"
        )));
    }
    if !classifier.body().iter().any(|p| p.mentions(vid)) {
        return Err(CoreError::UnknownVariable(format!(
            "?{var} does not occur in the classifier body"
        )));
    }
    let mut new_classifier = classifier.clone();
    let mut head = classifier.head().to_vec();
    head.push(vid);
    new_classifier.set_head(head);
    let new_q = q.with_classifier(new_classifier)?;
    ExtendedQuery::with_sigma(new_q, eq.sigma().with_new_dim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anq::AnalyticalQuery;
    use rdfcube_engine::AggFunc;
    use rdfcube_rdf::Dictionary;

    fn example_1_extended(dict: &mut Dictionary) -> ExtendedQuery {
        ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
                AggFunc::Count,
                dict,
            )
            .unwrap(),
        )
    }

    #[test]
    fn example_3_slice_on_dage_35() {
        let mut dict = Dictionary::new();
        let eq = example_1_extended(&mut dict);
        let sliced = apply(
            &eq,
            &OlapOp::Slice {
                dim: "dage".into(),
                value: Term::integer(35),
            },
        )
        .unwrap();
        assert_eq!(
            sliced.sigma().selector(0),
            &ValueSelector::OneOf(vec![Term::integer(35)])
        );
        assert!(sliced.sigma().selector(1).is_all());
        // Classifier shape unchanged.
        assert_eq!(sliced.query().dim_names(), vec!["dage", "dcity"]);
    }

    #[test]
    fn example_3_dice_on_both_dimensions() {
        // {28} for dage, {Madrid, Kyoto} for dcity.
        let mut dict = Dictionary::new();
        let eq = example_1_extended(&mut dict);
        let diced = apply(
            &eq,
            &OlapOp::Dice {
                constraints: vec![
                    ("dage".into(), ValueSelector::one(Term::integer(28))),
                    (
                        "dcity".into(),
                        ValueSelector::OneOf(vec![Term::literal("Madrid"), Term::literal("Kyoto")]),
                    ),
                ],
            },
        )
        .unwrap();
        assert!(!diced.sigma().selector(0).is_all());
        assert!(!diced.sigma().selector(1).is_all());
    }

    #[test]
    fn example_3_drill_out_then_drill_in_restores_shape() {
        let mut dict = Dictionary::new();
        let eq = example_1_extended(&mut dict);
        let out = apply(
            &eq,
            &OlapOp::DrillOut {
                dims: vec!["dage".into()],
            },
        )
        .unwrap();
        assert_eq!(out.query().dim_names(), vec!["dcity"]);
        // body(c') ≡ body(c): the age pattern is still there, existential.
        assert_eq!(out.query().classifier().body().len(), 3);
        assert!(out
            .query()
            .classifier()
            .existential_vars()
            .iter()
            .any(|&v| out.query().classifier().vars().name(v) == "dage"));

        // DRILL-IN on dage restores Example 1's query shape.
        let back = apply(&out, &OlapOp::DrillIn { var: "dage".into() }).unwrap();
        assert_eq!(back.query().dim_names(), vec!["dcity", "dage"]);
        assert_eq!(back.sigma().len(), 2);
    }

    #[test]
    fn drill_out_everything_gives_grand_total_query() {
        let mut dict = Dictionary::new();
        let eq = example_1_extended(&mut dict);
        let out = apply(
            &eq,
            &OlapOp::DrillOut {
                dims: vec!["dage".into(), "dcity".into()],
            },
        )
        .unwrap();
        assert_eq!(out.query().n_dims(), 0);
    }

    #[test]
    fn unknown_dimension_and_variable_errors() {
        let mut dict = Dictionary::new();
        let eq = example_1_extended(&mut dict);
        assert!(matches!(
            apply(
                &eq,
                &OlapOp::Slice {
                    dim: "nope".into(),
                    value: Term::integer(1)
                }
            ),
            Err(CoreError::UnknownDimension(_))
        ));
        assert!(matches!(
            apply(
                &eq,
                &OlapOp::DrillOut {
                    dims: vec!["nope".into()]
                }
            ),
            Err(CoreError::UnknownDimension(_))
        ));
        assert!(matches!(
            apply(&eq, &OlapOp::DrillIn { var: "nope".into() }),
            Err(CoreError::UnknownVariable(_))
        ));
    }

    #[test]
    fn drill_in_on_existing_dimension_is_invalid() {
        let mut dict = Dictionary::new();
        let eq = example_1_extended(&mut dict);
        assert!(matches!(
            apply(&eq, &OlapOp::DrillIn { var: "dage".into() }),
            Err(CoreError::InvalidOperation(_))
        ));
    }

    #[test]
    fn drill_in_promotes_measure_path_variable() {
        // ?p (the post) is existential in the classifier of this variant.
        let mut dict = Dictionary::new();
        let q = AnalyticalQuery::parse(
            "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x wrotePost ?p",
            "m(?x, ?v) :- ?x wrotePost ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(q);
        let drilled = apply(&eq, &OlapOp::DrillIn { var: "p".into() }).unwrap();
        assert_eq!(drilled.query().dim_names(), vec!["dage", "p"]);
    }

    #[test]
    fn empty_dice_rejected() {
        let mut dict = Dictionary::new();
        let eq = example_1_extended(&mut dict);
        assert!(apply(
            &eq,
            &OlapOp::Dice {
                constraints: vec![]
            }
        )
        .is_err());
    }

    #[test]
    fn op_names() {
        assert_eq!(OlapOp::DrillIn { var: "v".into() }.name(), "DRILL-IN");
        assert_eq!(OlapOp::DrillOut { dims: vec![] }.name(), "DRILL-OUT");
        assert_eq!(
            OlapOp::Slice {
                dim: "d".into(),
                value: Term::integer(1)
            }
            .name(),
            "SLICE"
        );
        assert_eq!(
            OlapOp::Dice {
                constraints: vec![]
            }
            .name(),
            "DICE"
        );
    }
}
