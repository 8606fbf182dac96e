//! Filter expressions over query variables.
//!
//! Extended analytical queries restrict dimensions with Σ (Definition 2).
//! Conceptually that is a selection over the classifier answer, but a good
//! evaluator pushes the selection *into* pattern matching so that bindings
//! violating Σ are discarded the moment the dimension variable binds —
//! before they fan out through the remaining joins. This module provides
//! the engine-level filter language that [`crate::eval::evaluate_filtered`]
//! applies during binding propagation (`tests/bgp_eval_prop.rs` holds it
//! equal to post-filtering).

use crate::var::VarId;
use rdfcube_rdf::fx::FxHashSet;
use rdfcube_rdf::{Dictionary, Term, TermId};

/// Comparison operators for [`FilterExpr::Compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equal (term identity).
    Eq,
    /// Not equal (term identity).
    Ne,
    /// Numerically less than.
    Lt,
    /// Numerically at most.
    Le,
    /// Numerically greater than.
    Gt,
    /// Numerically at least.
    Ge,
}

/// A predicate over a single query variable.
#[derive(Debug, Clone)]
pub enum FilterExpr {
    /// Compare the variable's binding against a constant. `Eq`/`Ne` use
    /// term identity; the ordered operators interpret both sides
    /// numerically and reject non-numeric bindings.
    Compare {
        /// The constrained variable.
        var: VarId,
        /// The comparison.
        op: CompareOp,
        /// The constant to compare against.
        value: TermId,
    },
    /// The binding must be a numeric literal within `lo..=hi`.
    NumericBetween {
        /// The constrained variable.
        var: VarId,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// The binding must be one of the given terms.
    OneOf {
        /// The constrained variable.
        var: VarId,
        /// Admissible term ids.
        set: FxHashSet<TermId>,
    },
}

impl FilterExpr {
    /// The variable this filter constrains.
    pub fn var(&self) -> VarId {
        match self {
            FilterExpr::Compare { var, .. }
            | FilterExpr::NumericBetween { var, .. }
            | FilterExpr::OneOf { var, .. } => *var,
        }
    }

    /// If this filter pins its variable to exactly one term — an `Eq`
    /// comparison or a one-element [`FilterExpr::OneOf`] (how slice
    /// constants arrive from Σ) — returns that term. The evaluator
    /// pre-binds such variables as constants before any pattern runs,
    /// pushing the selection into the index probes themselves (and, on a
    /// sharded store, into shard skipping).
    pub fn as_eq_constant(&self) -> Option<TermId> {
        match self {
            FilterExpr::Compare {
                op: CompareOp::Eq,
                value,
                ..
            } => Some(*value),
            FilterExpr::OneOf { set, .. } if set.len() == 1 => set.iter().next().copied(),
            _ => None,
        }
    }

    /// True if the binding `id` satisfies the filter.
    pub fn admits(&self, id: TermId, dict: &Dictionary) -> bool {
        match self {
            FilterExpr::Compare {
                op: CompareOp::Eq,
                value,
                ..
            } => id == *value,
            FilterExpr::Compare {
                op: CompareOp::Ne,
                value,
                ..
            } => id != *value,
            FilterExpr::Compare { op, value, .. } => {
                let (Some(a), Some(b)) = (
                    dict.get(id).and_then(Term::as_f64),
                    dict.get(*value).and_then(Term::as_f64),
                ) else {
                    return false;
                };
                match op {
                    CompareOp::Lt => a < b,
                    CompareOp::Le => a <= b,
                    CompareOp::Gt => a > b,
                    CompareOp::Ge => a >= b,
                    CompareOp::Eq | CompareOp::Ne => unreachable!("handled above"),
                }
            }
            FilterExpr::NumericBetween { lo, hi, .. } => dict
                .get(id)
                .and_then(Term::as_i64)
                .is_some_and(|v| *lo <= v && v <= *hi),
            FilterExpr::OneOf { set, .. } => set.contains(&id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict_with(values: &[Term]) -> (Dictionary, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids = values.iter().map(|t| d.encode(t)).collect();
        (d, ids)
    }

    #[test]
    fn eq_constant_extraction() {
        let (_, ids) = dict_with(&[Term::integer(1), Term::integer(2)]);
        let v = VarId(0);
        let eq = FilterExpr::Compare {
            var: v,
            op: CompareOp::Eq,
            value: ids[0],
        };
        assert_eq!(eq.as_eq_constant(), Some(ids[0]));
        let ne = FilterExpr::Compare {
            var: v,
            op: CompareOp::Ne,
            value: ids[0],
        };
        assert_eq!(ne.as_eq_constant(), None);
        let single = FilterExpr::OneOf {
            var: v,
            set: [ids[1]].into_iter().collect(),
        };
        assert_eq!(single.as_eq_constant(), Some(ids[1]));
        let multi = FilterExpr::OneOf {
            var: v,
            set: ids.iter().copied().collect(),
        };
        assert_eq!(multi.as_eq_constant(), None);
        let between = FilterExpr::NumericBetween {
            var: v,
            lo: 0,
            hi: 9,
        };
        assert_eq!(between.as_eq_constant(), None);
    }

    #[test]
    fn eq_ne_are_term_identity() {
        let (d, ids) = dict_with(&[Term::integer(1), Term::literal("1")]);
        let v = VarId(0);
        let eq = FilterExpr::Compare {
            var: v,
            op: CompareOp::Eq,
            value: ids[0],
        };
        assert!(eq.admits(ids[0], &d));
        // "1" as a plain literal is a different *term* even if numerically equal.
        assert!(!eq.admits(ids[1], &d));
        let ne = FilterExpr::Compare {
            var: v,
            op: CompareOp::Ne,
            value: ids[0],
        };
        assert!(ne.admits(ids[1], &d));
    }

    #[test]
    fn ordered_comparisons_are_numeric() {
        let (d, ids) = dict_with(&[Term::integer(5), Term::integer(7), Term::literal("abc")]);
        let v = VarId(0);
        let lt = FilterExpr::Compare {
            var: v,
            op: CompareOp::Lt,
            value: ids[1],
        };
        assert!(lt.admits(ids[0], &d));
        assert!(!lt.admits(ids[1], &d));
        assert!(!lt.admits(ids[2], &d), "non-numeric must be rejected");
        let ge = FilterExpr::Compare {
            var: v,
            op: CompareOp::Ge,
            value: ids[0],
        };
        assert!(ge.admits(ids[1], &d));
        assert!(ge.admits(ids[0], &d));
    }

    #[test]
    fn between_and_one_of() {
        let (d, ids) = dict_with(&[Term::integer(25), Term::integer(45), Term::literal("NY")]);
        let v = VarId(1);
        let between = FilterExpr::NumericBetween {
            var: v,
            lo: 20,
            hi: 30,
        };
        assert!(between.admits(ids[0], &d));
        assert!(!between.admits(ids[1], &d));
        assert!(!between.admits(ids[2], &d));
        let one_of = FilterExpr::OneOf {
            var: v,
            set: [ids[2]].into_iter().collect(),
        };
        assert!(one_of.admits(ids[2], &d));
        assert!(!one_of.admits(ids[0], &d));
        assert_eq!(one_of.var(), v);
    }
}
