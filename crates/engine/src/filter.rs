//! Σ selectors compiled to term ids.
//!
//! Extended analytical queries restrict dimensions with Σ (Definition 2).
//! Conceptually that is a selection over the classifier answer, but a good
//! evaluator pushes the selection *into* pattern matching so that bindings
//! violating Σ are discarded the moment the dimension variable binds —
//! before they fan out through the remaining joins. A restricted dimension
//! compiles to one [`Selector`], and that selector is all there is: a
//! [`FilterExpr`] hands it to [`crate::eval::evaluate_filtered`] for
//! push-down (`tests/bgp_eval_prop.rs` holds it equal to post-filtering),
//! and σ over a materialized cube (Proposition 1) asks the same
//! [`Selector::admits`].

use crate::var::VarId;
use rdfcube_rdf::fx::FxHashSet;
use rdfcube_rdf::{Dictionary, TermId};

/// The values one restricted dimension admits, as term ids.
#[derive(Debug, Clone)]
pub enum Selector {
    /// Exactly these terms (SLICE: one; DICE: any set).
    OneOf(FxHashSet<TermId>),
    /// Integer literals within `lo..=hi`, read from the dictionary's
    /// numeric column.
    Between {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
}

impl Selector {
    /// True if the binding `id` is admitted.
    pub fn admits(&self, id: TermId, dict: &Dictionary) -> bool {
        match self {
            Selector::OneOf(set) => set.contains(&id),
            Selector::Between { lo, hi } => dict.as_i64(id).is_some_and(|v| *lo <= v && v <= *hi),
        }
    }

    /// The one term a singleton [`Selector::OneOf`] admits (how slice
    /// constants arrive from Σ). The evaluator pre-binds such variables as
    /// constants before any pattern runs, pushing the selection into the
    /// index probes themselves (and, on a sharded store, into shard
    /// skipping).
    pub fn as_constant(&self) -> Option<TermId> {
        match self {
            Selector::OneOf(set) if set.len() == 1 => set.iter().next().copied(),
            _ => None,
        }
    }
}

/// A [`Selector`] over one query variable.
#[derive(Debug, Clone)]
pub struct FilterExpr {
    /// The constrained variable.
    pub var: VarId,
    /// What its binding must satisfy.
    pub selector: Selector,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_rdf::Term;

    fn dict_with(values: &[Term]) -> (Dictionary, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids = values.iter().map(|t| d.encode(t)).collect();
        (d, ids)
    }

    #[test]
    fn constant_extraction() {
        let (_, ids) = dict_with(&[Term::integer(1), Term::integer(2)]);
        let single = Selector::OneOf([ids[1]].into_iter().collect());
        assert_eq!(single.as_constant(), Some(ids[1]));
        let multi = Selector::OneOf(ids.iter().copied().collect());
        assert_eq!(multi.as_constant(), None);
        let between = Selector::Between { lo: 0, hi: 9 };
        assert_eq!(between.as_constant(), None);
    }

    #[test]
    fn between_and_one_of() {
        let (d, ids) = dict_with(&[
            Term::integer(25),
            Term::integer(45),
            Term::literal("NY"),
            Term::literal("25"),
        ]);
        let between = Selector::Between { lo: 20, hi: 30 };
        assert!(between.admits(ids[0], &d));
        assert!(!between.admits(ids[1], &d));
        assert!(!between.admits(ids[2], &d));
        let one_of = Selector::OneOf([ids[2], ids[0]].into_iter().collect());
        assert!(one_of.admits(ids[2], &d));
        assert!(one_of.admits(ids[0], &d));
        assert!(!one_of.admits(ids[1], &d));
        // "25" as a plain literal is a different *term* from the integer.
        assert!(!one_of.admits(ids[3], &d));
    }
}
