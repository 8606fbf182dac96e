//! Dictionary encoding of RDF terms.
//!
//! Every distinct [`Term`] in a graph is interned once and referred to by a
//! dense `u32` [`TermId`]. All downstream processing — pattern matching,
//! joins, grouping, cube cells — operates on ids; strings are only touched at
//! parse and display time. This is the standard RDF-store design (and the
//! "smaller integers" guidance from the performance guide): ids halve memory
//! traffic and make hash joins integer-keyed.
//!
//! Numbers are decoded once, at encode: beside its terms the dictionary
//! keeps a numeric column, one 4-byte slot per id that names an entry of
//! `numbers` or says "not numeric", and one `(as_i64, as_f64)` entry per
//! term whose lexical form reads as a number. γ and Σ's ranges read
//! [`Dictionary::as_i64`] / [`Dictionary::as_f64`] instead of parsing text.

use crate::fx::FxHashMap;
use crate::term::Term;
use std::fmt;

/// A dense identifier for an interned [`Term`]. Valid only with respect to
/// the [`Dictionary`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A bidirectional `Term ⟷ TermId` mapping.
///
/// Ids are assigned densely in first-seen order, so `Vec`-indexed side tables
/// (`Vec<T>` keyed by `TermId::index()`) are cheap to maintain.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: FxHashMap<Term, TermId>,
    /// Per id, its index in `numbers`, or [`NOT_NUMERIC`].
    slots: Vec<u32>,
    /// `(Term::as_i64, Term::as_f64)` of every numeric term, in id order.
    numbers: Vec<(Option<i64>, f64)>,
}

/// The slot of a term whose lexical form is not a number.
const NOT_NUMERIC: u32 = u32::MAX;

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (existing or fresh).
    pub fn encode(&mut self, term: &Term) -> TermId {
        match self.ids.get(term) {
            Some(&id) => id,
            None => self.push(term.clone()),
        }
    }

    /// Interns an owned term without the extra clone when it is fresh.
    pub fn encode_owned(&mut self, term: Term) -> TermId {
        match self.ids.get(&term) {
            Some(&id) => id,
            None => self.push(term),
        }
    }

    /// Gives the fresh `term` the next id and decodes its numeric views.
    fn push(&mut self, term: Term) -> TermId {
        let id = TermId(
            u32::try_from(self.terms.len()).expect("dictionary overflow: more than 2^32 terms"),
        );
        let number = term.as_f64().map(|float| (term.as_i64(), float));
        self.slots
            .push(number.map_or(NOT_NUMERIC, |_| self.numbers.len() as u32));
        self.numbers.extend(number);
        self.terms.push(term.clone());
        self.ids.insert(term, id);
        id
    }

    /// Looks up the id of `term` without interning.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Looks up the id of an IRI without interning.
    pub fn iri_id(&self, iri: &str) -> Option<TermId> {
        // Avoids allocating when the IRI is already interned is not possible
        // with std's borrow machinery over enum keys; a single short-lived
        // allocation here is acceptable (lookup is not on the hot path).
        self.id(&Term::iri(iri))
    }

    /// The term behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// The term behind `id`, or `None` if the id is foreign.
    pub fn get(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// `Term::as_i64` of the term behind `id`, decoded at encode; `None`
    /// for a term that is not an integer or a foreign id.
    pub fn as_i64(&self, id: TermId) -> Option<i64> {
        self.number(id).and_then(|n| n.0)
    }

    /// `Term::as_f64` of the term behind `id`, decoded at encode; `None`
    /// for a term that is not a number or a foreign id.
    pub fn as_f64(&self, id: TermId) -> Option<f64> {
        self.number(id).map(|n| n.1)
    }

    fn number(&self, id: TermId) -> Option<&(Option<i64>, f64)> {
        let slot = *self.slots.get(id.index())?;
        self.numbers.get(slot as usize)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(TermId, &Term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::iri("hasAge"));
        let b = d.encode(&Term::iri("hasAge"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered_by_first_seen() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::iri("a"));
        let b = d.encode(&Term::iri("b"));
        let c = d.encode(&Term::literal("c"));
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn distinct_term_kinds_get_distinct_ids() {
        // An IRI, a plain literal, and a blank node that share lexical form
        // are different RDF terms.
        let mut d = Dictionary::new();
        let iri = d.encode(&Term::iri("x"));
        let lit = d.encode(&Term::literal("x"));
        let bnode = d.encode(&Term::blank("x"));
        assert_ne!(iri, lit);
        assert_ne!(lit, bnode);
        assert_ne!(iri, bnode);
    }

    #[test]
    fn round_trip() {
        let mut d = Dictionary::new();
        let t = Term::integer(28);
        let id = d.encode(&t);
        assert_eq!(d.term(id), &t);
        assert_eq!(d.id(&t), Some(id));
    }

    #[test]
    fn foreign_id_lookup_is_safe() {
        let d = Dictionary::new();
        assert!(d.get(TermId(99)).is_none());
        assert!(d.iri_id("nope").is_none());
    }

    #[test]
    fn numeric_column_matches_the_terms_views() {
        let terms = [
            Term::integer(28),
            Term::double(2.5),
            Term::literal("01"),
            Term::literal(" -0 "),
            Term::literal("NaN"),
            Term::literal("1e400"),
            Term::literal("9223372036854775808"),
            Term::literal("Madrid"),
            Term::iri("42"),
            Term::blank("7"),
        ];
        let mut d = Dictionary::new();
        for (i, t) in terms.iter().enumerate() {
            match i % 2 {
                0 => d.encode(t),
                _ => d.encode_owned(t.clone()),
            };
        }
        let views = |t: &Term| (t.as_i64(), t.as_f64().map(f64::to_bits));
        for dict in [&d, &d.clone()] {
            for (id, t) in dict.iter() {
                let column = (dict.as_i64(id), dict.as_f64(id).map(f64::to_bits));
                assert_eq!(column, views(t), "{t}");
            }
        }
        // Only a literal is a number; a foreign id is none.
        assert_eq!(d.as_f64(d.iri_id("42").unwrap()), None);
        assert_eq!((d.as_i64(TermId(99)), d.as_f64(TermId(99))), (None, None));
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut d = Dictionary::new();
        d.encode(&Term::iri("a"));
        d.encode(&Term::iri("b"));
        let ids: Vec<u32> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
