//! Canonical query signatures for materialized-view matching.
//!
//! The paper's problem statement — *answering an AnQ using the materialized
//! results of other AnQs* — needs a way to recognize that two analytical
//! queries share the same classifier body and measure even when they were
//! written independently (different variable names, different pattern
//! order). This module computes a **canonical form**: body patterns are
//! sorted, variables renamed by first occurrence in the sorted order, and
//! the result rendered to a string that is equal for structurally identical
//! queries.
//!
//! Canonicalization of conjunctive queries up to isomorphism is
//! GI-complete in general; this is a deterministic *sound heuristic*:
//! queries with equal signatures are guaranteed equivalent (the renaming is
//! a bijection), while rare symmetric queries may canonicalize differently
//! and merely miss a reuse opportunity — never produce a wrong answer.

use rdfcube_engine::{AggFunc, Bgp, PatternTerm, VarId};
use rdfcube_rdf::fx::FxHashMap;

/// The canonical form of a query body, plus the variable ↔ canonical-name
/// correspondence needed to relate dimensions across queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodySignature {
    /// Canonical rendering of the sorted, renamed body.
    pub text: String,
    /// Maps each body variable to its canonical name.
    pub var_names: FxHashMap<VarId, String>,
}

impl BodySignature {
    /// Computes the canonical body signature of `bgp` (head-independent:
    /// drill-out/drill-in change the head but not the signature).
    pub fn of(bgp: &Bgp) -> BodySignature {
        let mut names: FxHashMap<VarId, String> = FxHashMap::default();

        // Two rounds: first sort with anonymous variables to fix a pattern
        // order, assign names in first-occurrence order, then re-sort with
        // the assigned names for the final rendering.
        for _round in 0..2 {
            let mut rendered: Vec<(String, usize)> = bgp
                .body()
                .iter()
                .enumerate()
                .map(|(i, p)| (render_pattern(p, &names), i))
                .collect();
            rendered.sort();
            let mut next = names.len();
            for (_, i) in &rendered {
                for v in bgp.body()[*i].vars() {
                    names.entry(v).or_insert_with(|| {
                        let name = format!("v{next}");
                        next += 1;
                        name
                    });
                }
            }
        }

        let mut rendered: Vec<String> = bgp
            .body()
            .iter()
            .map(|p| render_pattern(p, &names))
            .collect();
        rendered.sort();
        rendered.dedup(); // identical patterns are redundant conjuncts
        BodySignature {
            text: rendered.join(" , "),
            var_names: names,
        }
    }

    /// The canonical name of `v`, if it occurs in the body.
    pub fn name_of(&self, v: VarId) -> Option<&str> {
        self.var_names.get(&v).map(String::as_str)
    }
}

fn render_pattern(p: &rdfcube_engine::QueryPattern, names: &FxHashMap<VarId, String>) -> String {
    let pos = |t: PatternTerm| match t {
        PatternTerm::Const(c) => format!("#{}", c.0),
        PatternTerm::Var(v) => names.get(&v).cloned().unwrap_or_else(|| "?".into()),
    };
    format!("{} {} {}", pos(p.s), pos(p.p), pos(p.o))
}

/// The hashable identity of a *derivation family*: every materialized cube
/// that could possibly answer a given target query shares this key — same
/// canonical classifier body, same canonical root name, same measure
/// signature. The cube catalog indexes its entries by `ViewKey`, so
/// the planner probes exactly one candidate family in O(1) instead of
/// rescanning every materialized cube per query. The key is part of the
/// [`ViewSignature`] every query carries from construction, so a probe
/// hashes three strings and canonicalizes nothing.
///
/// Dimension heads, Σ restrictions and ⊕ are deliberately *not* part of
/// the key: drill-out/drill-in change the head, dice changes Σ, and
/// `pres(Q)` — the input every `pres`-based route reads — does not depend
/// on ⊕ (Equation 3 applies γ_⊕ only at the end), so all of them must land
/// in the same family for reuse to trigger.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewKey {
    /// Canonical classifier body text ([`BodySignature::text`]).
    pub body: String,
    /// Canonical name of the fact (root) variable within that body.
    pub root: String,
    /// Full canonical measure signature ([`query_signature`]).
    pub measure: String,
}

/// Everything the catalog needs to know about a query's shape: the family
/// key, the body signature's variable↔name correspondence, the canonical
/// names of the dimension variables in head order, and ⊕ — which decides
/// between σ over `ans(Q)` and γ over `pres(Q)` within a family.
///
/// Computed **once per query**, when
/// [`AnalyticalQuery::new`](crate::AnalyticalQuery::new) builds it, and
/// carried behind an `Arc` that the query's clones share: routing,
/// explaining, registering and logging a query all borrow it through
/// [`AnalyticalQuery::signature`](crate::AnalyticalQuery::signature).
#[derive(Debug, Clone)]
pub struct ViewSignature {
    /// The derivation-family key.
    pub key: ViewKey,
    /// The classifier body signature (kept for drill-in variable lookup).
    pub body: BodySignature,
    /// Canonical names of the dimensions, in classifier-head order.
    pub dims: Vec<String>,
    /// The aggregation function ⊕.
    pub agg: AggFunc,
}

impl ViewSignature {
    /// The signature of an analytical query: a clone of the one the query
    /// carries ([`AnalyticalQuery::signature`](crate::AnalyticalQuery::signature)
    /// borrows it instead).
    pub fn of(query: &crate::anq::AnalyticalQuery) -> ViewSignature {
        query.signature().clone()
    }

    /// Canonicalizes `⟨classifier, measure, agg⟩`: the classifier is
    /// canonicalized once, and its root and dimension variables (head
    /// order) are resolved to their canonical names through it.
    pub(crate) fn compute(classifier: &Bgp, measure: &Bgp, agg: AggFunc) -> ViewSignature {
        let body = BodySignature::of(classifier);
        // Rooted-query validation guarantees every head variable occurs in
        // the body; the fallback merely keeps this total.
        let mut names = classifier
            .head()
            .iter()
            .map(|&v| body.name_of(v).unwrap_or("?").to_string());
        let root = names.next().unwrap_or_default();
        ViewSignature {
            key: ViewKey {
                body: body.text.clone(),
                root,
                measure: query_signature(measure),
            },
            dims: names.collect(),
            body,
            agg,
        }
    }
}

/// Full signature of a query including its head (for measures, whose head
/// shape `(x, v)` is part of the semantics).
pub fn query_signature(bgp: &Bgp) -> String {
    let body = BodySignature::of(bgp);
    let head: Vec<String> = bgp
        .head()
        .iter()
        .map(|&v| body.name_of(v).unwrap_or("?").to_string())
        .collect();
    format!("({}) :- {}", head.join(", "), body.text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_engine::parse_query;
    use rdfcube_rdf::Dictionary;

    #[test]
    fn renaming_and_reordering_are_invisible() {
        let mut dict = Dictionary::new();
        let a = parse_query(
            "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x wrotePost ?p",
            &mut dict,
        )
        .unwrap();
        let b = parse_query(
            "k(?person, ?a) :- ?person wrotePost ?post, ?person hasAge ?a, \
             ?person rdf:type Blogger",
            &mut dict,
        )
        .unwrap();
        assert_eq!(BodySignature::of(&a).text, BodySignature::of(&b).text);
        assert_eq!(query_signature(&a), query_signature(&b));
    }

    #[test]
    fn different_bodies_differ() {
        let mut dict = Dictionary::new();
        let a = parse_query("c(?x) :- ?x hasAge ?d", &mut dict).unwrap();
        let b = parse_query("c(?x) :- ?x livesIn ?d", &mut dict).unwrap();
        assert_ne!(BodySignature::of(&a).text, BodySignature::of(&b).text);
    }

    #[test]
    fn head_changes_do_not_affect_body_signature() {
        let mut dict = Dictionary::new();
        let full = parse_query(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            &mut dict,
        )
        .unwrap();
        let mut drilled = full.clone();
        let head = drilled.head()[..2].to_vec();
        drilled.set_head(head);
        assert_eq!(
            BodySignature::of(&full).text,
            BodySignature::of(&drilled).text
        );
        // But the full signatures (head included) differ.
        assert_ne!(query_signature(&full), query_signature(&drilled));
    }

    #[test]
    fn dims_correspond_across_renamings() {
        let mut dict = Dictionary::new();
        let a = parse_query(
            "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage",
            &mut dict,
        )
        .unwrap();
        let b = parse_query(
            "c(?u, ?years) :- ?u rdf:type Blogger, ?u hasAge ?years",
            &mut dict,
        )
        .unwrap();
        let sig_a = BodySignature::of(&a);
        let sig_b = BodySignature::of(&b);
        let dage = a.vars().id("dage").unwrap();
        let years = b.vars().id("years").unwrap();
        assert_eq!(sig_a.name_of(dage), sig_b.name_of(years));
    }

    #[test]
    fn constants_distinguish() {
        let mut dict = Dictionary::new();
        let a = parse_query("c(?x) :- ?x hasAge 28", &mut dict).unwrap();
        let b = parse_query("c(?x) :- ?x hasAge 35", &mut dict).unwrap();
        assert_ne!(BodySignature::of(&a).text, BodySignature::of(&b).text);
    }

    #[test]
    fn view_keys_are_rename_invariant_and_agg_blind() {
        use crate::anq::AnalyticalQuery;
        use rdfcube_engine::AggFunc;
        let mut dict = Dictionary::new();
        let a = AnalyticalQuery::parse(
            "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage",
            "m(?x, ?v) :- ?x wrotePost ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        let b = AnalyticalQuery::parse(
            "k(?u, ?years) :- ?u hasAge ?years, ?u rdf:type Blogger",
            "w(?u, ?p) :- ?u wrotePost ?p",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        let sa = ViewSignature::of(&a);
        let sb = ViewSignature::of(&b);
        assert_eq!(
            sa.key, sb.key,
            "renaming/reordering must not split families"
        );
        assert_eq!(sa.dims, sb.dims);

        let c = AnalyticalQuery::parse(
            "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage",
            "m(?x, ?v) :- ?x wrotePost ?v",
            AggFunc::CountDistinct,
            &mut dict,
        )
        .unwrap();
        let sc = ViewSignature::of(&c);
        assert_eq!(sa.key, sc.key, "⊕ does not split the family");
        assert_ne!(sa.agg, sc.agg, "but the signature keeps it");
    }

    #[test]
    fn view_key_ignores_head_but_not_measure() {
        use crate::anq::AnalyticalQuery;
        use rdfcube_engine::AggFunc;
        let mut dict = Dictionary::new();
        let full = AnalyticalQuery::parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?v) :- ?x wrotePost ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        let coarse = AnalyticalQuery::parse(
            "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?a, ?x livesIn ?dcity",
            "m(?x, ?v) :- ?x wrotePost ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        // Drill-out shape: same family (same body), different dims.
        assert_eq!(ViewSignature::of(&full).key, ViewSignature::of(&coarse).key);
        assert_ne!(
            ViewSignature::of(&full).dims,
            ViewSignature::of(&coarse).dims
        );

        let other_measure = AnalyticalQuery::parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?v",
            AggFunc::Count,
            &mut dict,
        )
        .unwrap();
        assert_ne!(
            ViewSignature::of(&full).key,
            ViewSignature::of(&other_measure).key
        );
    }

    #[test]
    fn duplicate_conjuncts_collapse() {
        let mut dict = Dictionary::new();
        let a = parse_query("c(?x) :- ?x p ?y, ?x p ?y", &mut dict).unwrap();
        let b = parse_query("c(?x) :- ?x p ?y", &mut dict).unwrap();
        assert_eq!(BodySignature::of(&a).text, BodySignature::of(&b).text);
    }
}
