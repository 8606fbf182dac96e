//! A SPARQL 1.1 SELECT surface with grouping and aggregation.
//!
//! The paper's related-work section positions analytical queries against
//! SPARQL 1.1's "SQL-style grouping and aggregation, less expressive than
//! our AnQs". This module makes that comparison executable: a small SPARQL
//! SELECT dialect over the same BGP engine —
//!
//! ```text
//! PREFIX ex: <http://example.org/>
//! SELECT ?dage (COUNT(?site) AS ?n)
//! WHERE { ?x rdf:type ex:Blogger . ?x ex:hasAge ?dage .
//!         ?x ex:wrotePost ?p . ?p ex:postedOn ?site }
//! GROUP BY ?dage
//! ```
//!
//! Supported: `PREFIX`, `SELECT` with variables and one or more
//! `(AGG(?v) AS ?alias)` projections (any name [`AggFunc::from_name`] knows,
//! such as `COUNT` or `AVG`, and `COUNT(DISTINCT ?v)`), a `WHERE` block of
//! triple patterns separated by `.`, and `GROUP BY`. Terms follow the term
//! syntax of `rdfcube_rdf::parser`; a blank node in a pattern is refused.
//! `SELECT *`, `FILTER`, `OPTIONAL` and property paths are out of scope —
//! the comparison only needs the aggregation fragment.
//!
//! The key semantic difference from AnQs, preserved faithfully here: SPARQL
//! aggregates over the *joined solution multiset* of one BGP, so a fact
//! multi-valued along a grouped variable duplicates its measure values —
//! exactly the coupling the paper's classifier/measure split avoids
//! (see `sparql_vs_anq` in the tests, and the `sparql_aggregation` example).

use crate::aggfn::{group_aggregate, AggFunc, AggValue};
use crate::bgp::Bgp;
use crate::error::EngineError;
use crate::eval::{evaluate, Semantics};
use crate::parser::term;
use crate::pattern::{PatternTerm, QueryPattern};
use crate::relation::Relation;
use crate::var::VarId;
use rdfcube_rdf::fx::FxHashMap;
use rdfcube_rdf::parser::lexer::Token;
use rdfcube_rdf::parser::{TermSyntax, Tokens};
use rdfcube_rdf::{Dictionary, TermId};

/// One aggregate projection `(AGG(?var) AS ?alias)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggProjection {
    /// The aggregation function.
    pub func: AggFunc,
    /// The aggregated variable.
    pub var: VarId,
    /// The alias it is bound to in the result.
    pub alias: String,
}

/// A parsed SPARQL SELECT query (aggregation fragment).
#[derive(Debug, Clone)]
pub struct SparqlQuery {
    /// The underlying BGP; its head lists every variable referenced by the
    /// projection (grouped variables first).
    pub bgp: Bgp,
    /// Plain projected variables (must equal the GROUP BY list when
    /// aggregates are present, per the SPARQL 1.1 grammar).
    pub group_vars: Vec<VarId>,
    /// Aggregate projections; empty for a plain SELECT.
    pub aggregates: Vec<AggProjection>,
}

/// One row of an aggregated SPARQL result: grouped values + one value per
/// aggregate projection.
#[derive(Debug, Clone, PartialEq)]
pub struct SparqlRow {
    /// Values of the grouped variables, in projection order.
    pub keys: Vec<TermId>,
    /// One aggregate value per `(AGG(...) AS ...)` projection.
    pub aggregates: Vec<AggValue>,
}

/// Result of evaluating a [`SparqlQuery`].
#[derive(Debug, Clone)]
pub enum SparqlResult {
    /// A plain SELECT: a relation over the projected variables.
    Solutions(Relation),
    /// An aggregated SELECT: one row per group, sorted by key.
    Groups(Vec<SparqlRow>),
}

/// Evaluates a parsed SPARQL query over a graph.
pub fn evaluate_sparql(
    graph: &rdfcube_rdf::Graph,
    query: &SparqlQuery,
) -> Result<SparqlResult, EngineError> {
    if query.aggregates.is_empty() {
        // Plain SELECT over the projected variables, set semantics (SPARQL
        // SELECT is bag by default, but without aggregates the distinction
        // is immaterial to our comparison; DISTINCT semantics is the safer
        // default for classifier-style use).
        return Ok(SparqlResult::Solutions(evaluate(
            graph,
            &query.bgp,
            Semantics::Set,
        )?));
    }
    // SPARQL aggregation: group the full solution multiset.
    let solutions = evaluate(graph, &query.bgp, Semantics::Bag)?;
    let mut rows: FxHashMap<Vec<TermId>, Vec<AggValue>> = FxHashMap::default();
    // Evaluate each aggregate independently over the same grouping, then
    // zip the per-aggregate results together.
    for (i, agg) in query.aggregates.iter().enumerate() {
        let groups = group_aggregate(
            &solutions,
            &query.group_vars,
            agg.var,
            agg.func,
            graph.dict(),
        )?;
        for (key, value) in groups {
            let entry = rows
                .entry(key)
                .or_insert_with(|| vec![AggValue::Int(0); query.aggregates.len()]);
            entry[i] = value;
        }
    }
    let mut out: Vec<SparqlRow> = rows
        .into_iter()
        .map(|(keys, aggregates)| SparqlRow { keys, aggregates })
        .collect();
    out.sort_unstable_by(|a, b| a.keys.cmp(&b.keys));
    Ok(SparqlResult::Groups(out))
}

/// Parses the SPARQL SELECT dialect described in the module docs.
pub fn parse_sparql(text: &str, dict: &mut Dictionary) -> Result<SparqlQuery, EngineError> {
    let mut tokens = Tokens::new(text)?;
    let mut syntax = TermSyntax::turtle();
    while tokens.eat_keyword("PREFIX") {
        tokens.prefix_declaration(&mut syntax)?;
    }
    if !tokens.eat_keyword("SELECT") {
        return Err(tokens.error("expected SELECT").into());
    }
    let mut bgp = Bgp::new("sparql");
    let mut group_vars: Vec<VarId> = Vec::new();
    let mut aggregates: Vec<AggProjection> = Vec::new();
    loop {
        if let Some(name) = tokens.var() {
            group_vars.push(bgp.var(&name));
        } else if tokens.eat(&Token::LParen) {
            aggregates.push(aggregate(&mut tokens, &mut bgp)?);
        } else {
            break;
        }
    }
    if group_vars.is_empty() && aggregates.is_empty() {
        return Err(tokens.error("SELECT needs at least one projection").into());
    }

    if !tokens.eat_keyword("WHERE") {
        return Err(tokens.error("expected WHERE").into());
    }
    tokens.expect(&Token::LBrace, "'{'")?;
    while !tokens.eat(&Token::RBrace) {
        let s = pattern_term(&mut tokens, &syntax, &mut bgp, dict, false)?;
        let p = pattern_term(&mut tokens, &syntax, &mut bgp, dict, true)?;
        let o = pattern_term(&mut tokens, &syntax, &mut bgp, dict, false)?;
        bgp.push_pattern(QueryPattern::new(s, p, o));
        // '.' separates; it is optional before '}'.
        tokens.eat(&Token::Dot);
    }

    let mut declared_groups: Vec<VarId> = Vec::new();
    if tokens.eat_keyword("GROUP") {
        if !tokens.eat_keyword("BY") {
            return Err(tokens.error("expected BY after GROUP").into());
        }
        while let Some(name) = tokens.var() {
            declared_groups.push(bgp.var(&name));
        }
    }
    if !tokens.at_end() {
        return Err(tokens.error("unexpected trailing input").into());
    }
    let error = |message: String| EngineError::from(tokens.error(message));

    if !aggregates.is_empty() {
        // SPARQL 1.1: every plain projected variable must be grouped.
        if declared_groups.is_empty() && !group_vars.is_empty() {
            return Err(error(
                "aggregates mixed with plain variables require GROUP BY".into(),
            ));
        }
        for v in &group_vars {
            if !declared_groups.contains(v) {
                return Err(error(format!(
                    "projected variable ?{} is not in GROUP BY",
                    bgp.vars().name(*v)
                )));
            }
        }
    } else if !declared_groups.is_empty() {
        return Err(error("GROUP BY without aggregates".into()));
    }

    // The BGP head: grouped variables plus every aggregated variable
    // (so bag evaluation materializes exactly what grouping needs).
    let mut head = group_vars.clone();
    for agg in &aggregates {
        if !head.contains(&agg.var) {
            head.push(agg.var);
        }
    }
    bgp.set_head(head);
    bgp.validate()?;
    Ok(SparqlQuery {
        bgp,
        group_vars,
        aggregates,
    })
}

/// `AGG([DISTINCT] ?var) AS ?alias)`, after the projection's `(`.
fn aggregate(tokens: &mut Tokens, bgp: &mut Bgp) -> Result<AggProjection, EngineError> {
    let at = tokens.position();
    let name = tokens
        .name()
        .ok_or_else(|| tokens.error("expected an aggregate name"))?;
    tokens.expect(&Token::LParen, "'('")?;
    let distinct = tokens.eat_keyword("DISTINCT");
    let var = tokens
        .var()
        .ok_or_else(|| tokens.error("expected ?variable"))?;
    let var = bgp.var(&var);
    tokens.expect(&Token::RParen, "')'")?;
    if !tokens.eat_keyword("AS") {
        return Err(tokens.error("expected AS in aggregate projection").into());
    }
    let alias = tokens
        .var()
        .ok_or_else(|| tokens.error("expected ?alias"))?;
    tokens.expect(&Token::RParen, "')'")?;
    let func = match (AggFunc::from_name(&name), distinct) {
        (Some(AggFunc::Count), true) => Ok(AggFunc::CountDistinct),
        (Some(func), false) => Ok(func),
        (Some(_), true) => Err(format!("DISTINCT is only supported for COUNT, not {name}")),
        (None, _) => Err(format!("unsupported aggregate {name}")),
    };
    let func = func.map_err(|message| EngineError::parse(at.0, at.1, message))?;
    Ok(AggProjection { func, var, alias })
}

/// A term of a triple pattern. SPARQL reads a blank node there as a
/// variable no one projects, which this dialect does not support.
fn pattern_term(
    tokens: &mut Tokens,
    syntax: &TermSyntax,
    bgp: &mut Bgp,
    dict: &mut Dictionary,
    predicate: bool,
) -> Result<PatternTerm, EngineError> {
    if let Some(Token::BlankNode(_)) = tokens.peek() {
        return Err(tokens
            .error("blank nodes in patterns are not supported")
            .into());
    }
    term(tokens, syntax, bgp, dict, predicate)
}

// The tests below name terms through `super::*`.
#[cfg(test)]
use rdfcube_rdf::Term;

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_rdf::{parse_turtle, Graph};

    fn blog() -> Graph {
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

    #[test]
    fn plain_select() {
        let mut g = blog();
        let q = parse_sparql(
            "SELECT ?x ?age WHERE { ?x a <Blogger> . ?x <hasAge> ?age . }",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Solutions(rel) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("expected solutions");
        };
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn grouped_count() {
        let mut g = blog();
        let q = parse_sparql(
            "SELECT ?age (COUNT(?site) AS ?n) \
             WHERE { ?x a <Blogger> . ?x <hasAge> ?age . \
                     ?x <wrotePost> ?p . ?p <postedOn> ?site } \
             GROUP BY ?age",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Groups(rows) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("expected groups");
        };
        assert_eq!(rows.len(), 2);
        let age28 = g.dict().id(&Term::integer(28)).unwrap();
        let row28 = rows.iter().find(|r| r.keys == vec![age28]).unwrap();
        assert_eq!(row28.aggregates, vec![AggValue::Int(3)]);
    }

    #[test]
    fn multiple_aggregates_and_distinct() {
        let mut g = blog();
        let q = parse_sparql(
            "SELECT ?age (COUNT(?site) AS ?n) (COUNT(DISTINCT ?site) AS ?d) \
             WHERE { ?x a <Blogger> . ?x <hasAge> ?age . \
                     ?x <wrotePost> ?p . ?p <postedOn> ?site } \
             GROUP BY ?age",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Groups(rows) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("expected groups");
        };
        let age28 = g.dict().id(&Term::integer(28)).unwrap();
        let row28 = rows.iter().find(|r| r.keys == vec![age28]).unwrap();
        // user1's sites: s1, s1, s2 → count 3, distinct 2.
        assert_eq!(row28.aggregates, vec![AggValue::Int(3), AggValue::Int(2)]);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let mut g = blog();
        let q = parse_sparql(
            "SELECT (COUNT(?p) AS ?posts) WHERE { ?x <wrotePost> ?p }",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Groups(rows) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("expected groups");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].aggregates, vec![AggValue::Int(5)]);
    }

    #[test]
    fn prefixes_expand() {
        let mut g = Graph::new();
        g.insert(
            &Term::iri("http://ex.org/a"),
            &Term::iri("http://ex.org/p"),
            &Term::integer(1),
        );
        let q = parse_sparql(
            "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p 1 }",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Solutions(rel) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("expected solutions");
        };
        assert_eq!(rel.len(), 1);
    }

    /// The §4 comparison, executable: SPARQL couples classifier and measure
    /// in one BGP, so a blogger with two cities has its word counts
    /// duplicated into both groups *and* its sites multiplied by the extra
    /// join — the AnQ's separate measure query does not suffer the latter.
    #[test]
    fn sparql_vs_anq_on_multivalued_dimensions() {
        let mut g = blog();
        rdfcube_rdf::parse_into("<user1> <livesIn> \"Lisbon\" .", &mut g).unwrap();

        // SPARQL: one BGP, grouped by city — user1's 3 posts appear under
        // both Madrid and Lisbon, which *matches* AnQ semantics per cell…
        let q = parse_sparql(
            "SELECT ?city (COUNT(?site) AS ?n) \
             WHERE { ?x a <Blogger> . ?x <livesIn> ?city . \
                     ?x <wrotePost> ?p . ?p <postedOn> ?site } \
             GROUP BY ?city",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Groups(rows) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("groups")
        };
        let madrid = g.dict().id(&Term::literal("Madrid")).unwrap();
        let n_madrid = rows.iter().find(|r| r.keys == vec![madrid]).unwrap();
        assert_eq!(n_madrid.aggregates, vec![AggValue::Int(3)]);

        // …but a *global* count (no grouping) double-counts the multi-city
        // blogger, which the AnQ's fact-based semantics would not:
        let q = parse_sparql(
            "SELECT (COUNT(?site) AS ?n) \
             WHERE { ?x a <Blogger> . ?x <livesIn> ?city . \
                     ?x <wrotePost> ?p . ?p <postedOn> ?site }",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Groups(rows) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("groups")
        };
        // 5 facts have 5 posts total, but user1's 3 posts × 2 cities = 6,
        // plus user3's and user4's 1 each ⇒ 8, not 5.
        assert_eq!(rows[0].aggregates, vec![AggValue::Int(8)]);
    }

    #[test]
    fn parse_errors() {
        let mut dict = Dictionary::new();
        for bad in [
            "",
            "SELECT WHERE { ?x <p> ?y }",
            "SELECT ?x { ?x <p> ?y }",     // missing WHERE
            "SELECT ?x WHERE { ?x <p> }",  // incomplete triple
            "SELECT ?x WHERE { ?x <p> ?y", // unterminated block
            "SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <p> ?y }", // ungrouped ?x
            "SELECT ?x WHERE { ?x <p> ?y } GROUP BY ?x", // GROUP BY w/o agg
            "SELECT (MEDIAN(?y) AS ?m) WHERE { ?x <p> ?y }", // unknown agg
            "SELECT (SUM(DISTINCT ?y) AS ?s) WHERE { ?x <p> ?y }",
            "SELECT ?x WHERE { ?x nope:p ?y }", // unknown prefix
            "SELECT ?x WHERE { ?x bare ?y }",   // bare name
        ] {
            assert!(parse_sparql(bad, &mut dict).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn comments_are_ignored() {
        let mut g = blog();
        let q = parse_sparql(
            "# heading\nSELECT ?x # trailing\nWHERE { ?x a <Blogger> }",
            g.dict_mut(),
        )
        .unwrap();
        let SparqlResult::Solutions(rel) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("solutions")
        };
        assert_eq!(rel.len(), 3);
    }
}
