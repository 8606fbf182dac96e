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
//! `(AGG(?v) AS ?alias)` projections (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`,
//! and `COUNT(DISTINCT ?v)`), a `WHERE` block of triple patterns separated
//! by `.`, and `GROUP BY`. `SELECT *`, `FILTER`, `OPTIONAL` and property
//! paths are out of scope — the comparison only needs the aggregation
//! fragment.
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
use crate::pattern::{PatternTerm, QueryPattern};
use crate::relation::Relation;
use crate::var::VarId;
use rdfcube_rdf::fx::FxHashMap;
use rdfcube_rdf::{vocab, Dictionary, Literal, Term, TermId};

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
    SparqlParser::new(text).parse(dict)
}

struct SparqlParser<'a> {
    input: &'a str,
    pos: usize,
    prefixes: FxHashMap<String, String>,
}

impl<'a> SparqlParser<'a> {
    fn new(input: &'a str) -> Self {
        let mut prefixes = FxHashMap::default();
        for (p, ns) in vocab::DEFAULT_PREFIXES {
            prefixes.insert((*p).to_string(), (*ns).to_string());
        }
        SparqlParser {
            input,
            pos: 0,
            prefixes,
        }
    }

    fn error(&self, msg: impl Into<String>) -> EngineError {
        let consumed = &self.input[..self.pos];
        let line = consumed.lines().count().max(1);
        let column = consumed.lines().last().map_or(1, |l| l.len() + 1);
        EngineError::parse(line, column, msg)
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = &self.input[self.pos..];
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if trimmed.starts_with('#') {
                match trimmed.find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.input.len(),
                }
            } else {
                break;
            }
        }
    }

    fn peek_char(&mut self) -> Option<char> {
        self.skip_ws();
        self.input[self.pos..].chars().next()
    }

    fn eat_char(&mut self, c: char) -> Result<(), EngineError> {
        if self.peek_char() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.error(format!("expected '{c}'")))
        }
    }

    /// Consumes `keyword` case-insensitively if present.
    fn eat_keyword(&mut self, keyword: &str) -> bool {
        self.skip_ws();
        // Compared as bytes: an ASCII keyword's length need not be a char
        // boundary of the input, but it is one wherever the keyword matches.
        let rest = &self.input[self.pos..];
        let head = rest.as_bytes().get(..keyword.len());
        if head.is_some_and(|head| head.eq_ignore_ascii_case(keyword.as_bytes()))
            && !rest[keyword.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    fn word(&mut self) -> String {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        let end = rest
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_' || *c == '-'))
            .map_or(rest.len(), |(i, _)| i);
        self.pos += end;
        rest[..end].to_string()
    }

    fn variable(&mut self, bgp: &mut Bgp) -> Result<VarId, EngineError> {
        self.eat_char('?')?;
        let name = self.word();
        if name.is_empty() {
            return Err(self.error("expected variable name after '?'"));
        }
        Ok(bgp.var(&name))
    }

    fn parse(mut self, dict: &mut Dictionary) -> Result<SparqlQuery, EngineError> {
        while self.eat_keyword("PREFIX") {
            let prefix = self.word();
            self.eat_char(':')?;
            self.eat_char('<')?;
            let ns = self.until('>')?;
            self.prefixes.insert(prefix, ns);
        }

        if !self.eat_keyword("SELECT") {
            return Err(self.error("expected SELECT"));
        }
        let mut bgp = Bgp::new("sparql");
        let mut group_vars: Vec<VarId> = Vec::new();
        let mut aggregates: Vec<AggProjection> = Vec::new();

        loop {
            match self.peek_char() {
                Some('?') => group_vars.push(self.variable(&mut bgp)?),
                Some('(') => {
                    self.eat_char('(')?;
                    let func_name = self.word().to_ascii_uppercase();
                    self.eat_char('(')?;
                    let distinct = self.eat_keyword("DISTINCT");
                    let var = self.variable(&mut bgp)?;
                    self.eat_char(')')?;
                    if !self.eat_keyword("AS") {
                        return Err(self.error("expected AS in aggregate projection"));
                    }
                    self.eat_char('?')?;
                    let alias = self.word();
                    self.eat_char(')')?;
                    let func = match (func_name.as_str(), distinct) {
                        ("COUNT", false) => AggFunc::Count,
                        ("COUNT", true) => AggFunc::CountDistinct,
                        ("SUM", false) => AggFunc::Sum,
                        ("AVG", false) => AggFunc::Avg,
                        ("MIN", false) => AggFunc::Min,
                        ("MAX", false) => AggFunc::Max,
                        (other, true) => {
                            return Err(self.error(format!(
                                "DISTINCT is only supported for COUNT, not {other}"
                            )))
                        }
                        (other, _) => {
                            return Err(self.error(format!("unsupported aggregate {other}")))
                        }
                    };
                    aggregates.push(AggProjection { func, var, alias });
                }
                _ => break,
            }
        }
        if group_vars.is_empty() && aggregates.is_empty() {
            return Err(self.error("SELECT needs at least one projection"));
        }

        if !self.eat_keyword("WHERE") {
            return Err(self.error("expected WHERE"));
        }
        self.eat_char('{')?;
        loop {
            if self.peek_char() == Some('}') {
                break;
            }
            let s = self.term(&mut bgp, dict, false)?;
            let p = self.term(&mut bgp, dict, true)?;
            let o = self.term(&mut bgp, dict, false)?;
            bgp.push_pattern(QueryPattern::new(s, p, o));
            // '.' separates; it is optional before '}'.
            if self.peek_char() == Some('.') {
                self.eat_char('.')?;
            }
        }
        self.eat_char('}')?;

        let mut declared_groups: Vec<VarId> = Vec::new();
        if self.eat_keyword("GROUP") {
            if !self.eat_keyword("BY") {
                return Err(self.error("expected BY after GROUP"));
            }
            while self.peek_char() == Some('?') {
                declared_groups.push(self.variable(&mut bgp)?);
            }
        }
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.error("unexpected trailing input"));
        }

        if !aggregates.is_empty() {
            // SPARQL 1.1: every plain projected variable must be grouped.
            if declared_groups.is_empty() && !group_vars.is_empty() {
                return Err(self.error("aggregates mixed with plain variables require GROUP BY"));
            }
            for v in &group_vars {
                if !declared_groups.contains(v) {
                    return Err(self.error(format!(
                        "projected variable ?{} is not in GROUP BY",
                        bgp.vars().name(*v)
                    )));
                }
            }
        } else if !declared_groups.is_empty() {
            return Err(self.error("GROUP BY without aggregates"));
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

    fn until(&mut self, stop: char) -> Result<String, EngineError> {
        let rest = &self.input[self.pos..];
        match rest.find(stop) {
            Some(i) => {
                let out = rest[..i].to_string();
                self.pos += i + stop.len_utf8();
                Ok(out)
            }
            None => Err(self.error(format!("expected '{stop}'"))),
        }
    }

    fn term(
        &mut self,
        bgp: &mut Bgp,
        dict: &mut Dictionary,
        is_predicate: bool,
    ) -> Result<PatternTerm, EngineError> {
        match self.peek_char() {
            Some('?') => Ok(PatternTerm::Var(self.variable(bgp)?)),
            Some('<') => {
                self.eat_char('<')?;
                let iri = self.until('>')?;
                Ok(PatternTerm::Const(dict.encode_owned(Term::iri(iri))))
            }
            Some('"') => {
                self.eat_char('"')?;
                let body = self.until('"')?;
                if self.input[self.pos..].starts_with("^^") {
                    self.pos += 2;
                    let dt = match self.term(bgp, dict, false)? {
                        PatternTerm::Const(id) => match dict.get(id).and_then(Term::as_iri) {
                            Some(iri) => iri.to_string(),
                            None => return Err(self.error("datatype must be an IRI")),
                        },
                        PatternTerm::Var(_) => {
                            return Err(self.error("datatype cannot be a variable"))
                        }
                    };
                    return Ok(PatternTerm::Const(
                        dict.encode_owned(Term::Literal(Literal::typed(body, dt))),
                    ));
                }
                Ok(PatternTerm::Const(dict.encode_owned(Term::literal(body))))
            }
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                let rest = &self.input[self.pos..];
                let end = rest
                    .char_indices()
                    .find(|(_, ch)| !(ch.is_ascii_digit() || "+-.eE".contains(*ch)))
                    .map_or(rest.len(), |(i, _)| i);
                let n = rest[..end].to_string();
                self.pos += end;
                let term = if n.contains(['.', 'e', 'E']) {
                    Term::Literal(Literal::typed(n, vocab::XSD_DECIMAL))
                } else {
                    Term::Literal(Literal::typed(n, vocab::XSD_INTEGER))
                };
                Ok(PatternTerm::Const(dict.encode_owned(term)))
            }
            Some(c) if c.is_alphabetic() => {
                let name = self.word();
                if name == "a" && is_predicate {
                    return Ok(PatternTerm::Const(
                        dict.encode_owned(Term::iri(vocab::RDF_TYPE)),
                    ));
                }
                if self.input[self.pos..].starts_with(':') {
                    self.pos += 1;
                    let local = self.word();
                    let ns = self
                        .prefixes
                        .get(&name)
                        .ok_or_else(|| self.error(format!("unknown prefix '{name}:'")))?;
                    return Ok(PatternTerm::Const(
                        dict.encode_owned(Term::iri(format!("{ns}{local}"))),
                    ));
                }
                Err(self.error(format!(
                    "bare name '{name}' is not valid SPARQL; use a prefixed name or <IRI>"
                )))
            }
            other => Err(self.error(format!("unexpected {other:?} in triple pattern"))),
        }
    }
}

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
