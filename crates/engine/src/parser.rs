//! Parser for the paper's query notation.
//!
//! The paper writes conjunctive queries datalog-style:
//!
//! ```text
//! c(x, dage, dcity) :- x rdf:type Blogger, x hasAge dage, x livesIn dcity
//! ```
//!
//! We adopt the same shape with one deviation: variables carry the SPARQL
//! `?` sigil (`?x`, `?dage`) because the paper distinguishes variables
//! typographically (italics), which plain text cannot. Terms follow the
//! shared term syntax of `rdfcube_rdf::parser`, where this notation reads a
//! bare name (`Blogger`, `hasAge`) as an IRI.

use crate::bgp::Bgp;
use crate::error::EngineError;
use crate::pattern::{PatternTerm, QueryPattern};
use rdfcube_rdf::parser::lexer::Token;
use rdfcube_rdf::parser::{TermSyntax, Tokens};
use rdfcube_rdf::Dictionary;

/// Parses a query in the paper's notation, interning constant terms into
/// `dict` (typically the dictionary of the graph the query will run on).
pub fn parse_query(text: &str, dict: &mut Dictionary) -> Result<Bgp, EngineError> {
    let mut tokens = Tokens::new(text)?;
    let syntax = TermSyntax::rules();
    let name = tokens
        .name()
        .ok_or_else(|| tokens.error("expected query name"))?;
    let mut bgp = Bgp::new(name);
    tokens.expect(&Token::LParen, "'('")?;
    if !tokens.eat(&Token::RParen) {
        loop {
            let var = tokens
                .var()
                .ok_or_else(|| tokens.error("head terms must be variables (?name)"))?;
            let v = bgp.var(&var);
            bgp.push_head(v);
            if !tokens.eat(&Token::Comma) {
                break;
            }
        }
        tokens.expect(&Token::RParen, "')'")?;
    }
    tokens.expect(&Token::Arrow, "':-' or '<-' before query body")?;
    loop {
        let s = term(&mut tokens, &syntax, &mut bgp, dict, false)?;
        let p = term(&mut tokens, &syntax, &mut bgp, dict, true)?;
        let o = term(&mut tokens, &syntax, &mut bgp, dict, false)?;
        bgp.push_pattern(QueryPattern::new(s, p, o));
        if !tokens.eat(&Token::Comma) {
            break;
        }
    }
    // An optional trailing period, datalog-style.
    tokens.eat(&Token::Dot);
    if !tokens.at_end() {
        return Err(tokens.error("expected ',' between triples").into());
    }
    bgp.validate()?;
    Ok(bgp)
}

/// A variable or a constant of a triple pattern.
pub(crate) fn term(
    tokens: &mut Tokens,
    syntax: &TermSyntax,
    bgp: &mut Bgp,
    dict: &mut Dictionary,
    predicate: bool,
) -> Result<PatternTerm, EngineError> {
    Ok(match tokens.var() {
        Some(name) => PatternTerm::Var(bgp.var(&name)),
        None => PatternTerm::Const(dict.encode_owned(tokens.term(syntax, predicate)?)),
    })
}

// The tests below name terms and the vocabulary through `super::*`.
#[cfg(test)]
use rdfcube_rdf::{vocab, Literal, Term};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example_1_classifier() {
        let mut dict = Dictionary::new();
        let c = parse_query(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            &mut dict,
        )
        .unwrap();
        assert_eq!(c.name(), "c");
        assert_eq!(c.head().len(), 3);
        assert_eq!(c.body().len(), 3);
        assert!(c.validate_rooted().is_ok());
        // rdf:type expanded against the default prefix.
        assert!(dict.iri_id(vocab::RDF_TYPE).is_some());
        assert!(dict.iri_id("Blogger").is_some());
    }

    #[test]
    fn parses_paper_example_1_measure() {
        let mut dict = Dictionary::new();
        let m = parse_query(
            "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
            &mut dict,
        )
        .unwrap();
        assert_eq!(m.existential_vars().len(), 1);
    }

    #[test]
    fn a_keyword_and_arrow_separator() {
        let mut dict = Dictionary::new();
        let q = parse_query("q(?x) <- ?x a Blogger", &mut dict).unwrap();
        assert_eq!(q.body().len(), 1);
        assert!(dict.iri_id(vocab::RDF_TYPE).is_some());
    }

    #[test]
    fn literals_numbers_strings_booleans() {
        let mut dict = Dictionary::new();
        let q = parse_query(
            "q(?x) :- ?x hasAge 28, ?x livesIn \"Madrid\", ?x active true, ?x score 3.5",
            &mut dict,
        )
        .unwrap();
        assert_eq!(q.body().len(), 4);
        assert!(dict.id(&Term::integer(28)).is_some());
        assert!(dict.id(&Term::literal("Madrid")).is_some());
        assert!(dict.id(&Term::Literal(Literal::boolean(true))).is_some());
        assert!(dict
            .id(&Term::Literal(Literal::typed("3.5", vocab::XSD_DECIMAL)))
            .is_some());
    }

    #[test]
    fn explicit_iri_and_typed_literal() {
        let mut dict = Dictionary::new();
        let q = parse_query("q(?x) :- ?x <http://e/p> \"28\"^^xsd:integer", &mut dict).unwrap();
        assert_eq!(q.body().len(), 1);
        assert!(dict.iri_id("http://e/p").is_some());
        assert!(dict.id(&Term::integer(28)).is_some());
    }

    #[test]
    fn trailing_period_is_accepted() {
        let mut dict = Dictionary::new();
        assert!(parse_query("q(?x) :- ?x p ?x .", &mut dict).is_ok());
    }

    #[test]
    fn error_cases() {
        let mut dict = Dictionary::new();
        assert!(parse_query("", &mut dict).is_err());
        assert!(parse_query("q(x) :- ?x p ?x", &mut dict).is_err()); // head without ?
        assert!(parse_query("q(?x)", &mut dict).is_err()); // no body
        assert!(parse_query("q(?x) :- ?x p", &mut dict).is_err()); // incomplete triple
        assert!(parse_query("q(?x) :- ?x nope:p ?y", &mut dict).is_err()); // unknown prefix
        assert!(parse_query("q(?z) :- ?x p ?y", &mut dict).is_err()); // head not in body
        assert!(parse_query("q(?x) :- ?x p ?y junk", &mut dict).is_err());
    }

    #[test]
    fn head_variable_order_is_preserved() {
        let mut dict = Dictionary::new();
        let q = parse_query(
            "c(?x, ?dcity, ?dage) :- ?x hasAge ?dage, ?x livesIn ?dcity",
            &mut dict,
        )
        .unwrap();
        let names: Vec<&str> = q.head().iter().map(|&v| q.vars().name(v)).collect();
        assert_eq!(names, vec!["x", "dcity", "dage"]);
    }
}
