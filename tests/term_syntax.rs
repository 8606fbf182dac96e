//! One term syntax: Turtle, the paper's rule notation and the SPARQL subset
//! read the same object the same way, or all refuse it with a typed parse
//! error.

use rdfcube::engine::{evaluate, evaluate_sparql, parse_query, parse_sparql};
use rdfcube::engine::{EngineError, Semantics, SparqlResult};
use rdfcube::rdf::{vocab, Literal};
use rdfcube::{parse_turtle, Dictionary, Graph, Term};

/// The object that follows `<u> <age>` in each grammar, and the term it
/// reads as; `None` when every grammar must refuse it.
fn rows() -> Vec<(&'static str, Option<Term>)> {
    let typed =
        |lexical: &str, datatype: &str| Some(Term::Literal(Literal::typed(lexical, datatype)));
    vec![
        // A statement-final dot ends the statement, not the numeral.
        ("28.", typed("28", vocab::XSD_INTEGER)),
        ("28 .", typed("28", vocab::XSD_INTEGER)),
        ("-7 .", typed("-7", vocab::XSD_INTEGER)),
        ("+7 .", typed("+7", vocab::XSD_INTEGER)),
        ("3.5 .", typed("3.5", vocab::XSD_DECIMAL)),
        (".5 .", typed(".5", vocab::XSD_DECIMAL)),
        ("1e3 .", typed("1e3", vocab::XSD_DOUBLE)),
        ("-1.5E-3 .", typed("-1.5E-3", vocab::XSD_DOUBLE)),
        ("true .", typed("true", vocab::XSD_BOOLEAN)),
        (
            "\"Madrid\"@es .",
            Some(Term::Literal(Literal::lang("Madrid", "es"))),
        ),
        ("\"say \\\"hi\\\"\" .", Some(Term::literal("say \"hi\""))),
        ("- .", None),
        ("+ .", None),
        ("1-2 .", None),
        ("1e .", None),
    ]
}

#[test]
fn objects_read_alike_in_every_grammar() {
    for (object, expected) in rows() {
        let turtle = parse_turtle(&format!("<u> <age> {object}"));
        let rule = format!("c(?x) :- ?x age {object}");
        let sparql = format!("SELECT ?x WHERE {{ ?x <age> {object} }}");
        let Some(term) = expected else {
            assert!(turtle.is_err(), "Turtle accepted {object:?}");
            let mut dict = Dictionary::new();
            let got = parse_query(&rule, &mut dict);
            assert!(
                matches!(got, Err(EngineError::Parse { .. })),
                "{rule}: {got:?}"
            );
            let got = parse_sparql(&sparql, &mut dict);
            assert!(
                matches!(got, Err(EngineError::Parse { .. })),
                "{sparql}: {got:?}"
            );
            continue;
        };
        let (u, age) = (Term::iri("u"), Term::iri("age"));
        let read = turtle.unwrap_or_else(|e| panic!("Turtle refused {object:?}: {e}"));
        assert!(read.contains(&u, &age, &term), "Turtle misread {object:?}");
        assert_eq!(read.len(), 1);

        let mut g = Graph::new();
        g.insert(&u, &age, &term);
        let q = parse_query(&rule, g.dict_mut()).unwrap_or_else(|e| panic!("{rule}: {e}"));
        let rows = evaluate(&g, &q, Semantics::Set).unwrap();
        assert_eq!(rows.len(), 1, "{rule}");
        let q = parse_sparql(&sparql, g.dict_mut()).unwrap_or_else(|e| panic!("{sparql}: {e}"));
        let SparqlResult::Solutions(rows) = evaluate_sparql(&g, &q).unwrap() else {
            panic!("{sparql}: expected solutions");
        };
        assert_eq!(rows.len(), 1, "{sparql}");
    }
}
