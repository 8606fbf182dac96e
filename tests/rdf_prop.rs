//! Property tests for the RDF substrate: serialization round trips and
//! RDFS saturation laws on arbitrary graphs.

use proptest::prelude::*;
use rdfcube::rdf::vocab;
use rdfcube::{parse_ntriples, saturate, to_ntriples, Graph, Term};

/// Arbitrary terms over a closed universe, including literals with quotes,
/// escapes, language tags and datatypes to stress the writer/parser.
fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u8..10).prop_map(|n| Term::iri(format!("http://ex.org/n{n}"))),
        (0u8..5).prop_map(|n| Term::blank(format!("b{n}"))),
        "[a-zA-Z \"\\\\\n\t]{0,12}".prop_map(Term::literal),
        any::<i64>().prop_map(Term::integer),
        (0u8..5)
            .prop_map(|n| { Term::Literal(rdfcube::rdf::Literal::lang(format!("w{n}"), "en")) }),
    ]
}

fn arb_graph() -> impl Strategy<Value = Vec<(Term, u8, Term)>> {
    proptest::collection::vec((arb_term(), 0u8..6, arb_term()), 0..50)
}

fn build(spec: Vec<(Term, u8, Term)>) -> Graph {
    let mut g = Graph::new();
    for (s, p, o) in spec {
        // Subjects must be IRIs or blank nodes in RDF; coerce literals.
        let s = match s {
            Term::Literal(l) => Term::iri(format!("lit-{}", l.lexical().len())),
            other => other,
        };
        let p = Term::iri(format!("http://ex.org/p{p}"));
        g.insert(&s, &p, &o);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// write → parse is the identity on graphs.
    #[test]
    fn ntriples_round_trip(spec in arb_graph()) {
        let g = build(spec);
        let text = to_ntriples(&g);
        let back = parse_ntriples(&text).unwrap();
        prop_assert_eq!(g.len(), back.len());
        for t in g.triples() {
            let (s, p, o) = g.decode(t);
            prop_assert!(back.contains(s, p, o), "lost {s} {p} {o}");
        }
        // And serialization is canonical: same bytes again.
        prop_assert_eq!(text, to_ntriples(&back));
    }

    /// Saturation is (a) monotone — never removes triples; (b) idempotent —
    /// a second run adds nothing; (c) sound for the subclass rule on a
    /// random hierarchy.
    #[test]
    fn saturation_laws(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        typings in proptest::collection::vec((0u8..8, 0u8..6), 0..12),
    ) {
        let mut g = Graph::new();
        let sc = Term::iri(vocab::RDFS_SUBCLASSOF);
        let ty = Term::iri(vocab::RDF_TYPE);
        for &(a, b) in &edges {
            g.insert(&Term::iri(format!("C{a}")), &sc, &Term::iri(format!("C{b}")));
        }
        for &(x, c) in &typings {
            g.insert(&Term::iri(format!("x{x}")), &ty, &Term::iri(format!("C{c}")));
        }
        let before: Vec<_> = g.triples().collect();
        let added = saturate(&mut g);
        prop_assert_eq!(g.len(), before.len() + added, "monotone growth");
        for t in before {
            let (s, p, o) = (t.s, t.p, t.o);
            prop_assert!(g.contains_ids(s, p, o), "saturation removed a triple");
        }
        let second = saturate(&mut g);
        prop_assert_eq!(second, 0, "idempotence");

        // Soundness + completeness of rule 5 via reachability: x type C and
        // C →* D implies x type D.
        let reach = |from: u8, edges: &[(u8, u8)]| -> Vec<u8> {
            let mut seen = vec![from];
            let mut frontier = vec![from];
            while let Some(c) = frontier.pop() {
                for &(a, b) in edges {
                    if a == c && !seen.contains(&b) {
                        seen.push(b);
                        frontier.push(b);
                    }
                }
            }
            seen
        };
        for &(x, c) in &typings {
            for d in reach(c, &edges) {
                prop_assert!(
                    g.contains(
                        &Term::iri(format!("x{x}")),
                        &ty,
                        &Term::iri(format!("C{d}"))
                    ),
                    "missing inferred typing x{x} : C{d}"
                );
            }
        }
    }

    /// The store's pattern matching agrees with brute-force filtering for
    /// arbitrary patterns over arbitrary graphs.
    #[test]
    fn pattern_matching_oracle(spec in arb_graph(), mask in 0u8..8, probe in 0usize..50) {
        let g = build(spec);
        let all: Vec<_> = g.triples().collect();
        if all.is_empty() {
            return Ok(());
        }
        let t = all[probe % all.len()];
        let pat = rdfcube::TriplePattern::new(
            (mask & 1 != 0).then_some(t.s),
            (mask & 2 != 0).then_some(t.p),
            (mask & 4 != 0).then_some(t.o),
        );
        let mut via_index = g.matching(pat);
        let mut via_scan: Vec<_> = all.iter().copied().filter(|x| pat.matches(x)).collect();
        via_index.sort();
        via_scan.sort();
        prop_assert_eq!(&via_index, &via_scan);
        prop_assert_eq!(g.count_matching(pat), via_scan.len());
    }
}

/// Turtle and N-Triples tokens, and characters of two to four bytes.
const TOKENS: &[&str] = &[
    "<a>", "<p>", "_:b", "\"v\"", "\"\"\"", "@prefix", "@base", "ex:", "ex:a", ".", ";", ",", "[",
    "]", "(", ")", "a", "42", "-1.5e3", "^^", "@en", "#", "\\", " ", "\n", "é", "日本", "😀",
    "\u{301}",
];

/// Arbitrary bytes read as lossy UTF-8, or tokens run together.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..48)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        proptest::collection::vec(0..TOKENS.len(), 0..16)
            .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Outside input never panics a parser: what it cannot read is an error.
    #[test]
    fn parsers_never_panic(text in arb_text()) {
        let turtle = std::panic::catch_unwind(|| rdfcube::parse_turtle(&text).is_ok());
        prop_assert!(turtle.is_ok(), "parse_turtle panicked on {:?}", text);
        let ntriples = std::panic::catch_unwind(|| parse_ntriples(&text).is_ok());
        prop_assert!(ntriples.is_ok(), "parse_ntriples panicked on {:?}", text);
    }
}
