//! Property tests for the query engine: the optimized evaluator must agree
//! with the naive nested-loop oracle on arbitrary graphs and queries, under
//! both semantics.

use proptest::prelude::*;
use rdfcube::engine::{evaluate, evaluate_in_order, evaluate_nested_loop, Bgp, Semantics};
use rdfcube::engine::{parse_query, parse_sparql};
use rdfcube::engine::{PatternTerm, QueryPattern};
use rdfcube::rdf::Literal;
use rdfcube::{Dictionary, Graph, Term};

/// A small closed universe: subjects/objects n0..n7, predicates p0..p3,
/// literals v0..v3.
fn arb_graph() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..8, 0u8..4, 0u8..12), 0..40)
}

/// Query shape: up to 3 patterns, terms drawn from {var x/y/z, const}.
/// Position encoding: 0..3 = variable index, 3.. = constant index.
type PatternSpec = ((u8, u8), (u8, u8), (u8, u8));

fn arb_query() -> impl Strategy<Value = Vec<PatternSpec>> {
    proptest::collection::vec(
        (
            (0u8..2, 0u8..10), // subject: kind (0=var, 1=const), payload
            (0u8..2, 0u8..5),  // predicate
            (0u8..2, 0u8..13), // object
        ),
        1..4,
    )
}

fn build_graph(spec: &[(u8, u8, u8)]) -> Graph {
    let mut g = Graph::new();
    for &(s, p, o) in spec {
        let s = Term::iri(format!("n{s}"));
        let p = Term::iri(format!("p{p}"));
        let o = if o < 8 {
            Term::iri(format!("n{o}"))
        } else {
            Term::literal(format!("v{}", o - 8))
        };
        g.insert(&s, &p, &o);
    }
    g
}

/// Builds a BGP over the graph's dictionary; returns `None` if the random
/// head would be invalid (no variables at all).
fn build_query(g: &mut Graph, spec: &[PatternSpec]) -> Option<Bgp> {
    let mut bgp = Bgp::new("q");
    let var_names = ["x", "y", "z"];
    let mut used_vars = Vec::new();
    for &((sk, sv), (pk, pv), (ok, ov)) in spec {
        let mut mk = |kind: u8, payload: u8, pos: usize, bgp: &mut Bgp, g: &mut Graph| {
            if kind == 0 {
                let name = var_names[(payload as usize) % 3];
                let v = bgp.var(name);
                if !used_vars.contains(&v) {
                    used_vars.push(v);
                }
                PatternTerm::Var(v)
            } else {
                let term = match pos {
                    0 => Term::iri(format!("n{}", payload % 8)),
                    1 => Term::iri(format!("p{}", payload % 4)),
                    _ => {
                        if payload < 8 {
                            Term::iri(format!("n{payload}"))
                        } else {
                            Term::literal(format!("v{}", payload - 8))
                        }
                    }
                };
                PatternTerm::Const(g.dict_mut().encode(&term))
            }
        };
        let s = mk(sk, sv, 0, &mut bgp, g);
        let p = mk(pk, pv, 1, &mut bgp, g);
        let o = mk(ok, ov, 2, &mut bgp, g);
        bgp.push_pattern(QueryPattern::new(s, p, o));
    }
    if used_vars.is_empty() {
        return None;
    }
    bgp.set_head(used_vars);
    Some(bgp)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn evaluators_agree(graph_spec in arb_graph(), query_spec in arb_query()) {
        let mut g = build_graph(&graph_spec);
        let Some(q) = build_query(&mut g, &query_spec) else {
            return Ok(());
        };
        for semantics in [Semantics::Set, Semantics::Bag] {
            let fast = evaluate(&g, &q, semantics).unwrap();
            let in_order = evaluate_in_order(&g, &q, semantics).unwrap();
            let oracle = evaluate_nested_loop(&g, &q, semantics).unwrap();
            prop_assert!(fast.same_bag(&oracle), "greedy vs oracle, {semantics:?}");
            prop_assert!(in_order.same_bag(&oracle), "in-order vs oracle, {semantics:?}");
        }
    }

    /// Set semantics is always a sub-bag of bag semantics with no duplicates.
    #[test]
    fn set_is_distinct_bag(graph_spec in arb_graph(), query_spec in arb_query()) {
        let mut g = build_graph(&graph_spec);
        let Some(q) = build_query(&mut g, &query_spec) else {
            return Ok(());
        };
        let set = evaluate(&g, &q, Semantics::Set).unwrap();
        let bag = evaluate(&g, &q, Semantics::Bag).unwrap();
        prop_assert!(set.same_bag(&bag.distinct()));
        prop_assert!(set.len() <= bag.len());
    }
}

/// Tokens of the paper's query notation and of the SPARQL subset, and
/// characters of two to four bytes.
const TOKENS: &[&str] = &[
    "SELECT", "select", "WHERE", "PREFIX", "GROUP", "BY", "AS", "COUNT", "DISTINCT", "{", "}", "(",
    ")", ".", "*", "?x", "?y", "<a>", "ex:", "ex:p", "\"v\"", "42", "1.5e3", "q", ":-", ",",
    "rdf:type", " ", "\n", "é", "日本", "😀", "\u{301}", "@es", "^^", "#", "<-", "_:b", "true",
    "28.",
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

    /// Outside input never panics a query parser: what it cannot read is an
    /// error.
    #[test]
    fn query_parsers_never_panic(text in arb_text()) {
        let dict = || rdfcube::Dictionary::new();
        let paper = std::panic::catch_unwind(|| parse_query(&text, &mut dict()).is_ok());
        prop_assert!(paper.is_ok(), "parse_query panicked on {:?}", text);
        let sparql = std::panic::catch_unwind(|| parse_sparql(&text, &mut dict()).is_ok());
        prop_assert!(sparql.is_ok(), "parse_sparql panicked on {:?}", text);
    }
}

/// A constant of every shape `Bgp::to_text` writes, as `rdf_prop` draws
/// them: IRIs, blank nodes, plain literals with quotes and escapes, typed
/// and language-tagged literals.
fn arb_constant() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u8..10).prop_map(|n| Term::iri(format!("http://ex.org/n{n}"))),
        (0u8..5).prop_map(|n| Term::blank(format!("b{n}"))),
        "[a-zA-Z \"\\\\\n\t]{0,12}".prop_map(Term::literal),
        any::<i64>().prop_map(Term::integer),
        (0u8..5).prop_map(|n| Term::Literal(Literal::lang(format!("w{n}"), "en"))),
    ]
}

/// One position of a pattern: a variable (by index) or a constant.
fn arb_slot() -> impl Strategy<Value = Result<usize, Term>> {
    prop_oneof![(0usize..4).prop_map(Ok), arb_constant().prop_map(Err)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `to_text` writes what `parse_query` reads back: the same head, the
    /// same variable names and the same constants in the same patterns.
    #[test]
    fn rule_text_round_trips(
        body in proptest::collection::vec((arb_slot(), arb_slot(), arb_slot()), 1..4),
        head_picks in proptest::collection::vec(0usize..4, 0..4),
    ) {
        const NAMES: [&str; 4] = ["x", "d_age", "v-2", "y1"];
        let mut dict = Dictionary::new();
        let mut bgp = Bgp::new("q");
        for (s, p, o) in body {
            let [s, p, o] = [s, p, o].map(|slot| match slot {
                Ok(v) => PatternTerm::Var(bgp.var(NAMES[v])),
                Err(term) => PatternTerm::Const(dict.encode(&term)),
            });
            bgp.push_pattern(QueryPattern::new(s, p, o));
        }
        let mut head = Vec::new();
        for pick in head_picks {
            let v = bgp.vars().id(NAMES[pick]);
            if let Some(v) = v.filter(|v| !head.contains(v)) {
                head.push(v);
            }
        }
        bgp.set_head(head);

        let text = bgp.to_text(&dict);
        let back = parse_query(&text, &mut dict)
            .unwrap_or_else(|e| panic!("{text:?} does not parse: {e}"));
        let names = |q: &Bgp, vars: &[rdfcube::engine::VarId]| -> Vec<String> {
            vars.iter().map(|&v| q.vars().name(v).to_string()).collect()
        };
        prop_assert_eq!(names(&back, back.head()), names(&bgp, bgp.head()));
        prop_assert_eq!(names(&back, &back.body_vars()), names(&bgp, &bgp.body_vars()));
        prop_assert_eq!(back.constants(), bgp.constants());
        prop_assert_eq!(back.to_text(&dict), text);
    }
}
