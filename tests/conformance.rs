//! Paper-conformance suite: the running example of *"Efficient OLAP
//! Operations For RDF Analytics"* (ICDE 2015), end to end.
//!
//! Builds the Figure 1 blogger analytical schema over a hand-written base
//! graph (with an RDFS subclass so saturation matters), registers the
//! Example 1 cube, then applies each of the four OLAP operations and checks
//! **both** the strategy the session picks (Propositions 1–3) **and** the
//! exact answer cardinalities/values, independently cross-checked against
//! from-scratch evaluation (Definition 1).

use rdfcube::prelude::*;
use rdfcube::AggValue;

/// The hand-computable blogger world:
///
/// | blogger | age | city   | posts (→ site)                  |
/// |---------|-----|--------|---------------------------------|
/// | user1   | 28  | Madrid | p1 → s1, p2 → s2                |
/// | user2   | 28  | Madrid | p3 → s1                         |
/// | user3   | 35  | NY     | p4 → s1, p5 → s2, p6 → s3       |
/// | user4   | 22  | Lisbon | p7 → s2                         |
/// | user5   | 22  | Madrid | (none — excluded by classifier) |
///
/// user1 is typed `Writer ⊑ Person`, so it only becomes a Blogger after
/// RDFS saturation.
fn blogger_world() -> Graph {
    let mut base = parse_turtle(
        "<Writer> rdfs:subClassOf <Person> .
         <user1> rdf:type <Writer> ; <age> 28 ; <city> \"Madrid\" .
         <user2> rdf:type <Person> ; <age> 28 ; <city> \"Madrid\" .
         <user3> rdf:type <Person> ; <age> 35 ; <city> \"NY\" .
         <user4> rdf:type <Person> ; <age> 22 ; <city> \"Lisbon\" .
         <user5> rdf:type <Person> ; <age> 22 ; <city> \"Madrid\" .
         <user1> <posted> <p1> . <p1> <on> <s1> .
         <user1> <posted> <p2> . <p2> <on> <s2> .
         <user2> <posted> <p3> . <p3> <on> <s1> .
         <user3> <posted> <p4> . <p4> <on> <s1> .
         <user3> <posted> <p5> . <p5> <on> <s2> .
         <user3> <posted> <p6> . <p6> <on> <s3> .
         <user4> <posted> <p7> . <p7> <on> <s2> .",
    )
    .expect("base graph parses");
    saturate(&mut base);

    let mut schema = AnalyticalSchema::new("blog");
    schema
        .add_node("Blogger", "n(?x) :- ?x rdf:type Person")
        .add_node("Age", "n(?a) :- ?x age ?a")
        .add_node("City", "n(?c) :- ?x city ?c")
        .add_node("BlogPost", "n(?p) :- ?x posted ?p")
        .add_node("Site", "n(?s) :- ?p on ?s")
        .add_edge("hasAge", "Blogger", "Age", "e(?x, ?a) :- ?x age ?a")
        .add_edge("livesIn", "Blogger", "City", "e(?x, ?c) :- ?x city ?c")
        .add_edge(
            "wrotePost",
            "Blogger",
            "BlogPost",
            "e(?x, ?p) :- ?x posted ?p",
        )
        .add_edge("postedOn", "BlogPost", "Site", "e(?p, ?s) :- ?p on ?s");
    schema.materialize(&mut base).expect("schema materializes")
}

/// The Example 1 cube (count of posted-on sites by age × city), with an
/// explicit `?p` in the classifier so DRILL-IN is possible (Example 6 shape).
const CLASSIFIER: &str = "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
     ?x livesIn ?dcity, ?x wrotePost ?p";
const MEASURE: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?q, ?q postedOn ?v";

struct Fixture {
    session: OlapSession,
    cube: rdfcube::CubeHandle,
}

fn fixture() -> Fixture {
    let mut session = OlapSession::new(blogger_world());
    let cube = session
        .register(CLASSIFIER, MEASURE, AggFunc::Count)
        .expect("Example 1 cube registers");
    Fixture { session, cube }
}

/// Asserts a handle's materialized answer equals Definition 1's direct
/// evaluation of its (rewritten) query on the instance.
fn assert_matches_from_scratch(session: &OlapSession, h: rdfcube::CubeHandle) {
    let scratch = session
        .cube(h)
        .query()
        .answer(session.instance())
        .expect("from-scratch evaluates");
    assert!(
        session.answer(h).same_cells(&scratch),
        "materialized answer diverges from from-scratch evaluation"
    );
}

#[test]
fn base_cube_matches_hand_computation() {
    let f = fixture();
    let ans = f.session.answer(f.cube);
    assert_eq!(ans.dim_names(), ["dage", "dcity"]);
    // user5 has no posts, so (22, Madrid) must NOT be a cell.
    assert_eq!(
        ans.len(),
        3,
        "three (age, city) groups have bloggers with posts"
    );

    let dict = f.session.instance().dict();
    let id = |t: &Term| dict.id(t).expect("term interned");
    let cell = |age: i64, city: &str| {
        ans.get(&[id(&Term::integer(age)), id(&Term::literal(city))])
            .cloned()
    };
    assert_eq!(
        cell(28, "Madrid"),
        Some(AggValue::Int(3)),
        "user1's 2 posts + user2's 1"
    );
    assert_eq!(cell(35, "NY"), Some(AggValue::Int(3)), "user3's 3 posts");
    assert_eq!(cell(22, "Lisbon"), Some(AggValue::Int(1)), "user4's 1 post");
    assert_eq!(cell(22, "Madrid"), None, "user5 writes no posts");
    assert_matches_from_scratch(&f.session, f.cube);
}

#[test]
fn slice_uses_selection_on_ans() {
    let mut f = fixture();
    let (sliced, strategy) = f
        .session
        .transform(
            f.cube,
            &OlapOp::Slice {
                dim: "dage".into(),
                value: Term::integer(28),
            },
        )
        .expect("slice applies");
    assert_eq!(strategy, Strategy::SelectionOnAns, "Proposition 1");
    let ans = f.session.answer(sliced);
    assert_eq!(ans.len(), 1, "only (28, Madrid) survives the slice");
    assert_eq!(*ans.cells().next().unwrap().1, AggValue::Int(3));
    assert_matches_from_scratch(&f.session, sliced);
}

#[test]
fn dice_uses_selection_on_ans() {
    let mut f = fixture();
    let (diced, strategy) = f
        .session
        .transform(
            f.cube,
            &OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 22, hi: 30 })],
            },
        )
        .expect("dice applies");
    assert_eq!(strategy, Strategy::SelectionOnAns, "Proposition 1");
    let ans = f.session.answer(diced);
    assert_eq!(
        ans.len(),
        2,
        "(28, Madrid) and (22, Lisbon) fall in [22, 30]"
    );
    assert_matches_from_scratch(&f.session, diced);

    // A dice over *both* dimensions narrows to a single cell.
    let (corner, strategy) = f
        .session
        .transform(
            f.cube,
            &OlapOp::Dice {
                constraints: vec![
                    ("dage".into(), ValueSelector::IntRange { lo: 22, hi: 30 }),
                    (
                        "dcity".into(),
                        ValueSelector::OneOf(vec![Term::literal("Madrid")]),
                    ),
                ],
            },
        )
        .expect("two-dimensional dice applies");
    assert_eq!(strategy, Strategy::SelectionOnAns);
    assert_eq!(f.session.answer(corner).len(), 1);
    assert_matches_from_scratch(&f.session, corner);
}

#[test]
fn drill_out_uses_algorithm_1() {
    let mut f = fixture();
    let (coarse, strategy) = f
        .session
        .transform(
            f.cube,
            &OlapOp::DrillOut {
                dims: vec!["dcity".into()],
            },
        )
        .expect("drill-out applies");
    assert_eq!(strategy, Strategy::Algorithm1, "Proposition 2");
    let ans = f.session.answer(coarse);
    assert_eq!(ans.dim_names(), ["dage"]);
    assert_eq!(ans.len(), 3, "ages 22, 28, 35 remain");
    let dict = f.session.instance().dict();
    let age = |a: i64| ans.get(&[dict.id(&Term::integer(a)).unwrap()]).cloned();
    assert_eq!(age(28), Some(AggValue::Int(3)));
    assert_eq!(age(35), Some(AggValue::Int(3)));
    assert_eq!(age(22), Some(AggValue::Int(1)));
    assert_matches_from_scratch(&f.session, coarse);

    // Drilling out every dimension leaves the grand total: all 7 posts.
    let (total, strategy) = f
        .session
        .transform(
            f.cube,
            &OlapOp::DrillOut {
                dims: vec!["dage".into(), "dcity".into()],
            },
        )
        .expect("full drill-out applies");
    assert_eq!(strategy, Strategy::Algorithm1);
    let ans = f.session.answer(total);
    assert_eq!(ans.len(), 1);
    assert_eq!(ans.get(&[]), Some(&AggValue::Int(7)));
    assert_matches_from_scratch(&f.session, total);
}

#[test]
fn drill_in_uses_algorithm_2() {
    let mut f = fixture();
    let (fine, strategy) = f
        .session
        .transform(f.cube, &OlapOp::DrillIn { var: "p".into() })
        .expect("drill-in applies");
    assert_eq!(strategy, Strategy::Algorithm2, "Proposition 3");
    let ans = f.session.answer(fine);
    assert_eq!(ans.n_dims(), 3, "the post joins age × city as a dimension");
    assert_eq!(ans.len(), 7, "one cell per (age, city, post): p1–p7");
    assert_matches_from_scratch(&f.session, fine);

    // Spot-check one refined cell: (28, Madrid, p1) aggregates user1's
    // measure bag — 2 posted-on sites.
    let dict = f.session.instance().dict();
    let p1 = dict.id(&Term::iri("p1")).expect("p1 interned");
    let p1_cells: Vec<_> = ans.cells().filter(|(key, _)| key.contains(&p1)).collect();
    assert_eq!(p1_cells.len(), 1);
    assert_eq!(*p1_cells[0].1, AggValue::Int(2));
}

#[test]
fn drill_in_then_out_returns_to_base_cube() {
    let mut f = fixture();
    let (fine, _) = f
        .session
        .transform(f.cube, &OlapOp::DrillIn { var: "p".into() })
        .expect("drill-in applies");
    let new_dim = f.session.answer(fine).dim_names()[2].to_string();
    let (back, strategy) = f
        .session
        .transform(
            fine,
            &OlapOp::DrillOut {
                dims: vec![new_dim],
            },
        )
        .expect("drill-out applies");
    // The round trip lands on the base cube's own query, and the catalog's
    // cost model notices: an identity σ over the base cube's materialized
    // answer beats re-running Algorithm 1 over the drilled cube's pres.
    assert_eq!(strategy, Strategy::SelectionOnAns);
    assert_eq!(strategy.source, Some(f.cube), "served by the base cube");
    assert!(
        f.session.answer(back).same_cells(f.session.answer(f.cube)),
        "drill-in then drill-out of the same variable is the identity"
    );
}

#[test]
fn operation_chain_keeps_strategies_and_answers_sound() {
    let mut f = fixture();
    // slice ∘ drill-out ∘ drill-in chain, verified at every step.
    let (step1, s1) = f
        .session
        .transform(f.cube, &OlapOp::DrillIn { var: "p".into() })
        .expect("drill-in applies");
    let (step2, s2) = f
        .session
        .transform(
            step1,
            &OlapOp::DrillOut {
                dims: vec!["dcity".into()],
            },
        )
        .expect("drill-out applies");
    let (step3, s3) = f
        .session
        .transform(
            step2,
            &OlapOp::Slice {
                dim: "dage".into(),
                value: Term::integer(35),
            },
        )
        .expect("slice applies");
    assert_eq!(s1, Strategy::Algorithm2);
    assert_eq!(s2, Strategy::Algorithm1);
    assert_eq!(s3, Strategy::SelectionOnAns);
    for h in [step1, step2, step3] {
        assert_matches_from_scratch(&f.session, h);
    }
    // After slicing age 35, only user3's three posts remain as cells; each
    // cell aggregates user3's full measure bag (its 3 posted-on sites).
    let ans = f.session.answer(step3);
    assert_eq!(ans.len(), 3);
    assert!(ans.cells().all(|(_, v)| *v == AggValue::Int(3)));
}
