//! End-to-end integration tests: raw RDF text → RDFS saturation →
//! analytical schema materialization → cubes → OLAP session, spanning all
//! four crates through the facade.

use rdfcube::prelude::*;

/// The full §2 pipeline on the paper's blogger world, with an RDFS twist:
/// `Student ⊑ Person`, so students become bloggers only after saturation.
#[test]
fn pipeline_with_rdfs_inference() {
    let mut base = parse_turtle(
        "<Student> rdfs:subClassOf <Person> .
         <user1> rdf:type <Person> ; <age> 28 ; <city> \"Madrid\" .
         <user2> rdf:type <Student> ; <age> 22 ; <city> \"Madrid\" .
         <user1> <posted> <p1> . <p1> <on> <s1> .
         <user2> <posted> <p2> . <p2> <on> <s1> .
         <user2> <posted> <p3> . <p3> <on> <s2> .",
    )
    .unwrap();

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

    // Without saturation user2 is not a Person, so only user1 classifies.
    let before = schema.materialize(&mut base.clone()).unwrap();
    let mut s_before = OlapSession::new(before);
    let h = s_before
        .register(
            "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x livesIn ?dcity",
            "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
            AggFunc::Count,
        )
        .unwrap();
    let madrid = s_before
        .instance()
        .dict()
        .id(&Term::literal("Madrid"))
        .unwrap();
    assert_eq!(s_before.answer(h).get(&[madrid]), Some(&AggValue::Int(1)));

    // With saturation user2's posts join the Madrid cell.
    saturate(&mut base);
    let after = schema.materialize(&mut base).unwrap();
    let mut s_after = OlapSession::new(after);
    let h = s_after
        .register(
            "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x livesIn ?dcity",
            "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
            AggFunc::Count,
        )
        .unwrap();
    let madrid = s_after
        .instance()
        .dict()
        .id(&Term::literal("Madrid"))
        .unwrap();
    assert_eq!(s_after.answer(h).get(&[madrid]), Some(&AggValue::Int(3)));
}

/// Serialize a generated instance, reload it, and confirm cubes agree —
/// exercising the writer/parser round trip at a non-toy size.
#[test]
fn instance_round_trip_preserves_cubes() {
    use rdfcube::datagen::{generate_instance, BloggerConfig};
    let cfg = BloggerConfig {
        n_bloggers: 150,
        seed: 11,
        ..Default::default()
    };
    let instance = generate_instance(&cfg);
    let text = to_ntriples(&instance);
    let reloaded = parse_ntriples(&text).unwrap();
    assert_eq!(instance.len(), reloaded.len());

    let cube_cells = |g: Graph| {
        let mut s = OlapSession::new(g);
        let h = s
            .register(
                rdfcube::datagen::EXAMPLE1_CLASSIFIER,
                rdfcube::datagen::EXAMPLE1_MEASURE,
                AggFunc::Count,
            )
            .unwrap();
        let dict = s.instance().dict();
        let mut cells: Vec<(Vec<String>, String)> = s
            .answer(h)
            .cells()
            .map(|(k, v)| {
                (
                    k.iter().map(|&id| dict.term(id).to_string()).collect(),
                    v.display(dict),
                )
            })
            .collect();
        cells.sort();
        cells
    };
    assert_eq!(cube_cells(instance), cube_cells(reloaded));
}

/// A multi-cube session where transformations of different cubes interleave.
#[test]
fn interleaved_multi_cube_session() {
    use rdfcube::datagen::{generate_instance, BloggerConfig};
    let cfg = BloggerConfig {
        n_bloggers: 200,
        multi_city_prob: 0.3,
        seed: 5,
        ..Default::default()
    };
    let mut session = OlapSession::new(generate_instance(&cfg));

    let count_cube = session
        .register(
            rdfcube::datagen::EXAMPLE1_CLASSIFIER,
            rdfcube::datagen::EXAMPLE1_MEASURE,
            AggFunc::Count,
        )
        .unwrap();
    let avg_cube = session
        .register(
            rdfcube::datagen::EXAMPLE1_CLASSIFIER,
            rdfcube::datagen::EXAMPLE4_MEASURE,
            AggFunc::Avg,
        )
        .unwrap();

    let (c1, s1) = session
        .transform(
            count_cube,
            &OlapOp::DrillOut {
                dims: vec!["dcity".into()],
            },
        )
        .unwrap();
    let (a1, s2) = session
        .transform(
            avg_cube,
            &OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 35 })],
            },
        )
        .unwrap();
    let (c2, s3) = session
        .transform(
            c1,
            &OlapOp::Slice {
                dim: "dage".into(),
                value: Term::integer(25),
            },
        )
        .unwrap();
    assert_eq!(s1, Strategy::Algorithm1);
    assert_eq!(s2, Strategy::SelectionOnAns);
    assert_eq!(s3, Strategy::SelectionOnAns);

    for h in [count_cube, avg_cube, c1, a1, c2] {
        let scratch = session.cube(h).query().answer(session.instance()).unwrap();
        assert!(session.answer(h).same_cells(&scratch));
    }
}

/// Every aggregation function, end to end, against hand-computed values.
///
/// Duplicate measure values come from distinct *embeddings* (ratings
/// through intermediate nodes, like the paper's ★-rating example in §2) —
/// an RDF graph is a set of triples, so a repeated literal triple would
/// collapse; repeated ratings must not.
#[test]
fn all_aggregation_functions() {
    let instance = parse_turtle(
        "<a> rdf:type <C> ; <g> <g1> ; <rated> <r1>, <r2>, <r3> .
         <r1> <score> 10 . <r2> <score> 20 . <r3> <score> 20 .
         <b> rdf:type <C> ; <g> <g1> ; <rated> <r4> . <r4> <score> 30 .
         <c> rdf:type <C> ; <g> <g2> ; <rated> <r5> . <r5> <score> 5 .",
    )
    .unwrap();
    let expectations: Vec<(AggFunc, &str, &str)> = vec![
        (AggFunc::Count, "4", "1"),
        (AggFunc::CountDistinct, "3", "1"),
        (AggFunc::Sum, "80", "5"),
        (AggFunc::Avg, "20", "5"),
        (AggFunc::Min, "10", "5"),
        (AggFunc::Max, "30", "5"),
    ];
    for (agg, g1_expected, g2_expected) in expectations {
        let mut session = OlapSession::new(instance.clone());
        let h = session
            .register(
                "c(?x, ?dg) :- ?x rdf:type C, ?x g ?dg",
                "m(?x, ?v) :- ?x rated ?r, ?r score ?v",
                agg,
            )
            .unwrap();
        let dict = session.instance().dict();
        let g1 = dict.id(&Term::iri("g1")).unwrap();
        let g2 = dict.id(&Term::iri("g2")).unwrap();
        let cube = session.answer(h);
        assert_eq!(
            cube.get(&[g1]).unwrap().display(dict),
            g1_expected,
            "{agg} g1"
        );
        assert_eq!(
            cube.get(&[g2]).unwrap().display(dict),
            g2_expected,
            "{agg} g2"
        );
    }
}

/// The video world's Example 6, end to end through the facade.
#[test]
fn video_drill_in_pipeline() {
    use rdfcube::datagen::{generate_videos, VideoConfig};
    let cfg = VideoConfig {
        n_videos: 300,
        n_websites: 40,
        ..Default::default()
    };
    let mut session = OlapSession::new(generate_videos(&cfg));
    let h = session
        .register(
            rdfcube::datagen::EXAMPLE6_CLASSIFIER,
            rdfcube::datagen::EXAMPLE6_MEASURE,
            AggFunc::Sum,
        )
        .unwrap();
    let (h2, strategy) = session
        .transform(h, &OlapOp::DrillIn { var: "d3".into() })
        .unwrap();
    assert_eq!(strategy, Strategy::Algorithm2);
    let scratch = session.cube(h2).query().answer(session.instance()).unwrap();
    assert!(session.answer(h2).same_cells(&scratch));
    // Drill back out of the browser dimension. The round trip lands on the
    // base cube's own query, and the cost-based catalog serves it with an
    // identity σ over the base cube's answer instead of re-running
    // Algorithm 1 over the drilled cube's (larger) pres.
    let (h3, strategy) = session
        .transform(
            h2,
            &OlapOp::DrillOut {
                dims: vec!["d3".into()],
            },
        )
        .unwrap();
    assert_eq!(strategy, Strategy::SelectionOnAns);
    assert_eq!(strategy.source, Some(h));
    // … which must agree with the original cube (browser was added then
    // removed; the remaining dimension is the same d2).
    assert!(session.answer(h3).same_cells(session.answer(h)));
}
