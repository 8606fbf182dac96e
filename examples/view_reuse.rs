//! Automatic view reuse — the paper's problem statement in its general
//! form: "answering AnQs using the materialized results of other AnQs".
//!
//! Instead of naming a source cube and an operation, analysts just pose
//! queries; the session's cube catalog recognizes — via one O(1) probe of
//! its canonical-signature index — when a new query's classifier body and
//! measure match a materialized cube (up to variable renaming and pattern
//! order), costs every applicable rewriting against from-scratch
//! evaluation, and runs the cheapest. The aggregate need not match:
//! `pres(Q)` does not depend on it, so the broad cube posed again under
//! another ⊕ is Algorithm 1 removing nothing — γ over its `pres(Q)`. Each
//! answer comes back
//! with an `ExplainedStrategy` — the chosen route, its cost estimate, the
//! from-scratch estimate it beat, whether the catalog hit at all — and,
//! when posed through `answer_traced`, a `QueryTrace` of the observed
//! per-stage wall times, rendered here as `EXPLAIN ANALYZE`.
//!
//! Run with: `cargo run --release --example view_reuse`

use rdfcube::datagen;
use rdfcube::explain_analyze;
use rdfcube::prelude::*;
use std::time::Instant;

/// Parses an extended query against the session's instance dictionary.
fn pose(session: &mut OlapSession, classifier: &str, measure: &str, agg: AggFunc) -> ExtendedQuery {
    session
        .parse_query(classifier, measure, agg)
        .expect("query parses")
}

fn main() {
    let cfg = BloggerConfig {
        n_bloggers: 3_000,
        multi_city_prob: 0.1,
        ..Default::default()
    };
    let mut session = OlapSession::new(datagen::generate_instance(&cfg));
    println!("Instance: {} triples\n", session.instance().len());

    // An analyst materializes one broad cube…
    let t0 = Instant::now();
    let broad = session
        .register(
            datagen::EXAMPLE1_CLASSIFIER,
            datagen::EXAMPLE1_MEASURE,
            AggFunc::Count,
        )
        .expect("broad cube registers");
    println!(
        "materialized broad cube (age × city): {} cells in {:?}\n",
        session.answer(broad).len(),
        t0.elapsed()
    );

    // …and a *different* analyst poses fresh queries, written independently.
    let queries: Vec<(&str, Strategy, ExtendedQuery)> = vec![
        (
            "same cube, renamed variables & reordered patterns",
            Strategy::SelectionOnAns,
            pose(
                &mut session,
                "k(?u, ?years, ?town) :- ?u livesIn ?town, ?u hasAge ?years, ?u rdf:type Blogger",
                "w(?u, ?s) :- ?u wrotePost ?post, ?post postedOn ?s, ?u rdf:type Blogger",
                AggFunc::Count,
            ),
        ),
        (
            "same cube, distinct sites instead of posts (another ⊕)",
            Strategy::Algorithm1,
            pose(
                &mut session,
                datagen::EXAMPLE1_CLASSIFIER,
                datagen::EXAMPLE1_MEASURE,
                AggFunc::CountDistinct,
            ),
        ),
        (
            "coarser cube: by city only (drill-out shape)",
            Strategy::Algorithm1,
            pose(
                &mut session,
                "k(?u, ?town) :- ?u rdf:type Blogger, ?u hasAge ?a, ?u livesIn ?town",
                "w(?u, ?s) :- ?u rdf:type Blogger, ?u wrotePost ?p, ?p postedOn ?s",
                AggFunc::Count,
            ),
        ),
        (
            "unrelated measure (must fall back)",
            Strategy::FromScratch,
            pose(
                &mut session,
                "k(?u, ?town) :- ?u rdf:type Blogger, ?u livesIn ?town",
                "w(?u, ?p) :- ?u wrotePost ?p",
                AggFunc::Count,
            ),
        ),
    ];

    for (label, expected, eq) in queries {
        // Plan first (no materialization) to show the catalog's decision…
        let planned = session.explain_query(&eq);
        // …then actually answer — traced, so the observed per-stage wall
        // times come back alongside the planner's verdict.
        let t0 = Instant::now();
        let (h, strategy, trace) = session.answer_traced(eq).expect("query answered");
        let took = t0.elapsed();
        let scratch_t0 = Instant::now();
        let scratch = session
            .cube(h)
            .query()
            .answer(session.instance())
            .expect("scratch");
        let scratch_took = scratch_t0.elapsed();
        assert!(
            session.answer(h).same_cells(&scratch),
            "derivation diverged!"
        );
        assert_eq!(strategy.strategy, expected, "{label}: unexpected route");
        println!("query: {label}");
        println!(
            "  catalog {}: {} applicable candidate(s)",
            if planned.catalog_hit { "HIT" } else { "MISS" },
            planned.candidates,
        );
        for line in explain_analyze(&strategy, &trace).lines() {
            println!("  {line}");
        }
        println!(
            "  answered in {took:?} (from scratch: {scratch_took:?}); \
             {} cells — verified equal\n",
            session.answer(h).len()
        );
    }
    let counters = session.catalog().counters();
    println!(
        "catalog totals: {} hits / {} misses over {} materialized cubes \
         ({} KiB resident)",
        counters.hits,
        counters.misses,
        session.len(),
        session.catalog().resident_bytes() / 1024,
    );
}
