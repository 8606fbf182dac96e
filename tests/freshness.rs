//! Cube-freshness regressions and planner checks.
//!
//! Every catalog entry carries the instance triple count it was
//! materialized at (its *watermark*). These tests pin the contract: a
//! query answered after the instance grew must never be served cells
//! materialized before the growth — the serving paths (`answer_query`,
//! `transform`, `touch`, shared-plane snapshots) detect the moved
//! watermark and recompute. The second half pins the planner: what
//! `explain_query` predicts is what `answer_query` then does, on seeded
//! random workloads (fresh, stale and budgeted catalogs), and a cube whose
//! fact variable differs — the same-body/different-root family collision —
//! is never offered as a derivation source.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rdfcube::core::ViewSignature;
use rdfcube::prelude::*;
use rdfcube::rdf::vocab::RDF_TYPE;
use rdfcube::CoreError;

const WORLD: &str = "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
     <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
     <user4> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
     <user1> <wrotePost> <p1>, <p2>, <p3> .
     <p1> <postedOn> <s1> . <p2> <postedOn> <s1> . <p3> <postedOn> <s2> .
     <user3> <wrotePost> <p4> . <p4> <postedOn> <s2> .
     <user4> <wrotePost> <p5> . <p5> <postedOn> <s3> .";

/// Triples for a brand-new blogger, inserted mid-session; they add posts
/// to the (35, "NY") cell and create a new (41, "Berlin") group.
fn growth_triples() -> Vec<(Term, Term, Term)> {
    let t = Term::iri;
    vec![
        (t("user9"), t(RDF_TYPE), t("Blogger")),
        (t("user9"), t("hasAge"), Term::integer(41)),
        (t("user9"), t("livesIn"), Term::literal("Berlin")),
        (t("user9"), t("wrotePost"), t("p9")),
        (t("p9"), t("postedOn"), t("s1")),
        (t("user3"), t("wrotePost"), t("p10")),
        (t("p10"), t("postedOn"), t("s3")),
    ]
}

/// A pristine session over a clone of `g` — from-scratch ground truth
/// that shares `g`'s dictionary, so cells compare id-for-id.
fn ground_truth(g: &Graph) -> OlapSession {
    OlapSession::new(g.clone())
}

const CLASSIFIER: &str =
    "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity";
const MEASURE: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v";

/// The stale-cube regression (pre-watermark code served the first
/// materialization forever): the *same* query answered before and after
/// an insert must return different cells, and the second answer must
/// equal a from-scratch evaluation on the grown instance.
#[test]
fn repeated_query_is_refreshed_after_inserts() {
    let mut s = OlapSession::new(parse_turtle(WORLD).unwrap());
    let eq = s.parse_query(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    let (h1, _) = s.answer_query(eq.clone()).unwrap();
    let before = s.answer(h1).clone();

    assert_eq!(s.insert_triples(growth_triples()), 7);

    let (h2, _) = s.answer_query(eq).unwrap();
    assert_eq!(h1, h2, "identical queries must converge on one handle");

    let mut fresh = ground_truth(s.instance());
    let fh = fresh.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    assert!(
        !s.answer(h2).same_cells(&before),
        "the inserted triples must change the cube — served stale cells"
    );
    assert!(
        s.answer(h2).same_cells(fresh.answer(fh)),
        "refreshed cube must equal from-scratch on the grown instance"
    );
    assert!(
        s.catalog().counters().refreshes >= 1,
        "the refresh must be visible in the counters"
    );
}

/// Direct handle reads keep the watermark contract: `answer` serves the
/// materialized cells until `touch` (or a query) refreshes them, and
/// `is_fresh` reports the divergence in between.
#[test]
fn touch_refreshes_stale_handles() {
    let mut s = OlapSession::new(parse_turtle(WORLD).unwrap());
    let h = s.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    let before = s.answer(h).clone();
    assert!(s.is_fresh(h));

    s.insert_triples(growth_triples());
    assert!(!s.is_fresh(h), "watermark must have moved");
    assert!(
        s.answer(h).same_cells(&before),
        "direct reads serve the materialized watermark until touched"
    );

    assert!(s.touch(h).unwrap(), "touch must recompute a stale cube");
    assert!(s.is_fresh(h));
    let mut fresh = ground_truth(s.instance());
    let fh = fresh.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    assert!(s.answer(h).same_cells(fresh.answer(fh)));
}

/// `transform` must not derive from a stale source: slicing a cube whose
/// watermark the instance grew past has to equal the slice computed on
/// the grown instance from scratch.
#[test]
fn transform_after_inserts_derives_from_fresh_cells() {
    let mut s = OlapSession::new(parse_turtle(WORLD).unwrap());
    let h = s.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    s.insert_triples(growth_triples());

    let op = OlapOp::Slice {
        dim: "dage".into(),
        value: Term::integer(35),
    };
    let (sliced, _) = s.transform(h, &op).unwrap();

    let mut fresh = ground_truth(s.instance());
    let fh = fresh.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    let (fresh_sliced, _) = fresh.transform(fh, &op).unwrap();
    assert!(
        s.answer(sliced).same_cells(fresh.answer(fresh_sliced)),
        "transform derived from stale source cells"
    );
}

/// The shared query plane re-checks watermarks across epochs: cubes
/// materialized before a mutation epoch refresh on first use afterwards.
#[test]
fn shared_epoch_refreshes_after_mutation_epoch() {
    let mut s = OlapSession::new(parse_turtle(WORLD).unwrap());
    let h = s.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();

    let shared = s.into_shared();
    let before = shared.snapshot(h).unwrap().answer().clone();

    let mut s = shared.into_session();
    s.insert_triples(growth_triples());
    let shared = s.into_shared();

    let after = shared.snapshot(h).unwrap();
    assert!(!after.answer().same_cells(&before));
    let mut fresh = ground_truth(shared.instance());
    let fh = fresh.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    assert!(after.answer().same_cells(fresh.answer(fh)));
    assert!(shared.counters().refreshes >= 1);
}

// ---------------------------------------------------------------------
// EXPLAIN tells the truth: explain_query predicts the served route.
// ---------------------------------------------------------------------

/// `explain_query` and the serving pipeline share one planner, so what
/// EXPLAIN predicts for `eq` is what `answer_query` then does: same
/// strategy, source, candidate count and plan-time estimate. (A query the
/// catalog already holds verbatim is served by that entry instead — the
/// duplicate probe runs before the planner — and must not grow the
/// catalog.)
fn assert_explain_predicts_serving(s: &mut OlapSession, eq: &ExtendedQuery, ctx: &str) {
    let predicted = s.explain_query(eq);
    let cubes = s.len();
    let (handle, served) = s.answer_query(eq.clone()).unwrap();
    if s.len() == cubes {
        assert_eq!(served.source, Some(handle), "not a duplicate hit ({ctx})");
        assert!(served.catalog_hit);
        return;
    }
    assert_eq!(served.strategy, predicted.strategy, "strategy ({ctx})");
    assert_eq!(served.source, predicted.source, "source ({ctx})");
    assert_eq!(
        served.candidates, predicted.candidates,
        "candidates ({ctx})"
    );
    assert_eq!(
        served.catalog_hit, predicted.catalog_hit,
        "hit flag ({ctx})"
    );
    assert_eq!(
        served.estimated_cost, predicted.estimated_cost,
        "estimate ({ctx})"
    );
}

const BODIES: [&str; 4] = [
    CLASSIFIER,
    "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage",
    "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x livesIn ?dcity",
    "c(?x, ?dage, ?dsite) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
     ?x wrotePost ?p, ?p postedOn ?dsite",
];

/// Independently-written probes: renamed variables, reordered patterns.
const PROBES: [&str; 4] = [
    "q(?u, ?years, ?town) :- ?u hasAge ?years, ?u rdf:type Blogger, ?u livesIn ?town",
    "q(?u, ?years) :- ?u rdf:type Blogger, ?u hasAge ?years",
    "q(?b, ?town) :- ?b livesIn ?town, ?b rdf:type Blogger",
    "q(?b, ?years, ?where) :- ?b wrotePost ?p, ?p postedOn ?where, \
     ?b hasAge ?years, ?b rdf:type Blogger",
];

const SITE_MEASURE: &str = "w(?u, ?s) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?s";
const WORDS_MEASURE: &str = "w(?u, ?n) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q hasWordCount ?n";

fn blogger_session(triples: usize) -> OlapSession {
    let cfg = BloggerConfig::with_approx_triples(triples);
    OlapSession::new(rdfcube::datagen::generate_instance(&cfg))
}

/// Registers a randomized cube workload (bodies × measures × aggregates,
/// plus seeded Σ-diced variants) and returns seeded probe queries.
fn random_workload(s: &mut OlapSession, seed: u64) -> Vec<ExtendedQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    for body in BODIES {
        for (measure, agg) in [
            (SITE_MEASURE, AggFunc::Count),
            (WORDS_MEASURE, AggFunc::Sum),
        ] {
            let eq = s.parse_query(body, measure, agg).unwrap();
            if rng.gen_bool(0.5) {
                if let Ok(i) = eq.query().dim_index("dage") {
                    let lo = 18 + rng.gen_range(0..20i64);
                    let hi = lo + rng.gen_range(1..25i64);
                    let mut sigma = Sigma::all(eq.query().n_dims());
                    sigma.set(i, ValueSelector::IntRange { lo, hi });
                    s.register_query(ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap())
                        .unwrap();
                }
            }
            s.register_query(eq).unwrap();
        }
    }
    let mut probes = Vec::new();
    for probe in PROBES {
        for (measure, agg) in [
            (SITE_MEASURE, AggFunc::Count),
            (WORDS_MEASURE, AggFunc::Max),
        ] {
            let eq = s.parse_query(probe, measure, agg).unwrap();
            if let Ok(i) = eq.query().dim_index("years") {
                let lo = 18 + rng.gen_range(0..30i64);
                let hi = lo + rng.gen_range(1..20i64);
                let mut sigma = Sigma::all(eq.query().n_dims());
                sigma.set(i, ValueSelector::IntRange { lo, hi });
                probes.push(ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap());
            }
            probes.push(eq);
        }
    }
    probes
}

/// On seeded random workloads — against the pristine catalog, against
/// one the answers themselves have grown, and after inserts made every
/// entry stale: a stale source the instance can still itemize the missed
/// triples of is priced at its refresh on top of the rewriting — dearer
/// than fresh, cheaper than from-scratch — so it is still the one chosen.
#[test]
fn explain_predicts_serving_on_random_workloads() {
    for seed in [1u64, 7, 42] {
        let mut s = blogger_session(4_000);
        let probes = random_workload(&mut s, seed);
        for eq in &probes {
            assert_explain_predicts_serving(&mut s, eq, &format!("seed {seed}, pristine"));
        }
        for eq in &probes {
            assert_explain_predicts_serving(&mut s, eq, &format!("seed {seed}, repeated"));
        }
        let fresh = s.explain_query(&probes[0]);
        s.insert_triples(growth_triples());
        let stale = s.explain_query(&probes[0]);
        assert!(fresh.catalog_hit && stale.catalog_hit, "seed {seed}");
        assert_eq!(stale.source, fresh.source, "seed {seed}: source kept");
        assert!(
            fresh.estimated_cost < stale.estimated_cost
                && stale.estimated_cost < stale.scratch_cost,
            "seed {seed}: fresh {fresh}, stale {stale}"
        );
        let again = random_workload(&mut blogger_session(4_000), seed + 100);
        for eq in probes.iter().chain(&again) {
            assert_explain_predicts_serving(&mut s, eq, &format!("seed {seed}, stale"));
        }
        let counters = s.catalog().counters();
        assert!(counters.incremental_refreshes > 0, "{counters:?}");
    }
}

/// The same under a tight budget, where eviction makes a share of the
/// from-scratch price part of every candidate's.
#[test]
fn explain_predicts_serving_under_eviction() {
    let cfg = BloggerConfig::with_approx_triples(4_000);
    let mut s = OlapSession::with_budget(rdfcube::datagen::generate_instance(&cfg), 48 * 1024);
    let probes = random_workload(&mut s, 11);
    for eq in &probes {
        assert_explain_predicts_serving(&mut s, eq, "budgeted");
    }
    assert!(
        s.catalog().counters().evictions > 0,
        "budget must actually evict for this test to bite"
    );
}

/// The family-collision regression: two queries over the *same* canonical
/// body and measure whose fact (root) variables differ. Reusing one for
/// the other is unsound — their cells genuinely differ — and the planner
/// must reject the match.
#[test]
fn same_body_different_root_is_not_reused() {
    let world = "<a> <knows> <b> . <b> <knows> <a> . <a> <hasAge> 30 . <b> <hasAge> 40 .";
    let mut s = OlapSession::new(parse_turtle(world).unwrap());
    // Root = the aged endpoint of the mutual-knows pair.
    let src = s
        .parse_query(
            "c(?x, ?d) :- ?x knows ?y, ?y knows ?x, ?x hasAge ?d",
            "m(?x, ?v) :- ?x hasAge ?v",
            AggFunc::Sum,
        )
        .unwrap();
    // Root = the *other* endpoint; the dimension is still the first
    // endpoint's age. Same body and measure up to renaming.
    let tgt = s
        .parse_query(
            "c(?q, ?d) :- ?p knows ?q, ?q knows ?p, ?p hasAge ?d",
            "m(?q, ?v) :- ?q hasAge ?v",
            AggFunc::Sum,
        )
        .unwrap();

    // Precondition for the test to bite: identical canonical body and
    // measure, different canonical root.
    let s_sig = ViewSignature::of(src.query());
    let t_sig = ViewSignature::of(tgt.query());
    assert_eq!(s_sig.key.body, t_sig.key.body, "bodies must collide");
    assert_eq!(
        s_sig.key.measure, t_sig.key.measure,
        "measures must collide"
    );
    assert_ne!(s_sig.key.root, t_sig.key.root, "roots must differ");

    let h_src = s.register_query(src).unwrap();
    assert!(
        !s.explain_query(&tgt).catalog_hit,
        "a different-root cube is not a sound derivation source"
    );

    // Demonstrate the unsoundness the root check prevents: the two cubes'
    // cells differ on this instance.
    let src_cells = s.answer(h_src).clone();
    let (h_tgt, explained) = s.answer_query(tgt).unwrap();
    assert!(matches!(explained.strategy, Strategy::FromScratch));
    assert!(
        !s.answer(h_tgt).same_cells(&src_cells),
        "the colliding cubes coincide; the regression test lost its teeth"
    );
}

/// Foreign handles stay typed errors on the freshness paths too.
#[test]
fn freshness_accessors_reject_foreign_handles() {
    let mut a = OlapSession::new(parse_turtle(WORLD).unwrap());
    let _ = a.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    let h1 = a
        .register(CLASSIFIER, SITE_MEASURE, AggFunc::Count)
        .unwrap();
    let mut b = OlapSession::new(parse_turtle(WORLD).unwrap());
    let _ = b.register(CLASSIFIER, MEASURE, AggFunc::Count).unwrap();
    assert!(matches!(b.touch(h1), Err(CoreError::UnknownHandle(_))));
    assert!(!b.is_fresh(h1));
    assert!(!b.is_resident(h1));
}
