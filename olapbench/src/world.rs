//! Seeded inputs: the blogger worlds and the query texts every workload and
//! layer battery shares. All of it is a pure function of `--seed`.

use crate::stats::{mix64, Rng};
use rdfcube_core::{AnalyticalQuery, CoreError, ExtendedQuery, OlapOp, ValueSelector};
use rdfcube_datagen::{BloggerConfig, DimDomain};
use rdfcube_engine::AggFunc;
use rdfcube_rdf::{Dictionary, Graph, Term};

pub use rdfcube_datagen::{
    EXAMPLE1_CLASSIFIER as EX1, EXAMPLE1_MEASURE as SITES, EXAMPLE4_MEASURE as WORDS,
};

/// Q3 of the issue: age × city × site (the site dimension is reached
/// through the posts and is naturally multi-valued).
pub const Q3: &str = "c(?x, ?dage, ?dcity, ?dsite) :- ?x rdf:type Blogger, \
     ?x hasAge ?dage, ?x livesIn ?dcity, ?x wrotePost ?p, ?p postedOn ?dsite";

/// The E5b base: age only, the city existential — drilling `dcity` in needs
/// a one-triple auxiliary query (Algorithm 2's best case). A different
/// derivation family from [`Q3`] and [`EX1`].
pub const E5B: &str = "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity";

/// City-only classifier (its own family).
pub const CITY_ONLY: &str = "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x livesIn ?dcity";

/// The property the harness adds from each city to its country, so that
/// ROLL-UP has a hierarchy to follow.
pub const LOCATED_IN: &str = "locatedIn";

const N_COUNTRIES: usize = 5;

/// The generator configuration for a world of roughly `triples` triples.
/// `multi_city_prob` 0.1 as the issue fixes it; everything else default.
pub fn world_config(triples: usize, seed: u64) -> BloggerConfig {
    BloggerConfig {
        multi_city_prob: 0.1,
        seed: mix64(seed ^ 0x0B10_66E5),
        ..BloggerConfig::with_approx_triples(triples)
    }
}

/// Generates and bulk-loads the world, adds the `city → country` edges (a
/// few cities get a second parent, chosen by the seed) and compacts.
pub fn build_world(cfg: &BloggerConfig) -> Graph {
    let mut g = rdfcube_datagen::generate_instance(cfg);
    let mut rng = Rng::new(cfg.seed ^ 0xC0_0417);
    let via = Term::iri(LOCATED_IN);
    for c in 0..cfg.n_cities {
        let city = Term::literal(format!("city{c}"));
        let country = |k: usize| Term::iri(format!("country{}", k % N_COUNTRIES));
        g.insert(&city, &via, &country(c));
        if rng.below(8) == 0 {
            g.insert(&city, &via, &country(c + 1));
        }
    }
    g.compact();
    g
}

/// Parses a query in the paper's notation against `dict`.
pub fn parse(
    classifier: &str,
    measure: &str,
    agg: AggFunc,
    dict: &mut Dictionary,
) -> Result<ExtendedQuery, CoreError> {
    AnalyticalQuery::parse(classifier, measure, agg, dict).map(ExtendedQuery::from_query)
}

/// SLICE `dage = 30`.
pub fn slice_op() -> OlapOp {
    OlapOp::Slice {
        dim: "dage".into(),
        value: Term::integer(30),
    }
}

/// DICE to a 10 % window of the 50-value age domain starting at `lo`.
pub fn dice_op(lo: i64) -> OlapOp {
    OlapOp::Dice {
        constraints: vec![("dage".into(), ValueSelector::IntRange { lo, hi: lo + 4 })],
    }
}

/// DRILL-OUT of one dimension.
pub fn drill_out_op(dim: &str) -> OlapOp {
    OlapOp::DrillOut {
        dims: vec![dim.into()],
    }
}

/// DRILL-IN of `dcity` (existential in [`E5B`]).
pub fn drill_in_op() -> OlapOp {
    OlapOp::DrillIn {
        var: "dcity".into(),
    }
}

/// ROLL-UP `dcity` to the country level.
pub fn roll_up_op() -> OlapOp {
    OlapOp::RollUp {
        dim: "dcity".into(),
        via: LOCATED_IN.into(),
    }
}

/// The value domains of Example 1's two dimensions in a generated world.
pub fn domains(cfg: &BloggerConfig) -> Vec<DimDomain> {
    vec![
        DimDomain::new(
            "dage",
            (18..18 + cfg.n_ages as i64).map(Term::integer).collect(),
        ),
        DimDomain::new(
            "dcity",
            (0..cfg.n_cities)
                .map(|i| Term::literal(format!("city{i}")))
                .collect(),
        ),
    ]
}

/// One insert batch of the ingest workload: `n` new bloggers, each with an
/// age, a city and a Zipf-ish handful of posts (site + word count), named
/// so that no two batches of an epoch collide. About 11 triples a blogger.
pub fn blogger_batch(
    cfg: &BloggerConfig,
    batch: usize,
    n: usize,
    rng: &mut Rng,
) -> Vec<(Term, Term, Term)> {
    let iri = |s: &str| Term::iri(s);
    let mut out = Vec::with_capacity(n * 12);
    for b in 0..n {
        let user = iri(&format!("newuser{batch}_{b}"));
        out.push((
            user.clone(),
            iri(rdfcube_rdf::vocab::RDF_TYPE),
            iri("Blogger"),
        ));
        let age = 18 + rng.below(cfg.n_ages) as i64;
        out.push((user.clone(), iri("hasAge"), Term::integer(age)));
        let city = rng.below(cfg.n_cities);
        out.push((
            user.clone(),
            iri("livesIn"),
            Term::literal(format!("city{city}")),
        ));
        // 1, 2, 2, 4, 4, 4, 4, 8 … posts: a short heavy tail like the
        // generator's Zipf(8, 1.0).
        let posts = 1 + rng.below(4) * rng.below(2) + rng.below(3);
        for p in 0..posts {
            let post = iri(&format!("newpost{batch}_{b}_{p}"));
            out.push((user.clone(), iri("wrotePost"), post.clone()));
            let site = rng.below(cfg.n_sites);
            out.push((post.clone(), iri("postedOn"), iri(&format!("site{site}"))));
            let words = 50 + rng.below(1951) as i64;
            out.push((post, iri("hasWordCount"), Term::integer(words)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_are_seeded() {
        let a = build_world(&world_config(3_000, 1));
        let b = build_world(&world_config(3_000, 1));
        let c = build_world(&world_config(3_000, 2));
        assert_eq!(rdfcube_rdf::to_ntriples(&a), rdfcube_rdf::to_ntriples(&b));
        assert_ne!(rdfcube_rdf::to_ntriples(&a), rdfcube_rdf::to_ntriples(&c));
        assert!(!a.has_pending_delta());
        let via = a
            .dict()
            .iri_id(LOCATED_IN)
            .expect("hierarchy edges present");
        let edges = a.count_matching(rdfcube_rdf::TriplePattern::new(None, Some(via), None));
        assert!(edges >= 50, "every city has a country, got {edges}");
    }

    #[test]
    fn batches_are_seeded_and_distinct() {
        let cfg = world_config(3_000, 1);
        let a = blogger_batch(&cfg, 0, 8, &mut Rng::new(5));
        let b = blogger_batch(&cfg, 0, 8, &mut Rng::new(5));
        let c = blogger_batch(&cfg, 1, 8, &mut Rng::new(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.len() >= 8 * 6);
    }
}
