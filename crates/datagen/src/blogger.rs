//! The blogger world — the paper's Figure 1 analytical schema, generated at
//! scale.
//!
//! The generator produces *base* RDF graphs in a "raw" vocabulary
//! (`Person/age/city/posted/on/words/name/knows`) that the Figure 1
//! analytical schema ([`blogger_schema`]) re-exposes as
//! `Blogger/hasAge/livesIn/wrotePost/postedOn/hasWordCount/identifiedBy/
//! acquaintedWith`. [`generate_instance`] shortcuts the materialization for
//! benchmark setup.
//!
//! Every knob relevant to the paper's algorithms is explicit:
//!
//! * `n_bloggers` — scale;
//! * `multi_city_prob` / `multi_name_prob` — **multi-valuedness**, the
//!   RDF-specific fan-out that makes ans-based drill-out incorrect
//!   (Example 5; `examples/blogger_analytics.rs` prints how wrong);
//! * `n_cities` / `n_ages` — dimension cardinality, which drives dice
//!   selectivity;
//! * `max_posts`/`post_skew` — Zipf-skewed measure bag sizes;
//! * `missing_age_prob` — heterogeneity: bloggers that classify but lack a
//!   dimension value (they silently drop out of cubes on that dimension).
//!
//! Generation is fully deterministic for a given `seed`.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdfcube_core::AnalyticalSchema;
use rdfcube_rdf::{Graph, Term, TermId, Triple};

/// Configuration of the blogger-world generator.
#[derive(Debug, Clone)]
pub struct BloggerConfig {
    /// Number of bloggers (facts).
    pub n_bloggers: usize,
    /// Maximum posts per blogger (Zipf-distributed in `1..=max_posts`).
    pub max_posts: usize,
    /// Zipf exponent for the posts-per-blogger distribution.
    pub post_skew: f64,
    /// Number of distinct cities (the `dcity` dimension's domain).
    pub n_cities: usize,
    /// Number of distinct ages (the `dage` dimension's domain, starting 18).
    pub n_ages: usize,
    /// Number of distinct sites posts appear on.
    pub n_sites: usize,
    /// Probability a blogger lives in a second city (multi-valuedness).
    pub multi_city_prob: f64,
    /// Probability a blogger has a second name (multi-valuedness).
    pub multi_name_prob: f64,
    /// Probability a blogger has no recorded age (heterogeneity).
    pub missing_age_prob: f64,
    /// Average number of acquaintance edges per blogger.
    pub acquaintances_per_blogger: f64,
    /// RNG seed — same seed, same graph.
    pub seed: u64,
}

impl Default for BloggerConfig {
    fn default() -> Self {
        BloggerConfig {
            n_bloggers: 1_000,
            max_posts: 8,
            post_skew: 1.0,
            n_cities: 50,
            n_ages: 50,
            n_sites: 100,
            multi_city_prob: 0.1,
            multi_name_prob: 0.2,
            missing_age_prob: 0.05,
            acquaintances_per_blogger: 1.0,
            seed: 0xC0FFEE,
        }
    }
}

/// The "large world" target size: ≥1M base triples, roughly 10× the usual
/// benchmark ceiling — the scale the sharded store is built for. Used by
/// [`BloggerConfig::large_world`] and `olapbench`'s `cold-scratch` workload.
pub const LARGE_WORLD_TRIPLES: usize = 1_000_000;

impl BloggerConfig {
    /// A config scaled to approximately `triples` base triples (the
    /// benchmark sweeps specify dataset sizes this way).
    pub fn with_approx_triples(triples: usize) -> Self {
        // Rough per-blogger triple count for the defaults: 1 type + ~0.95
        // age + ~1.1 city + ~1.2 name + 1 acquaintance + E[posts]·3 where
        // the Zipf(8, 1.0) mean is ≈ 2.94 → ≈ 14 triples per blogger.
        let per_blogger = 14;
        BloggerConfig {
            n_bloggers: (triples / per_blogger).max(1),
            ..Default::default()
        }
    }

    /// The ~[`LARGE_WORLD_TRIPLES`]-triple blogger world. Same default
    /// seed as every other config, so the world is fully deterministic:
    /// two `large_world()` graphs are triple-for-triple identical.
    pub fn large_world() -> Self {
        Self::with_approx_triples(LARGE_WORLD_TRIPLES)
    }
}

/// The Figure 1 analytical schema for the generated base vocabulary.
pub fn blogger_schema() -> AnalyticalSchema {
    let mut s = AnalyticalSchema::new("blog");
    s.add_node("Blogger", "n(?x) :- ?x rdf:type Person")
        .add_node("Age", "n(?a) :- ?x age ?a")
        .add_node("City", "n(?c) :- ?x city ?c")
        .add_node("Name", "n(?n) :- ?x name ?n")
        .add_node("BlogPost", "n(?p) :- ?x posted ?p")
        .add_node("Site", "n(?s) :- ?p on ?s")
        .add_node("Value", "n(?w) :- ?p words ?w")
        .add_edge("hasAge", "Blogger", "Age", "e(?x, ?a) :- ?x age ?a")
        .add_edge("livesIn", "Blogger", "City", "e(?x, ?c) :- ?x city ?c")
        .add_edge("identifiedBy", "Blogger", "Name", "e(?x, ?n) :- ?x name ?n")
        .add_edge(
            "acquaintedWith",
            "Blogger",
            "Blogger",
            "e(?x, ?y) :- ?x knows ?y",
        )
        .add_edge(
            "wrotePost",
            "Blogger",
            "BlogPost",
            "e(?x, ?p) :- ?x posted ?p",
        )
        .add_edge("postedOn", "BlogPost", "Site", "e(?p, ?s) :- ?p on ?s")
        .add_edge(
            "hasWordCount",
            "BlogPost",
            "Value",
            "e(?p, ?w) :- ?p words ?w",
        );
    s
}

/// The classifier text of the paper's Example 1 (count of sites by age and
/// city) against a materialized blogger instance.
pub const EXAMPLE1_CLASSIFIER: &str =
    "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity";

/// The measure text of the paper's Example 1.
pub const EXAMPLE1_MEASURE: &str =
    "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite";

/// The measure text of the paper's Example 4 (word counts).
pub const EXAMPLE4_MEASURE: &str =
    "m(?x, ?vwords) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p hasWordCount ?vwords";

/// Generates the base (pre-lens) graph.
pub fn generate_base(cfg: &BloggerConfig) -> Graph {
    generate(cfg, Vocab::base())
}

/// Generates the analytical-schema instance directly (same shape as
/// `blogger_schema().materialize(generate_base(cfg))`, minus the
/// intermediate-class typings benchmarks never touch).
pub fn generate_instance(cfg: &BloggerConfig) -> Graph {
    generate(cfg, Vocab::instance())
}

/// Predicate vocabulary: the generator emits identical structure for the
/// base graph and the instance graph, only the names differ.
struct Vocab {
    person_class: &'static str,
    age: &'static str,
    city: &'static str,
    name: &'static str,
    knows: &'static str,
    posted: &'static str,
    on: &'static str,
    words: &'static str,
}

impl Vocab {
    fn base() -> Self {
        Vocab {
            person_class: "Person",
            age: "age",
            city: "city",
            name: "name",
            knows: "knows",
            posted: "posted",
            on: "on",
            words: "words",
        }
    }

    fn instance() -> Self {
        Vocab {
            person_class: "Blogger",
            age: "hasAge",
            city: "livesIn",
            name: "identifiedBy",
            knows: "acquaintedWith",
            posted: "wrotePost",
            on: "postedOn",
            words: "hasWordCount",
        }
    }
}

fn generate(cfg: &BloggerConfig, vocab: Vocab) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();
    let posts_dist = Zipf::new(cfg.max_posts.max(1), cfg.post_skew);
    let site_dist = Zipf::new(cfg.n_sites.max(1), 1.0);

    // Intern the fixed vocabulary and the dimension domains once, then stage
    // id-level triples for one bulk load at the end: the store sorts + dedups
    // each index a single time instead of maintaining them per insert.
    let rdf_type = g.encode(&Term::iri(rdfcube_rdf::vocab::RDF_TYPE));
    let class = g.encode(&Term::iri(vocab.person_class));
    let p_age = g.encode(&Term::iri(vocab.age));
    let p_city = g.encode(&Term::iri(vocab.city));
    let p_name = g.encode(&Term::iri(vocab.name));
    let p_knows = g.encode(&Term::iri(vocab.knows));
    let p_posted = g.encode(&Term::iri(vocab.posted));
    let p_on = g.encode(&Term::iri(vocab.on));
    let p_words = g.encode(&Term::iri(vocab.words));

    let cities: Vec<TermId> = (0..cfg.n_cities.max(1))
        .map(|i| g.encode(&Term::literal(format!("city{i}"))))
        .collect();
    let sites: Vec<TermId> = (0..cfg.n_sites.max(1))
        .map(|i| g.encode(&Term::iri(format!("site{i}"))))
        .collect();

    let mut staged: Vec<Triple> = Vec::with_capacity(cfg.n_bloggers * 8);
    let mut post_counter = 0usize;
    for b in 0..cfg.n_bloggers {
        let user = g.encode(&Term::iri(format!("user{b}")));
        staged.push(Triple::new(user, rdf_type, class));

        if !rng.gen_bool(cfg.missing_age_prob.clamp(0.0, 1.0)) {
            let age = 18 + (rng.gen_range(0..cfg.n_ages.max(1)) as i64);
            let age = g.encode(&Term::integer(age));
            staged.push(Triple::new(user, p_age, age));
        }

        let city = cities[rng.gen_range(0..cities.len())];
        staged.push(Triple::new(user, p_city, city));
        if rng.gen_bool(cfg.multi_city_prob.clamp(0.0, 1.0)) {
            let second = cities[rng.gen_range(0..cities.len())];
            // May coincide with the first, in which case the bulk loader's
            // dedup absorbs it — exactly like real RDF data.
            staged.push(Triple::new(user, p_city, second));
        }

        let name = g.encode(&Term::literal(format!("name{b}")));
        staged.push(Triple::new(user, p_name, name));
        if rng.gen_bool(cfg.multi_name_prob.clamp(0.0, 1.0)) {
            let alias = g.encode(&Term::literal(format!("alias{b}")));
            staged.push(Triple::new(user, p_name, alias));
        }

        let n_acq = cfg.acquaintances_per_blogger.max(0.0);
        let acq_count =
            n_acq.floor() as usize + usize::from(rng.gen_bool(n_acq.fract().clamp(0.0, 1.0)));
        for _ in 0..acq_count.min(cfg.n_bloggers.saturating_sub(1)) {
            let other = rng.gen_range(0..cfg.n_bloggers);
            if other != b {
                let other = g.encode(&Term::iri(format!("user{other}")));
                staged.push(Triple::new(user, p_knows, other));
            }
        }

        let n_posts = posts_dist.sample(&mut rng);
        for _ in 0..n_posts {
            let post = g.encode(&Term::iri(format!("post{post_counter}")));
            post_counter += 1;
            staged.push(Triple::new(user, p_posted, post));
            let site = sites[site_dist.sample(&mut rng) - 1];
            staged.push(Triple::new(post, p_on, site));
            let words = rng.gen_range(50..=2000);
            let words = g.encode(&Term::integer(words));
            staged.push(Triple::new(post, p_words, words));
        }
    }
    g.bulk_insert_ids(staged);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_core::{ExtendedQuery, OlapSession};
    use rdfcube_engine::AggFunc;

    #[test]
    fn generation_is_deterministic() {
        let cfg = BloggerConfig {
            n_bloggers: 50,
            ..Default::default()
        };
        let a = rdfcube_rdf::to_ntriples(&generate_base(&cfg));
        let b = rdfcube_rdf::to_ntriples(&generate_base(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = BloggerConfig {
            n_bloggers: 50,
            ..Default::default()
        };
        let other = BloggerConfig {
            seed: 1,
            ..cfg.clone()
        };
        assert_ne!(
            rdfcube_rdf::to_ntriples(&generate_base(&cfg)),
            rdfcube_rdf::to_ntriples(&generate_base(&other))
        );
    }

    #[test]
    fn approx_triples_is_in_the_ballpark() {
        let cfg = BloggerConfig::with_approx_triples(20_000);
        let g = generate_base(&cfg);
        let n = g.len();
        assert!(
            (10_000..40_000).contains(&n),
            "asked ≈20k, got {n} (cfg: {} bloggers)",
            cfg.n_bloggers
        );
    }

    #[test]
    fn large_world_config_targets_a_million_triples() {
        // Config math only — the 1M world itself is generated by the
        // release-mode `olapbench`, not in debug tests.
        let cfg = BloggerConfig::large_world();
        assert_eq!(cfg.n_bloggers, LARGE_WORLD_TRIPLES / 14);
        assert!(cfg.n_bloggers >= 70_000);
        assert_eq!(cfg.seed, BloggerConfig::default().seed, "deterministic");
    }

    #[test]
    fn instance_matches_materialized_base_on_cube_answers() {
        // The shortcut instance and the schema-materialized instance answer
        // the paper's Example 1 cube identically.
        let cfg = BloggerConfig {
            n_bloggers: 120,
            seed: 9,
            ..Default::default()
        };
        let mut base = generate_base(&cfg);
        let materialized = blogger_schema().materialize(&mut base).unwrap();
        let direct = generate_instance(&cfg);

        let cube_of = |g: Graph| {
            let mut s = OlapSession::new(g);
            let h = s
                .register(EXAMPLE1_CLASSIFIER, EXAMPLE1_MEASURE, AggFunc::Count)
                .unwrap();
            // Decode cells to strings so cubes over different dictionaries
            // compare meaningfully.
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
        assert_eq!(cube_of(materialized), cube_of(direct));
    }

    #[test]
    fn multivaluedness_knob_works() {
        let none = BloggerConfig {
            n_bloggers: 300,
            multi_city_prob: 0.0,
            ..Default::default()
        };
        let lots = BloggerConfig {
            n_bloggers: 300,
            multi_city_prob: 0.9,
            n_cities: 1000, // large domain → second city rarely collides
            ..none.clone()
        };
        let count_city_triples = |g: &Graph| {
            let p = g.dict().iri_id("city").unwrap();
            g.count_matching(rdfcube_rdf::TriplePattern::new(None, Some(p), None))
        };
        let g_none = generate_base(&none);
        let g_lots = generate_base(&lots);
        assert_eq!(count_city_triples(&g_none), 300);
        assert!(count_city_triples(&g_lots) > 500);
    }

    #[test]
    fn heterogeneity_missing_ages() {
        let cfg = BloggerConfig {
            n_bloggers: 200,
            missing_age_prob: 0.5,
            ..Default::default()
        };
        let g = generate_base(&cfg);
        let p = g.dict().iri_id("age").unwrap();
        let with_age = g.count_matching(rdfcube_rdf::TriplePattern::new(None, Some(p), None));
        assert!(
            with_age < 160,
            "about half the bloggers should lack an age, got {with_age}"
        );
    }

    #[test]
    fn example_queries_parse_against_instance() {
        let g = generate_instance(&BloggerConfig {
            n_bloggers: 30,
            ..Default::default()
        });
        let mut s = OlapSession::new(g);
        let h = s
            .register(EXAMPLE1_CLASSIFIER, EXAMPLE4_MEASURE, AggFunc::Avg)
            .unwrap();
        assert!(!s.answer(h).is_empty());
        let _ = ExtendedQuery::from_query; // silence potential unused import churn
    }
}
