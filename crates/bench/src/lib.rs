//! Shared fixtures for the benchmark suite (criterion benches and the
//! `report` binary reproduce the same experiments E1–E9; see DESIGN.md §4
//! and EXPERIMENTS.md for the experiment ↔ paper-claim mapping).

#![warn(missing_docs)]

use rdfcube_core::{AnalyticalQuery, Cube, OlapSession, Sigma};
use rdfcube_core::{ExtendedQuery, OlapOp, PartialResult, ValueSelector};
use rdfcube_datagen::{BloggerConfig, VideoConfig};
use rdfcube_engine::AggFunc;
use rdfcube_rdf::{Graph, Term};

/// Dataset scales (approximate triple counts) used by the sweeps.
pub const SCALES: [usize; 4] = [10_000, 50_000, 100_000, 250_000];

/// The default age-domain size of the generated blogger worlds (ages run
/// `18..18+AGE_DOMAIN`); dice selectivities are expressed against it.
pub const AGE_DOMAIN: usize = 50;

/// A prepared blogger-world fixture: instance + a registered Example 1 cube
/// (count of sites by age × city), with `ans(Q)` and `pres(Q)` materialized.
pub struct BloggerFixture {
    /// The AnS instance.
    pub instance: Graph,
    /// The extended query Q.
    pub eq: ExtendedQuery,
    /// Materialized `ans(Q)`.
    pub ans: Cube,
    /// Materialized `pres(Q)`.
    pub pres: PartialResult,
}

/// Builds the blogger fixture at roughly `triples` triples with the given
/// multi-valuedness for the city dimension.
pub fn blogger_fixture(triples: usize, multi_city_prob: f64) -> BloggerFixture {
    let cfg = BloggerConfig {
        multi_city_prob,
        ..BloggerConfig::with_approx_triples(triples)
    };
    blogger_fixture_with(cfg, rdfcube_datagen::EXAMPLE1_CLASSIFIER, AggFunc::Count)
}

/// Builds a blogger fixture with an explicit config/classifier/aggregate.
pub fn blogger_fixture_with(cfg: BloggerConfig, classifier: &str, agg: AggFunc) -> BloggerFixture {
    let mut instance = rdfcube_datagen::generate_instance(&cfg);
    let q = AnalyticalQuery::parse(
        classifier,
        rdfcube_datagen::EXAMPLE1_MEASURE,
        agg,
        instance.dict_mut(),
    )
    .expect("fixture query parses");
    let eq = ExtendedQuery::from_query(q);
    let pres = PartialResult::compute(&eq, &instance).expect("pres computes");
    let ans = pres.to_cube(instance.dict()).expect("ans from pres");
    BloggerFixture {
        instance,
        eq,
        ans,
        pres,
    }
}

/// A 3-dimensional classifier (age × city × site) for the drill-out sweeps;
/// the site dimension is reached through the posts and is naturally
/// multi-valued.
pub const CLASSIFIER_3D: &str = "c(?x, ?dage, ?dcity, ?dsite) :- ?x rdf:type Blogger, \
     ?x hasAge ?dage, ?x livesIn ?dcity, ?x wrotePost ?p, ?p postedOn ?dsite";

/// A video-world fixture for the drill-in experiments: instance + Example 6
/// cube with materialized results.
pub struct VideoFixture {
    /// The instance graph.
    pub instance: Graph,
    /// The Example 6 extended query.
    pub eq: ExtendedQuery,
    /// Materialized `pres(Q)`.
    pub pres: PartialResult,
}

/// Builds the video fixture at the given number of videos.
pub fn video_fixture(n_videos: usize) -> VideoFixture {
    let cfg = VideoConfig {
        n_videos,
        n_websites: (n_videos / 20).max(10),
        ..Default::default()
    };
    let mut instance = rdfcube_datagen::generate_videos(&cfg);
    let q = AnalyticalQuery::parse(
        rdfcube_datagen::EXAMPLE6_CLASSIFIER,
        rdfcube_datagen::EXAMPLE6_MEASURE,
        AggFunc::Sum,
        instance.dict_mut(),
    )
    .expect("video query parses");
    let eq = ExtendedQuery::from_query(q);
    let pres = PartialResult::compute(&eq, &instance).expect("pres computes");
    VideoFixture { instance, eq, pres }
}

/// A catalog stress fixture (experiment E10): one blogger-world session
/// with `n_cubes` materialized cubes spread over every combination of five
/// classifier bodies, two measures, and the aggregate functions valid for
/// each — plus Σ-diced variants within each family — and a probe set of
/// independently-written target queries (renamed variables, reordered
/// patterns, dice/drill-out/drill-in shapes) that exercise view reuse.
pub struct CatalogFixture {
    /// The session with `n_cubes` materialized cubes.
    pub session: OlapSession,
    /// Target queries to plan/answer against the catalog.
    pub probes: Vec<ExtendedQuery>,
}

/// The five classifier bodies of the E10 workload (each canonicalizes to a
/// distinct derivation-family body).
const E10_BODIES: [&str; 5] = [
    // Example 1's body (age × city).
    "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
    // Same dimensions plus an existential post (drill-in capable).
    "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity, \
     ?x wrotePost ?p",
    // City only.
    "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x livesIn ?dcity",
    // Age only.
    "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage",
    // The 3-D classifier (age × city × site).
    CLASSIFIER_3D,
];

/// Independently-written probe classifiers: renamed variables, shuffled
/// patterns, and dice/drill-out/drill-in shapes over the same bodies.
const E10_PROBES: [&str; 7] = [
    // Body 1, renamed + reordered (identity dice).
    "k(?u, ?years, ?town) :- ?u livesIn ?town, ?u hasAge ?years, ?u rdf:type Blogger",
    // Body 2, renamed (identity dice).
    "k(?u, ?years, ?town) :- ?u wrotePost ?w, ?u livesIn ?town, ?u hasAge ?years, \
     ?u rdf:type Blogger",
    // Body 2, drill-out shape (age existential).
    "k(?u, ?town) :- ?u wrotePost ?w, ?u livesIn ?town, ?u hasAge ?a, ?u rdf:type Blogger",
    // Body 2, drill-in shape (the post promoted to a dimension).
    "k(?u, ?years, ?town, ?post) :- ?u wrotePost ?post, ?u livesIn ?town, ?u hasAge ?years, \
     ?u rdf:type Blogger",
    // Body 3, renamed.
    "k(?u, ?town) :- ?u livesIn ?town, ?u rdf:type Blogger",
    // Body 5, drill-out shape (site existential).
    "k(?u, ?years, ?town) :- ?u rdf:type Blogger, ?u hasAge ?years, ?u livesIn ?town, \
     ?u wrotePost ?q, ?q postedOn ?s",
    // Body 5, renamed 3-D (identity dice).
    "k(?u, ?years, ?town, ?site) :- ?q postedOn ?site, ?u wrotePost ?q, ?u livesIn ?town, \
     ?u hasAge ?years, ?u rdf:type Blogger",
];

/// Measures (paper notation) with the aggregates that are valid for each:
/// sites are IRIs (no arithmetic), word counts are integers.
fn e10_measures() -> [(&'static str, &'static str, Vec<AggFunc>); 2] {
    [
        (
            rdfcube_datagen::EXAMPLE1_MEASURE,
            "w(?u, ?s) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?s",
            vec![
                AggFunc::Count,
                AggFunc::CountDistinct,
                AggFunc::Min,
                AggFunc::Max,
            ],
        ),
        (
            rdfcube_datagen::EXAMPLE4_MEASURE,
            "w(?u, ?wc) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q hasWordCount ?wc",
            vec![
                AggFunc::Count,
                AggFunc::CountDistinct,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ],
        ),
    ]
}

/// Builds the E10 fixture: a session of roughly `triples` triples holding
/// `n_cubes` materialized cubes, with an unbounded catalog.
pub fn catalog_fixture(triples: usize, n_cubes: usize) -> CatalogFixture {
    catalog_fixture_with_budget(triples, n_cubes, None)
}

/// [`catalog_fixture`] with an optional memory budget on the session. The
/// generated instance is seeded, so two fixtures at the same scale hold
/// identical data — the budgeted/unbudgeted answer comparison of E10
/// relies on that.
pub fn catalog_fixture_with_budget(
    triples: usize,
    n_cubes: usize,
    budget: Option<usize>,
) -> CatalogFixture {
    let cfg = BloggerConfig {
        multi_city_prob: 0.1,
        ..BloggerConfig::with_approx_triples(triples)
    };
    let instance = rdfcube_datagen::generate_instance(&cfg);
    let mut session = match budget {
        Some(bytes) => OlapSession::with_budget(instance, bytes),
        None => OlapSession::new(instance),
    };

    // Round-robin the (body, measure, agg) combinations; each subsequent
    // round registers a narrower Σ-diced variant in the same family.
    let measures = e10_measures();
    let mut combos: Vec<(&str, &str, AggFunc)> = Vec::new();
    for body in E10_BODIES {
        for (measure, _, aggs) in &measures {
            for &agg in aggs {
                combos.push((body, measure, agg));
            }
        }
    }
    let mut registered = 0usize;
    let mut variant = 0i64;
    'fill: loop {
        for &(classifier, measure, agg) in &combos {
            if registered == n_cubes {
                break 'fill;
            }
            let mut eq = session
                .parse_query(classifier, measure, agg)
                .expect("workload query parses");
            if variant > 0 {
                // Each round narrows a different-width Σ so every family
                // member is a distinct diced variant: age ranges where an
                // age dimension exists, otherwise city subsets (the
                // generated worlds name their cities "city0", "city1", …).
                let mut sigma = Sigma::all(eq.query().n_dims());
                if let Ok(i) = eq.query().dim_index("dage") {
                    sigma.set(
                        i,
                        ValueSelector::IntRange {
                            lo: 18,
                            hi: 18 + variant,
                        },
                    );
                } else if let Ok(i) = eq.query().dim_index("dcity") {
                    let cities = (0..variant)
                        .map(|c| Term::literal(format!("city{c}")))
                        .collect();
                    sigma.set(i, ValueSelector::OneOf(cities));
                }
                eq = ExtendedQuery::with_sigma(eq.query().clone(), sigma)
                    .expect("sigma arity matches");
            }
            session.register_query(eq).expect("workload cube registers");
            registered += 1;
        }
        variant += 1;
    }

    // Probe set: every probe classifier × a representative (measure, agg)
    // subset (two aggregates per measure keep the probe loop cheap while
    // still spanning several families), plus a diced variant of each probe
    // that has an age dimension.
    let mut probes = Vec::new();
    for classifier in E10_PROBES {
        for (_, renamed_measure, aggs) in &measures {
            for &agg in &aggs[..2] {
                let eq = session
                    .parse_query(classifier, renamed_measure, agg)
                    .expect("probe parses");
                if let Ok(i) = eq.query().dim_index("years") {
                    let mut sigma = Sigma::all(eq.query().n_dims());
                    sigma.set(i, ValueSelector::IntRange { lo: 20, hi: 40 });
                    probes.push(
                        ExtendedQuery::with_sigma(eq.query().clone(), sigma)
                            .expect("sigma arity matches"),
                    );
                }
                probes.push(eq);
            }
        }
    }
    CatalogFixture { session, probes }
}

/// Configuration of the E13 advisor experiment: two sessions at the same
/// byte budget replay the same Zipf-skewed warmup of distinct-but-derivable
/// query variants; one then runs [`OlapSession::advise`]; both are measured
/// on *fresh* (never-warmed) variants afterwards.
#[derive(Debug, Clone)]
pub struct AdvisorProtocolConfig {
    /// Approximate instance size in triples.
    pub triples: usize,
    /// Byte budget shared by both sessions.
    pub budget_bytes: usize,
    /// Distinct query shapes in the warmup pool.
    pub warmup_pool: usize,
    /// Zipf-sampled warmup queries drawn from that pool.
    pub warmup_len: usize,
    /// Fresh (not in the warmup pool) shapes measured afterwards.
    pub measured: usize,
    /// Zipf exponent of the warmup skew.
    pub zipf_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for AdvisorProtocolConfig {
    fn default() -> Self {
        AdvisorProtocolConfig {
            triples: 100_000,
            // Large enough for the family's unrestricted ancestors
            // (~1.2 MiB at this scale), small enough that the warmup pool
            // cannot stay fully resident — the advisor only pays off
            // under budget pressure.
            budget_bytes: 5 << 18,
            warmup_pool: 144,
            warmup_len: 640,
            measured: 24,
            zipf_s: 1.0,
            seed: 0xE13,
        }
    }
}

/// The outcome of one E13 protocol run.
pub struct AdvisorRun {
    /// Per-query end-to-end latency of the reactive session on the
    /// measured (fresh) phase, in nanoseconds.
    pub reactive_nanos: Vec<u64>,
    /// Same for the advised session.
    pub advised_nanos: Vec<u64>,
    /// What the advisor considered/selected/materialized.
    pub report: rdfcube_core::AdvisorReport,
    /// Reactive-session counter delta over the measured phase.
    pub reactive_counters: rdfcube_core::CatalogCounters,
    /// Advised-session counter delta over the measured phase.
    pub advised_counters: rdfcube_core::CatalogCounters,
    /// True iff every measured query produced cell-identical answers in
    /// both sessions.
    pub cells_identical: bool,
}

impl AdvisorRun {
    /// Median of a latency vector, in nanoseconds.
    pub fn median_nanos(v: &[u64]) -> u64 {
        let mut v = v.to_vec();
        v.sort_unstable();
        v[v.len() / 2]
    }

    /// Catalog hit rate out of a counter delta (1.0 when nothing ran).
    pub fn hit_rate(c: &rdfcube_core::CatalogCounters) -> f64 {
        let total = c.hits + c.misses;
        if total == 0 {
            1.0
        } else {
            c.hits as f64 / total as f64
        }
    }
}

/// Runs the E13 advisor protocol (see [`AdvisorProtocolConfig`]). Shared
/// by the `e13_advisor` bench, its smoke test, and the `report` binary so
/// all three measure the identical experiment.
pub fn advisor_protocol(cfg: &AdvisorProtocolConfig) -> AdvisorRun {
    use rdfcube_datagen::{variant_pool, zipf_sequence, DimDomain};
    use std::time::Instant;

    let world = BloggerConfig {
        multi_city_prob: 0.1,
        ..BloggerConfig::with_approx_triples(cfg.triples)
    };
    let mut instance = rdfcube_datagen::generate_instance(&world);
    let q = AnalyticalQuery::parse(
        rdfcube_datagen::EXAMPLE1_CLASSIFIER,
        rdfcube_datagen::EXAMPLE1_MEASURE,
        AggFunc::Count,
        instance.dict_mut(),
    )
    .expect("base query parses");
    let base = ExtendedQuery::from_query(q);
    let domains = vec![
        DimDomain::new(
            "dage",
            (18..18 + world.n_ages as i64).map(Term::integer).collect(),
        ),
        DimDomain::new(
            "dcity",
            (0..world.n_cities)
                .map(|i| Term::literal(format!("city{i}")))
                .collect(),
        ),
    ];
    let pool = variant_pool(&base, &domains, cfg.warmup_pool).expect("variant pool builds");
    let warmup = zipf_sequence(cfg.warmup_pool, cfg.warmup_len, cfg.zipf_s, cfg.seed);

    // Measured phase: single-value dices over a value region disjoint
    // from the warmup's, alternating dimensions, every value distinct —
    // the dominant dashboard pattern (drill to one member, look, drill to
    // the next). None is derivable from the warmup pool or from another
    // measured variant — only from an unrestricted ancestor, so the phase
    // isolates exactly what the advisor materialized.
    let warmup_value_ceiling = (cfg.warmup_pool - 1) / (3 * domains.len()) + 2;
    let fresh: Vec<ExtendedQuery> = (0..cfg.measured)
        .map(|k| {
            let d = &domains[k % domains.len()];
            let value = d.values[(warmup_value_ceiling + k) % d.values.len()].clone();
            let dice = OlapOp::Dice {
                constraints: vec![(d.dim.clone(), ValueSelector::one(value))],
            };
            rdfcube_core::apply(&base, &dice)
        })
        .collect::<Result<_, _>>()
        .expect("fresh variants build");

    // Both sessions see the identical instance (identical dictionary
    // encodings) and the identical warmup traffic at the same budget.
    let mut reactive = OlapSession::with_budget(instance.clone(), cfg.budget_bytes);
    let mut advised = OlapSession::with_budget(instance, cfg.budget_bytes);
    for &i in &warmup {
        reactive
            .answer_query(pool[i].clone())
            .expect("warmup answers");
        advised
            .answer_query(pool[i].clone())
            .expect("warmup answers");
    }

    let report = advised.advise().expect("advise runs");

    let r0 = reactive.catalog().counters();
    let a0 = advised.catalog().counters();
    let mut reactive_nanos = Vec::with_capacity(cfg.measured);
    let mut advised_nanos = Vec::with_capacity(cfg.measured);
    let mut cells_identical = true;
    for eq in &fresh {
        let t = Instant::now();
        let (rh, _) = reactive.answer_query(eq.clone()).expect("measured answers");
        reactive_nanos.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let (ah, _) = advised.answer_query(eq.clone()).expect("measured answers");
        advised_nanos.push(t.elapsed().as_nanos() as u64);
        cells_identical &= advised.answer(ah).same_cells(reactive.answer(rh));
    }
    let delta = |after: rdfcube_core::CatalogCounters, before: rdfcube_core::CatalogCounters| {
        rdfcube_core::CatalogCounters {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            rehydrations: after.rehydrations - before.rehydrations,
            refreshes: after.refreshes - before.refreshes,
            incremental_refreshes: after.incremental_refreshes - before.incremental_refreshes,
        }
    };
    AdvisorRun {
        reactive_nanos,
        advised_nanos,
        report,
        reactive_counters: delta(reactive.catalog().counters(), r0),
        advised_counters: delta(advised.catalog().counters(), a0),
        cells_identical,
    }
}

/// The SLICE used across E1: bind `dage` to one mid-domain value.
pub fn e1_slice_op() -> OlapOp {
    OlapOp::Slice {
        dim: "dage".into(),
        value: Term::integer(30),
    }
}

/// The DICE of E2 at a given selectivity (% of the age domain admitted).
pub fn e2_dice_op(selectivity_pct: usize) -> OlapOp {
    let width = (AGE_DOMAIN * selectivity_pct).div_ceil(100).max(1) as i64;
    OlapOp::Dice {
        constraints: vec![(
            "dage".into(),
            ValueSelector::IntRange {
                lo: 18,
                hi: 18 + width - 1,
            },
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_core::{apply, rewrite};

    #[test]
    fn fixtures_build_and_strategies_agree_at_small_scale() {
        let f = blogger_fixture(5_000, 0.2);
        assert!(!f.ans.is_empty());
        // E1's actual comparison, in miniature.
        let diced = apply(&f.eq, &e1_slice_op()).unwrap();
        let fast = rewrite::dice_from_ans(&f.ans, diced.sigma(), f.instance.dict());
        let slow = rewrite::from_scratch(&diced, &f.instance).unwrap();
        assert!(fast.same_cells(&slow));
    }

    #[test]
    fn dice_selectivity_widths_are_monotone() {
        let f = blogger_fixture(5_000, 0.0);
        let mut last = 0;
        for pct in [1, 10, 50, 100] {
            let diced = apply(&f.eq, &e2_dice_op(pct)).unwrap();
            let cube = rewrite::dice_from_ans(&f.ans, diced.sigma(), f.instance.dict());
            assert!(cube.len() >= last, "selectivity {pct}% shrank the cube");
            last = cube.len();
        }
        assert_eq!(last, f.ans.len(), "100% dice must keep every cell");
    }

    #[test]
    fn video_fixture_supports_drill_in() {
        let f = video_fixture(500);
        let d3 = f.eq.query().classifier().vars().id("d3").unwrap();
        let (cube, _) =
            rewrite::drill_in_from_pres(f.eq.query(), &f.pres, d3, &f.instance).unwrap();
        let drilled = apply(&f.eq, &OlapOp::DrillIn { var: "d3".into() }).unwrap();
        assert!(cube.same_cells(&rewrite::from_scratch(&drilled, &f.instance).unwrap()));
    }

    #[test]
    fn catalog_fixture_builds_and_probes_hit() {
        let mut f = catalog_fixture(4_000, 30);
        assert_eq!(f.session.len(), 30);
        assert!(!f.probes.is_empty());
        // Most probes must be servable from the catalog; every planned
        // answer must match from-scratch evaluation.
        let mut hits = 0usize;
        for p in &f.probes {
            if f.session.explain_query(p).catalog_hit {
                hits += 1;
            }
        }
        assert!(
            hits * 2 > f.probes.len(),
            "majority of probes should hit: {hits}/{}",
            f.probes.len()
        );
        // Spot-check soundness through answer_query on a few probes.
        for p in f.probes.iter().take(6).cloned().collect::<Vec<_>>() {
            let (h, _) = f.session.answer_query(p).unwrap();
            let scratch = f
                .session
                .cube(h)
                .query()
                .answer(f.session.instance())
                .unwrap();
            assert!(f.session.answer(h).same_cells(&scratch));
        }
    }

    #[test]
    fn advisor_protocol_runs_in_miniature() {
        let cfg = AdvisorProtocolConfig {
            triples: 4_000,
            budget_bytes: 64 << 10,
            warmup_pool: 12,
            warmup_len: 40,
            measured: 6,
            ..Default::default()
        };
        let run = advisor_protocol(&cfg);
        assert!(run.cells_identical, "advised answers must match reactive");
        assert_eq!(run.reactive_nanos.len(), 6);
        assert_eq!(run.advised_nanos.len(), 6);
        assert!(run.report.log_queries >= 40, "warmup was logged");
        assert!(run.report.shapes >= 1);
    }

    #[test]
    fn three_dimensional_fixture_builds() {
        let cfg = BloggerConfig {
            n_bloggers: 300,
            ..Default::default()
        };
        let f = blogger_fixture_with(cfg, CLASSIFIER_3D, AggFunc::Count);
        assert_eq!(f.pres.n_dims(), 3);
        let (cube, _) = rewrite::drill_out_from_pres(&f.pres, &[2], f.instance.dict()).unwrap();
        let drilled = apply(
            &f.eq,
            &OlapOp::DrillOut {
                dims: vec!["dsite".into()],
            },
        )
        .unwrap();
        assert!(cube.same_cells(&rewrite::from_scratch(&drilled, &f.instance).unwrap()));
    }
}
