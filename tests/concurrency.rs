//! Concurrent-soundness suite for the shared query plane.
//!
//! N threads fire randomized blogger-world queries (and OLAP transforms)
//! at one [`SharedSession`] while a serial [`OlapSession`] over an
//! identically-seeded world answers the same queries one by one. Every
//! concurrent answer must be cell-identical to the serial one — under an
//! unbounded catalog and under an eviction-inducing memory budget.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rdfcube::prelude::*;
use rdfcube::set_eval_threads;

const THREADS: usize = 8;

const CLASSIFIER: &str =
    "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity";
const BODIES: [&str; 4] = [
    CLASSIFIER,
    "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage",
    "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x livesIn ?dcity",
    "c(?x, ?dage, ?dsite) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
     ?x wrotePost ?p, ?p postedOn ?dsite",
];
const SITE_MEASURE: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v";
const WORDS_MEASURE: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p hasWordCount ?v";

fn blogger_session(triples: usize, budget: Option<usize>) -> OlapSession {
    let cfg = BloggerConfig::with_approx_triples(triples);
    let instance = rdfcube::datagen::generate_instance(&cfg);
    match budget {
        Some(bytes) => OlapSession::with_budget(instance, bytes),
        None => OlapSession::new(instance),
    }
}

/// A deterministic pool of distinct queries: every body × measure × agg
/// combination plus seeded Σ-diced variants of the age dimension.
fn query_pool(s: &mut OlapSession, seed: u64) -> Vec<ExtendedQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::new();
    for body in BODIES {
        for (measure, agg) in [
            (SITE_MEASURE, AggFunc::Count),
            (WORDS_MEASURE, AggFunc::Sum),
            (WORDS_MEASURE, AggFunc::Max),
        ] {
            let eq = s.parse_query(body, measure, agg).unwrap();
            if let Ok(i) = eq.query().dim_index("dage") {
                let lo = 18 + rng.gen_range(0..20i64);
                let hi = lo + rng.gen_range(1..25i64);
                let mut sigma = Sigma::all(eq.query().n_dims());
                sigma.set(i, ValueSelector::IntRange { lo, hi });
                pool.push(ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap());
            }
            pool.push(eq);
        }
    }
    pool
}

/// Serial ground truth: the same pool answered one-by-one on an
/// identically-seeded world.
fn serial_answers(triples: usize, budget: Option<usize>, seed: u64) -> Vec<Cube> {
    let mut s = blogger_session(triples, budget);
    let pool = query_pool(&mut s, seed);
    pool.into_iter()
        .map(|eq| {
            let (h, _) = s.answer_query(eq).unwrap();
            s.answer(h).clone()
        })
        .collect()
}

/// Hammers `shared` from `THREADS` threads, each answering `iterations`
/// randomly-chosen pool queries in its own order, asserting every answer
/// against the serial cells.
fn hammer(shared: &SharedSession, pool: &[ExtendedQuery], expected: &[Cube], iterations: usize) {
    std::thread::scope(|scope| {
        for k in 0..THREADS {
            let worker = move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF + k as u64);
                for _ in 0..iterations {
                    let i = rng.gen_range(0..pool.len());
                    let (h, _) = shared.answer_query(pool[i].clone()).expect("shared answer");
                    let snap = shared.snapshot(h).expect("snapshot");
                    assert!(
                        snap.answer().same_cells(&expected[i]),
                        "thread {k} observed cells diverging from the serial session \
                         for pool query #{i}"
                    );
                }
            };
            scope.spawn(worker);
        }
    });
}

/// 8 threads × random queries against one shared session must be
/// cell-identical to a serial session, and identical concurrent queries
/// must converge on single catalog entries.
#[test]
fn concurrent_answers_match_serial() {
    let seed = 0xA11CE;
    let expected = serial_answers(6_000, None, seed);
    let mut s = blogger_session(6_000, None);
    let pool = query_pool(&mut s, seed);
    let shared = s.into_shared();

    hammer(&shared, &pool, &expected, 40);

    // Dedup under race: every pool query was answered by several threads,
    // yet each distinct query materialized at most one catalog entry.
    assert!(
        shared.len() <= pool.len(),
        "racing duplicates materialized {} cubes for {} distinct queries",
        shared.len(),
        pool.len()
    );
    // Racing threads may each record a miss for the same not-yet-
    // materialized query, so misses can exceed the pool size — but the
    // steady state must be hit-dominated.
    let counters = shared.counters();
    assert_eq!(counters.hits + counters.misses, (THREADS * 40) as u64);
    assert!(
        counters.hits >= (THREADS * 40 * 3 / 4) as u64,
        "most traffic should be catalog hits, got {counters:?}"
    );
}

/// Same soundness bar while an eviction-inducing budget keeps recomputing
/// payloads underneath the racing readers.
#[test]
fn concurrent_answers_match_serial_under_eviction() {
    let seed = 0xE71C7;
    let budget = Some(24 * 1024);
    let expected = serial_answers(4_000, budget, seed);
    let mut s = blogger_session(4_000, budget);
    let pool = query_pool(&mut s, seed);
    let shared = s.into_shared();

    hammer(&shared, &pool, &expected, 25);

    let counters = shared.counters();
    assert!(
        counters.evictions > 0,
        "the tight budget must actually evict: {counters:?}"
    );
    assert!(
        counters.rehydrations > 0,
        "racing readers must have rehydrated evicted payloads: {counters:?}"
    );
    // The catalog keeps the newest result resident even when it alone
    // exceeds the budget (`CubeCatalog::with_budget`), and this pool holds
    // cubes of four times these 24 KiB.
    let (resident, budget) = (shared.resident_bytes(), shared.budget());
    let session = shared.into_session();
    assert!(
        budget.is_none_or(|b| resident <= b) || session.catalog().resident_len() == 1,
        "budget violated after the run: {resident} bytes resident"
    );
}

/// A subject-hash sharded instance must answer cell-identically to the
/// flat serial session — under 8 racing readers with the per-shard
/// parallel BGP pipeline switched on, exercising the shard-routed and
/// shard-merged evaluation paths end to end.
#[test]
fn sharded_session_matches_flat_serial() {
    let seed = 0x5AAD;
    let expected = serial_answers(6_000, None, seed);

    let cfg = BloggerConfig::with_approx_triples(6_000);
    let instance = rdfcube::datagen::generate_instance(&cfg);
    let mut s = OlapSession::with_shards(instance, 8);
    let pool = query_pool(&mut s, seed);
    let shared = s.into_shared();
    assert_eq!(shared.shard_count(), 8);

    set_eval_threads(4);
    hammer(&shared, &pool, &expected, 25);
    set_eval_threads(1);
}

/// Concurrent OLAP transforms (slice/dice/drill-out) on a shared base
/// cube agree with the serial session, with the parallel BGP pipeline
/// switched on for good measure.
#[test]
fn concurrent_transforms_match_serial() {
    let ops = [
        OlapOp::Slice {
            dim: "dage".into(),
            value: Term::integer(30),
        },
        OlapOp::Dice {
            constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 35 })],
        },
        OlapOp::DrillOut {
            dims: vec!["dage".into()],
        },
        OlapOp::DrillOut {
            dims: vec!["dcity".into()],
        },
    ];

    // Serial ground truth.
    let mut serial = blogger_session(6_000, None);
    let base = serial
        .register(CLASSIFIER, SITE_MEASURE, AggFunc::Count)
        .unwrap();
    let expected: Vec<Cube> = ops
        .iter()
        .map(|op| {
            let (h, _) = serial.transform(base, op).unwrap();
            serial.answer(h).clone()
        })
        .collect();

    let mut s = blogger_session(6_000, None);
    let base = s
        .register(CLASSIFIER, SITE_MEASURE, AggFunc::Count)
        .unwrap();
    let shared = s.into_shared();

    set_eval_threads(4);
    std::thread::scope(|scope| {
        for k in 0..THREADS {
            let ops = &ops;
            let expected = &expected;
            let shared = &shared;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xD1CE + k as u64);
                for _ in 0..20 {
                    let i = rng.gen_range(0..ops.len());
                    let (h, _) = shared.transform(base, &ops[i]).expect("shared transform");
                    let snap = shared.snapshot(h).expect("snapshot");
                    assert!(
                        snap.answer().same_cells(&expected[i]),
                        "thread {k}: transform #{i} diverged from the serial session"
                    );
                }
            });
        }
    });
    set_eval_threads(1);
}
