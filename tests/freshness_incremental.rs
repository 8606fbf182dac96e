//! Incremental refresh ≡ from-scratch evaluation.
//!
//! `tests/freshness.rs` pins that a stale cube is never served; this suite
//! pins *how* it is brought up to date. A resident cube the instance grew
//! past is refreshed from the inserted triples alone — the facts they touch
//! are re-derived, every other `pres(Q)` row is carried over — and that must
//! be indistinguishable from recomputing on the grown instance: the same
//! cells, the same `pres(Q)` up to a renaming of keys, rows still strictly
//! ascending on `(d₁…dₙ, root, key)`.
//!
//! Random insert schedules over a blogger world mix every way a triple can
//! bear on a cube — a new fact; a new dimension value for an old fact; new
//! measure tuples one and two hops from an old fact; duplicates; triples no
//! query mentions; a batch large enough to be merged into the store's
//! sorted runs (after which cubes are recomputed, the log being gone) —
//! and interleave them with the three ways a cube gets refreshed:
//! re-asking its query, transforming it, touching its handle. Both planes,
//! shard counts 1 and 7, Σ-diced and undiced cubes, five aggregates with
//! different distributivity.

mod common;

use common::key_classes;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use rdfcube::core::{rewrite, CubeHandle};
use rdfcube::datagen::{generate_instance, BloggerConfig};
use rdfcube::prelude::*;
use rdfcube::rdf::vocab::RDF_TYPE;
use rdfcube::TriplePattern;

const CLASSIFIER: &str =
    "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity";
const SITES: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v";
const WORDS: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p hasWordCount ?v";

/// One cube per aggregate: distributive, algebraic and holistic ⊕ alike.
const CUBES: [(&str, AggFunc); 5] = [
    (SITES, AggFunc::Count),
    (WORDS, AggFunc::Sum),
    (WORDS, AggFunc::Avg),
    (SITES, AggFunc::CountDistinct),
    (WORDS, AggFunc::Min),
];

/// A batch this size crosses the delta threshold of a world this small.
const BULK_BLOGGERS: usize = 100;

fn arb_config() -> impl Strategy<Value = BloggerConfig> {
    (12usize..40, 0.0f64..0.5, any::<u64>()).prop_map(|(n, multi_city_prob, seed)| BloggerConfig {
        n_bloggers: n,
        multi_city_prob,
        n_cities: 5,
        n_ages: 8,
        n_sites: 6,
        max_posts: 3,
        seed,
        ..Default::default()
    })
}

/// `(kind, payload)` pairs: what to insert, then how to read.
fn arb_schedule() -> impl Strategy<Value = Vec<((u8, u64), u8)>> {
    proptest::collection::vec(((0u8..8, any::<u64>()), 0u8..3), 3..7)
}

fn iri(s: String) -> Term {
    Term::iri(s)
}

/// A brand-new blogger with an age, a city and two posts.
fn new_blogger(tag: &str, b: usize, pick: u64) -> Vec<(Term, Term, Term)> {
    let user = iri(format!("{tag}user{b}"));
    let mut out = vec![
        (user.clone(), iri(RDF_TYPE.into()), iri("Blogger".into())),
        (
            user.clone(),
            iri("hasAge".into()),
            Term::integer(18 + (pick % 8) as i64),
        ),
        (
            user.clone(),
            iri("livesIn".into()),
            Term::literal(format!("city{}", (pick >> 8) % 5)),
        ),
    ];
    for p in 0..2 {
        let post = iri(format!("{tag}post{b}_{p}"));
        out.push((user.clone(), iri("wrotePost".into()), post.clone()));
        let site = iri(format!("site{}", (pick >> (16 + p)) % 6));
        out.push((post.clone(), iri("postedOn".into()), site));
        let words = Term::integer(50 + ((pick >> 24) % 500) as i64 + p as i64);
        out.push((post, iri("hasWordCount".into()), words));
    }
    out
}

/// The triples of one schedule step. `step` makes fresh names unique;
/// `users`/`posts` are the sizes of the world's `user{i}`/`post{i}` ranges.
fn batch(kind: u8, pick: u64, step: usize, users: usize, posts: usize) -> Vec<(Term, Term, Term)> {
    let user = iri(format!("user{}", pick as usize % users));
    let post = iri(format!("post{}", (pick >> 20) as usize % posts));
    match kind {
        // New roots.
        0 => (0..1 + (pick % 3) as usize)
            .flat_map(|b| new_blogger(&format!("s{step}"), b, pick.rotate_left(b as u32 * 7)))
            .collect(),
        // A new dimension value for an old root.
        1 => vec![(
            user,
            iri("livesIn".into()),
            Term::literal(format!("city{}", (pick >> 8) % 5)),
        )],
        // New measure tuples two hops from an old root.
        2 => vec![(
            post,
            iri("postedOn".into()),
            iri(format!("site{}", (pick >> 8) % 6)),
        )],
        3 => vec![(
            post,
            iri("hasWordCount".into()),
            Term::integer(7 + (pick >> 8) as i64 % 90),
        )],
        // A new post of an old root: the same tuples, reached through a new
        // first hop.
        4 => {
            let fresh = iri(format!("s{step}post"));
            vec![
                (user, iri("wrotePost".into()), fresh.clone()),
                (fresh.clone(), iri("postedOn".into()), iri("site1".into())),
                (fresh, iri("hasWordCount".into()), Term::integer(123)),
            ]
        }
        // Triples no query mentions, and a re-typing that is a duplicate.
        5 => vec![
            (
                user.clone(),
                iri("acquaintedWith".into()),
                iri("user0".into()),
            ),
            (post, iri("taggedAs".into()), Term::literal("misc")),
            (user, iri(RDF_TYPE.into()), iri("Blogger".into())),
        ],
        // A second age (a fact in two cells along the diced dimension).
        6 => vec![(
            user,
            iri("hasAge".into()),
            Term::integer(18 + (pick >> 8) as i64 % 8),
        )],
        // The bulk arrival: merged into the sorted runs, not logged.
        _ => (0..BULK_BLOGGERS)
            .flat_map(|b| new_blogger(&format!("bulk{step}"), b, pick.rotate_left(b as u32)))
            .collect(),
    }
}

/// Either plane behind one face.
enum Plane {
    Mutation(OlapSession),
    Shared(SharedSession),
}

impl Plane {
    fn instance(&self) -> &Graph {
        match self {
            Plane::Mutation(s) => s.instance(),
            Plane::Shared(s) => s.instance(),
        }
    }

    fn insert(self, triples: Vec<(Term, Term, Term)>) -> Self {
        match self {
            Plane::Mutation(mut s) => {
                s.insert_triples(triples);
                Plane::Mutation(s)
            }
            Plane::Shared(s) => {
                let mut s = s.into_session();
                s.insert_triples(triples);
                Plane::Shared(s.into_shared())
            }
        }
    }

    fn answer_query(&mut self, eq: ExtendedQuery) -> CubeHandle {
        match self {
            Plane::Mutation(s) => s.answer_query(eq).unwrap().0,
            Plane::Shared(s) => s.answer_query(eq).unwrap().0,
        }
    }

    fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> CubeHandle {
        match self {
            Plane::Mutation(s) => s.transform(h, op).unwrap().0,
            Plane::Shared(s) => s.transform(h, op).unwrap().0,
        }
    }

    /// The cube behind `h`, brought up to date first (`touch` on the
    /// mutation plane, `snapshot` on the shared one).
    fn fresh(&mut self, h: CubeHandle) -> (ExtendedQuery, Cube, PartialResult) {
        match self {
            Plane::Mutation(s) => {
                s.touch(h).unwrap();
                let cube = s.cube(h);
                (
                    cube.query().clone(),
                    cube.answer().clone(),
                    cube.pres().clone(),
                )
            }
            Plane::Shared(s) => {
                let snap = s.snapshot(h).unwrap();
                (
                    snap.query().clone(),
                    snap.answer().clone(),
                    snap.pres().clone(),
                )
            }
        }
    }

    fn incremental_refreshes(&self) -> u64 {
        match self {
            Plane::Mutation(s) => s.catalog().counters().incremental_refreshes,
            Plane::Shared(s) => s.counters().incremental_refreshes,
        }
    }
}

/// The cube behind `h`, once fresh, is what from-scratch evaluation on the
/// instance as it stands now gives.
fn assert_equals_scratch(plane: &mut Plane, h: CubeHandle, ctx: &str) {
    let (eq, ans, pres) = plane.fresh(h);
    let scratch = rewrite::from_scratch(&eq, plane.instance()).unwrap();
    assert!(
        ans.same_cells(&scratch),
        "{ctx}: cells differ from from-scratch"
    );
    let order: Vec<_> = pres.rows().map(|r| (r.dims, r.root, r.key)).collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "{ctx}: pres rows not strictly ascending on (dims, root, key)"
    );
    let recomputed = PartialResult::compute(&eq, plane.instance()).unwrap();
    assert_eq!(pres.len(), recomputed.len(), "{ctx}: pres row count");
    assert!(
        key_classes(&pres) == key_classes(&recomputed),
        "{ctx}: pres differs from from-scratch beyond a renaming of keys"
    );
    let largest = pres.rows().map(|r| r.key).max().unwrap_or(0);
    assert_eq!(
        largest as usize,
        key_classes(&pres).len(),
        "{ctx}: pres keys are not exactly 1..=n"
    );
}

/// One run of a schedule on one plane at one shard count.
fn run(cfg: &BloggerConfig, diced: u8, schedule: &[((u8, u64), u8)], shards: usize, shared: bool) {
    let instance = generate_instance(cfg);
    let wrote = instance.dict().iri_id("wrotePost").unwrap();
    let posts = instance.count_matching(TriplePattern::new(None, Some(wrote), None));
    let mut session = OlapSession::with_shards(instance, shards);
    let queries: Vec<ExtendedQuery> = CUBES
        .iter()
        .enumerate()
        .map(|(i, &(measure, agg))| {
            let eq = session.parse_query(CLASSIFIER, measure, agg).unwrap();
            if diced >> i & 1 == 0 {
                return eq;
            }
            let mut sigma = Sigma::all(2);
            sigma.set(0, ValueSelector::IntRange { lo: 19, hi: 23 });
            ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap()
        })
        .collect();
    let handles: Vec<CubeHandle> = queries
        .iter()
        .map(|eq| session.register_query(eq.clone()).unwrap())
        .collect();
    let mut plane = if shared {
        Plane::Shared(session.into_shared())
    } else {
        Plane::Mutation(session)
    };

    // Every schedule opens with a trickle that every cube then refreshes
    // from, so no run passes by recomputing alone.
    let opening = ((0u8, 0x5eed_u64), 0u8);
    let mut bulked = false;
    for (step, &((kind, pick), read)) in std::iter::once(&opening).chain(schedule).enumerate() {
        // At most one bulk arrival per run (it dominates the run's time).
        let kind = if kind == 7 && std::mem::replace(&mut bulked, true) {
            0
        } else {
            kind
        };
        plane = plane.insert(batch(kind, pick, step, cfg.n_bloggers, posts));
        let ctx = |i: usize| {
            format!("{shards} shard(s), shared={shared}, step {step} (insert {kind}, read {read}), cube {i}")
        };
        // Which cubes a step reads varies, so watermarks drift apart and a
        // refresh covers one step's triples or several steps' at once.
        let read_now = |i: usize| step == 0 || (pick >> (32 + i)) & 1 == 1;
        for (i, &h) in handles.iter().enumerate().filter(|&(i, _)| read_now(i)) {
            match read {
                0 => assert_eq!(plane.answer_query(queries[i].clone()), h, "{}", ctx(i)),
                1 => {
                    let op = OlapOp::DrillOut {
                        dims: vec!["dcity".into()],
                    };
                    let derived = plane.transform(h, &op);
                    assert_equals_scratch(&mut plane, derived, &format!("{} drilled out", ctx(i)));
                }
                _ => {}
            }
            assert_equals_scratch(&mut plane, h, &ctx(i));
        }
    }
    assert!(
        plane.incremental_refreshes() >= handles.len() as u64,
        "the opening trickle must have been refreshed incrementally"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn incremental_refresh_equals_from_scratch(
        cfg in arb_config(),
        diced in 0u8..32,
        schedule in arb_schedule(),
    ) {
        for shards in [1usize, 7] {
            for shared in [false, true] {
                run(&cfg, diced, &schedule, shards, shared);
            }
        }
    }
}

/// The batch path of the mutation plane: a batch that crosses the store's
/// delta threshold is merged into the sorted runs as one batch — nothing of
/// it is left pending — and a small one rides the delta.
#[test]
fn threshold_crossing_batch_leaves_no_delta() {
    let cfg = BloggerConfig {
        n_bloggers: 30,
        ..Default::default()
    };
    let mut s = OlapSession::new(generate_instance(&cfg));
    let before = s.instance().len();
    let small = new_blogger("t", 0, 1);
    assert_eq!(s.insert_triples(small.clone()), small.len());
    assert_eq!(s.instance().pending_delta_len(), small.len());

    let bulk: Vec<_> = (0..BULK_BLOGGERS * 2)
        .flat_map(|b| new_blogger("bulk", b, b as u64))
        .collect();
    let expect = bulk.len();
    // The batch repeats the small one too: "newly added" counts neither.
    let added = s.insert_triples(bulk.into_iter().chain(small));
    assert_eq!(added, expect);
    assert_eq!(s.instance().len(), before + 9 + expect);
    assert_eq!(
        s.instance().pending_delta_len(),
        0,
        "the batch's tail was left pending"
    );
}

/// EXPLAIN ANALYZE names the refresh and its mode, and the counters tell
/// the two modes apart on either plane.
#[test]
fn refresh_mode_is_observable() {
    let cfg = BloggerConfig {
        n_bloggers: 30,
        ..Default::default()
    };
    let mut s = OlapSession::new(generate_instance(&cfg));
    let eq = s.parse_query(CLASSIFIER, SITES, AggFunc::Count).unwrap();
    s.answer_query(eq.clone()).unwrap();

    s.insert_triples(new_blogger("t", 0, 1));
    let (_, explained, trace) = s.answer_traced(eq.clone()).unwrap();
    let refresh = trace.find("refresh").expect("the refresh is a span");
    assert_eq!(refresh.detail, "incremental");
    assert_eq!(refresh.attr("new_triples"), Some(9));
    assert_eq!(refresh.attr("touched_roots"), Some(1));
    assert_eq!(refresh.rows_out, refresh.rows_in + 2);
    let shown = rdfcube::core::explain_analyze(&explained, &trace);
    assert!(shown.contains("refresh: incremental"), "{shown}");

    // A bulk arrival is not itemized: the cube is recomputed.
    let bulk: Vec<_> = (0..BULK_BLOGGERS * 2)
        .flat_map(|b| new_blogger("bulk", b, b as u64))
        .collect();
    s.insert_triples(bulk);
    let shared = s.into_shared();
    let (_, _, trace) = shared.answer_traced(eq).unwrap();
    assert_eq!(trace.find("refresh").unwrap().detail, "full");
    let counters = shared.counters();
    assert_eq!((counters.refreshes, counters.incremental_refreshes), (2, 1));
}
