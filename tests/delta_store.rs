//! The store's pending delta, seen through the process-global counters.
//!
//! A shard keeps its unmerged inserts as sorted runs, one ordered set per
//! index permutation, so a read ranges over its matches instead of sweeping
//! the delta — and every fold of a delta into the CSR runs, automatic or
//! explicit, is one counted merge. Both facts are only visible in
//! `rdfcube_obs::sink()`, which every test of a process shares: this binary
//! holds nothing else, and its tests take turns.

use rdfcube::obs::global_snapshot;
use rdfcube::{Graph, Term, TermId, Triple, TriplePattern};
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    global_snapshot().counter(name)
}

/// A compacted store of `base` triples `n{i} p n{i+1}` with `pending` more
/// in the delta, spread over the subjects `hub0`…`hub9` (ten predicates
/// each, so a hub has `pending / 10` triples and a `(hub, q)` pair
/// `pending / 100`).
fn store_with_delta(base: usize, pending: usize) -> Graph {
    let mut g = Graph::new();
    let p = g.encode(&Term::iri("p"));
    let nodes: Vec<TermId> = (0..=base)
        .map(|i| g.encode(&Term::iri(format!("n{i}"))))
        .collect();
    g.bulk_insert_ids((0..base).map(|i| Triple::new(nodes[i], p, nodes[i + 1])));
    assert_eq!(g.pending_delta_len(), 0);
    for i in 0..pending {
        let inserted = g.insert(
            &Term::iri(format!("hub{}", i % 10)),
            &Term::iri(format!("q{}", i / 10 % 10)),
            &Term::integer(i as i64),
        );
        assert!(inserted);
    }
    assert_eq!(g.pending_delta_len(), pending, "below the merge threshold");
    g
}

#[test]
fn bound_probes_visit_only_their_delta_matches() {
    let _turn = TURN.lock().unwrap();
    let g = store_with_delta(60_000, 10_000);
    let id = |iri: &str| g.dict().iri_id(iri).unwrap();
    let (hub, q, lit) = (
        id("hub3"),
        id("q7"),
        g.dict().id(&Term::integer(73)).unwrap(),
    );
    let visited = |probe: &dyn Fn() -> usize| {
        let before = counter("rdfcube_graph_delta_rows_read_total");
        let matched = probe();
        (
            matched,
            counter("rdfcube_graph_delta_rows_read_total") - before,
        )
    };
    // Every bound shape: enumeration and counting alike read their run of
    // the 10k-triple delta, nothing more.
    for (pattern, matches) in [
        (TriplePattern::new(Some(hub), None, None), 1_000),
        (TriplePattern::new(Some(hub), Some(q), None), 100),
        (TriplePattern::new(Some(hub), Some(q), Some(lit)), 1),
        (TriplePattern::new(Some(hub), None, Some(lit)), 1),
        (TriplePattern::new(None, Some(q), Some(lit)), 1),
        (TriplePattern::new(None, None, Some(lit)), 1),
        (TriplePattern::new(None, Some(q), None), 1_000),
        // A CSR-only subject costs the delta nothing at all.
        (TriplePattern::new(Some(id("n17")), None, None), 0),
    ] {
        let (matched, rows) = visited(&|| g.matching(pattern).len());
        let in_delta = matched - usize::from(matches == 0);
        assert_eq!((in_delta, rows), (matches, matches as u64), "{pattern:?}");
        let (counted, rows) = visited(&|| g.count_matching(pattern));
        assert_eq!(
            (counted, rows),
            (matched, matches as u64),
            "count {pattern:?}"
        );
    }
    let (objects, rows) = visited(&|| g.objects(hub, q).count());
    assert_eq!((objects, rows), (100, 100));
    // Once compacted, reads leave the counter alone.
    let mut merged = g.clone();
    merged.compact();
    let (all, rows) = visited(&|| {
        merged
            .matching(TriplePattern::new(Some(hub), None, None))
            .len()
    });
    assert_eq!((all, rows), (1_000, 0));
}

#[test]
fn every_threshold_crossing_is_one_counted_merge() {
    let _turn = TURN.lock().unwrap();
    // An empty store merges every 1024 single inserts until a quarter of
    // it outgrows that floor.
    let merges = || counter("rdfcube_graph_delta_merges_total");
    let rows = || counter("rdfcube_graph_delta_merge_rows_total");
    let (merges_before, rows_before) = (merges(), rows());
    let mut g = Graph::new();
    let p = g.encode(&Term::iri("p"));
    let crossings = 4;
    for i in 0..crossings * 1024 {
        let s = g.encode(&Term::iri(format!("s{i}")));
        g.insert_ids(s, p, s);
        assert_eq!(
            merges() - merges_before,
            (i as u64 + 1) / 1024,
            "after {} inserts",
            i + 1
        );
    }
    assert_eq!(g.pending_delta_len(), 0);
    assert_eq!(rows() - rows_before, crossings as u64 * 1024);
    // An explicit fold counts the same way, and only if it folds anything.
    g.insert_ids(p, p, p);
    g.compact();
    g.compact();
    assert_eq!(merges() - merges_before, crossings as u64 + 1);
}

#[test]
fn the_insertion_log_itemizes_what_the_delta_path_added() {
    let _turn = TURN.lock().unwrap(); // it merges, which the test above counts
    let mut g = store_with_delta(8_000, 0);
    let mark = g.len();
    assert_eq!(g.inserted_since(mark), Some(&[][..]));
    assert_eq!(
        g.inserted_since(mark + 1),
        None,
        "not a count this graph has had"
    );
    let p = g.dict().iri_id("p").unwrap();
    let fresh: Vec<TermId> = (0..3)
        .map(|i| g.encode(&Term::iri(format!("fresh{i}"))))
        .collect();
    let known = g.matching(TriplePattern::new(None, Some(p), None))[0];
    // Single inserts and a small batch are logged in arrival order, new
    // triples only; a merge of the delta (which adds nothing) keeps the log.
    assert!(g.insert_ids(fresh[0], p, fresh[1]));
    assert!(!g.insert_triple(known));
    let small = [
        known,
        Triple::new(fresh[1], p, fresh[2]),
        Triple::new(fresh[0], p, fresh[1]),
    ];
    assert_eq!(g.bulk_insert_ids(small), 1);
    g.compact();
    let logged = [
        Triple::new(fresh[0], p, fresh[1]),
        Triple::new(fresh[1], p, fresh[2]),
    ];
    assert_eq!(g.inserted_since(mark), Some(&logged[..]));
    assert_eq!(g.inserted_since(mark + 1), Some(&logged[1..]));
    assert_eq!(g.clone().inserted_since(mark), Some(&logged[..]));
    // A bulk merge adds triples it does not itemize: the log restarts.
    let mid = g.len();
    let big: Vec<Triple> = (0..4_000)
        .map(|i| {
            let s = g.encode(&Term::iri(format!("big{i}")));
            Triple::new(s, p, s)
        })
        .collect();
    assert_eq!(g.bulk_insert_ids(big), 4_000);
    assert_eq!(g.pending_delta_len(), 0);
    assert_eq!(
        (g.inserted_since(mark), g.inserted_since(mid)),
        (None, None)
    );
    assert_eq!(g.inserted_since(g.len()), Some(&[][..]));
    // A trickle is itemized across the delta's automatic merges (one is due
    // after a quarter of the store, 3,000 triples) but not without bound:
    // the log is dropped once it outgrows the delta threshold itself.
    let mark = g.len();
    let mut reach = Vec::new();
    for i in 0..6_000 {
        let s = g.encode(&Term::iri(format!("drip{i}")));
        assert!(g.insert_ids(s, p, s));
        reach.push(g.inserted_since(mark).map(<[Triple]>::len));
    }
    assert_eq!(reach[3_499], Some(3_500));
    assert!(
        g.pending_delta_len() < 6_000,
        "the delta did merge on the way"
    );
    let dropped_at = reach
        .iter()
        .position(Option::is_none)
        .expect("the log is bounded");
    assert!(
        (3_500..4_500).contains(&dropped_at),
        "dropped after {dropped_at} inserts"
    );
    assert!(reach[dropped_at..].iter().all(Option::is_none));
}
