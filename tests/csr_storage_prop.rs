//! Property suite for the CSR triple store: on random graphs, every
//! index-backed read path must agree with a naive full-scan oracle over the
//! triple list, across **all eight pattern shapes** and across every way the
//! store can be in — pure bulk load, pure incremental inserts (delta
//! resident), bulk-then-incremental (CSR runs plus delta), and explicitly
//! compacted. This pins down the tentpole invariant of the storage rework:
//! the sorted-columns/delta-buffer split is invisible to readers.
//!
//! The sharded-vs-flat oracle extends the same bar across shard counts
//! {1, 2, 7, 16}: a subject-hash-partitioned graph built through the same
//! insertion sequence must be **bit-identical** to the flat store on every
//! read — exact `triples()`/`matching()` sequences (not just sets), counts,
//! and summary statistics — in all four storage states.

use proptest::prelude::*;
use rdfcube::{Graph, Term, Triple, TriplePattern};

/// Shard counts under test: flat, even split, prime, power of two.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// A random triple spec over a small closed universe, so that patterns
/// probe both present and absent components and collisions are common.
fn arb_spec() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..12, 0u8..6, 0u8..12), 0..80)
}

fn term(kind: &str, n: u8) -> Term {
    Term::iri(format!("{kind}{n}"))
}

/// Builds the same graph four ways:
/// 1. per-triple inserts only (everything in the delta buffer);
/// 2. bulk load of the whole batch;
/// 3. bulk load of the first half, per-triple inserts for the rest
///    (CSR runs + live delta — the insert-then-bulk-merge path);
/// 4. variant 3 followed by an explicit `compact()`.
fn build_all_ways(spec: &[(u8, u8, u8)]) -> Vec<Graph> {
    build_all_ways_sharded(spec, 1)
}

/// [`build_all_ways`] into an `n_shards`-way subject-hash-partitioned
/// graph, through the **same insertion sequence** — so the dictionaries
/// (and therefore the `TermId`s) are identical to the flat build and every
/// read can be compared bit-for-bit.
fn build_all_ways_sharded(spec: &[(u8, u8, u8)], n_shards: usize) -> Vec<Graph> {
    let mut incremental = Graph::with_shards(n_shards);
    for &(s, p, o) in spec {
        incremental.insert(&term("s", s), &term("p", p), &term("o", o));
    }

    let mut bulk = Graph::with_shards(n_shards);
    let batch: Vec<Triple> = spec
        .iter()
        .map(|&(s, p, o)| {
            Triple::new(
                bulk.encode(&term("s", s)),
                bulk.encode(&term("p", p)),
                bulk.encode(&term("o", o)),
            )
        })
        .collect();
    bulk.bulk_insert_ids(batch);

    let mut mixed = Graph::with_shards(n_shards);
    let half = spec.len() / 2;
    let first: Vec<Triple> = spec[..half]
        .iter()
        .map(|&(s, p, o)| {
            Triple::new(
                mixed.encode(&term("s", s)),
                mixed.encode(&term("p", p)),
                mixed.encode(&term("o", o)),
            )
        })
        .collect();
    mixed.bulk_insert_ids(first);
    for &(s, p, o) in &spec[half..] {
        mixed.insert(&term("s", s), &term("p", p), &term("o", o));
    }

    let mut compacted = mixed.clone();
    compacted.compact();
    assert_eq!(compacted.pending_delta_len(), 0);

    vec![incremental, bulk, mixed, compacted]
}

/// Decoded, sorted triple list — the graph's content independent of id
/// assignment order, comparable across differently-built dictionaries.
fn content(g: &Graph) -> Vec<String> {
    let mut out: Vec<String> = g
        .triples()
        .map(|t| {
            let (s, p, o) = g.decode(t);
            format!("{s} {p} {o}")
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// All construction paths produce the same graph.
    #[test]
    fn construction_paths_agree(spec in arb_spec()) {
        let graphs = build_all_ways(&spec);
        let reference = content(&graphs[0]);
        for (i, g) in graphs.iter().enumerate() {
            prop_assert_eq!(content(g), reference.clone(), "construction path {}", i);
            prop_assert_eq!(g.len(), reference.len(), "len of path {}", i);
        }
    }

    /// `matching` and `count_matching` agree with a full-scan oracle for all
    /// eight pattern shapes, in every storage state.
    #[test]
    fn matching_agrees_with_full_scan_oracle(spec in arb_spec(), probe in 0usize..80) {
        for (i, g) in build_all_ways(&spec).iter().enumerate() {
            let all: Vec<Triple> = g.triples().collect();
            if all.is_empty() {
                prop_assert_eq!(g.count_matching(TriplePattern::default()), 0);
                continue;
            }
            let t = all[probe % all.len()];
            for mask in 0u8..8 {
                let pat = TriplePattern::new(
                    (mask & 1 != 0).then_some(t.s),
                    (mask & 2 != 0).then_some(t.p),
                    (mask & 4 != 0).then_some(t.o),
                );
                let mut via_index = g.matching(pat);
                let mut via_scan: Vec<Triple> =
                    all.iter().copied().filter(|x| pat.matches(x)).collect();
                via_index.sort();
                via_scan.sort();
                prop_assert_eq!(
                    &via_index, &via_scan,
                    "path {} shape {:#05b} mismatch", i, mask
                );
                prop_assert_eq!(
                    g.count_matching(pat), via_scan.len(),
                    "path {} shape {:#05b} count", i, mask
                );
            }
        }
    }

    /// Pattern shapes probed with components *absent* from the graph return
    /// empty results instead of panicking or over-matching, in every state.
    #[test]
    fn absent_components_match_nothing(spec in arb_spec()) {
        for g in build_all_ways(&spec) {
            // An id the dictionary never handed out: the offset tables are
            // shorter than it, which the range guards must absorb.
            let ghost = rdfcube::TermId((g.dict().len() + 7) as u32);
            for mask in 1u8..8 {
                let pat = TriplePattern::new(
                    (mask & 1 != 0).then_some(ghost),
                    (mask & 2 != 0).then_some(ghost),
                    (mask & 4 != 0).then_some(ghost),
                );
                prop_assert_eq!(g.matching(pat).len(), 0);
                prop_assert_eq!(g.count_matching(pat), 0);
            }
        }
    }

    /// Summary statistics (distinct subjects/predicates/objects, per-predicate
    /// counts) agree with the oracle in every storage state.
    #[test]
    fn summary_statistics_agree_with_oracle(spec in arb_spec()) {
        for (i, g) in build_all_ways(&spec).iter().enumerate() {
            let all: Vec<Triple> = g.triples().collect();
            let distinct = |f: fn(&Triple) -> rdfcube::TermId| {
                let mut ids: Vec<_> = all.iter().map(f).collect();
                ids.sort();
                ids.dedup();
                ids.len()
            };
            prop_assert_eq!(g.subject_count(), distinct(|t| t.s), "subjects, path {}", i);
            prop_assert_eq!(g.predicate_count(), distinct(|t| t.p), "predicates, path {}", i);
            prop_assert_eq!(g.object_count(), distinct(|t| t.o), "objects, path {}", i);
            let total: usize = g.predicate_counts().iter().map(|(_, n)| n).sum();
            prop_assert_eq!(total, g.len(), "predicate_counts sum, path {}", i);
            for (p, n) in g.predicate_counts() {
                let oracle = all.iter().filter(|t| t.p == p).count();
                prop_assert_eq!(n, oracle, "count of predicate {} on path {}", p, i);
            }
        }
    }

    /// The sharded-vs-flat oracle: for every tested shard count and every
    /// storage state, the sharded graph is bit-identical to the flat one —
    /// exact enumeration sequences for `triples()` and all eight
    /// `matching()` shapes (order included), all counts, and all summary
    /// statistics; and the per-shard statistics partition the store.
    #[test]
    fn sharded_reads_bit_identical_to_flat(spec in arb_spec(), probe in 0usize..80) {
        let flat = build_all_ways(&spec);
        for &n in &SHARD_COUNTS[1..] {
            let sharded = build_all_ways_sharded(&spec, n);
            for (state, (f, g)) in flat.iter().zip(&sharded).enumerate() {
                prop_assert_eq!(g.shard_count(), n);
                prop_assert_eq!(g.len(), f.len(), "len, state {} @ {}", state, n);
                prop_assert_eq!(
                    g.pending_delta_len(), f.pending_delta_len(),
                    "delta, state {} @ {}", state, n
                );
                let seq: Vec<Triple> = f.triples().collect();
                prop_assert_eq!(
                    &g.triples().collect::<Vec<_>>(), &seq,
                    "triples() order, state {} @ {}", state, n
                );
                prop_assert_eq!(g.subject_count(), f.subject_count());
                prop_assert_eq!(g.predicate_count(), f.predicate_count());
                prop_assert_eq!(g.object_count(), f.object_count());
                prop_assert_eq!(g.predicate_counts(), f.predicate_counts());

                // Per-shard statistics partition the store exactly.
                let len_sum: usize = (0..n).map(|w| g.shard_len(w)).sum();
                prop_assert_eq!(len_sum, g.len(), "shard_len sum, state {}", state);
                let subj_sum: usize = (0..n).map(|w| g.shard_subject_count(w)).sum();
                prop_assert_eq!(subj_sum, g.subject_count(), "subject sum, state {}", state);

                if seq.is_empty() {
                    continue;
                }
                let t = seq[probe % seq.len()];
                for mask in 0u8..8 {
                    let pat = TriplePattern::new(
                        (mask & 1 != 0).then_some(t.s),
                        (mask & 2 != 0).then_some(t.p),
                        (mask & 4 != 0).then_some(t.o),
                    );
                    // Order-sensitive equality: the k-way shard merge must
                    // reproduce the flat enumeration exactly.
                    prop_assert_eq!(
                        g.matching(pat), f.matching(pat),
                        "matching() order, state {} shape {:#05b} @ {}", state, mask, n
                    );
                    prop_assert_eq!(g.count_matching(pat), f.count_matching(pat));
                }
            }
        }
    }

    /// `objects` / `subjects` enumerations agree with the oracle, including
    /// values that only live in the delta buffer.
    #[test]
    fn adjacency_enumeration_agrees(spec in arb_spec(), probe in 0usize..80) {
        for (i, g) in build_all_ways(&spec).iter().enumerate() {
            let all: Vec<Triple> = g.triples().collect();
            if all.is_empty() {
                continue;
            }
            let t = all[probe % all.len()];
            let mut objs: Vec<_> = g.objects(t.s, t.p).collect();
            let mut objs_oracle: Vec<_> = all
                .iter()
                .filter(|x| x.s == t.s && x.p == t.p)
                .map(|x| x.o)
                .collect();
            objs.sort();
            objs_oracle.sort();
            prop_assert_eq!(objs, objs_oracle, "objects, path {}", i);

            let mut subs: Vec<_> = g.subjects(t.p, t.o).collect();
            let mut subs_oracle: Vec<_> = all
                .iter()
                .filter(|x| x.p == t.p && x.o == t.o)
                .map(|x| x.s)
                .collect();
            subs.sort();
            subs_oracle.sort();
            prop_assert_eq!(subs, subs_oracle, "subjects, path {}", i);
        }
    }
}
