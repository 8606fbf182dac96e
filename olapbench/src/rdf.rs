//! Layer `rdf`: the CSR triple store — bulk load, index probes, scans, the
//! delta buffer and its merge — timed through `rdfcube_rdf::Graph`'s public
//! functions.

use crate::bench::{time_us, Budget, Metrics};
use crate::spans::{Layer, Tracer};
use crate::stats::{median, Rng};
use crate::world;
use rdfcube_datagen::BloggerConfig;
use rdfcube_engine::{explain, Bgp, PatternTerm};
use rdfcube_rdf::{Graph, TermId, Triple, TriplePattern};
use std::hint::black_box;
use std::time::Instant;

/// Replays the store reads a BGP evaluation is built on, as an
/// `rdf.for_each_match` span under the evaluation that caused them: the
/// plan's first pattern is an index scan; a later pattern hanging off the
/// query's root variable is one S,P-bound probe per root binding (`roots`:
/// the distinct root values the evaluation produced); any other pattern is
/// counted as a scan. Evaluation probes per intermediate row, which is at
/// least once per root, so this is a lower bound of the store's share —
/// but one that includes what each probe pays to sweep a pending delta.
pub fn replay_reads(
    tracer: &mut Tracer,
    parent: usize,
    graph: &Graph,
    bgp: &Bgp,
    roots: &[TermId],
) {
    let first = explain(graph, bgp)
        .ok()
        .and_then(|steps| steps.first().map(|s| s.pattern_index));
    let root_var = bgp.head().first().copied();
    let (rows, span) = tracer.span(Some(parent), Layer::Rdf, "rdf.for_each_match", || {
        let mut rows = 0usize;
        for (i, pattern) in bgp.body().iter().enumerate() {
            let constant = |t: PatternTerm| match t {
                PatternTerm::Const(c) => Some(c),
                PatternTerm::Var(_) => None,
            };
            let (p, o) = (constant(pattern.p), constant(pattern.o));
            let probed =
                Some(i) != first && matches!(pattern.s, PatternTerm::Var(v) if Some(v) == root_var);
            if probed {
                for &s in roots {
                    graph.for_each_match(TriplePattern::new(Some(s), p, o), |t| {
                        black_box(t);
                        rows += 1;
                    });
                }
            } else {
                graph.for_each_match(TriplePattern::new(constant(pattern.s), p, o), |t| {
                    black_box(t);
                    rows += 1;
                });
            }
        }
        rows
    });
    tracer.rows(span, graph.len(), rows);
}

/// A fixed sample of probe patterns over `graph`: S-bound (everything about
/// one blogger) and PO-bound (bloggers of one city), chosen by stride so the
/// same seed probes the same terms.
struct Probes {
    subjects: Vec<TermId>,
    lives_in: TermId,
    cities: Vec<TermId>,
}

impl Probes {
    fn sample(graph: &Graph) -> Option<Probes> {
        let dict = graph.dict();
        let lives_in = dict.iri_id("livesIn")?;
        let residents = graph.matching(TriplePattern::new(None, Some(lives_in), None));
        let stride = (residents.len() / 256).max(1);
        let subjects: Vec<TermId> = residents.iter().step_by(stride).map(|t| t.s).collect();
        let mut cities: Vec<TermId> = residents.iter().map(|t| t.o).collect();
        cities.sort_unstable();
        cities.dedup();
        Some(Probes {
            subjects,
            lives_in,
            cities,
        })
    }

    fn len(&self) -> usize {
        self.subjects.len() + self.cities.len()
    }

    /// Runs every probe once; returns the matched-triple total.
    fn run(&self, graph: &Graph) -> usize {
        let mut matched = 0;
        for &s in &self.subjects {
            matched += graph
                .matching(TriplePattern::new(Some(s), None, None))
                .len();
        }
        for &c in &self.cities {
            matched += graph.count_matching(TriplePattern::new(None, Some(self.lives_in), Some(c)));
        }
        matched
    }
}

/// The store battery on `world`.
pub fn battery(world: &Graph, cfg: &BloggerConfig, budget: Budget) -> Metrics {
    let mut m = Metrics::default();
    let slice = budget.split(6);

    // Bulk load: the sort + dedup + three CSR builds of `from_triples`.
    let triples: Vec<Triple> = world.triples().collect();
    let mut load_ms = Vec::new();
    let mut clock = slice.start();
    while clock.again(2, 9) {
        let dict = world.dict().clone();
        let t = Instant::now();
        let g = Graph::from_triples(dict, triples.iter().copied());
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(g.len());
    }
    m.put("rdf.bulk_load_ms", median(&load_ms));

    let Some(probes) = Probes::sample(world) else {
        return m;
    };
    let per_probe = |us: f64| us * 1e3 / probes.len() as f64;
    m.put(
        "rdf.probe_ns",
        per_probe(time_us(slice, || probes.run(world))),
    );

    // P-bound full scan through the POS index.
    if let Some(wrote) = world.dict().iri_id("wrotePost") {
        let shape = TriplePattern::new(None, Some(wrote), None);
        let rows = world.count_matching(shape);
        let us = time_us(slice, || {
            let mut n = 0usize;
            world.for_each_match(shape, |t| n += usize::from(black_box(t).p == wrote));
            n
        });
        m.put("rdf.scan_mtriples_per_s", rows as f64 / us.max(1e-3));
    }

    // The same probes with a pending (unsorted) delta beside the CSR runs,
    // then the insert path itself, then the merge that folds a delta in.
    let mut grown = world.clone();
    let mut rng = Rng::new(cfg.seed);
    let mut insert_ns = Vec::new();
    let mut batch_no = 0;
    let mut insert_batch = |g: &mut Graph, rng: &mut Rng| {
        let batch = world::blogger_batch(cfg, batch_no, 24, rng);
        batch_no += 1;
        let t = Instant::now();
        let mut added = 0usize;
        for (s, p, o) in &batch {
            added += usize::from(g.insert(s, p, o));
        }
        (t.elapsed().as_nanos() as f64, added)
    };
    let (ns, added) = insert_batch(&mut grown, &mut rng);
    insert_ns.push(ns / added.max(1) as f64);
    if grown.has_pending_delta() {
        m.put(
            "rdf.probe_delta_ns",
            per_probe(time_us(slice, || probes.run(&grown))),
        );
    }
    let mut compact_ms = Vec::new();
    let mut clock = slice.start();
    while clock.again(2, 50) {
        let (ns, added) = insert_batch(&mut grown, &mut rng);
        insert_ns.push(ns / added.max(1) as f64);
        let t = Instant::now();
        grown.compact();
        compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.put("rdf.insert_ns_per_triple", median(&insert_ns));
    m.put("rdf.compact_ms", median(&compact_ms));
    m
}
