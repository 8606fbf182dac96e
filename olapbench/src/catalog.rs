//! Layer `catalog`: materialisation into the cube catalog, the eviction
//! sweep a budget forces, and on-demand rehydration, timed through
//! `CubeCatalog::insert` and `OlapSession::touch`.

use crate::bench::{time_us, Budget, Metrics};
use crate::spans::{Layer, Tracer};
use crate::stats::median;
use crate::world;
use rdfcube_core::rewrite::from_scratch_with_pres;
use rdfcube_core::{apply, Cube, CubeCatalog, ExtendedQuery, OlapSession, PartialResult};
use rdfcube_engine::AggFunc;
use rdfcube_rdf::Graph;
use std::hint::black_box;
use std::time::Instant;

/// Replays a materialisation into the traced phase's mirror catalog (same
/// budget as the session's, fed the same sequence of cubes).
pub fn replay_insert(
    tracer: &mut Tracer,
    root: usize,
    mirror: &mut CubeCatalog,
    eq: ExtendedQuery,
    ans: Cube,
    pres: PartialResult,
    watermark: usize,
) {
    let (cells, rows) = (ans.len(), pres.len());
    let (_, span) = tracer.span(Some(root), Layer::Catalog, "catalog.insert", || {
        mirror.insert(eq, ans, pres, watermark)
    });
    tracer.rows(span, rows, cells);
}

/// The catalog battery on `world`.
pub fn battery(world: &Graph, budget: Budget) -> Metrics {
    let mut m = Metrics::default();
    let slice = budget.split(2);
    let mut graph = world.clone();
    let Ok(base) = world::parse(world::EX1, world::SITES, AggFunc::Count, graph.dict_mut()) else {
        return m;
    };
    let Ok((ans, pres)) = from_scratch_with_pres(&base, &graph) else {
        return m;
    };
    let bytes = ans.approx_bytes() + pres.approx_bytes();

    // Insert under a budget of three payloads: every insert past the third
    // signs, indexes and runs one eviction sweep. The payload clone is made
    // outside the timer.
    let mut catalog = CubeCatalog::with_budget(3 * bytes + bytes / 2);
    let mut insert_us = Vec::new();
    let mut clock = slice.start();
    while clock.again(3, 200) {
        let (eq, a, p) = (base.clone(), ans.clone(), pres.clone());
        let t = Instant::now();
        black_box(catalog.insert(eq, a, p, graph.len()));
        insert_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    m.put("catalog.insert_us", median(&insert_us));

    // Rehydration: a budget that holds one cube; asking for a second evicts
    // the first, and `touch` on the first recomputes it on demand.
    let mut session = OlapSession::with_budget(graph.clone(), bytes + bytes / 2);
    let other = apply(&base, &world::drill_out_op("dage")).ok();
    if let (Ok((first, _)), Some(other)) = (session.answer_query(base.clone()), other) {
        if let Ok((second, _)) = session.answer_query(other) {
            let mut victim = first;
            let mut keeper = second;
            m.put(
                "catalog.rehydrate_us",
                time_us(slice, || {
                    // Touching the evicted cube recomputes it and evicts the
                    // other; swap roles so every repetition rehydrates.
                    let recomputed = session.touch(victim);
                    std::mem::swap(&mut victim, &mut keeper);
                    recomputed
                }),
            );
        }
    }
    m
}
