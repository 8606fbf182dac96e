//! Layer `pres`: partial results `pres(Q)` and the γ that turns them into
//! `ans(Q)`, timed through `rdfcube_core::PartialResult`'s public functions.

use crate::bench::{time_us, Budget, Metrics};
use crate::engine;
use crate::spans::{Layer, Tracer};
use crate::world;
use rdfcube_core::{Cube, ExtendedQuery, PartialResult};
use rdfcube_engine::AggFunc;
use rdfcube_rdf::Graph;

/// Replays from-scratch answering of `eq` — what a catalog miss, a refresh
/// and a rehydration all run: `PartialResult::compute` (with the two BGP
/// evaluations it is built on as children) and `to_cube`.
pub fn replay_scratch(
    tracer: &mut Tracer,
    parent: usize,
    graph: &Graph,
    eq: &ExtendedQuery,
) -> Option<(Cube, PartialResult)> {
    let (pres, span) = tracer.span(Some(parent), Layer::Pres, "pres.compute", || {
        PartialResult::compute(eq, graph)
    });
    let pres = pres.ok()?;
    tracer.rows(span, graph.len(), pres.len());
    engine::replay_evals(tracer, span, graph, eq);
    let (ans, span) = tracer.span(Some(parent), Layer::Pres, "pres.to_cube", || {
        pres.to_cube(graph.dict())
    });
    let ans = ans.ok()?;
    tracer.rows(span, pres.len(), ans.len());
    Some((ans, pres))
}

/// The `pres(Q)` battery on `world`, over Example 1.
pub fn battery(world: &Graph, budget: Budget) -> Metrics {
    let mut m = Metrics::default();
    let slice = budget.split(3);
    let mut dict = world.dict().clone();
    let Ok(eq) = world::parse(world::EX1, world::SITES, AggFunc::Count, &mut dict) else {
        return m;
    };
    let Ok(pres) = PartialResult::compute(&eq, world) else {
        return m;
    };
    let compute_us = time_us(slice, || PartialResult::compute(&eq, world));
    let to_cube_us = time_us(slice, || pres.to_cube(world.dict()));
    // What keeping pres(Q) costs over answering alone: (ans + pres) ÷ ans.
    let ans_only_us = time_us(slice, || eq.answer(world));
    m.put("pres.compute_us", compute_us);
    m.put("pres.to_cube_us", to_cube_us);
    m.put("pres.rows", pres.len() as f64);
    m.put("pres.bytes", pres.approx_bytes() as f64);
    m.put(
        "pres.overhead_share",
        (compute_us + to_cube_us) / ans_only_us.max(1e-3) - 1.0,
    );
    m
}
