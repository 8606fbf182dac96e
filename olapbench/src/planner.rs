//! Layer `planner`: `core::signature` (canonicalisation) and `core::cost`
//! (strategy choice), timed through `ViewSignature::of` and
//! `explain_query`, and judged by **regret**: the time of the route the
//! planner chose ÷ the time of the fastest applicable route, every route
//! timed by the harness through `rewrite::*`.

use crate::bench::{time_us, Budget, Metrics};
use crate::ops::Recorder;
use crate::session::Plane;
use crate::spans::{Layer, Tracer};
use crate::stats::{median, percentile};
use crate::workloads::olap_session::Script;
use crate::{rewrite, world};
use rdfcube_core::rewrite::from_scratch_with_pres;
use rdfcube_core::{
    apply, CostModelReport, ExtendedQuery, OlapOp, OlapSession, ValueSelector, ViewSignature,
};
use rdfcube_rdf::Graph;

/// Replays the planning a serving call starts with, against the catalog as
/// it stands: `explain_query`, and beneath it the signature it computes.
pub fn replay<P: Plane>(tracer: &mut Tracer, plane: &P, eq: &ExtendedQuery) {
    let (explained, plan) = tracer.span(None, Layer::Planner, "planner.explain_query", || {
        plane.plan(eq)
    });
    tracer.rows(plan, explained.candidates, 1);
    tracer.span(Some(plan), Layer::Planner, "planner.signature", || {
        ViewSignature::of(eq.query())
    });
}

/// A route whose time counts as "the planner was wrong" when it beats the
/// chosen one by more than this factor (below it, the two are within the
/// run-to-run noise of a sub-millisecond timing).
const WRONG_PICK_FACTOR: f64 = 1.10;

/// The planner battery: a session populated by the olap-session script on
/// `world`, probed with targets that have several applicable routes.
pub fn battery(world: &Graph, budget: Budget) -> Metrics {
    let mut m = Metrics::default();
    let script = Script::parse(world.clone());
    let mut session = OlapSession::new(script.graph.clone());
    let handles = script.run(&mut session, &mut Recorder::default());
    let query_of = |slot: u64| {
        handles
            .iter()
            .find(|(s, _)| *s == slot)
            .and_then(|(_, h)| session.try_query(*h).cloned())
    };
    let (Some(q3), Some(e5b)) = (query_of(1), query_of(5)) else {
        return m;
    };
    // Probe targets: none is in the catalog yet; each is derivable from at
    // least one materialized cube, most from several.
    let narrow = OlapOp::Dice {
        constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 19, hi: 21 })],
    };
    let probes: Vec<ExtendedQuery> = [
        apply(&q3, &world::dice_op(30)),
        apply(&q3, &world::drill_out_op("dcity")),
        apply(&q3, &world::drill_out_op("dsite")).and_then(|q| apply(&q, &world::dice_op(18))),
        apply(&q3, &world::slice_op()).and_then(|q| apply(&q, &world::drill_out_op("dcity"))),
        apply(&q3, &narrow),
        apply(&e5b, &world::drill_in_op()).and_then(|q| apply(&q, &world::dice_op(40))),
    ]
    .into_iter()
    .flatten()
    .collect();
    if probes.is_empty() {
        return m;
    }

    let slice = budget.split(2 + 4 * probes.len() as u32);
    m.put(
        "planner.signature_us",
        time_us(slice, || ViewSignature::of(q3.query())),
    );
    let plan_us: Vec<f64> = probes
        .iter()
        .map(|p| {
            time_us(slice.split(probes.len() as u32), || {
                session.explain_query(p)
            })
        })
        .collect();
    m.put("planner.plan_us", median(&plan_us));

    let graph = session.instance();
    let catalog = session.catalog();
    let mut candidates = Vec::new();
    let mut regrets = Vec::new();
    for probe in &probes {
        let chosen = session.explain_query(probe);
        candidates.push(chosen.candidates as f64);
        let chosen_query = chosen.source.and_then(|h| session.try_query(h));
        let sig = ViewSignature::of(probe.query());
        let scratch_us = time_us(slice, || from_scratch_with_pres(probe, graph));
        let mut best_us = scratch_us;
        let mut chosen_us = (!chosen.catalog_hit).then_some(scratch_us);
        for idx in 0..catalog.len() {
            let entry = catalog.entry(idx);
            let (Some(d), Some((ans, pres))) =
                (entry.classify(&sig, probe.sigma()), entry.payload())
            else {
                continue;
            };
            let source = entry.query();
            let us = time_us(slice, || {
                rewrite::run_derivation(&d, (source, ans, pres), probe, graph)
            });
            best_us = best_us.min(us);
            // The chosen source is identified by address: handles and
            // catalog entries hand out the same `ExtendedQuery` allocation.
            if chosen.catalog_hit && chosen_query.is_some_and(|q| std::ptr::eq(q, source)) {
                chosen_us = Some(us);
            }
        }
        if let Some(chosen_us) = chosen_us {
            regrets.push(chosen_us / best_us.max(1e-3));
        }
    }
    m.put("planner.candidates", median(&candidates));
    m.put("planner.regret_p50", median(&regrets));
    m.put("planner.regret_max", percentile(&regrets, 100.0));
    m.put(
        "planner.wrong_picks",
        regrets.iter().filter(|&&r| r > WRONG_PICK_FACTOR).count() as f64,
    );
    // How far predicted cost sits from observed cost over the script's own
    // query log, as the product itself reports it.
    m.put(
        "planner.drift_max",
        CostModelReport::from_catalog(catalog).max_drift(),
    );
    m
}
