//! Layer `rewrite`: σ_dice, Algorithm 1, Algorithm 2 and the roll-up
//! composition, timed through `rdfcube_core::rewrite`'s public functions —
//! each beside its from-scratch twin on the same target query, because the
//! paper's claim is the ratio between the two.

use crate::bench::{time_us, Budget, Metrics};
use crate::session::Plane;
use crate::spans::{Layer, Tracer};
use crate::{engine, pres, rdf, world};
use rdfcube_core::olap::apply_roll_up_encoded;
use rdfcube_core::rewrite as rw;
use rdfcube_core::{
    apply, build_aux_query, Cube, Derivation, ExplainedStrategy, ExtendedQuery, PartialResult,
    Strategy,
};
use rdfcube_engine::{evaluate, AggFunc, Semantics};
use rdfcube_rdf::Graph;

/// Replays the route the planner chose for `target`: from-scratch on a
/// miss, otherwise the rewriting over the source cube's payload. Returns
/// the rebuilt `(ans, pres)` so the materialisation can be replayed too.
pub fn replay_route<P: Plane>(
    tracer: &mut Tracer,
    root: usize,
    plane: &P,
    explained: &ExplainedStrategy,
    target: &ExtendedQuery,
) -> Option<(Cube, PartialResult)> {
    let graph = plane.graph();
    match explained.source {
        Some(source) if explained.catalog_hit => plane
            .with_cube(source, |src_eq, src_ans, src_pres| {
                derive(
                    tracer,
                    root,
                    graph,
                    explained.strategy,
                    (src_eq, src_ans, src_pres),
                    target,
                )
            })
            .flatten(),
        _ => pres::replay_scratch(tracer, root, graph, target),
    }
}

/// The outside-in twin of the session's derivation step: the same public
/// `rewrite::*` calls, each under its own span. Dimensions are matched by
/// name, which holds for every query the workloads generate; a shape the
/// replay does not recognise is left to `(unattributed)`.
fn derive(
    tracer: &mut Tracer,
    root: usize,
    graph: &Graph,
    strategy: Strategy,
    (src_eq, src_ans, src_pres): (&ExtendedQuery, &Cube, &PartialResult),
    target: &ExtendedQuery,
) -> Option<(Cube, PartialResult)> {
    let dict = graph.dict();
    let src_names = src_eq.query().dim_names();
    let names = target.query().dim_names();
    let (ans, pres, inherited) = match strategy {
        Strategy::FromScratch => return pres::replay_scratch(tracer, root, graph, target),
        Strategy::SelectionOnAns => {
            return Some(dice(tracer, root, graph, src_ans, src_pres, target))
        }
        Strategy::Algorithm1 => {
            let removed: Vec<usize> = (0..src_names.len())
                .filter(|&i| !names.contains(&src_names[i]))
                .collect();
            let (out, span) = tracer.span(
                Some(root),
                Layer::Rewrite,
                "rewrite.drill_out_from_pres",
                || rw::drill_out_from_pres(src_pres, &removed, dict),
            );
            let (ans, pres) = out.ok()?;
            tracer.rows(span, src_pres.len(), pres.len());
            (ans, pres, src_eq.sigma().without_dims(&removed))
        }
        Strategy::Algorithm2 => {
            let classifier = src_eq.query().classifier();
            let var = classifier.vars().id(names.last()?)?;
            let (out, span) = tracer.span(
                Some(root),
                Layer::Rewrite,
                "rewrite.drill_in_from_pres",
                || rw::drill_in_from_pres(src_eq.query(), src_pres, var, graph),
            );
            let (ans, pres) = out.ok()?;
            tracer.rows(span, src_pres.len(), pres.len());
            // Algorithm 2's step 2: the auxiliary query on the instance.
            let aux = build_aux_query(classifier, var).ok()?;
            let (aux_rel, aux_span) =
                tracer.span(Some(span), Layer::Engine, "engine.aux_eval", || {
                    evaluate(graph, &aux, Semantics::Set)
                });
            let roots = engine::root_values(aux_rel.as_ref().ok());
            tracer.rows(aux_span, graph.len(), aux_rel.map_or(0, |r| r.len()));
            rdf::replay_reads(tracer, aux_span, graph, &aux, &roots);
            (ans, pres, src_eq.sigma().with_new_dim())
        }
        Strategy::RollUpComposition => {
            let dim = (0..names.len().min(src_names.len())).find(|&i| names[i] != src_names[i])?;
            let via = dict.iri_id(world::LOCATED_IN)?;
            let (out, span) = tracer.span(
                Some(root),
                Layer::Rewrite,
                "rewrite.roll_up_from_pres",
                || rw::roll_up_from_pres(src_pres, dim, via, names[dim], graph),
            );
            let (ans, pres) = out.ok()?;
            tracer.rows(span, src_pres.len(), pres.len());
            // The mapping probes roll-up issues: one S,P-bound lookup a row.
            let (parents, probe) = tracer.span(Some(span), Layer::Rdf, "rdf.objects", || {
                src_pres
                    .rows()
                    .map(|r| graph.objects(r.dims[dim], via).count())
                    .sum::<usize>()
            });
            tracer.rows(probe, src_pres.len(), parents);
            (ans, pres, target.sigma().clone())
        }
    };
    if target.sigma() == &inherited {
        Some((ans, pres))
    } else {
        // A derivation whose target is narrower than what the source's Σ
        // hands down is followed by a dice, as in the session.
        Some(dice(tracer, root, graph, &ans, &pres, target))
    }
}

/// Runs one derivation of `target` from a source payload, untraced: the
/// rewriting the [`Derivation`] names, then a dice when the target's Σ is
/// narrower than what the source hands down — the session's derivation step,
/// through the same public functions. The planner battery times every
/// applicable route with this.
pub fn run_derivation(
    d: &Derivation,
    (src_eq, src_ans, src_pres): (&ExtendedQuery, &Cube, &PartialResult),
    target: &ExtendedQuery,
    graph: &Graph,
) -> Option<(Cube, PartialResult)> {
    let dict = graph.dict();
    let dice = |ans: &Cube, pres: &PartialResult| {
        (
            rw::dice_from_ans(ans, target.sigma(), dict),
            rw::dice_pres(pres, target.sigma(), dict),
        )
    };
    let (ans, pres, inherited) = match d {
        Derivation::Dice => return Some(dice(src_ans, src_pres)),
        Derivation::DrillOut(removed) => {
            let (ans, pres) = rw::drill_out_from_pres(src_pres, removed, dict).ok()?;
            (ans, pres, src_eq.sigma().without_dims(removed))
        }
        Derivation::DrillIn(var) => {
            let (ans, pres) = rw::drill_in_from_pres(src_eq.query(), src_pres, *var, graph).ok()?;
            (ans, pres, src_eq.sigma().with_new_dim())
        }
    };
    Some(if target.sigma() == &inherited {
        (ans, pres)
    } else {
        dice(&ans, &pres)
    })
}

fn dice(
    tracer: &mut Tracer,
    root: usize,
    graph: &Graph,
    ans: &Cube,
    pres: &PartialResult,
    target: &ExtendedQuery,
) -> (Cube, PartialResult) {
    let dict = graph.dict();
    let (diced_ans, span) =
        tracer.span(Some(root), Layer::Rewrite, "rewrite.dice_from_ans", || {
            rw::dice_from_ans(ans, target.sigma(), dict)
        });
    tracer.rows(span, ans.len(), diced_ans.len());
    let (diced_pres, span) = tracer.span(Some(root), Layer::Rewrite, "rewrite.dice_pres", || {
        rw::dice_pres(pres, target.sigma(), dict)
    });
    tracer.rows(span, pres.len(), diced_pres.len());
    (diced_ans, diced_pres)
}

/// The rewriting battery on `world`: every rewriting and its from-scratch
/// twin, the speedups between them, and a cell check of each pair
/// (mismatches are appended to `failures`).
pub fn battery(world: &Graph, budget: Budget, failures: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let slice = budget.split(9);
    let mut graph = world.clone();
    let mut parse = |classifier: &str| {
        world::parse(classifier, world::SITES, AggFunc::Count, graph.dict_mut()).ok()
    };
    let (Some(q3), Some(e5b), Some(ex1)) = (parse(world::Q3), parse(world::E5B), parse(world::EX1))
    else {
        failures.push("rewrite battery: a fixture query does not parse".into());
        return m;
    };
    let graph = &graph;
    let dict = graph.dict();
    let materialize = |eq: &ExtendedQuery| rw::from_scratch_with_pres(eq, graph).ok();
    let (Some((ans3, pres3)), Some((_, pres_b)), Some((_, pres1))) =
        (materialize(&q3), materialize(&e5b), materialize(&ex1))
    else {
        failures.push("rewrite battery: a fixture cube does not materialize".into());
        return m;
    };
    // Times the from-scratch twin of a rewriting, records the pair's
    // speedup and checks the two answers cell for cell.
    let mut pair = |m: &mut Metrics,
                    op: &str,
                    rewritten: Option<Cube>,
                    target: &ExtendedQuery,
                    rewrite_us: f64| {
        let scratch_us = time_us(slice, || rw::from_scratch(target, graph));
        m.put(format!("rewrite.scratch_{op}_us"), scratch_us);
        m.put(
            format!("rewrite.{op}_speedup"),
            scratch_us / rewrite_us.max(1e-3),
        );
        match (rewritten, rw::from_scratch(target, graph)) {
            (Some(a), Ok(b)) if a.same_cells(&b) => {}
            _ => failures.push(format!("rewrite battery: {op} differs from from-scratch")),
        }
        scratch_us
    };

    // DICE (Proposition 1): σ over ans(Q) is the paper's claim; the served
    // path also dices pres(Q) so the result can serve later operations.
    if let Ok(diced) = apply(&q3, &world::dice_op(18)) {
        let ans_us = time_us(slice, || rw::dice_from_ans(&ans3, diced.sigma(), dict));
        let pres_us = time_us(slice, || rw::dice_pres(&pres3, diced.sigma(), dict));
        let rewritten = rw::dice_from_ans(&ans3, diced.sigma(), dict);
        let scratch_us = pair(&mut m, "dice", Some(rewritten), &diced, ans_us);
        m.put("rewrite.dice_from_ans_us", ans_us);
        m.put("rewrite.dice_pres_us", pres_us);
        m.put(
            "rewrite.dice_served_speedup",
            scratch_us / (ans_us + pres_us).max(1e-3),
        );
    }

    // DRILL-OUT 3 → 2 dimensions (Algorithm 1).
    if let Ok(target) = apply(&q3, &world::drill_out_op("dsite")) {
        let us = time_us(slice, || rw::drill_out_from_pres(&pres3, &[2], dict));
        let rewritten = rw::drill_out_from_pres(&pres3, &[2], dict)
            .ok()
            .map(|r| r.0);
        pair(&mut m, "drill_out", rewritten, &target, us);
        m.put("rewrite.drill_out_us", us);
    }

    // DRILL-IN with a one-triple auxiliary query (Algorithm 2's best case).
    if let (Ok(target), Some(var)) = (
        apply(&e5b, &world::drill_in_op()),
        e5b.query().classifier().vars().id("dcity"),
    ) {
        let run = || rw::drill_in_from_pres(e5b.query(), &pres_b, var, graph);
        let us = time_us(slice, run);
        pair(&mut m, "drill_in", run().ok().map(|r| r.0), &target, us);
        m.put("rewrite.drill_in_us", us);
    }

    // ROLL-UP city → country (the Algorithm 1 ∘ 2 composition).
    if let Some(via) = dict.iri_id(world::LOCATED_IN) {
        if let Ok(target) = apply_roll_up_encoded(&ex1, "dcity", via) {
            let coarse = target.query().dim_names()[1].to_string();
            let run = || rw::roll_up_from_pres(&pres1, 1, via, &coarse, graph);
            let us = time_us(slice, run);
            pair(&mut m, "roll_up", run().ok().map(|r| r.0), &target, us);
            m.put("rewrite.roll_up_us", us);
        }
    }
    m
}
