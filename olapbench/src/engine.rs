//! Layer `engine`: BGP evaluation, relations, aggregation and parsing,
//! timed through `rdfcube_engine`'s public functions.

use crate::bench::{time_us, Budget, Metrics};
use crate::rdf;
use crate::spans::{Layer, Tracer};
use crate::world;
use rdfcube_core::ExtendedQuery;
use rdfcube_engine::{
    evaluate, group_aggregate, parse_query, set_eval_threads, AggFunc, Relation, Semantics, VarId,
};
use rdfcube_rdf::{Graph, TermId};

/// Replays the two BGP evaluations from-scratch answering is built on — the
/// Σ-filtered classifier (set semantics) and the measure (bag semantics) —
/// as `engine.*` spans under `parent`, each with the store reads beneath.
pub fn replay_evals(tracer: &mut Tracer, parent: usize, graph: &Graph, eq: &ExtendedQuery) {
    let (c_rel, span) = tracer.span(
        Some(parent),
        Layer::Engine,
        "engine.classifier_eval",
        || eq.classifier_relation(graph),
    );
    let roots = root_values(c_rel.as_ref().ok());
    tracer.rows(span, graph.len(), c_rel.map_or(0, |r| r.len()));
    rdf::replay_reads(tracer, span, graph, eq.query().classifier(), &roots);

    let (m_rel, span) = tracer.span(Some(parent), Layer::Engine, "engine.measure_eval", || {
        evaluate(graph, eq.query().measure(), Semantics::Bag)
    });
    let roots = root_values(m_rel.as_ref().ok());
    tracer.rows(span, graph.len(), m_rel.map_or(0, |r| r.len()));
    rdf::replay_reads(tracer, span, graph, eq.query().measure(), &roots);
}

/// The distinct values of a relation's first column (the root variable).
pub fn root_values(rel: Option<&Relation>) -> Vec<TermId> {
    let mut roots: Vec<TermId> =
        rel.map_or_else(Vec::new, |r| r.rows().map(|row| row[0]).collect());
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// The evaluator battery on `world`, over Example 1's two BGPs.
pub fn battery(world: &Graph, budget: Budget) -> Metrics {
    let mut m = Metrics::default();
    let slice = budget.split(7);
    let mut dict = world.dict().clone();
    let Ok(eq) = world::parse(world::EX1, world::SITES, AggFunc::Count, &mut dict) else {
        return m;
    };
    let q = eq.query();
    m.put(
        "engine.parse_us",
        time_us(slice, || {
            (
                parse_query(world::EX1, &mut dict),
                parse_query(world::SITES, &mut dict),
            )
        }),
    );

    m.put(
        "engine.classifier_eval_us",
        time_us(slice, || evaluate(world, q.classifier(), Semantics::Set)),
    );
    m.put(
        "engine.measure_eval_us",
        time_us(slice, || evaluate(world, q.measure(), Semantics::Bag)),
    );

    // Exact work counts for one classifier + one measure evaluation, read
    // from the program's global registry.
    let before = rdfcube_obs::global_snapshot();
    let c_rel = evaluate(world, q.classifier(), Semantics::Set);
    let m_rel = evaluate(world, q.measure(), Semantics::Bag);
    let after = rdfcube_obs::global_snapshot();
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let (Ok(c_rel), Ok(mut m_rel)) = (c_rel, m_rel) else {
        return m;
    };
    m.put("engine.bgp_steps", delta("rdfcube_engine_bgp_steps_total"));
    let results = (c_rel.len() + m_rel.len()).max(1) as f64;
    m.put(
        "engine.rows_per_result",
        delta("rdfcube_engine_step_rows_total") / results,
    );

    // Classifier ⋈ measure on the fact variable, then γ over the dimensions:
    // the relational half of from-scratch answering. The measure relation
    // is rebased onto a column id the classifier does not use.
    let value_col = VarId(u16::try_from(q.classifier().vars().len()).unwrap_or(u16::MAX));
    if m_rel.set_schema(vec![q.root(), value_col]).is_ok() {
        m.put(
            "engine.join_us",
            time_us(slice, || c_rel.natural_join(&m_rel)),
        );
        let joined: Relation = c_rel.natural_join(&m_rel);
        m.put(
            "engine.group_aggregate_us",
            time_us(slice, || {
                group_aggregate(&joined, q.dim_vars(), value_col, q.agg(), world.dict())
            }),
        );
    }

    // The same classifier evaluation on a subject-hash-sharded copy with one
    // eval thread per core. Sessions default to one shard, so this moves no
    // end-to-end metric today; it is recorded so the sharded step runners
    // have a number beside the flat ones.
    let nproc = crate::nproc();
    let mut sharded = world.clone();
    sharded.set_shard_count(nproc);
    set_eval_threads(nproc);
    let before = rdfcube_obs::global_snapshot();
    m.put(
        "engine.evaluate_sharded_us",
        time_us(slice, || evaluate(&sharded, q.classifier(), Semantics::Set)),
    );
    set_eval_threads(1);
    let after = rdfcube_obs::global_snapshot();
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let skipped = delta("rdfcube_engine_shards_skipped_total");
    let probed = delta("rdfcube_engine_shard_probes_total");
    m.put(
        "engine.shards_skipped_share",
        skipped / (skipped + probed).max(1.0),
    );
    m
}
