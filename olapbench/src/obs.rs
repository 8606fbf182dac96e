//! Layer `obs`: a cross-check of the program's own tracer, read through the
//! public `answer_traced`. Three queries — a miss, a dice off it, the same
//! dice again — cover every stage the tracer names; each stage's *self*
//! time (its span minus its children) is reported, and the share of the
//! root spans' time that no leaf span covers is `obs.unattributed_share`.

use crate::bench::{Budget, Metrics};
use crate::stats::median;
use crate::world;
use rdfcube_core::{apply, OlapSession};
use rdfcube_engine::AggFunc;
use rdfcube_obs::QueryTrace;
use rdfcube_rdf::Graph;
use std::collections::HashMap;

/// The stages the program's tracer names, in pipeline order.
pub const STAGES: [&str; 10] = [
    "plan",
    "duplicate",
    "derive",
    "from_scratch",
    "classifier",
    "measure",
    "key_join",
    "group_aggregate",
    "cube_build",
    "materialize",
];

/// Adds each span's self time (nanoseconds) to `into`, by stage name;
/// returns `(root time, time covered by leaf spans)`.
fn self_times(trace: &QueryTrace, into: &mut HashMap<&'static str, u64>) -> (u64, u64) {
    let spans = trace.spans();
    let mut leaf_ns = 0;
    for (i, s) in spans.iter().enumerate().skip(1) {
        let covered: u64 = trace.children(i).map(|c| spans[c].nanos).sum();
        *into.entry(s.name).or_default() += s.nanos.saturating_sub(covered);
        if covered == 0 && trace.children(i).next().is_none() {
            leaf_ns += s.nanos;
        }
    }
    (trace.total_nanos(), leaf_ns)
}

/// The tracer battery on `world`.
pub fn battery(world: &Graph, budget: Budget) -> Metrics {
    let mut m = Metrics::default();
    let mut graph = world.clone();
    let Ok(base) = world::parse(world::EX1, world::SITES, AggFunc::Count, graph.dict_mut()) else {
        return m;
    };
    let Ok(diced) = apply(&base, &world::dice_op(18)) else {
        return m;
    };
    let mut per_stage: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut unattributed = Vec::new();
    let mut clock = budget.start();
    while clock.again(1, 25) {
        let mut session = OlapSession::new(graph.clone());
        let mut stage_ns = HashMap::new();
        let (mut root_ns, mut leaf_ns) = (0, 0);
        for eq in [&base, &diced, &diced] {
            let Ok((_, _, trace)) = session.answer_traced(eq.clone()) else {
                return m;
            };
            let (total, leaves) = self_times(&trace, &mut stage_ns);
            root_ns += total;
            leaf_ns += leaves;
        }
        for stage in STAGES {
            let ns = stage_ns.get(stage).copied().unwrap_or(0);
            per_stage.entry(stage).or_default().push(ns as f64 / 1e3);
        }
        // Root time no leaf span covers: the tracer's own blind spot.
        unattributed.push(1.0 - leaf_ns as f64 / root_ns.max(1) as f64);
    }
    for stage in STAGES {
        m.put(
            format!("obs.self_us.{stage}"),
            median(per_stage.get(stage).map_or(&[][..], Vec::as_slice)),
        );
    }
    m.put("obs.unattributed_share", median(&unattributed));
    m
}
