//! Layer `session` / `shared`: the two serving planes, driven the way a
//! user drives them, plus the traced replay that attributes each call's
//! time to the layers beneath.
//!
//! [`serve`] is the only place the harness calls `answer_query` /
//! `transform` in a timed context. Untraced, it times the call, checks the
//! answer and records the sample. Traced, it additionally records a root
//! span around the call and replays, through public functions only, the
//! layer calls the session makes for that operation.

use crate::ops::{checksum, Kind, Recorder};
use crate::spans::Layer;
use crate::{catalog, planner, pres, rewrite};
use rdfcube_core::olap::apply_roll_up_encoded;
use rdfcube_core::{
    apply, CoreError, Cube, CubeHandle, ExplainedStrategy, ExtendedQuery, OlapOp, OlapSession,
    PartialResult, SharedSession, Strategy,
};
use rdfcube_rdf::Graph;
use std::time::Instant;

/// What the harness needs from a serving plane. Implemented for
/// [`OlapSession`] and for `&SharedSession`, so one driver serves both.
pub trait Plane {
    /// The instance the plane serves.
    fn graph(&self) -> &Graph;
    /// `explain_query`: the planner's would-be choice, nothing executed.
    fn plan(&self, eq: &ExtendedQuery) -> ExplainedStrategy;
    /// Catalog entries (evicted ones included).
    fn cubes(&self) -> usize;
    /// `answer_query`.
    fn answer_query(&mut self, eq: ExtendedQuery) -> Served;
    /// `transform`.
    fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> Served;
    /// The query behind a handle.
    fn query_of(&self, h: CubeHandle) -> Option<ExtendedQuery>;
    /// Runs `f` on the resident payload behind `h`; `None` when the handle
    /// is foreign or the payload is evicted. Never recomputes anything.
    fn with_cube<R>(
        &self,
        h: CubeHandle,
        f: impl FnOnce(&ExtendedQuery, &Cube, &PartialResult) -> R,
    ) -> Option<R>;
}

/// What the serving entry points return.
pub type Served = Result<(CubeHandle, ExplainedStrategy), CoreError>;

impl Plane for OlapSession {
    fn graph(&self) -> &Graph {
        self.instance()
    }
    fn plan(&self, eq: &ExtendedQuery) -> ExplainedStrategy {
        self.explain_query(eq)
    }
    fn cubes(&self) -> usize {
        self.len()
    }
    fn answer_query(&mut self, eq: ExtendedQuery) -> Served {
        OlapSession::answer_query(self, eq)
    }
    fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> Served {
        OlapSession::transform(self, h, op)
    }
    fn query_of(&self, h: CubeHandle) -> Option<ExtendedQuery> {
        self.try_query(h).cloned()
    }
    fn with_cube<R>(
        &self,
        h: CubeHandle,
        f: impl FnOnce(&ExtendedQuery, &Cube, &PartialResult) -> R,
    ) -> Option<R> {
        self.try_cube(h).map(|c| f(c.query(), c.answer(), c.pres()))
    }
}

impl Plane for &SharedSession {
    fn graph(&self) -> &Graph {
        self.instance()
    }
    fn plan(&self, eq: &ExtendedQuery) -> ExplainedStrategy {
        self.explain_query(eq)
    }
    fn cubes(&self) -> usize {
        self.len()
    }
    fn answer_query(&mut self, eq: ExtendedQuery) -> Served {
        SharedSession::answer_query(self, eq)
    }
    fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> Served {
        SharedSession::transform(self, h, op)
    }
    fn query_of(&self, h: CubeHandle) -> Option<ExtendedQuery> {
        self.try_query(h).map(|q| (*q).clone())
    }
    /// `SharedSession::snapshot` recomputes an evicted payload, which would
    /// perturb the catalog the workload is measuring. The harness only asks
    /// for cubes the plane has just served or derived from, which are
    /// resident; the rare eviction in between costs one rehydration.
    fn with_cube<R>(
        &self,
        h: CubeHandle,
        f: impl FnOnce(&ExtendedQuery, &Cube, &PartialResult) -> R,
    ) -> Option<R> {
        self.snapshot(h)
            .ok()
            .map(|s| f(s.query(), s.answer(), s.pres()))
    }
}

/// How an operation's kind is decided.
#[derive(Debug, Clone, Copy)]
pub enum KindRule {
    /// The workload knows what it asked for.
    Fixed(Kind),
    /// Decided by how the plane answered: a query seen before is a
    /// [`Kind::Repeat`], a miss a [`Kind::Register`], Algorithm 1 a
    /// [`Kind::DrillOut`], anything else a [`Kind::Dice`].
    ByOutcome {
        /// The same query was already answered by this session.
        seen_before: bool,
    },
}

impl KindRule {
    fn resolve(self, explained: Option<&ExplainedStrategy>) -> Kind {
        match (self, explained) {
            (KindRule::Fixed(kind), _) => kind,
            (KindRule::ByOutcome { seen_before: true }, _) => Kind::Repeat,
            (_, Some(e)) if !e.catalog_hit => Kind::Register,
            (_, Some(e)) if e.strategy == Strategy::Algorithm1 => Kind::DrillOut,
            (_, Some(_)) => Kind::Dice,
            (_, None) => Kind::Register,
        }
    }
}

/// Serves one `answer_query`: times it, checks it, records it and — in the
/// traced phase — replays its layer calls.
pub fn answer<P: Plane>(
    plane: &mut P,
    rec: &mut Recorder,
    rule: KindRule,
    slot: u64,
    eq: &ExtendedQuery,
) -> Option<(CubeHandle, ExplainedStrategy)> {
    serve(plane, rec, rule, slot, Some(eq), |p| {
        p.answer_query(eq.clone())
    })
}

/// Serves one `transform`. In the traced phase the transformed query is
/// built first (as a `session.apply` span — it is the session's own first
/// step) so the planner replay can run against the pre-call catalog.
pub fn transform<P: Plane>(
    plane: &mut P,
    rec: &mut Recorder,
    kind: Kind,
    slot: u64,
    h: CubeHandle,
    op: &OlapOp,
) -> Option<(CubeHandle, ExplainedStrategy)> {
    let mut target = None;
    if let Some(tracer) = rec.tracer.as_mut() {
        if let Some(source) = plane.query_of(h) {
            let (built, _) = tracer.span(None, Layer::Session, "session.apply", || match op {
                OlapOp::RollUp { dim, via } => plane
                    .graph()
                    .dict()
                    .iri_id(via)
                    .and_then(|via| apply_roll_up_encoded(&source, dim, via).ok()),
                _ => apply(&source, op).ok(),
            });
            target = built;
        }
    }
    serve(
        plane,
        rec,
        KindRule::Fixed(kind),
        slot,
        target.as_ref(),
        |p| p.transform(h, op),
    )
}

fn serve<P: Plane>(
    plane: &mut P,
    rec: &mut Recorder,
    rule: KindRule,
    slot: u64,
    target: Option<&ExtendedQuery>,
    call: impl FnOnce(&mut P) -> Served,
) -> Option<(CubeHandle, ExplainedStrategy)> {
    let Some(mut tracer) = rec.tracer.take() else {
        let t = Instant::now();
        let served = call(plane);
        let nanos = t.elapsed().as_nanos() as u64;
        let kind = rule.resolve(served.as_ref().ok().map(|(_, e)| e));
        return finish(plane, rec, kind, slot, nanos, served);
    };

    // The planner replay needs the catalog as it is *before* the call —
    // afterwards the target itself is a (duplicate) candidate.
    if let Some(eq) = target {
        planner::replay(&mut tracer, &*plane, eq);
    }
    let cubes_before = plane.cubes();
    let (served, root) = tracer.span(None, Layer::Session, "session.call", || call(plane));
    let nanos = tracer.duration(root);
    if let Ok((handle, explained)) = &served {
        let materialized = plane.cubes() > cubes_before;
        let target = target.cloned().or_else(|| plane.query_of(*handle));
        if let Some(target) = target {
            // Route replay: a fresh materialisation replays the chosen
            // route; a duplicate replays only the recompute it paid for, if
            // any (stale after an insert, or evicted).
            let rebuilt = if materialized {
                rewrite::replay_route(&mut tracer, root, &*plane, explained, &target)
            } else if explained.rehydrated {
                pres::replay_scratch(&mut tracer, root, plane.graph(), &target)
            } else {
                None
            };
            if let (true, Some((ans, pres)), Some(scratch)) =
                (materialized, rebuilt, rec.scratch.as_mut())
            {
                let watermark = plane.graph().len();
                catalog::replay_insert(&mut tracer, root, scratch, target, ans, pres, watermark);
            }
        }
    }
    let kind = rule.resolve(served.as_ref().ok().map(|(_, e)| e));
    let remainder = tracer.finish_op(root, kind == Kind::Register);
    rec.tracer = Some(tracer);
    if rec.keep {
        rec.overhead.entry(kind).or_default().push(remainder);
    }
    finish(plane, rec, kind, slot, nanos, served)
}

fn finish<P: Plane>(
    plane: &P,
    rec: &mut Recorder,
    kind: Kind,
    slot: u64,
    nanos: u64,
    served: Served,
) -> Option<(CubeHandle, ExplainedStrategy)> {
    match served {
        Ok((handle, explained)) => {
            let outcome = plane
                .with_cube(handle, |_, ans, _| checksum(ans))
                .ok_or_else(|| "answered cube is not readable".to_string());
            rec.record(kind, slot, nanos, outcome);
            Some((handle, explained))
        }
        Err(e) => {
            rec.record(kind, slot, nanos, Err(e.to_string()));
            None
        }
    }
}

/// `shared.vs_session_ratio`: the olap-session script served by a
/// single-threaded [`SharedSession`] ÷ the same script served by an
/// [`OlapSession`], as a ratio of the two median script times. 1.0 means the
/// shared plane's locks and `Arc` snapshots cost nothing when uncontended.
pub fn shared_vs_session_ratio(world: &Graph, budget: crate::bench::Budget) -> f64 {
    use crate::workloads::olap_session::Script;
    let script = Script::parse(world.clone());
    let mut session_ns = Vec::new();
    let mut shared_ns = Vec::new();
    let mut clock = budget.start();
    while clock.again(1, 5) {
        let mut rec = Recorder::keeping(true);
        let mut session = OlapSession::new(script.graph.clone());
        script.run(&mut session, &mut rec);
        session_ns.push(rec.samples.iter().map(|s| s.1).sum::<u64>() as f64);

        let mut rec = Recorder::keeping(true);
        let shared = OlapSession::new(script.graph.clone()).into_shared();
        script.run(&mut &shared, &mut rec);
        shared_ns.push(rec.samples.iter().map(|s| s.1).sum::<u64>() as f64);
    }
    crate::stats::median(&shared_ns) / crate::stats::median(&session_ns).max(1.0)
}
