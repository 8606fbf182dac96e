//! The served-query pipeline: the one body behind `answer_query` and
//! `transform` on both session planes.
//!
//! Every served query is a [`Job`] that moves through phase functions
//! taking a plain catalog reference, so the planes differ only in how they
//! obtain that reference — [`OlapSession`](crate::OlapSession) lends its
//! own catalog, [`SharedSession`](crate::SharedSession) a lock guard:
//!
//! * [`route`] (`&CubeCatalog`) — exact-duplicate probe under the
//!   signature the query carries, planning (or the caller's forced
//!   [`Route`]), and a snapshot of the chosen source when it is servable
//!   as it stands. A fresh duplicate is finished here, without ever
//!   needing `&mut`.
//! * [`execute`] (no catalog at all) — the rewriting over the source
//!   [`CubeSnapshot`], or from-scratch evaluation. This is the expensive
//!   phase, and the one the shared plane runs under no lock.
//! * [`commit`] (`&mut CubeCatalog`) — credits the source, logs the query,
//!   re-probes for a duplicate a racing thread may have registered, and
//!   materializes the result.
//!
//! [`refresh`] is the rare fourth step on the `&mut` side: when the routed
//! entry is stale or evicted it is brought up to date — from the inserted
//! triples alone when it can be — before the job carries on.
//! Each phase returns the [`Step`] that names the next one; a plane's
//! driver is the loop that dispatches on it.

use crate::answer::Cube;
use crate::catalog::{CubeCatalog, CubeSnapshot, Derivation};
use crate::cost::{self, ExplainedStrategy};
use crate::error::CoreError;
use crate::extended::{ExtendedQuery, Sigma, ValueSelector};
use crate::olap::{apply, apply_roll_up_encoded, OlapOp};
use crate::pres::PartialResult;
use crate::rewrite;
use crate::session::{CubeHandle, Strategy};
use rdfcube_obs::{self as obs, QueryTrace};
use rdfcube_rdf::{Dictionary, Graph, TermId};
use std::time::Instant;

/// What both serving entry points return.
pub(crate) type Served = (CubeHandle, ExplainedStrategy);

/// How a job's cells are produced. The catalog entry a route works from is
/// the job's [`ExplainedStrategy::source`]. Crate-private on purpose:
/// [`Derivation`] stays the planner's vocabulary (Propositions 1–3) and
/// [`Strategy`] the user's; ROLL-UP is not something the planner
/// discovers, it is a route `transform` forces.
#[derive(Debug)]
pub(crate) enum Route {
    /// The source entry *is* the answer (an exact duplicate).
    Duplicate,
    /// A planner-picked rewriting over the source (Propositions 1–3).
    Rewrite(Derivation),
    /// `RollUp(source, dim_idx, via)`: the ROLL-UP composition over the
    /// `pres(Q)` of `source`, coarsening dimension `dim_idx` along the
    /// `via` property.
    RollUp(CubeHandle, usize, TermId),
    /// Evaluate on the instance.
    Scratch,
}

/// One served query in flight.
#[derive(Debug)]
pub(crate) struct Job {
    start: Instant,
    eq: ExtendedQuery,
    route: Route,
    explained: ExplainedStrategy,
    /// The source entry's payload, once it is known to be fresh.
    source: Option<CubeSnapshot>,
    /// The stage span (`duplicate`/`derive`/`from_scratch`), opened when
    /// the route is decided so that a refresh of the source nests under
    /// the stage that needed it.
    span: Option<obs::Span>,
}

/// The next phase a job needs; see the [module docs](self).
#[derive(Debug)]
pub(crate) enum Step {
    /// The source entry (its index) is stale or evicted: [`refresh`].
    Refresh(usize, Job),
    /// Ready to compute: [`execute`].
    Execute(Job),
    /// Computed `(ans, pres)`: [`commit`].
    Commit(Job, (Cube, PartialResult)),
    /// Answered.
    Done(Served),
}

/// Builds the target of `op` over the cube `handle` (whose query is
/// `source`). The paper's four operators leave routing to the planner;
/// ROLL-UP comes back with the route that serves it. Its mapping property
/// must already be in the instance's dictionary: the mutation plane
/// interns it first, a shared epoch cannot.
pub(crate) fn transformed(
    instance: &Graph,
    source: &ExtendedQuery,
    handle: CubeHandle,
    op: &OlapOp,
) -> Result<(ExtendedQuery, Option<Route>), CoreError> {
    let OlapOp::RollUp { dim, via } = op else {
        return Ok((apply(source, op)?, None));
    };
    let via = instance.dict().iri_id(via).ok_or_else(|| {
        CoreError::InvalidOperation(format!(
            "roll-up mapping property <{via}> is not in the shared instance's \
             dictionary; apply this roll-up through the mutation plane \
             (OlapSession::transform)"
        ))
    })?;
    let eq = apply_roll_up_encoded(source, dim, via)?;
    let dim_idx = source.query().dim_index(dim)?;
    Ok((eq, Some(Route::RollUp(handle, dim_idx, via))))
}

/// Phase 1, under shared catalog access: decides how `eq` will be answered.
///
/// Deduplication comes first, so the guarantee does not depend on which
/// candidate the cost model happens to pick (or on a forced route): an
/// entry of the family with the same canonical dimensions, the same Σ and
/// the same user-facing dimension names would materialize cell-identically
/// under identical names — reuse it, so repeated traffic cannot grow the
/// catalog. The explanation's figures are plan-time prices
/// ([`cost::price`]) from the entries' cached sizes.
pub(crate) fn route(
    cat: &CubeCatalog,
    instance: &Graph,
    eq: ExtendedQuery,
    forced: Option<Route>,
) -> Result<Step, CoreError> {
    let start = Instant::now();
    let plan_span = obs::span("plan");
    // A route the planner does not pick, explained like one it does.
    let given = |route: Route, strategy, idx: usize| -> Result<_, CoreError> {
        let source = cat.get_entry(idx).ok_or(CoreError::UnknownHandle(idx))?;
        let scratch = cost::scratch_price(&eq, instance);
        let cost = cost::price(&route, source.as_source(instance), &eq, scratch, instance);
        Ok((
            route,
            ExplainedStrategy::hit(strategy, idx, cost, scratch, 1),
        ))
    };
    let (route, explained) = if let Some(idx) = find_duplicate(cat, &eq) {
        given(Route::Duplicate, Strategy::SelectionOnAns, idx)?
    } else if let Some(forced @ Route::RollUp(CubeHandle(idx), ..)) = forced {
        given(forced, Strategy::RollUpComposition, idx)?
    } else {
        plan_in(cat, instance, &eq)
    };
    plan_span.attr("candidates", explained.candidates as u64);
    drop(plan_span);
    record_strategy_span(&explained);

    let span = Some(match route {
        Route::Duplicate => obs::span("duplicate"),
        Route::Rewrite(_) | Route::RollUp(..) => obs::span("derive"),
        Route::Scratch => obs::span("from_scratch"),
    });
    let job = Job {
        start,
        eq,
        route,
        explained,
        source: None,
        span,
    };
    Ok(match job.explained.source {
        None => Step::Execute(job),
        Some(CubeHandle(idx)) => {
            let entry = cat.entry(idx);
            if entry.is_resident() && entry.is_fresh(instance) {
                with_source(cat, idx, job)
            } else {
                Step::Refresh(idx, job)
            }
        }
    })
}

/// The `&mut` step before [`execute`], only for a source entry that is
/// stale (the instance grew past its watermark) or evicted: refreshes or
/// recomputes it ([`CubeCatalog::ensure_resident`]), so no serving path can
/// hand out stale cells.
pub(crate) fn refresh(
    cat: &mut CubeCatalog,
    instance: &Graph,
    idx: usize,
    mut job: Job,
) -> Result<Step, CoreError> {
    job.explained.rehydrated = cat.ensure_resident(idx, instance)?;
    Ok(with_source(cat, idx, job))
}

/// Carries on once source entry `idx` is resident and fresh: a rewriting
/// snapshots it for [`execute`]; a duplicate is finished on the spot.
/// Everything here works through `&CubeCatalog` (recency credit and
/// counters are atomics, the query log has its own mutex), so steady
/// duplicate traffic on the shared plane never takes the write lock.
fn with_source(cat: &CubeCatalog, idx: usize, mut job: Job) -> Step {
    let Route::Duplicate = job.route else {
        job.source = cat.snapshot(idx);
        return Step::Execute(job);
    };
    cat.touch(idx);
    cat.record_hit();
    // The span closes with `job`, so it covers the log bookkeeping below,
    // which is the duplicate's work too.
    if let Some(sp) = &job.span {
        sp.attr("rehydrated", u64::from(job.explained.rehydrated));
    }
    let nanos = job.start.elapsed().as_nanos() as u64;
    cat.record_query(&job.eq, &job.explained, nanos);
    Step::Done((CubeHandle(idx), job.explained))
}

/// Phase 2, with no catalog access: computes `(ans, pres)` of the target
/// from the source snapshot the job carries, or from the instance.
pub(crate) fn execute(instance: &Graph, mut job: Job) -> Result<Step, CoreError> {
    let (eq, explained) = (&job.eq, &job.explained);
    let cells = match (&job.route, &job.source) {
        (Route::Rewrite(d), Some(source)) => derive_with(instance, source, eq, d)?,
        (&Route::RollUp(_, dim_idx, via), Some(source)) => {
            let coarse_name = eq.query().dim_names()[dim_idx];
            rewrite::roll_up_from_pres(source.pres(), dim_idx, via, coarse_name, instance)?
        }
        // Evaluation on the instance answers any query.
        _ => rewrite::from_scratch_with_pres(eq, instance)?,
    };
    if let Some(sp) = job.span.take() {
        let rows_in = job
            .source
            .as_ref()
            .map_or(cells.1.len(), |s| s.answer().len());
        sp.rows(rows_in as u64, cells.0.len() as u64);
        sp.detail(|| explained.strategy.to_string());
        sp.attr("rehydrated", u64::from(explained.rehydrated));
    }
    Ok(Step::Commit(job, cells))
}

/// Phase 3, under exclusive catalog access: books the answered query and
/// materializes its cells, so the result becomes a candidate source for
/// future queries.
pub(crate) fn commit(
    cat: &mut CubeCatalog,
    instance: &Graph,
    job: Job,
    (ans, pres): (Cube, PartialResult),
) -> Result<Step, CoreError> {
    // Hit/miss and the source's LRU/benefit credit are counted only here,
    // once the computation succeeded — a failing rewrite must not inflate
    // counters or eviction scores.
    match job.explained.source {
        Some(source) => {
            cat.touch(source.0);
            cat.record_hit();
        }
        None => cat.record_miss(),
    }
    let nanos = job.start.elapsed().as_nanos() as u64;
    cat.record_query(&job.eq, &job.explained, nanos);
    // On the shared plane a racing thread may have registered the same
    // query while this one computed outside the lock; converge on its
    // entry instead of inserting a copy.
    if let Some(idx) = find_duplicate(cat, &job.eq) {
        cat.ensure_resident(idx, instance)?;
        cat.touch(idx);
        return Ok(Step::Done((CubeHandle(idx), job.explained)));
    }
    let sp = obs::span("materialize");
    sp.rows(ans.len() as u64, ans.len() as u64);
    sp.bytes((ans.approx_bytes() + pres.approx_bytes()) as u64);
    let idx = cat.insert(job.eq, ans, pres, instance.len());
    drop(sp);
    Ok(Step::Done((CubeHandle(idx), job.explained)))
}

/// Runs `serve` under a structured trace and returns the span tree with
/// its result. If a trace is already active on this thread the outer trace
/// wins and the returned trace is empty.
pub(crate) fn traced(
    serve: impl FnOnce() -> Result<Served, CoreError>,
) -> Result<(CubeHandle, ExplainedStrategy, QueryTrace), CoreError> {
    let began = obs::trace_begin("answer_query");
    let result = serve();
    let trace = if began {
        obs::trace_end().unwrap_or_default()
    } else {
        QueryTrace::default()
    };
    let (handle, explained) = result?;
    Ok((handle, explained, trace))
}

/// Plans `eq` without executing or materializing anything.
pub(crate) fn explain(
    cat: &CubeCatalog,
    instance: &Graph,
    eq: &ExtendedQuery,
) -> ExplainedStrategy {
    plan_in(cat, instance, eq).1
}

/// Emits the zero-duration `strategy` marker span carrying the planner's
/// decision, so every trace records the chosen strategy (and its cost
/// evidence) as a span the shape tests can match against the returned
/// [`ExplainedStrategy`]. A no-op branch when untraced.
fn record_strategy_span(explained: &ExplainedStrategy) {
    let sp = obs::span("strategy");
    if sp.active() {
        sp.detail(|| explained.strategy.to_string());
        if explained.estimated_cost.is_finite() {
            sp.attr("estimated_cost", explained.estimated_cost as u64);
        }
        if explained.scratch_cost.is_finite() {
            sp.attr("scratch_cost", explained.scratch_cost as u64);
        }
        sp.attr("candidates", explained.candidates as u64);
        sp.attr("catalog_hit", u64::from(explained.catalog_hit));
    }
}

/// Finds an *exact duplicate* of `eq` in the catalog: an entry of the same
/// derivation family with the same ⊕, identical canonical dimensions,
/// identical Σ, and identical user-facing dimension names. Such an entry
/// would materialize cell-identically under identical names, so serving
/// paths reuse it instead of growing the catalog.
pub(crate) fn find_duplicate(catalog: &CubeCatalog, eq: &ExtendedQuery) -> Option<usize> {
    let sig = eq.query().signature();
    catalog.family(&sig.key).iter().copied().find(|&idx| {
        let e = catalog.entry(idx);
        e.signature().agg == sig.agg
            && e.signature().dims == sig.dims
            && e.query().sigma() == eq.sigma()
            && e.query().query().dim_names() == eq.query().dim_names()
    })
}

/// The planner: probes the catalog through the signature index and prices
/// ([`cost::price`]) every applicable derivation of `eq`; returns the
/// cheapest route (a rewriting only if it beats from-scratch) and its
/// explanation. Family members come in ascending catalog-index order and
/// the strict `<` keeps the first of equal-cost candidates.
pub(crate) fn plan_in(
    catalog: &CubeCatalog,
    instance: &Graph,
    eq: &ExtendedQuery,
) -> (Route, ExplainedStrategy) {
    let sig = eq.query().signature();
    let scratch = cost::scratch_price(eq, instance);
    let mut best: Option<(usize, Route, f64)> = None;
    let mut candidates = 0;
    for &idx in catalog.family(&sig.key) {
        let entry = catalog.entry(idx);
        let Some(d) = entry.classify(sig, eq.sigma()) else {
            continue;
        };
        candidates += 1;
        let route = Route::Rewrite(d);
        let cost = cost::price(&route, entry.as_source(instance), eq, scratch, instance);
        if best.as_ref().is_none_or(|(_, _, c)| cost < *c) {
            best = Some((idx, route, cost));
        }
    }
    match best {
        Some((idx, Route::Rewrite(d), cost)) if cost < scratch => {
            let strategy = cost::strategy_of(&d);
            let explained = ExplainedStrategy::hit(strategy, idx, cost, scratch, candidates);
            (Route::Rewrite(d), explained)
        }
        _ => (
            Route::Scratch,
            ExplainedStrategy::scratch(scratch, candidates),
        ),
    }
}

/// The `pres` a DRILL-OUT (of `removed`) or DRILL-IN (`removed` empty) of
/// `source` towards `target` starts from, and the Σ it obeys: the selectors
/// `target` puts on the dimensions the source already has are applied
/// *before* the algorithm, as from-scratch pushes them into the classifier.
/// They commute with both (a removed dimension is unrestricted by
/// Proposition 2, the drilled-in one is new), and the algorithm then sorts
/// the diced rows only. The table is labelled with the target's ⊕, which
/// its rows do not depend on, so the algorithm's γ is the target's. A
/// table Σ leaves whole is the source's own: the clone shares it.
fn diced_source(
    source: &CubeSnapshot,
    target: &ExtendedQuery,
    removed: &[usize],
    dict: &Dictionary,
) -> (PartialResult, Sigma) {
    let mut kept = target.sigma().selectors().iter().cloned();
    let selector = |i| {
        let carried = (!removed.contains(&i)).then(|| kept.next()).flatten();
        carried.unwrap_or(ValueSelector::All)
    };
    let (pres, agg) = (source.pres(), target.query().agg());
    let sigma = Sigma::from_selectors((0..pres.n_dims()).map(selector).collect());
    let diced = if &sigma == source.query().sigma() {
        pres.clone()
    } else {
        rewrite::dice_pres(pres, &sigma, dict)
    };
    (diced.with_agg(agg), sigma)
}

/// Executes derivation `d` of `target` from a source snapshot.
fn derive_with(
    instance: &Graph,
    source: &CubeSnapshot,
    target: &ExtendedQuery,
    d: &Derivation,
) -> Result<(Cube, PartialResult), CoreError> {
    let dict = instance.dict();
    let (mut ans, mut pres, inherited_sigma) = match d {
        Derivation::Dice => (
            rewrite::dice_from_ans(source.answer(), target.sigma(), dict),
            rewrite::dice_pres(source.pres(), target.sigma(), dict),
            target.sigma().clone(),
        ),
        Derivation::DrillOut(removed) => {
            let (diced, sigma) = diced_source(source, target, removed, dict);
            let (ans, pres) = rewrite::drill_out_from_pres(&diced, removed, dict)?;
            (ans, pres, sigma.without_dims(removed))
        }
        Derivation::DrillIn(var) => {
            let (diced, sigma) = diced_source(source, target, &[], dict);
            let original = source.query().query();
            let (ans, pres) = rewrite::drill_in_from_pres(original, &diced, *var, instance)?;
            (ans, pres, sigma.with_new_dim())
        }
    };
    // Only a restricted *new* dimension is left to apply.
    if target.sigma() != &inherited_sigma {
        ans = rewrite::dice_from_ans(&ans, target.sigma(), dict);
        pres = rewrite::dice_pres(&pres, target.sigma(), dict);
    }
    let names = || {
        target
            .query()
            .dim_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    };
    Ok((ans.with_dim_names(names()), pres.with_dim_names(names())))
}
