//! OLAP sessions: a cost-based cube catalog + automatic rewriting-based
//! answering.
//!
//! The session is the end-to-end embodiment of the paper's Figure 2: it
//! holds an AnS instance and a [`CubeCatalog`] of materialized cubes
//! (`ans(Q)` + `pres(Q)` per registered query), and answers each OLAP
//! transformation with the *cheapest sound* strategy:
//!
//! * SLICE/DICE whose Σ refines a source's → σ over `ans(Q)` (Prop. 1);
//! * DRILL-OUT with unrestricted Σ on the removed dimensions → Algorithm 1
//!   on `pres(Q)` (Prop. 2);
//! * DRILL-IN → Algorithm 2 on `pres(Q)` plus the instance (Prop. 3);
//! * from-scratch evaluation, always applicable.
//!
//! Soundness (which derivations are *applicable*) is decided by the
//! catalog's classifier; *which* applicable route runs is decided by the
//! cost model ([`crate::cost`]) from materialized sizes and instance
//! statistics — there is no fixed preference order. The decision and its
//! evidence come back as an [`ExplainedStrategy`].
//!
//! Candidate sources are found through the catalog's
//! [`ViewKey`](crate::signature::ViewKey) index in
//! O(1) per query (one family probe), not by rescanning every cube; and a
//! session opened with [`OlapSession::with_budget`] keeps at most that
//! many bytes of materialized payload resident, evicting cold cubes'
//! payloads (benefit-weighted LRU) while keeping their handles valid —
//! an evicted cube is recomputed transparently the next time it is
//! touched.
//!
//! Every transformation materializes its result, so chains of operations
//! (slice → drill-out → drill-in → …) keep reusing prior work.

use crate::anq::AnalyticalQuery;
use crate::answer::Cube;
use crate::catalog::CubeCatalog;
use crate::cost::ExplainedStrategy;
use crate::error::CoreError;
use crate::extended::ExtendedQuery;
use crate::olap::OlapOp;
use crate::pipeline::{self, Route, Served, Step};
use crate::pres::PartialResult;
use crate::shared::SharedSession;
use rdfcube_engine::AggFunc;
use rdfcube_obs::QueryTrace;
use rdfcube_rdf::{Graph, Term, Triple};
use std::fmt;
use std::sync::Arc;

/// Handle to a materialized cube within a session. Handles stay valid for
/// the lifetime of the session even in budgeted sessions — eviction drops
/// a cube's payload, not its catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CubeHandle(pub(crate) usize);

/// How a transformed cube's answer was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// σ_dice over the materialized `ans(Q)` (Proposition 1).
    SelectionOnAns,
    /// Algorithm 1 over `pres(Q)` (Proposition 2).
    Algorithm1,
    /// Algorithm 2 over `pres(Q)` + the instance (Proposition 3).
    Algorithm2,
    /// The roll-up composition of Algorithms 1 and 2 over `pres(Q)` + the
    /// instance (extension; see [`crate::rewrite::roll_up_from_pres`]).
    RollUpComposition,
    /// Full re-evaluation on the instance (no sound rewriting available,
    /// or every applicable one was estimated more expensive).
    FromScratch,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::SelectionOnAns => "selection over ans(Q)",
            Strategy::Algorithm1 => "Algorithm 1 over pres(Q)",
            Strategy::Algorithm2 => "Algorithm 2 over pres(Q) + instance",
            Strategy::RollUpComposition => "roll-up composition over pres(Q) + instance",
            Strategy::FromScratch => "from-scratch evaluation",
        };
        f.write_str(s)
    }
}

/// A borrowed view of one materialized cube: its extended query, answer,
/// and partial result.
///
/// Obtained from [`OlapSession::cube`]; in a budgeted session the payload
/// must be resident (see [`OlapSession::touch`]).
#[derive(Debug, Clone, Copy)]
pub struct MaterializedCube<'a> {
    eq: &'a ExtendedQuery,
    ans: &'a Cube,
    pres: &'a PartialResult,
}

impl<'a> MaterializedCube<'a> {
    /// The extended query that defines the cube.
    pub fn query(&self) -> &'a ExtendedQuery {
        self.eq
    }

    /// The materialized answer `ans(Q)`.
    pub fn answer(&self) -> &'a Cube {
        self.ans
    }

    /// The materialized partial result `pres(Q)`.
    pub fn pres(&self) -> &'a PartialResult {
        self.pres
    }
}

/// An interactive OLAP session over one AnS instance.
///
/// The session doubles as the **mutation plane** of the concurrent
/// architecture: it owns `&mut` access to the instance
/// ([`Self::insert`], [`Self::parse_query`]'s dictionary interning) and
/// to the catalog. For serving the same catalog to many threads at once,
/// convert it into a [`SharedSession`] with [`Self::into_shared`] and
/// back with [`SharedSession::into_session`] — the two types alternate
/// as serve/mutate epochs over the same `Arc`-shared data.
#[derive(Debug)]
pub struct OlapSession {
    instance: Arc<Graph>,
    catalog: CubeCatalog,
}

impl OlapSession {
    /// Opens a session over a materialized analytical-schema instance,
    /// with no memory budget (nothing is ever evicted).
    ///
    /// The instance is compacted up front: OLAP sessions are read-heavy, so
    /// any pending insert delta is folded into the store's sorted CSR runs
    /// once, and every BGP evaluation afterwards is a pure index scan.
    pub fn new(mut instance: Graph) -> Self {
        instance.compact();
        OlapSession {
            instance: Arc::new(instance),
            catalog: CubeCatalog::new(),
        }
    }

    /// Opens a session over the instance repartitioned into `shards`
    /// subject-hash shards (see [`Graph::with_shards`]): a large bulk load
    /// then sorts and merges the shards' slices in parallel. Reads
    /// enumerate the flat store's order at any shard count, so BGP
    /// evaluation does not work per shard and answers are bit-identical;
    /// its only fan-out is by row chunks, raised with
    /// [`rdfcube_engine::set_eval_threads`]. Like [`Self::new`], the
    /// instance is compacted up front — resharding folds the delta in as a
    /// side effect.
    pub fn with_shards(mut instance: Graph, shards: usize) -> Self {
        instance.set_shard_count(shards);
        Self::new(instance)
    }

    /// Reassembles a session from its shared parts (the
    /// [`SharedSession`] round trip).
    pub(crate) fn from_parts(instance: Arc<Graph>, catalog: CubeCatalog) -> Self {
        OlapSession { instance, catalog }
    }

    /// Converts this session into a [`SharedSession`]: an immutable,
    /// `Send + Sync` query plane over the same instance and catalog that
    /// any number of threads can query concurrently. No cube data is
    /// copied — the instance and all payloads travel behind their `Arc`s.
    pub fn into_shared(self) -> SharedSession {
        SharedSession::from_parts(self.instance, self.catalog)
    }

    /// Opens a session that keeps at most `budget_bytes` of materialized
    /// cube payload (`ans(Q)` + `pres(Q)`, by `approx_bytes`) resident.
    ///
    /// When the budget overflows, cold cubes are evicted by
    /// benefit-weighted LRU: their payloads are dropped but their catalog
    /// entries (query, signature, statistics) remain, so handles stay
    /// valid and the cube is recomputed on demand when touched again. The
    /// most recently produced cube is always kept resident — even if it
    /// alone exceeds the budget — so results are readable immediately.
    pub fn with_budget(instance: Graph, budget_bytes: usize) -> Self {
        let mut s = Self::new(instance);
        s.catalog.set_budget(Some(budget_bytes));
        s
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Graph {
        &self.instance
    }

    /// The cube catalog: budget, resident bytes, hit/miss/eviction counters, and
    /// per-entry statistics.
    pub fn catalog(&self) -> &CubeCatalog {
        &self.catalog
    }

    /// Parses an analytical query from the paper's notation against this
    /// session's instance (constants are interned into its dictionary),
    /// without materializing anything. Combine with [`Self::answer_query`]
    /// or [`ExtendedQuery::with_sigma`].
    pub fn parse_query(
        &mut self,
        classifier: &str,
        measure: &str,
        agg: AggFunc,
    ) -> Result<ExtendedQuery, CoreError> {
        let dict = Arc::make_mut(&mut self.instance).dict_mut();
        let q = AnalyticalQuery::parse(classifier, measure, agg, dict)?;
        Ok(ExtendedQuery::from_query(q))
    }

    /// Inserts one triple into the instance (the thin mutation plane).
    /// Returns `true` if the triple was new.
    ///
    /// Materialized cubes are **not** updated eagerly: every entry
    /// carries the triple-count watermark it was built at, and
    /// [`Self::answer_query`]/[`Self::transform`] refresh a cube the next
    /// time it is asked to serve after the watermark moved — from the
    /// triples inserted since, as long as the store's insertion log still
    /// names them ([`CubeCatalog::ensure_resident`]). Direct handle
    /// reads ([`Self::cube`], [`Self::answer`]) keep returning the cells
    /// materialized at the cube's watermark until [`Self::touch`] or a
    /// query refreshes them.
    ///
    /// If snapshots from a previous shared epoch are still alive, the
    /// instance is cloned once (copy-on-write) so those readers keep
    /// their consistent view.
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        Arc::make_mut(&mut self.instance).insert(s, p, o)
    }

    /// Bulk [`Self::insert`]; returns how many triples were new.
    ///
    /// The batch goes to the store as one batch
    /// ([`Graph::bulk_insert_ids`]): a small one rides the delta runs and
    /// the insertion log, so stale cubes refresh from its triples alone; a
    /// large one is merged into the sorted runs in one pass and leaves no
    /// delta behind (stale cubes are then recomputed — on a compacted
    /// store).
    pub fn insert_triples<I>(&mut self, triples: I) -> usize
    where
        I: IntoIterator<Item = (Term, Term, Term)>,
    {
        let g = Arc::make_mut(&mut self.instance);
        let encode = |(s, p, o): (Term, Term, Term)| {
            let dict = g.dict_mut();
            Triple::new(
                dict.encode_owned(s),
                dict.encode_owned(p),
                dict.encode_owned(o),
            )
        };
        let batch: Vec<Triple> = triples.into_iter().map(encode).collect();
        g.bulk_insert_ids(batch)
    }

    /// Parses, validates and materializes a cube from the paper's notation.
    pub fn register(
        &mut self,
        classifier: &str,
        measure: &str,
        agg: AggFunc,
    ) -> Result<CubeHandle, CoreError> {
        let eq = self.parse_query(classifier, measure, agg)?;
        self.register_query(eq)
    }

    /// Materializes an already-built extended query.
    pub fn register_query(&mut self, eq: ExtendedQuery) -> Result<CubeHandle, CoreError> {
        let pres = PartialResult::compute(&eq, &self.instance)?;
        let ans = pres.to_cube(self.instance.dict())?;
        let watermark = self.instance.len();
        Ok(CubeHandle(self.catalog.insert(eq, ans, pres, watermark)))
    }

    /// The materialized cube behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different session, or (in a
    /// budgeted session) if the cube's payload is currently evicted —
    /// call [`Self::touch`] first to recompute it, or use
    /// [`Self::try_cube`]/[`Self::cube_checked`] to observe the failure
    /// without panicking. (Unbudgeted sessions never evict.)
    pub fn cube(&self, handle: CubeHandle) -> MaterializedCube<'_> {
        self.cube_checked(handle)
            .unwrap_or_else(|e| panic!("{e}; call OlapSession::touch(handle) or use cube_checked"))
    }

    /// The materialized cube behind `handle`, or a typed [`CoreError`]
    /// telling apart a foreign handle from an evicted payload. The
    /// fallible accessor every internal (library) caller goes through —
    /// only [`Self::cube`] itself turns the error into a panic.
    pub fn cube_checked(&self, handle: CubeHandle) -> Result<MaterializedCube<'_>, CoreError> {
        let entry = self
            .catalog
            .get_entry(handle.0)
            .ok_or(CoreError::UnknownHandle(handle.0))?;
        let (ans, pres) = entry
            .payload()
            .ok_or(CoreError::CubeNotResident(handle.0))?;
        Ok(MaterializedCube {
            eq: entry.query(),
            ans,
            pres,
        })
    }

    /// The materialized cube behind `handle`, or `None` while its payload
    /// is evicted (or the handle is foreign). The `Option` counterpart of
    /// [`Self::cube_checked`] for callers that poll rather than
    /// [`Self::touch`].
    pub fn try_cube(&self, handle: CubeHandle) -> Option<MaterializedCube<'_>> {
        self.cube_checked(handle).ok()
    }

    /// Shorthand for the answer of `handle` (same residency requirement as
    /// [`Self::cube`]).
    pub fn answer(&self, handle: CubeHandle) -> &Cube {
        self.cube(handle).ans
    }

    /// The extended query of `handle` — available whether or not the
    /// payload is resident.
    ///
    /// # Panics
    /// Panics on a foreign handle; see [`Self::try_query`].
    pub fn query(&self, handle: CubeHandle) -> &ExtendedQuery {
        self.try_query(handle)
            .unwrap_or_else(|| panic!("{}", CoreError::UnknownHandle(handle.0)))
    }

    /// The extended query of `handle`, or `None` for a foreign handle.
    pub fn try_query(&self, handle: CubeHandle) -> Option<&ExtendedQuery> {
        self.catalog.get_entry(handle.0).map(|e| e.query())
    }

    /// True if the cube's payload is materialized right now (false for
    /// foreign handles).
    pub fn is_resident(&self, handle: CubeHandle) -> bool {
        self.catalog
            .get_entry(handle.0)
            .is_some_and(|e| e.is_resident())
    }

    /// True if the cube's payload reflects the instance's current triple
    /// count (false after [`Self::insert`] until the cube refreshes, and
    /// for foreign handles).
    pub fn is_fresh(&self, handle: CubeHandle) -> bool {
        self.catalog
            .get_entry(handle.0)
            .is_some_and(|e| e.is_fresh(&self.instance))
    }

    /// Marks the cube as used (for the eviction policy) and recomputes its
    /// payload if it was evicted or went stale behind an insert. Returns
    /// `true` if a recompute happened.
    pub fn touch(&mut self, handle: CubeHandle) -> Result<bool, CoreError> {
        let recomputed = self.catalog.ensure_resident(handle.0, &self.instance)?;
        self.catalog.touch(handle.0);
        Ok(recomputed)
    }

    /// Number of materialized cubes (including evicted entries).
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// True if no cube is materialized.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }

    /// The paper's problem statement in its general form: answers an
    /// *arbitrary* extended query by probing the catalog for cubes it can
    /// be soundly derived from — same canonical classifier body and
    /// measure (up to variable renaming and pattern order, see
    /// [`crate::signature`]) with compatibly related dimensions and Σ, under
    /// any ⊕ for the routes over `pres(Q)` — and running the cheapest
    /// estimated route among the applicable derivations and from-scratch
    /// evaluation.
    ///
    /// The answered query is materialized either way, so it becomes a
    /// candidate source for future queries — except when it is an *exact
    /// duplicate* of an existing cube (identity dice with equal ⊕, equal Σ
    /// and equal dimension names): then the existing handle is returned
    /// directly, so repeated traffic for the same query cannot grow the
    /// catalog (or its family index) without bound.
    pub fn answer_query(
        &mut self,
        eq: ExtendedQuery,
    ) -> Result<(CubeHandle, ExplainedStrategy), CoreError> {
        self.serve(eq, None)
    }

    /// Drives one query through the pipeline ([`crate::pipeline`]): this
    /// plane owns its catalog, so every phase borrows it directly and no
    /// lock exists anywhere.
    fn serve(&mut self, eq: ExtendedQuery, forced: Option<Route>) -> Result<Served, CoreError> {
        let mut step = pipeline::route(&self.catalog, &self.instance, eq, forced)?;
        loop {
            step = match step {
                Step::Refresh(idx, job) => {
                    pipeline::refresh(&mut self.catalog, &self.instance, idx, job)?
                }
                Step::Execute(job) => pipeline::execute(&self.instance, job)?,
                Step::Commit(job, cells) => {
                    pipeline::commit(&mut self.catalog, &self.instance, job, cells)?
                }
                Step::Done(served) => return Ok(served),
            };
        }
    }

    /// [`Self::answer_query`] under a structured trace: brackets the call
    /// in a [`QueryTrace`] whose span tree records where the answer's
    /// time, rows and bytes went (`plan → strategy → duplicate/derive/
    /// from_scratch (→ BGP steps, join, group-aggregate, cube build) →
    /// materialize`), returned alongside the usual handle and
    /// [`ExplainedStrategy`]. Render it with [`QueryTrace::render`] or
    /// [`crate::explain_analyze`].
    ///
    /// Only this call is traced: concurrent queries on other threads (and
    /// untraced queries on this one) pay a single atomic-load branch per
    /// instrumented stage. If a trace is already active on this thread,
    /// the outer trace wins and the returned trace is empty.
    pub fn answer_traced(
        &mut self,
        eq: ExtendedQuery,
    ) -> Result<(CubeHandle, ExplainedStrategy, QueryTrace), CoreError> {
        pipeline::traced(|| self.answer_query(eq))
    }

    /// Runs one workload-driven view-selection cycle (see
    /// [`crate::advisor`]): mines the catalog's query log and materializes
    /// the unrestricted apex of each logged family, hottest first, while
    /// the session's memory budget holds. A no-op when the log has not
    /// grown since the last run, so calling it repeatedly is idempotent.
    pub fn advise(&mut self) -> Result<crate::advisor::AdvisorReport, CoreError> {
        crate::advisor::advise_catalog(&mut self.catalog, &self.instance)
    }

    /// Plans `eq` without executing or materializing anything: probes the
    /// catalog index, classifies the candidate family, costs every
    /// applicable derivation, and returns the would-be choice.
    ///
    /// This is the strategy-selection path `olapbench`'s `planner.plan_us`
    /// measures.
    pub fn explain_query(&self, eq: &ExtendedQuery) -> ExplainedStrategy {
        pipeline::explain(&self.catalog, &self.instance, eq)
    }

    /// Applies an OLAP operation to a materialized cube, answering the
    /// transformed query with the cheapest sound strategy the catalog
    /// offers (any materialized cube may serve as the source, not just
    /// `handle`); materializes and returns the new cube plus the explained
    /// strategy that produced it. ROLL-UP is always composed over
    /// `handle`'s own `pres(Q)`. Like any served query, a transformation
    /// that was already answered returns the existing handle.
    pub fn transform(
        &mut self,
        handle: CubeHandle,
        op: &OlapOp,
    ) -> Result<(CubeHandle, ExplainedStrategy), CoreError> {
        // ROLL-UP's mapping property is interned first: this plane may
        // grow the dictionary.
        if let OlapOp::RollUp { via, .. } = op {
            let dict = Arc::make_mut(&mut self.instance).dict_mut();
            dict.encode_owned(Term::iri(via.as_str()));
        }
        let source_eq = self
            .try_query(handle)
            .ok_or(CoreError::UnknownHandle(handle.0))?;
        let (eq, forced) = pipeline::transformed(&self.instance, source_eq, handle, op)?;
        self.serve(eq, forced)
    }

    /// [`Self::transform`] under a structured trace, the way
    /// [`Self::answer_traced`] wraps [`Self::answer_query`]. The trace is
    /// empty if another trace is already active on this thread.
    pub fn transform_traced(
        &mut self,
        handle: CubeHandle,
        op: &OlapOp,
    ) -> Result<(CubeHandle, ExplainedStrategy, QueryTrace), CoreError> {
        pipeline::traced(|| self.transform(handle, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extended::ValueSelector;
    use rdfcube_engine::AggValue;
    use rdfcube_rdf::{parse_turtle, Term};

    fn session() -> OlapSession {
        let instance = parse_turtle(
            "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user4> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user1> <wrotePost> <p1>, <p2>, <p3> .
             <p1> <postedOn> <s1> . <p2> <postedOn> <s1> . <p3> <postedOn> <s2> .
             <user3> <wrotePost> <p4> . <p4> <postedOn> <s2> .
             <user4> <wrotePost> <p5> . <p5> <postedOn> <s3> .",
        )
        .unwrap();
        OlapSession::new(instance)
    }

    fn register_example_1(s: &mut OlapSession) -> CubeHandle {
        s.register(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
            AggFunc::Count,
        )
        .unwrap()
    }

    #[test]
    fn register_materializes_ans_and_pres() {
        let mut s = session();
        let h = register_example_1(&mut s);
        assert_eq!(s.answer(h).len(), 2);
        assert_eq!(s.cube(h).pres().len(), 5);
        assert_eq!(s.len(), 1);
        assert!(s.is_resident(h));
        assert!(s.catalog().budget().is_none());
    }

    #[test]
    fn slice_uses_selection_on_ans() {
        let mut s = session();
        let h = register_example_1(&mut s);
        let (h2, strategy) = s
            .transform(
                h,
                &OlapOp::Slice {
                    dim: "dage".into(),
                    value: Term::integer(35),
                },
            )
            .unwrap();
        assert_eq!(strategy, Strategy::SelectionOnAns);
        assert!(strategy.catalog_hit);
        assert_eq!(strategy.source, Some(h));
        assert!(strategy.estimated_cost < strategy.scratch_cost);
        assert_eq!(s.answer(h2).len(), 1);
        // Verified against scratch.
        let scratch = s.cube(h2).query().answer(s.instance()).unwrap();
        assert!(s.answer(h2).same_cells(&scratch));
    }

    #[test]
    fn widening_dice_is_served_by_the_broadest_source() {
        let mut s = session();
        let h = register_example_1(&mut s);
        let (h2, st2) = s
            .transform(
                h,
                &OlapOp::Slice {
                    dim: "dage".into(),
                    value: Term::integer(35),
                },
            )
            .unwrap();
        assert_eq!(st2, Strategy::SelectionOnAns);
        // Widen back to {28, 35}: not a refinement of the sliced cube, but
        // the catalog finds the original unrestricted cube and answers by
        // σ over it (the pre-catalog session, which only ever looked at
        // the direct source, fell back to from-scratch here).
        let (h3, st3) = s
            .transform(
                h2,
                &OlapOp::Dice {
                    constraints: vec![(
                        "dage".into(),
                        ValueSelector::OneOf(vec![Term::integer(28), Term::integer(35)]),
                    )],
                },
            )
            .unwrap();
        assert_eq!(st3, Strategy::SelectionOnAns);
        assert_eq!(st3.source, Some(h), "served from the unrestricted cube");
        assert_eq!(s.answer(h3).len(), 2);
        let scratch = s.cube(h3).query().answer(s.instance()).unwrap();
        assert!(s.answer(h3).same_cells(&scratch));
    }

    #[test]
    fn drill_out_uses_algorithm_1() {
        let mut s = session();
        let h = register_example_1(&mut s);
        let (h2, strategy) = s
            .transform(
                h,
                &OlapOp::DrillOut {
                    dims: vec!["dage".into()],
                },
            )
            .unwrap();
        assert_eq!(strategy, Strategy::Algorithm1);
        let scratch = s.cube(h2).query().answer(s.instance()).unwrap();
        assert!(s.answer(h2).same_cells(&scratch));
    }

    #[test]
    fn drill_out_of_sliced_dim_is_rerouted_to_a_sound_source() {
        let mut s = session();
        let h = register_example_1(&mut s);
        let (h2, _) = s
            .transform(
                h,
                &OlapOp::Slice {
                    dim: "dage".into(),
                    value: Term::integer(35),
                },
            )
            .unwrap();
        // Dropping the sliced dimension re-admits the sliced-out rows, so
        // the sliced cube itself is NOT a sound Algorithm 1 source; the
        // catalog derives from the unrestricted original instead.
        let (h3, strategy) = s
            .transform(
                h2,
                &OlapOp::DrillOut {
                    dims: vec!["dage".into()],
                },
            )
            .unwrap();
        assert_eq!(strategy, Strategy::Algorithm1);
        assert_eq!(strategy.source, Some(h), "sliced cube must not serve");
        // user1's posts are back in scope — the slice was not leaked.
        let cube = s.answer(h3);
        let ny = s.instance().dict().id(&Term::literal("NY")).unwrap();
        let madrid = s.instance().dict().id(&Term::literal("Madrid")).unwrap();
        assert_eq!(cube.get(&[ny]), Some(&AggValue::Int(2)));
        assert_eq!(cube.get(&[madrid]), Some(&AggValue::Int(3)));
        let scratch = s.cube(h3).query().answer(s.instance()).unwrap();
        assert!(s.answer(h3).same_cells(&scratch));
    }

    #[test]
    fn drill_out_falls_back_when_no_sound_source_exists() {
        // Only a *sliced* cube is materialized: dropping its restricted
        // dimension has no sound source anywhere in the catalog.
        let mut s = session();
        let mut eq = s
            .parse_query(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
                AggFunc::Count,
            )
            .unwrap();
        let mut sigma = crate::extended::Sigma::all(2);
        sigma.set(0, ValueSelector::one(Term::integer(35)));
        eq = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();
        let h = s.register_query(eq).unwrap();
        let (h2, strategy) = s
            .transform(
                h,
                &OlapOp::DrillOut {
                    dims: vec!["dage".into()],
                },
            )
            .unwrap();
        assert_eq!(strategy, Strategy::FromScratch);
        assert!(!strategy.catalog_hit);
        let scratch = s.cube(h2).query().answer(s.instance()).unwrap();
        assert!(s.answer(h2).same_cells(&scratch));
    }

    #[test]
    fn drill_out_on_remaining_restriction_still_uses_algorithm_1() {
        let mut s = session();
        let h = register_example_1(&mut s);
        let (h2, _) = s
            .transform(
                h,
                &OlapOp::Slice {
                    dim: "dcity".into(),
                    value: Term::literal("NY"),
                },
            )
            .unwrap();
        // Removing dage (unrestricted) keeps the dcity slice intact.
        let (h3, strategy) = s
            .transform(
                h2,
                &OlapOp::DrillOut {
                    dims: vec!["dage".into()],
                },
            )
            .unwrap();
        assert_eq!(strategy, Strategy::Algorithm1);
        let scratch = s.cube(h3).query().answer(s.instance()).unwrap();
        assert!(s.answer(h3).same_cells(&scratch));
    }

    #[test]
    fn drill_in_uses_algorithm_2_and_chains() {
        let mut s = session();
        let h = register_example_1(&mut s);
        // drill-out dage, then drill it back in: Example 3's round trip.
        let (h2, _) = s
            .transform(
                h,
                &OlapOp::DrillOut {
                    dims: vec!["dage".into()],
                },
            )
            .unwrap();
        let (h3, strategy) = s
            .transform(h2, &OlapOp::DrillIn { var: "dage".into() })
            .unwrap();
        assert_eq!(strategy, Strategy::Algorithm2);
        let scratch = s.cube(h3).query().answer(s.instance()).unwrap();
        assert!(s.answer(h3).same_cells(&scratch));
        // Same cells as the original cube, modulo dimension order
        // (dcity, dage) vs (dage, dcity).
        assert_eq!(s.answer(h3).len(), s.answer(h).len());
    }

    /// Helper: an independently-written extended query over the session's
    /// instance (fresh variable names, different pattern order).
    fn independent_query(
        s: &mut OlapSession,
        classifier: &str,
        measure: &str,
        agg: AggFunc,
    ) -> ExtendedQuery {
        s.parse_query(classifier, measure, agg).unwrap()
    }

    #[test]
    fn answer_query_recognizes_renamed_dice() {
        let mut s = session();
        register_example_1(&mut s);
        // Same query, different variable names and pattern order, sliced.
        let mut eq = independent_query(
            &mut s,
            "k(?u, ?years, ?town) :- ?u livesIn ?town, ?u hasAge ?years, ?u rdf:type Blogger",
            "w(?u, ?s) :- ?u wrotePost ?q, ?q postedOn ?s, ?u rdf:type Blogger",
            AggFunc::Count,
        );
        let mut sigma = crate::extended::Sigma::all(2);
        sigma.set(0, ValueSelector::one(Term::integer(35)));
        eq = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();

        let (h, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(strategy, Strategy::SelectionOnAns);
        assert_eq!(strategy.candidates, 1);
        // Stored under the new query's own dimension names.
        assert_eq!(
            s.answer(h).dim_names(),
            &["years".to_string(), "town".to_string()]
        );
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
    }

    #[test]
    fn answer_query_derives_drill_out_from_materialization() {
        let mut s = session();
        register_example_1(&mut s);
        // A 1-D query whose body matches the registered 2-D cube.
        let eq = independent_query(
            &mut s,
            "k(?u, ?town) :- ?u rdf:type Blogger, ?u hasAge ?age, ?u livesIn ?town",
            "w(?u, ?s) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?s",
            AggFunc::Count,
        );
        let (h, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(strategy, Strategy::Algorithm1);
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
    }

    #[test]
    fn answer_query_derives_drill_in_from_materialization() {
        let mut s = session();
        // Register a 1-D cube whose classifier mentions the city
        // existentially…
        s.register(
            "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?c",
            "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
            AggFunc::Count,
        )
        .unwrap();
        // …then ask the 2-D version: served by Algorithm 2.
        let eq = independent_query(
            &mut s,
            "k(?u, ?years, ?town) :- ?u rdf:type Blogger, ?u hasAge ?years, ?u livesIn ?town",
            "w(?u, ?s) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?s",
            AggFunc::Count,
        );
        let (h, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(strategy, Strategy::Algorithm2);
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
    }

    #[test]
    fn answer_query_falls_back_on_unrelated_queries() {
        let mut s = session();
        register_example_1(&mut s);
        // Different measure ⇒ no derivation.
        let eq = independent_query(
            &mut s,
            "k(?u, ?town) :- ?u rdf:type Blogger, ?u livesIn ?town",
            "w(?u, ?q) :- ?u wrotePost ?q",
            AggFunc::Count,
        );
        let (h, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(strategy, Strategy::FromScratch);
        assert_eq!(strategy.candidates, 0);
        assert_eq!(s.catalog().counters().misses, 1);
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
    }

    #[test]
    fn answer_query_respects_sigma_soundness() {
        let mut s = session();
        let h = register_example_1(&mut s);
        // Slice the source on dage…
        let (sliced, _) = s
            .transform(
                h,
                &OlapOp::Slice {
                    dim: "dage".into(),
                    value: Term::integer(35),
                },
            )
            .unwrap();
        let _ = sliced;
        // …then ask an unrestricted 1-D drill-out of dage. The sliced cube
        // must NOT be used (its removed dim is restricted); the original
        // 2-D cube (unrestricted) is a sound source via Algorithm 1.
        let eq = independent_query(
            &mut s,
            "k(?u, ?town) :- ?u rdf:type Blogger, ?u hasAge ?age, ?u livesIn ?town",
            "w(?u, ?x) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?x",
            AggFunc::Count,
        );
        let (h2, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(strategy, Strategy::Algorithm1);
        assert_eq!(strategy.source, Some(h));
        let scratch = s.cube(h2).query().answer(s.instance()).unwrap();
        assert!(s.answer(h2).same_cells(&scratch));
        let madrid = s.instance().dict().id(&Term::literal("Madrid")).unwrap();
        // user1's three posts are present — the slice was not leaked.
        assert_eq!(s.answer(h2).get(&[madrid]), Some(&AggValue::Int(3)));
    }

    #[test]
    fn answer_query_combines_drill_out_with_dice() {
        let mut s = session();
        register_example_1(&mut s);
        // 1-D (city) with a restriction on the kept dim: Algorithm 1 then σ.
        let eq = independent_query(
            &mut s,
            "k(?u, ?town) :- ?u rdf:type Blogger, ?u hasAge ?age, ?u livesIn ?town",
            "w(?u, ?x) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?x",
            AggFunc::Count,
        );
        let mut sigma = crate::extended::Sigma::all(1);
        sigma.set(0, ValueSelector::one(Term::literal("NY")));
        let eq = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();
        let (h, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(strategy, Strategy::Algorithm1);
        assert_eq!(s.answer(h).len(), 1);
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
    }

    #[test]
    fn explain_query_plans_without_materializing() {
        let mut s = session();
        register_example_1(&mut s);
        let eq = independent_query(
            &mut s,
            "k(?u, ?town) :- ?u rdf:type Blogger, ?u hasAge ?age, ?u livesIn ?town",
            "w(?u, ?x) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?x",
            AggFunc::Count,
        );
        let explained = s.explain_query(&eq);
        assert_eq!(explained, Strategy::Algorithm1);
        assert!(explained.catalog_hit);
        assert_eq!(s.len(), 1, "planning must not materialize");
    }

    #[test]
    fn budgeted_session_evicts_and_rehydrates_transparently() {
        let instance = Arc::unwrap_or_clone(session().instance);
        // Measure one cube's footprint in an unbudgeted dry run.
        let mut probe = OlapSession::new(instance.clone());
        let h0 = register_example_1(&mut probe);
        let one = probe.cube(h0).answer().approx_bytes() + probe.cube(h0).pres().approx_bytes();

        let mut s = OlapSession::with_budget(instance, one + one / 2);
        let h = register_example_1(&mut s);
        // A second, derived cube pushes the first out...
        let (h2, _) = s
            .transform(
                h,
                &OlapOp::DrillOut {
                    dims: vec!["dage".into()],
                },
            )
            .unwrap();
        assert!(s.catalog().counters().evictions >= 1);
        assert!(s.catalog().resident_bytes() <= s.catalog().budget().unwrap());
        // ...but its handle still works: touch rehydrates.
        if !s.is_resident(h) {
            assert!(s.touch(h).unwrap());
        }
        assert_eq!(s.answer(h).len(), 2);
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
        // Touching h may have pushed h2 out in turn; its handle also
        // survives the round trip. try_cube reports residency without
        // panicking either way.
        if s.try_cube(h2).is_none() {
            s.touch(h2).unwrap();
        }
        let scratch2 = s.cube(h2).query().answer(s.instance()).unwrap();
        assert!(s.answer(h2).same_cells(&scratch2));
    }

    #[test]
    fn exact_duplicate_queries_reuse_the_existing_entry() {
        let mut s = session();
        let h = register_example_1(&mut s);
        // Same query re-posed verbatim (same Σ, same dimension names, only
        // variable names and pattern order changed — the canonical dims
        // resolve to the same user-facing names here because the query
        // keeps them): the catalog returns the existing handle instead of
        // materializing a copy.
        let eq = independent_query(
            &mut s,
            "k(?u, ?dage, ?dcity) :- ?u livesIn ?dcity, ?u hasAge ?dage, ?u rdf:type Blogger",
            "w(?u, ?s) :- ?u wrotePost ?q, ?q postedOn ?s, ?u rdf:type Blogger",
            AggFunc::Count,
        );
        let (h2, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(h2, h, "duplicate must reuse the existing entry");
        assert_eq!(strategy, Strategy::SelectionOnAns);
        assert_eq!(s.len(), 1, "no copy was materialized");
        // Repeating it a hundred times still does not grow the catalog.
        for _ in 0..100 {
            let eq = independent_query(
                &mut s,
                "k(?u, ?dage, ?dcity) :- ?u livesIn ?dcity, ?u hasAge ?dage, ?u rdf:type Blogger",
                "w(?u, ?s) :- ?u wrotePost ?q, ?q postedOn ?s, ?u rdf:type Blogger",
                AggFunc::Count,
            );
            s.answer_query(eq).unwrap();
        }
        assert_eq!(s.len(), 1);
        // A renamed-dimension duplicate is NOT deduplicated: the caller
        // asked for the cube under different names.
        let renamed = independent_query(
            &mut s,
            "k(?u, ?years, ?town) :- ?u livesIn ?town, ?u hasAge ?years, ?u rdf:type Blogger",
            "w(?u, ?s) :- ?u wrotePost ?q, ?q postedOn ?s, ?u rdf:type Blogger",
            AggFunc::Count,
        );
        let (h3, _) = s.answer_query(renamed).unwrap();
        assert_ne!(h3, h);
        assert_eq!(s.len(), 2);

        // Σ's value lists are sets: a dice listing the same cities in
        // another order, or one of them twice, is the first dice's exact
        // duplicate — on either plane.
        let dice = |cities: &[&str]| OlapOp::Dice {
            constraints: vec![(
                "dcity".into(),
                ValueSelector::OneOf(cities.iter().map(|&c| Term::literal(c)).collect()),
            )],
        };
        let (diced, _) = s.transform(h, &dice(&["Madrid", "NY"])).unwrap();
        let len = s.len();
        let repeats = [dice(&["NY", "Madrid"]), dice(&["Madrid", "NY", "NY"])];
        for op in &repeats {
            assert_eq!(s.transform(h, op).unwrap().0, diced, "{op:?}");
            assert_eq!(s.len(), len);
        }
        let shared = s.into_shared();
        for op in &repeats {
            assert_eq!(shared.transform(h, op).unwrap().0, diced, "{op:?}");
            assert_eq!(shared.len(), len);
        }

        // ROLL-UP runs the same pipeline as every other operator, so a
        // repeated roll-up reuses its entry too — on either plane, and
        // across the switch between them.
        let (s, h, op) = roll_up_fixture();
        let shared = s.into_shared();
        let (up, first) = shared.transform(h, &op).unwrap();
        assert_eq!(first, Strategy::RollUpComposition);
        let (again, repeat) = shared.transform(h, &op).unwrap();
        assert_eq!(
            again, up,
            "a repeated roll-up must reuse the existing entry"
        );
        assert_eq!(repeat, Strategy::SelectionOnAns);
        assert_eq!(shared.len(), 2, "no copy was materialized");
        let mut s = shared.into_session();
        assert_eq!(s.transform(h, &op).unwrap().0, up);
        assert_eq!(s.answer_query(s.query(up).clone()).unwrap().0, up);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn planner_rehydrates_evicted_sources_when_still_cheapest() {
        let instance = Arc::unwrap_or_clone(session().instance);
        let mut probe = OlapSession::new(instance.clone());
        let h0 = register_example_1(&mut probe);
        let one = probe.cube(h0).answer().approx_bytes() + probe.cube(h0).pres().approx_bytes();

        let mut s = OlapSession::with_budget(instance, one + one / 2);
        let h = register_example_1(&mut s);
        // Evict the base by materializing a sibling via drill-out.
        let (_, _) = s
            .transform(
                h,
                &OlapOp::DrillOut {
                    dims: vec!["dage".into()],
                },
            )
            .unwrap();
        assert!(!s.is_resident(h), "base should be the eviction victim");
        // A renamed identity query over the base's family: σ over ans(Q)
        // plus its share of the base's recomputation still beats from-scratch,
        // so the planner rehydrates the evicted base instead of falling
        // back.
        let eq = independent_query(
            &mut s,
            "k(?u, ?years, ?town) :- ?u livesIn ?town, ?u hasAge ?years, ?u rdf:type Blogger",
            "w(?u, ?s) :- ?u wrotePost ?q, ?q postedOn ?s, ?u rdf:type Blogger",
            AggFunc::Count,
        );
        let (h2, strategy) = s.answer_query(eq).unwrap();
        assert_eq!(strategy, Strategy::SelectionOnAns);
        assert_eq!(strategy.source, Some(h));
        assert!(strategy.rehydrated, "the evicted source was recomputed");
        assert!(s.catalog().counters().rehydrations >= 1);
        let scratch = s.cube(h2).query().answer(s.instance()).unwrap();
        assert!(s.answer(h2).same_cells(&scratch));
    }

    /// A session over cities with a `locatedIn` hierarchy, its posts-per-
    /// city cube, and the ROLL-UP of that cube to countries.
    fn roll_up_fixture() -> (OlapSession, CubeHandle, OlapOp) {
        let instance = parse_turtle(
            "<Madrid> <locatedIn> <Spain> . <NY> <locatedIn> <USA> .
             <user1> rdf:type <Blogger> ; <livesIn> <Madrid> ; <wrotePost> <p1> .
             <user3> rdf:type <Blogger> ; <livesIn> <NY> ; <wrotePost> <p2> .
             <user4> rdf:type <Blogger> ; <livesIn> <NY> ; <wrotePost> <p3> .",
        )
        .unwrap();
        let mut s = OlapSession::new(instance);
        let h = s
            .register(
                "c(?x, ?dcity) :- ?x rdf:type Blogger, ?x livesIn ?dcity",
                "m(?x, ?p) :- ?x wrotePost ?p",
                AggFunc::Count,
            )
            .unwrap();
        let op = OlapOp::RollUp {
            dim: "dcity".into(),
            via: "locatedIn".into(),
        };
        (s, h, op)
    }

    #[test]
    fn roll_up_in_a_session() {
        let (mut s, h, op) = roll_up_fixture();
        let (h2, strategy) = s.transform(h, &op).unwrap();
        assert_eq!(strategy, Strategy::RollUpComposition);
        let spain = s.instance().dict().id(&Term::iri("Spain")).unwrap();
        let usa = s.instance().dict().id(&Term::iri("USA")).unwrap();
        assert_eq!(s.answer(h2).get(&[spain]), Some(&AggValue::Int(1)));
        assert_eq!(s.answer(h2).get(&[usa]), Some(&AggValue::Int(2)));
        // Consistent with evaluating Q_ROLL-UP from scratch.
        let scratch = s.cube(h2).query().answer(s.instance()).unwrap();
        assert!(s.answer(h2).same_cells(&scratch));
        // And the materialized roll-up supports further operations.
        let (h3, st3) = s
            .transform(
                h2,
                &OlapOp::Slice {
                    dim: "dcity_up".into(),
                    value: Term::iri("USA"),
                },
            )
            .unwrap();
        assert_eq!(st3, Strategy::SelectionOnAns);
        assert_eq!(s.answer(h3).len(), 1);
    }

    #[test]
    fn long_chain_remains_consistent_with_scratch() {
        let mut s = session();
        let h = register_example_1(&mut s);
        let (h1, _) = s
            .transform(
                h,
                &OlapOp::Dice {
                    constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 40 })],
                },
            )
            .unwrap();
        let (h2, _) = s
            .transform(
                h1,
                &OlapOp::DrillOut {
                    dims: vec!["dcity".into()],
                },
            )
            .unwrap();
        let (h3, _) = s
            .transform(
                h2,
                &OlapOp::DrillIn {
                    var: "dcity".into(),
                },
            )
            .unwrap();
        for hi in [h1, h2, h3] {
            let scratch = s.cube(hi).query().answer(s.instance()).unwrap();
            assert!(s.answer(hi).same_cells(&scratch), "handle {hi:?} diverged");
        }
    }
}
