//! The concurrent query plane: [`SharedSession`].
//!
//! An [`OlapSession`] is the *mutation plane* — it owns `&mut` access to
//! the instance and catalog, so exactly one client at a time can use it.
//! But the paper's cubes are read-mostly by construction: once an
//! analytical schema is instantiated and its first cubes materialized,
//! the dominant workload is many clients posing analytical queries
//! against the same catalog. [`SharedSession`] serves that workload:
//!
//! * the instance and every cube payload live behind `Arc`s — converting
//!   a session ([`OlapSession::into_shared`]) copies **no** data, and
//!   neither does handing the shared session to N threads;
//! * every serving method takes `&self`, so `&SharedSession` (or an
//!   `Arc<SharedSession>`) can be queried from any number of threads
//!   concurrently;
//! * the catalog sits behind a single [`RwLock`], and a query is served by
//!   the same pipeline phases (`pipeline.rs`) as on the mutation plane, each
//!   handed the guard it needs: `route` (planning, duplicate detection,
//!   snapshotting) runs under a read lock (shared); `commit`
//!   (materializing a new cube) and `refresh` (rehydrating an evicted
//!   source or refreshing a stale one) take the write lock briefly. The
//!   expensive phase, `execute` — BGP evaluation, derivation, aggregation
//!   — always runs **outside** any lock, against [`CubeSnapshot`]s;
//! * recency/benefit bookkeeping (`touch`, hit/miss counters) is atomic
//!   (see [`crate::catalog`]), so the hot read path never blocks on it.
//!
//! The dictionary is frozen during a shared epoch: queries must be parsed
//! against the instance *before* [`OlapSession::into_shared`] (or their
//! constants must already be interned). Inserting triples, parsing
//! queries with fresh constants, and ROLL-UP over a not-yet-interned
//! mapping property all belong to the mutation plane — round-trip with
//! [`SharedSession::into_session`], mutate, and convert back. Cubes
//! materialized before the mutation keep their watermarks, so the next
//! shared epoch transparently refreshes whatever went stale.

use crate::catalog::{CatalogCounters, CubeCatalog, CubeSnapshot};
use crate::cost::ExplainedStrategy;
use crate::error::CoreError;
use crate::extended::ExtendedQuery;
use crate::olap::OlapOp;
use crate::pipeline::{self, Route, Served, Step};
use crate::session::{CubeHandle, OlapSession};
use rdfcube_obs::QueryTrace;
use rdfcube_rdf::Graph;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A `Send + Sync` OLAP serving plane over one instance and one cube
/// catalog. Obtained from [`OlapSession::into_shared`]; all serving
/// methods take `&self`. See the [module docs](self) for the
/// architecture and the thread-safety contract.
#[derive(Debug)]
pub struct SharedSession {
    instance: Arc<Graph>,
    catalog: RwLock<CubeCatalog>,
}

impl SharedSession {
    pub(crate) fn from_parts(instance: Arc<Graph>, catalog: CubeCatalog) -> Self {
        SharedSession {
            instance,
            catalog: RwLock::new(catalog),
        }
    }

    /// Converts back into the single-owner mutation plane. No data is
    /// copied; outstanding [`CubeSnapshot`]s stay readable (the first
    /// mutation clones the instance copy-on-write instead of racing
    /// them).
    pub fn into_session(self) -> OlapSession {
        let catalog = self
            .catalog
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        OlapSession::from_parts(self.instance, catalog)
    }

    /// Catalog read access. A poisoned lock is recovered rather than
    /// propagated: the catalog's accounting is kept structurally valid at
    /// every early-return point, so a panicking reader/writer leaves at
    /// worst a recomputable payload gap, never a torn answer.
    fn read(&self) -> RwLockReadGuard<'_, CubeCatalog> {
        self.catalog.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, CubeCatalog> {
        self.catalog.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared AnS instance.
    pub fn instance(&self) -> &Graph {
        &self.instance
    }

    /// Number of subject-hash shards in the shared instance (chosen at
    /// session construction, [`OlapSession::with_shards`]). The shards
    /// travel behind the instance's `Arc` like everything else.
    pub fn shard_count(&self) -> usize {
        self.instance.shard_count()
    }

    /// Number of materialized cubes (including evicted entries).
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if no cube is materialized.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Cumulative catalog counters (hits, misses, evictions,
    /// rehydrations, refreshes).
    pub fn counters(&self) -> CatalogCounters {
        self.read().counters()
    }

    /// A combined statistics snapshot: the counters plus the query log's
    /// per-[`ViewKey`](crate::signature::ViewKey) access frequencies (see
    /// [`CubeCatalog::stats`](crate::catalog::CubeCatalog::stats)).
    pub fn stats(&self) -> crate::catalog::CatalogStats {
        self.read().stats()
    }

    /// A point-in-time snapshot of this session's metrics registry —
    /// the same names and values [`OlapSession::metrics_snapshot`]
    /// reports, so both planes can be scraped uniformly.
    pub fn metrics_snapshot(&self) -> rdfcube_obs::Snapshot {
        self.read().metrics_snapshot()
    }

    /// Bytes of materialized payload currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.read().resident_bytes()
    }

    /// The configured payload budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.read().budget()
    }

    /// The extended query of `handle`, or `None` for a foreign handle.
    /// Available whether or not the payload is resident.
    pub fn try_query(&self, handle: CubeHandle) -> Option<Arc<ExtendedQuery>> {
        self.read().get_entry(handle.0).map(|e| e.query_arc())
    }

    /// An owned snapshot of the cube behind `handle` — refreshing or
    /// rehydrating it first if it is stale or evicted. The snapshot keeps
    /// the payload alive independently of later evictions, so it can be
    /// read for as long as needed without holding any lock.
    pub fn snapshot(&self, handle: CubeHandle) -> Result<CubeSnapshot, CoreError> {
        {
            let cat = self.read();
            let e = cat
                .get_entry(handle.0)
                .ok_or(CoreError::UnknownHandle(handle.0))?;
            if e.is_resident() && e.is_fresh(&self.instance) {
                cat.touch(handle.0);
                return cat
                    .snapshot(handle.0)
                    .ok_or(CoreError::CubeNotResident(handle.0));
            }
        }
        // Evicted or stale: recompute under the write lock. Racing
        // threads may all observe the miss and queue here; the first one
        // recomputes and the rest see a fresh entry (no-op).
        let mut cat = self.write();
        cat.ensure_resident(handle.0, &self.instance)?;
        cat.touch(handle.0);
        cat.snapshot(handle.0)
            .ok_or(CoreError::CubeNotResident(handle.0))
    }

    /// Plans `eq` without executing or materializing anything (the
    /// concurrent counterpart of [`OlapSession::explain_query`]).
    pub fn explain_query(&self, eq: &ExtendedQuery) -> ExplainedStrategy {
        pipeline::explain(&self.read(), &self.instance, eq)
    }

    /// Answers an arbitrary extended query — the concurrent counterpart
    /// of [`OlapSession::answer_query`], running the identical pipeline.
    /// Returns the handle of the (existing or newly materialized) cube;
    /// read its cells with [`Self::snapshot`].
    pub fn answer_query(
        &self,
        eq: ExtendedQuery,
    ) -> Result<(CubeHandle, ExplainedStrategy), CoreError> {
        self.serve(eq, None)
    }

    /// Drives one query through the pipeline ([`crate::pipeline`]), each
    /// phase under the lock it needs and no longer: `route` under the
    /// read lock (a fresh duplicate is answered there and then), `execute`
    /// under **no** lock, `commit` under the write lock — as is `refresh`,
    /// when the routed entry is stale or evicted.
    fn serve(&self, eq: ExtendedQuery, forced: Option<Route>) -> Result<Served, CoreError> {
        let mut step = pipeline::route(&self.read(), &self.instance, eq, forced)?;
        loop {
            step = match step {
                Step::Refresh(idx, job) => {
                    pipeline::refresh(&mut self.write(), &self.instance, idx, job)?
                }
                Step::Execute(job) => pipeline::execute(&self.instance, job)?,
                Step::Commit(job, cells) => {
                    pipeline::commit(&mut self.write(), &self.instance, job, cells)?
                }
                Step::Done(served) => return Ok(served),
            };
        }
    }

    /// Like [`Self::answer_query`], but records a structured
    /// [`QueryTrace`] of the evaluation — the concurrent counterpart of
    /// [`OlapSession::answer_traced`].
    ///
    /// Tracing is thread-local: it adds no locking and does not change
    /// the lock structure of the underlying evaluation. Concurrent
    /// untraced queries on other threads are unaffected.
    pub fn answer_traced(
        &self,
        eq: ExtendedQuery,
    ) -> Result<(CubeHandle, ExplainedStrategy, QueryTrace), CoreError> {
        pipeline::traced(|| self.answer_query(eq))
    }

    /// Re-runs workload-driven view selection (see [`crate::advisor`])
    /// when the query log has grown by at least `min_new_queries` since
    /// the last run; returns `None` when it has not. Intended to be
    /// called periodically from any serving thread — the staleness probe
    /// is a read-lock peek, and only an actually-stale log pays for the
    /// write lock (selection and materialization run under it, briefly
    /// blocking concurrent queries, like any other materialization).
    pub fn advise_if_stale(
        &self,
        min_new_queries: u64,
    ) -> Result<Option<crate::advisor::AdvisorReport>, CoreError> {
        let threshold = min_new_queries.max(1);
        {
            let cat = self.read();
            if cat.log_total().saturating_sub(cat.advised_log_total()) < threshold {
                return Ok(None);
            }
        }
        let mut cat = self.write();
        // Re-check: a racing thread may have advised while we waited.
        if cat.log_total().saturating_sub(cat.advised_log_total()) < threshold {
            return Ok(None);
        }
        crate::advisor::advise_catalog(&mut cat, &self.instance).map(Some)
    }

    /// Applies an OLAP operation to a materialized cube — the concurrent
    /// counterpart of [`OlapSession::transform`].
    ///
    /// The dictionary is frozen during a shared epoch, so ROLL-UP is
    /// served only when its mapping property is already interned (any
    /// property that actually occurs in the instance is); otherwise it
    /// belongs to the mutation plane.
    pub fn transform(
        &self,
        handle: CubeHandle,
        op: &OlapOp,
    ) -> Result<(CubeHandle, ExplainedStrategy), CoreError> {
        let source_eq = self
            .try_query(handle)
            .ok_or(CoreError::UnknownHandle(handle.0))?;
        let (eq, forced) = pipeline::transformed(&self.instance, &source_eq, handle, op)?;
        self.serve(eq, forced)
    }

    /// [`Self::transform`] under a structured trace — the concurrent
    /// counterpart of [`OlapSession::transform_traced`].
    pub fn transform_traced(
        &self,
        handle: CubeHandle,
        op: &OlapOp,
    ) -> Result<(CubeHandle, ExplainedStrategy, QueryTrace), CoreError> {
        pipeline::traced(|| self.transform(handle, op))
    }
}

// The whole point of the type: compile-time proof it can be shared.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedSession>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Cube;
    use crate::extended::ValueSelector;
    use crate::session::Strategy;
    use rdfcube_engine::AggFunc;
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

    fn example_1(s: &mut OlapSession) -> ExtendedQuery {
        s.parse_query(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
            AggFunc::Count,
        )
        .unwrap()
    }

    /// Either plane behind one face, so that one script can drive both.
    enum Plane {
        Mutation(OlapSession),
        Shared(SharedSession),
    }

    impl Plane {
        fn answer_query(&mut self, eq: ExtendedQuery) -> Served {
            match self {
                Plane::Mutation(s) => s.answer_query(eq).unwrap(),
                Plane::Shared(s) => s.answer_query(eq).unwrap(),
            }
        }

        fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> Served {
            match self {
                Plane::Mutation(s) => s.transform(h, op).unwrap(),
                Plane::Shared(s) => s.transform(h, op).unwrap(),
            }
        }

        /// The cells behind `h`, recomputed first if stale or evicted —
        /// the same catalog operations (`ensure_resident`, `touch`) on
        /// either plane, so reading never makes the catalogs diverge.
        fn cells(&mut self, h: CubeHandle) -> Cube {
            match self {
                Plane::Mutation(s) => {
                    s.touch(h).unwrap();
                    s.answer(h).clone()
                }
                Plane::Shared(s) => s.snapshot(h).unwrap().answer().clone(),
            }
        }

        /// Inserts through the mutation plane, as a shared epoch must.
        fn insert(self, triples: Vec<(Term, Term, Term)>) -> Self {
            match self {
                Plane::Mutation(mut s) => {
                    s.insert_triples(triples);
                    Plane::Mutation(s)
                }
                Plane::Shared(s) => {
                    let mut s = s.into_session();
                    s.insert_triples(triples);
                    Plane::Shared(s.into_shared())
                }
            }
        }

        fn state(&self) -> (usize, CatalogCounters) {
            match self {
                Plane::Mutation(s) => (s.len(), s.catalog().counters()),
                Plane::Shared(s) => (s.len(), s.counters()),
            }
        }
    }

    /// One analyst chain over a world with a city → country hierarchy:
    /// register, slice, widening dice, drill-out, drill-in, roll-up, exact
    /// repeats, then an insert and a re-query of the now-stale base.
    /// Returns every step's handle, explanation and cells, and the
    /// catalog's final size and counters.
    fn chain(
        budget: Option<usize>,
        shared: bool,
    ) -> (Vec<(Served, Cube)>, (usize, CatalogCounters)) {
        let instance = parse_turtle(
            "<Madrid> <locatedIn> <Spain> . <Vigo> <locatedIn> <Spain> . <NY> <locatedIn> <USA> .
             <user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> <Madrid> .
             <user2> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> <Vigo> .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> <NY> .
             <user4> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> <NY> .
             <user5> rdf:type <Blogger> ; <hasAge> 41 ; <livesIn> <Madrid>, <NY> .
             <user1> <wrotePost> <p1>, <p2>, <p3> . <user2> <wrotePost> <p6> .
             <p1> <postedOn> <s1> . <p2> <postedOn> <s1> . <p3> <postedOn> <s2> .
             <user3> <wrotePost> <p4> . <p4> <postedOn> <s2> . <p6> <postedOn> <s3> .
             <user4> <wrotePost> <p5> . <p5> <postedOn> <s3> .
             <user5> <wrotePost> <p7> . <p7> <postedOn> <s1> .",
        )
        .unwrap();
        let mut s = match budget {
            Some(bytes) => OlapSession::with_budget(instance, bytes),
            None => OlapSession::new(instance),
        };
        let base = example_1(&mut s);
        let mut plane = if shared {
            Plane::Shared(s.into_shared())
        } else {
            Plane::Mutation(s)
        };

        let dice = |ages: &[i64]| OlapOp::Dice {
            constraints: vec![(
                "dage".into(),
                ValueSelector::OneOf(ages.iter().map(|&a| Term::integer(a)).collect()),
            )],
        };
        let slice = OlapOp::Slice {
            dim: "dage".into(),
            value: Term::integer(35),
        };
        let drill_out = OlapOp::DrillOut {
            dims: vec!["dage".into()],
        };
        let roll_up = OlapOp::RollUp {
            dim: "dcity".into(),
            via: "locatedIn".into(),
        };

        let mut trail: Vec<(Served, Cube)> = Vec::new();
        let mut step = |plane: &mut Plane, call: &dyn Fn(&mut Plane) -> Served| {
            let served = call(plane);
            let handle = served.0;
            trail.push((served, plane.cells(handle)));
            handle
        };
        let h = step(&mut plane, &|p| p.answer_query(base.clone()));
        let sliced = step(&mut plane, &|p| p.transform(h, &slice));
        step(&mut plane, &|p| p.transform(sliced, &dice(&[28, 35])));
        let by_city = step(&mut plane, &|p| p.transform(h, &drill_out));
        step(&mut plane, &|p| {
            p.transform(by_city, &OlapOp::DrillIn { var: "dage".into() })
        });
        step(&mut plane, &|p| p.transform(h, &roll_up));
        step(&mut plane, &|p| p.transform(h, &roll_up));
        step(&mut plane, &|p| p.transform(h, &slice));
        let mut plane = plane.insert(vec![
            (
                Term::iri("user6"),
                Term::iri(rdfcube_rdf::vocab::RDF_TYPE),
                Term::iri("Blogger"),
            ),
            (Term::iri("user6"), Term::iri("hasAge"), Term::integer(35)),
            (Term::iri("user6"), Term::iri("livesIn"), Term::iri("Vigo")),
            (Term::iri("user6"), Term::iri("wrotePost"), Term::iri("p8")),
            (Term::iri("p8"), Term::iri("postedOn"), Term::iri("s2")),
        ]);
        let h = step(&mut plane, &|p| p.answer_query(base.clone()));
        step(&mut plane, &|p| p.transform(h, &dice(&[35, 41])));
        step(&mut plane, &|p| p.transform(h, &roll_up));
        let state = plane.state();
        (trail, state)
    }

    #[test]
    fn shared_answers_match_the_mutation_plane() {
        // Both planes run the one pipeline, so the same chain must leave
        // them indistinguishable: handle for handle, explanation for
        // explanation, cell for cell, counter for counter — unbudgeted,
        // and under a budget tight enough to evict and rehydrate sources.
        let (unbudgeted, _) = chain(None, false);
        // Room for a source and its result, not for the chain's seven cubes.
        let tight = unbudgeted[0].1.approx_bytes() * 3;
        for budget in [None, Some(tight)] {
            let (serial, serial_state) = chain(budget, false);
            let (shared, shared_state) = chain(budget, true);
            assert_eq!(serial.len(), shared.len());
            for (i, (((hs, es), cs), ((hp, ep), cp))) in serial.iter().zip(&shared).enumerate() {
                assert_eq!(hs, hp, "step {i}: handles differ");
                assert_eq!(es.strategy, ep.strategy, "step {i}");
                assert_eq!(es.source, ep.source, "step {i}");
                assert_eq!(es.candidates, ep.candidates, "step {i}");
                assert_eq!(es.catalog_hit, ep.catalog_hit, "step {i}");
                assert_eq!(es.rehydrated, ep.rehydrated, "step {i}");
                assert!(cs.same_cells(cp), "step {i}: cells differ");
            }
            assert_eq!(serial_state, shared_state);

            let strategies: Vec<Strategy> = serial.iter().map(|((_, e), _)| e.strategy).collect();
            for expected in [
                Strategy::FromScratch,
                Strategy::SelectionOnAns,
                Strategy::Algorithm1,
                Strategy::Algorithm2,
                Strategy::RollUpComposition,
            ] {
                assert!(
                    strategies.contains(&expected),
                    "{expected} never ran: {strategies:?}"
                );
            }
            // The exact repeats reused their entries.
            assert_eq!(serial[6].0 .0, serial[5].0 .0);
            assert_eq!(serial[7].0 .0, serial[1].0 .0);
            // The insert left the base stale; re-asking refreshed it.
            assert_eq!(serial[8].0 .0, serial[0].0 .0);
            assert!(serial[8].0 .1.rehydrated);
            assert!(serial_state.1.refreshes + serial_state.1.rehydrations >= 1);
            if budget.is_some() {
                assert!(serial_state.1.evictions >= 1, "the budget never bit");
                assert!(
                    serial[..8].iter().any(|((_, e), _)| e.rehydrated),
                    "no step ran from a rehydrated source"
                );
            }
        }
    }

    #[test]
    fn many_threads_share_one_session() {
        let mut s = session();
        let eq = example_1(&mut s);
        let shared = s.into_shared();
        let (h0, _) = shared.answer_query(eq.clone()).unwrap();
        let expect = shared.snapshot(h0).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = &shared;
                let eq = eq.clone();
                let expect = expect.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        let (h, _) = shared.answer_query(eq.clone()).unwrap();
                        let snap = shared.snapshot(h).unwrap();
                        assert!(snap.answer().same_cells(expect.answer()));
                    }
                });
            }
        });
        assert_eq!(shared.len(), 1, "duplicates converged on one entry");
        assert!(shared.counters().hits >= 32);
    }

    #[test]
    fn round_trip_through_the_mutation_plane_refreshes() {
        let mut s = session();
        let eq = example_1(&mut s);
        let shared = s.into_shared();
        let (h, _) = shared.answer_query(eq.clone()).unwrap();
        let before = shared.snapshot(h).unwrap();

        // Mutate: user3 writes two more posts.
        let mut s = shared.into_session();
        use rdfcube_rdf::Term;
        let added = s.insert_triples([
            (Term::iri("user3"), Term::iri("wrotePost"), Term::iri("p9")),
            (Term::iri("p9"), Term::iri("postedOn"), Term::iri("s1")),
            (Term::iri("user3"), Term::iri("wrotePost"), Term::iri("p10")),
            (Term::iri("p10"), Term::iri("postedOn"), Term::iri("s1")),
        ]);
        assert_eq!(added, 4);
        let shared = s.into_shared();

        // The old snapshot is untouched; the refreshed cube reflects the
        // new data.
        let (h2, _) = shared.answer_query(eq).unwrap();
        assert_eq!(h2, h);
        let after = shared.snapshot(h2).unwrap();
        assert!(!after.answer().same_cells(before.answer()));
        assert!(shared.counters().refreshes >= 1);
        let scratch = after.query().answer(shared.instance()).unwrap();
        assert!(after.answer().same_cells(&scratch));
    }

    #[test]
    fn a_poisoned_catalog_lock_keeps_serving_correct_cells() {
        use crate::rewrite::from_scratch;
        let mut s = session();
        let base = example_1(&mut s);
        // Only a diced cube is registered, so drilling out the diced
        // dimension has no sound source and runs from scratch.
        let mut sigma = crate::extended::Sigma::all(2);
        sigma.set(0, ValueSelector::one(Term::integer(35)));
        let diced = ExtendedQuery::with_sigma(base.query().clone(), sigma).unwrap();
        let shared = s.into_shared();
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = shared.write();
                    panic!("a writer dies holding the catalog lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(shared.catalog.is_poisoned());

        let checked = |(h, e): (CubeHandle, ExplainedStrategy), strategy: Strategy| {
            assert_eq!(e.strategy, strategy);
            let snap = shared.snapshot(h).unwrap();
            let scratch = from_scratch(snap.query(), shared.instance()).unwrap();
            assert!(snap.answer().same_cells(&scratch), "{strategy}");
            h
        };
        let h = checked(shared.answer_query(diced).unwrap(), Strategy::FromScratch);
        let drill_out = |dim: &str| OlapOp::DrillOut {
            dims: vec![dim.into()],
        };
        checked(
            shared.transform(h, &drill_out("dcity")).unwrap(),
            Strategy::Algorithm1,
        );
        checked(
            shared.transform(h, &drill_out("dage")).unwrap(),
            Strategy::FromScratch,
        );
        assert_eq!(shared.len(), 3);
        assert_eq!(shared.into_session().len(), 3);
    }

    #[test]
    fn foreign_handles_are_typed_errors() {
        let mut s = session();
        let _ = example_1(&mut s);
        let shared = s.into_shared();
        let bogus = CubeHandle(7);
        assert_eq!(
            shared.snapshot(bogus).unwrap_err(),
            CoreError::UnknownHandle(7)
        );
        assert!(shared.try_query(bogus).is_none());
        assert_eq!(
            shared
                .transform(bogus, &OlapOp::DrillOut { dims: vec![] })
                .unwrap_err(),
            CoreError::UnknownHandle(7)
        );
    }
}
