//! Workload `dashboard-zipf`: cache pressure and the shared plane.
//!
//! `min(2, nproc - 1)` clients (at least one), one budgeted
//! [`SharedSession`] per unit over the 100k-triple world. The unit is a dashboard *epoch*: 384 requests
//! pulled by the clients from one seeded sequence — seven in eight drawn
//! Zipf(1.0) from `datagen::variant_pool`'s 144 slice/dice/drill-out
//! variants of Example 1 (far more than the 1.25 MiB budget holds), one in
//! eight a *fresh* single-value dice no pool variant covers — with
//! `advise_if_stale(64)` after every 64th request. `catalog` (dedup,
//! planning over a growing family, eviction, rehydration), `advisor` and
//! `shared`'s lock discipline are the hot layers. It runs the same
//! `rewrite` functions as `olap-session`, but over sources that may have
//! been evicted: a gain bought with bytes shows as a loss here.

use super::{fold_catalog, Scale, Workload};
use crate::ops::{AdviseRun, Recorder};
use crate::session::{self, KindRule};
use crate::stats::mix64;
use crate::world;
use rdfcube_core::{apply, ExtendedQuery, OlapOp, OlapSession, SharedSession, ValueSelector};
use rdfcube_datagen::{variant_pool, zipf_sequence, BloggerConfig};
use rdfcube_engine::AggFunc;
use rdfcube_rdf::Graph;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

const POOL: usize = 144;
const EPOCH_REQUESTS: usize = 384;
const FRESH_EVERY: usize = 8;
const ADVISE_EVERY: usize = 64;
/// 1.25 MiB at the nominal 100k-triple world, scaled with the world.
const BUDGET_PER_100K: usize = 5 << 18;

/// The workload: the variant pool, the fresh dices and the request stream.
pub struct DashboardZipf {
    cfg: BloggerConfig,
    graph: Graph,
    /// Pool variants first, fresh dices after them; a query's index here
    /// (plus one) is its verification slot.
    queries: Vec<ExtendedQuery>,
    seed: u64,
    /// Epochs started so far. Each draws its own Zipf sequence, so a run
    /// averages over request streams instead of depending on one — unless
    /// the run must repeat exactly, when every epoch replays the first.
    epochs: u64,
    repeatable: bool,
    budget: usize,
    clients: usize,
}

impl DashboardZipf {
    /// Generates the world, then builds the workload over it.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let cfg = world::world_config(scale.triples(100_000), seed);
        let graph = world::build_world(&cfg);
        // One core stays free for the OS and the harness's own thread: with a
        // client on every core of a 2-vCPU sandbox, a host that borrows one
        // core for a few seconds costs the run a third of its throughput,
        // and two such runs in ten are enough to fail the spread check.
        let clients = crate::nproc().saturating_sub(1).clamp(1, 2);
        Self::over(graph, cfg, seed, clients)
    }

    /// Builds the workload over an existing world (the advisor battery
    /// replays one single-client epoch on the world of whatever workload is
    /// running).
    pub fn over(mut graph: Graph, cfg: BloggerConfig, seed: u64, clients: usize) -> Self {
        let base = world::parse(world::EX1, world::SITES, AggFunc::Count, graph.dict_mut())
            .expect("Example 1 parses");
        let domains = world::domains(&cfg);
        let mut queries = variant_pool(&base, &domains, POOL).expect("pool variants build");
        // Fresh dices: single values the pool never restricts to. The pool
        // walks each domain from index 0 and reaches index `ceiling - 1`.
        let ceiling = (POOL - 1) / (3 * domains.len()) + 2;
        let fresh = EPOCH_REQUESTS / FRESH_EVERY;
        for k in 0..fresh {
            let d = &domains[k % domains.len()];
            let value = d.values[(ceiling + k / domains.len()) % d.values.len()].clone();
            let dice = OlapOp::Dice {
                constraints: vec![(d.dim.clone(), ValueSelector::one(value))],
            };
            queries.push(apply(&base, &dice).expect("fresh dice builds"));
        }
        let nominal = BloggerConfig::with_approx_triples(100_000).n_bloggers;
        let budget = BUDGET_PER_100K * cfg.n_bloggers / nominal;
        DashboardZipf {
            cfg,
            graph,
            queries,
            seed,
            epochs: 0,
            repeatable: false,
            budget,
            clients: clients.max(1),
        }
    }

    /// The next epoch's requests, as indices into `queries`: a seeded
    /// Zipf(1.0) sequence over the pool with every eighth slot given to the
    /// next fresh dice.
    fn next_requests(&mut self) -> Vec<usize> {
        let epoch = if self.repeatable { 0 } else { self.epochs };
        self.epochs += 1;
        let epoch_seed = mix64(self.seed ^ mix64(epoch));
        let mut requests = zipf_sequence(POOL, EPOCH_REQUESTS, 1.0, epoch_seed);
        let fresh_slots = requests
            .iter_mut()
            .skip(FRESH_EVERY - 1)
            .step_by(FRESH_EVERY);
        for (k, slot) in fresh_slots.enumerate() {
            *slot = POOL + k;
        }
        requests
    }

    /// One client's share of an epoch: pulls request indices from `next`
    /// until the epoch is exhausted.
    fn client(
        &self,
        shared: &SharedSession,
        rec: &mut Recorder,
        requests: &[usize],
        next: &AtomicUsize,
        seen: &[AtomicBool],
    ) {
        let mut plane = shared;
        loop {
            let j = next.fetch_add(1, Ordering::Relaxed);
            let Some(&q) = requests.get(j) else { break };
            let rule = KindRule::ByOutcome {
                seen_before: seen[q].swap(true, Ordering::Relaxed),
            };
            let served = session::answer(&mut plane, rec, rule, q as u64 + 1, &self.queries[q]);
            if q >= POOL {
                rec.fresh.0 += 1;
                rec.fresh.1 += u64::from(served.is_some_and(|(_, e)| e.catalog_hit));
            }
            if j % ADVISE_EVERY == ADVISE_EVERY - 1 {
                let t = Instant::now();
                match shared.advise_if_stale(ADVISE_EVERY as u64) {
                    Ok(Some(report)) => rec.advise_runs.push(AdviseRun {
                        nanos: t.elapsed().as_nanos() as u64,
                        selected: report.selected as u64,
                        materialized_bytes: report.materialized_bytes as u64,
                    }),
                    Ok(None) => {}
                    Err(e) => {
                        rec.attempted += 1;
                        rec.fail(format!("advise_if_stale: {e}"));
                    }
                }
            }
        }
    }
}

impl Workload for DashboardZipf {
    fn unit(&mut self, rec: &mut Recorder) {
        let requests = self.next_requests();
        let shared = OlapSession::with_budget(self.graph.clone(), self.budget).into_shared();
        let next = AtomicUsize::new(0);
        let seen: Vec<AtomicBool> = self
            .queries
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        let started = Instant::now();
        if rec.tracer.is_some() || self.clients == 1 {
            // The traced phase replays layer calls after every operation;
            // it runs one client so spans of one operation stay together.
            if rec.tracer.is_some() {
                rec.scratch = Some(rdfcube_core::CubeCatalog::with_budget(self.budget));
            }
            self.client(&shared, rec, &requests, &next, &seen);
        } else {
            let locals: Vec<Recorder> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..self.clients)
                    .map(|_| {
                        let mut local = Recorder::keeping(rec.keep);
                        let (this, shared, requests, next, seen) =
                            (&*self, &shared, &requests, &next, &seen);
                        scope.spawn(move || {
                            this.client(shared, &mut local, requests, next, seen);
                            local
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("a dashboard client panicked"))
                    .collect()
            });
            for local in locals {
                rec.merge(local);
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        let session = shared.into_session();
        fold_catalog(rec, session.catalog(), wall_ns);
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let slots: Vec<u64> = rec.slots().collect();
        for slot in slots {
            let eq = &self.queries[slot as usize - 1];
            match rdfcube_core::rewrite::from_scratch(eq, &self.graph) {
                Ok(reference) => rec.verify(slot, &format!("dashboard query {slot}"), &reference),
                Err(e) => rec.fail(format!("dashboard query {slot}: from-scratch failed: {e}")),
            }
        }
    }

    fn world(&self) -> (&Graph, &BloggerConfig) {
        (&self.graph, &self.cfg)
    }

    fn clients(&self) -> usize {
        self.clients
    }

    fn make_repeatable(&mut self) {
        self.clients = 1;
        self.repeatable = true;
    }
}
