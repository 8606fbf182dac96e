//! The cube catalog: signature-indexed materialized views under a memory
//! budget.
//!
//! The session layer's answer to the ROADMAP's "heavy traffic" goal. Three
//! responsibilities live here:
//!
//! 1. **Indexing** — every materialized cube is registered under its
//!    [`ViewKey`] (canonical body text, root, measure signature), so a
//!    target query probes exactly one *derivation family* in O(1) instead
//!    of linearly rescanning — and re-canonicalizing — every cube. ⊕ is
//!    not in the key: `pres(Q)` does not depend on it, so a family spans
//!    every ⊕ of one (body, root, measure). The [`ViewSignature`] (⊕ and
//!    the canonical dimension names included) is the one the entry's query
//!    carries, computed once when that query was built; entries and the
//!    query log borrow it and keep no copy.
//! 2. **Applicability** — [`CatalogEntry::classify`] decides whether (and
//!    how) an entry can soundly answer a target: the paper's Proposition 1
//!    (dice, same ⊕ only, as it reads `ans(Q)`), Proposition 2 (drill-out
//!    with unrestricted removed dimensions), or Proposition 3 (drill-in of
//!    an existential variable), expressed as a [`Derivation`]. The two
//!    `pres`-based ones serve any ⊕, and a target that differs from the
//!    source only in ⊕ is a drill-out that removes nothing: Equation 3's
//!    γ over the (diced) source `pres`. *Which* applicable derivation to
//!    run is not decided here — that is the cost model's job
//!    ([`crate::cost`]).
//! 3. **Budgeting** — an optional byte budget over the materialized
//!    payloads (`ans(Q)` + `pres(Q)`, measured by their `approx_bytes`).
//!    ⊕ twins (same family, canonical dimensions and Σ) share one `pres`
//!    table, which the budget charges once, for as long as any resident
//!    entry holds it: evicting one twin frees only its `ans`, and a stale or
//!    evicted twin adopts the table of a fresh one.
//!    When the resident set outgrows the budget, cold entries are evicted
//!    by benefit-weighted LRU: the payload is dropped but the entry — its
//!    query, signature and statistics — stays, so every [`cube
//!    handle`](crate::CubeHandle) remains valid forever and an evicted
//!    cube is transparently recomputed on its next touch
//!    ([`CubeCatalog::ensure_resident`]).
//! 4. **Freshness** — every payload carries the instance triple count it
//!    was materialized at. A resident payload the instance has grown past
//!    is brought up to date from the inserted triples alone
//!    (`PartialResult::refreshed` re-derives the facts they touch; a
//!    tuple's key is its place in the table, so no key space runs out)
//!    whenever the instance can still name them
//!    ([`Graph::inserted_since`]); otherwise, like an evicted one, it is
//!    recomputed.
//!
//! The sizes cached on each entry ([`CubeStats`]) survive eviction, so an
//! evicted entry still takes part in planning; how they are priced is
//! [`crate::cost`]'s business.
//!
//! Every answered query is recorded in the query log, one table of
//! derivation families ([`LoggedFamily`]): a family's distinct shapes are
//! what the advisor mines, and its ask count is the *family heat* that
//! weighs eviction, so a family the workload keeps probing is evicted
//! last.

use crate::answer::Cube;
use crate::cost::ExplainedStrategy;
use crate::error::CoreError;
use crate::extended::{ExtendedQuery, Sigma};
use crate::pres::PartialResult;
use crate::session::Strategy;
use crate::signature::{ViewKey, ViewSignature};
use rdfcube_engine::VarId;
use rdfcube_obs as obs;
use rdfcube_rdf::fx::FxHashMap;
use rdfcube_rdf::Graph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// How a target query can be soundly derived from a materialized source
/// cube (the applicability side of Propositions 1–3; costing is separate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Derivation {
    /// Same dimensions in the same order and the same ⊕; the target Σ
    /// refines the source's → σ over `ans(Q)` (Proposition 1).
    Dice,
    /// Target dimensions are an order-preserving subset; the listed source
    /// dimension indices are dropped (their source Σ must be unrestricted)
    /// → Algorithm 1 (Proposition 2). With none listed the target differs
    /// from the source in ⊕ (and perhaps a refining Σ) only: γ over the
    /// source's `pres(Q)` (Equation 3).
    DrillOut(Vec<usize>),
    /// Target has exactly one extra trailing dimension, existential in the
    /// source classifier → Algorithm 2 (Proposition 3). Holds the source
    /// classifier variable to promote.
    DrillIn(VarId),
}

/// Size statistics cached on a catalog entry at materialization time.
///
/// These outlive eviction: [`crate::cost`] keeps pricing with them while the
/// payload itself is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeStats {
    /// Number of cells in `ans(Q)`.
    pub ans_cells: usize,
    /// Number of rows in `pres(Q)`.
    pub pres_rows: usize,
    /// `ans.approx_bytes() + pres.approx_bytes()`: the payload's size, which
    /// the planner and the advisor price with. While resident the entry
    /// charges the budget less when a ⊕ twin holds its table too
    /// ([`CubeCatalog::resident_bytes`]).
    pub bytes: usize,
}

/// The materialized payload of an entry; the catalog's reference is
/// dropped on eviction (outstanding [`CubeSnapshot`]s keep theirs).
#[derive(Debug)]
struct CubePayload {
    ans: Cube,
    pres: PartialResult,
}

/// An owned, shareable view of one materialized cube: the extended query
/// plus the `ans(Q)`/`pres(Q)` payload, both behind `Arc`s.
///
/// Cloning a snapshot clones two pointers, not the data. A snapshot stays
/// readable after the catalog evicts or refreshes the entry it came from —
/// it is a *snapshot*: concurrent readers each see the consistent payload
/// they grabbed, never a torn or mutated one.
#[derive(Debug, Clone)]
pub struct CubeSnapshot {
    eq: Arc<ExtendedQuery>,
    payload: Arc<CubePayload>,
}

impl CubeSnapshot {
    /// The extended query that defines the cube.
    pub fn query(&self) -> &ExtendedQuery {
        &self.eq
    }

    /// The materialized answer `ans(Q)`.
    pub fn answer(&self) -> &Cube {
        &self.payload.ans
    }

    /// The materialized partial result `pres(Q)`.
    pub fn pres(&self) -> &PartialResult {
        &self.payload.pres
    }
}

/// One materialized (or evicted-but-recomputable) cube in the catalog.
///
/// Recency/benefit bookkeeping (`last_touch`, `hits`) is atomic so that
/// concurrent readers of a shared catalog can credit reuse without a
/// write lock; everything the answer depends on stays behind `&mut`.
#[derive(Debug)]
pub struct CatalogEntry {
    eq: Arc<ExtendedQuery>,
    stats: CubeStats,
    payload: Option<Arc<CubePayload>>,
    /// The instance's triple count when this payload was materialized —
    /// a moved watermark means the cells may no longer reflect the data.
    watermark: usize,
    /// Catalog clock value of the last touch (registration, reuse as a
    /// derivation source, or explicit [`CubeCatalog::touch`]).
    last_touch: AtomicU64,
    /// Times this entry served as the source of a derivation.
    hits: AtomicU64,
}

impl CatalogEntry {
    /// The extended query defining the cube.
    pub fn query(&self) -> &ExtendedQuery {
        &self.eq
    }

    /// The extended query behind its shared pointer (cheap to clone out
    /// of a locked catalog).
    pub fn query_arc(&self) -> Arc<ExtendedQuery> {
        Arc::clone(&self.eq)
    }

    /// The signature its query carries.
    pub fn signature(&self) -> &ViewSignature {
        self.eq.query().signature()
    }

    /// The cached size statistics.
    pub fn stats(&self) -> &CubeStats {
        &self.stats
    }

    /// True while `ans(Q)`/`pres(Q)` are materialized (not evicted).
    pub fn is_resident(&self) -> bool {
        self.payload.is_some()
    }

    /// The instance triple count at which this payload was materialized.
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// True if the payload was materialized against the instance's
    /// current triple count — i.e. no triples were inserted since. A
    /// stale entry still plans (its statistics remain useful estimates)
    /// but must be recomputed before its cells are served
    /// ([`CubeCatalog::ensure_resident`] does both).
    pub fn is_fresh(&self, instance: &Graph) -> bool {
        self.watermark == instance.len()
    }

    /// Times this entry served as a derivation source.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The materialized answer and partial result, if resident.
    pub fn payload(&self) -> Option<(&Cube, &PartialResult)> {
        self.payload.as_deref().map(|p| (&p.ans, &p.pres))
    }

    /// This entry as the source of a route, for [`crate::cost::price`]: its
    /// query, its sizes and its *backlog* — how many inserted triples the
    /// payload has yet to absorb (0 when fresh), `None` when it is evicted
    /// or the instance can no longer itemize them and it must be
    /// recomputed ([`CubeCatalog::ensure_resident`] draws the same line).
    pub(crate) fn as_source(
        &self,
        instance: &Graph,
    ) -> (&ExtendedQuery, &CubeStats, Option<usize>) {
        let missed = self
            .payload
            .as_ref()
            .and(instance.inserted_since(self.watermark));
        (&self.eq, &self.stats, missed.map(<[_]>::len))
    }

    /// Decides whether (and how) this entry can soundly answer a target
    /// query with signature `target_sig` and restriction `target_sigma`,
    /// assuming the family key already matched (same canonical body, root
    /// and measure; the caller probed the [`ViewKey`] index). ⊕ is read
    /// from the two signatures: only σ over `ans(Q)` needs the same one.
    pub fn classify(&self, target_sig: &ViewSignature, target_sigma: &Sigma) -> Option<Derivation> {
        let sig = self.signature();
        let (s_dims, s_sigma) = (&sig.dims, self.eq.sigma());
        let (t_dims, t_sigma) = (&target_sig.dims, target_sigma);
        if s_dims == t_dims {
            let d = if sig.agg == target_sig.agg {
                Derivation::Dice
            } else {
                Derivation::DrillOut(vec![])
            };
            return t_sigma.refines(s_sigma).then_some(d);
        }

        // DrillOut: t_dims is a strict, order-preserving subset of s_dims.
        if t_dims.len() < s_dims.len() {
            let mut removed = Vec::new();
            let mut kept_sigma_ok = true;
            let mut ti = 0usize;
            for (si, s_dim) in s_dims.iter().enumerate() {
                if ti < t_dims.len() && &t_dims[ti] == s_dim {
                    // Kept dimension: the target's restriction must refine the
                    // source's (equal or narrower — a trailing dice fixes up
                    // strict refinement).
                    if !t_sigma.selector(ti).refines(s_sigma.selector(si)) {
                        kept_sigma_ok = false;
                        break;
                    }
                    ti += 1;
                } else {
                    // Dropped dimension: Algorithm 1 needs it unrestricted.
                    if !s_sigma.selector(si).is_all() {
                        kept_sigma_ok = false;
                        break;
                    }
                    removed.push(si);
                }
            }
            if kept_sigma_ok && ti == t_dims.len() && !removed.is_empty() {
                return Some(Derivation::DrillOut(removed));
            }
            return None;
        }

        // DrillIn: t_dims = s_dims + one extra at the end.
        if t_dims.len() == s_dims.len() + 1 && t_dims[..s_dims.len()] == s_dims[..] {
            for ti in 0..s_dims.len() {
                if !t_sigma.selector(ti).refines(s_sigma.selector(ti)) {
                    return None;
                }
            }
            let extra = &t_dims[s_dims.len()];
            // Find the source classifier variable with that canonical name; it
            // must be existential there (not in the head).
            let var = sig
                .body
                .var_names
                .iter()
                .find(|(_, name)| *name == extra)
                .map(|(&v, _)| v)?;
            if self.eq.query().classifier().head().contains(&var) {
                return None;
            }
            return Some(Derivation::DrillIn(var));
        }
        None
    }
}

/// Cumulative catalog counters, for observability (`olapbench`'s `catalog.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogCounters {
    /// Queries answered by reusing a materialized cube.
    pub hits: u64,
    /// Queries that fell back to from-scratch evaluation.
    pub misses: u64,
    /// Payloads dropped by the budget enforcer.
    pub evictions: u64,
    /// Evicted payloads recomputed on demand.
    pub rehydrations: u64,
    /// Resident-but-stale payloads brought up to date after the instance
    /// grew past their watermark, incrementally or by recomputation.
    pub refreshes: u64,
    /// The [`Self::refreshes`] that did not recompute `pres(Q)`: each
    /// re-derived only the facts the inserted triples touch, or adopted the
    /// table of a fresh ⊕ twin.
    pub incremental_refreshes: u64,
}

/// The cells behind [`CubeCatalog::counters`]. Atomics, because the
/// shared plane counts hits and misses on its concurrent read path, where
/// only `&self` is held; each count is one relaxed `fetch_add`.
#[derive(Debug, Default)]
struct CatalogMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
    refreshes: AtomicU64,
    incremental_refreshes: AtomicU64,
}

/// One distinct query shape recorded in the catalog's query log: the
/// extended query, its signature, and what the planner last did with it.
/// Shapes are deduplicated the way [`crate::session`]'s duplicate check
/// works — same family, same ⊕, same canonical dimensions, same Σ — so
/// repeated traffic bumps `count` instead of growing the log.
#[derive(Debug, Clone)]
pub struct LoggedQuery {
    eq: Arc<ExtendedQuery>,
    strategy: Strategy,
    estimated_cost: f64,
    measured_nanos: u64,
    count: u64,
}

impl LoggedQuery {
    /// The logged extended query (a representative of the shape).
    pub fn query(&self) -> &ExtendedQuery {
        &self.eq
    }

    /// The shape's view signature (family key + canonical dimensions).
    pub fn signature(&self) -> &ViewSignature {
        self.eq.query().signature()
    }

    /// The strategy the planner chose the last time this shape was asked.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The planner's prediction for that strategy, in nanoseconds.
    pub fn estimated_cost(&self) -> f64 {
        self.estimated_cost
    }

    /// Wall-clock nanoseconds the last answer of this shape took,
    /// end to end.
    pub fn measured_nanos(&self) -> u64 {
        self.measured_nanos
    }

    /// How many times this exact shape was asked.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// One derivation family of the query log: the distinct shapes it
/// retains, in first-logged order, and how often the family was asked.
#[derive(Debug, Clone, Default)]
pub struct LoggedFamily {
    /// The family's distinct shapes the log retains.
    pub shapes: Vec<LoggedQuery>,
    /// Queries that probed the family, hit or miss — past the shape cap
    /// too, so it can exceed the sum of the shapes' counts. Like
    /// [`CubeStats`] it survives payload eviction: it is the family heat
    /// eviction weighs ([`CubeCatalog::set_budget`]) and the advisor ranks
    /// families by.
    pub asks: u64,
}

/// Distinct shapes the query log retains full queries for. Past the cap,
/// new shapes still count toward their family's asks (frequency feeds
/// eviction) but are not remembered individually — the advisor builds its
/// apexes from the shapes seen first, and under a skewed workload the hot
/// families are among them.
const MAX_LOGGED_SHAPES: usize = 1024;

/// The query log: every `answer_query`/`transform` probe lands here, in
/// one table of families indexed by [`ViewKey`]. Lives behind a `Mutex`
/// inside the catalog so the shared plane's read-locked serving paths can
/// record through `&self`.
#[derive(Debug, Default)]
struct QueryLog {
    /// Families in first-probed order.
    families: Vec<LoggedFamily>,
    by_key: FxHashMap<ViewKey, usize>,
    /// Distinct shapes retained across all families.
    shapes: usize,
    /// Total queries recorded (including shapes past the cap).
    total: u64,
    /// [`Self::total`] at the time of the last advisor run.
    advised_at: u64,
}

/// The signature-indexed, budget-aware store of materialized cubes.
#[derive(Debug)]
pub struct CubeCatalog {
    entries: Vec<CatalogEntry>,
    index: FxHashMap<ViewKey, Vec<usize>>,
    budget: Option<usize>,
    resident_bytes: usize,
    peak_resident_bytes: usize,
    clock: AtomicU64,
    metrics: CatalogMetrics,
    log: Mutex<QueryLog>,
}

impl Default for CubeCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl CubeCatalog {
    /// An unbounded catalog (no payload is ever evicted).
    pub fn new() -> Self {
        CubeCatalog {
            entries: Vec::new(),
            index: FxHashMap::default(),
            budget: None,
            resident_bytes: 0,
            peak_resident_bytes: 0,
            clock: AtomicU64::new(0),
            metrics: CatalogMetrics::default(),
            log: Mutex::new(QueryLog::default()),
        }
    }

    /// A catalog that keeps at most `bytes` of materialized payload
    /// resident (the most recently touched entry is always kept, even if
    /// it alone exceeds the budget — a result must be readable right after
    /// it is produced).
    pub fn with_budget(bytes: usize) -> Self {
        CubeCatalog {
            budget: Some(bytes),
            ..Self::new()
        }
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Reconfigures the budget; tightening it evicts immediately.
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
        let pin = self.most_recently_touched();
        self.enforce_budget(pin);
    }

    /// Number of entries (resident or evicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the catalog holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of materialized payload currently resident: every resident
    /// `ans`, and every table resident entries hold, once however many hold
    /// it.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Number of entries whose payload is currently resident.
    pub fn resident_len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_resident()).count()
    }

    /// High-water mark of [`Self::resident_bytes`]. Insertions and
    /// rehydrations make room *before* attaching their payload, so this
    /// mark genuinely never exceeds the budget unless a single cube is
    /// itself larger than the budget (the newest result is always kept).
    /// The one cube currently being materialized is accounted only once
    /// attached.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident_bytes
    }

    /// Cumulative hit/miss/eviction/rehydration/refresh counters.
    pub fn counters(&self) -> CatalogCounters {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CatalogCounters {
            hits: read(&self.metrics.hits),
            misses: read(&self.metrics.misses),
            evictions: read(&self.metrics.evictions),
            rehydrations: read(&self.metrics.rehydrations),
            refreshes: read(&self.metrics.refreshes),
            incremental_refreshes: read(&self.metrics.incremental_refreshes),
        }
    }

    /// Records a reuse hit (the pipeline calls this when a derivation ran).
    pub(crate) fn record_hit(&self) {
        self.metrics.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fallback to from-scratch evaluation.
    pub(crate) fn record_miss(&self) {
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn lock_log(&self) -> std::sync::MutexGuard<'_, QueryLog> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one answered query in the log: bumps its family's asks
    /// (every probe counts, hit or miss) and either bumps an existing
    /// shape's frequency or remembers the new shape. Takes `&self` so the
    /// shared plane's serving paths can record under their read lock; the
    /// log's own mutex is held only for the bookkeeping. Each record ticks
    /// the catalog clock, which ages every entry's recency.
    pub fn record_query(
        &self,
        eq: &ExtendedQuery,
        explained: &ExplainedStrategy,
        measured_nanos: u64,
    ) {
        let sig = eq.query().signature();
        self.clock.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lock_log();
        let log = &mut *guard;
        log.total += 1;
        // The family's key is cloned only the first time it is seen.
        let f = match log.by_key.get(&sig.key) {
            Some(&f) => f,
            None => {
                log.by_key.insert(sig.key.clone(), log.families.len());
                log.families.push(LoggedFamily::default());
                log.families.len() - 1
            }
        };
        let family = &mut log.families[f];
        family.asks += 1;
        let found = family.shapes.iter_mut().find(|s| {
            let s_sig = s.signature();
            s_sig.agg == sig.agg && s_sig.dims == sig.dims && s.eq.sigma() == eq.sigma()
        });
        match found {
            Some(s) => {
                s.count += 1;
                s.strategy = explained.strategy;
                s.estimated_cost = explained.estimated_cost;
                s.measured_nanos = measured_nanos;
            }
            None if log.shapes < MAX_LOGGED_SHAPES => {
                log.shapes += 1;
                family.shapes.push(LoggedQuery {
                    eq: Arc::new(eq.clone()),
                    strategy: explained.strategy,
                    estimated_cost: explained.estimated_cost,
                    measured_nanos,
                    count: 1,
                });
            }
            None => {}
        }
    }

    /// Total queries recorded in the log so far.
    pub fn log_total(&self) -> u64 {
        self.lock_log().total
    }

    /// [`Self::log_total`] as of the last [`Self::mark_advised`] — the
    /// staleness baseline for [`crate::SharedSession::advise_if_stale`].
    pub fn advised_log_total(&self) -> u64 {
        self.lock_log().advised_at
    }

    /// Marks the current log position as advised (called by the advisor
    /// after a selection run, successful or empty).
    pub fn mark_advised(&mut self) {
        let log = self.log.get_mut().unwrap_or_else(PoisonError::into_inner);
        log.advised_at = log.total;
    }

    /// A snapshot of the query log's families, in first-probed order (the
    /// advisor's input). Cloning is cheap: queries travel behind `Arc`s.
    pub fn logged_families(&self) -> Vec<LoggedFamily> {
        self.lock_log().families.clone()
    }

    /// The entry at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range — use [`Self::get_entry`] for
    /// handles that may belong to a different session.
    pub fn entry(&self, idx: usize) -> &CatalogEntry {
        &self.entries[idx]
    }

    /// The entry at `idx`, or `None` if no such entry exists (a handle
    /// from another session, for instance).
    pub fn get_entry(&self, idx: usize) -> Option<&CatalogEntry> {
        self.entries.get(idx)
    }

    /// An owned snapshot of the entry's query + payload, if resident.
    /// The snapshot shares the materialized data (two `Arc` clones) and
    /// stays valid after later evictions or refreshes.
    pub fn snapshot(&self, idx: usize) -> Option<CubeSnapshot> {
        let e = self.entries.get(idx)?;
        Some(CubeSnapshot {
            eq: Arc::clone(&e.eq),
            payload: Arc::clone(e.payload.as_ref()?),
        })
    }

    /// The indices of the derivation family for `key` (empty if none).
    pub fn family(&self, key: &ViewKey) -> &[usize] {
        self.index.get(key).map_or(&[], Vec::as_slice)
    }

    /// Registers a materialized cube under the family key its query
    /// carries, computing its statistics once, and enforces the budget (the
    /// new entry is pinned). `watermark` is the instance triple count the
    /// payload was computed against. Returns the entry index.
    pub fn insert(
        &mut self,
        eq: ExtendedQuery,
        ans: Cube,
        pres: PartialResult,
        watermark: usize,
    ) -> usize {
        let stats = CubeStats {
            ans_cells: ans.len(),
            pres_rows: pres.len(),
            bytes: ans.approx_bytes() + pres.approx_bytes(),
        };
        let payload = CubePayload { ans, pres };
        let eq = Arc::new(eq);
        let key = &eq.query().signature().key;
        // Evict *before* attaching the new payload, so the accounted
        // resident set never overshoots the budget mid-insert.
        self.make_room(Some((key, &payload)), None);
        let idx = self.entries.len();
        let clock = self.clock.get_mut();
        *clock += 1;
        let now = *clock;
        self.resident_bytes += self.charge(key, &payload, None);
        self.index.entry(key.clone()).or_default().push(idx);
        self.entries.push(CatalogEntry {
            eq,
            stats,
            payload: Some(Arc::new(payload)),
            watermark,
            last_touch: AtomicU64::new(now),
            hits: AtomicU64::new(0),
        });
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        idx
    }

    /// Marks `idx` as used right now (LRU recency) and counts a benefit
    /// hit for the eviction policy. Takes `&self`: recency credit is the
    /// one piece of bookkeeping the concurrent read path performs, so it
    /// lives in atomics rather than behind the write lock.
    pub fn touch(&self, idx: usize) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let e = &self.entries[idx];
        e.last_touch.store(now, Ordering::Relaxed);
        e.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Brings the payload of an entry that is evicted **or stale** (the
    /// instance grew past the entry's watermark) up to the current
    /// instance. Returns `true` if there was anything to do.
    ///
    /// A fresh, resident entry of the family with the same canonical
    /// dimensions and Σ holds the same `pres` up to a renaming of keys,
    /// whatever its ⊕: the entry **adopts** that table and runs only its own
    /// γ. So after an insert only the first ⊕ twin asked re-derives the
    /// table, and an evicted twin comes back by γ alone. Otherwise a stale
    /// payload whose missed triples the instance can still itemize
    /// ([`Graph::inserted_since`]) is refreshed **incrementally**
    /// (`PartialResult::refreshed`): the facts those triples touch are
    /// re-derived, every other row is carried over. Otherwise — evicted
    /// payload, or insertion log gone — `pres(Q, I)` is recomputed in
    /// **full**. Either way the cells are those of from-scratch evaluation
    /// on `instance`.
    ///
    /// The new payload is pinned while the budget is re-enforced, so the
    /// entry is resident (and fresh) when this returns.
    pub fn ensure_resident(&mut self, idx: usize, instance: &Graph) -> Result<bool, CoreError> {
        let e = self.entries.get(idx).ok_or(CoreError::UnknownHandle(idx))?;
        let was_resident = e.is_resident();
        if was_resident && e.is_fresh(instance) {
            return Ok(false);
        }
        let sp = obs::span("refresh");
        let eq = Arc::clone(&e.eq);
        let stale = e
            .payload
            .as_deref()
            .zip(instance.inserted_since(e.watermark));
        // A fresh, resident twin: same family, canonical dimensions and Σ.
        let family = self.family(&eq.query().signature().key);
        let twin = family.iter().find_map(|&i| {
            let t = &self.entries[i];
            let same = t.signature().dims == e.signature().dims && t.eq.sigma() == eq.sigma();
            t.payload.as_ref().filter(|_| same && t.is_fresh(instance))
        });
        let (mode, pres) = match (twin, stale) {
            (Some(twin), _) => {
                let q = eq.query();
                let names = q.dim_names().iter().map(|s| s.to_string()).collect();
                let pres = twin.pres.clone().with_dim_names(names);
                ("adopted", pres.with_agg(q.agg()))
            }
            (None, Some((old, new))) => {
                sp.attr("new_triples", new.len() as u64);
                let (pres, touched_roots) = old.pres.refreshed(&eq, instance, new)?;
                sp.attr("touched_roots", touched_roots as u64);
                ("incremental", pres)
            }
            (None, None) => ("full", PartialResult::compute(&eq, instance)?),
        };
        sp.detail(|| mode.into());
        sp.rows(e.stats.pres_rows as u64, pres.len() as u64);
        let ans = pres.to_cube(instance.dict())?;
        let payload = CubePayload { ans, pres };
        // A stale payload is dropped (with its accounting) before making
        // room, so the budget never charges old and new copies at once.
        self.drop_payload(idx);
        // Make room before attaching, as in `insert`.
        let key = &eq.query().signature().key;
        self.make_room(Some((key, &payload)), Some(idx));
        self.resident_bytes += self.charge(key, &payload, Some(idx));
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        let e = &mut self.entries[idx];
        e.stats.ans_cells = payload.ans.len();
        e.stats.pres_rows = payload.pres.len();
        e.stats.bytes = payload.ans.approx_bytes() + payload.pres.approx_bytes();
        e.payload = Some(Arc::new(payload));
        e.watermark = instance.len();
        let m = &self.metrics;
        if was_resident {
            m.refreshes.fetch_add(1, Ordering::Relaxed);
        } else {
            m.rehydrations.fetch_add(1, Ordering::Relaxed);
        }
        if was_resident && mode != "full" {
            m.incremental_refreshes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(true)
    }

    /// What holding `payload` under family `key` adds to the resident bytes:
    /// its `ans`, and its table unless a resident entry of the family other
    /// than `holder` holds that table too. (⊕ is not in the key, so every
    /// entry that can share a table is in the family.)
    fn charge(&self, key: &ViewKey, payload: &CubePayload, holder: Option<usize>) -> usize {
        let (ans, pres) = (&payload.ans, &payload.pres);
        let others = self.family(key).iter().filter(|&&i| Some(i) != holder);
        let mut held = others.filter_map(|&i| self.entries[i].payload.as_ref());
        let shared = held.any(|p| p.pres.shares_table(pres));
        ans.approx_bytes() + if shared { 0 } else { pres.approx_bytes() }
    }

    /// Drops the payload of entry `idx`, if resident, and what it charged.
    fn drop_payload(&mut self, idx: usize) {
        if let Some(p) = &self.entries[idx].payload {
            self.resident_bytes -= self.charge(&self.entries[idx].signature().key, p, Some(idx));
        }
        self.entries[idx].payload = None;
    }

    /// The resident entry touched most recently, if any.
    fn most_recently_touched(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_resident())
            .max_by_key(|(_, e)| e.last_touch.load(Ordering::Relaxed))
            .map(|(i, _)| i)
    }

    /// Evicts cold payloads until the current resident set fits the
    /// budget, then updates the peak resident bytes.
    fn enforce_budget(&mut self, pinned: Option<usize>) {
        self.make_room(None, pinned);
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
    }

    /// Evicts cold payloads until the `incoming` payload of a family would
    /// fit the budget (so callers can evict *before* attaching a new payload
    /// and the accounted resident set never transiently overshoots). An
    /// eviction frees the victim's `ans`, and its table only if no other
    /// resident entry holds it.
    ///
    /// Victim selection is benefit-weighted LRU: among resident, unpinned
    /// entries, evict the one with the smallest `(hits + 1) / (age + 1)` —
    /// the coldest entry that has earned the least reuse. Stops early when
    /// nothing evictable remains (e.g. `incoming` alone exceeds the
    /// budget — a result must still be storable).
    ///
    /// Every sweep that evicts something also halves all hit counters:
    /// benefit is exponentially decayed under memory pressure, so a
    /// historically hot cube the workload has moved away from cannot pin
    /// the budget indefinitely against the live working set. (Without
    /// decay, an entry with H accumulated hits stays unevictable for ~H
    /// clock ticks after its last use.)
    ///
    /// The per-entry score is additionally weighted by the entry's
    /// *family heat* — the query log's [`LoggedFamily::asks`] for its
    /// [`ViewKey`], square-root damped so frequency informs rather than
    /// dominates recency. An entry of a family the workload keeps probing
    /// is evicted last (and so, symmetrically, a hot evicted payload is
    /// the first the budget re-admits when it is rehydrated on touch).
    fn make_room(&mut self, incoming: Option<(&ViewKey, &CubePayload)>, pinned: Option<usize>) {
        let Some(budget) = self.budget else { return };
        let clock = self.clock.load(Ordering::Relaxed);
        let heat: Vec<f64> = {
            let log = self.log.get_mut().unwrap_or_else(PoisonError::into_inner);
            self.entries
                .iter()
                .map(|e| {
                    let family = log.by_key.get(&e.signature().key);
                    let asks = family.map_or(0, |&f| log.families[f].asks);
                    ((asks + 1) as f64).sqrt()
                })
                .collect()
        };
        let mut evicted_any = false;
        // An eviction can take the last other holder of the incoming table.
        let incoming = |cat: &Self| incoming.map_or(0, |(key, p)| cat.charge(key, p, pinned));
        while self.resident_bytes + incoming(self) > budget {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|&(i, e)| e.is_resident() && Some(i) != pinned)
                .min_by(|&(ia, a), &(ib, b)| {
                    let score = |i: usize, e: &CatalogEntry| {
                        let hits = e.hits.load(Ordering::Relaxed);
                        let touched = e.last_touch.load(Ordering::Relaxed);
                        (hits + 1) as f64 / (clock - touched + 1) as f64 * heat[i]
                    };
                    score(ia, a)
                        .partial_cmp(&score(ib, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i);
            let Some(victim) = victim else { break };
            self.drop_payload(victim);
            self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
            evicted_any = true;
        }
        if evicted_any {
            for e in &mut self.entries {
                let hits = e.hits.get_mut();
                *hits /= 2;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anq::AnalyticalQuery;
    use rdfcube_engine::AggFunc;
    use rdfcube_rdf::{parse_turtle, Term};

    fn blog_world() -> Graph {
        parse_turtle(
            "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user4> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user1> <wrotePost> <p1>, <p2>, <p3> .
             <p1> <postedOn> <s1> . <p2> <postedOn> <s1> . <p3> <postedOn> <s2> .
             <user3> <wrotePost> <p4> . <p4> <postedOn> <s2> .
             <user4> <wrotePost> <p5> . <p5> <postedOn> <s3> .",
        )
        .unwrap()
    }

    fn example_1(g: &mut Graph) -> ExtendedQuery {
        ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
                AggFunc::Count,
                g.dict_mut(),
            )
            .unwrap(),
        )
    }

    /// `eq` under another ⊕.
    fn under(eq: &ExtendedQuery, agg: AggFunc) -> ExtendedQuery {
        let q = eq.query();
        let q = AnalyticalQuery::new(q.classifier().clone(), q.measure().clone(), agg);
        ExtendedQuery::from_query(q.unwrap())
    }

    fn materialize(eq: &ExtendedQuery, g: &Graph) -> (Cube, PartialResult) {
        let pres = PartialResult::compute(eq, g).unwrap();
        let ans = pres.to_cube(g.dict()).unwrap();
        (ans, pres)
    }

    #[test]
    fn insert_indexes_by_family_and_caches_stats() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let (ans, pres) = materialize(&eq, &g);
        let mut cat = CubeCatalog::new();
        let idx = cat.insert(eq.clone(), ans, pres, g.len());

        let sig = ViewSignature::of(eq.query());
        assert_eq!(cat.family(&sig.key), &[idx]);
        let stats = cat.entry(idx).stats();
        assert_eq!(stats.ans_cells, 2);
        assert_eq!(stats.pres_rows, 5);
        assert!(stats.bytes > 0);
        assert_eq!(cat.resident_bytes(), stats.bytes);

        // A different ⊕ lands in the same family: its `pres` is the same.
        let distinct = under(&eq, AggFunc::CountDistinct);
        assert_eq!(ViewSignature::of(distinct.query()).key, sig.key);
        let (d_ans, d_pres) = materialize(&distinct, &g);
        let other = cat.insert(distinct, d_ans, d_pres, g.len());
        assert_eq!(cat.family(&sig.key), &[idx, other]);
    }

    #[test]
    fn budget_evicts_cold_entries_but_keeps_them_addressable() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let (ans, pres) = materialize(&eq, &g);
        let one_cube = ans.approx_bytes() + pres.approx_bytes();

        // Room for roughly one cube: the second insert evicts the first.
        // Each insert brings a table of its own, so each is charged in full.
        let mut cat = CubeCatalog::with_budget(one_cube + one_cube / 2);
        let first = cat.insert(eq.clone(), ans, pres, g.len());
        assert_eq!(cat.resident_bytes(), one_cube);
        let (ans, pres) = materialize(&eq, &g);
        let second = cat.insert(eq.clone(), ans, pres, g.len());
        assert!(!cat.entry(first).is_resident(), "cold entry evicted");
        assert!(cat.entry(second).is_resident(), "pinned entry kept");
        assert_eq!(cat.resident_bytes(), one_cube);
        assert_eq!(cat.counters().evictions, 1);

        // The evicted entry still knows its query, signature and stats.
        assert_eq!(cat.entry(first).stats().pres_rows, 5);
        assert_eq!(cat.len(), 2);

        // Rehydration brings it back, and two cubes do not fit: the other
        // goes, and the one table left is charged once.
        assert!(cat.ensure_resident(first, &g).unwrap());
        assert!(cat.entry(first).is_resident());
        assert!(!cat.entry(second).is_resident());
        assert_eq!(cat.resident_bytes(), one_cube);
        assert_eq!(cat.counters().rehydrations, 1);
        // The recomputed payload answers identically.
        let (re_ans, _) = cat.entry(first).payload().unwrap();
        let scratch = cat.entry(first).query().answer(&g).unwrap();
        assert!(re_ans.same_cells(&scratch));
    }

    #[test]
    fn eviction_prefers_low_benefit_older_entries() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let (ans, pres) = materialize(&eq, &g);
        let one_cube = ans.approx_bytes() + pres.approx_bytes();

        // Three entries, each with a table of its own: three cubes' bytes.
        let mut cat = CubeCatalog::new();
        let a = cat.insert(eq.clone(), ans, pres, g.len());
        let (ans, pres) = materialize(&eq, &g);
        let b = cat.insert(eq.clone(), ans, pres, g.len());
        let (ans, pres) = materialize(&eq, &g);
        let c = cat.insert(eq.clone(), ans, pres, g.len());
        assert_eq!(cat.resident_bytes(), 3 * one_cube);
        // `a` is oldest but heavily reused; `b` is cold.
        cat.touch(a);
        cat.touch(a);
        cat.touch(a);
        cat.touch(c);
        cat.set_budget(Some(2 * one_cube));
        assert!(cat.entry(a).is_resident(), "hot entry survives");
        assert!(!cat.entry(b).is_resident(), "cold entry evicted first");
        assert!(cat.entry(c).is_resident());
        assert_eq!(cat.resident_bytes(), 2 * one_cube);
        assert_eq!(cat.counters().evictions, 1);
    }

    #[test]
    fn zero_budget_keeps_only_the_pinned_entry() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let (ans, pres) = materialize(&eq, &g);
        let mut cat = CubeCatalog::with_budget(0);
        let a = cat.insert(eq.clone(), ans.clone(), pres.clone(), g.len());
        assert!(
            cat.entry(a).is_resident(),
            "a result must be readable right after production, budget or not"
        );
        let b = cat.insert(eq, ans, pres, g.len());
        assert!(!cat.entry(a).is_resident());
        assert!(cat.entry(b).is_resident());
        assert!(cat.peak_resident_bytes() > 0);
    }

    #[test]
    fn classify_matches_session_semantics() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let (ans, pres) = materialize(&eq, &g);
        let mut cat = CubeCatalog::new();
        let idx = cat.insert(eq.clone(), ans, pres, g.len());

        // Identical query → Dice (refinement is reflexive).
        let sig = ViewSignature::of(eq.query());
        assert_eq!(
            cat.entry(idx).classify(&sig, eq.sigma()),
            Some(Derivation::Dice)
        );

        // Drill-out shape: independently-written 1-D query, same body.
        let coarse = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "k(?u, ?town) :- ?u rdf:type Blogger, ?u hasAge ?a, ?u livesIn ?town",
                "w(?u, ?s) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q postedOn ?s",
                AggFunc::Count,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let coarse_sig = ViewSignature::of(coarse.query());
        assert_eq!(coarse_sig.key, sig.key, "same family");
        assert_eq!(
            cat.entry(idx).classify(&coarse_sig, coarse.sigma()),
            Some(Derivation::DrillOut(vec![0]))
        );
    }

    #[test]
    fn query_log_dedups_shapes_and_counts_accesses() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let cat = CubeCatalog::new();
        let explained = ExplainedStrategy::scratch(10.0, 0);

        cat.record_query(&eq, &explained, 500);
        cat.record_query(&eq, &explained, 700);
        assert_eq!(cat.log_total(), 2);
        let shapes = &cat.logged_families()[0].shapes;
        assert_eq!(shapes.len(), 1, "identical shapes dedup");
        assert_eq!(shapes[0].count(), 2);
        assert_eq!(shapes[0].measured_nanos(), 700, "latest measurement kept");
        assert_eq!(shapes[0].strategy(), Strategy::FromScratch);

        // A differently-restricted shape of the same family is distinct,
        // but the family's asks accumulate across both.
        let mut sigma = Sigma::all(2);
        sigma.set(0, crate::extended::ValueSelector::one(Term::integer(35)));
        let diced = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();
        cat.record_query(&diced, &explained, 100);
        let families = cat.logged_families();
        assert_eq!(cat.log_total(), 3);
        assert_eq!(families.len(), 1);
        assert_eq!(families[0].shapes.len(), 2);
        assert_eq!(families[0].asks, 3);
    }

    #[test]
    fn query_log_keeps_aggregates_apart() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let summed = under(&eq, AggFunc::Sum);
        let cat = CubeCatalog::new();
        let scratch = ExplainedStrategy::scratch(10.0, 0);
        let alg1 = ExplainedStrategy::hit(Strategy::Algorithm1, 0, 5.0, 10.0, 1);
        cat.record_query(&eq, &scratch, 500);
        cat.record_query(&summed, &alg1, 200);
        cat.record_query(&summed, &alg1, 300);

        // One family, two shapes: each keeps its own route and figures.
        let families = cat.logged_families();
        assert_eq!(families.len(), 1);
        let shapes = &families[0].shapes;
        assert_eq!(shapes.len(), 2, "a count ask and a sum ask stay apart");
        let seen = |s: &LoggedQuery| (s.strategy(), s.count(), s.measured_nanos());
        assert_eq!(seen(&shapes[0]), (Strategy::FromScratch, 1, 500));
        assert_eq!(seen(&shapes[1]), (Strategy::Algorithm1, 2, 300));
        assert_eq!(families[0].asks, 3);
    }

    /// Serves `eq` over `cat` the way a session does (route, refresh,
    /// execute, commit); returns its entry.
    fn serve(cat: &mut CubeCatalog, g: &Graph, eq: ExtendedQuery) -> usize {
        use crate::pipeline::{self, Step};
        let mut step = pipeline::route(cat, g, eq, None).unwrap();
        loop {
            step = match step {
                Step::Refresh(idx, job) => pipeline::refresh(cat, g, idx, job),
                Step::Execute(job) => pipeline::execute(g, job),
                Step::Commit(job, cells) => pipeline::commit(cat, g, job, cells),
                Step::Done((handle, _)) => return handle.0,
            }
            .unwrap();
        }
    }

    /// Σ resident `ans` + Σ distinct resident tables.
    fn recount(cat: &CubeCatalog) -> usize {
        let held: Vec<_> = cat.entries.iter().filter_map(|e| e.payload()).collect();
        let tables = held
            .iter()
            .enumerate()
            .filter(|&(i, (_, pres))| !held[..i].iter().any(|(_, other)| other.shares_table(pres)));
        let tables: usize = tables.map(|(_, (_, pres))| pres.approx_bytes()).sum();
        tables
            + held
                .iter()
                .map(|(ans, _)| ans.approx_bytes())
                .sum::<usize>()
    }

    #[test]
    fn twins_share_one_table_which_the_budget_charges_once() {
        let mut g = blog_world();
        for (post, words) in [("p1", 120), ("p2", 80), ("p3", 300), ("p4", 50), ("p5", 75)] {
            let words = Term::integer(words);
            g.insert(&Term::iri(post), &Term::iri("words"), &words);
        }
        let sum = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?w) :- ?x wrotePost ?p, ?p words ?w",
                AggFunc::Sum,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let mut cat = CubeCatalog::new();
        let aggs = [AggFunc::Sum, AggFunc::Avg, AggFunc::Min];
        let twins = aggs.map(|agg| serve(&mut cat, &g, under(&sum, agg)));
        fn payload(cat: &CubeCatalog, i: usize) -> (&Cube, &PartialResult) {
            cat.entry(i).payload().unwrap()
        }
        let ans = |cat: &CubeCatalog, i: usize| payload(cat, i).0.approx_bytes();
        let (_, table) = payload(&cat, twins[0]);
        assert!(twins
            .iter()
            .all(|&i| payload(&cat, i).1.shares_table(table)));
        let table = table.approx_bytes();
        let all_ans: usize = twins.iter().map(|&i| ans(&cat, i)).sum();
        assert_eq!(cat.resident_bytes(), table + all_ans);
        assert_eq!(
            cat.entry(twins[1]).stats().bytes,
            ans(&cat, twins[1]) + table
        );

        // Evicting a twin frees its `ans` only, while another holds the table.
        cat.touch(twins[2]);
        for _ in 0..2 {
            let before = cat.resident_bytes();
            let held = twins.map(|i| cat.entry(i).is_resident());
            cat.set_budget(Some(before - 1));
            let gone: Vec<usize> = (0..3)
                .filter(|&t| held[t] && !cat.entry(twins[t]).is_resident())
                .collect();
            assert_eq!(gone.len(), 1);
            let freed = cat.entry(twins[gone[0]]).stats().bytes - table;
            assert_eq!(before - cat.resident_bytes(), freed);
            assert_eq!(cat.resident_bytes(), recount(&cat));
        }
        assert!(cat.entry(twins[2]).is_resident());
        // The last holder goes with its table.
        cat.set_budget(Some(0));
        let other = example_1(&mut g);
        let newest = serve(&mut cat, &g, other);
        assert_eq!(cat.resident_bytes(), cat.entry(newest).stats().bytes);

        // An evicted twin is recomputed once, and the others adopt its
        // table. After an insert the first twin asked re-derives the
        // table, and the others adopt it. Either way each runs its own γ.
        fn refresh(cat: &mut CubeCatalog, g: &Graph, i: usize) -> String {
            assert!(obs::trace_begin("ask"));
            assert!(cat.ensure_resident(i, g).unwrap());
            let trace = obs::trace_end().unwrap();
            let scratch = cat.entry(i).query().answer(g).unwrap();
            assert!(payload(cat, i).0.same_cells(&scratch));
            trace.find("refresh").unwrap().detail.clone()
        }
        cat.set_budget(None);
        let modes = twins.map(|i| refresh(&mut cat, &g, i));
        assert_eq!(modes, ["full", "adopted", "adopted"]);
        assert_eq!(cat.resident_bytes(), recount(&cat));
        let watermark = g.len();
        let p6 = Term::iri("p6");
        g.insert(&Term::iri("user1"), &Term::iri("wrotePost"), &p6);
        g.insert(&p6, &Term::iri("words"), &Term::integer(9));
        assert!(g.inserted_since(watermark).is_some());
        let modes = twins.map(|i| refresh(&mut cat, &g, i));
        assert_eq!(modes, ["incremental", "adopted", "adopted"]);
        let (_, table) = payload(&cat, twins[0]);
        assert!(twins
            .iter()
            .all(|&i| payload(&cat, i).1.shares_table(table)));
        assert_eq!(cat.resident_bytes(), recount(&cat));
    }

    #[test]
    fn family_heat_shields_hot_families_from_eviction() {
        let mut g = blog_world();
        let eq = example_1(&mut g);
        let (ans, pres) = materialize(&eq, &g);
        let one_cube = ans.approx_bytes() + pres.approx_bytes();

        // A second family: same classifier, different measure body.
        let other = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?v",
                AggFunc::Count,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let (o_ans, o_pres) = materialize(&other, &g);

        let mut cat = CubeCatalog::new();
        let hot = cat.insert(eq.clone(), ans.clone(), pres.clone(), g.len());
        let cold = cat.insert(other.clone(), o_ans, o_pres, g.len());
        // The newest entry is pinned by set_budget; heat decides between
        // `hot` and `cold`. Give `cold` the better recency AND an entry
        // hit, so plain benefit-weighted LRU would evict `hot` — only the
        // family-heat factor can save it.
        cat.touch(cold);
        let newest = cat.insert(eq.clone(), ans, pres, g.len());
        let explained = ExplainedStrategy::scratch(10.0, 0);
        for _ in 0..50 {
            cat.record_query(&eq, &explained, 100);
        }
        let total = cat.resident_bytes();
        assert!(total > one_cube);
        cat.set_budget(Some(total - 1));
        assert!(cat.entry(hot).is_resident(), "hot family survives");
        assert!(!cat.entry(cold).is_resident(), "cold family evicted");
        assert!(cat.entry(newest).is_resident(), "pinned entry kept");
    }
}
