//! BGP evaluation over an RDF graph.
//!
//! The evaluator uses *binding propagation* (index nested-loop joins): it
//! orders the body patterns greedily by estimated cardinality, then extends
//! partial solutions one pattern at a time through the store's SPO/POS/OSP
//! indexes. This is the textbook strategy for conjunctive queries over
//! triple stores and matches what the paper assumes of the underlying RDF
//! platform.
//!
//! Intermediate solutions live in a `BindingTable`: one flat `Vec<TermId>`
//! arena with a fixed stride (the query's variable count), double-buffered
//! between pattern steps. Because the join order is fixed before execution,
//! the set of bound variables at each step is known *statically* — each step
//! compiles to a tiny `StepPlan` saying which positions probe the index,
//! which write newly bound variables into the arena, and which must merely
//! be equal (repeated fresh variables like `?x p ?x`). The inner loop
//! therefore performs **zero per-row heap allocations**: extending a row is
//! one `extend_from_slice` into the arena plus at most three slot writes,
//! with no `Option` wrappers and no cloned `Vec`s.
//!
//! Two result semantics are offered, as the paper requires both:
//! [`Semantics::Set`] (classifiers, auxiliary queries — Definition 1 and 6)
//! and [`Semantics::Bag`] (measures — one row per homomorphism, so repeated
//! measure values of one fact stay distinct).
//!
//! The pipeline parallelizes by data, through one step runner. When
//! [`set_eval_threads`] raises the worker count and an intermediate table is
//! large enough, a step's input rows are cut into contiguous chunks, one per
//! thread. Each worker runs the serial row kernel over its chunk into a table
//! of its own, against the whole graph, and the tables are concatenated in
//! chunk order. [`Graph::for_each_match`] enumerates a probe's matches in the
//! flat store's order at any shard count, so the concatenation *is* the
//! serial table, and every downstream aggregation is **bit-identical** to the
//! serial evaluation. A worker that panics fails the query with
//! [`EngineError::WorkerPanicked`].
//!
//! Evaluation starts from a [`Seed`]: a table of initial bindings, one row
//! per partial solution to extend. Plain evaluation is the unit seed (one
//! row binding nothing); [`evaluate_seeded`] starts the same driver from any
//! table — a rooted query restricted to a few hundred roots, or to the
//! matches of one pattern among a handful of new triples — and the seeded
//! variables are bound from the first step on, so such a run probes where an
//! unrestricted one would scan.
//!
//! A deliberately naive full-scan nested-loop evaluator
//! ([`evaluate_nested_loop`]) is kept as an oracle for the property tests;
//! it still materializes one `Vec<Option<TermId>>` per row, on purpose — its
//! value is being obviously correct, not fast.

use crate::bgp::Bgp;
use crate::error::EngineError;
use crate::filter::FilterExpr;
use crate::pattern::{PatternTerm, QueryPattern};
use crate::relation::Relation;
use crate::var::VarId;
use rdfcube_rdf::fx::{FxHashMap, FxHashSet};
use rdfcube_rdf::{Graph, TermId, Triple, TriplePattern};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads BGP evaluation may fan out to (process-wide; default 1 =
/// fully serial).
static EVAL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Intermediate tables smaller than this stay serial: below it, the cost
/// of spawning scoped workers outweighs the per-row probe work.
const PAR_MIN_ROWS: usize = 1024;

/// A subject probe at 1M triples (`cold-scratch`, seed 3): ≈ 180 ns under rows in `(age, root)`
/// order (12.0–12.2 ms per 67.7k), 31–34 ns in root order: a root scan this much dearer still leads.
const ORDERED_PROBE_GAIN: f64 = 180.0 / 33.0;

/// How far one query's steps may fan out. The public entry points read it
/// from the process setting once per query and pass it down, so no query sees
/// the setting change under it; in-crate tests pass values of their own.
#[derive(Debug, Clone, Copy)]
struct Fanout {
    /// Worker threads a step may use; 1 keeps every step serial.
    threads: usize,
    /// Steps over fewer input rows than this stay serial.
    min_rows: usize,
}

impl Fanout {
    fn of_process() -> Self {
        Fanout {
            threads: eval_threads(),
            min_rows: PAR_MIN_ROWS,
        }
    }
}

/// Sets the number of worker threads BGP evaluation may use (clamped to at
/// least 1; 1 disables fan-out). Process-wide: the evaluator is a shared
/// resource, like the thread pool this stands in for. Results are
/// identical at any setting — row chunks concatenate in input order.
pub fn set_eval_threads(n: usize) {
    EVAL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The current worker-thread setting (see [`set_eval_threads`]).
pub fn eval_threads() -> usize {
    EVAL_THREADS.load(Ordering::Relaxed)
}

/// Result semantics of a BGP query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Duplicate head rows collapse (the paper's default for BGPs).
    Set,
    /// One head row per homomorphism (the paper's measure-query semantics).
    Bag,
}

/// A partial assignment of query variables to terms — used only by the
/// nested-loop oracle, which favors obviousness over speed.
type PartialRow = Vec<Option<TermId>>;

/// Flat arena of partial bindings: `stride` slots per row, one slot per
/// query variable. Slots for variables not yet bound at the current step
/// hold stale sentinels and are never read — the static [`StepPlan`]s
/// guarantee every read slot was written by an earlier step.
struct BindingTable {
    stride: usize,
    rows: usize,
    data: Vec<TermId>,
}

impl BindingTable {
    fn new(stride: usize) -> Self {
        BindingTable {
            stride,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// The table an evaluation starts from: one row per seed row, holding
    /// the seed's bindings and the `pre_bound` constants (every other slot
    /// sentinel).
    fn seeded(stride: usize, seed: &Seed, pre_bound: &FxHashMap<VarId, TermId>) -> Self {
        let mut data = vec![TermId(0); stride * seed.rows];
        for (i, row) in data.chunks_exact_mut(stride.max(1)).enumerate() {
            for (&v, &c) in seed.vars.iter().zip(seed.row(i)) {
                row[v.index()] = c;
            }
            for (&v, &c) in pre_bound {
                row[v.index()] = c;
            }
        }
        BindingTable {
            stride,
            rows: seed.rows,
            data,
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[TermId] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    fn clear(&mut self) {
        self.rows = 0;
        self.data.clear();
    }

    fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// In-place σ: keeps the rows satisfying `keep`, compacting the arena.
    fn retain(&mut self, mut keep: impl FnMut(&[TermId]) -> bool) {
        let stride = self.stride;
        if stride == 0 {
            // Zero-variable rows are indistinguishable; one call decides all.
            if self.rows > 0 && !keep(&[]) {
                self.rows = 0;
            }
            return;
        }
        let mut write = 0usize;
        for read in 0..self.rows {
            let start = read * stride;
            if keep(&self.data[start..start + stride]) {
                if write != read {
                    self.data.copy_within(start..start + stride, write * stride);
                }
                write += 1;
            }
        }
        self.rows = write;
        self.data.truncate(write * stride);
    }
}

/// The bindings an evaluation starts from: a table of rows over `vars`, each
/// row one partial solution every body pattern then extends. [`evaluate`]
/// and [`evaluate_filtered`] start from [`Seed::unit`] — nothing bound, one
/// empty row; [`evaluate_seeded`] from any table, which is how a query is
/// restricted to a set of values of one variable (one row per value) or to
/// the matches of one of its patterns among a handful of triples
/// ([`Seed::of_pattern`]) without a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    vars: Vec<VarId>,
    rows: usize,
    /// Row-major, `vars.len()` ids per row.
    data: Vec<TermId>,
}

impl Seed {
    /// The seed of an unrestricted evaluation: no variable bound, one row.
    pub fn unit() -> Self {
        Seed {
            vars: Vec::new(),
            rows: 1,
            data: Vec::new(),
        }
    }

    /// An empty seed binding `vars` (distinct variables of the query it
    /// will seed); add rows with [`Self::push`].
    pub fn new(vars: Vec<VarId>) -> Self {
        Seed {
            vars,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Appends one row: a value for each of [`Self::vars`], in order.
    ///
    /// # Panics
    /// Panics if `row` has a different width than the seed.
    pub fn push(&mut self, row: &[TermId]) {
        assert_eq!(row.len(), self.vars.len(), "seed row width");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// The variables the seed binds.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the seed has no row — evaluation from it yields nothing.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn row(&self, i: usize) -> &[TermId] {
        &self.data[i * self.vars.len()..(i + 1) * self.vars.len()]
    }

    /// The bindings under which body pattern `pattern` of `bgp` matches
    /// each of `triples`: one row per matching triple, over the pattern's
    /// variables. Seeding `bgp` with it evaluates "the solutions that use
    /// one of `triples` at this pattern" — the semi-naive restriction — as
    /// long as the triples are in the graph, where the pattern's own step
    /// then finds each exactly once.
    ///
    /// # Panics
    /// Panics if `pattern` is not an index into `bgp.body()`.
    pub fn of_pattern(bgp: &Bgp, pattern: usize, triples: &[Triple]) -> Self {
        let positions = bgp.body()[pattern].positions();
        let mut vars: Vec<VarId> = Vec::with_capacity(3);
        for v in positions.iter().filter_map(PatternTerm::as_var) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let slot = |v: VarId| vars.iter().position(|&s| s == v).expect("collected");
        let (mut rows, mut data) = (0, Vec::new());
        let mut row = [TermId(0); 3];
        for t in triples {
            let values = t.as_array();
            for (pos, value) in positions.iter().zip(values) {
                if let PatternTerm::Var(v) = *pos {
                    row[slot(v)] = value;
                }
            }
            // Constants must match, and so must every occurrence of a
            // variable the pattern repeats (`row` holds its last one).
            let unifies = positions.iter().zip(values).all(|(pos, value)| match *pos {
                PatternTerm::Const(c) => c == value,
                PatternTerm::Var(v) => row[slot(v)] == value,
            });
            if unifies {
                data.extend_from_slice(&row[..vars.len()]);
                rows += 1;
            }
        }
        Seed { vars, rows, data }
    }
}

/// How one position of a pattern behaves at a given step, decided statically
/// from the set of variables bound by earlier steps.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// A constant: resolved into the index probe.
    Const(TermId),
    /// A variable bound by an earlier step: its current value joins the
    /// index probe (an index nested-loop join key).
    Bound(usize),
    /// A variable first bound here (its slot is in [`StepPlan::writes`]):
    /// left free in the probe.
    Free,
}

/// The compiled form of one evaluation step over one body pattern.
struct StepPlan {
    probe: [Probe; 3],
    /// `(triple position, arena slot)` for the first occurrence of each
    /// newly bound variable.
    writes: Vec<(usize, usize)>,
    /// `(earlier position, later position)` pairs that must match — a fresh
    /// variable repeated within the same pattern (`?x p ?x`).
    eq_checks: Vec<(usize, usize)>,
    /// Variables first bound at this step (drives filter activation).
    newly_bound: Vec<VarId>,
}

/// Compiles `order` into per-step plans, tracking the statically-known
/// bound-variable set across steps, which starts as the `seeded` variables
/// plus `pre_bound`. Variables in `pre_bound` (Σ equality constants) compile
/// to [`Probe::Const`] rather than [`Probe::Bound`]: semantically identical
/// (the arena slot is seeded with the same value), but a constant
/// participates in the steps' constant shapes — so base-count estimation
/// sees the pushed-down selection.
fn build_plans(
    bgp: &Bgp,
    order: &[usize],
    seeded: &[VarId],
    pre_bound: &FxHashMap<VarId, TermId>,
) -> Vec<StepPlan> {
    let mut bound: FxHashSet<VarId> = pre_bound.keys().chain(seeded).copied().collect();
    let mut plans = Vec::with_capacity(order.len());
    for &pi in order {
        let pattern = bgp.body()[pi];
        let mut plan = StepPlan {
            probe: [Probe::Free; 3],
            writes: Vec::new(),
            eq_checks: Vec::new(),
            newly_bound: Vec::new(),
        };
        for (pos, term) in pattern.positions().into_iter().enumerate() {
            plan.probe[pos] = match term {
                PatternTerm::Const(c) => Probe::Const(c),
                PatternTerm::Var(v) if pre_bound.contains_key(&v) => Probe::Const(pre_bound[&v]),
                PatternTerm::Var(v) if bound.contains(&v) => Probe::Bound(v.index()),
                PatternTerm::Var(v) => {
                    match plan.writes.iter().find(|&&(_, slot)| slot == v.index()) {
                        // Fresh variable repeated within this pattern: the
                        // index cannot enforce the equality, check at bind.
                        Some(&(first_pos, _)) => plan.eq_checks.push((first_pos, pos)),
                        None => {
                            plan.writes.push((pos, v.index()));
                            plan.newly_bound.push(v);
                        }
                    }
                    Probe::Free
                }
            };
        }
        for &v in &plan.newly_bound {
            bound.insert(v);
        }
        plans.push(plan);
    }
    plans
}

/// Runs one compiled step: probes the index under every current row and
/// appends the extended rows to `next`, in input-row order. On the calling
/// thread when `fanout` allows one thread or the table is below its row
/// floor; otherwise the rows are cut into contiguous chunks, one scoped
/// worker per thread, each extending its chunk into a table of its own, and
/// the tables are concatenated in chunk order — the serial table, since
/// [`Graph::for_each_match`] enumerates in one order at any shard count. A
/// worker that panics fails the step with [`EngineError::WorkerPanicked`].
fn run_step(
    graph: &Graph,
    plan: &StepPlan,
    current: &BindingTable,
    fanout: Fanout,
    next: &mut BindingTable,
) -> Result<(), EngineError> {
    next.clear();
    let rows = current.rows;
    if fanout.threads <= 1 || rows < fanout.min_rows {
        // Most steps keep or grow the row count; pre-sizing to the current
        // arena avoids repeated doubling in the match closure.
        next.data.reserve(current.data.len());
        extend_rows(graph, plan, current, 0..rows, next);
        return Ok(());
    }
    #[cfg(test)]
    let panic_in = tests::PANIC_IN_CHUNK.get();
    let chunk = rows.div_ceil(fanout.threads);
    let parts: Vec<std::thread::Result<BindingTable>> = std::thread::scope(|scope| {
        let spawn = |start: usize| {
            scope.spawn(move || {
                #[cfg(test)]
                assert_ne!(panic_in, Some(start / chunk), "injected worker panic");
                let (mut table, end) = (BindingTable::new(current.stride), rows.min(start + chunk));
                extend_rows(graph, plan, current, start..end, &mut table);
                table
            })
        };
        let workers: Vec<_> = (0..rows).step_by(chunk).map(spawn).collect();
        workers.into_iter().map(|worker| worker.join()).collect()
    });
    next.data
        .reserve(parts.iter().flatten().map(|t| t.data.len()).sum());
    for part in parts {
        let table = part.map_err(worker_panicked)?;
        next.data.extend_from_slice(&table.data);
        next.rows += table.rows;
    }
    Ok(())
}

/// The error a panicked BGP worker's payload becomes.
fn worker_panicked(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let message = match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .unwrap_or(&"no message")
            .to_string(),
    };
    EngineError::WorkerPanicked(message)
}

/// The row kernel every worker runs, serial or not: extends each of its
/// `rows` with every match of the step's probe — constants (including Σ
/// constants pre-bound by [`evaluate_filtered`]) resolved, each variable an
/// earlier step bound at the row's value, fresh variables free — appending
/// to `out` in the order given.
fn extend_rows(
    graph: &Graph,
    plan: &StepPlan,
    current: &BindingTable,
    rows: std::ops::Range<usize>,
    out: &mut BindingTable,
) {
    let stride = current.stride;
    for i in rows {
        let row = current.row(i);
        let [s, p, o] = plan.probe.map(|probe| match probe {
            Probe::Const(c) => Some(c),
            Probe::Bound(slot) => Some(row[slot]),
            Probe::Free => None,
        });
        graph.for_each_match(TriplePattern::new(s, p, o), |t: Triple| {
            let vals = t.as_array();
            for &(a, b) in &plan.eq_checks {
                if vals[a] != vals[b] {
                    return;
                }
            }
            out.data.extend_from_slice(row);
            let base = out.data.len() - stride;
            for &(pos, slot) in &plan.writes {
                out.data[base + slot] = vals[pos];
            }
            out.rows += 1;
        });
    }
}

/// Evaluates `bgp` over `graph` under the given semantics.
pub fn evaluate(graph: &Graph, bgp: &Bgp, semantics: Semantics) -> Result<Relation, EngineError> {
    evaluate_filtered(graph, bgp, &[], semantics)
}

/// Evaluates `bgp` with sideways filter push-down: each [`FilterExpr`] is
/// applied the moment its variable binds, pruning partial solutions before
/// they fan out through later patterns. Equivalent to evaluating and then
/// selecting, but cheaper for selective filters.
///
/// Filters that pin a variable to one constant (a singleton `OneOf` — the
/// shape slice Σ constraints take) go further: the variable is
/// **pre-bound** before any pattern runs, so the constant participates in
/// index probes and join ordering, instead of post-filtering rows the
/// indexes already produced. Filters on
/// a pre-bound variable are decided at compile time: a contradiction
/// returns the empty relation without touching the store.
pub fn evaluate_filtered(
    graph: &Graph,
    bgp: &Bgp,
    filters: &[FilterExpr],
    semantics: Semantics,
) -> Result<Relation, EngineError> {
    evaluate_seeded(graph, bgp, &Seed::unit(), filters, semantics)
}

/// [`evaluate_filtered`] started from `seed` instead of from the single
/// empty binding: the solutions of `bgp` that extend one of the seed's rows
/// (under bag semantics, once per row they extend). The seeded variables
/// count as bound from the first step on — they steer the join order and
/// turn their patterns into index probes — so evaluating a rooted query
/// for a few hundred roots costs a few hundred probes per pattern, not a
/// scan. Filters on a seeded variable select among the seed's rows.
pub fn evaluate_seeded(
    graph: &Graph,
    bgp: &Bgp,
    seed: &Seed,
    filters: &[FilterExpr],
    semantics: Semantics,
) -> Result<Relation, EngineError> {
    bgp.validate()?;
    // Filter variables must occur in the body (checked up front: evaluation
    // may short-circuit on an empty intermediate result before reaching the
    // pattern that would have bound them) — and so must seeded ones, whose
    // ids index the arena.
    let body_vars = bgp.body_var_set();
    let filtered = filters.iter().map(|f| ("filter", f.var));
    let seeded = seed.vars.iter().map(|&v| ("seeded", v));
    for (what, v) in filtered.chain(seeded) {
        if !body_vars.contains(&v) {
            // A seed may name a variable of some other query altogether.
            let known = v.index() < bgp.vars().len();
            let name = known.then(|| format!("?{}", bgp.vars().name(v)));
            return Err(EngineError::Validation(format!(
                "{what} variable {} does not occur in the query body",
                name.unwrap_or_else(|| v.to_string())
            )));
        }
    }
    let mut pre_bound: FxHashMap<VarId, TermId> = FxHashMap::default();
    for f in filters {
        if let Some(c) = f.selector.as_constant() {
            // A seeded variable already has its values; the filter selects
            // among them like any other.
            if !seed.vars.contains(&f.var) {
                pre_bound.entry(f.var).or_insert(c);
            }
        }
    }
    let mut residual: Vec<FilterExpr> = Vec::new();
    for f in filters {
        match pre_bound.get(&f.var) {
            // Every filter on a pre-bound variable is decidable now: the
            // variable can only ever hold the pre-bound constant.
            Some(&c) if f.selector.admits(c, graph.dict()) => {}
            Some(_) => return Ok(Relation::with_capacity(bgp.head().to_vec(), 0)),
            None => residual.push(f.clone()),
        }
    }
    let plan = order_patterns(graph, bgp, &seed.vars, &pre_bound);
    let order: Vec<usize> = plan.into_iter().map(|(pi, ..)| pi).collect();
    let fanout = Fanout::of_process();
    let solutions = evaluate_steps(graph, bgp, &order, seed, &pre_bound, &residual, fanout)?;
    project_head(bgp, &solutions, seed, semantics)
}

/// Declared-order evaluator: index-backed binding propagation like
/// [`evaluate`], but visiting patterns in declaration order instead of greedy
/// cheapest-first order — the reference the test suites hold the join
/// ordering against.
pub fn evaluate_in_order(
    graph: &Graph,
    bgp: &Bgp,
    semantics: Semantics,
) -> Result<Relation, EngineError> {
    bgp.validate()?;
    let order: Vec<usize> = (0..bgp.body().len()).collect();
    let (seed, pre_bound) = (Seed::unit(), FxHashMap::default());
    let fanout = Fanout::of_process();
    let solutions = evaluate_steps(graph, bgp, &order, &seed, &pre_bound, &[], fanout)?;
    project_head(bgp, &solutions, &seed, semantics)
}

/// The one step driver: compiles `order` to step plans and runs them over
/// the double-buffered arena, starting from `seed`'s rows. The seeded and
/// `pre_bound` variables hold their values from the first step on (their
/// slots are written before it); `filters` on a seeded variable fire before
/// it too, every other one right after the step that binds its variable.
/// Returns the surviving solutions, one arena row each.
fn evaluate_steps(
    graph: &Graph,
    bgp: &Bgp,
    order: &[usize],
    seed: &Seed,
    pre_bound: &FxHashMap<VarId, TermId>,
    filters: &[FilterExpr],
    fanout: Fanout,
) -> Result<BindingTable, EngineError> {
    let stride = bgp.vars().len();
    let plans = build_plans(bgp, order, &seed.vars, pre_bound);
    let dict = graph.dict();
    let mut current = BindingTable::seeded(stride, seed, pre_bound);
    let admitted = |f: &&FilterExpr, row: &[TermId]| f.selector.admits(row[f.var.index()], dict);
    let on_seed: Vec<&FilterExpr> = filters
        .iter()
        .filter(|f| seed.vars.contains(&f.var))
        .collect();
    if !on_seed.is_empty() {
        current.retain(|row| on_seed.iter().all(|f| admitted(f, row)));
    }
    let mut next = BindingTable::new(stride);
    let sink = rdfcube_obs::sink();
    for (step, plan) in plans.iter().enumerate() {
        if current.is_empty() {
            break;
        }
        let sp = rdfcube_obs::span("bgp_step");
        let rows_in = current.rows as u64;
        run_step(graph, plan, &current, fanout, &mut next)?;
        let rows_matched = next.rows as u64;
        // Filters whose variable binds at this step fire right after it.
        if !filters.is_empty() {
            let active: Vec<&FilterExpr> = filters
                .iter()
                .filter(|f| plan.newly_bound.contains(&f.var))
                .collect();
            if !active.is_empty() {
                next.retain(|row| active.iter().all(|f| admitted(f, row)));
            }
        }
        let rows_out = next.rows as u64;
        sink.bgp_steps.fetch_add(1, Ordering::Relaxed);
        sink.step_rows.fetch_add(rows_out, Ordering::Relaxed);
        if sp.active() {
            sp.rows(rows_in, rows_out);
            sp.attr("rows_matched", rows_matched);
            sp.detail(|| format!("pattern #{}", order[step]));
        }
        drop(sp);
        std::mem::swap(&mut current, &mut next);
    }
    Ok(current)
}

/// Oracle evaluator: declaration order, full scans, no indexes. Produces the
/// same homomorphism set as [`evaluate`]; exponentially slower on purpose.
pub fn evaluate_nested_loop(
    graph: &Graph,
    bgp: &Bgp,
    semantics: Semantics,
) -> Result<Relation, EngineError> {
    bgp.validate()?;
    let all: Vec<Triple> = graph.triples().collect();
    let mut current: Vec<PartialRow> = vec![vec![None; bgp.vars().len()]];
    for pattern in bgp.body() {
        let mut next = Vec::new();
        for row in &current {
            for t in &all {
                try_bind(pattern, row, *t, &mut next);
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    let head = bgp.head().to_vec();
    let mut rel = Relation::with_capacity(head.clone(), current.len());
    let mut out: Vec<TermId> = Vec::with_capacity(head.len());
    for row in &current {
        out.clear();
        for &v in &head {
            let Some(id) = row[v.index()] else {
                return Err(EngineError::Validation(format!(
                    "head variable ?{} left unbound by evaluation",
                    bgp.vars().name(v)
                )));
            };
            out.push(id);
        }
        rel.push_row(&out);
    }
    Ok(match semantics {
        Semantics::Set => rel.distinct(),
        Semantics::Bag => rel,
    })
}

/// Projects the arena's surviving rows onto the head. Every head variable is
/// statically bound once all steps ran ([`Bgp::validate`] pins head ⊆ body
/// variables), so slots are read unconditionally. Set semantics skips δ
/// when no row can repeat: strictly ascending `seed` rows are distinct and
/// extend to distinct solutions, which a head binding every body variable
/// projects to distinct rows.
fn project_head(
    bgp: &Bgp,
    solutions: &BindingTable,
    seed: &Seed,
    semantics: Semantics,
) -> Result<Relation, EngineError> {
    let head = bgp.head().to_vec();
    let mut rel = Relation::with_capacity(head.clone(), solutions.rows);
    for i in 0..solutions.rows {
        let row = solutions.row(i);
        rel.push_row_from(head.iter().map(|&v| row[v.index()]));
    }
    let distinct_seed = (1..seed.rows).all(|i| seed.row(i - 1) < seed.row(i));
    let injective = distinct_seed && bgp.existential_vars().is_empty();
    Ok(match semantics {
        Semantics::Set if !injective => rel.distinct(),
        Semantics::Set | Semantics::Bag => rel,
    })
}

/// Attempts to unify `t` with `pattern` under `row`; pushes the extended row
/// on success. Handles repeated variables (`?x p ?x`) by sequential
/// assign-then-check over the three positions. Oracle-only.
fn try_bind(pattern: &QueryPattern, row: &PartialRow, t: Triple, out: &mut Vec<PartialRow>) {
    let mut extended = row.clone();
    for (pos, value) in pattern.positions().into_iter().zip(t.as_array()) {
        match pos {
            PatternTerm::Const(c) => {
                if c != value {
                    return;
                }
            }
            PatternTerm::Var(v) => match extended[v.index()] {
                None => extended[v.index()] = Some(value),
                Some(bound) if bound == value => {}
                Some(_) => return,
            },
        }
    }
    out.push(extended);
}

/// Greedy join ordering: repeatedly picks the cheapest pattern, preferring
/// patterns connected to the already-bound variables (avoiding cartesian
/// products when the query allows it).
///
/// The cost estimate is the store's exact count for the pattern's constant
/// shape, discounted for each position occupied by an already-bound variable
/// (a bound variable behaves like a constant at execution time; `/8` per
/// position is a crude but effective stand-in for per-value statistics).
/// The constant-shape count of each pattern does not depend on the bound
/// set, so it is probed **once** per pattern and memoized — the greedy loop
/// is then O(n²) hash-set work, not O(n²) index probes.
///
/// `pre_bound` variables (Σ equality constants) are resolved **into** the
/// constant shape, so their base counts are exact rather than discounted
/// guesses — and they count as bound for connectivity, steering the plan to
/// start from the sliced dimension. `seeded` variables are bound from the
/// start too, to one value per seed row rather than to a constant, so they
/// are discounted like any variable an earlier step bound. On a sharded
/// store the counts are sums of shard-local statistics
/// ([`Graph::count_matching`]). A root scan (its predicate and object constant) reads POS root
/// by root, so later probes walk SPO forward; it leads unless [`ORDERED_PROBE_GAIN`]× dearer.
///
/// Returns the plan step by step: `(pattern index, estimated rows,
/// connected)`, the estimate taken before the root-scan division.
fn order_patterns(
    graph: &Graph,
    bgp: &Bgp,
    seeded: &[VarId],
    pre_bound: &FxHashMap<VarId, TermId>,
) -> Vec<(usize, f64, bool)> {
    let n = bgp.body().len();
    let base: Vec<usize> = bgp
        .body()
        .iter()
        .map(|&p| base_count_resolved(graph, p, pre_bound))
        .collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut bound: FxHashSet<VarId> = pre_bound.keys().chain(seeded).copied().collect();
    let mut order = Vec::with_capacity(n);

    while !remaining.is_empty() {
        // Minimize (disconnected?, cost): connected patterns always beat
        // disconnected ones; among equals, the cheaper estimate wins.
        let mut best: Option<(usize, (bool, f64), f64)> = None;
        for (slot, &pi) in remaining.iter().enumerate() {
            let pattern = bgp.body()[pi];
            let connected = bound.is_empty() || pattern.vars().any(|v| bound.contains(&v));
            let rows = estimate_with_count(base[pi], pattern, &bound, pre_bound);
            let mut cost = rows;
            let root_scan = pattern.s.as_var().is_some_and(|s| bgp.root() == Some(s));
            if order.is_empty() && root_scan && !pattern.p.is_var() && !pattern.o.is_var() {
                cost /= ORDERED_PROBE_GAIN;
            }
            let score = (!connected, cost);
            let better = match &best {
                None => true,
                Some((_, (b_disc, b_cost), _)) => {
                    (!score.0 && *b_disc) || (score.0 == *b_disc && score.1 < *b_cost)
                }
            };
            if better {
                best = Some((slot, score, rows));
            }
        }
        let (slot, (disconnected, _), rows) = best.expect("remaining is non-empty");
        let pi = remaining.swap_remove(slot);
        for v in bgp.body()[pi].vars() {
            bound.insert(v);
        }
        order.push((pi, rows, !disconnected));
    }
    order
}

/// One step of an explained query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Index of the pattern in the query body (declaration order).
    pub pattern_index: usize,
    /// The pattern rendered in the paper's notation.
    pub pattern: String,
    /// The optimizer's cardinality estimate when this step was chosen.
    pub estimated_rows: f64,
    /// Whether the step shares a variable with the previously bound set
    /// (false means a cartesian product was unavoidable).
    pub connected: bool,
}

/// Explains the join order [`evaluate`] would choose for `bgp`, without
/// running it — for debugging analytical queries over large instances.
pub fn explain(graph: &Graph, bgp: &Bgp) -> Result<Vec<PlanStep>, EngineError> {
    bgp.validate()?;
    let order = order_patterns(graph, bgp, &[], &FxHashMap::default());
    let step = |(pi, estimated_rows, connected): (usize, f64, bool)| PlanStep {
        pattern_index: pi,
        pattern: render_pattern(bgp, bgp.body()[pi], graph),
        estimated_rows,
        connected,
    };
    Ok(order.into_iter().map(step).collect())
}

fn render_pattern(bgp: &Bgp, pattern: QueryPattern, graph: &Graph) -> String {
    let pos = |t: PatternTerm| match t {
        PatternTerm::Var(v) => format!("?{}", bgp.vars().name(v)),
        PatternTerm::Const(c) => graph
            .dict()
            .get(c)
            .map_or_else(|| c.to_string(), |term| term.display_compact()),
    };
    format!("{} {} {}", pos(pattern.s), pos(pattern.p), pos(pattern.o))
}

/// The store's exact count for the pattern's constant shape, other
/// variables wildcarded and `pre_bound` ones resolved to their constants:
/// the shape the evaluator will actually probe, so the count is exact for
/// pushed-down Σ selections. The memoizable part of an estimate.
fn base_count_resolved(
    graph: &Graph,
    pattern: QueryPattern,
    pre_bound: &FxHashMap<VarId, TermId>,
) -> usize {
    let as_const = |pos: PatternTerm| match pos {
        PatternTerm::Const(c) => Some(c),
        PatternTerm::Var(v) => pre_bound.get(&v).copied(),
    };
    let shape = TriplePattern::new(
        as_const(pattern.s),
        as_const(pattern.p),
        as_const(pattern.o),
    );
    graph.count_matching(shape)
}

fn estimate_with_count(
    count: usize,
    pattern: QueryPattern,
    bound: &FxHashSet<VarId>,
    resolved: &FxHashMap<VarId, TermId>,
) -> f64 {
    let mut est = count as f64;
    // Discount once per *distinct* already-bound variable: a repeated
    // variable (`?x p ?x`) behaves like one constant at execution time, not
    // two, so discounting each occurrence would square the factor. Variables
    // already resolved into the base count (Σ constants) are exact there —
    // discounting them again would double-count the selection.
    let mut discounted: [Option<VarId>; 3] = [None; 3];
    let mut n_discounted = 0;
    for pos in pattern.positions() {
        if let PatternTerm::Var(v) = pos {
            if bound.contains(&v)
                && !resolved.contains_key(&v)
                && !discounted[..n_discounted].contains(&Some(v))
            {
                discounted[n_discounted] = Some(v);
                n_discounted += 1;
                est /= 8.0;
            }
        }
    }
    // A matchable pattern yields at least one candidate row per probe;
    // without the floor, stacked discounts underflow toward 0 and make
    // heavily-bound patterns look free, misordering joins. Truly empty
    // patterns (count == 0) keep their exact 0 so they are tried first and
    // short-circuit evaluation.
    if count > 0 {
        est = est.max(1.0)
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use rdfcube_rdf::parse_turtle;

    /// The paper's Example 1 instance fragment (Figure 1 data).
    fn blog_graph() -> Graph {
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

    #[test]
    fn classifier_query_set_semantics() {
        let mut g = blog_graph();
        let c = parse_query(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
            g.dict_mut(),
        )
        .unwrap();
        let rel = evaluate(&g, &c, Semantics::Set).unwrap();
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn measure_query_bag_semantics_counts_embeddings() {
        // Example 2: user1's measure bag is {|s1, s1, s2|}.
        let mut g = blog_graph();
        let m = parse_query(
            "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
            g.dict_mut(),
        )
        .unwrap();
        let bag = evaluate(&g, &m, Semantics::Bag).unwrap();
        let user1 = g.dict().iri_id("user1").unwrap();
        let s1 = g.dict().iri_id("s1").unwrap();
        let user1_rows: Vec<_> = bag.rows().filter(|r| r[0] == user1).collect();
        assert_eq!(user1_rows.len(), 3);
        assert_eq!(user1_rows.iter().filter(|r| r[1] == s1).count(), 2);

        // Set semantics collapses the duplicate s1.
        let set = evaluate(&g, &m, Semantics::Set).unwrap();
        assert_eq!(set.rows().filter(|r| r[0] == user1).count(), 2);
    }

    #[test]
    fn index_nested_loop_and_in_order_agree() {
        let mut g = blog_graph();
        for text in [
            "q(?x) :- ?x rdf:type Blogger",
            "q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s",
            "q(?x, ?a, ?c) :- ?x hasAge ?a, ?x livesIn ?c, ?x rdf:type Blogger",
            "q(?p) :- ?x wrotePost ?p, ?p postedOn <s1>",
        ] {
            let q = parse_query(text, g.dict_mut()).unwrap();
            for semantics in [Semantics::Set, Semantics::Bag] {
                let fast = evaluate(&g, &q, semantics).unwrap();
                let slow = evaluate_nested_loop(&g, &q, semantics).unwrap();
                let in_order = evaluate_in_order(&g, &q, semantics).unwrap();
                assert!(fast.same_bag(&slow), "nested-loop mismatch for {text}");
                assert!(fast.same_bag(&in_order), "in-order mismatch for {text}");
            }
        }
    }

    #[test]
    fn repeated_variable_requires_equality() {
        let mut g = parse_turtle("<a> <p> <a> . <a> <p> <b> .").unwrap();
        let q = parse_query("q(?x) :- ?x p ?x", g.dict_mut()).unwrap();
        let rel = evaluate(&g, &q, Semantics::Set).unwrap();
        assert_eq!(rel.len(), 1);
        let a = g.dict().iri_id("a").unwrap();
        assert_eq!(rel.row(0), &[a]);
    }

    #[test]
    fn repeated_variable_already_bound_is_probed_not_checked() {
        // Once ?x is bound by the first pattern, the second pattern's two
        // occurrences both resolve into the index probe.
        let mut g = parse_turtle("<a> <q> <a> . <a> <p> <a> . <b> <q> <b> .").unwrap();
        let q = parse_query("q(?x) :- ?x q ?x, ?x p ?x", g.dict_mut()).unwrap();
        let rel = evaluate(&g, &q, Semantics::Set).unwrap();
        assert_eq!(rel.len(), 1);
        let slow = evaluate_nested_loop(&g, &q, Semantics::Set).unwrap();
        assert!(rel.same_bag(&slow));
    }

    #[test]
    fn all_constant_body_counts_homomorphisms() {
        // A body with no variables: bag semantics yields one zero-column row
        // per (trivial) homomorphism, set semantics collapses to one.
        let mut g = parse_turtle("<a> <p> <b> .").unwrap();
        let q = parse_query("q() :- a p b", g.dict_mut()).unwrap();
        let bag = evaluate(&g, &q, Semantics::Bag).unwrap();
        assert_eq!(bag.len(), 1);
        assert_eq!(bag.arity(), 0);
        let set = evaluate(&g, &q, Semantics::Set).unwrap();
        assert_eq!(set.len(), 1);
        let q2 = parse_query("q() :- a p nope", g.dict_mut()).unwrap();
        assert!(evaluate(&g, &q2, Semantics::Bag).unwrap().is_empty());
    }

    #[test]
    fn unsatisfiable_constant_short_circuits() {
        let mut g = blog_graph();
        let q = parse_query("q(?x) :- ?x rdf:type Nonexistent", g.dict_mut()).unwrap();
        assert!(evaluate(&g, &q, Semantics::Set).unwrap().is_empty());
    }

    #[test]
    fn cartesian_product_still_works() {
        let mut g = parse_turtle("<a> <p> <b> . <c> <q> <d> .").unwrap();
        let q = parse_query("q(?x, ?y) :- ?x p ?b, ?y q ?d", g.dict_mut()).unwrap();
        let rel = evaluate(&g, &q, Semantics::Set).unwrap();
        assert_eq!(rel.len(), 1); // one binding each side
        let slow = evaluate_nested_loop(&g, &q, Semantics::Set).unwrap();
        assert!(rel.same_bag(&slow));
    }

    #[test]
    fn variable_predicate_is_supported() {
        let mut g = parse_turtle("<a> <p> <b> . <a> <q> <b> .").unwrap();
        let q = parse_query("q(?prop) :- a ?prop b", g.dict_mut()).unwrap();
        let rel = evaluate(&g, &q, Semantics::Set).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn empty_body_is_error() {
        let g = Graph::new();
        let bgp = Bgp::new("q");
        assert!(evaluate(&g, &bgp, Semantics::Set).is_err());
    }

    #[test]
    fn filtered_evaluation_equals_post_selection() {
        use crate::filter::{FilterExpr, Selector};
        let mut g = blog_graph();
        let q = parse_query(
            "q(?x, ?a, ?c) :- ?x rdf:type Blogger, ?x hasAge ?a, ?x livesIn ?c",
            g.dict_mut(),
        )
        .unwrap();
        let a = q.vars().id("a").unwrap();

        let filters = vec![FilterExpr {
            var: a,
            selector: Selector::Between {
                lo: 30,
                hi: i64::MAX,
            },
        }];
        let pushed = evaluate_filtered(&g, &q, &filters, Semantics::Set).unwrap();

        let all = evaluate(&g, &q, Semantics::Set).unwrap();
        let a_col = all.col(a).unwrap();
        let dict = g.dict();
        let post = all.select(|row| {
            dict.get(row[a_col])
                .and_then(rdfcube_rdf::Term::as_f64)
                .is_some_and(|v| v >= 30.0)
        });
        assert!(pushed.same_bag(&post));
        assert_eq!(pushed.len(), 2); // user3 and user4, both 35
    }

    #[test]
    fn filter_between_prunes_early() {
        use crate::filter::{FilterExpr, Selector};
        let mut g = blog_graph();
        let q = parse_query("q(?x, ?a) :- ?x hasAge ?a, ?x wrotePost ?p", g.dict_mut()).unwrap();
        let a = q.vars().id("a").unwrap();
        let filters = vec![FilterExpr {
            var: a,
            selector: Selector::Between { lo: 20, hi: 30 },
        }];
        let rel = evaluate_filtered(&g, &q, &filters, Semantics::Set).unwrap();
        assert_eq!(rel.len(), 1); // only user1 (28)
    }

    #[test]
    fn explain_orders_selective_patterns_first() {
        let mut g = blog_graph();
        let q = parse_query(
            "q(?x, ?c) :- ?x wrotePost ?p, ?x livesIn ?c, ?p postedOn s3",
            g.dict_mut(),
        )
        .unwrap();
        let plan = explain(&g, &q).unwrap();
        assert_eq!(plan.len(), 3);
        // The single-match constant pattern must come first. (Estimates are
        // not monotone across steps: bound-variable discounts apply later.)
        assert!(plan[0].pattern.contains("s3"), "plan: {plan:?}");
        assert!(plan[0].estimated_rows <= 1.0);
        assert!(
            plan.iter().all(|s| s.connected),
            "rooted query has no cartesian step"
        );
        // Every body pattern appears exactly once.
        let mut idx: Vec<usize> = plan.iter().map(|s| s.pattern_index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn explain_starts_rooted_queries_from_a_root_scan() {
        // Example 1's classifier over bloggers some of whom have no age or
        // city, so `hasAge` is the cheapest scan — but it yields roots in
        // `(age, root)` order. Within the probe gain of it, the plan starts
        // from `rdf:type`, the root scan; far beyond it, from `hasAge`.
        for (ageless, first) in [(2, 0), (40, 1)] {
            let mut g = blog_graph();
            let blogger = rdfcube_rdf::Term::iri("Blogger");
            for u in 0..ageless {
                g.insert_iri(
                    &format!("ageless{u}"),
                    rdfcube_rdf::vocab::RDF_TYPE,
                    &blogger,
                );
            }
            let q = parse_query(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                g.dict_mut(),
            )
            .unwrap();
            let plan = explain(&g, &q).unwrap();
            assert_eq!(plan[0].pattern_index, first, "{ageless} ageless: {plan:?}");
            if first == 0 {
                // Every later step probes from the bound root: in root order.
                let roots = evaluate(&g, &q, Semantics::Set).unwrap();
                assert!(roots.rows().map(|row| row[0]).is_sorted());
            }
            // A Σ constant makes `hasAge` a root scan of 2 rows: it goes first.
            let dage = q.vars().id("dage").unwrap();
            let age35 = g.dict_mut().encode(&rdfcube_rdf::Term::integer(35));
            let pre_bound = FxHashMap::from_iter([(dage, age35)]);
            assert_eq!(order_patterns(&g, &q, &[], &pre_bound)[0].0, 1);
        }
    }

    #[test]
    fn explain_flags_cartesian_products() {
        let mut g = parse_turtle("<a> <p> <b> . <c> <q> <d> .").unwrap();
        let q = parse_query("q(?x, ?y) :- ?x p ?v, ?y q ?w", g.dict_mut()).unwrap();
        let plan = explain(&g, &q).unwrap();
        assert!(plan[0].connected, "first step is trivially connected");
        assert!(
            !plan[1].connected,
            "second step must be a cartesian product"
        );
    }

    #[test]
    fn estimate_discounts_repeated_bound_variables_once_and_floors() {
        // 32 triples under predicate p.
        let mut g = Graph::new();
        for i in 0..32 {
            g.insert_iri(
                &format!("n{i}"),
                "p",
                &rdfcube_rdf::Term::iri(format!("m{i}")),
            );
        }
        let estimate = |g: &Graph, pattern, bound: &FxHashSet<VarId>| {
            let none = FxHashMap::default();
            estimate_with_count(
                base_count_resolved(g, pattern, &none),
                pattern,
                bound,
                &none,
            )
        };
        let q = parse_query("q(?x) :- ?x p ?x", g.dict_mut()).unwrap();
        let x = q.vars().id("x").unwrap();
        let mut bound = FxHashSet::default();
        bound.insert(x);
        // ?x occupies two positions but must be discounted once: 32/8 = 4
        // (the old per-position discount gave 32/64 = 0.5).
        assert_eq!(estimate(&g, q.body()[0], &bound), 4.0);

        // Stacked discounts bottom out at 1 row, not 0.
        let mut g2 = parse_turtle("<a> <p> <b> .").unwrap();
        let q2 = parse_query("q(?x, ?y) :- ?x p ?y", g2.dict_mut()).unwrap();
        let mut both = FxHashSet::default();
        both.insert(q2.vars().id("x").unwrap());
        both.insert(q2.vars().id("y").unwrap());
        assert_eq!(estimate(&g2, q2.body()[0], &both), 1.0);

        // Truly empty patterns keep their exact zero (tried first, so the
        // evaluator short-circuits).
        let q3 = parse_query("q(?x) :- ?x nosuch ?x", g2.dict_mut()).unwrap();
        let mut bound3 = FxHashSet::default();
        bound3.insert(q3.vars().id("x").unwrap());
        assert_eq!(estimate(&g2, q3.body()[0], &bound3), 0.0);
    }

    /// 240 users with ages, a `knows` ring and two posts each, plus a tiny
    /// badge relation that shares nothing with them (cartesian shapes).
    fn big_graph() -> Graph {
        let mut g = Graph::new();
        for u in 0..240i64 {
            let user = format!("user{u}");
            g.insert_iri(&user, "hasAge", &rdfcube_rdf::Term::integer(u % 50));
            g.insert_iri(
                &user,
                "knows",
                &rdfcube_rdf::Term::iri(format!("user{}", (u + 1) % 240)),
            );
            for p in 0..2 {
                let post = format!("post_{u}_{p}");
                g.insert_iri(&user, "wrotePost", &rdfcube_rdf::Term::iri(post.clone()));
                g.insert_iri(
                    &post,
                    "postedOn",
                    &rdfcube_rdf::Term::iri(format!("site{}", u % 7)),
                );
            }
        }
        for b in 0..3 {
            g.insert_iri(
                &format!("badge{b}"),
                "awardedFor",
                &rdfcube_rdf::Term::iri(format!("cat{b}")),
            );
        }
        g.compact();
        g
    }

    thread_local! {
        /// Fault injection: while set on a thread, the worker of this chunk
        /// index panics in every step that thread fans out.
        pub(super) static PANIC_IN_CHUNK: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    const SERIAL: Fanout = Fanout {
        threads: 1,
        min_rows: 0,
    };

    /// Runs `q` through the step driver under `fanout`, in greedy or declared
    /// pattern order.
    fn solve(
        g: &Graph,
        q: &Bgp,
        declared: bool,
        semantics: Semantics,
        fanout: Fanout,
    ) -> Result<Relation, EngineError> {
        let (seed, none) = (Seed::unit(), FxHashMap::default());
        let order: Vec<usize> = match declared {
            true => (0..q.body().len()).collect(),
            false => order_patterns(g, q, &[], &none)
                .into_iter()
                .map(|(pi, ..)| pi)
                .collect(),
        };
        let solutions = evaluate_steps(g, q, &order, &seed, &none, &[], fanout)?;
        project_head(q, &solutions, &seed, semantics)
    }

    #[test]
    fn every_partitioning_is_identical_to_serial_flat() {
        // (the last step's probe shape, query, declared order?), each run
        // in row chunks over a store of 1, 2, 7 and 16 shards.
        let cases = [
            (
                "(Bound, Const, Free)",
                "q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s",
                false,
            ),
            (
                "(Free, Const, Bound)",
                "q(?x, ?y, ?a) :- ?x hasAge ?a, ?y hasAge ?a",
                false,
            ),
            (
                "(Free, Const, Free)",
                "q(?b, ?y, ?a) :- ?b awardedFor ?c, ?y hasAge ?a",
                true,
            ),
            (
                "(Free, Free, Bound)",
                "q(?x, ?a, ?y, ?r) :- ?x hasAge ?a, ?y ?r ?x",
                false,
            ),
            (
                "(Free, Free, Free)",
                "q(?b, ?y, ?r, ?z) :- ?b awardedFor ?c, ?y ?r ?z",
                true,
            ),
            (
                "cartesian scan of a tiny relation",
                "q(?x, ?a, ?y, ?b) :- ?x hasAge ?a, ?y awardedFor ?b",
                true,
            ),
        ];
        let mut flat = big_graph();
        let queries: Vec<Bgp> = cases
            .iter()
            .map(|(_, text, _)| parse_query(text, flat.dict_mut()).unwrap())
            .collect();
        // The same store with two inserts still in the delta.
        let mut pending = flat.clone();
        for (s, p, o) in [
            ("user_extra", "wrotePost", "post_extra"),
            ("post_extra", "postedOn", "site_extra"),
        ] {
            pending.insert_iri(s, p, &rdfcube_rdf::Term::iri(o));
        }
        let fanout = Fanout {
            threads: 4,
            min_rows: 0,
        };
        for n in [1, 2, 7, 16] {
            // Both stores over the same dictionary, in `n` shards.
            let compacted = Graph::from_triples_sharded(pending.dict().clone(), flat.triples(), n);
            let mut with_delta = compacted.clone();
            for t in pending.inserted_since(flat.len()).expect("two inserts") {
                with_delta.insert_triple(*t);
            }
            assert!(with_delta.has_pending_delta());
            for (((name, _, declared), q), semantics) in cases
                .iter()
                .zip(&queries)
                .flat_map(|case| [Semantics::Set, Semantics::Bag].map(|s| (case, s)))
            {
                let ctx = format!("{name}, {n} shards, {semantics:?}");
                let serial = solve(&flat, q, *declared, semantics, SERIAL).unwrap();
                assert!(!serial.is_empty(), "{ctx}: vacuous case");
                let par = solve(&compacted, q, *declared, semantics, fanout).unwrap();
                assert!(serial.rows().eq(par.rows()), "{ctx}: rows diverged");
                let serial = solve(&pending, q, *declared, semantics, SERIAL).unwrap();
                let par = solve(&with_delta, q, *declared, semantics, fanout).unwrap();
                assert!(serial.rows().eq(par.rows()), "{ctx}: delta rows diverged");
            }
        }
    }

    #[test]
    fn a_panicking_worker_fails_the_query_with_a_typed_error() {
        let mut g = big_graph();
        let q = parse_query("q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s", g.dict_mut()).unwrap();
        let fanout = Fanout {
            threads: 4,
            min_rows: 0,
        };
        // Chunk 2 exists from the second step on (480 rows in 4 chunks).
        PANIC_IN_CHUNK.set(Some(2));
        let failed = solve(&g, &q, false, Semantics::Bag, fanout);
        PANIC_IN_CHUNK.set(None);
        match failed {
            Err(EngineError::WorkerPanicked(message)) => {
                assert!(message.contains("injected worker panic"), "{message}")
            }
            other => panic!("expected a worker error, got {other:?}"),
        }
        let serial = solve(&g, &q, false, Semantics::Bag, SERIAL).unwrap();
        let par = solve(&g, &q, false, Semantics::Bag, fanout).unwrap();
        assert!(serial.rows().eq(par.rows()));
    }

    /// One pattern position, in the style of `tests/bgp_eval_prop.rs`: kinds
    /// 0..=4 pick a variable v0..v4 (few, so repeats within and across
    /// patterns are common), the rest a constant — sometimes one absent from
    /// every graph.
    type PosSpec = (u8, u8);

    fn arb_pattern() -> impl proptest::strategy::Strategy<Value = (PosSpec, PosSpec, PosSpec)> {
        ((0u8..8, 0u8..10), (0u8..8, 0u8..6), (0u8..8, 0u8..10))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Random graph × random BGP × shard count × thread count, every
        /// step fanned out (row floor 0): the chunked runner returns the
        /// nested-loop oracle's bag, and serial evaluation's rows in serial
        /// evaluation's order.
        #[test]
        fn partitioned_steps_equal_serial_and_the_oracle(
            triples in proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 0..32),
            patterns in proptest::collection::vec(arb_pattern(), 1..4),
            head_mask in 0u8..32,
        ) {
            use rdfcube_rdf::Term;
            let mut flat = Graph::new();
            for &(s, p, o) in &triples {
                flat.insert_iri(&format!("n{s}"), &format!("p{p}"), &Term::iri(format!("n{o}")));
            }
            flat.compact();
            let mut q = Bgp::new("q");
            let mut used: Vec<VarId> = Vec::new();
            for &(s, p, o) in &patterns {
                let mut term = |(kind, payload): PosSpec, prefix: &str, range: u8| {
                    if kind < 5 {
                        let v = q.var(&format!("v{}", payload % 5));
                        if !used.contains(&v) {
                            used.push(v);
                        }
                        PatternTerm::Var(v)
                    } else {
                        // n8/n9 and p4/p5 occur in no graph.
                        PatternTerm::Const(flat.encode(&Term::iri(format!("{prefix}{}", payload % range))))
                    }
                };
                let pattern = QueryPattern::new(term(s, "n", 10), term(p, "p", 6), term(o, "n", 10));
                q.push_pattern(pattern);
            }
            let head = used.iter().enumerate().filter(|(i, _)| head_mask & (1 << i) != 0);
            q.set_head(head.map(|(_, &v)| v).collect());

            for semantics in [Semantics::Set, Semantics::Bag] {
                let oracle = evaluate_nested_loop(&flat, &q, semantics).unwrap();
                let serial = solve(&flat, &q, false, semantics, SERIAL).unwrap();
                for (n, threads) in [(1, 2), (1, 4), (2, 2), (2, 4), (7, 2), (7, 4)] {
                    let sharded = Graph::from_triples_sharded(flat.dict().clone(), flat.triples(), n);
                    let fanout = Fanout { threads, min_rows: 0 };
                    let par = solve(&sharded, &q, false, semantics, fanout).unwrap();
                    let ctx = format!("{n} shards, {threads} threads, {semantics:?}");
                    proptest::prop_assert!(par.same_bag(&oracle), "oracle's bag, {}", ctx);
                    proptest::prop_assert!(serial.rows().eq(par.rows()), "serial rows, {}", ctx);
                }
            }
        }
    }

    #[test]
    fn eq_filter_pre_binding_equals_post_selection() {
        use crate::filter::{FilterExpr, Selector};
        let mut g = blog_graph();
        let q = parse_query(
            "q(?x, ?a, ?c) :- ?x rdf:type Blogger, ?x hasAge ?a, ?x livesIn ?c",
            g.dict_mut(),
        )
        .unwrap();
        let c_var = q.vars().id("c").unwrap();
        let ny = g.dict_mut().encode(&rdfcube_rdf::Term::literal("NY"));
        let all = evaluate(&g, &q, Semantics::Set).unwrap();
        let col = all.col(c_var).unwrap();
        let post = all.select(|row| row[col] == ny);
        // Singleton OneOf — the shape Σ slice constants arrive in.
        let one_of = vec![FilterExpr {
            var: c_var,
            selector: Selector::OneOf([ny].into_iter().collect()),
        }];
        let pushed = evaluate_filtered(&g, &q, &one_of, Semantics::Set).unwrap();
        assert!(pushed.same_bag(&post));
        assert_eq!(pushed.len(), 2); // user3 and user4
    }

    #[test]
    fn filters_on_pre_bound_variables_are_decided_at_compile_time() {
        use crate::filter::{FilterExpr, Selector};
        let mut g = blog_graph();
        let q = parse_query("q(?x, ?a) :- ?x hasAge ?a", g.dict_mut()).unwrap();
        let a = q.vars().id("a").unwrap();
        let age35 = g.dict_mut().encode(&rdfcube_rdf::Term::integer(35));
        let age28 = g.dict_mut().encode(&rdfcube_rdf::Term::integer(28));
        let eq = |value| FilterExpr {
            var: a,
            selector: Selector::OneOf([value].into_iter().collect()),
        };
        // Contradictory equalities: provably empty, no evaluation needed.
        let empty = evaluate_filtered(&g, &q, &[eq(age35), eq(age28)], Semantics::Set).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.arity(), 2);
        // A range filter excluded by the constant is a contradiction too…
        let between = FilterExpr {
            var: a,
            selector: Selector::Between { lo: 20, hi: 30 },
        };
        let empty2 =
            evaluate_filtered(&g, &q, &[eq(age35), between.clone()], Semantics::Set).unwrap();
        assert!(empty2.is_empty());
        // …while an admitted one is simply dropped as implied.
        let kept = evaluate_filtered(&g, &q, &[eq(age28), between], Semantics::Set).unwrap();
        assert_eq!(kept.len(), 1); // only user1 (28)
    }

    #[test]
    fn seeded_evaluation_is_the_restriction_to_the_seed_rows() {
        use crate::filter::{FilterExpr, Selector};
        let mut g = blog_graph();
        let q = parse_query(
            "m(?x, ?s) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?s",
            g.dict_mut(),
        )
        .unwrap();
        let x = q.vars().id("x").unwrap();
        let id = |g: &Graph, iri: &str| g.dict().iri_id(iri).unwrap();
        let (user1, user4, s1) = (id(&g, "user1"), id(&g, "user4"), id(&g, "s1"));
        let all = evaluate(&g, &q, Semantics::Bag).unwrap();

        // One row per root: the bag of exactly those roots' solutions,
        // whether or not a root has any (a post is nobody's root).
        let mut seed = Seed::new(vec![x]);
        for root in [user4, user1, id(&g, "p1")] {
            seed.push(&[root]);
        }
        let seeded = evaluate_seeded(&g, &q, &seed, &[], Semantics::Bag).unwrap();
        let expect = all.select(|row| row[0] == user1 || row[0] == user4);
        assert!(seeded.same_bag(&expect));
        assert_eq!(seeded.len(), 4);

        // The unit seed is plain evaluation; the empty seed yields nothing.
        let unit = evaluate_seeded(&g, &q, &Seed::unit(), &[], Semantics::Bag).unwrap();
        assert!(unit.same_bag(&all));
        let none = evaluate_seeded(&g, &q, &Seed::new(vec![x]), &[], Semantics::Bag).unwrap();
        assert!(none.is_empty());

        // Filters compose with a seed: on a free variable they fire when it
        // binds, on the seeded one they select among the seed's rows.
        let s_var = q.vars().id("s").unwrap();
        let only = |var, value| FilterExpr {
            var,
            selector: Selector::OneOf([value].into_iter().collect()),
        };
        let on_free = evaluate_seeded(&g, &q, &seed, &[only(s_var, s1)], Semantics::Bag).unwrap();
        assert!(on_free.same_bag(&expect.select(|row| row[1] == s1)));
        let on_seeded = evaluate_seeded(&g, &q, &seed, &[only(x, user4)], Semantics::Bag).unwrap();
        assert!(on_seeded.same_bag(&all.select(|row| row[0] == user4)));

        // A seed over another query's variable is refused.
        let foreign = Seed::new(vec![VarId(40)]);
        assert!(evaluate_seeded(&g, &q, &foreign, &[], Semantics::Bag).is_err());
    }

    /// Set semantics skips δ only when no row can repeat — the head binds
    /// every body variable *and* no seed row is repeated; with either
    /// condition gone, the repeats still collapse.
    #[test]
    fn set_semantics_collapses_whatever_can_repeat() {
        let mut g = blog_graph();
        let every_var = "q(?x, ?p, ?s) :- ?x wrotePost ?p, ?p postedOn ?s";
        let existential = "q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s";
        let [every_var, existential] =
            [every_var, existential].map(|text| parse_query(text, g.dict_mut()).unwrap());
        let id = |iri: &str| g.dict().iri_id(iri).unwrap();
        let mut distinct = [id("user1"), id("user3")];
        distinct.sort();
        let repeated = [id("user1"), id("user1")];
        // (query, seed roots, bag rows, set rows): user1 reaches s1 twice.
        for (q, roots, bag, set) in [
            (&every_var, distinct, 4, 4),
            (&every_var, repeated, 6, 3),
            (&existential, distinct, 4, 3),
            (&existential, repeated, 6, 2),
        ] {
            let mut seed = Seed::new(vec![q.vars().id("x").unwrap()]);
            roots.iter().for_each(|&root| seed.push(&[root]));
            let all = evaluate_seeded(&g, q, &seed, &[], Semantics::Bag).unwrap();
            let got = evaluate_seeded(&g, q, &seed, &[], Semantics::Set).unwrap();
            assert_eq!((all.len(), got.len()), (bag, set), "{roots:?}");
            assert!(got.rows().eq(all.distinct().rows()), "{roots:?}");
        }
    }

    #[test]
    fn pattern_seeds_find_the_solutions_that_use_a_new_triple() {
        // Semi-naive: after inserting Δ, the solutions that did not exist
        // before are exactly those found by seeding some pattern with its
        // matches in Δ — whichever pattern Δ's triples land on.
        let mut g = blog_graph();
        let q = parse_query(
            "m(?x, ?s) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?s",
            g.dict_mut(),
        )
        .unwrap();
        let before = evaluate(&g, &q, Semantics::Set).unwrap();
        let mut delta = Vec::new();
        for (s, p, o) in [
            ("user3", "wrotePost", "p9"), // joins only once p9 is posted
            ("p9", "postedOn", "s1"),
            ("p5", "postedOn", "s2"),     // two hops from user4
            ("user7", "wrotePost", "p1"), // user7 is no Blogger: no solution
            ("s1", "linksTo", "s2"),      // matches no pattern
        ] {
            let ids = [s, p, o].map(|iri| g.encode(&rdfcube_rdf::Term::iri(iri)));
            assert!(g.insert_ids(ids[0], ids[1], ids[2]));
            delta.push(Triple::from(ids));
        }
        let after = evaluate(&g, &q, Semantics::Set).unwrap();
        let mut found = Relation::new(q.head().to_vec());
        for i in 0..q.body().len() {
            let seed = Seed::of_pattern(&q, i, &delta);
            assert_eq!(seed.len(), [0, 2, 2][i], "pattern #{i}");
            let rel = evaluate_seeded(&g, &q, &seed, &[], Semantics::Set).unwrap();
            rel.rows().for_each(|row| found.push_row(row));
        }
        let id = |iri: &str| g.dict().iri_id(iri).unwrap();
        let fresh = after.select(|row| !before.rows().any(|old| old == row));
        assert_eq!(fresh.len(), 2);
        assert!(found.distinct().same_bag(&fresh));
        assert!(fresh.rows().any(|r| r == [id("user3"), id("s1")]));
        assert!(fresh.rows().any(|r| r == [id("user4"), id("s2")]));

        // Constants and repeated variables are checked while seeding.
        let self_link = Triple::new(id("s1"), id("linksTo"), id("s1"));
        let loops = parse_query("q(?a) :- ?a linksTo ?a", g.dict_mut()).unwrap();
        assert!(Seed::of_pattern(&loops, 0, &delta).is_empty());
        let seed = Seed::of_pattern(&loops, 0, &[self_link]);
        assert_eq!((seed.vars().len(), seed.len()), (1, 1));
    }

    #[test]
    fn eval_threads_is_clamped_to_one() {
        let before = eval_threads();
        set_eval_threads(0);
        assert_eq!(eval_threads(), 1);
        set_eval_threads(before.max(1));
    }

    #[test]
    fn filter_on_unbound_variable_is_an_error() {
        use crate::filter::{FilterExpr, Selector};
        let mut g = blog_graph();
        let q = parse_query("q(?x) :- ?x rdf:type Blogger", g.dict_mut()).unwrap();
        let mut q2 = q.clone();
        let ghost = q2.var("ghost");
        let filters = vec![FilterExpr {
            var: ghost,
            selector: Selector::Between { lo: 0, hi: 1 },
        }];
        assert!(evaluate_filtered(&g, &q2, &filters, Semantics::Set).is_err());
    }
}
