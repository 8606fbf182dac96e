//! The cost model: what every route is predicted to take, in nanoseconds.
//!
//! The paper's experiments show that no fixed preference order among
//! σ-over-`ans(Q)`, Algorithm 1, Algorithm 2 and from-scratch is right for
//! every query: the winner depends on the sizes of `ans(Q)`, `pres(Q)` and
//! the instance. The whole policy is here, in two pieces:
//!
//! * **the table** (`ns`) — nanoseconds per row a route touches, one
//!   entry per route, each read off a named `olapbench` figure;
//! * **one function** (`price`) — rows × rate. The rows are the sizes the
//!   catalog keeps per entry ([`CubeStats`]: `ans` cells, `pres` rows,
//!   bytes — they survive eviction) and the instance's exact per-pattern
//!   `count_matching` sums (the statistic the engine's join planner orders
//!   patterns by; on a sharded instance an integer sum of shard-local CSR
//!   offsets, exact and allocation-free). From-scratch, the route without
//!   a source, is `scratch_price`; `price` takes its figure.
//!
//! A basic graph pattern is priced at one rate per pattern row whoever
//! evaluates it (from scratch, a plan that starts from a root scan reads
//! its rows cheaper than a q_aux does; the rate sits between the two):
//! Algorithm 2's q_aux is carved from the classifier, so Algorithm 2
//! undercuts re-evaluation by the patterns it skips, less the `pres` rows
//! it sorts. Σ goes first on every route (from-scratch pushes it into the
//! classifier and evaluates the measure for the admitted facts only,
//! Algorithms 1 and 2 dice the source `pres`), so a restricted target reads
//! a share of the rows an unrestricted one does — of an unrestricted
//! source, that is; an already diced one has only those rows.
//!
//! A route whose source is not ready pays for that first: a stale payload
//! whose missed triples the instance can still itemize
//! ([`Graph::inserted_since`]) is priced at its incremental refresh, an
//! evicted one (or one whose insertion log is gone) at a share of its own
//! recomputation from scratch — which, for an unrestricted source of a
//! diced target, is many times the target's. An exact duplicate touches no
//! row and costs what every served query does.
//!
//! The planner (`pipeline::plan_in`) and the explanations of the routes it
//! does not pick itself (duplicate, ROLL-UP) call these two and nothing
//! else, so a prediction means the same thing
//! everywhere: [`ExplainedStrategy`] prints it as a time, and
//! [`CostModelReport`] divides the wall time a session observed by it —
//! 1.0 is a calibrated row.
//!
//! Left out on purpose: *how* selective Σ is, a route's output size, and
//! what a row costs beyond its count (the video world's rows take about
//! twice the blogger world's on every route). Where that decides —
//! Algorithm 2 under a q_aux that spans most of the classifier runs level
//! with re-evaluation of an unrestricted target, 0.8–1.2× either way, and
//! is priced up to 3× under — the table sides with the rewriting.
//! Soundness never depends on any of it: only derivations that
//! [`classify`](crate::catalog::CatalogEntry::classify) proved applicable
//! are priced, so a wrong price can waste time, never change an answer
//! (property-tested in `rewriting_soundness_prop.rs`).

use crate::aux_query::build_aux_query;
use crate::catalog::{CubeStats, Derivation};
use crate::extended::ExtendedQuery;
use crate::pipeline::Route;
use crate::session::{CubeHandle, Strategy};
use rdfcube_engine::{Bgp, QueryPattern};
use rdfcube_obs::fmt_nanos;
use rdfcube_rdf::{Graph, TriplePattern};
use std::fmt;

/// The cost table: nanoseconds per row touched, by route. Each figure is
/// the wall time sessions logged for that route (`measured_nanos`: plan +
/// execute) over the rows named, on `olapbench`'s 100k-triple world (seed
/// 1, 2-core box, medians; the metric that tracks it in parentheses, the
/// runs in CHANGES.md, PR 20 and, for `EVAL_ROW`, PR 25).
/// `tests::table_ranks_the_probes` holds the size tuples.
mod ns {
    /// Every served query — plan, log, hand-over: 6–11 µs when it ends at
    /// an exact duplicate (`session.repeat_p50_us`, four traced
    /// `olap-session` runs in a slow hour of the 2-core box), 30–45 µs on
    /// top of the kernel's time at the first ask of a shape.
    pub const QUERY: f64 = 25_000.0;
    /// σ over `ans(Q)` and its `dice_pres` half, per source cell: Q3's
    /// 16,774 cells take 145–172 µs for a 2 % slice and 321–348 µs for a
    /// 10 % dice (`session.slice_p50_us`, `session.dice_p50_us`); the
    /// served log's σ row ran at 0.6–0.7 of a 12 ns rate. The `pres` filter
    /// gallops and pays for the facts it keeps, which follow the cells kept.
    pub const SIGMA_CELL: f64 = 10.0;
    /// The counting kernel under Algorithms 1 and 2, per source `pres`
    /// row: 85,433 rows in 19,661 heads take 1.3–1.8 ms whichever dimension
    /// goes (`rewrite.drill_out_us`, `session.drill_out_p50_us`), in an hour
    /// of the 2-core box that ran about 1.5× slow: there the comparison sort
    /// it replaced took 1.6 ms for the trailing dimension and 2.9 for the
    /// leading one, so the kernel costs 0.62–0.83× in alternating runs. It
    /// and `EVAL_ROW` fell alike, so the rate stays; below 22.3 the
    /// conformance suite's toy slice (7 cells against 15 rows) would take
    /// Algorithm 1 over σ. A target that differs from its source only in ⊕
    /// (Algorithm 1 removing nothing) runs γ alone over the source `pres`,
    /// and is priced at this rate all the same: 5.0 ms for Example 1's 218k
    /// word-count rows at 1M triples, where γ took 5.0–7.9 ms (avg,
    /// count_distinct, min) and the served query 5.8–8.7 ms — a little
    /// under, but far below the 35.4 ms from-scratch price it has to beat.
    pub const KERNEL_ROW: f64 = 23.0;
    /// Evaluating a basic graph pattern, per instance row its patterns
    /// match — the classifier and the measure from scratch, joined and
    /// sorted (`session.register_p50_us`, `rewrite.scratch_*_us`; PR 25's
    /// root-ordered evaluation, 0.69–0.87× PR 20's times in alternating
    /// runs): Q3's 111,759 take 6.4 ms, 3.3 with `dsite` out of the head,
    /// the 70,325 of a one- or two-dimension cube 2.2–2.3 ms (the counting
    /// kernel and the bag classifier have since taken Q3 to 0.77–0.82× and
    /// the others to 0.6–1.0× in alternating runs); the video world's
    /// Example 6, whose plan starts from no root scan, kept its
    /// 10.1–11.2 ms for 101,053 — and so did Algorithm 2's q_aux
    /// (`session.drill_in_p50_us`): 1.5–1.6 ms for a one-triple q_aux of
    /// 7,831 over 19,687 `pres` rows, 3.4 ms in `aux_eval` for the two-hop
    /// `wrotePost/postedOn` one of 41,434. One rate sits between 30–57 ns a
    /// row from scratch on the blogger world and that `aux_eval`'s 82.
    pub const EVAL_ROW: f64 = 50.0;
    /// Share of those rows, and of an unrestricted source's `pres` rows,
    /// that are read for a restricted target. From scratch only the
    /// admitted facts' measure is evaluated (`pres` module docs): under a
    /// 10 % dice Q3 takes 0.90 ms for 6.4, `dsite` out of its head 0.66–0.70
    /// for 3.3, Example 1 0.56–0.62 for 2.3 (`rewrite.scratch_dice_us`;
    /// 0.39–0.54× the unseeded times in alternating runs) — 0.14, 0.21 and
    /// 0.24–0.27 of the whole; Algorithm 1 over Q3's 85,433 rows 0.34–0.37
    /// ms for 1.8–2.8. Below 0.2 the conformance suite's toy slice would
    /// take Algorithm 1 (1.2 µs) over σ (0.8 µs).
    pub const DICED_SHARE: f64 = 0.21;
    /// The roll-up composition, per `pres` row: 0.91–0.98 ms for 21,606
    /// rows (`session.roll_up_p50_us`), 4.9 ms for 85,433.
    pub const ROLL_UP_ROW: f64 = 45.0;
    /// Incremental refresh of a stale source, per `pres` row carried over
    /// and re-scanned: 0.33 ms for 21.6k rows and 1.6 ms for 85.5k behind
    /// an 88-triple batch (`session.refresh_p50_us`, ingest-serve) …
    pub const REFRESH_ROW: f64 = 15.0;
    /// … and per inserted triple the touched roots are found and
    /// re-derived from: 0.72 and 1.05 ms for 21.8k rows behind ~700 and
    /// ~1,300 triples.
    pub const REFRESH_TRIPLE: f64 = 600.0;
    /// Share of the source's own from-scratch price a query is billed for
    /// bringing it back once evicted: billed in full no evicted source
    /// could ever win, yet the payload stays to serve later queries.
    /// dashboard-zipf brings a payload in 118 times an epoch (35
    /// `catalog.rehydrations`, 83 misses) for 301 hits — 2.5 uses each, so
    /// a half is the cautious side of the trigger's fair share.
    pub const EVICTED_SHARE: f64 = 0.5;
}

/// The instance's exact `count_matching` of each pattern of `bgp`: the
/// triples its constant shape matches.
pub(crate) fn pattern_counts<'a>(
    bgp: &'a Bgp,
    instance: &'a Graph,
) -> impl Iterator<Item = usize> + 'a {
    let shape =
        |p: &QueryPattern| TriplePattern::new(p.s.as_const(), p.p.as_const(), p.o.as_const());
    let count = move |p| instance.count_matching(shape(p));
    bgp.body().iter().map(count)
}

/// The instance's exact `count_matching` total over the patterns of `bgp`.
fn pattern_rows(bgp: &Bgp, instance: &Graph) -> f64 {
    pattern_counts(bgp, instance).sum::<usize>() as f64
}

/// The share of an unrestricted table's rows that is read for `eq`.
fn share_read(eq: &ExtendedQuery) -> f64 {
    if eq.sigma().is_unrestricted() {
        1.0
    } else {
        ns::DICED_SHARE
    }
}

/// Predicted nanoseconds of evaluating `target` from scratch.
pub(crate) fn scratch_price(target: &ExtendedQuery, instance: &Graph) -> f64 {
    let q = target.query();
    let rows = pattern_rows(q.classifier(), instance) + pattern_rows(q.measure(), instance);
    ns::QUERY + ns::EVAL_ROW * share_read(target) * rows
}

/// Predicted nanoseconds of answering `target` by `route` over a source
/// cube: its query, its cached sizes and its *backlog* — the number of
/// inserted triples its payload has yet to absorb, `None` when it has to
/// be recomputed outright (see `CatalogEntry::as_source`). `scratch` is
/// the target's [`scratch_price`], which is also what `Route::Scratch`
/// costs.
pub(crate) fn price(
    route: &Route,
    (source, stats, backlog): (&ExtendedQuery, &CubeStats, Option<usize>),
    target: &ExtendedQuery,
    scratch: f64,
    instance: &Graph,
) -> f64 {
    let rows = stats.pres_rows as f64;
    // What Σ leaves of them; a restricted source has lost its share already.
    let read = rows * share_read(target) / share_read(source);
    let run = match route {
        Route::Duplicate => 0.0,
        Route::Rewrite(Derivation::Dice) => ns::SIGMA_CELL * stats.ans_cells as f64,
        Route::Rewrite(Derivation::DrillOut(_)) => ns::KERNEL_ROW * read,
        Route::Rewrite(Derivation::DrillIn(var)) => {
            // q_aux is carved from the source classifier; should it not
            // build, the whole body bounds it.
            let c = source.query().classifier();
            let aux = build_aux_query(c, *var);
            ns::EVAL_ROW * pattern_rows(aux.as_ref().unwrap_or(c), instance) + ns::KERNEL_ROW * read
        }
        Route::RollUp(..) => ns::ROLL_UP_ROW * rows,
        Route::Scratch => return scratch,
    };
    let upkeep = match backlog {
        Some(0) => 0.0,
        Some(new) => ns::REFRESH_ROW * rows + ns::REFRESH_TRIPLE * new as f64,
        None => ns::EVICTED_SHARE * (scratch_price(source, instance) - ns::QUERY),
    };
    ns::QUERY + run + upkeep
}

/// A strategy choice with the planner's reasoning attached.
///
/// Compares equal to a bare [`Strategy`] (`explained == Strategy::…`), so
/// existing assertions keep working, and [`fmt::Display`]s as the strategy
/// followed by its cost evidence.
#[derive(Debug, Clone)]
pub struct ExplainedStrategy {
    /// The strategy the planner selected.
    pub strategy: Strategy,
    /// The catalog entry used as derivation source (`None` for
    /// from-scratch).
    pub source: Option<CubeHandle>,
    /// Predicted nanoseconds of the selected strategy.
    pub estimated_cost: f64,
    /// Predicted nanoseconds of from-scratch evaluation, for comparison.
    pub scratch_cost: f64,
    /// Number of applicable derivations that competed. Can be nonzero
    /// even on a miss: the cost model may reject every sound candidate as
    /// more expensive than from-scratch evaluation (0 means no sound
    /// source existed at all).
    pub candidates: usize,
    /// True if a materialized cube was reused (catalog hit).
    pub catalog_hit: bool,
    /// True if the source cube had been evicted and was recomputed on
    /// demand to serve this query.
    pub rehydrated: bool,
}

impl ExplainedStrategy {
    /// An explanation for answering from the materialized catalog entry
    /// `source` (a catalog hit) by `strategy`, chosen among `candidates`
    /// applicable derivations.
    pub(crate) fn hit(
        strategy: Strategy,
        source: usize,
        estimated_cost: f64,
        scratch_cost: f64,
        candidates: usize,
    ) -> Self {
        ExplainedStrategy {
            strategy,
            source: Some(CubeHandle(source)),
            estimated_cost,
            scratch_cost,
            candidates,
            catalog_hit: true,
            rehydrated: false,
        }
    }

    /// An explanation for a from-scratch evaluation that considered (and
    /// rejected) `candidates` applicable derivations.
    pub fn scratch(scratch_cost: f64, candidates: usize) -> Self {
        ExplainedStrategy {
            strategy: Strategy::FromScratch,
            source: None,
            estimated_cost: scratch_cost,
            scratch_cost,
            candidates,
            catalog_hit: false,
            rehydrated: false,
        }
    }
}

impl PartialEq<Strategy> for ExplainedStrategy {
    fn eq(&self, other: &Strategy) -> bool {
        self.strategy == *other
    }
}

impl PartialEq<ExplainedStrategy> for Strategy {
    fn eq(&self, other: &ExplainedStrategy) -> bool {
        *self == other.strategy
    }
}

impl fmt::Display for ExplainedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.strategy)?;
        if self.estimated_cost.is_finite() {
            write!(f, " [est {}", fmt_nanos(self.estimated_cost as u64))?;
            if self.strategy != Strategy::FromScratch && self.scratch_cost.is_finite() {
                write!(f, ", scratch est {}", fmt_nanos(self.scratch_cost as u64))?;
            }
            write!(f, ", {} candidate(s)", self.candidates)?;
            if self.rehydrated {
                write!(f, ", rehydrated")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// The [`Strategy`] a derivation executes as.
pub fn strategy_of(d: &Derivation) -> Strategy {
    match d {
        Derivation::Dice => Strategy::SelectionOnAns,
        Derivation::DrillOut(_) => Strategy::Algorithm1,
        Derivation::DrillIn(_) => Strategy::Algorithm2,
    }
}

/// The model's predictions against observed wall time, one row per
/// strategy seen in the query log.
///
/// `nanos_per_unit` is Σ measured nanoseconds ÷ Σ predicted nanoseconds
/// over every logged shape the strategy served: 1.0 is a calibrated row,
/// 3.0 a strategy that takes three times what the table says, 0.5 one
/// that takes half. `drift` is that distance from 1.0 as a factor ≥ 1,
/// whichever way it points.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModelRow {
    /// The strategy this row calibrates.
    pub strategy: Strategy,
    /// Distinct logged shapes that strategy served.
    pub shapes: usize,
    /// Total asks across those shapes.
    pub queries: u64,
    /// Σ of the planner's prediction over the shapes (nanoseconds).
    pub predicted_cost: f64,
    /// Σ of the measured wall time over the shapes (nanoseconds).
    pub observed_nanos: u64,
    /// Observed nanoseconds per predicted nanosecond.
    pub nanos_per_unit: f64,
    /// `nanos_per_unit` or its inverse, whichever is ≥ 1.
    pub drift: f64,
}

/// Predicted-vs-observed cost comparison built from a catalog's query
/// log (see [`CubeCatalog::logged_families`](crate::catalog::CubeCatalog::logged_families)).
///
/// Shapes whose prediction is non-finite or zero are skipped — they carry
/// no calibration signal.
#[derive(Debug, Clone, Default)]
pub struct CostModelReport {
    rows: Vec<CostModelRow>,
}

impl CostModelReport {
    /// Builds the report from everything `catalog` has logged so far.
    pub fn from_catalog(catalog: &crate::catalog::CubeCatalog) -> Self {
        let mut rows: Vec<CostModelRow> = Vec::new();
        let families = catalog.logged_families();
        for shape in families.iter().flat_map(|f| &f.shapes) {
            let predicted = shape.estimated_cost();
            if !predicted.is_finite() || predicted <= 0.0 || shape.measured_nanos() == 0 {
                continue;
            }
            let at = rows.iter().position(|r| r.strategy == shape.strategy());
            let at = at.unwrap_or_else(|| {
                rows.push(CostModelRow {
                    strategy: shape.strategy(),
                    shapes: 0,
                    queries: 0,
                    predicted_cost: 0.0,
                    observed_nanos: 0,
                    nanos_per_unit: 1.0,
                    drift: 1.0,
                });
                rows.len() - 1
            });
            let row = &mut rows[at];
            row.shapes += 1;
            row.queries += shape.count();
            row.predicted_cost += predicted;
            row.observed_nanos += shape.measured_nanos();
        }
        for row in &mut rows {
            row.nanos_per_unit = row.observed_nanos as f64 / row.predicted_cost;
            row.drift = row.nanos_per_unit.max(row.nanos_per_unit.recip());
        }
        rows.sort_by(|a, b| b.drift.total_cmp(&a.drift));
        CostModelReport { rows }
    }

    /// The per-strategy calibration rows, worst drift first.
    pub fn rows(&self) -> &[CostModelRow] {
        &self.rows
    }

    /// True when the log held no shape with a usable (finite, positive)
    /// prediction.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Largest drift factor across strategies (1.0 when empty, and when
    /// every strategy is calibrated).
    pub fn max_drift(&self) -> f64 {
        self.rows.first().map_or(1.0, |r| r.drift)
    }
}

impl fmt::Display for CostModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows.is_empty() {
            return writeln!(f, "cost model: no calibratable queries logged");
        }
        writeln!(
            f,
            "{:<36} {:>7} {:>8} {:>12} {:>12} {:>9} {:>8}",
            "strategy", "shapes", "queries", "predicted", "observed", "obs/pred", "drift"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<36} {:>7} {:>8} {:>12} {:>12} {:>9.2} {:>7.1}x",
                row.strategy.to_string(),
                row.shapes,
                row.queries,
                fmt_nanos(row.predicted_cost as u64),
                fmt_nanos(row.observed_nanos),
                row.nanos_per_unit,
                row.drift
            )?;
        }
        Ok(())
    }
}

/// Renders an `EXPLAIN ANALYZE` block: the planner's verdict (what
/// [`ExplainedStrategy`] displays) followed by the observed span tree of
/// the traced run — per-stage wall time, row counts and bytes.
///
/// Pair with [`OlapSession::answer_traced`](crate::session::OlapSession::answer_traced)
/// or [`SharedSession::answer_traced`](crate::shared::SharedSession::answer_traced):
///
/// ```text
/// EXPLAIN ANALYZE
/// plan: selection-on-ans [est 253.2µs, scratch est 4.25ms, 2 candidate(s)]
/// answer_query  [1.20ms]
/// ├─ plan  [80.0µs, candidates=2]
/// └─ derive: selection over ans(Q)  [1.05ms, rows 840→120]
/// (unattributed)  [70.0µs]
/// ```
pub fn explain_analyze(explained: &ExplainedStrategy, trace: &rdfcube_obs::QueryTrace) -> String {
    let mut out = String::new();
    out.push_str("EXPLAIN ANALYZE\n");
    out.push_str(&format!("plan: {explained}\n"));
    if trace.spans().is_empty() {
        out.push_str("(no trace recorded)\n");
    } else {
        out.push_str(&trace.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anq::AnalyticalQuery;
    use crate::extended::ValueSelector;
    use crate::olap::{apply, OlapOp};
    use rdfcube_engine::AggFunc;
    use rdfcube_rdf::Term;

    #[test]
    fn explained_compares_with_bare_strategy() {
        let e = ExplainedStrategy::scratch(4_160_000.0, 3);
        assert_eq!(e, Strategy::FromScratch);
        assert_eq!(Strategy::FromScratch, e);
        assert!(e != Strategy::Algorithm1);
        let shown = format!("{e}");
        assert!(shown.contains("from-scratch"), "display: {shown}");
        assert!(shown.contains("[est 4.16ms, 3 candidate(s)]"), "{shown}");
    }

    #[test]
    fn strategy_of_maps_each_derivation() {
        assert_eq!(strategy_of(&Derivation::Dice), Strategy::SelectionOnAns);
        assert_eq!(
            strategy_of(&Derivation::DrillOut(vec![0])),
            Strategy::Algorithm1
        );
        assert_eq!(
            strategy_of(&Derivation::DrillIn(rdfcube_engine::VarId(0))),
            Strategy::Algorithm2
        );
    }

    /// The table against the times it was read from. Every probe lists its
    /// candidate routes fastest first: the route, the source it ran over
    /// (query, `ans` cells, `pres` rows) and the microseconds it took
    /// (`olapbench`'s planner battery and served log on the 100k-triple
    /// world, seed 1; medians, PR 20 — from-scratch times scaled by PR 25's
    /// measured speed-up and, for restricted targets, by the seeded
    /// measure's). The table must rank each probe's candidates in that
    /// order and price each within 2× of its time.
    #[test]
    fn table_ranks_the_probes() {
        // That world's pattern counts, one subject per triple.
        let mut g = Graph::new();
        for (p, o, n) in [
            (rdfcube_rdf::vocab::RDF_TYPE, "Blogger", 7_142),
            ("hasAge", "a", 6_776),
            ("livesIn", "c", 7_831),
            ("wrotePost", "p", 20_717),
            ("postedOn", "s", 20_717),
        ] {
            for i in 0..n {
                g.insert(&Term::iri(format!("{p}{i}")), &Term::iri(p), &Term::iri(o));
            }
        }
        let mut parse = |classifier: &str| {
            let measure = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v";
            let q = AnalyticalQuery::parse(classifier, measure, AggFunc::Count, g.dict_mut());
            ExtendedQuery::from_query(q.unwrap())
        };
        // 111,759 pattern rows; the two-hop q_aux of `dsite` has 41,434.
        let q3 = parse(
            "c(?x, ?dage, ?dcity, ?dsite) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
             ?x livesIn ?dcity, ?x wrotePost ?p, ?p postedOn ?dsite",
        );
        let drop_site = OlapOp::DrillOut {
            dims: vec!["dsite".into()],
        };
        let q2 = apply(&q3, &drop_site).unwrap();
        // 70,325 pattern rows; the one-triple q_aux of `dcity` has 7,831.
        let e5b = parse("c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity");
        let city = OlapOp::DrillIn {
            var: "dcity".into(),
        };
        let ex1 = apply(&e5b, &city).unwrap();
        let teens = OlapOp::Dice {
            constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 13, hi: 19 })],
        };
        let diced = |eq: &ExtendedQuery| apply(eq, &teens).unwrap();
        let (q3d, q2d, ex1d) = (diced(&q3), diced(&q2), diced(&ex1));
        let var = |eq: &ExtendedQuery, name| eq.query().classifier().vars().id(name).unwrap();

        let sigma = &Route::Rewrite(Derivation::Dice);
        let alg1 = &Route::Rewrite(Derivation::DrillOut(vec![1]));
        let site_in = &Route::Rewrite(Derivation::DrillIn(var(&q2, "dsite")));
        let city_in = &Route::Rewrite(Derivation::DrillIn(var(&e5b, "dcity")));
        let scratch = &Route::Scratch;
        let probes = [
            // A 10 % dice of Q3.
            (
                &q3d,
                vec![
                    (sigma, Some((&q3, 16_774, 85_433)), 377.),
                    (scratch, None, 905.),
                ],
            ),
            // Q3 less a middle, then its trailing, dimension; with the
            // trailing one drilled back in, re-evaluation draws level.
            (
                &q3,
                vec![
                    (alg1, Some((&q3, 16_774, 85_433)), 2_756.),
                    (scratch, None, 4_440.),
                ],
            ),
            (
                &q2,
                vec![
                    (alg1, Some((&q3, 16_774, 85_433)), 1_795.),
                    (scratch, None, 3_320.),
                ],
            ),
            (&q3, vec![(scratch, None, 6_360.)]),
            // The E5b registration; `dcity` drilled into it.
            (&e5b, vec![(scratch, None, 2_150.)]),
            (
                &ex1,
                vec![
                    (city_in, Some((&e5b, 50, 19_687)), 1_564.),
                    (scratch, None, 2_340.),
                ],
            ),
            // Q3 less `dsite`, diced: σ over that drill-out before
            // Algorithm 1 over the diced, then the whole, Q3.
            (
                &q2d,
                vec![
                    (sigma, Some((&q2, 2_363, 21_606)), 90.),
                    (alg1, Some((&q3d, 1_666, 8_655)), 210.),
                    (alg1, Some((&q3, 16_774, 85_433)), 355.),
                    (scratch, None, 700.),
                ],
            ),
            // A sliced Q3 less `dcity`: two cheap sources, 15 % apart.
            (
                &q2d,
                vec![
                    (sigma, Some((&q2, 3_902, 77_965)), 55.),
                    (alg1, Some((&q3d, 362, 1_852)), 72.),
                ],
            ),
            // E5b with `dcity` drilled in, diced.
            (
                &ex1d,
                vec![
                    (sigma, Some((&ex1, 2_363, 21_606)), 71.),
                    (scratch, None, 620.),
                ],
            ),
            // A diced Q3 when only its 2-dimension drill-out is held: q_aux
            // is evaluated in full, the target is not.
            (
                &q3d,
                vec![
                    (scratch, None, 905.),
                    (site_in, Some((&q2, 2_363, 21_606)), 4_130.),
                ],
            ),
        ];
        let sized = |ans_cells, pres_rows| CubeStats {
            ans_cells,
            pres_rows,
            bytes: 0,
        };
        for (probe, (target, candidates)) in probes.iter().enumerate() {
            let from_scratch = scratch_price(target, &g);
            let mut slower_than = 0.0;
            for &(route, source, micros) in candidates {
                let (source, cells, rows) = source.unwrap_or((target, 0, 0));
                let source = (source, &sized(cells, rows), Some(0));
                let nanos = price(route, source, target, from_scratch, &g);
                assert!(
                    nanos > slower_than,
                    "probe {probe}: {micros} µs out of order"
                );
                let ratio = nanos / (micros * 1e3);
                assert!(
                    (0.5..=2.0).contains(&ratio),
                    "probe {probe}: {micros} µs ×{ratio:.2}"
                );
                slower_than = nanos;
            }
        }

        // A source that is not ready pays for that first — least when the
        // instance can still name the triples it missed — and an evicted
        // one, billed a share of its own from-scratch price, can still win;
        // not for a diced target, though, which costs a fraction of that.
        let (stats, from_scratch) = (sized(16_774, 85_433), scratch_price(&q2, &g));
        let with = |backlog| price(alg1, (&q3, &stats, backlog), &q2, from_scratch, &g);
        assert!(with(Some(0)) < with(Some(88)) && with(Some(88)) < with(Some(880)));
        assert!(with(Some(88)) < with(None) && with(None) < from_scratch);
        let diced_scratch = scratch_price(&q2d, &g);
        let evicted = price(alg1, (&q3, &stats, None), &q2d, diced_scratch, &g);
        assert!(diced_scratch < evicted);
    }
}
