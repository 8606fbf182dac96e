//! The cost model behind the catalog's strategy picker.
//!
//! The paper's experiments show that no fixed preference order among
//! σ-over-`ans(Q)`, Algorithm 1, Algorithm 2 and from-scratch is right for
//! every query: the winner depends on the sizes of `ans(Q)`, `pres(Q)` and
//! the instance. This module replaces the session's old hardcoded ranking
//! with estimates built from exactly those sizes:
//!
//! * per-entry statistics cached at registration
//!   ([`CubeStats`](crate::catalog::CubeStats): `ans` cells, `pres` rows,
//!   per-dimension distinct counts) feed [`derivation_cost`];
//! * instance statistics (`count_matching` per pattern, the same numbers
//!   the engine's join planner orders patterns by) feed
//!   [`crate::rewrite::scratch_cost`] — on a sharded instance these are
//!   integer sums of shard-local CSR statistics, so they stay exact and
//!   allocation-free at any shard count;
//! * the per-strategy formulas themselves live next to the algorithms
//!   they estimate, in [`crate::rewrite`] (cost hooks).
//!
//! Costs are abstract "row touches" — only their relative order matters.
//! Soundness never depends on them: the planner only costs derivations
//! that [`classify`](crate::catalog::CatalogEntry::classify) already
//! proved applicable, so a mis-estimate can waste time, never change an
//! answer (property-tested in `rewriting_soundness_prop.rs`).
//!
//! The planner's decision is exposed to callers as an
//! [`ExplainedStrategy`]: the chosen [`Strategy`] plus its estimate, the
//! from-scratch estimate it beat (or lost to), how many applicable
//! candidates competed, and whether the source had to be rehydrated after
//! an eviction.

use crate::catalog::{CatalogEntry, CubeStats, Derivation};
use crate::extended::{ExtendedQuery, Sigma, ValueSelector};
use crate::rewrite;
use crate::session::{CubeHandle, Strategy};
use rdfcube_rdf::Graph;
use std::fmt;

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
    /// Estimated cost of the selected strategy, in abstract row touches.
    pub estimated_cost: f64,
    /// Estimated cost of from-scratch evaluation, for comparison.
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
            write!(f, " [est {:.0}", self.estimated_cost)?;
            if self.strategy != Strategy::FromScratch && self.scratch_cost.is_finite() {
                write!(f, ", scratch est {:.0}", self.scratch_cost)?;
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

/// Fraction of an evicted source's recompute cost charged to the query
/// that triggers its rehydration. Candidates in a probed family share the
/// target's canonical body and measure, so their from-scratch estimates
/// coincide with the target's — charging the full recompute would make
/// `derivation + recompute > scratch` always hold and evicted sources
/// could never be chosen. Rehydration is an amortized investment (the
/// source stays resident for future queries), so only half is billed here;
/// a derivation through an evicted source wins exactly when its own cost
/// is under half the from-scratch cost.
pub const REHYDRATION_CHARGE: f64 = 0.5;

/// The [`Strategy`] a derivation executes as.
pub fn strategy_of(d: &Derivation) -> Strategy {
    match d {
        Derivation::Dice => Strategy::SelectionOnAns,
        Derivation::DrillOut(_) => Strategy::Algorithm1,
        Derivation::DrillIn(_) => Strategy::Algorithm2,
    }
}

/// Estimated cost of executing derivation `d` from `source` to answer
/// `target`, combining the entry's cached statistics with the per-strategy
/// cost hooks in [`crate::rewrite`]. Does **not** include the rehydration
/// surcharge for evicted sources — the planner adds that separately.
pub fn derivation_cost(
    d: &Derivation,
    source: &CatalogEntry,
    target: &ExtendedQuery,
    instance: &Graph,
) -> f64 {
    derivation_cost_with_stats(d, source.stats(), source.query(), target, instance)
}

/// [`derivation_cost`] against explicit statistics instead of a catalog
/// entry. The advisor uses this to cost derivations from *hypothetical*
/// candidate views — ancestors it is considering materializing, whose
/// `CubeStats` are estimated from their already-materialized family
/// members rather than measured.
pub fn derivation_cost_with_stats(
    d: &Derivation,
    stats: &CubeStats,
    source_eq: &ExtendedQuery,
    target: &ExtendedQuery,
    instance: &Graph,
) -> f64 {
    match d {
        Derivation::Dice => {
            let output =
                stats.ans_cells as f64 * dice_selectivity(target.sigma(), &stats.dim_distinct);
            rewrite::dice_cost(stats.ans_cells) + output
        }
        Derivation::DrillOut(removed) => {
            let kept_cells: f64 = stats
                .dim_distinct
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(i))
                .map(|(_, &n)| n.max(1) as f64)
                .product();
            let output = kept_cells.min(stats.pres_rows as f64);
            rewrite::drill_out_cost(stats.pres_rows) + output
        }
        Derivation::DrillIn(_) => {
            let aux = rewrite::aux_rows_bound(source_eq.query().classifier(), instance);
            rewrite::drill_in_cost(stats.pres_rows, aux)
        }
    }
}

/// Estimated fraction of cells a Σ restriction admits, from the source's
/// per-dimension distinct counts: a `OneOf(k)` selector on a dimension
/// with `n` distinct values keeps about `k/n` of them; `All` and ranges
/// (whose width against the value domain is unknown) are estimated at 1.
fn dice_selectivity(sigma: &Sigma, dim_distinct: &[usize]) -> f64 {
    sigma
        .selectors()
        .iter()
        .zip(dim_distinct)
        .map(|(sel, &distinct)| match sel {
            ValueSelector::OneOf(terms) => (terms.len() as f64 / distinct.max(1) as f64).min(1.0),
            ValueSelector::All | ValueSelector::IntRange { .. } => 1.0,
        })
        .product()
}

/// Calibration of the planner's abstract cost units against observed
/// wall time, one row per strategy seen in the query log.
///
/// `nanos_per_unit` is Σ measured nanoseconds / Σ predicted cost over
/// every logged shape the strategy served. If the cost model were
/// perfectly calibrated, all strategies would share one rate; `drift`
/// normalizes each rate against the [`Strategy::FromScratch`] baseline
/// (or, when no from-scratch query was logged, against the cheapest
/// rate), so a drift of 12 means the model over-charges that strategy's
/// unit by ~12× relative to evaluation from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModelRow {
    /// The strategy this row calibrates.
    pub strategy: Strategy,
    /// Distinct logged shapes that strategy served.
    pub shapes: usize,
    /// Total asks across those shapes.
    pub queries: u64,
    /// Σ of the planner's estimated cost over the shapes (abstract units).
    pub predicted_cost: f64,
    /// Σ of the measured wall time over the shapes (nanoseconds).
    pub observed_nanos: u64,
    /// Observed nanoseconds per predicted cost unit.
    pub nanos_per_unit: f64,
    /// `nanos_per_unit` relative to the baseline strategy's rate.
    pub drift: f64,
}

/// Predicted-vs-observed cost comparison built from a catalog's query
/// log (see [`CubeCatalog::logged_shapes`](crate::catalog::CubeCatalog::logged_shapes)).
///
/// Shapes whose estimate is non-finite or zero (duplicate hits are
/// logged with cost 0) are skipped — they carry no calibration signal.
#[derive(Debug, Clone, Default)]
pub struct CostModelReport {
    rows: Vec<CostModelRow>,
}

impl CostModelReport {
    /// Builds the report from everything `catalog` has logged so far.
    pub fn from_catalog(catalog: &crate::catalog::CubeCatalog) -> Self {
        let mut by_strategy: Vec<(Strategy, usize, u64, f64, u64)> = Vec::new();
        for shape in catalog.logged_shapes() {
            let predicted = shape.estimated_cost();
            if !predicted.is_finite() || predicted <= 0.0 || shape.measured_nanos() == 0 {
                continue;
            }
            let entry = match by_strategy.iter_mut().find(|r| r.0 == shape.strategy()) {
                Some(entry) => entry,
                None => {
                    by_strategy.push((shape.strategy(), 0, 0, 0.0, 0));
                    by_strategy.last_mut().expect("just pushed")
                }
            };
            entry.1 += 1;
            entry.2 += shape.count();
            entry.3 += predicted;
            entry.4 += shape.measured_nanos();
        }
        let mut rows: Vec<CostModelRow> = by_strategy
            .into_iter()
            .map(
                |(strategy, shapes, queries, predicted_cost, observed_nanos)| CostModelRow {
                    strategy,
                    shapes,
                    queries,
                    predicted_cost,
                    observed_nanos,
                    nanos_per_unit: observed_nanos as f64 / predicted_cost,
                    drift: 1.0,
                },
            )
            .collect();
        let baseline = rows
            .iter()
            .find(|r| r.strategy == Strategy::FromScratch)
            .map(|r| r.nanos_per_unit)
            .or_else(|| {
                rows.iter()
                    .map(|r| r.nanos_per_unit)
                    .min_by(|a, b| a.total_cmp(b))
            });
        if let Some(base) = baseline.filter(|b| *b > 0.0) {
            for row in &mut rows {
                row.drift = row.nanos_per_unit / base;
            }
        }
        rows.sort_by(|a, b| b.drift.total_cmp(&a.drift));
        CostModelReport { rows }
    }

    /// The per-strategy calibration rows, worst drift first.
    pub fn rows(&self) -> &[CostModelRow] {
        &self.rows
    }

    /// True when the log held no shape with a usable (finite, positive)
    /// estimate.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Largest drift factor across strategies (1.0 when empty).
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
            "{:<36} {:>7} {:>8} {:>14} {:>14} {:>12} {:>8}",
            "strategy", "shapes", "queries", "pred cost", "obs nanos", "ns/unit", "drift"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<36} {:>7} {:>8} {:>14.0} {:>14} {:>12.1} {:>7.1}x",
                row.strategy.to_string(),
                row.shapes,
                row.queries,
                row.predicted_cost,
                row.observed_nanos,
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
/// plan: selection-on-ans [est 120, scratch est 4100, 2 candidate(s)]
/// answer_query 1.2ms
/// ├─ plan 80µs [candidates=2]
/// └─ derive 1.0ms rows 840→120
/// stage coverage: 96% of 1.2ms
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
    use rdfcube_rdf::Term;

    #[test]
    fn explained_compares_with_bare_strategy() {
        let e = ExplainedStrategy::scratch(42.0, 3);
        assert_eq!(e, Strategy::FromScratch);
        assert_eq!(Strategy::FromScratch, e);
        assert!(e != Strategy::Algorithm1);
        let shown = format!("{e}");
        assert!(shown.contains("from-scratch"), "display: {shown}");
        assert!(shown.contains("3 candidate(s)"), "display: {shown}");
    }

    #[test]
    fn selectivity_shrinks_with_narrow_selectors() {
        let mut narrow = Sigma::all(2);
        narrow.set(0, ValueSelector::one(Term::integer(28)));
        let wide = Sigma::all(2);
        let distinct = vec![10usize, 4];
        assert!(dice_selectivity(&narrow, &distinct) < dice_selectivity(&wide, &distinct));
        assert_eq!(dice_selectivity(&wide, &distinct), 1.0);
        // Degenerate distinct counts never divide by zero.
        let mut s = Sigma::all(1);
        s.set(0, ValueSelector::one(Term::integer(1)));
        assert!(dice_selectivity(&s, &[0]).is_finite());
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
}
