//! Workload-driven view selection: mine the query log, pre-materialize
//! the best lattice ancestors per byte.
//!
//! The catalog (PR 4/6) is purely *reactive* — it caches whatever the
//! user happened to query, so a skewed workload of distinct-but-derivable
//! queries keeps paying from-scratch evaluation: a cube diced to one city
//! cannot serve next week's dice to another city, even though one
//! unrestricted ancestor would serve both (and every drill-out below it).
//! This module closes ROADMAP item 3 — the materialized-view-selection
//! problem SOFOS frames for knowledge graphs — with the classic greedy
//! algorithm over the cube lattice:
//!
//! 1. **Mine** — the catalog's query log ([`CubeCatalog::logged_shapes`])
//!    holds every distinct query shape answered so far, with per-shape
//!    frequency, the strategy the planner chose, and its estimated +
//!    measured cost.
//! 2. **Enumerate candidates** — per derivation family, the Σ-unrestricted
//!    generalization of each logged dimension list, closed under
//!    order-preserving merge (`merge_dims`): the drill-out ancestors in
//!    the dimension lattice, up to the family's apex. Candidates that are
//!    already materialized and fresh are skipped (the planner can use them
//!    today); evicted or stale twins become *rehydration* candidates with
//!    exactly known statistics.
//! 3. **Cost** — each candidate's sizes are estimated from its
//!    already-materialized family members (`pres` is head-dependent, so a
//!    superset-dimension ancestor has at least the rows of any logged
//!    subset). Its *benefit* is Σ over logged shapes of
//!    `(current price − price via the candidate) × frequency`, both in
//!    [`crate::cost`]'s nanoseconds; the current price comes from
//!    re-running the planner (`pipeline::plan_in`) against the catalog as
//!    it stands.
//! 4. **Select** — greedy benefit-per-byte under the session's existing
//!    memory budget: repeatedly take the candidate with the highest
//!    `benefit / bytes` that still fits, then re-credit the shapes it
//!    covers (later picks only earn what the earlier ones left).
//! 5. **Materialize** — the chosen set is computed with the same parallel
//!    sharded evaluator every query uses and registered through the
//!    budgeted insert path, so the byte budget holds by construction.
//!
//! Entry points: [`crate::OlapSession::advise`] (mutation plane) and
//! [`crate::SharedSession::advise_if_stale`] (periodic re-selection when
//! the log has grown). A run with no new logged queries since the last
//! run is a no-op, which makes `advise()` idempotent on an unchanged log.

use crate::catalog::{classify_derivation, CubeCatalog, CubeStats, LoggedQuery};
use crate::cost;
use crate::error::CoreError;
use crate::extended::{ExtendedQuery, Sigma};
use crate::pipeline::{self, Route};
use crate::pres::PartialResult;
use crate::signature::{ViewKey, ViewSignature};
use rdfcube_rdf::fx::FxHashMap;
use rdfcube_rdf::Graph;
use std::sync::Arc;

/// Dimension-lattice ancestors enumerated per derivation family (the
/// closure under pairwise merge is capped here; logged dimension lists
/// come first, so the cap can only drop deep synthetic ancestors).
const MAX_CANDIDATES_PER_FAMILY: usize = 32;

/// What a view-selection run considered, chose, and materialized.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdvisorReport {
    /// Distinct logged query shapes the run mined.
    pub shapes: usize,
    /// Candidate ancestor views enumerated (after skipping ones already
    /// materialized and fresh).
    pub considered: usize,
    /// Candidates selected and materialized (or rehydrated).
    pub selected: usize,
    /// Actual bytes of payload the selected views occupy.
    pub materialized_bytes: usize,
    /// Total predicted benefit of the selection: nanoseconds saved per ask
    /// ([`crate::cost`]), weighted by logged frequency.
    pub predicted_benefit: f64,
    /// Total logged queries at selection time.
    pub log_queries: u64,
}

/// One enumerated ancestor view: either a hypothetical cube to build or
/// an evicted/stale twin to rehydrate.
struct Candidate {
    eq: Arc<ExtendedQuery>,
    sig: ViewSignature,
    stats: CubeStats,
    /// Catalog index of an existing unrestricted twin (evicted or stale),
    /// if rehydrating it is the cheaper way to realize this candidate.
    existing: Option<usize>,
}

/// Runs one mine → enumerate → cost → select → materialize cycle against
/// the catalog. No-op (selecting nothing) when the log has not grown
/// since the previous run.
pub(crate) fn advise_catalog(
    catalog: &mut CubeCatalog,
    instance: &Graph,
) -> Result<AdvisorReport, CoreError> {
    let log_queries = catalog.log_total();
    if log_queries == catalog.advised_log_total() {
        return Ok(AdvisorReport {
            log_queries,
            ..AdvisorReport::default()
        });
    }
    let shapes = catalog.logged_shapes();

    // Group logged shapes by derivation family, in first-seen order so the
    // whole run is deterministic for a given log.
    let mut family_of: FxHashMap<ViewKey, usize> = FxHashMap::default();
    let mut families: Vec<(ViewKey, Vec<usize>)> = Vec::new();
    for (i, s) in shapes.iter().enumerate() {
        let key = &s.signature().key;
        match family_of.get(key) {
            Some(&f) => families[f].1.push(i),
            None => {
                family_of.insert(key.clone(), families.len());
                families.push((key.clone(), vec![i]));
            }
        }
    }

    // Current price per logged shape, against the catalog as it stands
    // (what an evicted or stale source must first pay included — that is
    // precisely the pain the advisor can relieve).
    let plans: Vec<_> = shapes
        .iter()
        .map(|s| pipeline::plan_in(catalog, instance, s.query(), s.signature()).1)
        .collect();
    let mut cur_cost: Vec<f64> = plans.iter().map(|p| p.estimated_cost).collect();

    // Enumerate candidates and their per-shape derivation costs.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut coverage: Vec<Vec<(usize, f64)>> = Vec::new();
    for (key, members) in &families {
        let rep = &shapes[members[0]];
        for dims in candidate_dimsets(&shapes, members) {
            let candidate = match unrestricted_twin(catalog, key, &dims) {
                Some(idx) => {
                    let e = catalog.entry(idx);
                    if e.is_resident() && e.is_fresh(instance) {
                        // Already materialized: the planner can (and does,
                        // see `cur_cost`) use it today — no benefit left.
                        continue;
                    }
                    Candidate {
                        eq: e.query_arc(),
                        sig: e.signature().clone(),
                        stats: e.stats().clone(),
                        existing: Some(idx),
                    }
                }
                None => {
                    let Some(eq) = build_candidate(rep, &dims) else {
                        continue;
                    };
                    let sig = ViewSignature::of(eq.query());
                    debug_assert_eq!(sig.dims, dims, "candidate head kept canonical names");
                    let stats = estimate_stats(catalog, key, &dims);
                    Candidate {
                        eq: Arc::new(eq),
                        sig,
                        stats,
                        existing: None,
                    }
                }
            };
            // How cheaply would each logged shape of the family derive
            // from this candidate, were it resident and fresh?
            let mut cov = Vec::new();
            for &si in members {
                let s = &shapes[si];
                let d = classify_derivation(
                    &candidate.sig.dims,
                    candidate.eq.sigma(),
                    &s.signature().dims,
                    s.query().sigma(),
                    candidate.eq.query().classifier().head(),
                    &candidate.sig.body,
                );
                if let Some(d) = d {
                    let source = (&*candidate.eq, &candidate.stats, Some(0));
                    let route = Route::Rewrite(d);
                    let scratch = plans[si].scratch_cost;
                    cov.push((
                        si,
                        cost::price(&route, source, s.query(), scratch, instance),
                    ));
                }
            }
            if !cov.is_empty() {
                candidates.push(candidate);
                coverage.push(cov);
            }
        }
    }

    // Greedy benefit-per-byte selection under the byte budget. After each
    // pick, the covered shapes' current costs drop to the via-cost, so
    // overlapping later candidates only earn the improvement they add.
    let mut remaining = catalog.budget().unwrap_or(usize::MAX);
    let mut picked = vec![false; candidates.len()];
    let mut order: Vec<usize> = Vec::new();
    let mut predicted_benefit = 0.0f64;
    loop {
        let mut best: Option<(usize, f64, f64)> = None;
        for (ci, c) in candidates.iter().enumerate() {
            // The first pick may exceed the byte budget on its own — the
            // catalog pins a single over-budget entry rather than serve
            // nothing (and density already penalizes size); later picks
            // must fit what the earlier ones left.
            if picked[ci] || (!order.is_empty() && c.stats.bytes > remaining) {
                continue;
            }
            let benefit: f64 = coverage[ci]
                .iter()
                .map(|&(si, via)| (cur_cost[si] - via).max(0.0) * shapes[si].count() as f64)
                .sum();
            if benefit <= 0.0 {
                continue;
            }
            let density = benefit / c.stats.bytes.max(1) as f64;
            if best.is_none_or(|(_, _, d)| density > d) {
                best = Some((ci, benefit, density));
            }
        }
        let Some((ci, benefit, _)) = best else { break };
        picked[ci] = true;
        order.push(ci);
        predicted_benefit += benefit;
        remaining = remaining.saturating_sub(candidates[ci].stats.bytes);
        for &(si, via) in &coverage[ci] {
            if via < cur_cost[si] {
                cur_cost[si] = via;
            }
        }
    }

    // Materialize in selection order (best density first), through the
    // budgeted insert/rehydrate paths. The greedy ran on *estimated*
    // sizes; here the actual bytes are re-checked against what the budget
    // has left, so an under-estimated later pick is dropped rather than
    // allowed to evict an earlier (denser) one. The first pick is exempt,
    // mirroring the catalog's single-entry pinning rule.
    let mut actual_remaining = catalog.budget().unwrap_or(usize::MAX);
    let mut materialized_bytes = 0usize;
    let mut selected = 0usize;
    for &ci in &order {
        let c = &candidates[ci];
        let idx = match c.existing {
            Some(idx) => {
                if selected > 0 && catalog.entry(idx).stats().bytes > actual_remaining {
                    continue;
                }
                catalog.ensure_resident(idx, instance)?;
                idx
            }
            None => {
                if let Some(idx) = pipeline::find_duplicate(catalog, &c.sig, &c.eq) {
                    // A twin appeared between enumeration and now (e.g. an
                    // earlier pick materialized it): reuse, don't copy.
                    if selected > 0 && catalog.entry(idx).stats().bytes > actual_remaining {
                        continue;
                    }
                    catalog.ensure_resident(idx, instance)?;
                    idx
                } else {
                    let pres = PartialResult::compute(&c.eq, instance)?;
                    let ans = pres.to_cube(instance.dict())?;
                    if selected > 0 && ans.approx_bytes() + pres.approx_bytes() > actual_remaining {
                        continue;
                    }
                    catalog.insert_signed((*c.eq).clone(), c.sig.clone(), ans, pres, instance.len())
                }
            }
        };
        catalog.touch(idx);
        let actual = catalog.entry(idx).stats().bytes;
        actual_remaining = actual_remaining.saturating_sub(actual);
        materialized_bytes += actual;
        selected += 1;
    }

    catalog.record_advisor_run(selected as u64, materialized_bytes as u64);
    catalog.mark_advised();
    Ok(AdvisorReport {
        shapes: shapes.len(),
        considered: candidates.len(),
        selected,
        materialized_bytes,
        predicted_benefit,
        log_queries,
    })
}

/// The candidate dimension lists of one family: every logged dimension
/// list (its Σ-unrestricted generalization), closed under pairwise
/// order-preserving merge — the drill-out ancestors up to the apex the
/// logged heads span.
fn candidate_dimsets(shapes: &[LoggedQuery], members: &[usize]) -> Vec<Vec<String>> {
    let mut dimsets: Vec<Vec<String>> = Vec::new();
    for &si in members {
        let dims = shapes[si].signature().dims.clone();
        if !dimsets.contains(&dims) {
            dimsets.push(dims);
        }
    }
    let mut i = 1;
    'grow: while i < dimsets.len() {
        for j in 0..i {
            if dimsets.len() >= MAX_CANDIDATES_PER_FAMILY {
                break 'grow;
            }
            if let Some(merged) = merge_dims(&dimsets[i], &dimsets[j]) {
                if !dimsets.contains(&merged) {
                    dimsets.push(merged);
                }
            }
        }
        i += 1;
    }
    dimsets
}

/// Order-preserving merge of two dimension lists into their minimal
/// common ancestor head, or `None` when the shared dimensions appear in
/// conflicting orders (no single ancestor can drill out to both).
fn merge_dims(a: &[String], b: &[String]) -> Option<Vec<String>> {
    let in_a: std::collections::HashSet<&str> = a.iter().map(String::as_str).collect();
    let in_b: std::collections::HashSet<&str> = b.iter().map(String::as_str).collect();
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            out.push(a[i].clone());
            i += 1;
            j += 1;
        } else if !in_b.contains(a[i].as_str()) {
            out.push(a[i].clone());
            i += 1;
        } else if !in_a.contains(b[j].as_str()) {
            out.push(b[j].clone());
            j += 1;
        } else {
            // Both heads contain both dimensions, in opposite orders.
            return None;
        }
    }
    out.extend(a[i..].iter().cloned());
    out.extend(b[j..].iter().cloned());
    Some(out)
}

/// An existing catalog entry with exactly the candidate's dimensions and
/// an unrestricted Σ, if one was ever materialized.
fn unrestricted_twin(catalog: &CubeCatalog, key: &ViewKey, dims: &[String]) -> Option<usize> {
    catalog.family(key).iter().copied().find(|&idx| {
        let e = catalog.entry(idx);
        e.signature().dims == dims && e.query().sigma().is_unrestricted()
    })
}

/// Builds the candidate extended query: the representative shape's
/// classifier with its head set to `[root] + dims` (resolved through the
/// canonical body names) and an unrestricted Σ.
fn build_candidate(rep: &LoggedQuery, dims: &[String]) -> Option<ExtendedQuery> {
    let q = rep.query().query();
    let body = &rep.signature().body;
    let mut head = Vec::with_capacity(dims.len() + 1);
    head.push(q.root());
    for name in dims {
        let var = body
            .var_names
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(&v, _)| v)?;
        head.push(var);
    }
    let mut classifier = q.classifier().clone();
    classifier.set_head(head);
    let new_q = q.with_classifier(classifier).ok()?;
    ExtendedQuery::with_sigma(new_q, Sigma::all(dims.len())).ok()
}

/// Accumulator for one (dimension list, restriction pattern) bucket of
/// family members inside [`estimate_stats`].
#[derive(Default)]
struct PatternEstimate<'a> {
    /// Σ `pres` rows across the bucket's entries.
    rows: usize,
    /// Σ over entries of Π restricted-selector widths — how many
    /// restricted-value combinations those rows cover in total.
    combos: usize,
    largest: usize,
    /// Bytes and `ans` cells per `pres` row of the bucket's largest entry.
    per_row: [f64; 2],
    /// Union of the finite values each restricted dimension was ever
    /// diced to (overlapping dices — e.g. a pair covering a logged
    /// single — are deduplicated here, not double-counted).
    union: FxHashMap<&'a str, std::collections::HashSet<&'a rdfcube_rdf::Term>>,
    /// Widest integer range seen per restricted dimension (ranges are
    /// not enumerated into `union`).
    range_extra: FxHashMap<&'a str, usize>,
}

fn selector_width(sel: &crate::extended::ValueSelector) -> usize {
    use crate::extended::ValueSelector;
    match sel {
        ValueSelector::All => 1,
        ValueSelector::OneOf(vs) => vs.len().max(1),
        ValueSelector::IntRange { lo, hi } => (hi - lo + 1).max(1) as usize,
    }
}

/// Estimates a hypothetical candidate's sizes from its materialized
/// family members: `pres(Q)` is head-dependent (set-semantics dedup on
/// the head), so members whose dimensions are a subset of the candidate's
/// lower-bound its row count. Members are bucketed by (dimension list,
/// which dimensions their Σ restricts); within a bucket, differently-
/// diced siblings select disjoint-by-value slices of the same ancestor,
/// so `rows-per-restricted-combination × |union of combinations seen|`
/// reconstructs the unrestricted ancestor along that bucket's axis — the
/// candidate estimate is the max over buckets (each one under-counts,
/// since logs only ever cover part of a domain). Bytes and cells follow
/// the rows, at the winning bucket's largest member's ratios.
fn estimate_stats(catalog: &CubeCatalog, key: &ViewKey, dims: &[String]) -> CubeStats {
    use crate::extended::ValueSelector;
    let mut patterns: FxHashMap<(&[String], u64), PatternEstimate> = FxHashMap::default();
    for &idx in catalog.family(key) {
        let e = catalog.entry(idx);
        let stats = e.stats();
        let edims = e.signature().dims.as_slice();
        if !edims.iter().all(|d| dims.contains(d)) {
            continue;
        }
        let selectors = e.query().sigma().selectors();
        let mut mask = 0u64;
        let mut combos = 1usize;
        for pos in 0..edims.len().min(64) {
            match selectors.get(pos) {
                None | Some(ValueSelector::All) => {}
                Some(sel) => {
                    mask |= 1 << pos;
                    combos = combos.saturating_mul(selector_width(sel));
                }
            }
        }
        let p = patterns.entry((edims, mask)).or_default();
        p.rows += stats.pres_rows;
        p.combos += combos;
        if stats.pres_rows > p.largest {
            p.largest = stats.pres_rows;
            p.per_row = [stats.bytes, stats.ans_cells].map(|n| n as f64 / p.largest as f64);
        }
        for (pos, name) in edims.iter().enumerate().take(64) {
            match selectors.get(pos) {
                Some(ValueSelector::OneOf(vs)) => {
                    p.union.entry(name.as_str()).or_default().extend(vs.iter());
                }
                Some(ValueSelector::IntRange { lo, hi }) => {
                    let w = (hi - lo + 1).max(1) as usize;
                    let slot = p.range_extra.entry(name.as_str()).or_insert(0);
                    *slot = (*slot).max(w);
                }
                _ => {}
            }
        }
    }
    let mut pres_rows = 1usize;
    let mut per_row = [64.0f64, 1.0];
    for ((_, mask), p) in &patterns {
        let covered = |name: &str| {
            p.union.get(name).map_or(0, |s| s.len()) + p.range_extra.get(name).copied().unwrap_or(0)
        };
        let est = if *mask == 0 {
            // An unrestricted member directly lower-bounds the ancestor.
            p.largest
        } else {
            let per_combo = p.rows as f64 / p.combos.max(1) as f64;
            let mut combos_total = 1f64;
            for name in p.union.keys() {
                combos_total *= covered(name).max(1) as f64;
            }
            for name in p.range_extra.keys() {
                if !p.union.contains_key(name) {
                    combos_total *= covered(name).max(1) as f64;
                }
            }
            (per_combo * combos_total) as usize
        };
        if est > pres_rows {
            pres_rows = est;
            per_row = p.per_row;
        }
    }
    let [bytes, ans_cells] = per_row.map(|per| (pres_rows as f64 * per) as usize);
    CubeStats {
        ans_cells: ans_cells.clamp(1, pres_rows),
        pres_rows,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extended::ValueSelector;
    use crate::session::{OlapSession, Strategy};
    use rdfcube_engine::AggFunc;
    use rdfcube_rdf::{parse_turtle, Term};

    fn world() -> rdfcube_rdf::Graph {
        parse_turtle(
            "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user2> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Lyon\" .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user4> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user1> <wrotePost> <p1>, <p2>, <p3> .
             <p1> <postedOn> <s1> . <p2> <postedOn> <s1> . <p3> <postedOn> <s2> .
             <user2> <wrotePost> <p6> . <p6> <postedOn> <s3> .
             <user3> <wrotePost> <p4> . <p4> <postedOn> <s2> .
             <user4> <wrotePost> <p5> . <p5> <postedOn> <s3> .",
        )
        .unwrap()
    }

    fn sliced_example(s: &mut OlapSession, city: &str) -> ExtendedQuery {
        let eq = s
            .parse_query(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
                AggFunc::Count,
            )
            .unwrap();
        let mut sigma = Sigma::all(2);
        sigma.set(1, ValueSelector::one(Term::literal(city)));
        ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap()
    }

    /// Footprint of one materialized city-slice cube, for sizing byte
    /// budgets. The advisor only has work to do under budget pressure —
    /// an unbudgeted catalog keeps every answered shape resident, so
    /// every logged query is already served at its cheapest.
    fn one_slice_bytes() -> usize {
        let mut probe = OlapSession::new(world());
        let eq = sliced_example(&mut probe, "Madrid");
        let (h, _) = probe.answer_query(eq).unwrap();
        probe.cube(h).answer().approx_bytes() + probe.cube(h).pres().approx_bytes()
    }

    #[test]
    fn merge_dims_builds_the_common_ancestor() {
        let a = vec!["age".to_string(), "city".to_string()];
        let b = vec!["city".to_string(), "site".to_string()];
        assert_eq!(
            merge_dims(&a, &b),
            Some(vec![
                "age".to_string(),
                "city".to_string(),
                "site".to_string()
            ])
        );
        // Conflicting relative order has no single ancestor.
        let c = vec!["city".to_string(), "age".to_string()];
        assert_eq!(merge_dims(&a, &c), None);
        // Identical lists merge to themselves.
        assert_eq!(merge_dims(&a, &a), Some(a.clone()));
        // Disjoint lists interleave (a first).
        let d = vec!["site".to_string()];
        assert_eq!(
            merge_dims(&a, &d),
            Some(vec![
                "age".to_string(),
                "city".to_string(),
                "site".to_string()
            ])
        );
    }

    #[test]
    fn advise_materializes_the_unrestricted_ancestor() {
        // Budget for ~2.5 slice cubes: the 3-shape warmup must evict.
        let mut s = OlapSession::with_budget(world(), one_slice_bytes() * 5 / 2);
        // A workload of distinct city slices: none can serve another, so
        // the reactive catalog alone keeps paying from-scratch evaluation
        // (or rehydration) for every recurring shape that fell out.
        for city in ["Madrid", "NY", "Lyon", "Madrid", "NY", "Madrid"] {
            let eq = sliced_example(&mut s, city);
            s.answer_query(eq).unwrap();
        }
        let before = s.len();
        let report = s.advise().unwrap();
        assert_eq!(report.shapes, 3);
        assert!(report.considered >= 1);
        assert_eq!(report.selected, 1, "one apex ancestor suffices");
        assert!(report.predicted_benefit > 0.0);
        assert!(report.materialized_bytes > 0);
        assert_eq!(s.len(), before + 1);

        // A never-seen slice is now served by σ over the advised apex. Its
        // cube evicts the apex again, and the next fresh slice is faster
        // from scratch (2.8 µs on this world) than by bringing the apex
        // back and dicing it (3.5 µs).
        let eq = sliced_example(&mut s, "Lyon");
        let mut sigma = Sigma::all(2);
        sigma.set(1, ValueSelector::one(Term::literal("Madrid")));
        let fresh = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();
        let mut sigma2 = Sigma::all(2);
        sigma2.set(0, ValueSelector::one(Term::integer(28)));
        let fresh2 = ExtendedQuery::with_sigma(eq.query().clone(), sigma2).unwrap();
        let served = [Strategy::SelectionOnAns, Strategy::FromScratch];
        for (f, strategy) in [fresh, fresh2].into_iter().zip(served) {
            let (h, explained) = s.answer_query(f).unwrap();
            assert_eq!(explained.strategy, strategy);
            assert_eq!(explained.catalog_hit, strategy == served[0]);
            let scratch = s.cube(h).query().answer(s.instance()).unwrap();
            assert!(s.answer(h).same_cells(&scratch));
        }
    }

    #[test]
    fn advise_is_a_noop_without_new_queries() {
        // Budget for ~1.5 slice cubes: the second warmup shape evicts the
        // first, giving the advisor a positive benefit to act on.
        let mut s = OlapSession::with_budget(world(), one_slice_bytes() * 3 / 2);
        for city in ["Madrid", "NY"] {
            let eq = sliced_example(&mut s, city);
            s.answer_query(eq).unwrap();
        }
        let first = s.advise().unwrap();
        assert!(first.selected >= 1);
        let len = s.len();
        let second = s.advise().unwrap();
        assert_eq!(second.selected, 0, "unchanged log selects nothing");
        assert_eq!(second.considered, 0);
        assert_eq!(s.len(), len, "idempotent: no new materializations");
        // New traffic re-arms the advisor (even if there is nothing new
        // worth materializing, the run is no longer short-circuited).
        let eq = sliced_example(&mut s, "Lyon");
        s.answer_query(eq).unwrap();
        let third = s.advise().unwrap();
        assert_eq!(third.shapes, 3);
    }

    #[test]
    fn drill_out_variants_promote_the_merged_apex() {
        // Budget for ~1.5 of the (small, 1-D, sliced) warmup cubes so the
        // warmup itself evicts and leaves the advisor positive benefits.
        let mut s = OlapSession::with_budget(world(), one_slice_bytes() * 3 / 2);
        // Two 1-D drill-out shapes (age-only and city-only), each sliced:
        // the advisor's merge closure should also enumerate their common
        // (age, city) apex, never queried itself.
        let base = s
            .parse_query(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
                AggFunc::Count,
            )
            .unwrap();
        let age_only = crate::olap::apply(
            &base,
            &crate::olap::OlapOp::DrillOut {
                dims: vec!["dcity".into()],
            },
        )
        .unwrap();
        let city_only = crate::olap::apply(
            &base,
            &crate::olap::OlapOp::DrillOut {
                dims: vec!["dage".into()],
            },
        )
        .unwrap();
        let mut sigma = Sigma::all(1);
        sigma.set(0, ValueSelector::one(Term::integer(35)));
        let age_sliced = ExtendedQuery::with_sigma(age_only.query().clone(), sigma).unwrap();
        let mut sigma = Sigma::all(1);
        sigma.set(0, ValueSelector::one(Term::literal("NY")));
        let city_sliced = ExtendedQuery::with_sigma(city_only.query().clone(), sigma).unwrap();
        s.answer_query(age_sliced).unwrap();
        s.answer_query(city_sliced).unwrap();

        let report = s.advise().unwrap();
        // Closure: the two logged 1-D dimension lists plus their merged
        // 2-D apex (none has a materialized unrestricted twin yet).
        assert!(report.considered >= 3, "considered {}", report.considered);
        assert!(report.selected >= 1);
        // Whatever subset the greedy picked, answers stay cell-identical
        // to from-scratch evaluation — for a fresh 2-D dice over the
        // never-queried apex shape too.
        let mut sigma = Sigma::all(2);
        sigma.set(0, ValueSelector::one(Term::integer(28)));
        let fresh = ExtendedQuery::with_sigma(base.query().clone(), sigma).unwrap();
        let (h, _) = s.answer_query(fresh).unwrap();
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
    }
}
