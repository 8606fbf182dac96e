//! Workload-driven view selection: materialize each hot family's
//! unrestricted apex.
//!
//! The catalog is purely *reactive* — it caches whatever the user
//! happened to query, so a skewed workload of distinct-but-derivable
//! queries keeps paying from-scratch evaluation: a cube diced to one city
//! cannot serve next week's dice to another city, even though one
//! unrestricted ancestor would serve both (and every drill-out below it).
//! By Propositions 1 and 2 a derivation family's Σ-unrestricted *apex* — the
//! order-preserving merge (`merge_dims`) of every dimension list the log
//! holds for it — soundly serves every logged slice, dice and drill-out of
//! the family, and any new one below it. So the policy is one rule:
//!
//! 1. **Mine** — read the catalog's query log, already one table of
//!    derivation families ([`CubeCatalog::logged_families`]); fold each
//!    family's logged heads into its apex (a head whose order conflicts with
//!    the fold is left out), and rank the families by their asks.
//! 2. **Materialize** — hottest family first: an apex the catalog already
//!    holds resident and fresh is kept (and charged to the budget); an
//!    evicted or stale one is brought back in place
//!    ([`CubeCatalog::ensure_resident`]); otherwise the apex is computed and
//!    registered. An apex that does not fit what the hotter ones left of the
//!    byte budget is skipped — except the first, mirroring the catalog's
//!    single-oversized-entry pinning rule.
//!
//! A family spans every ⊕ of its (body, root, measure), since `pres(Q)` does
//! not depend on ⊕. A computed apex takes the ⊕ of its family's
//! representative (first-logged) shape; an existing *twin* — unrestricted,
//! with the apex's canonical dimensions — counts under any ⊕, because its
//! `pres(Q)` serves the family's other aggregates by γ alone.
//!
//! Entry points: [`crate::OlapSession::advise`] (mutation plane) and
//! [`crate::SharedSession::advise_if_stale`] (periodic re-selection when
//! the log has grown). A run with no new logged queries since the last
//! run is a no-op, which makes `advise()` idempotent on an unchanged log.

use crate::catalog::{CubeCatalog, LoggedQuery};
use crate::error::CoreError;
use crate::extended::{ExtendedQuery, Sigma};
use crate::pres::PartialResult;
use rdfcube_rdf::Graph;

/// What a view-selection run considered, chose, and materialized.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdvisorReport {
    /// Distinct logged query shapes the run mined.
    pub shapes: usize,
    /// Family apexes examined (one per logged derivation family).
    pub considered: usize,
    /// Apexes materialized (or rehydrated).
    pub selected: usize,
    /// Actual bytes of payload the selected views occupy.
    pub materialized_bytes: usize,
    /// Total logged queries at selection time.
    pub log_queries: u64,
}

/// Runs one mine → materialize cycle against the catalog. No-op
/// (selecting nothing) when the log has not grown since the previous run.
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
    let families = catalog.logged_families();

    // One apex per family: (representative shape, apex dimensions, asks),
    // in first-probed order so the run is deterministic for a given log.
    let mut apexes: Vec<(&LoggedQuery, Vec<String>, u64)> = families
        .iter()
        .filter_map(|family| {
            let (rep, rest) = family.shapes.split_first()?;
            let mut apex = rep.signature().dims.clone();
            for s in rest {
                if let Some(merged) = merge_dims(&apex, &s.signature().dims) {
                    apex = merged;
                }
            }
            Some((rep, apex, family.asks))
        })
        .collect();
    // Hottest first; the stable sort keeps first-probed order among ties.
    apexes.sort_by_key(|&(_, _, asks)| std::cmp::Reverse(asks));

    // Budget bytes the hotter apexes left, and how many apexes are held:
    // only the first may exceed the budget on its own.
    let mut remaining = catalog.budget().unwrap_or(usize::MAX);
    let (mut held, mut selected, mut materialized_bytes) = (0usize, 0usize, 0usize);
    for (rep, dims, _) in &apexes {
        // Unrestricted entries with the apex's canonical dimensions, under
        // whatever user-facing names they were registered.
        let twins: Vec<usize> = catalog
            .family(&rep.signature().key)
            .iter()
            .copied()
            .filter(|&idx| {
                let e = catalog.entry(idx);
                e.signature().dims == *dims && e.query().sigma().is_unrestricted()
            })
            .collect();
        let ready = twins
            .iter()
            .map(|&idx| catalog.entry(idx))
            .find(|e| e.is_resident() && e.is_fresh(instance));
        if let Some(e) = ready {
            remaining = remaining.saturating_sub(e.stats().bytes);
            held += 1;
            continue;
        }
        let idx = match twins.first() {
            Some(&idx) => {
                if held > 0 && catalog.entry(idx).stats().bytes > remaining {
                    continue;
                }
                catalog.ensure_resident(idx, instance)?;
                idx
            }
            None => {
                let Some(eq) = build_candidate(rep, dims) else {
                    continue;
                };
                let apex_dims = &eq.query().signature().dims;
                debug_assert_eq!(apex_dims, dims, "apex head kept canonical names");
                let pres = PartialResult::compute(&eq, instance)?;
                let ans = pres.to_cube(instance.dict())?;
                if held > 0 && ans.approx_bytes() + pres.approx_bytes() > remaining {
                    continue;
                }
                catalog.insert(eq, ans, pres, instance.len())
            }
        };
        catalog.touch(idx);
        let bytes = catalog.entry(idx).stats().bytes;
        remaining = remaining.saturating_sub(bytes);
        materialized_bytes += bytes;
        held += 1;
        selected += 1;
    }

    catalog.mark_advised();
    Ok(AdvisorReport {
        shapes: families.iter().map(|f| f.shapes.len()).sum(),
        considered: apexes.len(),
        selected,
        materialized_bytes,
        log_queries,
    })
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

/// Builds the apex extended query: the representative shape's classifier
/// with its head set to `[root] + dims` (resolved through the canonical
/// body names) and an unrestricted Σ.
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
        let sites = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v";
        sliced(s, city, sites)
    }

    /// Example 1's classifier with `measure`, counted and sliced to one
    /// city: each measure body is a derivation family of its own.
    fn sliced(s: &mut OlapSession, city: &str, measure: &str) -> ExtendedQuery {
        let eq = s
            .parse_query(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                measure,
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
        // first, and the apex alone overflows it.
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
        let (len, rehydrations) = (s.len(), s.catalog().counters().rehydrations);
        let third = s.advise().unwrap();
        assert_eq!(third.shapes, 3);
        // The Lyon slice's cube evicted the over-budget apex: the advisor
        // brings that same entry back instead of registering a copy.
        assert_eq!(third.selected, 1);
        assert_eq!(s.len(), len);
        assert_eq!(s.catalog().counters().rehydrations, rehydrations + 1);
    }

    #[test]
    fn advise_serves_a_never_asked_dice_under_a_budget_that_held_the_warmup() {
        // Room for every warm-up slice but for one apex only (two would
        // not fit). No slice is evicted, so every logged shape is already
        // served at its cheapest; the apex pays off for what no slice
        // can serve. A fifth blogger, in a city no slice asks for, widens
        // both apexes and no slice, so that two apexes outweigh the budget.
        let mut world = world();
        let rome = "<user5> rdf:type <Blogger> ; <hasAge> 41 ; <livesIn> \"Rome\" .
                    <user5> <wrotePost> <p7> . <p7> <postedOn> <s1> .";
        rdfcube_rdf::parse_into(rome, &mut world).unwrap();
        let mut s = OlapSession::with_budget(world, one_slice_bytes() * 4);
        // A colder family first: ranking by asks, not first-seen order,
        // picks the family whose apex the budget holds.
        let posts = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?v";
        let cold = sliced(&mut s, "Lyon", posts);
        s.answer_query(cold).unwrap();
        let hot = sliced_example(&mut s, "Madrid");
        let hot_key = hot.query().signature().key.clone();
        for city in ["Madrid", "NY", "Lyon", "Madrid"] {
            let eq = sliced_example(&mut s, city);
            s.answer_query(eq).unwrap();
        }
        assert_eq!(
            s.catalog().counters().evictions,
            0,
            "the budget held the warm-up"
        );
        let before = s.len();
        let report = s.advise().unwrap();
        assert_eq!((report.considered, report.selected), (2, 1));
        assert_eq!(s.len(), before + 1);
        let apex = s.catalog().entry(before);
        assert_eq!(apex.signature().key, hot_key);
        assert!(apex.query().sigma().is_unrestricted());

        // A dice on the age no warm-up slice restricts is served by σ over
        // the apex, with the cells of from-scratch evaluation.
        let mut sigma = Sigma::all(2);
        sigma.set(0, ValueSelector::one(Term::integer(28)));
        let dice = ExtendedQuery::with_sigma(hot.query().clone(), sigma).unwrap();
        let (h, explained) = s.answer_query(dice).unwrap();
        assert_eq!(explained.strategy, Strategy::SelectionOnAns);
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));

        // New traffic while the apex is resident and fresh selects nothing.
        assert!(s.catalog().entry(before).is_resident());
        let again = s.advise().unwrap();
        assert_eq!((again.considered, again.selected), (2, 0));
        assert_eq!(s.len(), before + 2);
    }

    #[test]
    fn drill_out_variants_promote_the_merged_apex() {
        // Budget for ~1.5 of the (small, 1-D, sliced) warmup cubes.
        let mut s = OlapSession::with_budget(world(), one_slice_bytes() * 3 / 2);
        // Two 1-D drill-out shapes (age-only and city-only), each sliced:
        // the advisor should materialize their common (age, city) apex,
        // never queried itself.
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
        // One family, one apex: the merge of the two logged 1-D heads.
        assert_eq!(report.considered, 1);
        assert!(report.selected >= 1);
        let apex = s.catalog().entry(s.len() - 1);
        assert_eq!(apex.query().query().dim_names(), ["dage", "dcity"]);
        assert!(apex.query().sigma().is_unrestricted());
        // Answers stay cell-identical to from-scratch evaluation — for a
        // fresh 2-D dice over the never-queried apex shape too.
        let mut sigma = Sigma::all(2);
        sigma.set(0, ValueSelector::one(Term::integer(28)));
        let fresh = ExtendedQuery::with_sigma(base.query().clone(), sigma).unwrap();
        let (h, _) = s.answer_query(fresh).unwrap();
        let scratch = s.cube(h).query().answer(s.instance()).unwrap();
        assert!(s.answer(h).same_cells(&scratch));
    }
}
