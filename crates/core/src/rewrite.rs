//! §3 — answering transformed cubes from materialized results.
//!
//! This module is the paper's contribution: given an OLAP transformation
//! `T(Q) = Q_T`, compute `ans(Q_T)` **without re-evaluating `Q_T` on the
//! instance**, using what was materialized for `Q`:
//!
//! | Operation   | Input                | Algorithm                              |
//! |-------------|----------------------|----------------------------------------|
//! | SLICE/DICE  | `ans(Q)`             | σ_dice row selection (Def. 5, Prop. 1) |
//! | DRILL-OUT   | `pres(Q)`            | Algorithm 1: π, δ, γ (Prop. 2)         |
//! | DRILL-IN    | `pres(Q)` + instance | Algorithm 2: q_aux ⋈ pres, γ (Prop. 3) |
//!
//! Each rewriting also returns the transformed query's own partial result as
//! a byproduct, so chains of OLAP operations never touch the instance again
//! (except for the drill-in auxiliary query, by necessity).
//!
//! Every `pres(Q)` is cell heads `(d₁…dₙ, fact)` sorted on `(d₁…dₙ, root)`
//! over a fact table that stores each fact's keyed measure tuples once (the
//! invariant documented in [`crate::pres`]), and every rewriting over it
//! has the same shape: **one sort plus one scan**. The algorithm's π or ⋈
//! pushes what it makes of each head — one fact in one cell — as new heads
//! over the same facts, the kernel in `pres.rs` sorts those heads once and
//! drops adjacent duplicates (δ) into the new, already sorted
//! `pres(Q_T)`, and γ is the cell scan of [`PartialResult::to_cube`].
//! SLICE/DICE needs no sort at all: it keeps or drops whole blocks of
//! cells.
//!
//! [`drill_out_from_ans`] implements the *incorrect* shortcut the paper
//! warns against in Example 5 — re-aggregating already-aggregated cells —
//! kept (clearly labeled) so that the `example_5_*` tests, a soundness
//! property and the `blogger_analytics` example can show where it goes
//! wrong, and because it *is* sound for the idempotent functions min/max.

use crate::anq::AnalyticalQuery;
use crate::answer::Cube;
use crate::aux_query::build_aux_query;
use crate::error::CoreError;
use crate::extended::{CompiledSelector, ExtendedQuery, Sigma};
use crate::pres::{PartialResult, Records};
use rdfcube_engine::{evaluate, AggFunc, AggValue, Semantics, VarId};
use rdfcube_obs as obs;
use rdfcube_rdf::fx::FxHashMap;
use rdfcube_rdf::{Dictionary, Graph, TermId};
use std::ops::Range;

/// Baseline: evaluates the transformed query from scratch on the instance
/// (what a system without the paper's rewritings must do).
pub fn from_scratch(eq: &ExtendedQuery, instance: &Graph) -> Result<Cube, CoreError> {
    eq.answer(instance)
}

/// Baseline that additionally materializes `pres(Q_T)` (used when a from-
/// scratch fallback must still populate the cache for later operations).
pub fn from_scratch_with_pres(
    eq: &ExtendedQuery,
    instance: &Graph,
) -> Result<(Cube, PartialResult), CoreError> {
    let pres = PartialResult::compute(eq, instance)?;
    let cube = pres.to_cube(instance.dict())?;
    Ok((cube, pres))
}

/// σ_dice (Definition 5): answers a SLICE/DICE from the materialized
/// `ans(Q)` by plain row selection — Proposition 1 guarantees
/// `σ_dice(ans(Q)) = ans(Q_DICE)` provided the new Σ refines the old.
pub fn dice_from_ans(ans: &Cube, new_sigma: &Sigma, dict: &Dictionary) -> Cube {
    let compiled = new_sigma.compile(dict);
    let cells = ans
        .cells()
        .iter()
        .filter(|(dims, _)| compiled.admits(dims, dict))
        .cloned()
        .collect();
    Cube::from_cells(ans.dim_names().to_vec(), ans.agg(), cells)
}

/// The SLICE/DICE counterpart on partial results: `pres(Q_DICE)` is the
/// Σ-selected subset of `pres(Q)` (same keys), letting a session keep the
/// pres cache warm across slice/dice chains. An order-preserving filter: Σ
/// is tested once per cell, admitted heads are kept with their facts, and a
/// refused value takes every cell under the same prefix with it.
pub fn dice_pres(pres: &PartialResult, new_sigma: &Sigma, dict: &Dictionary) -> PartialResult {
    let sp = obs::span("dice_pres");
    let selectors: Vec<_> = new_sigma
        .selectors()
        .iter()
        .map(|s| s.compile(dict))
        .collect();
    let refused = |(sel, &id): (&CompiledSelector, &TermId)| !sel.admits(id, dict);
    let diced = pres.select_cells(|dims| selectors.iter().zip(dims).position(refused));
    sp.rows(pres.len() as u64, diced.len() as u64);
    diced
}

/// The shape every `pres`-based rewriting shares: `emit` pushes what the
/// algorithm's π or ⋈ makes of each head `(dims, root, fact)` of `pres(Q)`
/// as heads over the same facts, the kernel sorts and deduplicates them
/// into `pres(Q_T)`, and the cell scan of that table is `ans(Q_T)`.
fn sort_scan(
    pres: &PartialResult,
    dim_names: Vec<String>,
    dict: &Dictionary,
    mut emit: impl FnMut(&mut Records, &[TermId], TermId, usize),
) -> Result<(Cube, PartialResult), CoreError> {
    let sp = obs::span("project");
    let mut records = Records::new(dim_names.len(), Some(pres));
    for (dims, root, fact) in pres.heads() {
        emit(&mut records, dims, root, fact);
    }
    if sp.active() {
        sp.rows(pres.len() as u64, records.len() as u64);
    }
    drop(sp);
    let new_pres = records.into_pres(dim_names, pres.agg());
    let cube = new_pres.to_cube(dict)?;
    Ok((cube, new_pres))
}

/// Algorithm 1 (generalized to a set of removed dimensions): answers a
/// DRILL-OUT from `pres(Q)`.
///
/// 1. π — project out the removed dimension columns (keeping `root, k, v`);
/// 2. δ — deduplicate: a fact multi-valued along a removed dimension
///    contributed several rows *with the same key*, which must collapse so
///    its measures are not double-counted (the paper's Example 5 trap);
/// 3. γ — group by the surviving dimensions and re-aggregate.
///
/// Returns `(ans(Q_DRILL-OUT), pres(Q_DRILL-OUT))` — the deduplicated table
/// *is* the new partial result. π pushes one head per source head, δ is the
/// kernel's sort + adjacent-duplicate scan, γ the cell scan over its output.
pub fn drill_out_from_pres(
    pres: &PartialResult,
    removed: &[usize],
    dict: &Dictionary,
) -> Result<(Cube, PartialResult), CoreError> {
    let n = pres.n_dims();
    for &i in removed {
        if i >= n {
            return Err(CoreError::InvalidOperation(format!(
                "dimension index {i} out of range for a {n}-dimensional pres"
            )));
        }
    }
    let kept: Vec<usize> = (0..n).filter(|i| !removed.contains(i)).collect();
    let dim_names: Vec<String> = kept.iter().map(|&i| pres.dim_names()[i].clone()).collect();

    // π: the kept columns of every fact; the kernel's δ then collapses the
    // facts a removed multi-valued dimension had kept apart.
    sort_scan(pres, dim_names, dict, |out, dims, _, fact| {
        out.push(kept.iter().map(|&i| dims[i]), fact);
    })
}

/// The **incorrect** ans-based drill-out of Example 5: re-aggregates the
/// already-aggregated cell values of `ans(Q)`.
///
/// * For `min`/`max` this is actually sound (idempotent ⊕) — and the session
///   exploits that.
/// * For `count`/`sum` it double-counts facts that are multi-valued along a
///   removed dimension; `examples/blogger_analytics.rs` prints how wrong.
/// * For non-distributive functions (`avg`, `count_distinct`) it is not even
///   computable and yields an error (the paper's case 2 in §3.2).
pub fn drill_out_from_ans(
    ans: &Cube,
    removed: &[usize],
    dict: &Dictionary,
) -> Result<Cube, CoreError> {
    let n = ans.n_dims();
    let kept: Vec<usize> = (0..n).filter(|i| !removed.contains(i)).collect();
    let dim_names: Vec<String> = kept.iter().map(|&i| ans.dim_names()[i].clone()).collect();

    let mut groups: FxHashMap<Vec<TermId>, Vec<AggValue>> = FxHashMap::default();
    for (dims, value) in ans.cells() {
        let key: Vec<TermId> = kept.iter().map(|&i| dims[i]).collect();
        groups.entry(key).or_default().push(*value);
    }

    let mut cells = Vec::with_capacity(groups.len());
    for (key, values) in groups {
        let merged = merge_aggregates(ans.agg(), &values, dict)?;
        cells.push((key, merged));
    }
    Ok(Cube::from_cells(dim_names, ans.agg(), cells))
}

/// Merges already-aggregated values under a distributive ⊕.
fn merge_aggregates(
    agg: AggFunc,
    values: &[AggValue],
    dict: &Dictionary,
) -> Result<AggValue, CoreError> {
    match agg {
        AggFunc::Count | AggFunc::Sum => {
            let mut int_sum: i64 = 0;
            let mut float_sum = 0.0f64;
            let mut any_float = false;
            for v in values {
                match v {
                    AggValue::Int(i) => int_sum = int_sum.saturating_add(*i),
                    AggValue::Float(f) => {
                        any_float = true;
                        float_sum += f;
                    }
                    AggValue::Term(_) => {
                        return Err(CoreError::InvalidOperation(
                            "cannot merge term-valued aggregates with sum".into(),
                        ))
                    }
                }
            }
            Ok(if any_float {
                AggValue::Float(float_sum + int_sum as f64)
            } else {
                AggValue::Int(int_sum)
            })
        }
        AggFunc::Min | AggFunc::Max => {
            let ids: Vec<TermId> = values
                .iter()
                .map(|v| match v {
                    AggValue::Term(id) => Ok(*id),
                    _ => Err(CoreError::InvalidOperation(
                        "min/max cells must hold term values".into(),
                    )),
                })
                .collect::<Result<_, _>>()?;
            Ok(agg.apply(&ids, dict)?)
        }
        AggFunc::Avg | AggFunc::CountDistinct => Err(CoreError::InvalidOperation(format!(
            "{agg} is not distributive; the answer of a drill-out cannot be \
             derived from ans(Q) at all (paper §3.2 case 2)"
        ))),
    }
}

/// Algorithm 2: answers a DRILL-IN from `pres(Q)` plus the AnS instance.
///
/// 1. build `q_aux(dvars, d_new)` per Definition 6;
/// 2. evaluate it on the instance (set semantics);
/// 3. join with `pres(Q)` on the shared distinguished variables;
/// 4. γ — group by `d₁…dₙ, d_new` and re-aggregate.
///
/// `original` is the *pre-transformation* query (whose classifier the
/// auxiliary query is carved from); `new_var` names the promoted variable in
/// that classifier. Returns `(ans(Q_DRILL-IN), pres(Q_DRILL-IN))`.
pub fn drill_in_from_pres(
    original: &AnalyticalQuery,
    pres: &PartialResult,
    new_var: VarId,
    instance: &Graph,
) -> Result<(Cube, PartialResult), CoreError> {
    let c = original.classifier();
    if c.head().len() != pres.n_dims() + 1 {
        return Err(CoreError::InvalidOperation(format!(
            "a {}-dimensional pres does not belong to a classifier with {} dimensions",
            pres.n_dims(),
            c.head().len() - 1
        )));
    }
    let aux = build_aux_query(c, new_var)?;
    // The hash side is the (small) auxiliary answer, keyed by its
    // shared-variable prefix; rows with equal keys are chained through
    // `next`, so neither building nor probing allocates per key or per row.
    let sp = obs::span("aux_eval");
    let aux_rel = evaluate(instance, &aux, Semantics::Set)?;
    let k = aux.head().len() - 1;
    let mut first: FxHashMap<&[TermId], usize> = FxHashMap::default();
    let mut next: Vec<Option<usize>> = Vec::with_capacity(aux_rel.len());
    for (i, row) in aux_rel.rows().enumerate() {
        next.push(first.insert(&row[..k], i));
    }
    sp.rows(instance.len() as u64, aux_rel.len() as u64);
    drop(sp);

    // The join columns are q_aux's head minus the trailing new dimension —
    // classifier-distinguished variables, in classifier-head order. Map
    // each to its pres column: position 0 of the classifier head is the
    // root, position i>0 is dimension i-1.
    let shared = |pos: &usize| aux.head()[..k].contains(&c.head()[*pos]);
    let pres_cols: Vec<usize> = (0..c.head().len()).filter(shared).collect();

    let mut dim_names: Vec<String> = pres.dim_names().to_vec();
    dim_names.push(c.vars().name(new_var).to_string());

    // One output head per (pres head, matching new-dimension value); the
    // chains are probed once per head, through one reused key buffer.
    let mut key: Vec<TermId> = Vec::with_capacity(k);
    sort_scan(pres, dim_names, instance.dict(), |out, dims, root, fact| {
        key.clear();
        key.extend(pres_cols.iter().map(|&pos| match pos {
            0 => root,
            _ => dims[pos - 1],
        }));
        let mut at = first.get(key.as_slice()).copied();
        while let Some(i) = at {
            out.push(dims.iter().copied().chain([aux_rel.row(i)[k]]), fact);
            at = next[i];
        }
    })
}

/// **Extension** — ROLL-UP from `pres(Q)`: coarsens dimension `dim_idx` by
/// following the `via` property in the instance. A composition of the
/// paper's two algorithms: an Algorithm-2-style join brings in the coarse
/// values (the "auxiliary query" is the single mapping triple), then
/// Algorithm 1's δ collapses facts whose distinct fine values map to the
/// same coarse value, and γ re-aggregates.
///
/// Returns `(ans(Q_ROLL-UP), pres(Q_ROLL-UP))`.
pub fn roll_up_from_pres(
    pres: &PartialResult,
    dim_idx: usize,
    via: TermId,
    coarse_dim_name: &str,
    instance: &Graph,
) -> Result<(Cube, PartialResult), CoreError> {
    let n = pres.n_dims();
    if dim_idx >= n {
        return Err(CoreError::InvalidOperation(format!(
            "dimension index {dim_idx} out of range for a {n}-dimensional pres"
        )));
    }
    let mut dim_names = pres.dim_names().to_vec();
    dim_names[dim_idx] = coarse_dim_name.to_string();

    // Join each fact's fine value with its coarse parents, probing the
    // instance once per distinct fine value. Two fine values with the same
    // parent must not make the fact count twice in the coarse cell: the
    // kernel's δ on (dims, fact) sees to that.
    let mut parents: FxHashMap<TermId, Range<usize>> = FxHashMap::default();
    let mut coarse: Vec<TermId> = Vec::new();
    sort_scan(pres, dim_names, instance.dict(), |out, dims, _, fact| {
        let fine = dims[dim_idx];
        let range = parents.entry(fine).or_insert_with(|| {
            let start = coarse.len();
            coarse.extend(instance.objects(fine, via));
            start..coarse.len()
        });
        for &parent in &coarse[range.clone()] {
            let coarsened = dims.iter().enumerate();
            let coarsened = coarsened.map(|(i, &d)| if i == dim_idx { parent } else { d });
            out.push(coarsened, fact);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extended::ValueSelector;
    use crate::olap::{apply, OlapOp};
    use rdfcube_rdf::{parse_turtle, Term};

    fn blog_instance() -> Graph {
        parse_turtle(
            "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user3> rdf:type <Blogger> ; <hasAge> 35 ; <livesIn> \"NY\" .
             <user4> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
             <user1> <wrotePost> <p1>, <p2> .
             <p1> <hasWordCount> 100 . <p2> <hasWordCount> 120 .
             <user3> <wrotePost> <p3> . <p3> <hasWordCount> 570 .
             <user4> <wrotePost> <p4> . <p4> <hasWordCount> 410 .",
        )
        .unwrap()
    }

    fn avg_words_query(g: &mut Graph) -> ExtendedQuery {
        ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
                "m(?x, ?vwords) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p hasWordCount ?vwords",
                AggFunc::Avg,
                g.dict_mut(),
            )
            .unwrap(),
        )
    }

    /// Example 4 end-to-end: σ_dice over ans(Q) equals ans(Q_DICE).
    #[test]
    fn example_4_dice_rewriting_equals_from_scratch() {
        let mut g = blog_instance();
        let eq = avg_words_query(&mut g);
        let ans_q = eq.answer(&g).unwrap();

        let diced = apply(
            &eq,
            &OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 30 })],
            },
        )
        .unwrap();

        let rewritten = dice_from_ans(&ans_q, diced.sigma(), g.dict());
        let scratch = from_scratch(&diced, &g).unwrap();
        assert!(rewritten.same_cells(&scratch));

        // Paper's value: {⟨28, Madrid, 210⟩}.
        assert_eq!(rewritten.len(), 1);
        let age28 = g.dict().id(&Term::integer(28)).unwrap();
        let madrid = g.dict().id(&Term::literal("Madrid")).unwrap();
        assert_eq!(
            rewritten.get(&[age28, madrid]),
            Some(&AggValue::Float(210.0))
        );
    }

    #[test]
    fn slice_rewriting_equals_from_scratch() {
        let mut g = blog_instance();
        let eq = avg_words_query(&mut g);
        let ans_q = eq.answer(&g).unwrap();
        let sliced = apply(
            &eq,
            &OlapOp::Slice {
                dim: "dcity".into(),
                value: Term::literal("NY"),
            },
        )
        .unwrap();
        let rewritten = dice_from_ans(&ans_q, sliced.sigma(), g.dict());
        assert!(rewritten.same_cells(&from_scratch(&sliced, &g).unwrap()));
        assert_eq!(rewritten.len(), 1);
    }

    #[test]
    fn dice_pres_matches_recomputed_pres() {
        let mut g = blog_instance();
        let eq = avg_words_query(&mut g);
        let pres = PartialResult::compute(&eq, &g).unwrap();
        let diced = apply(
            &eq,
            &OlapOp::Slice {
                dim: "dcity".into(),
                value: Term::literal("Madrid"),
            },
        )
        .unwrap();
        let filtered = dice_pres(&pres, diced.sigma(), g.dict());
        // Same rows as computing pres(Q_DICE) from the instance, up to a
        // bijective renaming of keys: `newk()` only promises fresh keys, and
        // the recomputation keys the admitted facts' measure tuples alone.
        let recomputed = PartialResult::compute(&diced, &g).unwrap();
        assert_eq!(filtered.len(), recomputed.len());
        let key_classes = crate::pres::key_classes;
        assert_eq!(key_classes(&filtered), key_classes(&recomputed));
        // Keys may differ, sizes may not: no refused fact's tuples linger.
        assert_eq!(filtered.approx_bytes(), recomputed.approx_bytes());
    }

    /// Example 5's scenario, concrete: x is multi-valued along the removed
    /// dimension. Algorithm 1 agrees with from-scratch; the naive ans-based
    /// method double-counts.
    #[test]
    fn example_5_drill_out_correct_vs_naive() {
        let mut g = parse_turtle(
            "<x> rdf:type <C> ; <d1> <a1> ; <dn> <an>, <bn> ; <val> 5 .
             <y> rdf:type <C> ; <d1> <a1> ; <dn> <bn> ; <val> 7 .",
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?d1, ?dn) :- ?x rdf:type C, ?x d1 ?d1, ?x dn ?dn",
                "m(?x, ?v) :- ?x val ?v",
                AggFunc::Sum,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let pres = PartialResult::compute(&eq, &g).unwrap();
        assert_eq!(pres.len(), 3);

        let drilled = apply(
            &eq,
            &OlapOp::DrillOut {
                dims: vec!["dn".into()],
            },
        )
        .unwrap();
        let scratch = from_scratch(&drilled, &g).unwrap();

        // Algorithm 1: ⊕({5, 7}) = 12 in the single remaining cell.
        let (alg1, new_pres) = drill_out_from_pres(&pres, &[1], g.dict()).unwrap();
        assert!(alg1.same_cells(&scratch));
        let a1 = g.dict().iri_id("a1").unwrap();
        assert_eq!(alg1.get(&[a1]), Some(&AggValue::Int(12)));
        assert_eq!(new_pres.len(), 2, "δ collapsed x's duplicated key");
        let recomputed = PartialResult::compute(&drilled, &g).unwrap();
        assert_eq!(new_pres.approx_bytes(), recomputed.approx_bytes());

        // Naive ans-based method: ⊕({5, 5+7}) = 17 — x counted twice.
        let ans_q = eq.answer(&g).unwrap();
        let naive = drill_out_from_ans(&ans_q, &[1], g.dict()).unwrap();
        assert_eq!(naive.get(&[a1]), Some(&AggValue::Int(17)));
        assert!(!naive.same_cells(&scratch));
    }

    #[test]
    fn drill_out_without_multivaluedness_naive_happens_to_agree() {
        let mut g = blog_instance(); // single-valued dimensions
        let mut eq = avg_words_query(&mut g);
        // switch to a distributive function for the naive path
        eq = ExtendedQuery::from_query(
            eq.query()
                .with_classifier(eq.query().classifier().clone())
                .unwrap(),
        );
        let count_q = ExtendedQuery::from_query(
            AnalyticalQuery::new(
                eq.query().classifier().clone(),
                eq.query().measure().clone(),
                AggFunc::Count,
            )
            .unwrap(),
        );
        let pres = PartialResult::compute(&count_q, &g).unwrap();
        let drilled = apply(
            &count_q,
            &OlapOp::DrillOut {
                dims: vec!["dage".into()],
            },
        )
        .unwrap();
        let scratch = from_scratch(&drilled, &g).unwrap();
        let (alg1, _) = drill_out_from_pres(&pres, &[0], g.dict()).unwrap();
        let naive = drill_out_from_ans(&count_q.answer(&g).unwrap(), &[0], g.dict()).unwrap();
        assert!(alg1.same_cells(&scratch));
        assert!(
            naive.same_cells(&scratch),
            "no multi-valued dims ⇒ naive is lucky"
        );
    }

    #[test]
    fn naive_drill_out_is_sound_for_min_max_even_with_multivalues() {
        let mut g = parse_turtle(
            "<x> rdf:type <C> ; <d1> <a1> ; <dn> <an>, <bn> ; <val> 5 .
             <y> rdf:type <C> ; <d1> <a1> ; <dn> <bn> ; <val> 7 .",
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?d1, ?dn) :- ?x rdf:type C, ?x d1 ?d1, ?x dn ?dn",
                "m(?x, ?v) :- ?x val ?v",
                AggFunc::Max,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let drilled = apply(
            &eq,
            &OlapOp::DrillOut {
                dims: vec!["dn".into()],
            },
        )
        .unwrap();
        let scratch = from_scratch(&drilled, &g).unwrap();
        let naive = drill_out_from_ans(&eq.answer(&g).unwrap(), &[1], g.dict()).unwrap();
        assert!(naive.same_cells(&scratch));
    }

    #[test]
    fn naive_drill_out_refuses_non_distributive_functions() {
        let mut g = blog_instance();
        let eq = avg_words_query(&mut g); // avg
        let ans_q = eq.answer(&g).unwrap();
        assert!(matches!(
            drill_out_from_ans(&ans_q, &[0], g.dict()),
            Err(CoreError::InvalidOperation(_))
        ));
    }

    /// Example 6 / Figure 3 end-to-end.
    #[test]
    fn example_6_drill_in() {
        let mut g = parse_turtle(
            "<website1> <hasUrl> <URL1> ; <supportsBrowser> <firefox> .
             <website2> <hasUrl> <URL2> ; <supportsBrowser> <chrome> .
             <video1> <postedOn> <website1>, <website2> .
             <video1> rdf:type <Video> ; <viewNum> 7 .",
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?d2) :- ?x rdf:type Video, ?x postedOn ?d1, ?d1 hasUrl ?d2, \
                 ?d1 supportsBrowser ?d3",
                "m(?x, ?v) :- ?x rdf:type Video, ?x viewNum ?v",
                AggFunc::Sum,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let pres = PartialResult::compute(&eq, &g).unwrap();
        assert_eq!(pres.len(), 2, "pres(Q) per Figure 3");

        let new_var = eq.query().classifier().vars().id("d3").unwrap();
        let (cube, new_pres) = drill_in_from_pres(eq.query(), &pres, new_var, &g).unwrap();

        // Figure 3: ans(Q_DRILL-IN) = {(URL1, firefox, 7), (URL2, chrome, 7)}.
        let url1 = g.dict().iri_id("URL1").unwrap();
        let url2 = g.dict().iri_id("URL2").unwrap();
        let firefox = g.dict().iri_id("firefox").unwrap();
        let chrome = g.dict().iri_id("chrome").unwrap();
        assert_eq!(cube.len(), 2);
        assert_eq!(cube.get(&[url1, firefox]), Some(&AggValue::Int(7)));
        assert_eq!(cube.get(&[url2, chrome]), Some(&AggValue::Int(7)));
        assert_eq!(new_pres.n_dims(), 2);

        // Equals the from-scratch answer of the transformed query.
        let drilled = apply(&eq, &OlapOp::DrillIn { var: "d3".into() }).unwrap();
        let scratch = from_scratch(&drilled, &g).unwrap();
        assert!(cube.same_cells(&scratch));
        let recomputed = PartialResult::compute(&drilled, &g).unwrap();
        assert_eq!(new_pres.approx_bytes(), recomputed.approx_bytes());
    }

    #[test]
    fn drill_in_when_aux_is_disconnected_from_dims() {
        // The new dimension connects through ?x only; the join key is just
        // the root.
        let mut g = parse_turtle(
            "<u1> rdf:type <C> ; <d> <d1> ; <tag> <t1>, <t2> ; <val> 3 .
             <u2> rdf:type <C> ; <d> <d1> ; <tag> <t1> ; <val> 4 .",
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?d) :- ?x rdf:type C, ?x d ?d, ?x tag ?t",
                "m(?x, ?v) :- ?x val ?v",
                AggFunc::Sum,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let pres = PartialResult::compute(&eq, &g).unwrap();
        let t = eq.query().classifier().vars().id("t").unwrap();
        let (cube, new_pres) = drill_in_from_pres(eq.query(), &pres, t, &g).unwrap();
        let drilled = apply(&eq, &OlapOp::DrillIn { var: "t".into() }).unwrap();
        assert!(cube.same_cells(&from_scratch(&drilled, &g).unwrap()));
        let recomputed = PartialResult::compute(&drilled, &g).unwrap();
        assert_eq!(new_pres.approx_bytes(), recomputed.approx_bytes());
        // t1 cell sums both users; t2 only u1.
        let d1 = g.dict().iri_id("d1").unwrap();
        let t1 = g.dict().iri_id("t1").unwrap();
        let t2 = g.dict().iri_id("t2").unwrap();
        assert_eq!(cube.get(&[d1, t1]), Some(&AggValue::Int(7)));
        assert_eq!(cube.get(&[d1, t2]), Some(&AggValue::Int(3)));
    }

    /// Roll-up: cities coarsen to countries; x's two cities are in the same
    /// country, so its measure must count once there, not twice; y's city
    /// has no country and drops out.
    #[test]
    fn roll_up_cities_to_countries() {
        use crate::olap::apply_roll_up_encoded;
        let mut g = parse_turtle(
            "<madrid> <locatedIn> <spain> . <barcelona> <locatedIn> <spain> .
             <ny> <locatedIn> <usa> .
             <x> rdf:type <C> ; <city> <madrid>, <barcelona> ; <val> 5 .
             <y> rdf:type <C> ; <city> <atlantis> ; <val> 100 .
             <z> rdf:type <C> ; <city> <ny> ; <val> 7 .",
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?dcity) :- ?x rdf:type C, ?x city ?dcity",
                "m(?x, ?v) :- ?x val ?v",
                AggFunc::Sum,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let pres = PartialResult::compute(&eq, &g).unwrap();
        let via = g.dict().iri_id("locatedIn").unwrap();
        let (cube, new_pres) = roll_up_from_pres(&pres, 0, via, "dcountry", &g).unwrap();

        let spain = g.dict().iri_id("spain").unwrap();
        let usa = g.dict().iri_id("usa").unwrap();
        assert_eq!(cube.len(), 2);
        assert_eq!(
            cube.get(&[spain]),
            Some(&AggValue::Int(5)),
            "x counted once in Spain"
        );
        assert_eq!(cube.get(&[usa]), Some(&AggValue::Int(7)));
        assert_eq!(cube.dim_names(), &["dcountry".to_string()]);

        // Matches the from-scratch evaluation of Q_ROLL-UP.
        let rolled = apply_roll_up_encoded(&eq, "dcity", via).unwrap();
        let scratch = from_scratch(&rolled, &g).unwrap();
        // Dim names differ (generated vs given); compare cells only.
        assert_eq!(cube.cells(), scratch.cells());
        assert_eq!(new_pres.len(), 2);
        // y's fact, which has no coarse cell, takes its tuple with it.
        let recomputed = PartialResult::compute(&rolled, &g).unwrap();
        assert_eq!(new_pres.approx_bytes(), recomputed.approx_bytes());
    }

    #[test]
    fn roll_up_with_multi_parent_mapping_fans_out() {
        use crate::olap::apply_roll_up_encoded;
        // One city in two regions: the fact lands in both coarse cells.
        let mut g = parse_turtle(
            "<basel> <inRegion> <ch> . <basel> <inRegion> <eu> .
             <x> rdf:type <C> ; <city> <basel> ; <val> 3 .",
        )
        .unwrap();
        let eq = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?d) :- ?x rdf:type C, ?x city ?d",
                "m(?x, ?v) :- ?x val ?v",
                AggFunc::Sum,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let pres = PartialResult::compute(&eq, &g).unwrap();
        let via = g.dict().iri_id("inRegion").unwrap();
        let (cube, _) = roll_up_from_pres(&pres, 0, via, "dregion", &g).unwrap();
        assert_eq!(cube.len(), 2);
        let rolled = apply_roll_up_encoded(&eq, "d", via).unwrap();
        assert_eq!(cube.cells(), from_scratch(&rolled, &g).unwrap().cells());
    }

    #[test]
    fn roll_up_rejects_restricted_dimension() {
        use crate::olap::apply_roll_up_encoded;
        let mut g = parse_turtle("<x> rdf:type <C> ; <city> <a> ; <val> 1 .").unwrap();
        let q = AnalyticalQuery::parse(
            "c(?x, ?d) :- ?x rdf:type C, ?x city ?d",
            "m(?x, ?v) :- ?x val ?v",
            AggFunc::Sum,
            g.dict_mut(),
        )
        .unwrap();
        let mut sigma = crate::extended::Sigma::all(1);
        sigma.set(0, ValueSelector::one(Term::iri("a")));
        let eq = ExtendedQuery::with_sigma(q, sigma).unwrap();
        let via = g.dict_mut().encode_iri("locatedIn");
        assert!(matches!(
            apply_roll_up_encoded(&eq, "d", via),
            Err(CoreError::InvalidOperation(_))
        ));
    }

    /// A `pres` that does not belong to `original` is a typed error, not an
    /// out-of-bounds panic while mapping join columns to pres columns.
    #[test]
    fn drill_in_rejects_a_pres_of_another_query() {
        let mut g = blog_instance();
        let narrow = ExtendedQuery::from_query(
            AnalyticalQuery::parse(
                "c(?x, ?dage) :- ?x rdf:type Blogger, ?x hasAge ?dage",
                "m(?x, ?vwords) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p hasWordCount ?vwords",
                AggFunc::Avg,
                g.dict_mut(),
            )
            .unwrap(),
        );
        let narrow_pres = PartialResult::compute(&narrow, &g).unwrap();
        // `original`'s auxiliary query joins on ?dcity — a column the
        // 1-dimensional pres does not have.
        let wide = AnalyticalQuery::parse(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
             ?x livesIn ?dcity, ?dcity locatedIn ?country",
            "m(?x, ?vwords) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p hasWordCount ?vwords",
            AggFunc::Avg,
            g.dict_mut(),
        )
        .unwrap();
        let country = wide.classifier().vars().id("country").unwrap();
        assert!(matches!(
            drill_in_from_pres(&wide, &narrow_pres, country, &g),
            Err(CoreError::InvalidOperation(_))
        ));
    }

    #[test]
    fn drill_out_index_out_of_range() {
        let mut g = blog_instance();
        let eq = avg_words_query(&mut g);
        let pres = PartialResult::compute(&eq, &g).unwrap();
        assert!(drill_out_from_pres(&pres, &[7], g.dict()).is_err());
    }

    #[test]
    fn from_scratch_with_pres_is_consistent() {
        let mut g = blog_instance();
        let eq = avg_words_query(&mut g);
        let (cube, pres) = from_scratch_with_pres(&eq, &g).unwrap();
        assert!(cube.same_cells(&eq.answer(&g).unwrap()));
        assert!(cube.same_cells(&pres.to_cube(g.dict()).unwrap()));
    }
}
