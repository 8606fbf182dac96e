//! Property suite for the arena-backed BGP evaluator: on random graphs and
//! random queries — arbitrary pattern shapes, repeated variables (within and
//! across patterns), constants absent from the data, and random *head
//! projections* including the empty head — the flat-buffer binding
//! propagation must agree with the naive nested-loop oracle and with the
//! declaration-order evaluator, under both Set and Bag semantics. This pins
//! the tentpole invariant of the query-pipeline rework: the arena, the
//! static step plans, and the packed-key δ are invisible to results.
//!
//! Compared to `engine_prop.rs` (which always projects every used variable),
//! this suite additionally exercises:
//!
//! * head subsets — projection creates duplicates that Set must collapse
//!   and Bag must keep, covering the specialized 1-/2-column `distinct`;
//! * the empty head — a zero-arity relation whose row count is pure
//!   multiplicity (the zero-dimensional-cube shape);
//! * filter push-down against post-selection over the same random queries;
//! * subject-hash sharded storage — evaluation over a sharded graph must
//!   return **bit-identical rows** (exact order, both semantics) to the
//!   flat store, in both the compacted and the delta-resident state.

use proptest::prelude::*;
use rdfcube::engine::{
    evaluate, evaluate_filtered, evaluate_in_order, evaluate_nested_loop, explain, Bgp, FilterExpr,
    PatternTerm, QueryPattern, Selector, Semantics,
};
use rdfcube::{Graph, Term};

/// A small closed universe (nodes n0..n7 shared between subject and object
/// positions, predicates p0..p3) so that chains join and repeats collide.
fn arb_graph() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 0..32)
}

/// One pattern position: `(kind, payload)`. Kinds 0..=4 pick a variable
/// v0..v4 (skewed toward few variables, so repeats are common); 5.. picks a
/// constant, sometimes one absent from every graph.
type PosSpec = (u8, u8);
type PatternSpec = (PosSpec, PosSpec, PosSpec);

fn arb_query() -> impl Strategy<Value = (Vec<PatternSpec>, u8)> {
    (
        proptest::collection::vec(
            (
                (0u8..8, 0u8..10), // subject
                (0u8..8, 0u8..6),  // predicate
                (0u8..8, 0u8..10), // object
            ),
            1..4,
        ),
        // Bitmask choosing which used variables become head columns; 0 is a
        // legal (empty) head.
        0u8..32,
    )
}

fn build_graph(spec: &[(u8, u8, u8)]) -> Graph {
    let mut g = Graph::new();
    for &(s, p, o) in spec {
        g.insert(
            &Term::iri(format!("n{s}")),
            &Term::iri(format!("p{p}")),
            &Term::iri(format!("n{o}")),
        );
    }
    g
}

/// Builds the BGP; the head is the masked subset of used variables, in
/// first-use order (possibly empty).
fn build_query(g: &mut Graph, spec: &[PatternSpec], head_mask: u8) -> Bgp {
    let mut bgp = Bgp::new("q");
    let mut used_vars = Vec::new();
    for &((sk, sv), (pk, pv), (ok, ov)) in spec {
        let mut mk = |kind: u8, payload: u8, pos: usize, bgp: &mut Bgp, g: &mut Graph| {
            if kind < 5 {
                let v = bgp.var(&format!("v{}", payload % 5));
                if !used_vars.contains(&v) {
                    used_vars.push(v);
                }
                PatternTerm::Var(v)
            } else {
                let term = match pos {
                    0 => Term::iri(format!("n{}", payload % 10)), // n8/n9 absent
                    1 => Term::iri(format!("p{}", payload % 6)),  // p4/p5 absent
                    _ => Term::iri(format!("n{}", payload % 10)),
                };
                PatternTerm::Const(g.dict_mut().encode(&term))
            }
        };
        let s = mk(sk, sv, 0, &mut bgp, g);
        let p = mk(pk, pv, 1, &mut bgp, g);
        let o = mk(ok, ov, 2, &mut bgp, g);
        bgp.push_pattern(QueryPattern::new(s, p, o));
    }
    let head: Vec<_> = used_vars
        .iter()
        .enumerate()
        .filter(|(i, _)| head_mask & (1 << i) != 0)
        .map(|(_, &v)| v)
        .collect();
    bgp.set_head(head);
    bgp
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// The arena evaluator, the declaration-order evaluator, and the
    /// nested-loop oracle agree on arbitrary projections under both
    /// semantics — including zero-arity heads, where `len()` is pure
    /// multiplicity.
    #[test]
    fn arena_evaluator_agrees_with_oracles(
        graph_spec in arb_graph(),
        (query_spec, head_mask) in arb_query(),
    ) {
        let mut g = build_graph(&graph_spec);
        let q = build_query(&mut g, &query_spec, head_mask);
        for semantics in [Semantics::Set, Semantics::Bag] {
            let fast = evaluate(&g, &q, semantics).unwrap();
            let in_order = evaluate_in_order(&g, &q, semantics).unwrap();
            let oracle = evaluate_nested_loop(&g, &q, semantics).unwrap();
            prop_assert!(fast.same_bag(&oracle), "arena vs oracle, {semantics:?}");
            prop_assert!(in_order.same_bag(&oracle), "in-order vs oracle, {semantics:?}");
            prop_assert_eq!(fast.arity(), q.head().len());
        }
    }

    /// Zero-arity results carry exact homomorphism counts: the empty head
    /// under Bag semantics must report the same multiplicity as projecting
    /// any single variable, and Set semantics collapses to at most one row.
    #[test]
    fn empty_head_preserves_multiplicity(
        graph_spec in arb_graph(),
        (query_spec, _) in arb_query(),
    ) {
        let mut g = build_graph(&graph_spec);
        let mut q = build_query(&mut g, &query_spec, 0);
        prop_assert!(q.head().is_empty());
        let bag = evaluate(&g, &q, Semantics::Bag).unwrap();
        let set = evaluate(&g, &q, Semantics::Set).unwrap();
        prop_assert_eq!(set.len(), usize::from(!bag.is_empty()));
        // Project the full variable set: same number of homomorphisms.
        let all_vars = q.body_vars();
        q.set_head(all_vars);
        let full = evaluate(&g, &q, Semantics::Bag).unwrap();
        prop_assert_eq!(bag.len(), full.len());
    }

    /// Filter push-down through the arena's in-place retain equals
    /// evaluate-then-select.
    #[test]
    fn pushed_filters_equal_post_selection(
        graph_spec in arb_graph(),
        (query_spec, head_mask) in arb_query(),
        allowed in proptest::collection::vec(0u8..8, 1..4),
    ) {
        let mut g = build_graph(&graph_spec);
        let q = build_query(&mut g, &query_spec, head_mask);
        // Filter the first body variable (if any) to a random node subset.
        let Some(&var) = q.body_vars().first() else { return Ok(()); };
        let set: Vec<_> = allowed
            .iter()
            .map(|n| g.dict_mut().encode(&Term::iri(format!("n{n}"))))
            .collect();
        let filters = vec![FilterExpr {
            var,
            selector: Selector::OneOf(set.iter().copied().collect()),
        }];
        for semantics in [Semantics::Set, Semantics::Bag] {
            let pushed = evaluate_filtered(&g, &q, &filters, semantics).unwrap();
            // Post-selection oracle: full evaluation with the variable
            // promoted into the head, selected, then projected back.
            let mut q_full = q.clone();
            let mut head = vec![var];
            head.extend_from_slice(q.head());
            q_full.set_head(head);
            let full = evaluate(&g, &q_full, Semantics::Bag).unwrap();
            let selected = full.select(|row| set.contains(&row[0]));
            let mut projected = selected.project(q.head()).unwrap();
            // `project` keeps bag multiplicity; Set semantics dedups.
            if semantics == Semantics::Set {
                projected = projected.distinct();
                // Promoting `var` can split rows Set semantics would merge;
                // compare as sets of rows.
                prop_assert_eq!(pushed.distinct().sorted_rows(), projected.sorted_rows());
            } else {
                prop_assert!(pushed.same_bag(&projected), "bag filter mismatch");
            }
        }
    }

    /// Sharded storage is invisible to the evaluator: for shard counts
    /// {2, 7, 16}, random BGPs over the sharded graph return bit-identical
    /// rows — exact order, both semantics — to the flat store, whether the
    /// triples sit in compacted CSR runs or in the delta buffers.
    #[test]
    fn sharded_evaluation_is_bit_identical_to_flat(
        graph_spec in arb_graph(),
        (query_spec, head_mask) in arb_query(),
    ) {
        let mut flat = build_graph(&graph_spec);
        let q = build_query(&mut flat, &query_spec, head_mask);
        let triples: Vec<_> = flat.triples().collect();
        for n in [2usize, 7, 16] {
            // Delta state: replay the same insertion sequence over the same
            // dictionary.
            let mut delta_sharded = Graph::with_shards(n);
            *delta_sharded.dict_mut() = flat.dict().clone();
            for t in &triples {
                delta_sharded.insert_ids(t.s, t.p, t.o);
            }
            // Compacted state: bulk load.
            let bulk_sharded =
                Graph::from_triples_sharded(flat.dict().clone(), triples.clone(), n);
            let mut flat_compacted = flat.clone();
            flat_compacted.compact();
            for (reference, sharded, state) in [
                (&flat, &delta_sharded, "delta"),
                (&flat_compacted, &bulk_sharded, "compacted"),
            ] {
                for semantics in [Semantics::Set, Semantics::Bag] {
                    let a = evaluate(reference, &q, semantics).unwrap();
                    let b = evaluate(sharded, &q, semantics).unwrap();
                    prop_assert_eq!(
                        a.len(), b.len(),
                        "{} shards, {} state, {:?}", n, state, semantics
                    );
                    prop_assert!(
                        a.rows().zip(b.rows()).all(|(x, y)| x == y),
                        "{} shards, {} state, {:?}: row order diverged", n, state, semantics
                    );
                }
            }
        }
    }

    /// `explain` plans visit every pattern exactly once and only flag a
    /// cartesian step when the pattern really shares no bound variable.
    #[test]
    fn explain_covers_every_pattern(
        graph_spec in arb_graph(),
        (query_spec, head_mask) in arb_query(),
    ) {
        let mut g = build_graph(&graph_spec);
        let q = build_query(&mut g, &query_spec, head_mask);
        let plan = explain(&g, &q).unwrap();
        let mut seen: Vec<usize> = plan.iter().map(|s| s.pattern_index).collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..q.body().len()).collect();
        prop_assert_eq!(seen, expect);
        prop_assert!(plan.iter().all(|s| s.estimated_rows >= 0.0));
        prop_assert!(plan[0].connected, "first step is trivially connected");
    }
}
