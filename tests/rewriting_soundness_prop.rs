//! Rewriting-soundness property suite: for seeded random cubes over
//! `datagen::blogger` worlds, the answer produced by **every strategy
//! applicable to an operation** must equal full re-evaluation of the
//! rewritten query (Definition 1). Where `propositions_prop.rs` checks each
//! proposition in isolation, this suite enumerates, per operation, all the
//! evaluation routes the session could take:
//!
//! * SLICE/DICE — σ over `ans(Q)` (Proposition 1), σ over `pres(Q)` then
//!   Equation 3, and from-scratch;
//! * DRILL-OUT — Algorithm 1 over `pres(Q)` and from-scratch; plus, when
//!   the removed dimension is single-valued, the naive `ans(Q)`-based
//!   re-aggregation (sound exactly in that regime — Example 5's caveat);
//! * DRILL-IN — Algorithm 2 over `pres(Q)` + instance and from-scratch;
//! * the session's own pick, which must match from-scratch whatever
//!   strategy it chose.

mod common;

use common::key_classes;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use rdfcube::core::rewrite;
use rdfcube::datagen::{generate_instance, BloggerConfig};
use rdfcube::prelude::*;
use rdfcube::AnalyticalQuery;

/// Classifier with the existential `?p`, so every operation is applicable.
const CLASSIFIER: &str = "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
     ?x livesIn ?dcity, ?x wrotePost ?p";
const MEASURE: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?q, ?q hasWordCount ?v";

fn arb_config(multi: impl Strategy<Value = f64> + 'static) -> impl Strategy<Value = BloggerConfig> {
    (12usize..100, multi, any::<u64>(), 2usize..10, 3usize..15).prop_map(
        |(n, multi_city_prob, seed, n_cities, n_ages)| BloggerConfig {
            n_bloggers: n,
            multi_city_prob,
            n_cities,
            n_ages,
            max_posts: 3,
            seed,
            ..Default::default()
        },
    )
}

fn arb_agg() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::CountDistinct),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

fn fixture(cfg: &BloggerConfig, agg: AggFunc) -> (Graph, ExtendedQuery, PartialResult, Cube) {
    let mut instance = generate_instance(cfg);
    let q = AnalyticalQuery::parse(CLASSIFIER, MEASURE, agg, instance.dict_mut()).unwrap();
    let eq = ExtendedQuery::from_query(q);
    let pres = PartialResult::compute(&eq, &instance).unwrap();
    let ans = pres.to_cube(instance.dict()).unwrap();
    (instance, eq, pres, ans)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// SLICE and DICE: all three applicable routes coincide.
    #[test]
    fn sigma_ops_all_routes_agree(
        cfg in arb_config(0.0f64..0.6),
        agg in arb_agg(),
        slice_age in 18i64..40,
        lo in 18i64..40,
        width in 0i64..12,
    ) {
        let (instance, eq, pres, ans) = fixture(&cfg, agg);
        let ops = [
            OlapOp::Slice { dim: "dage".into(), value: Term::integer(slice_age) },
            OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo, hi: lo + width })],
            },
            OlapOp::Dice {
                constraints: vec![(
                    "dcity".into(),
                    ValueSelector::OneOf(vec![Term::literal("city0"), Term::literal("city2")]),
                )],
            },
        ];
        for op in &ops {
            let rewritten = rdfcube::apply(&eq, op).unwrap();
            let via_ans = rewrite::dice_from_ans(&ans, rewritten.sigma(), instance.dict());
            let via_pres = rewrite::dice_pres(&pres, rewritten.sigma(), instance.dict())
                .to_cube(instance.dict())
                .unwrap();
            let scratch = rewrite::from_scratch(&rewritten, &instance).unwrap();
            prop_assert!(via_ans.same_cells(&scratch), "σ over ans(Q) diverged for {op:?}");
            prop_assert!(via_pres.same_cells(&scratch), "σ over pres(Q) diverged for {op:?}");
        }
    }

    /// DRILL-OUT: Algorithm 1 agrees with from-scratch for any
    /// multi-valuedness, on every dimension subset.
    #[test]
    fn drill_out_all_routes_agree(cfg in arb_config(0.0f64..0.6), agg in arb_agg()) {
        let (instance, eq, pres, _ans) = fixture(&cfg, agg);
        for removed in [vec![0usize], vec![1], vec![0, 1]] {
            let names: Vec<String> = removed
                .iter()
                .map(|&i| eq.query().dim_names()[i].to_string())
                .collect();
            let rewritten = rdfcube::apply(&eq, &OlapOp::DrillOut { dims: names }).unwrap();
            let (alg1, _) = rewrite::drill_out_from_pres(&pres, &removed, instance.dict()).unwrap();
            let scratch = rewrite::from_scratch(&rewritten, &instance).unwrap();
            prop_assert!(alg1.same_cells(&scratch), "Algorithm 1 diverged removing {removed:?}");
        }
    }

    /// In the single-valued regime the naive ans(Q)-based drill-out is also
    /// sound for distributive counts — Example 5's error only exists under
    /// multi-valued dimensions.
    #[test]
    fn naive_drill_out_sound_when_single_valued(cfg in arb_config(Just(0.0)), seed_extra in any::<u8>()) {
        let _ = seed_extra;
        let (instance, eq, pres, ans) = fixture(&cfg, AggFunc::Count);
        let (alg1, _) = rewrite::drill_out_from_pres(&pres, &[1], instance.dict()).unwrap();
        let naive = rewrite::drill_out_from_ans(&ans, &[1], instance.dict()).unwrap();
        prop_assert!(naive.same_cells(&alg1), "naive ans-based drill-out diverged with single-valued dims");
        let rewritten = rdfcube::apply(
            &eq,
            &OlapOp::DrillOut { dims: vec![eq.query().dim_names()[1].to_string()] },
        ).unwrap();
        let scratch = rewrite::from_scratch(&rewritten, &instance).unwrap();
        prop_assert!(alg1.same_cells(&scratch));
    }

    /// DRILL-IN: Algorithm 2 agrees with from-scratch.
    #[test]
    fn drill_in_all_routes_agree(cfg in arb_config(0.0f64..0.6), agg in arb_agg()) {
        let (instance, eq, pres, _ans) = fixture(&cfg, agg);
        let p = eq.query().classifier().vars().id("p").unwrap();
        let (alg2, _) = rewrite::drill_in_from_pres(eq.query(), &pres, p, &instance).unwrap();
        let rewritten = rdfcube::apply(&eq, &OlapOp::DrillIn { var: "p".into() }).unwrap();
        let scratch = rewrite::from_scratch(&rewritten, &instance).unwrap();
        prop_assert!(alg2.same_cells(&scratch), "Algorithm 2 diverged");
    }

    /// The cost-based picker is sound regardless of which strategy it
    /// selects: posing independently-written dice / drill-out / drill-in
    /// shaped queries against a catalog holding the base cube (and
    /// whatever intermediate cubes earlier probes materialized), every
    /// answer equals from-scratch evaluation — in an unbudgeted session
    /// AND in one with a randomly tightened byte budget, which forces
    /// eviction/rehydration into the same runs.
    #[test]
    fn cost_based_picker_answers_equal_scratch(
        cfg in arb_config(0.0f64..0.6),
        agg in arb_agg(),
        lo in 18i64..40,
        width in 0i64..15,
        budget_frac in 1usize..8,
    ) {
        let mut instance = generate_instance(&cfg);
        let q = AnalyticalQuery::parse(CLASSIFIER, MEASURE, agg, instance.dict_mut()).unwrap();

        let mut free = OlapSession::new(instance.clone());
        free.register_query(ExtendedQuery::from_query(q.clone())).unwrap();
        let base_bytes = free.catalog().resident_bytes();
        // Anywhere from "everything fits" down to "barely one cube".
        let mut tight = OlapSession::with_budget(instance, base_bytes * budget_frac / 2 + base_bytes / 2);
        tight.register_query(ExtendedQuery::from_query(q)).unwrap();

        // Independently-written probes: renamed identity, diced, coarser
        // (drill-out shape), and +1 trailing dimension (drill-in shape).
        let probe_classifiers = [
            "k(?u, ?years, ?town) :- ?u livesIn ?town, ?u hasAge ?years, ?u rdf:type Blogger, \
             ?u wrotePost ?w",
            "k(?u, ?town) :- ?u livesIn ?town, ?u hasAge ?a, ?u rdf:type Blogger, ?u wrotePost ?w",
            "k(?u, ?years) :- ?u livesIn ?c, ?u hasAge ?years, ?u rdf:type Blogger, ?u wrotePost ?w",
            "k(?u, ?years, ?town, ?post) :- ?u livesIn ?town, ?u hasAge ?years, \
             ?u rdf:type Blogger, ?u wrotePost ?post",
        ];
        let probe_measure = "w(?u, ?v) :- ?u rdf:type Blogger, ?u wrotePost ?q, ?q hasWordCount ?v";
        for (i, classifier) in probe_classifiers.iter().enumerate() {
            for sessions in [&mut free, &mut tight] {
                let mut eq = sessions.parse_query(classifier, probe_measure, agg).unwrap();
                if i == 0 {
                    // Dice the renamed identity probe on the age dimension.
                    let mut sigma = Sigma::all(eq.query().n_dims());
                    let years = eq.query().dim_index("years").unwrap();
                    sigma.set(years, ValueSelector::IntRange { lo, hi: lo + width });
                    eq = ExtendedQuery::with_sigma(eq.query().clone(), sigma).unwrap();
                }
                let (h, strategy) = sessions.answer_query(eq).unwrap();
                let scratch = sessions.cube(h).query().answer(sessions.instance()).unwrap();
                prop_assert!(
                    sessions.answer(h).same_cells(&scratch),
                    "picker chose {strategy} for probe {i} and diverged"
                );
            }
        }
        if let Some(budget) = tight.catalog().budget() {
            prop_assert!(
                tight.catalog().resident_bytes() <= budget
                    || tight.catalog().resident_len() == 1,
                "budget violated outside the single-oversized-cube case"
            );
        }
    }

    /// The view-selection advisor is sound under any byte budget. After a
    /// warmup of distinct diced variants through a budgeted session:
    ///
    /// * whatever `advise()` materializes, resident bytes stay within the
    ///   budget (modulo the catalog's single-oversized-cube pinning rule);
    /// * a second `advise()` on the unchanged log is a no-op (idempotence);
    /// * fresh never-warmed queries — derivable only from an unrestricted
    ///   lattice ancestor — answer cell-identically to an unadvised
    ///   reactive session at the same budget, and to from-scratch
    ///   evaluation.
    #[test]
    fn advisor_budget_idempotence_and_soundness(
        cfg in arb_config(0.0f64..0.5),
        agg in arb_agg(),
        budget_frac in 2usize..8,
        n_warm in 3usize..8,
    ) {
        let mut instance = generate_instance(&cfg);
        let q = AnalyticalQuery::parse(CLASSIFIER, MEASURE, agg, instance.dict_mut()).unwrap();
        let base = ExtendedQuery::from_query(q);
        let dice_city = |i: usize| OlapOp::Dice {
            constraints: vec![(
                "dcity".into(),
                ValueSelector::OneOf(vec![Term::literal(format!("city{}", i % cfg.n_cities))]),
            )],
        };

        // One diced cube's footprint, to scale the budget from "barely one
        // cube" up to "most of the warmup fits".
        let mut probe = OlapSession::new(instance.clone());
        let (ph, _) = probe.answer_query(rdfcube::apply(&base, &dice_city(0)).unwrap()).unwrap();
        let slice_bytes =
            probe.cube(ph).answer().approx_bytes() + probe.cube(ph).pres().approx_bytes();
        let budget = slice_bytes * budget_frac / 2;

        let mut advised = OlapSession::with_budget(instance.clone(), budget);
        let mut reactive = OlapSession::with_budget(instance, budget);
        for i in 0..n_warm {
            let eq = rdfcube::apply(&base, &dice_city(i)).unwrap();
            advised.answer_query(eq.clone()).unwrap();
            reactive.answer_query(eq).unwrap();
        }

        advised.advise().unwrap();
        let cat = advised.catalog();
        prop_assert!(
            cat.resident_bytes() <= budget || cat.resident_len() == 1,
            "advised catalog exceeded its budget: {} resident bytes across {} cubes (budget {budget})",
            cat.resident_bytes(),
            cat.resident_len(),
        );

        let len = advised.len();
        let again = advised.advise().unwrap();
        prop_assert_eq!(again.selected, 0, "re-advise on an unchanged log selected views");
        prop_assert_eq!(again.considered, 0);
        prop_assert_eq!(advised.len(), len, "re-advise materialized something");

        // Fresh probes: a never-warmed age dice (the warmup only ever
        // diced dcity) and a never-warmed city pair — derivable only from
        // an unrestricted ancestor, whether or not the advisor built one.
        let fresh_ops = [
            OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::OneOf(vec![Term::integer(18)]))],
            },
            OlapOp::Dice {
                constraints: vec![(
                    "dcity".into(),
                    ValueSelector::OneOf(vec![
                        Term::literal("city0"),
                        Term::literal(format!("city{}", cfg.n_cities - 1)),
                    ]),
                )],
            },
        ];
        for op in &fresh_ops {
            let eq = rdfcube::apply(&base, op).unwrap();
            let (ha, _) = advised.answer_query(eq.clone()).unwrap();
            let (hr, _) = reactive.answer_query(eq).unwrap();
            prop_assert!(
                advised.answer(ha).same_cells(reactive.answer(hr)),
                "advised and reactive sessions diverged for {op:?}"
            );
            let scratch = advised.cube(ha).query().answer(advised.instance()).unwrap();
            prop_assert!(
                advised.answer(ha).same_cells(&scratch),
                "advised answer diverged from scratch for {op:?}"
            );
        }
    }

    /// The session's automatically chosen strategy is sound for every
    /// operation, and it picks the rewriting (never from-scratch) for the
    /// four paper operations.
    #[test]
    fn session_choice_is_sound(cfg in arb_config(0.0f64..0.6), agg in arb_agg(), slice_age in 18i64..40) {
        let mut instance = generate_instance(&cfg);
        let q = AnalyticalQuery::parse(CLASSIFIER, MEASURE, agg, instance.dict_mut()).unwrap();
        let mut session = OlapSession::new(instance);
        let h = session.register_query(ExtendedQuery::from_query(q)).unwrap();
        let ops = [
            OlapOp::Slice { dim: "dage".into(), value: Term::integer(slice_age) },
            OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 30 })],
            },
            OlapOp::DrillOut { dims: vec!["dcity".into()] },
            OlapOp::DrillIn { var: "p".into() },
        ];
        for op in &ops {
            let (next, strategy) = session.transform(h, op).unwrap();
            prop_assert!(
                strategy != rdfcube::Strategy::FromScratch,
                "session fell back to from-scratch for {op:?}"
            );
            let scratch = session.cube(next).query().answer(session.instance()).unwrap();
            prop_assert!(
                session.answer(next).same_cells(&scratch),
                "session strategy {strategy:?} diverged for {op:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// `pres(Q)` does not depend on ⊕, so a cube registered under ⊕₁
    /// answers the same cube, a dice and a drill-out under ⊕₂. On both
    /// session planes, each holding only the ⊕₁ cube, every answer has the
    /// cells of from-scratch evaluation, and a ⊕ change over the same
    /// dimensions is Algorithm 1 over the source `pres` (γ alone).
    #[test]
    fn another_aggregate_is_served_from_the_same_pres(
        cfg in arb_config(0.0f64..0.6),
        source_agg in arb_agg(),
        target_agg in arb_agg(),
        lo in 18i64..40,
        width in 0i64..12,
    ) {
        let mut instance = generate_instance(&cfg);
        let mut parse = |agg| {
            let q = AnalyticalQuery::parse(CLASSIFIER, MEASURE, agg, instance.dict_mut()).unwrap();
            ExtendedQuery::from_query(q)
        };
        let (source, same) = (parse(source_agg), parse(target_agg));
        let ops = [
            OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo, hi: lo + width })],
            },
            OlapOp::DrillOut { dims: vec!["dcity".into()] },
        ];
        let mut targets = vec![same.clone()];
        targets.extend(ops.iter().map(|op| rdfcube::apply(&same, op).unwrap()));
        // A session holding only the ⊕₁ cube.
        let holding_source = || {
            let mut session = OlapSession::new(instance.clone());
            session.register_query(source.clone()).unwrap();
            session
        };
        for (i, target) in targets.iter().enumerate() {
            let scratch = rewrite::from_scratch(target, &instance).unwrap();
            let mut session = holding_source();
            let (h, how) = session.answer_query(target.clone()).unwrap();
            prop_assert!(session.answer(h).same_cells(&scratch), "{how} diverged for target {i}");

            let shared = holding_source().into_shared();
            let (h, shared_how) = shared.answer_query(target.clone()).unwrap();
            let cells = shared.snapshot(h).unwrap();
            prop_assert!(cells.answer().same_cells(&scratch), "{shared_how} diverged for target {i}");

            if i == 0 && source_agg != target_agg {
                for how in [how, shared_how] {
                    prop_assert_eq!(how.strategy, rdfcube::Strategy::Algorithm1);
                    prop_assert!(how.catalog_hit);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// `pres`-level soundness: the partial result every rewriting returns — not
// only the cells aggregated from it — is the one from-scratch evaluation of
// the transformed query would materialize, row for row and in the same
// order, so that chains of operations keep deriving from sound inputs.

use rdfcube::core::olap::apply_roll_up_encoded;

/// Three dimensions, the last (the posts) multi-valued, so that a *middle*
/// dimension exists to drill out of.
const CLASSIFIER3: &str = "c(?x, ?dage, ?dcity, ?dpost) :- ?x rdf:type Blogger, \
     ?x hasAge ?dage, ?x livesIn ?dcity, ?x wrotePost ?dpost";

/// A blogger world with a `city → country` hierarchy for ROLL-UP to follow
/// (two cities in three get a second parent).
fn world_with_countries(cfg: &BloggerConfig) -> Graph {
    let mut instance = generate_instance(cfg);
    for c in 0..cfg.n_cities {
        let city = Term::literal(format!("city{c}"));
        for k in 0..1 + usize::from(c % 3 != 0) {
            let country = Term::iri(format!("country{}", (c + k) % 3));
            instance.insert(&city, &Term::iri("locatedIn"), &country);
        }
    }
    instance
}

fn query_over(instance: &mut Graph, classifier: &str, agg: AggFunc) -> ExtendedQuery {
    ExtendedQuery::from_query(
        AnalyticalQuery::parse(classifier, MEASURE, agg, instance.dict_mut()).unwrap(),
    )
}

/// The invariant of `crates/core/src/pres.rs`: rows strictly ascending on
/// `(d₁…dₙ, root, key)`.
fn assert_born_sorted(pres: &PartialResult, what: &str) {
    let order: Vec<_> = pres.rows().map(|r| (r.dims, r.root, r.key)).collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "{what}: pres rows are not strictly ascending on (dims, root, key)"
    );
}

/// `derived` holds the rows of `pres(target)` computed on the instance, up
/// to a bijective renaming of keys — `newk()` promises fresh keys, not
/// particular ones (dimension names aside: ROLL-UP's callers name the
/// coarse dimension themselves).
fn assert_is_pres_of(
    derived: &PartialResult,
    target: &ExtendedQuery,
    instance: &Graph,
    what: &str,
) {
    let recomputed = PartialResult::compute(target, instance).unwrap();
    assert_born_sorted(derived, what);
    assert_born_sorted(&recomputed, what);
    assert_eq!(derived.agg(), recomputed.agg(), "{what}");
    assert_eq!(derived.len(), recomputed.len(), "{what}: row counts differ");
    assert!(
        key_classes(derived) == key_classes(&recomputed),
        "{what}: derived pres differs from pres(Q_T) beyond a renaming of keys"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// SLICE/DICE and DRILL-OUT — each single dimension (first, middle,
    /// last), a pair, and all of them down to the 0-dimensional cube —
    /// return the partial result of the transformed query.
    #[test]
    fn sigma_and_drill_out_return_the_transformed_pres(
        cfg in arb_config(0.0f64..0.6),
        agg in arb_agg(),
        lo in 18i64..40,
        width in 0i64..12,
    ) {
        let mut instance = generate_instance(&cfg);
        let eq = query_over(&mut instance, CLASSIFIER3, agg);
        let pres = PartialResult::compute(&eq, &instance).unwrap();
        assert_born_sorted(&pres, "compute");

        let dices = [
            OlapOp::Slice { dim: "dage".into(), value: Term::integer(lo) },
            OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo, hi: lo + width })],
            },
            OlapOp::Dice {
                constraints: vec![
                    ("dcity".into(), ValueSelector::OneOf(vec![Term::literal("city0"), Term::literal("city2")])),
                    ("dage".into(), ValueSelector::IntRange { lo: 18, hi: lo }),
                ],
            },
        ];
        for op in &dices {
            let target = rdfcube::apply(&eq, op).unwrap();
            let diced = rewrite::dice_pres(&pres, target.sigma(), instance.dict());
            assert_is_pres_of(&diced, &target, &instance, &format!("{op:?}"));
            let recomputed = PartialResult::compute(&target, &instance).unwrap();
            prop_assert_eq!(key_classes(&diced), key_classes(&recomputed));
        }

        for removed in [vec![0usize], vec![1], vec![2], vec![0, 2], vec![0, 1, 2]] {
            let dims = removed.iter().map(|&i| eq.query().dim_names()[i].to_string()).collect();
            let target = rdfcube::apply(&eq, &OlapOp::DrillOut { dims }).unwrap();
            let (cube, derived) =
                rewrite::drill_out_from_pres(&pres, &removed, instance.dict()).unwrap();
            assert_is_pres_of(&derived, &target, &instance, &format!("drill-out {removed:?}"));
            prop_assert!(cube.same_cells(&rewrite::from_scratch(&target, &instance).unwrap()));
            prop_assert!(cube.same_cells(&derived.to_cube(instance.dict()).unwrap()));
        }
    }

    /// DRILL-IN and ROLL-UP return the partial result of the transformed
    /// query (its keys coincide with from-scratch keys because the measure
    /// is untouched).
    #[test]
    fn drill_in_and_roll_up_return_the_transformed_pres(
        cfg in arb_config(0.0f64..0.6),
        agg in arb_agg(),
    ) {
        let mut instance = world_with_countries(&cfg);
        let eq = query_over(&mut instance, CLASSIFIER, agg);
        let pres = PartialResult::compute(&eq, &instance).unwrap();

        let p = eq.query().classifier().vars().id("p").unwrap();
        let target = rdfcube::apply(&eq, &OlapOp::DrillIn { var: "p".into() }).unwrap();
        let (_, derived) = rewrite::drill_in_from_pres(eq.query(), &pres, p, &instance).unwrap();
        assert_is_pres_of(&derived, &target, &instance, "drill-in");

        let via = instance.dict().iri_id("locatedIn").unwrap();
        let target = apply_roll_up_encoded(&eq, "dcity", via).unwrap();
        let (cube, derived) =
            rewrite::roll_up_from_pres(&pres, 1, via, "dcountry", &instance).unwrap();
        assert_is_pres_of(&derived, &target, &instance, "roll-up");
        let scratch = rewrite::from_scratch(&target, &instance).unwrap();
        prop_assert_eq!(cube.cells(), scratch.cells());
    }

    /// Second-generation derivations off the *returned* partial results —
    /// a drill-out of a dice, a drill-in of a drill-out, a roll-up of a
    /// drill-in — still equal from-scratch evaluation, cells and rows.
    #[test]
    fn derivations_compose_over_returned_pres(
        cfg in arb_config(0.0f64..0.6),
        agg in arb_agg(),
        lo in 18i64..40,
        width in 0i64..12,
    ) {
        let mut instance = world_with_countries(&cfg);
        let eq = query_over(&mut instance, CLASSIFIER, agg);
        let pres = PartialResult::compute(&eq, &instance).unwrap();
        let dict = instance.dict();
        let drill_out_city = OlapOp::DrillOut { dims: vec!["dcity".into()] };

        // DRILL-OUT of a DICE.
        let dice = OlapOp::Dice {
            constraints: vec![("dage".into(), ValueSelector::IntRange { lo, hi: lo + width })],
        };
        let diced_q = rdfcube::apply(&eq, &dice).unwrap();
        let diced = rewrite::dice_pres(&pres, diced_q.sigma(), dict);
        let target = rdfcube::apply(&diced_q, &drill_out_city).unwrap();
        let (cube, derived) = rewrite::drill_out_from_pres(&diced, &[1], dict).unwrap();
        prop_assert!(cube.same_cells(&rewrite::from_scratch(&target, &instance).unwrap()));
        assert_is_pres_of(&derived, &target, &instance, "drill-out of a dice");

        // DRILL-IN of a DRILL-OUT: the removed dimension comes back (as the
        // last one).
        let out_q = rdfcube::apply(&eq, &drill_out_city).unwrap();
        let (_, out) = rewrite::drill_out_from_pres(&pres, &[1], dict).unwrap();
        let dcity = out_q.query().classifier().vars().id("dcity").unwrap();
        let target = rdfcube::apply(&out_q, &OlapOp::DrillIn { var: "dcity".into() }).unwrap();
        let (cube, derived) =
            rewrite::drill_in_from_pres(out_q.query(), &out, dcity, &instance).unwrap();
        prop_assert!(cube.same_cells(&rewrite::from_scratch(&target, &instance).unwrap()));
        assert_is_pres_of(&derived, &target, &instance, "drill-in of a drill-out");

        // ROLL-UP of a DRILL-IN.
        let p = eq.query().classifier().vars().id("p").unwrap();
        let in_q = rdfcube::apply(&eq, &OlapOp::DrillIn { var: "p".into() }).unwrap();
        let (_, drilled) = rewrite::drill_in_from_pres(eq.query(), &pres, p, &instance).unwrap();
        let via = dict.iri_id("locatedIn").unwrap();
        let target = apply_roll_up_encoded(&in_q, "dcity", via).unwrap();
        let (cube, derived) =
            rewrite::roll_up_from_pres(&drilled, 1, via, "dcountry", &instance).unwrap();
        let scratch = rewrite::from_scratch(&target, &instance).unwrap();
        prop_assert_eq!(cube.cells(), scratch.cells());
        assert_is_pres_of(&derived, &target, &instance, "roll-up of a drill-in");
    }
}

// ---------------------------------------------------------------------------
// ⊕ twins: cubes that differ only in ⊕ share one `pres` table, which the
// budget charges once, and a stale or evicted twin adopts a fresh one's.

/// What step `step` inserts: a post for an old blogger and a new blogger
/// with a post, so a refresh both touches an old fact and adds one.
fn arrivals(step: usize, n_bloggers: usize) -> Vec<(Term, Term, Term)> {
    let old = Term::iri(format!("user{}", step * 7 % n_bloggers));
    let new = Term::iri(format!("newuser{step}"));
    let mut out = vec![
        (
            new.clone(),
            Term::iri(rdfcube::rdf::vocab::RDF_TYPE),
            Term::iri("Blogger"),
        ),
        (
            new.clone(),
            Term::iri("hasAge"),
            Term::integer(20 + step as i64),
        ),
        (new.clone(), Term::iri("livesIn"), Term::literal("city1")),
    ];
    for (user, post) in [
        (old, format!("newpost{step}a")),
        (new, format!("newpost{step}b")),
    ] {
        let post = Term::iri(post);
        out.push((user, Term::iri("wrotePost"), post.clone()));
        out.push((
            post,
            Term::iri("hasWordCount"),
            Term::integer(40 + step as i64),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// A random chain of ⊕ changes within one family — some steps diced,
    /// some after an insert — under a budget of a fraction of one table up
    /// to a few tables, so twins are evicted, rehydrated, refreshed and
    /// adopt each other's tables. On both planes every answer has the
    /// cells of from-scratch evaluation, and after every step the resident
    /// bytes fit the budget unless one cube alone outgrows it.
    #[test]
    fn aggregate_chains_answer_as_from_scratch_within_the_budget(
        cfg in arb_config(0.0f64..0.6),
        steps in proptest::collection::vec((arb_agg(), 0u8..3, any::<bool>()), 4..9),
        budget_thirds in 1usize..7,
    ) {
        let mut instance = generate_instance(&cfg);
        let base = query_over(&mut instance, CLASSIFIER, AggFunc::Sum);
        let table = PartialResult::compute(&base, &instance).unwrap().approx_bytes();
        let budget = table * budget_thirds / 3;
        let dices = [
            None,
            Some(OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 18, hi: 30 })],
            }),
            Some(OlapOp::Dice {
                constraints: vec![(
                    "dcity".into(),
                    ValueSelector::OneOf(vec![Term::literal("city0"), Term::literal("city1")]),
                )],
            }),
        ];
        for shared in [false, true] {
            let mut session = OlapSession::with_budget(instance.clone(), budget);
            for (step, &(agg, dice, insert)) in steps.iter().enumerate() {
                if insert {
                    session.insert_triples(arrivals(step, cfg.n_bloggers));
                }
                let mut eq = session.parse_query(CLASSIFIER, MEASURE, agg).unwrap();
                if let Some(op) = &dices[dice as usize] {
                    eq = rdfcube::apply(&eq, op).unwrap();
                }
                let (cells, how) = if shared {
                    let plane = session.into_shared();
                    let (h, how) = plane.answer_query(eq.clone()).unwrap();
                    let cells = plane.snapshot(h).unwrap().answer().clone();
                    session = plane.into_session();
                    (cells, how)
                } else {
                    let (h, how) = session.answer_query(eq.clone()).unwrap();
                    (session.answer(h).clone(), how)
                };
                let scratch = rewrite::from_scratch(&eq, session.instance()).unwrap();
                prop_assert!(
                    cells.same_cells(&scratch),
                    "step {step} ({agg}, dice {dice}, shared={shared}): {how} diverged"
                );
                let cat = session.catalog();
                prop_assert!(
                    cat.resident_bytes() <= budget || cat.resident_len() == 1,
                    "step {step}: {} resident bytes in {} cubes over a budget of {budget}",
                    cat.resident_bytes(),
                    cat.resident_len(),
                );
            }
        }
    }
}
