//! Trace-shape properties of the query-plane telemetry.
//!
//! For randomized blogger worlds and workloads, every trace returned by
//! `answer_traced` / `transform_traced` — on the mutation plane and on the
//! shared plane, which must agree span for span — is structurally sound:
//!
//! * the span tree is rooted at `answer_query` and every span's parent
//!   index points at an earlier span (a well-formed arena tree);
//! * the `strategy` span's detail names exactly the strategy the
//!   accompanying [`ExplainedStrategy`] reports;
//! * every `bgp_step` span's surviving rows (`rows_out`) never exceed
//!   the rows the pattern matched before post-filtering (`rows_matched`)
//!   — row counts are monotone through filters;
//! * the root's direct stage spans account for (almost) all of the
//!   end-to-end wall time.

use proptest::prelude::*;
// Explicit import wins over the glob imports: `Strategy` here always
// means proptest's trait, never the session's strategy enum.
use proptest::strategy::Strategy;
use rdfcube::core::{apply, CubeHandle};
use rdfcube::datagen::{generate_instance, BloggerConfig};
use rdfcube::prelude::*;
use std::collections::BTreeSet;

const CLASSIFIER: &str = "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, \
     ?x livesIn ?dcity, ?x wrotePost ?p";
const MEASURE: &str = "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?q, ?q hasWordCount ?v";

fn arb_config() -> impl Strategy<Value = BloggerConfig> {
    (20usize..150, 0.0f64..0.6, any::<u64>()).prop_map(|(n, multi, seed)| BloggerConfig {
        n_bloggers: n,
        multi_city_prob: multi,
        seed,
        ..Default::default()
    })
}

/// Structural soundness checks shared by every traced answer.
fn assert_trace_sound(explained: &ExplainedStrategy, trace: &QueryTrace) {
    let spans = trace.spans();
    assert!(!spans.is_empty(), "traced answer produced an empty trace");
    let root = trace.root().unwrap();
    assert_eq!(root.name, "answer_query");
    assert!(root.parent.is_none());
    for (i, span) in spans.iter().enumerate().skip(1) {
        let parent = span
            .parent
            .unwrap_or_else(|| panic!("non-root span {:?} has no parent", span.name));
        assert!(
            parent < i,
            "span {:?} points at a later parent — not a well-formed arena tree",
            span.name
        );
    }
    let strategy_span = trace
        .find("strategy")
        .expect("every traced answer records its strategy pick");
    assert_eq!(strategy_span.detail, explained.strategy.to_string());
    for step in trace.find_all("bgp_step") {
        let matched = step
            .attrs
            .iter()
            .find(|(k, _)| *k == "rows_matched")
            .map(|(_, v)| *v)
            .expect("bgp_step records rows_matched");
        assert!(
            step.rows_out <= matched,
            "post-filter rows ({}) exceed matched rows ({})",
            step.rows_out,
            matched
        );
    }
    // Blogger classifiers and measures start from a root scan, so both
    // sides of `pres`'s key join arrive in root order.
    for join in trace.find_all("key_join") {
        assert_eq!(join.attr("sorted_sides"), Some(0), "key_join sorted a side");
    }
}

/// What a traced entry point returns.
type Traced = (CubeHandle, ExplainedStrategy, QueryTrace);

/// The traced entry points of either plane, so one operation list runs
/// against both.
trait TracedPlane {
    fn answer(&mut self, eq: ExtendedQuery) -> Traced;
    fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> Traced;
}

impl TracedPlane for OlapSession {
    fn answer(&mut self, eq: ExtendedQuery) -> Traced {
        self.answer_traced(eq).unwrap()
    }
    fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> Traced {
        self.transform_traced(h, op).unwrap()
    }
}

impl TracedPlane for SharedSession {
    fn answer(&mut self, eq: ExtendedQuery) -> Traced {
        self.answer_traced(eq).unwrap()
    }
    fn transform(&mut self, h: CubeHandle, op: &OlapOp) -> Traced {
        self.transform_traced(h, op).unwrap()
    }
}

/// The names of the root's direct stage spans, in order.
fn stages(trace: &QueryTrace) -> Vec<&'static str> {
    trace.children(0).map(|i| trace.spans()[i].name).collect()
}

/// Runs the operation list — the from-scratch base, the dice of its
/// drill-out (Algorithm 1 with Σ applied to the source first), a derived
/// dice, the base again (a duplicate hit), a roll-up and the roll-up again
/// — and checks every trace for soundness and the stages it must show.
/// Returns each operation's full span-name sequence, for comparing planes.
fn traced_operations(
    plane: &mut impl TracedPlane,
    eq: &ExtendedQuery,
    dice: &OlapOp,
) -> Vec<Vec<&'static str>> {
    let roll_up = OlapOp::RollUp {
        dim: "dcity".into(),
        via: "locatedIn".into(),
    };
    let base = plane.answer(eq.clone());
    let h = base.0;
    let drop_city = OlapOp::DrillOut {
        dims: vec!["dcity".into()],
    };
    let diced_out = apply(&apply(eq, dice).unwrap(), &drop_city).unwrap();
    let traced = [
        base,
        plane.answer(diced_out),
        plane.transform(h, dice),
        plane.answer(eq.clone()),
        plane.transform(h, &roll_up),
        plane.transform(h, &roll_up),
    ];
    for (_, explained, trace) in &traced {
        assert_trace_sound(explained, trace);
    }
    let [base, diced_out, _, again, rolled, rolled_again] = &traced;
    assert_eq!(
        stages(&base.2),
        ["plan", "strategy", "from_scratch", "materialize"]
    );
    // Σ goes first: Algorithm 1's π reads the diced rows, not the source's.
    assert_eq!(diced_out.1, rdfcube::core::Strategy::Algorithm1);
    let position = |name| diced_out.2.spans().iter().position(|s| s.name == name);
    let (dice_pres, project) = (position("dice_pres").unwrap(), position("project").unwrap());
    assert!(dice_pres < project, "dice_pres must precede project");
    let spans = diced_out.2.spans();
    assert_eq!(spans[project].rows_in, spans[dice_pres].rows_out);
    assert_eq!(stages(&again.2), ["plan", "strategy", "duplicate"]);
    assert_eq!(rolled.1, rdfcube::core::Strategy::RollUpComposition);
    assert_eq!(
        stages(&rolled.2),
        ["plan", "strategy", "derive", "materialize"]
    );
    assert_eq!(rolled_again.0, rolled.0);
    assert_eq!(stages(&rolled_again.2), ["plan", "strategy", "duplicate"]);
    traced
        .iter()
        .map(|(_, _, trace)| trace.spans().iter().map(|s| s.name).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random worlds, random dice: the trace of every operation is
    /// structurally sound and consistent with the planner's explanation,
    /// and both planes — one pipeline — emit the same spans in the same
    /// order.
    #[test]
    fn traced_answers_have_sound_shape(cfg in arb_config(), lo in 18i64..35, width in 1i64..20) {
        let mut instance = generate_instance(&cfg);
        for c in 0..cfg.n_cities {
            let city = Term::literal(format!("city{c}"));
            instance.insert(&city, &Term::iri("locatedIn"), &Term::iri(format!("country{}", c % 3)));
        }
        let q = AnalyticalQuery::parse(CLASSIFIER, MEASURE, AggFunc::Count, instance.dict_mut())
            .unwrap();
        let eq = ExtendedQuery::from_query(q);
        let dice = OlapOp::Dice {
            constraints: vec![("dage".into(), ValueSelector::IntRange { lo, hi: lo + width })],
        };
        let serial = traced_operations(&mut OlapSession::new(instance.clone()), &eq, &dice);
        let shared = traced_operations(&mut OlapSession::new(instance).into_shared(), &eq, &dice);
        prop_assert_eq!(serial, shared);
    }
}

/// The root's direct stage spans must account for nearly all of the
/// end-to-end wall time on the 100k blogger world (the acceptance bar
/// is: stage sums within 10% of the traced total).
#[test]
fn stage_times_cover_end_to_end_wall_time() {
    let cfg = BloggerConfig::with_approx_triples(100_000);
    let mut instance = generate_instance(&cfg);
    let q =
        AnalyticalQuery::parse(CLASSIFIER, MEASURE, AggFunc::Count, instance.dict_mut()).unwrap();
    let eq = ExtendedQuery::from_query(q);
    let mut s = OlapSession::new(instance);
    let (_, _, trace) = s.answer_traced(eq).unwrap();
    let coverage = trace.stage_coverage();
    assert!(
        coverage >= 0.9,
        "stage spans cover only {:.1}% of the traced wall time",
        coverage * 100.0
    );
    assert!(coverage <= 1.0 + 1e-9, "stage spans exceed total time");
}

/// A register evaluates the measure for the facts its classifier admits:
/// the `measure` span counts the roots that seeded it and the patterns the
/// classifier already stated on the root (`?x rdf:type Blogger`), whether
/// Σ restricts the cube or not.
#[test]
fn registers_seed_the_measure_with_the_admitted_roots() {
    let cfg = BloggerConfig::with_approx_triples(5_000);
    let mut instance = generate_instance(&cfg);
    let q =
        AnalyticalQuery::parse(CLASSIFIER, MEASURE, AggFunc::Count, instance.dict_mut()).unwrap();
    let eq = ExtendedQuery::from_query(q);
    let dice = OlapOp::Dice {
        constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 24 })],
    };
    let register = |eq: ExtendedQuery| {
        let roots = eq.classifier_relation(&instance).unwrap();
        let roots = roots.rows().map(|row| row[0]).collect::<BTreeSet<_>>();
        let (_, explained, trace) = OlapSession::new(instance.clone())
            .answer_traced(eq)
            .unwrap();
        assert_eq!(explained.strategy, rdfcube::core::Strategy::FromScratch);
        let measure = trace.find("measure").unwrap();
        assert_eq!(measure.attr("seeded_roots"), Some(roots.len() as u64));
        assert_eq!(measure.attr("elided_patterns"), Some(1));
        (roots.len(), measure.rows_out)
    };
    let (all_roots, all_tuples) = register(eq.clone());
    let (roots, tuples) = register(apply(&eq, &dice).unwrap());
    assert!(
        0 < roots && roots < all_roots,
        "{roots} of {all_roots} roots"
    );
    assert!(
        tuples < all_tuples,
        "{tuples} of {all_tuples} measure tuples"
    );
}

/// The shared plane's traces carry the same shape as the serial plane's.
#[test]
fn shared_plane_traces_are_sound() {
    let cfg = BloggerConfig::with_approx_triples(5_000);
    let mut instance = generate_instance(&cfg);
    let q =
        AnalyticalQuery::parse(CLASSIFIER, MEASURE, AggFunc::Count, instance.dict_mut()).unwrap();
    let eq = ExtendedQuery::from_query(q);
    let shared = OlapSession::new(instance).into_shared();

    let (_, explained, trace) = shared.answer_traced(eq.clone()).unwrap();
    assert_trace_sound(&explained, &trace);
    assert!(trace.find("from_scratch").is_some());

    let (_, explained, trace) = shared.answer_traced(eq).unwrap();
    assert_trace_sound(&explained, &trace);
    assert!(trace.find("duplicate").is_some());
}
