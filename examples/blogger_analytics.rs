//! Blogger analytics at scale: rewriting vs from-scratch, timed.
//!
//! Generates a blogger world (≈50k triples), registers the paper's Example 1
//! and Example 4 cubes, then answers a slice, a dice, and a drill-out both
//! ways — via the session's rewriting strategies and via full re-evaluation
//! — reporting wall-clock times and verifying the answers match.
//!
//! Run with: `cargo run --release --example blogger_analytics`

use rdfcube::prelude::*;
use rdfcube::{core::rewrite, datagen};
use std::time::Instant;

fn main() {
    let cfg = BloggerConfig {
        n_bloggers: 4_000,
        multi_city_prob: 0.15,
        ..Default::default()
    };
    let t0 = Instant::now();
    let instance = datagen::generate_instance(&cfg);
    println!(
        "Generated blogger instance: {} triples, {} terms ({:?})\n",
        instance.len(),
        instance.dict().len(),
        t0.elapsed()
    );

    let mut session = OlapSession::new(instance);

    let t0 = Instant::now();
    let cube = session
        .register(
            datagen::EXAMPLE1_CLASSIFIER,
            datagen::EXAMPLE1_MEASURE,
            AggFunc::Count,
        )
        .expect("register Example 1 cube");
    println!(
        "Materialized Q (count of sites by age × city): {} cells, pres(Q) = {} rows  ({:?})",
        session.answer(cube).len(),
        session.cube(cube).pres().len(),
        t0.elapsed()
    );

    // ---- SLICE: rewriting vs scratch ------------------------------------
    let slice = OlapOp::Slice {
        dim: "dage".into(),
        value: Term::integer(30),
    };
    let t0 = Instant::now();
    let (h_slice, strategy) = session.transform(cube, &slice).expect("slice");
    let rewrite_time = t0.elapsed();

    let t0 = Instant::now();
    let scratch = session
        .cube(h_slice)
        .query()
        .answer(session.instance())
        .expect("scratch");
    let scratch_time = t0.elapsed();

    assert!(session.answer(h_slice).same_cells(&scratch));
    println!(
        "\nSLICE dage=30        {strategy}: {rewrite_time:?}   from-scratch: {scratch_time:?}  \
         ({} cells, answers equal)",
        scratch.len()
    );

    // ---- DICE on an age range (Example 4's shape) ------------------------
    let dice = OlapOp::Dice {
        constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 30 })],
    };
    let t0 = Instant::now();
    let (h_dice, strategy) = session.transform(cube, &dice).expect("dice");
    let rewrite_time = t0.elapsed();
    let t0 = Instant::now();
    let scratch = session
        .cube(h_dice)
        .query()
        .answer(session.instance())
        .expect("scratch");
    let scratch_time = t0.elapsed();
    assert!(session.answer(h_dice).same_cells(&scratch));
    println!(
        "DICE 20≤dage≤30      {strategy}: {rewrite_time:?}   from-scratch: {scratch_time:?}  \
         ({} cells, answers equal)",
        scratch.len()
    );

    // ---- DRILL-OUT: Algorithm 1 vs scratch -------------------------------
    let drill = OlapOp::DrillOut {
        dims: vec!["dage".into()],
    };
    let t0 = Instant::now();
    let (h_out, strategy) = session.transform(cube, &drill).expect("drill-out");
    let rewrite_time = t0.elapsed();
    let t0 = Instant::now();
    let scratch = session
        .cube(h_out)
        .query()
        .answer(session.instance())
        .expect("scratch");
    let scratch_time = t0.elapsed();
    assert!(session.answer(h_out).same_cells(&scratch));
    println!(
        "DRILL-OUT dage       {strategy}: {rewrite_time:?}   from-scratch: {scratch_time:?}  \
         ({} cells, answers equal)",
        scratch.len()
    );

    // ---- Example 5's warning, quantified ---------------------------------
    // The naive ans-based drill-out double-counts facts that are
    // multi-valued along the REMOVED dimension — here dcity, the dimension
    // the generator makes multi-valued.
    let (h_city_out, _) = session
        .transform(
            cube,
            &OlapOp::DrillOut {
                dims: vec!["dcity".into()],
            },
        )
        .expect("drill-out dcity");
    let correct = session.answer(h_city_out);
    let naive = rewrite::drill_out_from_ans(session.answer(cube), &[1], session.instance().dict())
        .expect("count is distributive, so the naive method *runs* — wrongly");
    let wrong = naive
        .cells()
        .filter(|(k, v)| correct.get(k).is_none_or(|c| c != *v))
        .count();
    println!(
        "\nNaive ans-based drill-out of dcity (Example 5's trap): {wrong}/{} cells wrong \
         at multi-city probability {}",
        naive.len(),
        cfg.multi_city_prob
    );

    // ---- A second cube: Example 4's average word count -------------------
    let t0 = Instant::now();
    let words = session
        .register(
            datagen::EXAMPLE1_CLASSIFIER,
            datagen::EXAMPLE4_MEASURE,
            AggFunc::Avg,
        )
        .expect("register Example 4 cube");
    println!(
        "\nMaterialized Example 4 cube (avg words by age × city): {} cells ({:?})",
        session.answer(words).len(),
        t0.elapsed()
    );
    let (h, strategy) = session
        .transform(
            words,
            &OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::IntRange { lo: 20, hi: 30 })],
            },
        )
        .expect("dice avg cube");
    println!(
        "DICE on the avg cube answered by {strategy}; {} cells",
        session.answer(h).len()
    );
}
