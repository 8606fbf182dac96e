//! E10 — cube-catalog strategy selection: signature-indexed, cost-based
//! planning.
//!
//! Loads the ~100k-triple blogger world, materializes a 200-cube workload
//! spread over every (classifier body × measure × aggregate) family plus
//! Σ-diced variants, and times planning a probe set of independently-
//! written queries (renamed variables, reordered patterns, dice/drill-out/
//! drill-in shapes) with [`OlapSession::explain_query`]
//! (`plan_indexed_200`): one `ViewKey` probe into the catalog index, then
//! classification + costing of that one candidate family. (The linear
//! rescan this replaced was 21–25× slower on this workload; see
//! CHANGES.md, PR 4.)
//!
//! A separate `e10_smoke` group runs a miniature workload — including a
//! budgeted session exercising eviction + rehydration — with a minimal
//! sample budget; CI executes only that group to guard the bench against
//! bit-rot.

use criterion::{criterion_group, criterion_main, Criterion};
use rdfcube_bench::{catalog_fixture, catalog_fixture_with_budget};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let f = catalog_fixture(100_000, 200);

    let mut group = c.benchmark_group("e10_catalog");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("plan_indexed_200", |b| {
        b.iter(|| {
            for p in &f.probes {
                black_box(f.session.explain_query(p));
            }
        })
    });

    group.finish();
}

fn smoke(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_smoke");
    group.sample_size(2);
    group.warm_up_time(std::time::Duration::from_millis(50));
    group.measurement_time(std::time::Duration::from_millis(200));

    let f = catalog_fixture(4_000, 20);
    group.bench_function("plan_indexed_20", |b| {
        b.iter(|| {
            for p in &f.probes {
                black_box(f.session.explain_query(p));
            }
        })
    });

    // Exercise the budgeted path end to end: answering under a tight
    // budget must evict, rehydrate, and still answer correctly (the
    // assertion guards runtime rot; correctness proper is property-tested
    // in the test suite).
    group.bench_function("budgeted_answer_20", |b| {
        b.iter(|| {
            let mut budgeted = catalog_fixture_with_budget(4_000, 20, Some(64 * 1024));
            let probes: Vec<_> = budgeted.probes.iter().take(6).cloned().collect();
            for p in probes {
                let (h, _) = budgeted.session.answer_query(p).expect("budgeted answer");
                black_box(budgeted.session.answer(h).len());
            }
            let cat = budgeted.session.catalog();
            assert!(
                cat.resident_bytes() <= cat.budget().unwrap() || cat.resident_len() == 1,
                "budget violated: {} resident bytes across {} cubes",
                cat.resident_bytes(),
                cat.resident_len(),
            );
            black_box(cat.counters())
        })
    });

    group.finish();
}

criterion_group!(benches, bench, smoke);
criterion_main!(benches);
