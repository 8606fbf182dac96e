//! The metric catalogue: every name the harness emits, with its unit and
//! direction, and for end-to-end metrics the regression bound. This table
//! is the single source `BENCHMARK.json` is generated from
//! (`olapbench describe`) and checked against (the parity test).

use crate::json::Json;
use crate::obs::STAGES;
use crate::ops::Kind;
use crate::spans::Layer;
use crate::workloads::NAMES;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses the word back.
    pub fn parse(word: &str) -> Option<Better> {
        match word {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// The name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Why each workload exists, one line each (the `why` of `BENCHMARK.json`).
pub const WORKLOAD_WHY: [&str; 4] = [
    "analyst script on a fresh session at 100k triples: rewrite, planner, session and catalog do the work, so a rewriting or planner change must show here",
    "rounds of eight distinct-family queries on an empty catalog at 1M triples: rdf, engine and pres do the work; a rewriting change must move nothing here",
    "up to 2 clients on a 1.25 MiB SharedSession pulling a Zipf stream of 144 variants plus fresh dices: catalog eviction, rehydration, advisor and the shared plane",
    "insert batches beside refresh, dice and drill-out on one session: delta buffer, reads over a pending delta, merge and watermark refresh",
];

/// The end-to-end metrics: what a user of a session sees. Every workload
/// reports every one of them, and none can be 0.
///
/// The sandbox the numbers are taken in slows down for seconds at a time
/// (one-sided noise: time is only ever added) and drifts by 10–15 % over
/// half an hour, so two of the latency metrics are **lower quartiles** — of
/// the unit-of-work time and of each operation kind's time — which stay put
/// while a quarter of the run is undisturbed; the median unit time and the
/// mean throughput are reported beside them. Every timing carries the
/// widest bound the contract allows, which is about three times the spread
/// seen over ten seeds on the reference box; memory carries less (README).
pub fn end_to_end() -> Vec<MetricDef> {
    let e2e = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        e2e("setup_s", "s", Better::Lower, 0.25),
        e2e("ops_per_s", "1/s", Better::Higher, 0.25),
        e2e("unit_p25_ms", "ms", Better::Lower, 0.25),
        e2e("unit_p50_ms", "ms", Better::Lower, 0.25),
        e2e("kind_p25_geomean_us", "us", Better::Lower, 0.25),
        e2e("catalog_peak_bytes", "bytes", Better::Lower, 0.10),
        e2e("rss_peak_mb", "MB", Better::Lower, 0.20),
    ]
}

/// Operation kinds that have a served latency (everything but inserts,
/// which are reported as a rate).
pub fn served_kinds() -> impl Iterator<Item = Kind> {
    Kind::ALL.into_iter().filter(|k| *k != Kind::Insert)
}

/// The per-layer metrics of the traced run, layer by layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("rdf.bulk_load_ms", "ms", Lower),
        def("rdf.probe_ns", "ns", Lower),
        def("rdf.scan_mtriples_per_s", "Mtriples/s", Higher),
        def("rdf.probe_delta_ns", "ns", Lower),
        def("rdf.insert_ns_per_triple", "ns", Lower),
        def("rdf.compact_ms", "ms", Lower),
        def("rdf.delta_merges", "count", Lower),
        def("engine.parse_us", "us", Lower),
        def("engine.classifier_eval_us", "us", Lower),
        def("engine.measure_eval_us", "us", Lower),
        def("engine.bgp_steps", "count", Lower),
        def("engine.rows_per_result", "ratio", Lower),
        def("engine.join_us", "us", Lower),
        def("engine.group_aggregate_us", "us", Lower),
        def("engine.evaluate_sharded_us", "us", Lower),
        def("engine.shards_skipped_share", "share", Higher),
        def("pres.compute_us", "us", Lower),
        def("pres.to_cube_us", "us", Lower),
        def("pres.rows", "count", Lower),
        def("pres.bytes", "bytes", Lower),
        def("pres.overhead_share", "share", Lower),
        def("rewrite.dice_from_ans_us", "us", Lower),
        def("rewrite.dice_pres_us", "us", Lower),
        def("rewrite.drill_out_us", "us", Lower),
        def("rewrite.drill_in_us", "us", Lower),
        def("rewrite.roll_up_us", "us", Lower),
    ];
    for op in ["dice", "drill_out", "drill_in", "roll_up"] {
        v.push(def(format!("rewrite.scratch_{op}_us"), "us", Lower));
    }
    for op in ["dice", "dice_served", "drill_out", "drill_in", "roll_up"] {
        v.push(def(format!("rewrite.{op}_speedup"), "ratio", Higher));
    }
    v.extend([
        def("planner.signature_us", "us", Lower),
        def("planner.plan_us", "us", Lower),
        def("planner.candidates", "count", Lower),
        def("planner.regret_p50", "ratio", Lower),
        def("planner.regret_max", "ratio", Lower),
        def("planner.wrong_picks", "count", Lower),
        def("planner.drift_max", "ratio", Lower),
    ]);
    for kind in served_kinds() {
        v.push(def(format!("session.{}_p50_us", kind.name()), "us", Lower));
    }
    v.push(def("session.insert_ktriples_per_s", "ktriples/s", Higher));
    v.push(def("session.op_p95_us", "us", Lower));
    for kind in served_kinds() {
        v.push(def(
            format!("session.overhead_us.{}", kind.name()),
            "us",
            Lower,
        ));
    }
    v.extend([
        def("shared.vs_session_ratio", "ratio", Lower),
        def("catalog.hit_share", "share", Higher),
        def("catalog.evictions", "count", Lower),
        def("catalog.rehydrations", "count", Lower),
        def("catalog.refreshes", "count", Lower),
        def("catalog.entries", "count", Lower),
        def("catalog.resident_bytes", "bytes", Lower),
        def("catalog.insert_us", "us", Lower),
        def("catalog.rehydrate_us", "us", Lower),
        def("advisor.advise_ms", "ms", Lower),
        def("advisor.selected", "count", Higher),
        def("advisor.materialized_bytes", "bytes", Lower),
        def("advisor.fresh_hit_share", "share", Higher),
        def("trace.overhead_share", "share", Lower),
    ]);
    for stage in STAGES {
        v.push(def(format!("obs.self_us.{stage}"), "us", Lower));
    }
    v.push(def("obs.unattributed_share", "share", Lower));
    for layer in Layer::ALL {
        v.push(def(format!("share.{}", layer.name()), "share", Lower));
    }
    v.push(def("share.unattributed", "share", Lower));
    v
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 12;

/// The `BENCHMARK.json` document this catalogue describes.
pub fn benchmark_json() -> Json {
    let mut doc = Json::obj();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "olapbench/Cargo.toml",
        "--",
    ];
    doc.set(
        "command",
        command.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
    );
    doc.set("paths", vec![Json::from("olapbench")]);
    doc.set("run_seconds", RUN_SECONDS);
    let workloads = NAMES
        .iter()
        .zip(WORKLOAD_WHY)
        .map(|(name, why)| {
            let mut w = Json::obj();
            w.set("name", *name).set("why", why);
            w
        })
        .collect::<Vec<_>>();
    doc.set("workloads", workloads);
    let row = |d: &MetricDef| {
        let mut o = Json::obj();
        o.set("name", d.name.as_str())
            .set("unit", d.unit)
            .set("better", d.better.word());
        if let Some(bound) = d.bound {
            o.set("bound", bound);
        }
        o
    };
    doc.set(
        "end_to_end",
        end_to_end().iter().map(row).collect::<Vec<_>>(),
    );
    doc.set("per_layer", per_layer().iter().map(row).collect::<Vec<_>>());
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The parity test: the names the harness emits are the names the
    /// checked-in `BENCHMARK.json` lists, within the contract's limits.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is checked in");
        assert!(text.len() <= 64 * 1024);
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect("key present")
                .items()
                .iter()
                .map(|o| {
                    o.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), NAMES.map(String::from));
        let emitted = |defs: Vec<MetricDef>| defs.into_iter().map(|d| d.name).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), emitted(end_to_end()));
        assert_eq!(names("per_layer"), emitted(per_layer()));
        assert!((2..=8).contains(&NAMES.len()));
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        let mut seen = HashSet::new();
        for name in NAMES
            .map(String::from)
            .into_iter()
            .chain(emitted(end_to_end()))
            .chain(emitted(per_layer()))
        {
            assert!(well_formed(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        // The file is the catalogue, verbatim.
        assert_eq!(doc, benchmark_json());
        for d in end_to_end() {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for (why, name) in WORKLOAD_WHY.iter().zip(NAMES) {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for d in end_to_end().iter().chain(&per_layer()) {
            assert!(d.unit.len() <= 16, "{}", d.name);
        }
    }
}
