//! What a run prints for people, and the results file `--all` writes.

use crate::json::Json;
use crate::metrics;
use crate::run::RunResult;
use crate::spans::Layer;
use crate::stats::{median, quartiles, spread};
use std::process::Command;

/// Prints one run: every metric by name with its unit and sample count,
/// the per-kind latencies, and — for a traced run — each layer's share of
/// the traced time with the remainder as an explicit `(unattributed)` line.
pub fn print_run(r: &RunResult) {
    let mode = if r.args.traced { "traced" } else { "untraced" };
    println!(
        "== {} ({mode}, seed {}, {} s): {} triples, {} client(s), {} units",
        r.args.workload, r.args.seed, r.args.seconds, r.world_triples, r.clients, r.units
    );
    let n_of = |name: &str| r.samples.iter().find(|(n, _)| n == name).map(|(_, n)| *n);
    let defs = if r.args.traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for d in &defs {
        let value = r.metrics.get(&d.name).unwrap_or(0.0);
        // Ratios are the numbers a reader compares against 1: two decimals.
        let shown = if matches!(d.unit, "ratio" | "share") {
            format!("{value:.2}")
        } else {
            format!("{value:.4}")
        };
        match n_of(&d.name) {
            Some(n) => println!("  {:<34} {shown:>16} {:<10} n={n}", d.name, d.unit),
            None => println!("  {:<34} {shown:>16} {}", d.name, d.unit),
        }
    }
    if !r.kinds.is_empty() {
        println!("  per kind (served path):");
        for k in &r.kinds {
            let p95 = k
                .p95_us
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
            println!(
                "    {:<10} p25 {:>11.1} us   p50 {:>11.1} us   p95 {p95:>11} us   n={}",
                k.kind.name(),
                k.p25_us,
                k.p50_us,
                k.n
            );
        }
    }
    if let Some(tracer) = &r.tracer {
        println!(
            "  self time by layer, share of {} traced operations:",
            tracer.ops()
        );
        for layer in Layer::ALL {
            println!(
                "    {:<16} {:>6.1} %",
                layer.name(),
                100.0 * tracer.share(layer)
            );
        }
        println!(
            "    {:<16} {:>6.1} %",
            "(unattributed)",
            100.0 * tracer.unattributed_share()
        );
        let upper = [
            Layer::Rewrite,
            Layer::Planner,
            Layer::Session,
            Layer::Catalog,
        ];
        let lower = [Layer::Rdf, Layer::Engine, Layer::Pres];
        let sum = |layers: &[Layer], f: &dyn Fn(Layer) -> f64| -> f64 {
            100.0 * layers.iter().map(|&l| f(l)).sum::<f64>()
        };
        println!(
            "    rdf+engine+pres {:.1} %, rewrite+planner+session+catalog {:.1} % of all operations",
            sum(&lower, &|l| tracer.share(l)),
            sum(&upper, &|l| tracer.share(l)),
        );
        println!(
            "    outside register operations ({:.1} % of the time): rewrite+planner+session+catalog {:.1} %",
            100.0 * tracer.derived_weight(),
            sum(&upper, &|l| tracer.derived_share(l)),
        );
        if tracer.replay_excess_share() > 0.0 {
            println!(
                "    replays exceeded their operations by {:.1} %",
                100.0 * tracer.replay_excess_share()
            );
        }
    }
    println!(
        "  operations: {} attempted, {} failed{}",
        r.attempted,
        r.failed,
        r.first_failure
            .as_deref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );
}

/// The values of one metric over a set of run records.
fn metric_values(records: &[Json], name: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.as_f64())
        .collect()
}

/// Prints median, quartiles and spread of every metric over repeated runs.
pub fn print_spread(workload: &str, records: &[Json]) {
    let Some(first) = records.first().and_then(|r| r.get("metrics")) else {
        return;
    };
    println!(
        "-- {workload} over {} runs: median [q1, q3] spread",
        records.len()
    );
    for (name, _) in first.fields() {
        let values = metric_values(records, name);
        let (q1, q3) = quartiles(&values);
        println!(
            "  {name:<34} {:>14.4} [{q1:.4}, {q3:.4}] {:>6.2} %",
            median(&values),
            100.0 * spread(&values)
        );
    }
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One run as a JSON record: what it was run with, what it did, and every
/// metric it measured. The unit of `--all`'s results file.
pub fn run_record(r: &RunResult) -> Json {
    let mut metrics = Json::obj();
    for (name, value) in &r.metrics.0 {
        metrics.set(name, *value);
    }
    let mut ops = Json::obj();
    let mut kinds = Json::obj();
    for k in &r.kinds {
        ops.set(k.kind.name(), k.n);
        kinds.set(&format!("{}_p50_us", k.kind.name()), k.p50_us);
    }
    let mut run = Json::obj();
    run.set("seconds", r.args.seconds)
        .set("attempted", r.attempted)
        .set("failed", r.failed)
        .set("units", r.units)
        .set("clients", r.clients)
        .set("world_triples", r.world_triples)
        .set("answers_checksum", format!("{:016x}", r.answers_checksum))
        .set("op_counts", ops)
        .set("per_kind", kinds)
        .set("metrics", metrics);
    run
}

/// The JSON document `--all` writes: the reproducibility record plus every
/// run's record, grouped by workload — the input of `olapbench compare`.
pub struct ResultsFile {
    record: Json,
    workloads: Vec<(String, Json)>,
}

impl ResultsFile {
    /// Starts a file; records what the numbers were taken on.
    pub fn new(seed: u64) -> Self {
        let mut record = Json::obj();
        record
            .set("seed", seed)
            .set("git_rev", tool_version("git", &["rev-parse", "HEAD"]))
            .set("rustc", tool_version("rustc", &["-V"]))
            .set("nproc", crate::nproc())
            .set("shards", 1usize)
            .set("eval_threads", rdfcube_engine::eval_threads());
        ResultsFile {
            record,
            workloads: Vec::new(),
        }
    }

    /// Adds the runs of one workload in one mode.
    pub fn add(&mut self, workload: &str, traced: bool, runs: Vec<Json>) {
        let key = if traced { "traced_runs" } else { "runs" };
        match self.workloads.iter_mut().find(|(n, _)| n == workload) {
            Some((_, entry)) => {
                entry.set(key, runs);
            }
            None => {
                let mut entry = Json::obj();
                entry.set(key, runs);
                self.workloads.push((workload.to_string(), entry));
            }
        }
    }

    /// The finished document.
    pub fn finish(self) -> Json {
        let mut doc = Json::obj();
        doc.set("record", self.record);
        doc.set("workloads", Json::Obj(self.workloads));
        doc
    }
}
