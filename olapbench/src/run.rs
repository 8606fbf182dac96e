//! One run of one workload: set-up, the closed measurement loop, the
//! verification pass, and the assembly of the metrics the run reports.
//!
//! An untraced run (`--trace 0`) produces the end-to-end metrics. A traced
//! run (`--trace 1`) splits `--seconds` three ways — the same loop
//! untraced, the loop again with benchmark-side spans and layer replays,
//! and the layer batteries on the workload's own world — and produces the
//! per-layer metrics.

use crate::bench::{Budget, Metrics};
use crate::json::Json;
use crate::metrics::{self, served_kinds};
use crate::ops::{Kind, Recorder};
use crate::spans::{Layer, Tracer};
use crate::stats::{geomean, median, median_us, percentile};
use crate::workloads::{self, Scale, Workload};
use crate::{advisor, catalog, engine, obs, planner, pres, rdf, rewrite, session, world};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Input size.
    pub scale: Scale,
}

/// Latency summary of one operation kind.
#[derive(Debug, Clone)]
pub struct KindRow {
    /// The kind.
    pub kind: Kind,
    /// Samples.
    pub n: usize,
    /// Lower quartile, µs.
    pub p25_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs — only with at least 200 samples.
    pub p95_us: Option<f64>,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The arguments the run was made with.
    pub args: RunArgs,
    /// Operations issued (warm-up and verification included).
    pub attempted: u64,
    /// Operations that errored, panicked or failed the cell check.
    pub failed: u64,
    /// The first failure's description.
    pub first_failure: Option<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Sample count behind each timing metric, by metric name.
    pub samples: Vec<(String, usize)>,
    /// Per-kind latencies of the (untraced part of the) run.
    pub kinds: Vec<KindRow>,
    /// Units of work completed in the timed part.
    pub units: usize,
    /// World size, in triples.
    pub world_triples: usize,
    /// Clients issuing operations.
    pub clients: usize,
    /// Fingerprint of the first unit's answers (every unit's, where units
    /// are identical).
    pub answers_checksum: u64,
    /// The traced phase's span collector.
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        let defs = if self.args.traced {
            metrics::per_layer()
        } else {
            metrics::end_to_end()
        };
        let mut values = Json::obj();
        for d in defs {
            let mut v = Json::obj();
            v.set("value", self.metrics.get(&d.name).unwrap_or(0.0))
                .set("unit", d.unit);
            values.set(&d.name, v);
        }
        let mut line = Json::obj();
        line.set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", values);
        line.render()
    }
}

/// Set-ups per untraced run, `setup_s` being their median: three before the
/// timed loop, and up to eight more after it while they are cheap. A 0.1 s
/// set-up is the noisiest thing the harness times, and the sandbox's slow
/// spells last seconds, so the repetitions are spread over the run.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 8;
const SETUPS_AFTER_BUDGET_S: f64 = 1.5;

/// Runs units until `seconds` have passed (at least one). A panicking unit
/// is one failed operation; the loop goes on with a fresh session.
fn measure(w: &mut dyn Workload, rec: &mut Recorder, seconds: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        unit(w, rec);
        if Instant::now() >= deadline {
            return;
        }
    }
}

fn unit(w: &mut dyn Workload, rec: &mut Recorder) {
    if catch_unwind(AssertUnwindSafe(|| w.unit(rec))).is_err() {
        rec.attempted += 1;
        rec.fail("a unit of work panicked".into());
    }
}

fn kind_rows(rec: &Recorder) -> Vec<KindRow> {
    Kind::ALL
        .into_iter()
        .filter_map(|kind| {
            let nanos = rec.nanos_of(kind);
            let us: Vec<f64> = nanos.iter().map(|&n| n as f64 / 1e3).collect();
            (!us.is_empty()).then(|| KindRow {
                kind,
                n: us.len(),
                p25_us: percentile(&us, 25.0),
                p50_us: median(&us),
                p95_us: (us.len() >= 200).then(|| percentile(&us, 95.0)),
            })
        })
        .collect()
}

/// `VmHWM` of this process, in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload once.
pub fn run(args: RunArgs) -> Result<RunResult, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (known: {})",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn setup(args: &RunArgs) -> Box<dyn Workload> {
    workloads::setup(&args.workload, args.seed, args.scale).expect("workload name was checked")
}

fn run_untraced(args: RunArgs) -> Result<RunResult, String> {
    // Set-up, several times over: world generation, bulk load, query
    // parsing, and one discarded warm-up unit (session open included).
    let mut rec = Recorder::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let timed_setup = |rec: &mut Recorder, setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let mut fresh = setup(&args);
        unit(fresh.as_mut(), rec);
        setup_s.push(t.elapsed().as_secs_f64());
        fresh
    };
    let mut w = timed_setup(&mut rec, &mut setup_s);
    let first_answers = rec.answers_checksum();
    for _ in 1..SETUPS_BEFORE {
        drop(w);
        w = timed_setup(&mut rec, &mut setup_s);
    }

    rec.keep = true;
    measure(w.as_mut(), &mut rec, args.seconds);
    let rss = rss_peak_mb();
    rec.keep = false;
    w.verify(&mut rec);
    let after = Instant::now();
    let typical = median(&setup_s);
    for _ in 0..SETUPS_AFTER {
        if after.elapsed().as_secs_f64() + typical > SETUPS_AFTER_BUDGET_S {
            break;
        }
        drop(timed_setup(&mut rec, &mut setup_s));
    }

    let unit_ms: Vec<f64> = rec.units.iter().map(|&n| n as f64 / 1e6).collect();
    let timed_s: f64 = rec.units.iter().sum::<u64>() as f64 / 1e9;
    let kinds = kind_rows(&rec);
    let kind_quartiles: Vec<f64> = kinds.iter().map(|k| k.p25_us).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s));
    m.put("ops_per_s", rec.samples.len() as f64 / timed_s.max(1e-9));
    m.put("unit_p25_ms", percentile(&unit_ms, 25.0));
    m.put("unit_p50_ms", median(&unit_ms));
    m.put("kind_p25_geomean_us", geomean(&kind_quartiles));
    m.put("catalog_peak_bytes", rec.catalog_peak_bytes as f64);
    m.put("rss_peak_mb", rss);
    let samples = vec![
        ("setup_s".to_string(), setup_s.len()),
        ("ops_per_s".to_string(), rec.samples.len()),
        ("unit_p25_ms".to_string(), unit_ms.len()),
        ("unit_p50_ms".to_string(), unit_ms.len()),
        ("kind_p25_geomean_us".to_string(), kinds.len()),
    ];
    let (world, _) = w.world();
    Ok(RunResult {
        attempted: rec.attempted,
        failed: rec.failed,
        first_failure: rec.first_failure.clone(),
        metrics: m,
        samples,
        kinds,
        units: rec.units.len(),
        world_triples: world.len(),
        clients: w.clients(),
        answers_checksum: first_answers,
        tracer: None,
        args,
    })
}

fn run_traced(args: RunArgs) -> Result<RunResult, String> {
    let mut w = setup(&args);
    // One client and identical units in both phases, so counts repeat
    // exactly and the traced and untraced loops are comparable.
    w.make_repeatable();

    // Phase A: the untraced loop — per-kind latencies, catalog counters,
    // and the baseline the tracing overhead is measured against.
    let mut plain = Recorder::default();
    unit(w.as_mut(), &mut plain);
    let first_answers = plain.answers_checksum();
    plain.keep = true;
    let merges_before = rdfcube_obs::global_snapshot().counter("rdfcube_graph_delta_merges_total");
    measure(w.as_mut(), &mut plain, args.seconds * 0.25);
    let merges =
        rdfcube_obs::global_snapshot().counter("rdfcube_graph_delta_merges_total") - merges_before;

    // Phase B: the same loop with a span around every session call and
    // around each layer call replayed for it.
    let mut traced = Recorder::default();
    traced.tracer = Some(Tracer::default());
    unit(w.as_mut(), &mut traced);
    traced.tracer = Some(Tracer::default());
    traced.keep = true;
    measure(w.as_mut(), &mut traced, args.seconds * 0.35);

    // Phase C: the layer batteries, on this workload's world.
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    {
        let (world, cfg) = w.world();
        let share = |part: f64| Budget(Duration::from_secs_f64(args.seconds * 0.4 * part));
        m.extend(rdf::battery(world, cfg, share(0.15)));
        m.extend(engine::battery(world, share(0.15)));
        m.extend(pres::battery(world, share(0.08)));
        m.extend(rewrite::battery(world, share(0.2), &mut failures));
        m.extend(catalog::battery(world, share(0.08)));
        m.extend(obs::battery(world, share(0.06)));
        // The batteries that serve whole scripts judge decisions (planner
        // picks, plane overhead, advisor selection), not data volume: past
        // 200k triples they run on the nominal 100k world of the same seed,
        // or one script would outlast the run.
        let nominal = (world.len() > 200_000).then(|| {
            let cfg = world::world_config(args.scale.triples(100_000), args.seed);
            (world::build_world(&cfg), cfg)
        });
        let (world, cfg) = nominal.as_ref().map_or((world, cfg), |(g, c)| (g, c));
        m.extend(planner::battery(world, share(0.2)));
        m.put(
            "shared.vs_session_ratio",
            session::shared_vs_session_ratio(world, share(0.08)),
        );
        m.extend(advisor::battery(world, cfg, args.seed));
    }

    plain.keep = false;
    w.verify(&mut plain);
    for f in failures {
        plain.attempted += 1;
        plain.fail(f);
    }

    let sessions = plain.counters.sessions.max(1) as f64;
    let c = plain.counters;
    m.put("rdf.delta_merges", merges as f64 / sessions);
    for kind in served_kinds() {
        m.put(
            format!("session.{}_p50_us", kind.name()),
            median_us(&plain.nanos_of(kind)),
        );
        let remainder = traced.overhead.get(&kind).map_or(&[][..], Vec::as_slice);
        m.put(
            format!("session.overhead_us.{}", kind.name()),
            median_us(remainder),
        );
    }
    let insert_ns: u64 = plain.nanos_of(Kind::Insert).iter().sum();
    m.put(
        "session.insert_ktriples_per_s",
        plain.inserted_triples as f64 * 1e6 / insert_ns.max(1) as f64,
    );
    let all_us: Vec<f64> = plain.samples.iter().map(|s| s.1 as f64 / 1e3).collect();
    m.put("session.op_p95_us", percentile(&all_us, 95.0));
    m.put(
        "catalog.hit_share",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
    m.put("catalog.evictions", c.evictions as f64 / sessions);
    m.put("catalog.rehydrations", c.rehydrations as f64 / sessions);
    m.put("catalog.refreshes", c.refreshes as f64 / sessions);
    m.put("catalog.entries", c.entries as f64 / sessions);
    m.put("catalog.resident_bytes", c.resident_bytes as f64 / sessions);

    // Tracing overhead: operations per second of summed operation time,
    // with and without the replays running between operations.
    let rate = |rec: &Recorder| {
        let ns: u64 = rec.samples.iter().map(|s| s.1).sum();
        rec.samples.len() as f64 * 1e9 / ns.max(1) as f64
    };
    m.put(
        "trace.overhead_share",
        1.0 - rate(&traced) / rate(&plain).max(1e-9),
    );
    let tracer = traced.tracer.take().unwrap_or_default();
    for layer in Layer::ALL {
        m.put(format!("share.{}", layer.name()), tracer.share(layer));
    }
    m.put("share.unattributed", tracer.unattributed_share());

    let (world, _) = w.world();
    Ok(RunResult {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        first_failure: plain.first_failure.clone().or(traced.first_failure.clone()),
        metrics: m,
        samples: vec![
            ("untraced ops".to_string(), plain.samples.len()),
            ("traced ops".to_string(), traced.samples.len()),
        ],
        kinds: kind_rows(&plain),
        units: plain.units.len(),
        world_triples: world.len(),
        clients: w.clients(),
        answers_checksum: first_answers,
        tracer: Some(tracer),
        args,
    })
}
