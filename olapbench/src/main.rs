//! `olapbench` — the repo's benchmark: served-path OLAP latency on four
//! workloads, with an outside-in per-layer trace.
//!
//! ```text
//! olapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! olapbench --all [--seed n] [--seconds s] [--traced] [--repeats k] [--out file]
//! olapbench --smoke
//! olapbench compare A.json B.json [--bench BENCHMARK.json]
//! olapbench describe
//! ```
//!
//! The first form is the contract `BENCHMARK.json` describes: it runs one
//! workload once and prints, as the last line of its standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this package for the metric catalogue.

#![warn(missing_docs)]

mod advisor;
mod bench;
mod catalog;
mod compare;
mod engine;
mod json;
mod metrics;
mod obs;
mod ops;
mod planner;
mod pres;
mod rdf;
mod report;
mod rewrite;
mod run;
mod session;
mod spans;
mod stats;
mod workloads;
mod world;

use run::{run, RunArgs};
use std::process::ExitCode;
use workloads::Scale;

/// Cores the process may use; every thread count in the harness is bounded
/// by it and it is recorded with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parsed command line of the run modes.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    traced: bool,
    seed: u64,
    seconds: f64,
    repeats: usize,
    out: Option<String>,
    /// Set by a parent `olapbench`: end with the run record, not the
    /// contract's result line.
    emit_record: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        smoke: false,
        traced: false,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        repeats: 1,
        out: None,
        emit_record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: '{v}' is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a whole number"))?;
            }
            "--seconds" => cli.seconds = number(value()?)?.clamp(0.05, 600.0),
            "--trace" => {
                cli.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--traced" => cli.traced = true,
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--repeats" => cli.repeats = (number(value()?)? as usize).clamp(1, 100),
            "--out" => cli.out = Some(value()?.to_string()),
            "--emit-record" => cli.emit_record = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(cli.all || cli.smoke) && cli.workload.is_none() {
        return Err("name a workload with --workload, or use --all / --smoke".into());
    }
    Ok(cli)
}

/// One workload, once, in this process. The last line printed is the
/// contract's result line — or, for a parent `olapbench` collecting runs,
/// the full run record.
fn run_single(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let result = run(RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: if cli.smoke { 0.3 } else { cli.seconds },
        traced: cli.traced,
        scale: if cli.smoke { Scale::Smoke } else { Scale::Full },
    })?;
    report::print_run(&result);
    if let (Some(tracer), false) = (&result.tracer, cli.smoke) {
        let path = format!("olapbench-trace-{workload}.json");
        std::fs::write(&path, tracer.to_json(workload).pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  spans written to {path}");
    }
    if cli.emit_record {
        println!("{}", report::run_record(&result).render());
    } else {
        println!("{}", result.result_line());
    }
    Ok(ExitCode::SUCCESS)
}

/// `--all`, `--smoke` and `--repeats`: every run is a child process of its
/// own, exactly as the benchmark driver makes them, so one run's allocator
/// state and memory peak cannot leak into the next. The child's report is
/// passed through; its last line is the run record.
fn run_many(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    // Untraced first, for every workload; the traced pass repeats them.
    let passes: &[bool] = if cli.traced { &[false, true] } else { &[false] };
    let mut file = report::ResultsFile::new(cli.seed);
    let mut all_correct = true;
    for &traced in passes {
        for name in &names {
            let mut records = Vec::new();
            for rep in 0..cli.repeats {
                println!("-- {name}: run {}/{}", rep + 1, cli.repeats);
                let mut child = std::process::Command::new(&exe);
                child
                    .args(["--workload", name, "--emit-record"])
                    .args(["--seed", &cli.seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if cli.smoke {
                    child.arg("--smoke");
                }
                let out = child
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start a run: {e}"))?;
                let text = String::from_utf8_lossy(&out.stdout);
                let (report, record) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
                println!("{report}");
                if !out.status.success() {
                    return Err(format!("the {name} run failed: {}", out.status));
                }
                let record = json::parse(record).map_err(|e| format!("{name}: run record: {e}"))?;
                all_correct &= record.get("failed").and_then(json::Json::as_f64) == Some(0.0);
                records.push(record);
            }
            if cli.repeats > 1 {
                report::print_spread(name, &records);
            }
            file.add(name, traced, records);
        }
    }
    if !cli.smoke || cli.out.is_some() {
        let path = cli.out.as_deref().unwrap_or("olapbench-results.json");
        std::fs::write(path, file.finish().pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("results written to {path}");
    }
    if cli.smoke {
        println!("smoke: {}", if all_correct { "ok" } else { "FAILED" });
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_modes(cli: Cli) -> Result<ExitCode, String> {
    match &cli.workload {
        Some(workload) if cli.repeats == 1 && !cli.all => run_single(&cli, workload),
        _ => run_many(&cli),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("describe") => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_cli(&args).and_then(run_modes),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("olapbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact-count metrics read the product's process-global registry,
    /// so tests that run workloads take turns.
    static GLOBAL_REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn registry_turn() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_REGISTRY
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "cold-scratch",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("cold-scratch"));
        assert_eq!((c.seed, c.seconds, c.traced), (7, 12.0, true));
        assert!(cli(&["--workload"]).is_err());
        assert!(cli(&["--trace", "2", "--all"]).is_err());
        assert!(cli(&["--seed", "x", "--all"]).is_err());
        assert!(cli(&["--seconds", "nan", "--all"]).is_err());
        assert!(cli(&[]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }

    /// The issue's smoke bar: all four workloads at ~5k triples, untraced
    /// and traced, with no failed operation and every metric present.
    #[test]
    fn smoke_runs_every_workload_without_failures() {
        let _turn = registry_turn();
        for name in workloads::NAMES {
            for traced in [false, true] {
                let result = run(RunArgs {
                    workload: name.to_string(),
                    seed: 3,
                    seconds: 0.2,
                    traced,
                    scale: Scale::Smoke,
                })
                .unwrap();
                assert_eq!(
                    result.failed, 0,
                    "{name} traced={traced}: {:?}",
                    result.first_failure
                );
                assert!(result.attempted > 0);
                let defs = if traced {
                    metrics::per_layer()
                } else {
                    metrics::end_to_end()
                };
                for d in defs {
                    let v = result.metrics.get(&d.name);
                    assert!(v.is_some(), "{name}: {} missing", d.name);
                    if !traced {
                        assert!(v.unwrap() > 0.0, "{name}: {} is 0", d.name);
                    }
                }
                let line = json::parse(&result.result_line()).unwrap();
                let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
        assert!(run(RunArgs {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.1,
            traced: false,
            scale: Scale::Smoke,
        })
        .is_err());
    }

    /// Exact-count metrics repeat for one seed, and move with the world.
    #[test]
    fn exact_counts_repeat_per_seed() {
        let _turn = registry_turn();
        let counts = |workload: &str, seed: u64| {
            let r = run(RunArgs {
                workload: workload.into(),
                seed,
                seconds: 0.2,
                traced: true,
                scale: Scale::Smoke,
            })
            .unwrap();
            let exact = [
                "engine.bgp_steps",
                "pres.rows",
                "rdf.delta_merges",
                "catalog.evictions",
                "catalog.entries",
            ]
            .map(|name| r.metrics.get(name).unwrap());
            (exact, r.answers_checksum, r.world_triples)
        };
        for workload in ["ingest-serve", "dashboard-zipf"] {
            let (a, b, c) = (
                counts(workload, 5),
                counts(workload, 5),
                counts(workload, 6),
            );
            assert_eq!(a, b, "{workload}: one seed, one set of counts");
            assert_ne!(a.1, c.1, "{workload}: another seed answers other cells");
            // Counts that depend only on the query shapes stay put...
            assert_eq!(a.0[0], c.0[0], "bgp_steps is a property of the queries");
            // ...and those that depend on the data move with the world.
            assert_ne!((a.0[1], a.2), (c.0[1], c.2), "pres.rows follows the world");
        }
    }
}
