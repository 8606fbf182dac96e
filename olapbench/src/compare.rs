//! `olapbench compare A.json B.json`: one row per workload × end-to-end
//! metric with both medians, the ratio and its base, the bound from
//! `BENCHMARK.json`, and a verdict.

use crate::json::{self, Json};
use crate::metrics::Better;
use crate::stats::{median, spread};
use std::process::ExitCode;

/// How one metric on one workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// medians cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. A regression is reported even when the spread is
/// wide: `unresolved` never hides a median that moved past the bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of `metric` over a results file's untraced runs of `workload`.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(arg.as_str());
        }
    }
    let [a_path, b_path] = files[..] else {
        return Err("usage: olapbench compare A.json B.json [--bench BENCHMARK.json]".into());
    };
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(&bench)?);

    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "A iqr", "B iqr"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    let mut rows = 0;
    for w in bench.get("workloads").map_or(&[][..], Json::items) {
        let Some(workload) = w.get("name").and_then(Json::as_str) else {
            continue;
        };
        for m in bench.get("end_to_end").map_or(&[][..], Json::items) {
            let (Some(name), Some(better), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better")
                    .and_then(Json::as_str)
                    .and_then(Better::parse),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                return Err("BENCHMARK.json: an end_to_end entry is malformed".into());
            };
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {name:<20} (no runs on one side)");
                continue;
            }
            let verdict = judge(&va, &vb, better, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            rows += 1;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{workload:<16} {name:<20} {ma:>14.4} {mb:>14.4} {:>9.4} {:>6.1}% {:>7.2}% {:>7.2}%  {}",
                mb / ma,
                100.0 * bound,
                100.0 * spread(&va),
                100.0 * spread(&vb),
                verdict.word()
            );
        }
    }
    println!(
        "{rows} rows (ratio base: A = {a_path}); {regressed} regressed, {unresolved} unresolved"
    );
    if rows == 0 {
        return Err("nothing to compare: the files share no workload with runs".into());
    }
    Ok(if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [111.0, 112.0, 110.0, 111.5, 110.5];
        let noisy = [100.0, 130.0, 80.0, 120.0, 85.0];
        assert_eq!(judge(&steady, &steady, Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.05),
            Verdict::Regressed
        );
        // Faster is never a regression; for a rate, lower is.
        assert_eq!(judge(&slower, &steady, Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.25), Verdict::Ok);
    }

    #[test]
    fn reads_runs_out_of_a_results_document() {
        let doc = json::parse(
            r#"{"workloads": {"w": {"runs": [
                {"metrics": {"ops_per_s": 10}}, {"metrics": {"ops_per_s": 12}}]}}}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "w", "ops_per_s"), [10.0, 12.0]);
        assert!(values(&doc, "w", "missing").is_empty());
        assert!(values(&doc, "other", "ops_per_s").is_empty());
    }
}
