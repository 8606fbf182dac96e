//! Layer `advisor`: workload-driven view selection, timed through
//! `SharedSession::advise_if_stale` inside one single-client dashboard
//! epoch — the same request stream `dashboard-zipf` serves — on whatever
//! world the run is over.

use crate::bench::Metrics;
use crate::ops::Recorder;
use crate::stats::median;
use crate::workloads::dashboard_zipf::DashboardZipf;
use crate::workloads::Workload;
use rdfcube_datagen::BloggerConfig;
use rdfcube_rdf::Graph;

/// The advisor battery on `world`: one epoch, one client.
pub fn battery(world: &Graph, cfg: &BloggerConfig, seed: u64) -> Metrics {
    let mut m = Metrics::default();
    let mut epoch = DashboardZipf::over(world.clone(), cfg.clone(), seed, 1);
    let mut rec = Recorder::keeping(true);
    epoch.unit(&mut rec);
    let runs = &rec.advise_runs;
    let of = |f: fn(&crate::ops::AdviseRun) -> u64| -> Vec<f64> {
        runs.iter().map(|r| f(r) as f64).collect()
    };
    m.put("advisor.advise_ms", median(&of(|r| r.nanos)) / 1e6);
    // What the epoch's advisor runs materialised, in total.
    m.put("advisor.selected", of(|r| r.selected).iter().sum());
    m.put(
        "advisor.materialized_bytes",
        of(|r| r.materialized_bytes).iter().sum(),
    );
    // Fresh dices are derivable only from an unrestricted ancestor, which
    // only the advisor materialises: their hit share is its pay-off.
    m.put(
        "advisor.fresh_hit_share",
        rec.fresh.1 as f64 / rec.fresh.0.max(1) as f64,
    );
    m
}
