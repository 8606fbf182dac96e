//! The four workloads. Each is a closed loop of *units of work*, and every
//! unit opens a fresh session over the same seeded world, so a run is a
//! stationary sequence of identical experiments no matter how many units
//! fit into `--seconds`: a faster build completes more units, it does not
//! measure a different (bigger, warmer, fuller) system.

pub mod cold_scratch;
pub mod dashboard_zipf;
pub mod ingest_serve;
pub mod olap_session;

use crate::ops::Recorder;
use rdfcube_core::{CubeCatalog, OlapSession};
use rdfcube_datagen::BloggerConfig;
use rdfcube_rdf::Graph;

/// Workload names, in report order — the names `BENCHMARK.json` lists.
pub const NAMES: [&str; 4] = [
    "olap-session",
    "cold-scratch",
    "dashboard-zipf",
    "ingest-serve",
];

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the issue fixes: 100k triples (1M for `cold-scratch`).
    Full,
    /// About 5k triples everywhere: `--smoke` and the unit tests.
    Smoke,
}

impl Scale {
    /// Triples of the world a workload of nominal size `full` runs on.
    pub fn triples(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => 5_000,
        }
    }
}

/// One workload, set up: the world is generated and loaded, the queries are
/// parsed, nothing has been served yet.
pub trait Workload {
    /// Runs one unit of work on a fresh session, recording every operation.
    fn unit(&mut self, rec: &mut Recorder);

    /// The untimed verification pass: runs one more unit and ties every
    /// distinct answer to `rewrite::from_scratch` on its target query.
    fn verify(&mut self, rec: &mut Recorder);

    /// The world the workload serves, for the layer batteries.
    fn world(&self) -> (&Graph, &BloggerConfig);

    /// Clients issuing operations (for the reproducibility record).
    fn clients(&self) -> usize {
        1
    }

    /// Makes every unit an identical single-client experiment, for the
    /// traced run, whose counts must repeat exactly. A no-op for workloads
    /// that already are.
    fn make_repeatable(&mut self) {}
}

/// Sets a workload up from `--seed`.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "olap-session" => Box::new(olap_session::OlapSessionWorkload::setup(seed, scale)),
        "cold-scratch" => Box::new(cold_scratch::ColdScratch::setup(seed, scale)),
        "dashboard-zipf" => Box::new(dashboard_zipf::DashboardZipf::setup(seed, scale)),
        "ingest-serve" => Box::new(ingest_serve::IngestServe::setup(seed, scale)),
        _ => return None,
    })
}

/// Bookkeeping every single-client unit shares: opens the traced phase's
/// mirror catalog, and afterwards folds the session's catalog gauges and
/// the unit's summed operation time into the recorder.
pub struct UnitScope {
    first_sample: usize,
}

impl UnitScope {
    /// Call before the unit's first operation.
    pub fn open(rec: &mut Recorder) -> UnitScope {
        if rec.tracer.is_some() {
            rec.scratch = Some(CubeCatalog::new());
        }
        UnitScope {
            first_sample: rec.samples.len(),
        }
    }

    /// Call after the unit's last operation, with the session it ran on.
    pub fn close(self, rec: &mut Recorder, session: &OlapSession) {
        let unit_ns = rec.samples[self.first_sample..].iter().map(|s| s.1).sum();
        fold_catalog(rec, session.catalog(), unit_ns);
    }
}

/// Folds one finished session's catalog into the recorder.
pub fn fold_catalog(rec: &mut Recorder, catalog: &CubeCatalog, unit_ns: u64) {
    rec.catalog_peak_bytes = rec
        .catalog_peak_bytes
        .max(catalog.peak_resident_bytes() as u64);
    if !rec.keep {
        return;
    }
    rec.units.push(unit_ns);
    let c = catalog.counters();
    let sums = &mut rec.counters;
    sums.sessions += 1;
    sums.hits += c.hits;
    sums.misses += c.misses;
    sums.evictions += c.evictions;
    sums.rehydrations += c.rehydrations;
    sums.refreshes += c.refreshes;
    sums.entries += catalog.len() as u64;
    sums.resident_bytes += catalog.resident_bytes() as u64;
}

/// The verification pass's core: every `(slot, handle)` a unit produced
/// must hold exactly the cells `rewrite::from_scratch` computes for the
/// handle's own query on the session's instance, and the slot's first
/// recorded answer must have had those cells too.
pub fn verify_against_scratch(
    rec: &mut Recorder,
    session: &OlapSession,
    handles: &[(u64, rdfcube_core::CubeHandle)],
) {
    for &(slot, h) in handles {
        let what = format!("slot {slot:#x}");
        let Some(cube) = session.try_cube(h) else {
            rec.fail(format!("{what}: answer is not resident for verification"));
            continue;
        };
        match rdfcube_core::rewrite::from_scratch(cube.query(), session.instance()) {
            Ok(reference) => {
                if !cube.answer().same_cells(&reference) {
                    rec.fail(format!("{what}: cells differ from from-scratch"));
                }
                rec.verify(slot, &what, &reference);
            }
            Err(e) => rec.fail(format!("{what}: from-scratch failed: {e}")),
        }
    }
}
