//! # rdfcube-obs — query-plane telemetry
//!
//! The observability layer for the rdfcube workspace, in two halves:
//!
//! * **Process counters** — the global [`ObsSink`]: five relaxed
//!   [`AtomicU64`]s the storage and engine layers bump on their hot
//!   paths (delta merges and the rows they move, delta rows read, BGP
//!   steps and the rows they produce). [`global_snapshot`] reads them by
//!   name. A catalog's own hit/miss/eviction counts live in the catalog
//!   (`CubeCatalog::counters`), not here.
//! * **Traces** ([`trace`]) — an opt-in, per-query structured tracer.
//!   [`trace_begin`]/[`trace_end`] bracket a query on the calling
//!   thread; instrumented stages open [`span`] guards that assemble an
//!   arena-backed [`QueryTrace`] span tree recording wall time, row
//!   counts, bytes and per-stage attributes. When no trace is active, a
//!   span site costs one relaxed atomic load and a branch.
//!
//! This crate is dependency-free and sits below every other rdfcube
//! crate; `rdfcube-core` surfaces it as
//! `OlapSession::answer_traced` / `SharedSession::answer_traced` and the
//! `EXPLAIN ANALYZE`-style `explain_analyze` renderer.

pub mod trace;

pub use trace::{fmt_nanos, span, trace_begin, trace_end, QueryTrace, Span, SpanNode};

use std::sync::atomic::{AtomicU64, Ordering};

/// The process-global counters the storage and engine layers increment
/// on their hot paths; each increment is one relaxed `fetch_add`. Read
/// them together, by name, through [`global_snapshot`].
#[derive(Debug)]
pub struct ObsSink {
    /// Folds of a shard's pending delta (and any batch riding along) into
    /// its sorted CSR runs — automatic at the threshold, explicit, or part
    /// of a bulk load; one per shard that had rows to fold
    /// (`rdfcube_graph_delta_merges_total`).
    pub delta_merges: AtomicU64,
    /// Triples moved by those folds
    /// (`rdfcube_graph_delta_merge_rows_total`).
    pub delta_merge_rows: AtomicU64,
    /// Pending-delta rows visited by store reads
    /// (`rdfcube_graph_delta_rows_read_total`): a probe over sorted delta
    /// runs visits its matches, not the delta.
    pub delta_rows_read: AtomicU64,
    /// BGP join steps executed (`rdfcube_engine_bgp_steps_total`).
    pub bgp_steps: AtomicU64,
    /// Rows produced by BGP steps (`rdfcube_engine_step_rows_total`).
    pub step_rows: AtomicU64,
}

static SINK: ObsSink = ObsSink {
    delta_merges: AtomicU64::new(0),
    delta_merge_rows: AtomicU64::new(0),
    delta_rows_read: AtomicU64::new(0),
    bgp_steps: AtomicU64::new(0),
    step_rows: AtomicU64::new(0),
};

/// The process-global [`ObsSink`].
pub fn sink() -> &'static ObsSink {
    &SINK
}

/// The global counters' values at one moment, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    counters: [(&'static str, u64); 5],
}

impl Snapshot {
    /// The value of the counter called `name`; 0 for a name the sink
    /// does not keep.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Reads the process-global counters. Each is loaded on its own, so a
/// snapshot taken while other threads count is not one atomic cut.
pub fn global_snapshot() -> Snapshot {
    let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
    Snapshot {
        counters: [
            ("rdfcube_graph_delta_merges_total", read(&SINK.delta_merges)),
            (
                "rdfcube_graph_delta_merge_rows_total",
                read(&SINK.delta_merge_rows),
            ),
            (
                "rdfcube_graph_delta_rows_read_total",
                read(&SINK.delta_rows_read),
            ),
            ("rdfcube_engine_bgp_steps_total", read(&SINK.bgp_steps)),
            ("rdfcube_engine_step_rows_total", read(&SINK.step_rows)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each of the five names reads back exactly what was added to its
    /// counter, and a name the sink does not keep reads 0 (olapbench's
    /// `engine.shards_skipped_share` reads two such names).
    #[test]
    fn global_sink_registers_and_counts() {
        let s = sink();
        let counters = [
            (&s.delta_merges, "rdfcube_graph_delta_merges_total", 1),
            (
                &s.delta_merge_rows,
                "rdfcube_graph_delta_merge_rows_total",
                2,
            ),
            (&s.delta_rows_read, "rdfcube_graph_delta_rows_read_total", 3),
            (&s.bgp_steps, "rdfcube_engine_bgp_steps_total", 4),
            (&s.step_rows, "rdfcube_engine_step_rows_total", 5),
        ];
        let before = global_snapshot();
        for &(cell, _, n) in &counters {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        let after = global_snapshot();
        for &(_, name, n) in &counters {
            assert_eq!(after.counter(name) - before.counter(name), n, "{name}");
        }
        for name in [
            "rdfcube_engine_shards_skipped_total",
            "rdfcube_engine_shard_probes_total",
        ] {
            assert_eq!(after.counter(name), 0, "{name}");
        }
    }
}
