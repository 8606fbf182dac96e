//! # rdfcube-obs — query-plane telemetry
//!
//! The observability layer for the rdfcube workspace, in two halves:
//!
//! * **Metrics** ([`registry`]) — a lock-free [`Registry`] of named
//!   atomic [`Counter`]s, [`Gauge`]s and log₂-bucketed [`Histogram`]s.
//!   Increments and snapshots never take a lock (registration is the one
//!   mutex-guarded cold path); snapshots export as Prometheus text or
//!   JSON. Each OLAP session's catalog owns a registry; process-wide
//!   storage/engine counters live in the global [`ObsSink`].
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

pub mod registry;
pub mod trace;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricValue, Registry, Snapshot,
    SnapshotValue, HISTOGRAM_BUCKETS, REGISTRY_CAPACITY,
};
pub use trace::{fmt_nanos, span, trace_begin, trace_end, QueryTrace, Span, SpanNode};

use std::sync::OnceLock;

/// Cheap handles to the process-global metric sinks the storage and
/// engine layers increment on their hot paths. All fields are plain
/// atomic-cell handles — incrementing is a relaxed `fetch_add`, and the
/// backing [`Registry`] can be snapshotted at any time via
/// [`ObsSink::snapshot`] or [`global_snapshot`].
#[derive(Debug)]
pub struct ObsSink {
    registry: Registry,
    /// Folds of a shard's pending delta (and any batch riding along) into
    /// its sorted CSR runs — automatic at the threshold, explicit, or part
    /// of a bulk load; one per shard that had rows to fold
    /// (`rdfcube_graph_delta_merges_total`).
    pub delta_merges: Counter,
    /// Triples moved by those folds
    /// (`rdfcube_graph_delta_merge_rows_total`).
    pub delta_merge_rows: Counter,
    /// Pending-delta rows visited by store reads
    /// (`rdfcube_graph_delta_rows_read_total`): a probe over sorted delta
    /// runs visits its matches, not the delta.
    pub delta_rows_read: Counter,
    /// BGP join steps executed (`rdfcube_engine_bgp_steps_total`).
    pub bgp_steps: Counter,
    /// Rows produced by BGP steps (`rdfcube_engine_step_rows_total`).
    pub step_rows: Counter,
    /// Query traces completed (`rdfcube_traces_total`).
    pub traces: Counter,
}

impl ObsSink {
    fn new() -> Self {
        let registry = Registry::new();
        ObsSink {
            delta_merges: registry.counter("rdfcube_graph_delta_merges_total"),
            delta_merge_rows: registry.counter("rdfcube_graph_delta_merge_rows_total"),
            delta_rows_read: registry.counter("rdfcube_graph_delta_rows_read_total"),
            bgp_steps: registry.counter("rdfcube_engine_bgp_steps_total"),
            step_rows: registry.counter("rdfcube_engine_step_rows_total"),
            traces: registry.counter("rdfcube_traces_total"),
            registry,
        }
    }

    /// The registry behind the global counters (for extra registrations).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of the global counters.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

/// The process-global [`ObsSink`], created on first use.
pub fn sink() -> &'static ObsSink {
    static SINK: OnceLock<ObsSink> = OnceLock::new();
    SINK.get_or_init(ObsSink::new)
}

/// Snapshot of the process-global sink's registry.
pub fn global_snapshot() -> Snapshot {
    sink().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_sink_registers_and_counts() {
        let s = sink();
        let before = s.snapshot().counter("rdfcube_engine_bgp_steps_total");
        s.bgp_steps.inc();
        s.bgp_steps.add(2);
        let after = global_snapshot().counter("rdfcube_engine_bgp_steps_total");
        assert_eq!(after - before, 3);
        assert!(global_snapshot()
            .names()
            .any(|n| n == "rdfcube_graph_delta_merges_total"));
    }
}
