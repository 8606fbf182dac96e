//! Benchmark-side spans: the outside-in trace.
//!
//! The program is not modified. For every traced operation the harness
//! records one root span around the session call and one child span around
//! each layer call it *replays* for that operation (signature → plan →
//! rewrite or evaluate → materialize), using the layers' public functions.
//! Replayed children run after (or just before) the session call, so the
//! tree is logical rather than nested in time: a span's **self time** is its
//! duration minus the summed durations of its children, floored at zero.
//! What is left on a root span is time inside the session call that no
//! replay reproduced — reported as `(unattributed)`, never dropped.

use crate::json::Json;
use std::time::Instant;

/// The layers of the stack, named after the harness modules that time them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// CSR store, shards, delta buffer (`rdfcube-rdf`).
    Rdf,
    /// BGP evaluation, relations, aggregation, parsing (`rdfcube-engine`).
    Engine,
    /// `core::pres` — partial results and their γ.
    Pres,
    /// `core::rewrite` — σ_dice, Algorithms 1 and 2, roll-up.
    Rewrite,
    /// `core::cost` + `core::signature` — canonicalisation and costing.
    Planner,
    /// `core::catalog` — materialisation, eviction, rehydration.
    Catalog,
    /// `core::advisor` — workload-driven view selection.
    Advisor,
    /// `core::session` / `core::shared` — the two serving planes.
    Session,
}

impl Layer {
    /// Every layer, in stack order (bottom first).
    pub const ALL: [Layer; 8] = [
        Layer::Rdf,
        Layer::Engine,
        Layer::Pres,
        Layer::Rewrite,
        Layer::Planner,
        Layer::Catalog,
        Layer::Advisor,
        Layer::Session,
    ];

    /// The layer's name in metric names and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rdf => "rdf",
            Layer::Engine => "engine",
            Layer::Pres => "pres",
            Layer::Rewrite => "rewrite",
            Layer::Planner => "planner",
            Layer::Catalog => "catalog",
            Layer::Advisor => "advisor",
            Layer::Session => "session",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
    /// Index of this span in the tracer's arena.
    pub id: usize,
    /// Arena index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// The layer whose public function the span brackets.
    pub layer: Layer,
    /// `layer.function`, e.g. `rewrite.drill_out_from_pres`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Rows entering the call (0 when not meaningful).
    pub rows_in: u64,
    /// Rows leaving the call.
    pub rows_out: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept verbatim for the trace file; aggregation covers every span.
const KEPT_SPANS: usize = 100_000;

/// In-memory span collector for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans of the operation currently being recorded.
    current: Vec<Span>,
    next_op: u64,
    /// Sums over every finished operation.
    all: Totals,
    /// Sums over the operations that were not catalog misses: what the
    /// rewriting path costs once the cubes exist.
    derived: Totals,
    dropped: u64,
}

/// Self-time sums over a set of operations.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    /// Self time per layer.
    self_ns: [u64; Layer::ALL.len()],
    /// Root-span remainders.
    unattributed_ns: u64,
    /// Root-span durations.
    root_ns: u64,
}

impl Totals {
    fn add(&mut self, layer: Option<Layer>, self_ns: u64, duration: u64) {
        match layer {
            Some(layer) => self.self_ns[layer as usize] += self_ns,
            None => {
                self.unattributed_ns += self_ns;
                self.root_ns += duration;
            }
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            current: Vec::new(),
            next_op: 0,
            all: Totals::default(),
            derived: Totals::default(),
            dropped: 0,
        }
    }
}

impl Tracer {
    /// Times `f` as a span of the current operation. `parent` is the index
    /// (within this operation) of the span that caused it; the first span
    /// recorded with `parent == None` is the operation's root.
    pub fn span<T>(
        &mut self,
        parent: Option<usize>,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        (out, self.record(parent, layer, name, start_ns, end_ns))
    }

    /// Adds a span with explicit times to the current operation.
    fn record(
        &mut self,
        parent: Option<usize>,
        layer: Layer,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.current.len();
        self.current.push(Span {
            op_id: self.next_op,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
            rows_in: 0,
            rows_out: 0,
        });
        id
    }

    /// Attaches row counts to a span of the current operation.
    pub fn rows(&mut self, span: usize, rows_in: usize, rows_out: usize) {
        self.current[span].rows_in = rows_in as u64;
        self.current[span].rows_out = rows_out as u64;
    }

    /// Duration of a span of the current operation, in nanoseconds.
    pub fn duration(&self, span: usize) -> u64 {
        self.current[span].duration()
    }

    /// Closes the current operation: derives self times, folds them into
    /// the per-layer totals, and returns the root's remainder (the time of
    /// the session call that no replayed layer call accounts for).
    ///
    /// `root` is the index of the span around the session call. Spans
    /// recorded with `parent == None` other than `root` (e.g. the planner
    /// replay that must run *before* the call) are adopted by the root.
    /// `miss` marks a catalog miss (a register): such operations are left
    /// out of the [`Self::derived_share`] sums.
    pub fn finish_op(&mut self, root: usize, miss: bool) -> u64 {
        let n = self.current.len();
        let mut child_ns = vec![0u64; n];
        for i in 0..n {
            if i == root {
                continue;
            }
            let parent = self.current[i].parent.unwrap_or(root);
            self.current[i].parent = Some(parent);
            child_ns[parent] += self.current[i].duration();
        }
        let mut remainder = 0;
        for (i, covered) in child_ns.iter().enumerate() {
            let s = &self.current[i];
            let self_ns = s.duration().saturating_sub(*covered);
            // A root has no layer of its own: its remainder is unattributed.
            let layer = (i != root).then_some(s.layer);
            if i == root {
                remainder = self_ns;
            }
            self.all.add(layer, self_ns, s.duration());
            if !miss {
                self.derived.add(layer, self_ns, s.duration());
            }
        }
        let base = self.spans.len();
        for mut s in self.current.drain(..) {
            if base + s.id < KEPT_SPANS {
                s.parent = s.parent.map(|p| base + p);
                s.id += base;
                self.spans.push(s);
            } else {
                self.dropped += 1;
            }
        }
        self.next_op += 1;
        remainder
    }

    /// Share of the summed root time that is `layer`'s self time.
    pub fn share(&self, layer: Layer) -> f64 {
        ratio(self.all.self_ns[layer as usize], self.all.root_ns)
    }

    /// [`Self::share`] over the operations that were not catalog misses,
    /// and the share of all traced time those operations make up.
    pub fn derived_share(&self, layer: Layer) -> f64 {
        ratio(self.derived.self_ns[layer as usize], self.derived.root_ns)
    }

    /// Share of the traced time spent in operations that were not misses.
    pub fn derived_weight(&self) -> f64 {
        ratio(self.derived.root_ns, self.all.root_ns)
    }

    /// Share of the summed root time no replay accounts for.
    pub fn unattributed_share(&self) -> f64 {
        ratio(self.all.unattributed_ns, self.all.root_ns)
    }

    /// Share of the summed root time by which replays *exceed* the roots
    /// (replays slower than the in-situ calls); 0 in the usual case.
    pub fn replay_excess_share(&self) -> f64 {
        let attributed: u64 = self.all.self_ns.iter().sum();
        ratio(
            (attributed + self.all.unattributed_ns).saturating_sub(self.all.root_ns),
            self.all.root_ns,
        )
    }

    /// Number of operations traced.
    pub fn ops(&self) -> u64 {
        self.next_op
    }

    /// The trace file: every kept span plus the per-layer summary.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.set("op_id", s.op_id)
                    .set("id", s.id)
                    .set("parent", s.parent.map_or(Json::Null, Json::from))
                    .set("layer", s.layer.name())
                    .set("name", s.name)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("rows_in", s.rows_in)
                    .set("rows_out", s.rows_out);
                o
            })
            .collect();
        let mut shares = Json::obj();
        for layer in Layer::ALL {
            shares.set(layer.name(), self.share(layer));
        }
        shares.set("(unattributed)", self.unattributed_share());
        let mut doc = Json::obj();
        doc.set("workload", workload)
            .set("ops", self.next_op)
            .set("root_ns", self.all.root_ns)
            .set("self_time_share", shares)
            .set("spans_dropped_over_cap", self.dropped)
            .set("spans", spans);
        doc
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_remainder_is_unattributed() {
        const MS: u64 = 1_000_000;
        let mut t = Tracer::default();
        // A planner replay that ran before the call is adopted by the root.
        t.record(None, Layer::Planner, "planner.plan", 0, 2 * MS);
        let root = t.record(None, Layer::Session, "session.dice", 2 * MS, 12 * MS);
        let pres = t.record(Some(root), Layer::Pres, "pres.compute", 12 * MS, 16 * MS);
        t.record(
            Some(pres),
            Layer::Engine,
            "engine.evaluate",
            16 * MS,
            19 * MS,
        );
        // root 10 ms − (plan 2 + pres 4) = 4 ms unattributed.
        assert_eq!(t.finish_op(root, false), 4 * MS);
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(near(t.share(Layer::Engine), 0.3));
        assert!(near(t.share(Layer::Pres), 0.1));
        assert!(near(t.share(Layer::Planner), 0.2));
        assert!(near(t.unattributed_share(), 0.4));
        assert!(near(t.derived_weight(), 1.0));
        assert_eq!(t.replay_excess_share(), 0.0);

        // A miss counts in the overall shares, not in the derived ones; a
        // replay longer than its call shows as excess, not as negative time.
        let root = t.record(None, Layer::Session, "session.register", 20 * MS, 30 * MS);
        t.record(Some(root), Layer::Pres, "pres.compute", 30 * MS, 42 * MS);
        assert_eq!(t.finish_op(root, true), 0);
        assert!(near(t.derived_weight(), 0.5));
        assert!(near(t.derived_share(Layer::Pres), 0.1));
        assert!(near(t.share(Layer::Pres), (1.0 + 12.0) / 20.0));
        assert!(near(t.replay_excess_share(), 2.0 / 20.0));
        assert_eq!(t.ops(), 2);

        let doc = t.to_json("w");
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 6);
        // Parents were rebased to arena indices and the adopted span points
        // at its root.
        assert_eq!(spans[0].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(spans[1].get("parent"), Some(&Json::Null));
        assert_eq!(spans[5].get("parent").and_then(Json::as_f64), Some(4.0));
    }
}
