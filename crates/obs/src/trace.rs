//! A structured query tracer: an arena-backed span tree recording wall
//! time, row counts and bytes per stage of an answered query.
//!
//! Tracing is **opt-in per query and pay-for-what-you-use**: span sites
//! (`obs::span("…")`) first load one global relaxed atomic — when no
//! trace is active anywhere in the process, that load-plus-branch is the
//! *entire* cost of an instrumented code path. When a trace is active on
//! the current thread, spans append to a thread-local arena
//! ([`Vec<SpanNode>`]) with parent links taken from an open-span stack,
//! so the tree shape falls out of ordinary scoping: a span guard created
//! while another is open becomes its child.
//!
//! Worker threads never touch the collector — parallel stages report
//! per-shard statistics back to the coordinating thread, which attaches
//! them to its own span as attributes.
//!
//! ```
//! let began = rdfcube_obs::trace_begin("answer_query");
//! {
//!     let sp = rdfcube_obs::span("plan");
//!     sp.rows(100, 10);
//!     sp.attr("candidates", 3);
//! } // guard drop records the elapsed time
//! let trace = rdfcube_obs::trace_end().unwrap();
//! assert!(began && trace.spans().len() == 2);
//! println!("{}", trace.render());
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of threads with an active trace collector; span sites bail out
/// on a single relaxed load of this when it is 0.
static ACTIVE_TRACES: AtomicUsize = AtomicUsize::new(0);

/// Distinguishes collectors so a stale [`Span`] guard (kept across a
/// `trace_end`/`trace_begin` pair by misuse) can never write into the
/// wrong trace's arena.
static NEXT_TRACE_GEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

struct Collector {
    generation: u64,
    spans: Vec<SpanNode>,
    /// Indices of currently open spans, root at the bottom.
    stack: Vec<usize>,
    started: Instant,
}

/// One node of a [`QueryTrace`]'s span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Stage name (e.g. `"plan"`, `"bgp_step"`, `"group_aggregate"`).
    pub name: &'static str,
    /// Free-form detail (e.g. the chosen strategy), empty when unset.
    pub detail: String,
    /// Arena index of the parent span; `None` for the root.
    pub parent: Option<usize>,
    /// Wall time spent inside the span.
    pub nanos: u64,
    /// Rows entering the stage.
    pub rows_in: u64,
    /// Rows leaving the stage.
    pub rows_out: u64,
    /// Bytes touched or produced by the stage.
    pub bytes: u64,
    /// Additional named measurements (e.g. `rows_matched`).
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanNode {
    fn new(name: &'static str, parent: Option<usize>) -> Self {
        SpanNode {
            name,
            detail: String::new(),
            parent,
            nanos: 0,
            rows_in: 0,
            rows_out: 0,
            bytes: 0,
            attrs: Vec::new(),
        }
    }

    /// Value of the named attribute, if recorded.
    pub fn attr(&self, name: &str) -> Option<u64> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// RAII guard for one stage: created by [`span`], records its wall time
/// into the current trace when dropped. Guards must be dropped in LIFO
/// order (ordinary lexical scoping guarantees this).
#[derive(Debug)]
pub struct Span {
    /// Arena index in the collector, `usize::MAX` when inert.
    idx: usize,
    generation: u64,
    /// `None` when the span is inert (no active trace on this thread).
    start: Option<Instant>,
}

impl Span {
    const INERT: Span = Span {
        idx: usize::MAX,
        generation: 0,
        start: None,
    };

    /// Whether this span is recording (false on untraced queries).
    /// Use to skip measurement-only work:
    /// `if sp.active() { sp.bytes(cube.approx_bytes() as u64) }`.
    #[inline]
    pub fn active(&self) -> bool {
        self.start.is_some()
    }

    /// Record input/output row counts.
    #[inline]
    pub fn rows(&self, rows_in: u64, rows_out: u64) {
        self.update(|n| {
            n.rows_in = rows_in;
            n.rows_out = rows_out;
        });
    }

    /// Record bytes touched or produced.
    #[inline]
    pub fn bytes(&self, bytes: u64) {
        self.update(|n| n.bytes = bytes);
    }

    /// Attach a named measurement; repeated names accumulate by sum.
    #[inline]
    pub fn attr(&self, name: &'static str, value: u64) {
        self.update(|n| {
            if let Some(slot) = n.attrs.iter_mut().find(|(a, _)| *a == name) {
                slot.1 += value;
            } else {
                n.attrs.push((name, value));
            }
        });
    }

    /// Set the detail string; the closure runs only when the span is
    /// recording, so untraced queries never pay for the formatting.
    #[inline]
    pub fn detail(&self, f: impl FnOnce() -> String) {
        if !self.active() {
            return;
        }
        let detail = f();
        self.update(|n| n.detail = detail);
    }

    fn update(&self, f: impl FnOnce(&mut SpanNode)) {
        if !self.active() {
            return;
        }
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                if col.generation == self.generation {
                    if let Some(node) = col.spans.get_mut(self.idx) {
                        f(node);
                    }
                }
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = start.elapsed().as_nanos() as u64;
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                if col.generation != self.generation {
                    return;
                }
                if let Some(node) = col.spans.get_mut(self.idx) {
                    node.nanos = nanos;
                }
                if col.stack.last() == Some(&self.idx) {
                    col.stack.pop();
                } else {
                    // Out-of-order drop (should not happen with lexical
                    // guards): unlink defensively.
                    col.stack.retain(|&i| i != self.idx);
                }
            }
        });
    }
}

/// Open a span for the current stage. Returns an inert guard (a single
/// relaxed load + branch) when no trace is active on this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    if ACTIVE_TRACES.load(Ordering::Relaxed) == 0 {
        return Span::INERT;
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.as_mut() else {
            return Span::INERT;
        };
        let idx = col.spans.len();
        let parent = col.stack.last().copied();
        col.spans.push(SpanNode::new(name, parent));
        col.stack.push(idx);
        Span {
            idx,
            generation: col.generation,
            start: Some(Instant::now()),
        }
    })
}

/// Start collecting a trace on the current thread, rooted at a span
/// named `root`. Returns `false` (and changes nothing) if a trace is
/// already active on this thread — nested traces are ignored, so a
/// traced entry point may freely call other traced entry points.
pub fn trace_begin(root: &'static str) -> bool {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(Collector {
            generation: NEXT_TRACE_GEN.fetch_add(1, Ordering::Relaxed),
            spans: vec![SpanNode::new(root, None)],
            stack: vec![0],
            started: Instant::now(),
        });
        ACTIVE_TRACES.fetch_add(1, Ordering::Relaxed);
        true
    })
}

/// Finish the current thread's trace and return it (`None` when no
/// trace is active). The root span's wall time is set to the full
/// `trace_begin`→`trace_end` interval.
pub fn trace_end() -> Option<QueryTrace> {
    COLLECTOR.with(|c| {
        let col = c.borrow_mut().take()?;
        ACTIVE_TRACES.fetch_sub(1, Ordering::Relaxed);
        let mut spans = col.spans;
        spans[0].nanos = col.started.elapsed().as_nanos() as u64;
        Some(QueryTrace { spans })
    })
}

/// A completed span tree for one traced query.
///
/// Spans live in an arena in creation order; `spans()[0]` is the root
/// and every other node links to its parent by index.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    spans: Vec<SpanNode>,
}

impl QueryTrace {
    /// All spans, root first, in creation order. Empty for a trace that
    /// never collected (e.g. `answer_traced` nested inside another
    /// trace).
    pub fn spans(&self) -> &[SpanNode] {
        &self.spans
    }

    /// The root span, if the trace collected anything.
    pub fn root(&self) -> Option<&SpanNode> {
        self.spans.first()
    }

    /// End-to-end wall time of the traced call.
    pub fn total_nanos(&self) -> u64 {
        self.root().map_or(0, |r| r.nanos)
    }

    /// First span with the given name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with the given name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanNode> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Arena indices of `idx`'s direct children, in creation order.
    pub fn children(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent == Some(idx))
            .map(|(i, _)| i)
    }

    /// Sum of the root's direct children's wall times — the portion of
    /// the end-to-end time the per-stage spans account for.
    pub fn stage_nanos(&self) -> u64 {
        if self.spans.is_empty() {
            return 0;
        }
        self.children(0).map(|i| self.spans[i].nanos).sum()
    }

    /// Fraction of the end-to-end wall time covered by the root's
    /// direct stage spans (0 when the trace is empty).
    pub fn stage_coverage(&self) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.stage_nanos() as f64 / total as f64
        }
    }

    /// Render the span tree as human-readable indented text: one line
    /// per span with wall time, rows in→out, bytes and attributes, then
    /// the root's time no stage span accounts for.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            out.push_str("(empty trace)\n");
            return out;
        }
        self.render_node(0, "", "", &mut out);
        let unattributed = self.total_nanos().saturating_sub(self.stage_nanos());
        out.push_str(&format!("(unattributed)  [{}]\n", fmt_nanos(unattributed)));
        out
    }

    fn render_node(&self, idx: usize, lead: &str, child_lead: &str, out: &mut String) {
        use std::fmt::Write;
        let node = &self.spans[idx];
        let _ = write!(out, "{lead}{}", node.name);
        if !node.detail.is_empty() {
            let _ = write!(out, ": {}", node.detail);
        }
        let _ = write!(out, "  [{}", fmt_nanos(node.nanos));
        if node.rows_in != 0 || node.rows_out != 0 {
            let _ = write!(out, ", rows {}→{}", node.rows_in, node.rows_out);
        }
        if node.bytes != 0 {
            let _ = write!(out, ", {} B", node.bytes);
        }
        for (name, value) in &node.attrs {
            let _ = write!(out, ", {name}={value}");
        }
        out.push_str("]\n");
        let children: Vec<usize> = self.children(idx).collect();
        for (i, &child) in children.iter().enumerate() {
            let last = i + 1 == children.len();
            let branch = if last { "└─ " } else { "├─ " };
            let cont = if last { "   " } else { "│  " };
            self.render_node(
                child,
                &format!("{child_lead}{branch}"),
                &format!("{child_lead}{cont}"),
                out,
            );
        }
    }
}

/// Format a nanosecond count with a human-friendly unit.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_are_inert() {
        let sp = span("noop");
        assert!(!sp.active());
        sp.rows(1, 2);
        sp.attr("x", 1);
        drop(sp);
        assert!(trace_end().is_none());
    }

    #[test]
    fn spans_nest_by_scope() {
        assert!(trace_begin("root"));
        {
            let plan = span("plan");
            plan.rows(10, 4);
            {
                let inner = span("bgp_step");
                inner.attr("rows_matched", 3);
                inner.attr("rows_matched", 2);
                inner.detail(|| "p0".to_string());
            }
        }
        {
            let _exec = span("execute");
        }
        let trace = trace_end().unwrap();
        let spans = trace.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[1].name, "plan");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "bgp_step");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].attr("rows_matched"), Some(5));
        assert_eq!(spans[2].detail, "p0");
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(trace.children(0).count(), 2);
        assert!(trace.total_nanos() >= trace.stage_nanos());
        let rendered = trace.render();
        assert!(rendered.contains("bgp_step: p0"), "render:\n{rendered}");
        let unattributed = trace.total_nanos() - trace.stage_nanos();
        let last = format!("(unattributed)  [{}]\n", fmt_nanos(unattributed));
        assert!(rendered.ends_with(&last), "render:\n{rendered}");
    }

    #[test]
    fn nested_trace_begin_is_ignored() {
        assert!(trace_begin("outer"));
        assert!(!trace_begin("inner"));
        let _sp = span("child");
        drop(_sp);
        let trace = trace_end().unwrap();
        assert_eq!(trace.root().unwrap().name, "outer");
        assert!(trace_end().is_none());
    }

    #[test]
    fn stale_guard_cannot_write_into_a_new_trace() {
        assert!(trace_begin("first"));
        let stale = span("stage");
        let _ = trace_end().unwrap();
        assert!(trace_begin("second"));
        stale.rows(9, 9); // must not touch the new collector
        drop(stale);
        let second = trace_end().unwrap();
        assert_eq!(second.spans().len(), 1);
        assert_eq!(second.root().unwrap().rows_in, 0);
    }

    #[test]
    fn fmt_nanos_picks_units() {
        assert_eq!(fmt_nanos(999), "999ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_710_000), "2.71ms");
        assert_eq!(fmt_nanos(1_500_000_000), "1.50s");
    }
}
