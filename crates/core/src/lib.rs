//! # rdfcube-core — RDF analytics with efficient OLAP operations
//!
//! A from-scratch implementation of *"Efficient OLAP Operations For RDF
//! Analytics"* (Akbari-Azirani, Goasdoué, Manolescu, Roatiş — DESWeb @ ICDE
//! 2015) and the RDF-analytics framework it builds on (WWW 2014):
//!
//! * [`schema`] — analytical schemas (AnS): lenses over semantic graphs,
//!   with instance materialization;
//! * [`anq`] / [`answer`](mod@answer) — analytical queries (AnQ)
//!   `⟨c, m, ⊕⟩` and their cube answers (Definition 1);
//! * [`extended`] — extended AnQs with Σ dimension restrictions
//!   (Definition 2);
//! * [`olap`] — SLICE, DICE, DRILL-OUT, DRILL-IN as query rewritings (§2);
//! * [`pres`] — partial results `pres(Q) = c(I) ⋈ₓ m^k(I)`
//!   (Definitions 3–4, Equations 1–3);
//! * [`aux_query`] — auxiliary drill-in queries (Definition 6);
//! * [`rewrite`] — the optimized operation evaluations: σ_dice
//!   (Proposition 1), Algorithm 1 (Proposition 2), Algorithm 2
//!   (Proposition 3), plus the from-scratch baselines;
//! * [`catalog`] — the signature-indexed cube catalog: O(1) derivation-
//!   family lookup, per-entry statistics, and memory-budgeted eviction
//!   with on-demand recomputation;
//! * [`cost`] — the cost model: one table of nanoseconds per row and one
//!   function pricing every *applicable* route from materialized sizes
//!   and instance statistics, explained through [`ExplainedStrategy`];
//! * [`session`] — materialized-cube sessions tying it all together:
//!   every query and OLAP operation is answered by the cheapest sound
//!   strategy automatically;
//! * [`shared`] — the concurrent query plane: a `Send + Sync`
//!   [`SharedSession`] serving `answer_query`/`transform` to any number
//!   of threads over the same `Arc`-shared instance and catalog;
//! * [`advisor`] — workload-driven view selection: mines the catalog's
//!   query log and pre-materializes each logged family's unrestricted
//!   apex, hottest family first, while the memory budget holds
//!   ([`OlapSession::advise`] / [`SharedSession::advise_if_stale`]).
//!
//! ## Quick example — the paper's Example 1 cube, sliced
//!
//! ```
//! use rdfcube_core::{OlapSession, OlapOp, Strategy};
//! use rdfcube_engine::AggFunc;
//! use rdfcube_rdf::{parse_turtle, Term};
//!
//! let instance = parse_turtle(
//!     "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .
//!      <user1> <wrotePost> <p1> . <p1> <postedOn> <s1> .",
//! ).unwrap();
//! let mut session = OlapSession::new(instance);
//! let cube = session.register(
//!     "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
//!     "m(?x, ?vsite) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?vsite",
//!     AggFunc::Count,
//! ).unwrap();
//! let (sliced, strategy) = session.transform(
//!     cube,
//!     &OlapOp::Slice { dim: "dage".into(), value: Term::integer(28) },
//! ).unwrap();
//! assert_eq!(strategy, Strategy::SelectionOnAns); // Proposition 1 applied
//! assert_eq!(session.answer(sliced).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod anq;
pub mod answer;
pub mod aux_query;
pub mod catalog;
pub mod cost;
pub mod error;
pub mod extended;
pub mod olap;
mod pipeline;
pub mod pres;
pub mod rewrite;
pub mod schema;
pub mod session;
pub mod shared;
pub mod signature;

pub use advisor::AdvisorReport;
pub use anq::AnalyticalQuery;
pub use answer::{answer, Cube};
pub use aux_query::build_aux_query;
pub use catalog::{
    CatalogCounters, CatalogEntry, CubeCatalog, CubeSnapshot, CubeStats, Derivation, LoggedFamily,
    LoggedQuery,
};
pub use cost::{explain_analyze, CostModelReport, CostModelRow, ExplainedStrategy};
pub use error::CoreError;
pub use extended::{CompiledSigma, ExtendedQuery, Sigma, ValueSelector};
pub use olap::{apply, OlapOp};
pub use pres::{PartialResult, PresRow};
pub use schema::{AnalyticalSchema, EdgeSpec, NodeSpec};
pub use session::{CubeHandle, MaterializedCube, OlapSession, Strategy};
pub use shared::SharedSession;
pub use signature::{query_signature, BodySignature, ViewKey, ViewSignature};
