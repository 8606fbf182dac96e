//! # rdfcube — Efficient OLAP Operations for RDF Analytics
//!
//! A complete Rust implementation of *"Efficient OLAP Operations For RDF
//! Analytics"* (Akbari-Azirani, Goasdoué, Manolescu, Roatiş — DESWeb @ ICDE
//! 2015), including every substrate the paper relies on:
//!
//! * [`rdf`] — an in-memory RDF store: terms, dictionary encoding,
//!   SPO/POS/OSP indexes, N-Triples/Turtle parsing, RDFS saturation;
//! * [`engine`] — a conjunctive (BGP) query engine with set/bag semantics,
//!   greedy join ordering, relational algebra and grouped aggregation;
//! * [`core`] — analytical schemas, analytical queries (RDF cubes), the four
//!   OLAP operations, partial results, and the paper's three rewriting
//!   algorithms behind an [`OlapSession`] whose signature-indexed,
//!   cost-based cube catalog picks the cheapest sound strategy
//!   automatically (optionally under a memory budget), and whose
//!   view-selection advisor mines the query log to pre-materialize each
//!   hot family's unrestricted apex;
//! * [`datagen`] — seeded workload generators for the paper's blogger and
//!   video worlds.
//!
//! ## Quickstart
//!
//! ```
//! use rdfcube::prelude::*;
//!
//! // 1. Load (or generate) an RDF graph and saturate it under RDFS.
//! let mut base = parse_turtle(
//!     "<Writer> rdfs:subClassOf <Person> .
//!      <user1> rdf:type <Writer> ; <age> 28 ; <city> \"Madrid\" .
//!      <user1> <posted> <p1> . <p1> <on> <site1> .",
//! ).unwrap();
//! saturate(&mut base);
//!
//! // 2. Define an analytical schema (a lens) and materialize its instance.
//! let mut schema = AnalyticalSchema::new("blog");
//! schema
//!     .add_node("Blogger", "n(?x) :- ?x rdf:type Person")
//!     .add_node("Age", "n(?a) :- ?x age ?a")
//!     .add_node("City", "n(?c) :- ?x city ?c")
//!     .add_node("BlogPost", "n(?p) :- ?x posted ?p")
//!     .add_node("Site", "n(?s) :- ?p on ?s")
//!     .add_edge("hasAge", "Blogger", "Age", "e(?x, ?a) :- ?x age ?a")
//!     .add_edge("livesIn", "Blogger", "City", "e(?x, ?c) :- ?x city ?c")
//!     .add_edge("wrotePost", "Blogger", "BlogPost", "e(?x, ?p) :- ?x posted ?p")
//!     .add_edge("postedOn", "BlogPost", "Site", "e(?p, ?s) :- ?p on ?s");
//! let instance = schema.materialize(&mut base).unwrap();
//!
//! // 3. Open an OLAP session, pose a cube, transform it.
//! let mut session = OlapSession::new(instance);
//! let cube = session.register(
//!     "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
//!     "m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v",
//!     AggFunc::Count,
//! ).unwrap();
//! let (sliced, strategy) = session.transform(
//!     cube,
//!     &OlapOp::Slice { dim: "dage".into(), value: Term::integer(28) },
//! ).unwrap();
//! assert_eq!(strategy, Strategy::SelectionOnAns);
//! assert_eq!(session.answer(sliced).len(), 1);
//! ```

pub mod interp;

pub use rdfcube_core as core;
pub use rdfcube_datagen as datagen;
pub use rdfcube_engine as engine;
pub use rdfcube_obs as obs;
pub use rdfcube_rdf as rdf;

pub use rdfcube_core::{
    answer, apply, build_aux_query, explain_analyze, AdvisorReport, AnalyticalQuery,
    AnalyticalSchema, CoreError, CostModelReport, Cube, CubeCatalog, CubeHandle, CubeSnapshot,
    ExplainedStrategy, ExtendedQuery, MaterializedCube, OlapOp, OlapSession, PartialResult,
    SharedSession, Sigma, Strategy, ValueSelector,
};
pub use rdfcube_engine::{
    evaluate, evaluate_sparql, explain, parse_query, parse_sparql, set_eval_threads, AggFunc,
    AggValue, Bgp, EngineError, PlanStep, Relation, Semantics, SparqlQuery, SparqlResult,
};
pub use rdfcube_obs::{QueryTrace, Snapshot};
pub use rdfcube_rdf::{
    parse_ntriples, parse_turtle, saturate, to_ntriples, Dictionary, Graph, Term, TermId, Triple,
    TriplePattern,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use rdfcube_core::{
        AnalyticalQuery, AnalyticalSchema, Cube, CubeSnapshot, ExplainedStrategy, ExtendedQuery,
        OlapOp, OlapSession, PartialResult, SharedSession, Sigma, Strategy, ValueSelector,
    };
    pub use rdfcube_datagen::{BloggerConfig, VideoConfig};
    pub use rdfcube_engine::{evaluate, parse_query, AggFunc, AggValue, Semantics};
    pub use rdfcube_obs::QueryTrace;
    pub use rdfcube_rdf::{parse_ntriples, parse_turtle, saturate, to_ntriples, Graph, Term};
}
