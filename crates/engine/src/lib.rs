//! # rdfcube-engine — conjunctive query engine over RDF graphs
//!
//! Evaluates the paper's query language — BGP (basic graph pattern) queries,
//! the conjunctive subset of SPARQL — against [`rdfcube_rdf::Graph`] stores:
//!
//! * [`bgp`] — queries `q(x̄) :- t₁, …, t_α` with head/body, rootedness
//!   checking (§2 of the paper), and the paper's textual notation via
//!   [`parser::parse_query`];
//! * [`eval`] — index-backed evaluation with greedy join ordering, under
//!   **set** semantics (classifiers) or **bag** semantics (measures);
//! * [`relation`] — materialized relations with the relational algebra the
//!   paper's algorithms are stated in: π, σ, δ, ⋈ (bag semantics);
//! * [`aggfn`] — aggregation functions ⊕ with their distributivity
//!   classification, and grouped aggregation γ.
//!
//! ## Quick example
//!
//! ```
//! use rdfcube_engine::{evaluate, parse_query, Semantics};
//! use rdfcube_rdf::parse_turtle;
//!
//! let mut g = parse_turtle(
//!     "<user1> rdf:type <Blogger> ; <hasAge> 28 ; <livesIn> \"Madrid\" .",
//! ).unwrap();
//! let c = parse_query(
//!     "c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity",
//!     g.dict_mut(),
//! ).unwrap();
//! let rows = evaluate(&g, &c, Semantics::Set).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod aggfn;
pub mod bgp;
pub mod error;
pub mod eval;
pub mod filter;
pub mod parser;
pub mod pattern;
pub mod relation;
pub mod sparql;
pub mod var;

pub use aggfn::{group_aggregate, AggFunc, AggValue, Distributivity};
pub use bgp::Bgp;
pub use error::EngineError;
pub use eval::{
    eval_threads, evaluate, evaluate_filtered, evaluate_in_order, evaluate_nested_loop,
    evaluate_seeded, explain, set_eval_threads, PlanStep, Seed, Semantics,
};
pub use filter::{FilterExpr, Selector};
pub use parser::parse_query;
pub use pattern::{PatternTerm, QueryPattern};
pub use relation::Relation;
pub use sparql::{evaluate_sparql, parse_sparql, SparqlQuery, SparqlResult, SparqlRow};
pub use var::{VarId, VarRegistry};
