//! # rdfcube-rdf — the RDF substrate
//!
//! A from-scratch, in-memory RDF store supporting the analytics stack of this
//! workspace:
//!
//! * [`term`] / [`dictionary`] — RDF 1.1 terms, interned to dense `u32`
//!   [`TermId`]s so every downstream operator works on integers;
//! * [`graph`] / [`shard`] — an append-only columnar triple store,
//!   hash-partitioned by subject into independent CSR shards (one by
//!   default): per-shard sorted SPO/POS/OSP column sets under CSR offset
//!   tables, a bulk loader for scatter-then-sort-once construction (parallel
//!   across shards), and per-shard delta buffers keeping incremental inserts
//!   cheap — all eight triple-pattern shapes are index-backed, and reads are
//!   bit-identical at any shard count;
//! * [`parser`] / [`writer`] — N-Triples and a practical Turtle subset, plus
//!   deterministic N-Triples output; [`parser`] also holds the one term
//!   syntax every textual input shares (queries, rules, console values);
//! * [`reasoner`] — RDFS (ρdf) saturation, required by the analytical-schema
//!   framework which operates over entailed graphs;
//! * [`fx`] — the Fx-style hasher used by every map in the workspace.
//!
//! ## Quick example
//!
//! ```
//! use rdfcube_rdf::{parse_turtle, saturate, Term, vocab};
//!
//! let mut g = parse_turtle(
//!     "<Blogger> rdfs:subClassOf <Person> .
//!      <user1> rdf:type <Blogger> ; <hasAge> 28 .",
//! ).unwrap();
//! saturate(&mut g);
//! assert!(g.contains(
//!     &Term::iri("user1"),
//!     &Term::iri(vocab::RDF_TYPE),
//!     &Term::iri("Person"),
//! ));
//! ```

#![warn(missing_docs)]

pub mod dictionary;
pub mod error;
pub mod fx;
pub mod graph;
pub mod parser;
pub mod reasoner;
pub mod shard;
pub mod term;
pub mod triple;
pub mod vocab;
pub mod writer;

pub use dictionary::{Dictionary, TermId};
pub use error::ParseError;
pub use graph::Graph;
pub use parser::{parse_into, parse_ntriples, parse_turtle};
pub use reasoner::saturate;
pub use term::{Literal, LiteralKind, Term};
pub use triple::{Triple, TriplePattern};
pub use writer::to_ntriples;
