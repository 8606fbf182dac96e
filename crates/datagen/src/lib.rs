//! # rdfcube-datagen — seeded synthetic workloads for RDF analytics
//!
//! Generators for the two worlds the paper's examples live in:
//!
//! * [`blogger`] — the Figure 1 blogging schema (bloggers, ages, cities,
//!   posts, sites, word counts) with controllable scale, dimension
//!   cardinality, heterogeneity and — crucially for the paper's algorithms —
//!   **multi-valuedness**;
//! * [`video`] — the Figure 3 / Example 6 video-hosting schema used by the
//!   DRILL-IN benchmarks;
//! * [`zipf`] — the skew sampler both use;
//! * [`workload`] — Zipf-skewed query workloads of distinct-but-derivable
//!   slice/dice/drill-out variants, for exercising the view-selection
//!   advisor.
//!
//! All generation is deterministic per seed, so benchmark runs are
//! reproducible and parser/writer round-trips can be golden-tested.

#![warn(missing_docs)]

pub mod blogger;
pub mod video;
pub mod workload;
pub mod zipf;

pub use blogger::{
    blogger_schema, generate_base, generate_instance, BloggerConfig, EXAMPLE1_CLASSIFIER,
    EXAMPLE1_MEASURE, EXAMPLE4_MEASURE, LARGE_WORLD_TRIPLES,
};
pub use video::{generate_videos, VideoConfig, BROWSERS, EXAMPLE6_CLASSIFIER, EXAMPLE6_MEASURE};
pub use workload::{variant_pool, zipf_sequence, DimDomain};
pub use zipf::Zipf;
