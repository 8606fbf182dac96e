//! Workload `cold-scratch`: every answer is a catalog miss.
//!
//! One client, one [`OlapSession`] per unit over the million-triple
//! `large_world`. The unit is a round of eight analytical queries from
//! eight distinct derivation families on an empty catalog, so nothing can
//! be derived from anything: `rdf` probes, `engine` BGP steps, join and γ,
//! and `pres` do nearly all the work on a working set larger than the CPU
//! caches, while `rewrite` and `catalog` do almost none. A rewriting
//! optimisation must predict *no change* here; an evaluator or store change
//! must show here.

use super::{verify_against_scratch, Scale, UnitScope, Workload};
use crate::ops::{Kind, Recorder};
use crate::session::{self, KindRule};
use crate::world;
use rdfcube_core::{apply, CubeHandle, ExtendedQuery, OlapOp, OlapSession, ValueSelector};
use rdfcube_datagen::{BloggerConfig, LARGE_WORLD_TRIPLES};
use rdfcube_engine::AggFunc;
use rdfcube_rdf::{Graph, Term};

/// The workload: eight parsed queries over the large world.
pub struct ColdScratch {
    cfg: BloggerConfig,
    graph: Graph,
    queries: Vec<ExtendedQuery>,
}

impl ColdScratch {
    /// Generates the world and parses the round's queries.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let cfg = world::world_config(scale.triples(LARGE_WORLD_TRIPLES), seed);
        let mut graph = world::build_world(&cfg);
        let mut parse = |classifier, measure, agg| {
            world::parse(classifier, measure, agg, graph.dict_mut())
                .expect("the round's fixed query texts parse")
        };
        // Eight (classifier body, measure, ⊕) triples, all distinct: no
        // query of a round shares a family with another.
        let mut queries = vec![
            parse(world::EX1, world::SITES, AggFunc::Count),
            parse(world::Q3, world::SITES, AggFunc::Count),
            parse(world::EX1, world::WORDS, AggFunc::Sum),
            parse(world::EX1, world::WORDS, AggFunc::Avg),
            parse(world::EX1, world::WORDS, AggFunc::CountDistinct),
            parse(world::EX1, world::WORDS, AggFunc::Min),
            parse(world::CITY_ONLY, world::SITES, AggFunc::Count),
        ];
        // Example 1 diced to one age (2 % of the domain) in a family of its
        // own: the Σ constant is pushed down into the index probes.
        let diced = apply(
            &parse(world::EX1, world::WORDS, AggFunc::Max),
            &OlapOp::Dice {
                constraints: vec![("dage".into(), ValueSelector::one(Term::integer(30)))],
            },
        )
        .expect("dage is a dimension of Example 1");
        queries.push(diced);
        ColdScratch {
            cfg,
            graph,
            queries,
        }
    }

    fn run_unit(&self, rec: &mut Recorder) -> (OlapSession, Vec<(u64, CubeHandle)>) {
        let mut session = OlapSession::new(self.graph.clone());
        let scope = UnitScope::open(rec);
        let mut handles = Vec::with_capacity(self.queries.len());
        for (i, eq) in self.queries.iter().enumerate() {
            let slot = i as u64 + 1;
            let rule = KindRule::Fixed(Kind::Register);
            if let Some((h, _)) = session::answer(&mut session, rec, rule, slot, eq) {
                handles.push((slot, h));
            }
        }
        scope.close(rec, &session);
        (session, handles)
    }
}

impl Workload for ColdScratch {
    fn unit(&mut self, rec: &mut Recorder) {
        self.run_unit(rec);
    }

    fn verify(&mut self, rec: &mut Recorder) {
        rec.keep = false;
        let (session, handles) = self.run_unit(rec);
        verify_against_scratch(rec, &session, &handles);
    }

    fn world(&self) -> (&Graph, &BloggerConfig) {
        (&self.graph, &self.cfg)
    }
}
