//! Workload `ingest-serve`: writes beside reads.
//!
//! One client, one [`OlapSession`] per unit over the 100k-triple world. The
//! unit is an ingest *epoch* of 16 cycles on a fresh session holding the
//! Example 1 base cube; each cycle inserts a batch of new bloggers with
//! their posts, re-asks the base cube (its watermark is stale, so the
//! catalog refreshes it), then asks a DICE the session has not seen and a
//! DRILL-OUT off that dice. Fifteen batches trickle in (8 bloggers each,
//! so the store's unsorted delta grows under the reads); the sixteenth is a
//! bulk arrival large enough to cross the store's auto-merge threshold, so
//! every epoch also pays one delta merge and ends reading a compacted
//! store. It uses `rdf` and `catalog` unlike the other three — delta
//! buffer, reads over a pending delta, merge, watermark refresh — so a
//! store or `pres` layout that speeds reads at the cost of inserts or
//! refresh is caught here.
//!
//! The epoch is this short because reads over a pending delta sweep it
//! linearly at the seed commit (about 30 µs per pending triple per
//! refresh): the issue's "a merge every few dozen cycles" of trickle alone
//! would make one epoch last half a minute.

use super::{verify_against_scratch, Scale, UnitScope, Workload};
use crate::ops::{Kind, Recorder};
use crate::session::{self, KindRule};
use crate::stats::Rng;
use crate::world;
use rdfcube_core::{ExtendedQuery, OlapOp, OlapSession, ValueSelector};
use rdfcube_datagen::BloggerConfig;
use rdfcube_engine::AggFunc;
use rdfcube_rdf::{Graph, Term};
use std::time::Instant;

const CYCLES: usize = 16;
const TRICKLE_BLOGGERS: usize = 8;
/// The bulk batch, as a share of the world's bloggers: with ~11 triples a
/// blogger, 0.4 of them is well past a quarter of the world's triples, the
/// store's auto-merge threshold.
const BULK_SHARE: f64 = 0.4;

/// The workload: the base query and one epoch's insert batches.
pub struct IngestServe {
    cfg: BloggerConfig,
    graph: Graph,
    base: ExtendedQuery,
    batches: Vec<Vec<(Term, Term, Term)>>,
}

impl IngestServe {
    /// Generates the world, the base query and the epoch's batches.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let cfg = world::world_config(scale.triples(100_000), seed);
        let mut graph = world::build_world(&cfg);
        let base = world::parse(world::EX1, world::SITES, AggFunc::Count, graph.dict_mut())
            .expect("Example 1 parses");
        let mut rng = Rng::new(seed ^ 0x1465);
        let bulk = (cfg.n_bloggers as f64 * BULK_SHARE) as usize;
        let batches = (0..CYCLES)
            .map(|c| {
                let n = if c + 1 == CYCLES {
                    bulk
                } else {
                    TRICKLE_BLOGGERS
                };
                world::blogger_batch(&cfg, c, n, &mut rng)
            })
            .collect();
        IngestServe {
            cfg,
            graph,
            base,
            batches,
        }
    }

    /// A 10 %-of-the-domain age window no earlier cycle of the epoch asked.
    fn dice(cycle: usize) -> OlapOp {
        let lo = 18 + (cycle % 46) as i64;
        OlapOp::Dice {
            constraints: vec![(
                "dage".into(),
                ValueSelector::IntRange {
                    lo,
                    hi: lo + 4 + (cycle / 46) as i64,
                },
            )],
        }
    }

    /// One epoch. With `check` set (the verification pass), the three
    /// answers of every fourth cycle and of the last are compared with
    /// from-scratch evaluation on the instance as it stands at that cycle.
    fn epoch(&self, rec: &mut Recorder, check: bool) {
        let mut session = OlapSession::new(self.graph.clone());
        let scope = UnitScope::open(rec);
        // The standing base cube is part of the epoch's fixture, not an
        // operation under test.
        let Ok((base, _)) = session.answer_query(self.base.clone()) else {
            rec.attempted += 1;
            rec.fail("ingest epoch: the base cube does not materialize".into());
            return;
        };
        for (c, batch) in self.batches.iter().enumerate() {
            let slot = |k: u64| (c as u64) * 4 + k;
            let batch = batch.clone();
            let t = Instant::now();
            let added = session.insert_triples(batch);
            rec.record_plain(Kind::Insert, t.elapsed().as_nanos() as u64);
            if rec.keep {
                rec.inserted_triples += added as u64;
            }

            let refresh = KindRule::Fixed(Kind::Refresh);
            let refreshed = session::answer(&mut session, rec, refresh, slot(1), &self.base);
            let diced =
                session::transform(&mut session, rec, Kind::Dice, slot(2), base, &Self::dice(c));
            let out = match diced {
                Some((h, _)) => {
                    let op = world::drill_out_op("dcity");
                    session::transform(&mut session, rec, Kind::DrillOut, slot(3), h, &op)
                }
                None => {
                    rec.attempted += 1;
                    rec.fail("drill_out: its source cube is missing".into());
                    None
                }
            };
            if check && (c % 4 == 3 || c + 1 == self.batches.len()) {
                let handles: Vec<_> = [(1, refreshed), (2, diced), (3, out)]
                    .into_iter()
                    .filter_map(|(k, served)| served.map(|(h, _)| (slot(k), h)))
                    .collect();
                verify_against_scratch(rec, &session, &handles);
            }
        }
        scope.close(rec, &session);
    }
}

impl Workload for IngestServe {
    fn unit(&mut self, rec: &mut Recorder) {
        self.epoch(rec, false);
    }

    fn verify(&mut self, rec: &mut Recorder) {
        rec.keep = false;
        self.epoch(rec, true);
    }

    fn world(&self) -> (&Graph, &BloggerConfig) {
        (&self.graph, &self.cfg)
    }
}
