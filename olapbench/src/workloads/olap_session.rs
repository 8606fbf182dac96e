//! Workload `olap-session`: the paper's operators on the served path.
//!
//! One client, one [`OlapSession`] per unit of work. The unit is an analyst
//! script on a fresh session over the 100k-triple world: register Q3 (a
//! catalog miss) → SLICE → DICE → DRILL-OUT (Algorithm 1) → register the
//! E5b base (another family) → DRILL-IN (Algorithm 2) → ROLL-UP → the same
//! DICE again (the duplicate path). `rewrite`, `planner`, `session` and
//! `catalog` do most of the work outside the two registers; `engine` does
//! little. This is where a change to a rewriting or to the planner must
//! show.

use super::{verify_against_scratch, Scale, UnitScope, Workload};
use crate::ops::{Kind, Recorder};
use crate::session::{self, KindRule, Plane};
use crate::world;
use rdfcube_core::{CubeHandle, ExtendedQuery, OlapOp, OlapSession};
use rdfcube_datagen::BloggerConfig;
use rdfcube_engine::AggFunc;
use rdfcube_rdf::Graph;

/// The analyst script: its parsed queries and the world they were parsed
/// against (parsing interns the queries' constants, so the graph every
/// session is opened over is the one held here).
pub struct Script {
    /// The world, with the script's constants interned.
    pub graph: Graph,
    q3: ExtendedQuery,
    e5b: ExtendedQuery,
}

/// `transform` on a handle an earlier step may have failed to produce; a
/// step whose source is missing is itself a failed operation.
fn step<P: Plane>(
    plane: &mut P,
    rec: &mut Recorder,
    (slot, kind): (u64, Kind),
    source: Option<CubeHandle>,
    op: &OlapOp,
) -> Option<CubeHandle> {
    match source {
        Some(h) => session::transform(plane, rec, kind, slot, h, op).map(|r| r.0),
        None => {
            rec.attempted += 1;
            rec.fail(format!("{}: its source cube is missing", kind.name()));
            None
        }
    }
}

impl Script {
    /// Parses the script's two base queries against `graph`.
    pub fn parse(mut graph: Graph) -> Script {
        let mut parse = |classifier| {
            world::parse(classifier, world::SITES, AggFunc::Count, graph.dict_mut())
                .expect("the script's fixed query texts parse")
        };
        let q3 = parse(world::Q3);
        let e5b = parse(world::E5B);
        Script { graph, q3, e5b }
    }

    /// Runs the eight steps on `plane`. Returns the handle each step
    /// produced with the slot it was recorded under, for verification.
    pub fn run<P: Plane>(&self, plane: &mut P, rec: &mut Recorder) -> Vec<(u64, CubeHandle)> {
        let register = KindRule::Fixed(Kind::Register);
        let dice = world::dice_op(18);
        let q3 = session::answer(plane, rec, register, 1, &self.q3).map(|r| r.0);
        let sliced = step(plane, rec, (2, Kind::Slice), q3, &world::slice_op());
        let diced = step(plane, rec, (3, Kind::Dice), q3, &dice);
        let out = step(
            plane,
            rec,
            (4, Kind::DrillOut),
            q3,
            &world::drill_out_op("dsite"),
        );
        let base = session::answer(plane, rec, register, 5, &self.e5b).map(|r| r.0);
        let drilled = step(plane, rec, (6, Kind::DrillIn), base, &world::drill_in_op());
        let rolled = step(plane, rec, (7, Kind::RollUp), drilled, &world::roll_up_op());
        // The same DICE as step 3: an exact duplicate — same cells, so it
        // is recorded under the same slot.
        let again = step(plane, rec, (3, Kind::Repeat), q3, &dice);
        [
            (1, q3),
            (2, sliced),
            (3, diced),
            (4, out),
            (5, base),
            (6, drilled),
            (7, rolled),
            (3, again),
        ]
        .into_iter()
        .filter_map(|(slot, h)| h.map(|h| (slot, h)))
        .collect()
    }
}

/// The workload: the script, replayed on a fresh session per unit.
pub struct OlapSessionWorkload {
    cfg: BloggerConfig,
    script: Script,
}

impl OlapSessionWorkload {
    /// Generates the world and parses the script.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let cfg = world::world_config(scale.triples(100_000), seed);
        let script = Script::parse(world::build_world(&cfg));
        OlapSessionWorkload { cfg, script }
    }

    fn run_unit(&self, rec: &mut Recorder) -> (OlapSession, Vec<(u64, CubeHandle)>) {
        // Opening the session (a graph clone) is not an analyst operation
        // and is not timed.
        let mut session = OlapSession::new(self.script.graph.clone());
        let scope = UnitScope::open(rec);
        let handles = self.script.run(&mut session, rec);
        scope.close(rec, &session);
        (session, handles)
    }
}

impl Workload for OlapSessionWorkload {
    fn unit(&mut self, rec: &mut Recorder) {
        self.run_unit(rec);
    }

    fn verify(&mut self, rec: &mut Recorder) {
        rec.keep = false;
        let (session, handles) = self.run_unit(rec);
        verify_against_scratch(rec, &session, &handles);

        // The shared plane must answer the same script with the same cells.
        let shared = OlapSession::new(self.script.graph.clone()).into_shared();
        let mut other = Recorder::default();
        let shared_handles = self.script.run(&mut &shared, &mut other);
        rec.attempted += other.attempted;
        rec.failed += other.failed;
        for ((slot, a), (_, b)) in handles.iter().zip(&shared_handles) {
            let same = shared
                .snapshot(*b)
                .is_ok_and(|snap| snap.answer().same_cells(session.answer(*a)));
            if !same {
                rec.fail(format!(
                    "slot {slot}: SharedSession and OlapSession disagree"
                ));
            }
        }
        if handles.len() != shared_handles.len() {
            rec.fail("SharedSession served a different number of steps".into());
        }
    }

    fn world(&self) -> (&Graph, &BloggerConfig) {
        (&self.script.graph, &self.cfg)
    }
}
