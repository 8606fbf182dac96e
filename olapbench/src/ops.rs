//! Operation kinds, timed samples and the output check.
//!
//! Every operation a workload issues goes through [`Recorder::record`]:
//! it is counted as attempted, counted as failed if the call returned an
//! error or its answer's cells differ from what the same query answered
//! before, and — once warm-up is over — its latency is kept. A separate
//! verification pass ([`Recorder::verify`]) ties the first answer of every
//! distinct query to `rewrite::from_scratch`.

use crate::spans::Tracer;
use crate::stats::mix64;
use rdfcube_core::{Cube, CubeCatalog};
use rdfcube_engine::AggValue;
use std::collections::HashMap;

/// What an operation is, from the analyst's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A catalog miss: from-scratch evaluation plus materialisation.
    Register,
    /// SLICE through `transform`.
    Slice,
    /// DICE through `transform` / a diced query through `answer_query`.
    Dice,
    /// DRILL-OUT (Algorithm 1 when the planner picks it).
    DrillOut,
    /// DRILL-IN (Algorithm 2 when the planner picks it).
    DrillIn,
    /// ROLL-UP along `locatedIn`.
    RollUp,
    /// A query whose exact duplicate is already in the catalog.
    Repeat,
    /// The first query on a cube after an insert batch (stale watermark).
    Refresh,
    /// One `insert_triples` batch.
    Insert,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 9] = [
        Kind::Register,
        Kind::Slice,
        Kind::Dice,
        Kind::DrillOut,
        Kind::DrillIn,
        Kind::RollUp,
        Kind::Repeat,
        Kind::Refresh,
        Kind::Insert,
    ];

    /// The kind's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Register => "register",
            Kind::Slice => "slice",
            Kind::Dice => "dice",
            Kind::DrillOut => "drill_out",
            Kind::DrillIn => "drill_in",
            Kind::RollUp => "roll_up",
            Kind::Repeat => "repeat",
            Kind::Refresh => "refresh",
            Kind::Insert => "insert",
        }
    }
}

/// Order-independent checksum of a cube's cells: equal cells ⇒ equal sums,
/// and (with 64-bit mixing) different cells ⇒ different sums in practice.
/// Float aggregates hash by bit pattern — the product folds floats in
/// sorted order precisely so that every strategy yields identical bits.
pub fn checksum(cube: &Cube) -> u64 {
    let mut sum = mix64(cube.len() as u64);
    for (dims, value) in cube.cells() {
        let mut h = 0x51_7C_C1_B7_27_22_0A_95u64;
        for d in dims {
            h = mix64(h ^ u64::from(d.0));
        }
        let v = match value {
            AggValue::Int(i) => mix64(*i as u64 ^ 1),
            AggValue::Float(f) => mix64(f.to_bits() ^ 2),
            AggValue::Term(t) => mix64(u64::from(t.0) ^ 3),
        };
        sum = sum.wrapping_add(mix64(h ^ v));
    }
    sum
}

/// Catalog counters summed over the sessions a workload opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSums {
    /// Sessions folded in.
    pub sessions: u64,
    /// Catalog hits.
    pub hits: u64,
    /// Catalog misses.
    pub misses: u64,
    /// Payload evictions.
    pub evictions: u64,
    /// Evicted payloads recomputed on demand.
    pub rehydrations: u64,
    /// Stale payloads recomputed after an insert.
    pub refreshes: u64,
    /// Catalog entries at session end.
    pub entries: u64,
    /// Resident payload bytes at session end.
    pub resident_bytes: u64,
}

/// One `advise_if_stale` call that actually ran the advisor.
#[derive(Debug, Clone, Copy)]
pub struct AdviseRun {
    /// Wall time of the call (selection + materialisation, under the
    /// shared plane's write lock).
    pub nanos: u64,
    /// Candidates the advisor materialised.
    pub selected: u64,
    /// Bytes it materialised.
    pub materialized_bytes: u64,
}

/// Collects everything one run of one workload measures.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latencies are kept only while this is set (warm-up clears it).
    pub keep: bool,
    /// `(kind, nanoseconds)` of every kept operation.
    pub samples: Vec<(Kind, u64)>,
    /// Timed nanoseconds of every kept unit of work.
    pub units: Vec<u64>,
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations that errored, panicked or failed the cell check.
    pub failed: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// Checksum of the first answer to each distinct query (`slot`).
    expected: HashMap<u64, u64>,
    /// Largest `peak_resident_bytes` any session reached.
    pub catalog_peak_bytes: u64,
    /// Triples inserted by kept [`Kind::Insert`] operations.
    pub inserted_triples: u64,
    /// Catalog counters over kept sessions.
    pub counters: CounterSums,
    /// Fresh (never pooled) dices asked / answered as catalog hits.
    pub fresh: (u64, u64),
    /// Advisor runs the workload triggered.
    pub advise_runs: Vec<AdviseRun>,
    /// Benchmark-side spans; `Some` only in the traced phase.
    pub tracer: Option<Tracer>,
    /// Root-span remainders per kind (traced phase).
    pub overhead: HashMap<Kind, Vec<u64>>,
    /// Mirror catalog the traced phase replays materialisations into.
    pub scratch: Option<CubeCatalog>,
}

impl Recorder {
    /// A recorder that keeps latencies from the first operation on.
    pub fn keeping(keep: bool) -> Recorder {
        Recorder {
            keep,
            ..Recorder::default()
        }
    }

    /// Records one operation. `outcome` carries the answer's checksum, or
    /// the error text. `slot` identifies the query: equal slots must answer
    /// with equal cells for as long as the instance does not change.
    pub fn record(&mut self, kind: Kind, slot: u64, nanos: u64, outcome: Result<u64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(sum) => {
                let first = *self.expected.entry(slot).or_insert(sum);
                if first != sum {
                    self.fail(format!(
                        "{} (slot {slot:#x}) answered different cells than before",
                        kind.name()
                    ));
                }
            }
            Err(e) => self.fail(format!("{}: {e}", kind.name())),
        }
        if self.keep {
            self.samples.push((kind, nanos));
        }
    }

    /// Records an operation that has no cube answer (an insert batch).
    pub fn record_plain(&mut self, kind: Kind, nanos: u64) {
        self.attempted += 1;
        if self.keep {
            self.samples.push((kind, nanos));
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// The verification pass's hook: `slot`'s first answer must have had
    /// exactly the cells of `reference` (the from-scratch evaluation of the
    /// slot's target query). A mismatch is charged as one failed operation.
    pub fn verify(&mut self, slot: u64, what: &str, reference: &Cube) {
        match self.expected.get(&slot) {
            Some(&sum) if sum == checksum(reference) => {}
            Some(_) => self.fail(format!("{what}: served cells differ from from-scratch")),
            None => self.fail(format!("{what}: never answered")),
        }
    }

    /// Slots answered so far.
    pub fn slots(&self) -> impl Iterator<Item = u64> + '_ {
        self.expected.keys().copied()
    }

    /// A checksum of every distinct answer, independent of how many times
    /// each query ran — the reproducibility record's fingerprint.
    pub fn answers_checksum(&self) -> u64 {
        self.expected.iter().fold(0u64, |acc, (&slot, &sum)| {
            acc.wrapping_add(mix64(slot ^ sum))
        })
    }

    /// Folds another recorder (a second client thread's) into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        for (slot, sum) in other.expected {
            let first = *self.expected.entry(slot).or_insert(sum);
            if first != sum {
                self.fail(format!("slot {slot:#x}: two clients saw different cells"));
            }
        }
        self.fresh.0 += other.fresh.0;
        self.fresh.1 += other.fresh.1;
        self.inserted_triples += other.inserted_triples;
        self.advise_runs.extend(other.advise_runs);
    }

    /// Latencies of one kind, in nanoseconds.
    pub fn nanos_of(&self, kind: Kind) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, n)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_engine::AggFunc;
    use rdfcube_rdf::TermId;

    fn cube(cells: &[(u32, i64)]) -> Cube {
        Cube::from_cells(
            vec!["d".into()],
            AggFunc::Count,
            cells
                .iter()
                .map(|&(d, v)| (vec![TermId(d)], AggValue::Int(v)))
                .collect(),
        )
    }

    #[test]
    fn checksum_tracks_cells_not_order() {
        let a = cube(&[(1, 10), (2, 20)]);
        let b = cube(&[(2, 20), (1, 10)]);
        let c = cube(&[(1, 10), (2, 21)]);
        assert!(a.same_cells(&b));
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        assert_ne!(checksum(&a), checksum(&cube(&[(1, 10)])));
    }

    /// The issue's "deliberately wrong expectation": the failure count must
    /// rise when an answer disagrees with the reference, with an earlier
    /// answer, or is an error.
    #[test]
    fn wrong_expectations_raise_the_failure_count() {
        let right = cube(&[(1, 10), (2, 20)]);
        let wrong = cube(&[(1, 10), (2, 99)]);
        let mut rec = Recorder::default();
        rec.record(Kind::Dice, 7, 1_000, Ok(checksum(&right)));
        rec.verify(7, "dice", &right);
        assert_eq!((rec.attempted, rec.failed), (1, 0));
        rec.verify(7, "dice", &wrong);
        assert_eq!(rec.failed, 1, "reference mismatch must count");
        rec.record(Kind::Dice, 7, 1_000, Ok(checksum(&wrong)));
        assert_eq!(rec.failed, 2, "an answer that changes must count");
        rec.record(Kind::Dice, 8, 1_000, Err("boom".into()));
        assert_eq!((rec.attempted, rec.failed), (3, 3));
        rec.verify(9, "never", &right);
        assert_eq!(rec.failed, 4);
        assert!(rec
            .first_failure
            .as_deref()
            .unwrap()
            .contains("from-scratch"));
        assert!(rec.samples.is_empty(), "warm-up keeps no latencies");
    }
}
