//! Deterministic Zipf-skewed query workloads over a base analytical
//! query.
//!
//! The view-selection advisor (`rdfcube_core::advisor`) pays off exactly
//! when a workload keeps posing *distinct but derivable* queries: each
//! variant is new to the catalog (the reactive plane cannot serve it as a
//! duplicate), yet all of them hang below one unrestricted apex the
//! advisor can pre-materialize. This module generates such workloads
//! reproducibly:
//!
//! * [`variant_pool`] enumerates distinct *restricted* slice / dice /
//!   drill-out+dice variants of a base query by pure index arithmetic —
//!   no randomness, so pool index `i` is the same query in every run and
//!   the Zipf rank order is stable;
//! * [`zipf_sequence`] draws a seeded Zipf-skewed sequence of pool
//!   indices ([`crate::zipf::Zipf`] + `StdRng`), so a few hot variants
//!   dominate with a long tail, the usual shape of analytical dashboards.
//!
//! Every variant keeps at least one restricted dimension, so a session
//! replaying the pool never materializes an unrestricted ancestor as a
//! side effect — whatever ancestor serves the tail must come from the
//! advisor (or be paid for from scratch, which is the baseline the
//! benchmarks measure).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdfcube_core::{apply, CoreError, ExtendedQuery, OlapOp, ValueSelector};
use rdfcube_rdf::Term;

use crate::zipf::Zipf;

/// One dimension of the base query together with the constant values its
/// variants may restrict it to.
#[derive(Debug, Clone)]
pub struct DimDomain {
    /// The dimension's user-facing name in the base query (e.g. `dcity`).
    pub dim: String,
    /// Values to dice the dimension to. Need not be exhaustive — a
    /// representative sample of the dimension's domain is enough.
    pub values: Vec<Term>,
}

impl DimDomain {
    /// Convenience constructor.
    pub fn new(dim: impl Into<String>, values: Vec<Term>) -> Self {
        DimDomain {
            dim: dim.into(),
            values,
        }
    }
}

/// Enumerates `n` distinct restricted variants of `base`, cycling through
/// three kinds per dimension and value offset (index arithmetic only —
/// deterministic by construction):
///
/// * kind 0 — dice the dimension to one value;
/// * kind 1 — drill out the *next* dimension, then dice this one (falls
///   back to a two-value dice when the base has a single dimension);
/// * kind 2 — dice the dimension to two adjacent values.
///
/// Low pool indices exhaust all kinds and dimensions first, so a
/// Zipf-ranked replay spreads its hot set across every variant family.
pub fn variant_pool(
    base: &ExtendedQuery,
    domains: &[DimDomain],
    n: usize,
) -> Result<Vec<ExtendedQuery>, CoreError> {
    assert!(
        !domains.is_empty(),
        "variant_pool needs at least one domain"
    );
    assert!(
        domains.iter().all(|d| !d.values.is_empty()),
        "every domain needs at least one value"
    );
    let nd = domains.len();
    (0..n)
        .map(|i| {
            let kind = i % 3;
            let di = (i / 3) % nd;
            let vi = i / (3 * nd);
            let d = &domains[di];
            let value = |offset: usize| d.values[(vi + offset) % d.values.len()].clone();
            let dice_one = OlapOp::Dice {
                constraints: vec![(d.dim.clone(), ValueSelector::one(value(0)))],
            };
            match kind {
                0 => apply(base, &dice_one),
                1 if nd >= 2 => {
                    let other = &domains[(di + 1) % nd];
                    let dropped = apply(
                        base,
                        &OlapOp::DrillOut {
                            dims: vec![other.dim.clone()],
                        },
                    )?;
                    apply(&dropped, &dice_one)
                }
                _ => apply(
                    base,
                    &OlapOp::Dice {
                        constraints: vec![(
                            d.dim.clone(),
                            ValueSelector::OneOf(vec![value(0), value(1)]),
                        )],
                    },
                ),
            }
        })
        .collect()
}

/// A seeded Zipf-skewed sequence of `len` pool indices in
/// `0..pool_len`, exponent `s` (0 = uniform; 1 ≈ classic web skew).
/// Index 0 is the hottest rank.
pub fn zipf_sequence(pool_len: usize, len: usize, s: f64, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(pool_len, s);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| zipf.sample(&mut rng) - 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfcube_core::OlapSession;
    use rdfcube_engine::AggFunc;

    fn base_query() -> (OlapSession, ExtendedQuery) {
        let cfg = crate::BloggerConfig {
            n_bloggers: 40,
            ..Default::default()
        };
        let instance = crate::generate_instance(&cfg);
        let mut s = OlapSession::new(instance);
        let eq = s
            .parse_query(
                crate::EXAMPLE1_CLASSIFIER,
                crate::EXAMPLE1_MEASURE,
                AggFunc::Count,
            )
            .unwrap();
        (s, eq)
    }

    fn domains() -> Vec<DimDomain> {
        vec![
            DimDomain::new("dage", (18..28).map(Term::integer).collect()),
            DimDomain::new(
                "dcity",
                (0..10).map(|i| Term::literal(format!("city{i}"))).collect(),
            ),
        ]
    }

    #[test]
    fn pool_is_deterministic_and_distinct() {
        let (_s, base) = base_query();
        let pool = variant_pool(&base, &domains(), 24).unwrap();
        let again = variant_pool(&base, &domains(), 24).unwrap();
        assert_eq!(pool.len(), 24);
        for (a, b) in pool.iter().zip(&again) {
            assert_eq!(a.query().dim_names(), b.query().dim_names());
            assert_eq!(a.sigma(), b.sigma());
        }
        // No two variants share both dimension list and Σ.
        for i in 0..pool.len() {
            for j in 0..i {
                let same_dims = pool[i].query().dim_names() == pool[j].query().dim_names();
                assert!(
                    !(same_dims && pool[i].sigma() == pool[j].sigma()),
                    "variants {i} and {j} collide"
                );
            }
        }
    }

    #[test]
    fn every_variant_keeps_a_restriction() {
        let (_s, base) = base_query();
        let pool = variant_pool(&base, &domains(), 30).unwrap();
        for eq in &pool {
            assert!(
                eq.sigma()
                    .selectors()
                    .iter()
                    .any(|sel| !matches!(sel, ValueSelector::All)),
                "unrestricted variant would let a replay materialize an ancestor"
            );
        }
    }

    #[test]
    fn variants_answer_like_scratch() {
        let (mut s, base) = base_query();
        let pool = variant_pool(&base, &domains(), 12).unwrap();
        for eq in pool {
            let (h, _) = s.answer_query(eq).unwrap();
            let scratch = s.cube(h).query().answer(s.instance()).unwrap();
            assert!(s.answer(h).same_cells(&scratch));
        }
    }

    #[test]
    fn zipf_sequence_is_seeded_and_skewed() {
        let a = zipf_sequence(50, 400, 1.1, 42);
        let b = zipf_sequence(50, 400, 1.1, 42);
        assert_eq!(a, b, "same seed, same sequence");
        let c = zipf_sequence(50, 400, 1.1, 43);
        assert_ne!(a, c, "different seed, different sequence");
        assert!(a.iter().all(|&i| i < 50));
        // Rank 0 dominates any deep-tail rank under s > 1.
        let hot = a.iter().filter(|&&i| i == 0).count();
        let cold = a.iter().filter(|&&i| i >= 40).count();
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }
}
