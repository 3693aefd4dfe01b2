//! `Multinomial::sample_into` against the per-call multinomial sampler it
//! replaced: identical counts and an identical RNG stream position for
//! any `n` and any probabilities, zero-probability categories included.

use memlat_dist::{Binomial, Discrete, Multinomial, ParamError};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

/// The sampler as it stood before `Multinomial` existed, kept verbatim
/// as the reference: validate, then one conditional binomial per
/// category with the conditional probability derived inside the loop.
fn reference_counts(n: u64, probs: &[f64], rng: &mut dyn RngCore) -> Result<Vec<u64>, ParamError> {
    if probs.is_empty() {
        return Err(ParamError::new("multinomial needs at least one category"));
    }
    let sum: f64 = probs.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(ParamError::new(format!(
            "probabilities must sum to 1, got {sum}"
        )));
    }
    for &p in probs {
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(ParamError::new(format!("probability out of range: {p}")));
        }
    }

    let mut counts = Vec::with_capacity(probs.len());
    let mut remaining = n;
    let mut remaining_p = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        if remaining == 0 {
            counts.push(0);
            continue;
        }
        if i == probs.len() - 1 {
            counts.push(remaining);
            remaining = 0;
            continue;
        }
        let cond = (p / remaining_p).clamp(0.0, 1.0);
        let c = Binomial::new(remaining, cond)
            .expect("validated conditional probability")
            .sample(rng);
        counts.push(c);
        remaining -= c;
        remaining_p = (remaining_p - p).max(f64::MIN_POSITIVE);
    }
    Ok(counts)
}

/// Normalizes raw weights into probabilities; a weight drawn below 0.3
/// becomes an exact zero, so about a third of the categories are empty.
/// `None` when every weight was zeroed.
fn probs_from(weights: &[f64]) -> Option<Vec<f64>> {
    let w: Vec<f64> = weights
        .iter()
        .map(|&x| if x < 0.3 { 0.0 } else { x })
        .collect();
    let sum: f64 = w.iter().sum();
    (sum > 0.0).then(|| w.iter().map(|&x| x / sum).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same counts, same number of draws consumed, over every binomial
    /// regime (Bernoulli counting, geometric skip, normal approximation).
    #[test]
    fn sample_into_matches_reference(
        n in 0u64..20_000,
        weights in proptest::collection::vec(0.0f64..1.0, 1..12),
        seed in 0u64..1_000_000,
        reps in 1usize..5,
    ) {
        let Some(probs) = probs_from(&weights) else {
            return Ok(());
        };
        let law = Multinomial::new(&probs).unwrap();
        prop_assert_eq!(law.categories(), probs.len());
        let mut a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = rand::rngs::StdRng::seed_from_u64(seed);
        let mut counts = vec![u64::MAX; probs.len()];
        for _ in 0..reps {
            let want = reference_counts(n, &probs, &mut a).unwrap();
            law.sample_into(n, &mut counts, &mut b);
            prop_assert_eq!(&counts, &want);
            prop_assert_eq!(counts.iter().sum::<u64>(), n);
            for (c, p) in counts.iter().zip(&probs) {
                prop_assert!(*p > 0.0 || *c == 0 || p == probs.last().unwrap());
            }
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The one-shot wrapper is the same sampler.
    #[test]
    fn wrapper_matches_reference(
        n in 0u64..2_000,
        weights in proptest::collection::vec(0.0f64..1.0, 1..8),
        seed in 0u64..1_000_000,
    ) {
        let Some(probs) = probs_from(&weights) else {
            return Ok(());
        };
        let mut a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = rand::rngs::StdRng::seed_from_u64(seed);
        let want = reference_counts(n, &probs, &mut a).unwrap();
        let got = memlat_dist::multinomial_counts(n, &probs, &mut b).unwrap();
        prop_assert_eq!(got, want);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }
}
