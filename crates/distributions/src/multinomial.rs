//! Multinomial count sampling — how the `N` keys of one request split
//! across servers.

use rand::RngCore;

use crate::{Binomial, Discrete, ParamError};

/// A multinomial law over fixed category probabilities, validated once.
///
/// Used by the simulator's request assembler: an end-user request's `N`
/// keys split across the `M` memcached servers according to the load
/// distribution `{p_j}` (§4.3.2 of the paper). Validating the
/// probabilities and deriving the conditional binomial parameters at
/// construction keeps the per-request draw free of re-validation and
/// allocation: [`Multinomial::sample_into`] fills a caller's buffer.
///
/// Sampling is the standard conditional-binomial decomposition, `O(M)`
/// per draw regardless of `n`. It is exact only as far as each
/// [`Binomial`] draw is: a split with `n·min(p, 1−p) > 30` takes the
/// binomial's rounded-normal approximation, which every split of
/// `N = 150` keys over four equal servers does (`n·min(p, 1−p)` ≈ 37.5
/// at each split). The counts then follow a clamped, rounded normal
/// with the binomial's mean and variance, not the binomial itself.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let law = memlat_dist::Multinomial::new(&[0.25; 4])?;
/// let mut counts = [0u64; 4];
/// law.sample_into(150, &mut counts, &mut rng);
/// assert_eq!(counts.iter().sum::<u64>(), 150);
/// # Ok::<(), memlat_dist::ParamError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Multinomial {
    /// `p_i / (1 − Σ_{k<i} p_k)` for every category but the last, which
    /// takes whatever trials remain.
    cond: Vec<f64>,
}

impl Multinomial {
    /// Creates the law over category probabilities `probs` (which must
    /// sum to 1 within 1e-9).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `probs` is empty, contains values outside
    /// `[0, 1]`, or does not sum to 1.
    pub fn new(probs: &[f64]) -> Result<Self, ParamError> {
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
        // The remaining mass depends only on `probs`, never on the draws
        // (once no trials remain, later probabilities go unused), so every
        // conditional probability can be fixed here.
        let mut remaining_p = 1.0f64;
        let cond = probs[..probs.len() - 1]
            .iter()
            .map(|&p| {
                let c = (p / remaining_p).clamp(0.0, 1.0);
                remaining_p = (remaining_p - p).max(f64::MIN_POSITIVE);
                c
            })
            .collect();
        Ok(Self { cond })
    }

    /// Number of categories.
    #[must_use]
    pub fn categories(&self) -> usize {
        self.cond.len() + 1
    }

    /// Draws how many of `n` trials land in each category into `counts`.
    ///
    /// Categories are drawn in order, one binomial each until no trials
    /// remain; the last category takes the rest without a draw.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len()` differs from [`Multinomial::categories`].
    pub fn sample_into(&self, n: u64, counts: &mut [u64], rng: &mut dyn RngCore) {
        assert_eq!(
            counts.len(),
            self.categories(),
            "counts buffer must have one slot per category"
        );
        let (last, head) = counts.split_last_mut().expect("at least one category");
        let mut remaining = n;
        for (count, &p) in head.iter_mut().zip(&self.cond) {
            *count = if remaining == 0 {
                0
            } else {
                let c = Binomial::new(remaining, p)
                    .expect("validated conditional probability")
                    .sample(rng);
                remaining -= c;
                c
            };
        }
        *last = remaining;
    }
}

/// Draws multinomial counts: how many of `n` trials land in each category,
/// with category probabilities `probs` (which must sum to 1 within 1e-9).
///
/// A one-shot form of [`Multinomial`]: it validates `probs` and allocates
/// on every call, so repeated draws over the same probabilities should
/// build the law once and use [`Multinomial::sample_into`].
///
/// # Errors
///
/// Returns [`ParamError`] if `probs` is empty, contains values outside
/// `[0, 1]`, or does not sum to 1.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let counts = memlat_dist::multinomial_counts(150, &[0.25; 4], &mut rng)?;
/// assert_eq!(counts.iter().sum::<u64>(), 150);
/// # Ok::<(), memlat_dist::ParamError>(())
/// ```
pub fn multinomial_counts(
    n: u64,
    probs: &[f64],
    rng: &mut dyn RngCore,
) -> Result<Vec<u64>, ParamError> {
    let law = Multinomial::new(probs)?;
    let mut counts = vec![0; law.categories()];
    law.sample_into(n, &mut counts, rng);
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_probs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(multinomial_counts(10, &[], &mut rng).is_err());
        assert!(multinomial_counts(10, &[0.5, 0.4], &mut rng).is_err());
        assert!(multinomial_counts(10, &[1.5, -0.5], &mut rng).is_err());
        assert!(multinomial_counts(10, &[f64::NAN, 1.0], &mut rng).is_err());
    }

    #[test]
    fn counts_always_sum_to_n() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for n in [0u64, 1, 7, 150, 10_000] {
            let c = multinomial_counts(n, &[0.6, 0.25, 0.1, 0.05], &mut rng).unwrap();
            assert_eq!(c.iter().sum::<u64>(), n, "n={n}");
            assert_eq!(c.len(), 4);
        }
    }

    #[test]
    fn marginals_are_binomial_means() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let probs = [0.7, 0.2, 0.1];
        let reps = 50_000;
        let mut sums = [0.0f64; 3];
        for _ in 0..reps {
            let c = multinomial_counts(100, &probs, &mut rng).unwrap();
            for (s, &v) in sums.iter_mut().zip(&c) {
                *s += v as f64;
            }
        }
        for (j, &p) in probs.iter().enumerate() {
            let mean = sums[j] / reps as f64;
            assert!((mean - 100.0 * p).abs() < 0.5, "j={j} mean={mean}");
        }
    }

    #[test]
    fn degenerate_category_gets_everything() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let c = multinomial_counts(42, &[0.0, 1.0, 0.0], &mut rng).unwrap();
        assert_eq!(c, vec![0, 42, 0]);
    }

    #[test]
    fn unbalanced_paper_shape() {
        // Fig. 10's shape: p1 large, the rest split evenly.
        let p1 = 0.75;
        let rest = (1.0 - p1) / 3.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let c = multinomial_counts(150, &[p1, rest, rest, rest], &mut rng).unwrap();
        assert_eq!(c.iter().sum::<u64>(), 150);
        assert!(c[0] > c[1] && c[0] > c[2] && c[0] > c[3]);
    }

    #[test]
    #[should_panic(expected = "one slot per category")]
    fn sample_into_checks_buffer_length() {
        let law = Multinomial::new(&[0.5, 0.5]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        law.sample_into(3, &mut [0; 3], &mut rng);
    }
}
