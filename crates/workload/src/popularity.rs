//! Key popularity — the skew behind the unbalanced load distribution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use memlat_dist::{Discrete, ParamError, Zipf};
use rand::RngCore;

use crate::KeyId;

/// Process-wide count of alias-table constructions, for asserting that
/// sweep/simulation layers reuse cached tables instead of rebuilding a
/// multi-megabyte table per sweep point, and that runs which never draw
/// from the full key space build none (see [`alias_builds`]).
static ALIAS_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of alias tables built by this process so far. A table is
/// built by the first [`ZipfPopularity::sample_key`] call on an
/// alias-sized population, not by its construction.
///
/// Monotone counter; take a snapshot before the code under test and diff
/// after. Tests asserting exact counts should run in their own process
/// (their own integration-test binary) to avoid cross-test interference.
#[must_use]
pub fn alias_builds() -> u64 {
    ALIAS_BUILDS.load(Ordering::Relaxed)
}

/// Key spaces up to this size get an alias table, built by the first
/// draw (one uniform, two array reads per draw); larger ones sample by
/// rejection-inversion (`O(1)` per draw too, but several transcendental
/// calls and an expected >1 uniforms each). The cutoff bounds the build
/// cost and footprint at ~16 MB of table.
const ALIAS_MAX_KEYS: u64 = 1 << 20;

/// Walker/Vose alias table: draw cell `i` uniformly, then return `i`
/// itself with probability `prob[i]` and its alias otherwise.
#[derive(Debug, Clone)]
struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

/// Vose's `O(n)` table construction over pre-scaled masses (each cell's
/// probability mass times `n`), returning `(prob, alias)`.
///
/// `scaled` becomes `prob` in place: a cell's mass is final when it is
/// paired (only the large cell of a pair changes), so pairing leaves it
/// as the cell's probability. Cells left on whichever worklist drains
/// last are within rounding of exactly 1; they get `prob = 1` and keep
/// `alias = self`. Neither worklist ever holds more cells than it
/// started with (each step pops one from each and pushes one back), so
/// both are allocated once at their starting size.
fn vose(mut scaled: Vec<f64>) -> (Vec<f64>, Vec<u32>) {
    let n = u32::try_from(scaled.len()).expect("alias table limited to u32::MAX cells");
    let mut alias: Vec<u32> = (0..n).collect();
    let smalls = scaled.iter().filter(|&&s| s < 1.0).count();
    let mut small: Vec<u32> = Vec::with_capacity(smalls);
    let mut large: Vec<u32> = Vec::with_capacity(scaled.len() - smalls);
    for (i, &s) in (0..n).zip(&scaled) {
        if s < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
        alias[s as usize] = l;
        let mass = (scaled[l as usize] + scaled[s as usize]) - 1.0;
        scaled[l as usize] = mass;
        if mass < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    for &i in small.iter().chain(&large) {
        scaled[i as usize] = 1.0;
    }
    (scaled, alias)
}

impl AliasTable {
    /// Builds the table from the Zipf pmf in `O(n)` (Vose's method).
    fn build(zipf: &Zipf) -> Self {
        ALIAS_BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = usize::try_from(zipf.n()).expect("alias key space fits usize");
        let (prob, alias) = vose((1..=zipf.n()).map(|k| zipf.pmf(k) * n as f64).collect());
        Self { prob, alias }
    }

    /// Draws a 0-based key id from one uniform.
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> KeyId {
        let n = self.prob.len();
        let x = memlat_dist::open_unit(rng) * n as f64;
        let i = (x as usize).min(n - 1);
        let v = x - i as f64;
        if v < self.prob[i] {
            i as KeyId
        } else {
            KeyId::from(self.alias[i])
        }
    }
}

/// Walker/Vose alias sampler over an explicit non-negative weight
/// vector: one uniform and two array reads per draw, regardless of the
/// weight shape.
///
/// This is the general-purpose sibling of the private Zipf alias table:
/// it powers conditional key populations (e.g. the keys a single server
/// owns under consistent-hash routing, see
/// [`crate::routing::RoutedKeyspace`]) where the weights are an
/// arbitrary subset of a pmf rather than a full Zipf law. Construction
/// does not touch the [`alias_builds`] counter — that counter audits the
/// multi-megabyte full-keyspace tables only.
///
/// # Examples
///
/// ```
/// use memlat_workload::WeightedAlias;
/// use rand::SeedableRng;
///
/// let table = WeightedAlias::new(&[3.0, 1.0]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let i = table.sample(&mut rng);
/// assert!(i < 2);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedAlias {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl WeightedAlias {
    /// Builds the table from raw weights in `O(n)`; weights need not be
    /// normalized.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `weights` is empty, holds a negative or
    /// non-finite entry, sums to zero, or exceeds `u32::MAX` entries.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError::new("alias weights must be non-empty"));
        }
        if weights.len() > u32::MAX as usize {
            return Err(ParamError::new("alias table limited to u32::MAX cells"));
        }
        let mut total = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(ParamError::new("alias weights must be finite and >= 0"));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ParamError::new("alias weights must have positive mass"));
        }
        let n = weights.len();
        let (prob, alias) = vose(weights.iter().map(|&w| w / total * n as f64).collect());
        Ok(Self { prob, alias })
    }

    /// Number of cells (= number of weights).
    #[must_use]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has no cells (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a 0-based cell index from one uniform.
    #[inline]
    #[must_use]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let x = memlat_dist::open_unit(rng) * n as f64;
        let i = (x as usize).min(n - 1);
        let v = x - i as f64;
        if v < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// A Zipf-popular key population: rank 1 is the hottest key.
///
/// The paper's §2.1 observation — "a small percentage of values are
/// accessed quite frequently, while the rest numerous ones are accessed
/// only a handful of times" — is what this type generates. Feeding it
/// through a [`crate::ConsistentHashRing`] yields an emergent unbalanced
/// `{p_j}`, the simulator's alternative to imposing shares directly.
///
/// Key spaces up to 2²⁰ keys sample through a Walker alias table — one
/// uniform and two array reads per draw; larger spaces fall back to
/// table-free rejection-inversion. The two samplers realize the same pmf but
/// consume the RNG stream differently, so which one is active is a
/// function of the key space alone, never of the call site.
///
/// The alias table (12 bytes per key, ~12 MB at 2²⁰ keys) is built by
/// the first [`sample_key`](Self::sample_key) call, not by
/// [`new`](Self::new): a population that is only read through
/// [`access_probability`](Self::access_probability) — the
/// consistent-hash ring walk of [`crate::RoutedKeyspace`] — never
/// builds one. The build is `O(keys)` and happens once per population,
/// also when several threads draw from one shared handle.
///
/// # Examples
///
/// ```
/// use memlat_workload::ZipfPopularity;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let pop = ZipfPopularity::new(1_000_000, 1.01)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let key = pop.sample_key(&mut rng);
/// assert!(key < 1_000_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ZipfPopularity {
    zipf: Zipf,
    /// Filled by the first draw when `uses_alias_table()`; empty forever
    /// otherwise.
    alias: OnceLock<AliasTable>,
}

impl ZipfPopularity {
    /// Creates a population of `keys` keys with Zipf exponent `skew`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for an empty key space or negative skew.
    pub fn new(keys: u64, skew: f64) -> Result<Self, ParamError> {
        Ok(Self {
            zipf: Zipf::new(keys, skew)?,
            alias: OnceLock::new(),
        })
    }

    /// Key-space size.
    #[must_use]
    pub fn keys(&self) -> u64 {
        self.zipf.n()
    }

    /// The Zipf exponent.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.zipf.exponent()
    }

    /// Whether draws go through the `O(1)`-uniform alias table (small
    /// key spaces) or rejection-inversion (large ones). True from
    /// construction on, before the table is built by the first draw.
    #[must_use]
    pub fn uses_alias_table(&self) -> bool {
        self.zipf.n() <= ALIAS_MAX_KEYS
    }

    /// Samples a key; hot keys (low ids) are sampled more often.
    ///
    /// Returned ids are 0-based (`rank − 1`).
    #[inline]
    #[must_use]
    pub fn sample_key<R: RngCore + ?Sized>(&self, rng: &mut R) -> KeyId {
        if self.uses_alias_table() {
            self.alias
                .get_or_init(|| AliasTable::build(&self.zipf))
                .sample(rng)
        } else {
            self.zipf.sample_with(rng) - 1
        }
    }

    /// Probability that a single access hits the given key id.
    #[must_use]
    pub fn access_probability(&self, key: KeyId) -> f64 {
        self.zipf.pmf(key + 1)
    }

    /// Fraction of accesses landing on the hottest `n` keys.
    #[must_use]
    pub fn head_mass(&self, n: u64) -> f64 {
        self.zipf.cdf(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hot_keys_dominate() {
        let pop = ZipfPopularity::new(10_000, 1.0).unwrap();
        assert!(pop.access_probability(0) > pop.access_probability(1));
        // With exponent 1, the top 100 of 10k keys draw roughly half the
        // traffic.
        let head = pop.head_mass(100);
        assert!(head > 0.4 && head < 0.6, "head={head}");
    }

    #[test]
    fn sample_respects_bounds_and_skew() {
        let pop = ZipfPopularity::new(1000, 1.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut hot = 0;
        let n = 50_000;
        for _ in 0..n {
            let k = pop.sample_key(&mut rng);
            assert!(k < 1000);
            if k < 10 {
                hot += 1;
            }
        }
        let frac = f64::from(hot) / f64::from(n);
        let expect = pop.head_mass(10);
        assert!((frac - expect).abs() < 0.02, "frac={frac} expect={expect}");
    }

    #[test]
    fn large_keyspace_stays_on_rejection_inversion() {
        // An ETC-sized pool: Zipf(1.01) over 50 M keys.
        let pop = ZipfPopularity::new(50_000_000, 1.01).unwrap();
        assert_eq!(pop.keys(), 50_000_000);
        assert!(pop.skew() > 1.0);
        // Too large for a table: stays on rejection-inversion.
        assert!(!pop.uses_alias_table());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        assert!(pop.sample_key(&mut rng) < pop.keys());
    }

    #[test]
    fn alias_table_reconstructs_the_pmf_exactly() {
        // The table is a redistribution of the pmf: summing each cell's
        // kept and aliased mass must give the pmf back to rounding.
        let pop = ZipfPopularity::new(10_000, 1.01).unwrap();
        assert!(pop.uses_alias_table());
        let _ = pop.sample_key(&mut rand::rngs::StdRng::seed_from_u64(0));
        let table = pop.alias.get().unwrap();
        let n = table.prob.len();
        let mut implied = vec![0.0f64; n];
        for i in 0..n {
            implied[i] += table.prob[i] / n as f64;
            implied[table.alias[i] as usize] += (1.0 - table.prob[i]) / n as f64;
        }
        for (i, &m) in implied.iter().enumerate() {
            let exact = pop.access_probability(i as u64);
            assert!(
                (m - exact).abs() <= 1e-12 + 1e-9 * exact,
                "key {i}: implied {m} vs pmf {exact}"
            );
        }
    }

    #[test]
    fn alias_sampler_matches_rejection_sampler_statistically() {
        // Same pmf, different draw mechanics: empirical head masses from
        // the alias path must agree with the rejection-inversion path.
        let pop = ZipfPopularity::new(5_000, 1.01).unwrap();
        assert!(pop.uses_alias_table());
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let n = 100_000;
        let mut head_alias = 0u32;
        for _ in 0..n {
            if pop.sample_key(&mut rng) < 50 {
                head_alias += 1;
            }
        }
        let mut head_rej = 0u32;
        for _ in 0..n {
            if pop.zipf.sample_with(&mut rng) - 1 < 50 {
                head_rej += 1;
            }
        }
        let fa = f64::from(head_alias) / f64::from(n);
        let fr = f64::from(head_rej) / f64::from(n);
        let expect = pop.head_mass(50);
        assert!((fa - expect).abs() < 0.01, "alias {fa} vs {expect}");
        assert!((fa - fr).abs() < 0.015, "alias {fa} vs rejection {fr}");
    }

    #[test]
    fn build_counter_increments() {
        // The counter is process-wide and other unit tests build tables
        // concurrently, so only the table's own presence is exact.
        let pop = ZipfPopularity::new(1_000, 1.0).unwrap();
        assert!(pop.uses_alias_table());
        let before = alias_builds();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let _ = pop.sample_key(&mut rng);
        assert!(pop.alias.get().is_some());
        assert!(alias_builds() > before);
    }

    #[test]
    fn construction_alone_builds_no_table() {
        let pop = ZipfPopularity::new(1_000, 1.0).unwrap();
        assert!(pop.uses_alias_table());
        assert!(pop.alias.get().is_none());
        assert!(pop.access_probability(0) > pop.access_probability(1));
        assert!(pop.alias.get().is_none());
    }

    #[test]
    fn rejects_bad_params() {
        assert!(ZipfPopularity::new(0, 1.0).is_err());
        assert!(ZipfPopularity::new(10, -0.5).is_err());
    }

    #[test]
    fn weighted_alias_matches_weights_statistically() {
        let weights = [5.0, 0.0, 1.0, 3.0, 1.0];
        let total: f64 = weights.iter().sum();
        let table = WeightedAlias::new(&weights).unwrap();
        assert_eq!(table.len(), weights.len());
        assert!(!table.is_empty());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let n = 200_000usize;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight cell must never be drawn");
        for (i, &c) in counts.iter().enumerate() {
            let expect = weights[i] / total;
            let got = c as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "cell {i}: got {got} expect {expect}"
            );
        }
    }

    #[test]
    fn weighted_alias_skips_the_build_counter() {
        // The counter audits full-keyspace Zipf tables; subset samplers
        // (one per server per routed config) must not pollute it.
        let before = alias_builds();
        let _t = WeightedAlias::new(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(alias_builds(), before);
    }

    #[test]
    fn weighted_alias_rejects_bad_weights() {
        assert!(WeightedAlias::new(&[]).is_err());
        assert!(WeightedAlias::new(&[0.0, 0.0]).is_err());
        assert!(WeightedAlias::new(&[1.0, -0.5]).is_err());
        assert!(WeightedAlias::new(&[1.0, f64::NAN]).is_err());
        assert!(WeightedAlias::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn alias_sampler_passes_chi_square_across_skews() {
        // Sharp distributional conformance: the alias path's draws
        // against the exact normalized PMF, over a small skew grid
        // spanning sub-Zipf, the paper's 0.99, and super-Zipf.
        for &skew in &[0.7, 0.99, 1.2] {
            let keys = 2_000u64;
            let pop = ZipfPopularity::new(keys, skew).unwrap();
            assert!(pop.uses_alias_table());
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xa11a5 ^ skew.to_bits());
            let n = 30_000usize;
            // Head ranks individually, tail pooled, so every expected
            // count stays well above the chi-square small-cell floor.
            let head = 30usize;
            let mut observed = vec![0u64; head + 1];
            for _ in 0..n {
                let k = pop.sample_key(&mut rng) as usize;
                observed[k.min(head)] += 1;
            }
            let mut expected: Vec<f64> = (0..head as u64)
                .map(|k| n as f64 * pop.access_probability(k))
                .collect();
            let tail: f64 = (head as u64..keys).map(|k| pop.access_probability(k)).sum();
            expected.push(n as f64 * tail);
            let test = memlat_stats::gof::chi_square(&observed, &expected, 0);
            assert!(
                test.passes(0.01),
                "skew {skew}: χ² = {:.2}, p = {:.5}",
                test.statistic,
                test.p_value
            );
        }
    }
}
