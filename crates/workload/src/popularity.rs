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
/// draw (one uniform and one 4-byte cell read per draw); larger ones
/// sample by rejection-inversion (`O(1)` per draw too, but several
/// transcendental calls and an expected >1 uniforms each). The cutoff
/// bounds the build cost and footprint at ~12 MB of table.
const ALIAS_MAX_KEYS: u64 = 1 << 20;

/// Low bits of an alias cell that hold a label; the high 8 hold the
/// cell's threshold `t`.
const LABEL_BITS: u32 = 24;

/// Mask of an alias cell's label bits.
const LABEL_MASK: u32 = (1 << LABEL_BITS) - 1;

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
///
/// Every `prob` lies in `[0, 1]`: it is either set to 1 or the mass a
/// cell had when it was paired as the small one (below 1), and no mass
/// goes negative, since a large cell's new mass is `(l + s) − 1` with
/// `l ≥ 1`, `s ≥ 0`, and the rounded sum of those is never below 1.
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
    // Peek before popping: popping both at once would drop the last
    // cell of the longer list unpaired, leaving it out of the `prob = 1`
    // pass below.
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        large.pop();
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

/// Walker/Vose alias sampler over an explicit non-negative weight
/// vector: one uniform and one 4-byte cell read per draw (and, for one
/// draw in 256, one 8-byte probability), regardless of the weight shape.
///
/// A draw picks cell `i` uniformly and returns `i`'s own label with
/// probability `prob[i]`, its alias's label otherwise. Each cell packs
/// `t = min(⌊256·prob[i]⌋, 255)` into its top 8 bits and the alias's
/// label into its low 24. Since `256·prob[i]` is exact in binary
/// floating point, `t/256 ≤ prob[i] < (t + 1)/256` (for `prob[i] = 1`,
/// every fraction below 1 is kept), so the cell alone decides every draw
/// whose fraction falls outside that 1/256-wide band; only inside it is
/// the exact `prob[i]` read, from a separate array that stays out of
/// cache. The draw is the same as the textbook two-array one for every
/// uniform.
///
/// A cell's own label is its index, or the label given to the
/// crate-internal labelled constructor (the key ids of
/// [`crate::routing::RoutedKeyspace`]'s per-server samplers); labels fit
/// in 24 bits, so a table has at most 2²⁴ cells. The same table serves
/// [`ZipfPopularity`]'s full-keyspace draws. Construction here does not
/// touch the [`alias_builds`] counter — that counter audits the
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
    /// Per cell: `t` in the top 8 bits, the alias's label in the low 24.
    cells: Vec<u32>,
    /// Per cell: its own label, read only when the draw keeps the cell;
    /// empty when every cell's label is its index.
    labels: Vec<u32>,
    /// Per cell: the exact keep probability, read only when the draw's
    /// fraction falls in the cell's band `[t/256, (t + 1)/256)`.
    prob: Vec<f64>,
}

impl WeightedAlias {
    /// Builds the table from raw weights in `O(n)`; weights need not be
    /// normalized. Cell `i`'s label is `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `weights` is empty, holds a negative or
    /// non-finite entry, sums to zero, or exceeds 2²⁴ entries.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        Ok(Self::pack(Self::scaled(weights)?, Vec::new()))
    }

    /// Builds the table from raw weights with cell `i` labelled
    /// `labels[i]`, so that draws return labels rather than indices.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), and if `labels` and `weights` differ in
    /// length or a label does not fit in 24 bits.
    pub(crate) fn with_labels(weights: &[f64], labels: Vec<u32>) -> Result<Self, ParamError> {
        if labels.len() != weights.len() {
            return Err(ParamError::new("alias labels must match the weights"));
        }
        if labels.iter().any(|&l| l > LABEL_MASK) {
            return Err(ParamError::new("alias labels limited to 24 bits"));
        }
        Ok(Self::pack(Self::scaled(weights)?, labels))
    }

    /// The exact two-array table — `(prob, alias)`, the alias by cell
    /// index — that [`new`](Self::new) packs. A reference for checking
    /// the packed draw; samplers never need it.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    #[doc(hidden)]
    pub fn exact_table(weights: &[f64]) -> Result<(Vec<f64>, Vec<u32>), ParamError> {
        Ok(vose(Self::scaled(weights)?))
    }

    /// Validates `weights` and scales them to masses summing to `n`.
    fn scaled(weights: &[f64]) -> Result<Vec<f64>, ParamError> {
        if weights.is_empty() {
            return Err(ParamError::new("alias weights must be non-empty"));
        }
        if weights.len() > 1 << LABEL_BITS {
            return Err(ParamError::new("alias table limited to 2^24 cells"));
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
        Ok(weights.iter().map(|&w| w / total * n as f64).collect())
    }

    /// Runs Vose over pre-scaled masses (at most 2²⁴ of them) and packs
    /// each alias, in place, into a cell with its threshold. `labels` is
    /// empty (a cell's label is its index) or one 24-bit label per cell.
    fn pack(scaled: Vec<f64>, labels: Vec<u32>) -> Self {
        debug_assert!(scaled.len() <= 1 << LABEL_BITS);
        let (prob, mut cells) = vose(scaled);
        for (cell, &p) in cells.iter_mut().zip(&prob) {
            let alias = *cell;
            let label = labels.get(alias as usize).copied().unwrap_or(alias);
            let t = ((p * 256.0) as u32).min(255);
            *cell = t << LABEL_BITS | label;
        }
        Self {
            cells,
            labels,
            prob,
        }
    }

    /// Number of cells (= number of weights).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the table has no cells (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Every cell's own label, in cell order (empty when the labels are
    /// the indices).
    pub(crate) fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Draws a cell's label (its index, unless labelled) from one
    /// uniform.
    #[inline]
    #[must_use]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        self.draw_at(memlat_dist::open_unit(rng) * self.cells.len() as f64)
    }

    /// The draw [`sample`](Self::sample) makes from the scaled uniform
    /// `x = u·n` in `[0, n]`: cell `i = min(⌊x⌋, n − 1)`, kept iff
    /// `x − i < prob[i]`.
    #[doc(hidden)]
    #[inline]
    #[must_use]
    pub fn draw_at(&self, x: f64) -> usize {
        let n = self.cells.len();
        let i = (x as usize).min(n - 1);
        let v = x - i as f64;
        let cell = self.cells[i];
        let t = cell >> LABEL_BITS;
        // `⌊256·v⌋` is exact: below `t` the fraction is under `prob[i]`,
        // above it at or past it, and equal only inside the band.
        let band = (v * 256.0) as u32;
        let keep = if band == t {
            v < self.prob[i]
        } else {
            band < t
        };
        if !keep {
            (cell & LABEL_MASK) as usize
        } else if self.labels.is_empty() {
            i
        } else {
            self.labels[i] as usize
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
/// Key spaces up to 2²⁰ keys sample through a [`WeightedAlias`] table —
/// one uniform and one 4-byte cell read per draw; larger spaces fall back
/// to table-free rejection-inversion. The two samplers realize the same
/// pmf but consume the RNG stream differently, so which one is active is
/// a function of the key space alone, never of the call site.
///
/// The alias table (12 bytes per key, ~12 MB at 2²⁰ keys: the 4-byte
/// cells every draw reads, and the 8-byte probabilities one draw in 256
/// reads) is built by the first [`sample_key`](Self::sample_key) call,
/// not by [`new`](Self::new): a population that is only read through
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
    alias: OnceLock<WeightedAlias>,
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
            self.alias.get_or_init(|| self.build_alias()).sample(rng) as KeyId
        } else {
            self.zipf.sample_with(rng) - 1
        }
    }

    /// Builds the alias table from the pmf in `O(n)` (Vose's method).
    fn build_alias(&self) -> WeightedAlias {
        ALIAS_BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = self.zipf.n();
        WeightedAlias::pack(
            (1..=n).map(|k| self.zipf.pmf(k) * n as f64).collect(),
            Vec::new(),
        )
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
        let n = table.len();
        let mut implied = vec![0.0f64; n];
        for i in 0..n {
            implied[i] += table.prob[i] / n as f64;
            implied[(table.cells[i] & LABEL_MASK) as usize] += (1.0 - table.prob[i]) / n as f64;
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

    /// Fractions where a packed cell and the exact probability could
    /// disagree: both band edges, the probability itself, and 0 and 1.
    fn probe_fractions(p: f64) -> [f64; 5] {
        let t = (p * 256.0).floor().min(255.0);
        [0.0, p, t / 256.0, (t + 1.0) / 256.0, 1.0]
    }

    #[test]
    fn zipf_table_draws_match_the_exact_two_array_draw() {
        let pop = ZipfPopularity::new(3_000, 0.99).unwrap();
        let _ = pop.sample_key(&mut rand::rngs::StdRng::seed_from_u64(0));
        let table = pop.alias.get().unwrap();
        let n = pop.keys();
        let (prob, alias) = vose((1..=n).map(|k| pop.zipf.pmf(k) * n as f64).collect());
        assert_eq!(table.prob, prob);
        for (i, &p) in prob.iter().enumerate() {
            assert!((0.0..=1.0).contains(&p), "cell {i}: prob {p}");
            for v in probe_fractions(p) {
                let x = i as f64 + v;
                let j = (x as usize).min(prob.len() - 1);
                let exact = if x - (j as f64) < prob[j] {
                    j
                } else {
                    alias[j] as usize
                };
                assert_eq!(table.draw_at(x), exact, "cell {i} fraction {v}");
            }
        }
    }

    #[test]
    fn labelled_draws_return_the_labels_of_unlabelled_draws() {
        let weights = [0.5, 0.0, 7.0, 1.5, 2.0, 0.25];
        let labels: Vec<u32> = vec![3, 8, 9, 40, 1 << 20, (1 << 24) - 1];
        let plain = WeightedAlias::new(&weights).unwrap();
        let labelled = WeightedAlias::with_labels(&weights, labels.clone()).unwrap();
        assert_eq!(labelled.labels(), labels.as_slice());
        assert!(plain.labels().is_empty());
        for i in 0..weights.len() {
            for v in probe_fractions(plain.prob[i]) {
                let x = i as f64 + v;
                assert_eq!(labelled.draw_at(x), labels[plain.draw_at(x)] as usize);
            }
        }
        assert!(WeightedAlias::with_labels(&[1.0], vec![1 << 24]).is_err());
        assert!(WeightedAlias::with_labels(&[1.0, 2.0], vec![0]).is_err());
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
