//! Request assembly: from per-key samples to end-user request latency.
//!
//! The paper's testbed measures per-key traffic and treats an end-user
//! request as a logical group of `N` keys split multinomially over the
//! servers (§4.3.2); the request completes when its slowest key does.
//! This module performs that assembly over the simulator's per-key
//! records: for each synthetic request, draw per-server key counts
//! `Multinomial(N, {p_j})`, sample that many `(s, d)` outcomes from each
//! server's recorded population (uniformly, with replacement), and take
//! the maxima.
//!
//! # Order statistics instead of one record per key
//!
//! Sampling per-key outcomes independently matches the model's
//! independence assumption (eq. 10), and its product form (eqs. 10–12,
//! `P{T_S(N) ≤ t} = Π_j F_j(t)^{n_j}`) says that a request only needs
//! each server's *maximum*, not every pick. For a server `j` that gets
//! `c` of a request's keys, holding `L` records of which `m` missed and
//! `H = L − m` hit:
//!
//! - each pick misses independently with probability `m/L`, so the
//!   number of missed picks is `K ~ Bin(c, m/L)`, drawn by inverting its
//!   pmf from one uniform;
//! - the `c − K` hit picks are iid uniform over the hits, so the rank of
//!   their maximum in the hits' sorted order has
//!   `P{rank ≤ r} = (r/H)^{c−K}`, and `⌈H·U^{1/(c−K)}⌉` draws it from one
//!   uniform `U`;
//! - the `K` missed picks are iid uniform over the missed records, and
//!   are drawn one by one (about 1.5 per request of `N = 150` at a 1%
//!   miss ratio). Only they carry a database latency.
//!
//! Each request therefore costs `O(M + K)` draws instead of `O(N)`.
//! Given the per-server counts, the draw is exact in distribution for
//! with-replacement picks: `T_S`, `T_D` and `T` keep the law the
//! pick-every-key loop gives them. The counts themselves are not exactly
//! multinomial: [`Multinomial`] splits them by conditional binomials,
//! and `Binomial` takes a rounded normal whenever
//! `n·min(p, 1−p) > 30` — every split at `N = 150` over four servers.
//! The pick-every-key reference draws the same counts, so the two agree
//! with each other, and both carry that approximation.
//!
//! Sorting every hit would cost a full copy of the `s` column, so a
//! [`RequestAssembler`] keeps only the **top tail**: the hits at or above
//! a value threshold `τ`, at least one in eight, chosen by one histogram
//! pass over the `f32` bits. A rank that lands in the tail reads its
//! value there. A rank below the tail (probability at most
//! `(7/8)^{c−K}`, under 1% at Table 3's `c ≈ 37`) means every hit pick
//! lies below `τ`;
//! conditioned on that, the picks are iid uniform over the hits below
//! `τ`, so they are drawn by rejection from the full columns (rejecting
//! misses and records at or above `τ`) and folded one by one. That
//! fallback keeps the per-server draw exact for any `c`, `N = 1`
//! included.
//!
//! The [`crate::e2e`] mode exists to measure what the independence
//! assumption costs.

use memlat_dist::simd::{dexp, dln};
use memlat_dist::{open_unit, Multinomial};
use memlat_stats::{ConfidenceInterval, StreamingStats};
use rand::RngCore;

use crate::{columns::KeyColumns, sim::SimOutput};

/// One assembled end-user request: the value of
/// [`RequestAssembler::draw`], which [`assemble_requests`] folds into
/// [`RequestStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSample {
    /// End-user latency `T(N) = T_net + max_i(s_i + d_i)`.
    pub total: f64,
    /// `T_S(N) = max_i s_i`.
    pub ts_max: f64,
    /// `T_D(N) = max_i d_i` (0 when no key missed).
    pub td_max: f64,
}

/// Aggregated request statistics (means with 95% confidence intervals —
/// the quantities of the paper's Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestStats {
    /// Mean and CI of the end-user latency `T(N)`.
    pub total: ConfidenceInterval,
    /// Mean and CI of `T_S(N)`.
    pub ts: ConfidenceInterval,
    /// Mean and CI of `T_D(N)`.
    pub td: ConfidenceInterval,
    /// The constant network latency `T_N(N)`.
    pub network: f64,
    /// Number of assembled requests.
    pub requests: usize,
}

impl std::fmt::Display for RequestStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "T_N(N) = {:>9.1} µs (constant)", self.network * 1e6)?;
        writeln!(
            f,
            "T_S(N) = {:>9.1} µs  CI [{:.1}, {:.1}] µs",
            self.ts.mean * 1e6,
            self.ts.lower * 1e6,
            self.ts.upper * 1e6
        )?;
        writeln!(
            f,
            "T_D(N) = {:>9.1} µs  CI [{:.1}, {:.1}] µs",
            self.td.mean * 1e6,
            self.td.lower * 1e6,
            self.td.upper * 1e6
        )?;
        write!(
            f,
            "T(N)   = {:>9.1} µs  CI [{:.1}, {:.1}] µs  ({} requests)",
            self.total.mean * 1e6,
            self.total.lower * 1e6,
            self.total.upper * 1e6,
            self.requests
        )
    }
}

impl RequestStats {
    /// Folds per-request draws into means with 95% confidence intervals.
    fn fold(network: f64, samples: impl Iterator<Item = RequestSample>) -> Self {
        let mut total = StreamingStats::new();
        let mut ts = StreamingStats::new();
        let mut td = StreamingStats::new();
        for r in samples {
            total.push(r.total);
            ts.push(r.ts_max);
            td.push(r.td_max);
        }
        Self {
            total: ConfidenceInterval::for_mean(&total, 0.95),
            ts: ConfidenceInterval::for_mean(&ts, 0.95),
            td: ConfidenceInterval::for_mean(&td, 0.95),
            network,
            requests: total.count() as usize,
        }
    }
}

/// Maps an `f32`'s bits to its histogram bin: the sign, the exponent and
/// the top four mantissa bits. For non-negative values the bins are
/// ordered like the values, and one bin spans at most 1/16 of its
/// values' magnitude.
const BIN_SHIFT: u32 = 19;

/// About one hit in `TAIL_FRACTION` (at least that many) is kept, sorted,
/// in a server's tail.
const TAIL_FRACTION: u64 = 8;

/// Lowest `ln P{K = 0}` one pmf inversion starts from. Larger counts are
/// split into chunks of independent binomials so that the first pmf term
/// stays a normal `f64`, far inside [`dexp`]'s domain.
const MIN_LN_PMF0: f64 = -600.0;

/// Most trial counts a server tables `P{K = 0}` for (see
/// [`Population::new`]); inversions over more trials evaluate it
/// directly, so an enormous `n` cannot make the table enormous.
const MAX_PMF0_TABLE: u64 = 1 << 10;

/// One server's records as assembly reads them.
struct Population<'a> {
    /// The full `s` column, read only by the below-tail fallback.
    s: &'a [f32],
    /// The full `d` column, read only by the below-tail fallback.
    d: &'a [f32],
    /// The `(s, d)` pair of every record that missed (`d.to_bits() != 0`).
    missed: Vec<(f32, f32)>,
    /// Number of hits `H`.
    hits: u64,
    /// Tail threshold: a hit is in the tail iff `s.to_bits() >= tau`.
    tau: u32,
    /// The bits of every hit in the tail, ascending: the top
    /// `tail.len()` of the hits' sorted order.
    tail: Vec<u32>,
    /// `ln(1 − m/L)`, for the pmf of the missed-pick count.
    ln_hit_p: f64,
    /// `(m/L) / (1 − m/L)`, the ratio of successive pmf terms' odds.
    odds: f64,
    /// Most trials one pmf inversion covers (see [`MIN_LN_PMF0`]).
    chunk: u64,
    /// `pmf0[t] = P{K = 0}` for `t` trials, `dexp(t·ln_hit_p)`, for every
    /// `t` one inversion can start from, `t ≤ min(n, chunk)`, up to
    /// [`MAX_PMF0_TABLE`].
    pmf0: Vec<f64>,
}

impl<'a> Population<'a> {
    /// Splits `cols` into its missed pairs and its hit tail, using
    /// `hist` (one slot per bin) as scratch, for requests of `n` keys.
    fn new(cols: &'a KeyColumns, n: u64, hist: &mut [u32]) -> Self {
        let (s, d) = (cols.s(), cols.d());
        hist.fill(0);
        let mut misses = 0;
        for (&s, &d) in s.iter().zip(d) {
            if d.to_bits() != 0 {
                misses += 1;
            } else {
                hist[(s.to_bits() >> BIN_SHIFT) as usize] += 1;
            }
        }
        let hits = (s.len() - misses) as u64;

        // The threshold is the lower edge of the highest bin at which the
        // count from the top reaches H/8: ties never straddle it.
        let target = hits.div_ceil(TAIL_FRACTION);
        let (mut above, mut tau) = (0, 0);
        for (b, &count) in hist.iter().enumerate().rev() {
            above += u64::from(count);
            if above >= target {
                tau = (b as u32) << BIN_SHIFT;
                break;
            }
        }
        // Both lengths are known, so neither vector over-allocates.
        let mut missed = Vec::with_capacity(misses);
        let mut tail = Vec::with_capacity(above as usize);
        for (&s, &d) in s.iter().zip(d) {
            if d.to_bits() != 0 {
                missed.push((s, d));
            } else if s.to_bits() >= tau {
                tail.push(s.to_bits());
            }
        }
        // Non-negative floats order like their bits.
        tail.sort_unstable();

        let (ln_hit_p, odds, chunk) = if missed.is_empty() || hits == 0 {
            // K is certain (0 or c); no inversion runs.
            (0.0, 0.0, u64::MAX)
        } else {
            let p = missed.len() as f64 / s.len() as f64;
            let ln_hit_p = dln(1.0 - p);
            (
                ln_hit_p,
                p / (1.0 - p),
                (MIN_LN_PMF0 / ln_hit_p).max(1.0) as u64,
            )
        };
        let pmf0 = if chunk == u64::MAX {
            Vec::new()
        } else {
            (0..=n.min(chunk).min(MAX_PMF0_TABLE))
                .map(|t| dexp(t as f64 * ln_hit_p))
                .collect()
        };
        Self {
            s,
            d,
            missed,
            hits,
            tau,
            tail,
            ln_hit_p,
            odds,
            chunk,
            pmf0,
        }
    }

    /// Draws how many of `c` picks missed, `K ~ Bin(c, m/L)`, by
    /// inverting the pmf from one uniform per chunk of trials.
    fn missed_picks<R: RngCore + ?Sized>(&self, c: u64, rng: &mut R) -> u64 {
        if self.missed.is_empty() {
            return 0;
        }
        if self.hits == 0 {
            return c;
        }
        let mut missed = 0;
        let mut left = c;
        while left > 0 {
            let trials = left.min(self.chunk);
            left -= trials;
            let mut u = open_unit(rng);
            let mut pmf = match self.pmf0.get(trials as usize) {
                Some(&p) => p,
                None => dexp(trials as f64 * self.ln_hit_p),
            };
            let mut k = 0;
            while u > pmf && k < trials {
                u -= pmf;
                pmf *= (trials - k) as f64 / (k + 1) as f64 * self.odds;
                k += 1;
            }
            missed += k;
        }
        missed
    }

    /// Draws the largest `s` among `picks ≥ 1` hit picks: its rank from
    /// one uniform, read from the tail, or (when the rank falls below the
    /// tail) the picks themselves by rejection below `tau`.
    fn hit_max<R: RngCore + ?Sized>(&self, picks: u64, rng: &mut R) -> f32 {
        // U^{1/picks} is distributed as the largest of `picks` uniforms.
        let x = dexp(dln(open_unit(rng)) / picks as f64);
        // `H·x` is finite and in `[0, H]`, so the truncating cast plus a
        // round-up is its ceiling (`f64::ceil` is a libm call on the
        // baseline x86-64 target).
        let hx = self.hits as f64 * x;
        let floor = hx as u64;
        let rank = (floor + u64::from((floor as f64) < hx)).clamp(1, self.hits);
        let below = self.hits - self.tail.len() as u64;
        if rank > below {
            return f32::from_bits(self.tail[(rank - below - 1) as usize]);
        }
        // Every pick lies below the tail; conditioned on that, the picks
        // are iid uniform over the hits below `tau`.
        let len = self.s.len() as u64;
        let mut max = 0.0f32;
        for _ in 0..picks {
            loop {
                let i = (rng.next_u64() % len) as usize;
                if self.d[i].to_bits() == 0 && self.s[i].to_bits() < self.tau {
                    max = max.max(self.s[i]);
                    break;
                }
            }
        }
        max
    }
}

/// Draws synthetic end-user requests of `n` keys each from per-server
/// `(s, d)` columns, one [`RequestSample`] per [`RequestAssembler::draw`].
///
/// Construction splits each server's records once (see the module
/// docs); each draw then costs `O(M + K)`, not `O(n)`.
pub struct RequestAssembler<'a> {
    pops: Vec<Population<'a>>,
    split: Multinomial,
    counts: Vec<u64>,
    network: f64,
    n: u64,
}

impl<'a> RequestAssembler<'a> {
    /// Prepares assembly over `columns`: server `j` holds `columns[j]`
    /// and receives a `shares[j]` fraction of each request's `n` keys,
    /// and every request pays the constant `network` latency. Records
    /// must be finite and non-negative, as simulated latencies are.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is not a probability vector with one entry per
    /// server, if a server with a positive share has no records, or if
    /// `n == 0`.
    #[must_use]
    pub fn new(columns: &'a [KeyColumns], shares: &[f64], network: f64, n: u64) -> Self {
        assert!(n > 0, "requests need at least one key");
        assert_eq!(columns.len(), shares.len(), "one share per server");
        let split = Multinomial::new(shares).expect("shares must be a probability vector");
        for (j, (cols, &p)) in columns.iter().zip(shares).enumerate() {
            assert!(
                p == 0.0 || !cols.is_empty(),
                "server {j} has load share {p} but recorded no keys"
            );
        }
        let mut hist = vec![0u32; 1 << (32 - BIN_SHIFT)];
        Self {
            pops: columns
                .iter()
                .map(|cols| Population::new(cols, n, &mut hist))
                .collect(),
            split,
            counts: vec![0; shares.len()],
            network,
            n,
        }
    }

    /// Draws one request: the per-server key counts, then for each
    /// server with `c > 0` keys the missed-pick count `K`, the hit
    /// maximum's rank, and the `K` missed picks, in that order.
    pub fn draw<R: RngCore + ?Sized>(&mut self, mut rng: &mut R) -> RequestSample {
        // `&mut R` is itself a sized `RngCore`, so it passes as
        // `&mut dyn RngCore` even when `R` is unsized.
        self.split.sample_into(self.n, &mut self.counts, &mut rng);
        let mut worst_s = 0.0f32;
        let mut worst_d = 0.0f64;
        let mut worst_missed = 0.0f64;
        for (pop, &c) in self.pops.iter().zip(&self.counts) {
            if c == 0 {
                continue;
            }
            let k = pop.missed_picks(c, rng);
            if k < c {
                worst_s = worst_s.max(pop.hit_max(c - k, rng));
            }
            for _ in 0..k {
                let (s, d) = pop.missed[(rng.next_u64() % pop.missed.len() as u64) as usize];
                worst_s = worst_s.max(s);
                let (s, d) = (f64::from(s), f64::from(d));
                worst_d = worst_d.max(d);
                worst_missed = worst_missed.max(s + d);
            }
        }
        // A hit's `d` is zero, so `max_i(s_i + d_i)` is the larger of
        // `T_S` and the missed picks' `s + d`.
        let ts = f64::from(worst_s);
        RequestSample {
            total: self.network + ts.max(worst_missed),
            ts_max: ts,
            td_max: worst_d,
        }
    }
}

/// Assembles `requests` synthetic end-user requests of `n` keys each
/// from a simulation's per-key records: server `j` holds the run's
/// `records(j)` and receives its load share of each request's keys, and
/// every request pays the run's constant network latency.
///
/// Picks are uniform with replacement, and only each server's maximum is
/// drawn (the product form of eqs. 10–12; see the module docs). Each
/// request draws, in order: its per-server key counts
/// `Multinomial(n, shares)`; then, for each server with `c > 0` keys,
/// the missed-pick count `K ~ Bin(c, m/L)` by pmf inversion, the rank of
/// the hit maximum `⌈H·U^{1/(c−K)}⌉` (read from the server's sorted
/// top tail, or, below the tail, drawn exactly as `c − K` rejection picks
/// under the tail threshold), and the `K` missed picks one by one.
/// `T_S` is the larger of the hit maximum and the missed picks' `s`,
/// `T_D` the missed picks' largest `d`, and
/// `T = network + max(hit maximum, missed s + d)`.
///
/// Each server's records are split once per call: its missed `(s, d)`
/// pairs, and the top ~1/8 of its hits, sorted. Extra memory is
/// `O(tail + misses)`; the `s` column is never copied whole.
///
/// # Panics
///
/// Panics if the run kept no per-key records ([`crate::Retention::Summary`]),
/// if a server with a positive load share recorded no keys (run longer),
/// or if `n == 0`.
pub fn assemble_requests<R: RngCore + ?Sized>(
    out: &SimOutput,
    n: u64,
    requests: usize,
    rng: &mut R,
) -> RequestStats {
    let network = out.network_latency();
    let mut assembler = RequestAssembler::new(out.all_records(), out.shares(), network, n);
    RequestStats::fold(network, (0..requests).map(|_| assembler.draw(rng)))
}

/// Assembles requests under **key replication**: each key is dispatched
/// to `replicas` distinct servers and completes when the *fastest*
/// replica does (the "low latency via redundancy" design the paper cites
/// as related work \[12\]).
///
/// The caller is responsible for simulating the *replicated* load level
/// (replication multiplies every server's key rate by `replicas`); this
/// function only performs the min-of-replicas draw, so the
/// cost-vs-benefit trade-off is visible: redundancy cuts the per-key
/// tail but pushes servers toward the latency cliff.
///
/// # Panics
///
/// Panics if `replicas` is 0 or exceeds the number of loaded servers,
/// or if a loaded server has no records.
pub fn assemble_requests_replicated<R: RngCore + ?Sized>(
    out: &SimOutput,
    n: u64,
    requests: usize,
    replicas: usize,
    rng: &mut R,
) -> RequestStats {
    assert!(n > 0, "requests need at least one key");
    let shares = out.shares();
    let loaded: Vec<usize> = (0..shares.len())
        .filter(|&j| shares[j] > 0.0 && !out.records(j).is_empty())
        .collect();
    assert!(
        (1..=loaded.len()).contains(&replicas),
        "replicas must be in 1..={}, got {replicas}",
        loaded.len()
    );
    let mut chosen: Vec<usize> = Vec::with_capacity(replicas);
    let mut draw = || {
        let mut worst_total = 0.0f64;
        let mut worst_s = 0.0f64;
        let mut worst_d = 0.0f64;
        for _ in 0..n {
            // Pick `replicas` distinct servers uniformly among the loaded
            // ones (replica placement ignores popularity by design).
            chosen.clear();
            while chosen.len() < replicas {
                let j = loaded[(rng.next_u64() % loaded.len() as u64) as usize];
                if !chosen.contains(&j) {
                    chosen.push(j);
                }
            }
            let mut best_total = f64::INFINITY;
            let mut best_s = f64::INFINITY;
            let mut best_d = f64::INFINITY;
            for &j in &chosen {
                let recs = out.records(j);
                let (s, d) = recs.get((rng.next_u64() % recs.len() as u64) as usize);
                let (s, d) = (f64::from(s), f64::from(d));
                if s + d < best_total {
                    best_total = s + d;
                    best_s = s;
                    best_d = d;
                }
            }
            worst_total = worst_total.max(best_total);
            worst_s = worst_s.max(best_s);
            worst_d = worst_d.max(best_d);
        }
        RequestSample {
            total: out.network_latency() + worst_total,
            ts_max: worst_s,
            td_max: worst_d,
        }
    };
    RequestStats::fold(out.network_latency(), (0..requests).map(|_| draw()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSim, SimConfig};
    use memlat_model::ModelParams;
    use rand::SeedableRng;

    fn sim() -> SimOutput {
        let params = ModelParams::builder().build().unwrap();
        ClusterSim::run(&SimConfig::new(params).duration(1.0).warmup(0.1).seed(11)).unwrap()
    }

    #[test]
    fn table3_breakdown_reproduced() {
        // Paper Table 3 measurements: T_S(N) = 368 µs, T_D(N) = 867 µs,
        // T(N) = 1144 µs. Our simulator should land near those (it
        // realizes the same generative process).
        let out = sim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let stats = assemble_requests(&out, 150, 40_000, &mut rng);
        assert!(
            (stats.ts.mean * 1e6 - 368.0).abs() < 60.0,
            "T_S(N) = {} µs vs paper 368 µs",
            stats.ts.mean * 1e6
        );
        // T_D(N): the within-model exact value is ~1084 µs (eq. 23's
        // approximation is 836 µs and the paper measured 867 µs — see
        // EXPERIMENTS.md on the eq. 23 bias).
        let exact_td = memlat_model::database::db_latency_mean_exact(150, 0.01, 1_000.0);
        assert!(
            (stats.td.mean / exact_td - 1.0).abs() < 0.12,
            "T_D(N) = {} µs vs exact-in-model {} µs",
            stats.td.mean * 1e6,
            exact_td * 1e6
        );
        // T(N): between Theorem 1's lower bound and the exact-enhanced
        // upper bound (network + T_S upper + exact T_D).
        let est = ModelParams::builder().build().unwrap().estimate().unwrap();
        let upper = est.network + est.server.upper + est.database_exact;
        assert!(
            stats.total.mean > est.total.lower * 0.9 && stats.total.mean < upper * 1.1,
            "T(N) = {} µs outside [{}, {}] µs",
            stats.total.mean * 1e6,
            est.total.lower * 0.9e6,
            upper * 1.1e6
        );
    }

    #[test]
    fn component_maxima_are_ordered() {
        let out = sim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let stats = assemble_requests(&out, 50, 5_000, &mut rng);
        // total ≥ network + max(s) and total ≥ network + max(d) in means.
        assert!(stats.total.mean >= stats.ts.mean);
        assert!(stats.total.mean >= stats.td.mean);
        assert!(!stats.to_string().is_empty());
    }

    #[test]
    fn more_keys_means_more_latency() {
        let out = sim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let small = assemble_requests(&out, 10, 5_000, &mut rng);
        let big = assemble_requests(&out, 1_000, 5_000, &mut rng);
        assert!(big.ts.mean > small.ts.mean);
        assert!(big.total.mean > small.total.mean);
    }

    #[test]
    fn replication_at_fixed_load_cuts_latency() {
        // At the SAME traffic level, min-of-2 replicas beats 1 replica —
        // the pure benefit side of the redundancy trade-off.
        let out = sim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let r1 = assemble_requests_replicated(&out, 150, 5_000, 1, &mut rng);
        let r2 = assemble_requests_replicated(&out, 150, 5_000, 2, &mut rng);
        assert!(r2.ts.mean < r1.ts.mean, "{} !< {}", r2.ts.mean, r1.ts.mean);
        assert!(r2.total.mean < r1.total.mean);
    }

    #[test]
    fn replication_of_one_matches_plain_assembly_roughly() {
        let out = sim();
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(9);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(9);
        let plain = assemble_requests(&out, 150, 10_000, &mut rng1);
        let rep1 = assemble_requests_replicated(&out, 150, 10_000, 1, &mut rng2);
        // Replica placement is uniform rather than share-weighted; under
        // balanced load both estimates coincide statistically.
        assert!((plain.ts.mean / rep1.ts.mean - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "replicas must be in")]
    fn replication_bounds_checked() {
        let out = sim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let _ = assemble_requests_replicated(&out, 10, 10, 5, &mut rng);
    }

    /// 1 000 records with service times `1, 2, …`; record `i` missed
    /// when `missed(i)`.
    fn columns(missed: impl Fn(usize) -> bool) -> KeyColumns {
        let mut cols = KeyColumns::new();
        for i in 0..1000 {
            cols.push_server(i as f32 + 1.0);
            if missed(i) {
                cols.set_db(i, 0.5);
            }
        }
        cols
    }

    #[test]
    fn pmf0_table_is_the_direct_expression_and_the_inversion_runs_past_it() {
        let mut hist = vec![0u32; 1 << (32 - BIN_SHIFT)];
        let table_is_direct = |pop: &Population| {
            pop.pmf0
                .iter()
                .enumerate()
                .all(|(t, &p)| p.to_bits() == dexp(t as f64 * pop.ln_hit_p).to_bits())
        };
        // At a miss ratio of 0.1 a chunk is ~5 700 trials, so `n` bounds
        // the table; at 0.9 it is 260, so the chunk does.
        let cols = columns(|i| i % 10 == 0);
        for (n, table) in [(150, 151), (2, 3)] {
            let pop = Population::new(&cols, n, &mut hist);
            assert_eq!(pop.pmf0.len(), table);
            assert!(table_is_direct(&pop), "n={n}");
        }
        let mostly_missed = columns(|i| i % 10 != 0);
        let pop = Population::new(&mostly_missed, 1000, &mut hist);
        assert_eq!(pop.chunk, 260);
        assert_eq!(pop.pmf0.len(), 261);
        assert!(table_is_direct(&pop));
        // The table stops at MAX_PMF0_TABLE trials.
        assert_eq!(
            Population::new(&cols, u64::MAX, &mut hist).pmf0.len() as u64,
            MAX_PMF0_TABLE + 1
        );
        // A population tabled for 2-key requests inverts 200 trials with
        // `dexp` past its table: the same draws as one tabled for 200,
        // and `Bin(200, 0.1)`'s mean.
        let short = Population::new(&cols, 2, &mut hist);
        let full = Population::new(&cols, 200, &mut hist);
        let (mut a, mut b) = (
            rand::rngs::StdRng::seed_from_u64(9),
            rand::rngs::StdRng::seed_from_u64(9),
        );
        let mut total = 0;
        for _ in 0..20_000 {
            let k = short.missed_picks(200, &mut a);
            assert_eq!(k, full.missed_picks(200, &mut b));
            total += k;
        }
        let mean = total as f64 / 20_000.0;
        assert!((mean - 20.0).abs() < 0.2, "mean K = {mean}");
    }

    #[test]
    fn single_key_request_matches_per_key_mean() {
        let out = sim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let stats = assemble_requests(&out, 1, 20_000, &mut rng);
        let pooled_mean = out.server_latency_ecdf().mean();
        // For N=1, E[T_S(1)] is just the per-key mean.
        assert!(
            (stats.ts.mean / pooled_mean - 1.0).abs() < 0.1,
            "{} vs {}",
            stats.ts.mean,
            pooled_mean
        );
    }
}
