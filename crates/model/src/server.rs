//! `E[T_S(N)]` — processing latency at the memcached servers
//! (paper §4.3).

use memlat_queue::GixM1;

use crate::{latency::Bounds, params::ModelParams, ModelError};

/// The per-server queueing layer of the model: one solved GI^X/M/1 queue
/// per memcached server, plus the fork-join aggregation of §4.3.2.
///
/// Two estimators are provided for `E[T_S(N)] ≈ (T_S(1))_{N/(N+1)}`:
///
/// * [`theorem1_bounds`](Self::theorem1_bounds) — the paper's closed form
///   (eq. 14), i.e. Proposition 1 applied to the heaviest server;
/// * [`product_form_bounds`](Self::product_form_bounds) — a numerically
///   inverted product CDF `Π_j [T_Sj(t)]^{p_j}` (eq. 11), which is tighter
///   (it is exact under the model's independence assumptions given the
///   per-server bound CDFs) and reduces to the single-server law for
///   balanced clusters — this is how Table 3's 351–366 µs band arises.
///
/// # Examples
///
/// ```
/// use memlat_model::{ModelParams, ServerLatencyModel};
///
/// # fn main() -> Result<(), memlat_model::ModelError> {
/// let params = ModelParams::builder().build()?;
/// let model = ServerLatencyModel::new(&params)?;
/// let b = model.product_form_bounds(150);
/// assert!((340e-6..=380e-6).contains(&b.upper), "upper={}", b.upper);
/// assert!((330e-6..=372e-6).contains(&b.lower), "lower={}", b.lower);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServerLatencyModel {
    /// Solved queues, one per server, ordered as the load shares.
    queues: Vec<GixM1>,
    /// Load shares `{p_j}`, same order.
    shares: Vec<f64>,
    /// Index of the heaviest server.
    heaviest: usize,
}

impl ServerLatencyModel {
    /// Solves the per-server queues for the given parameters.
    ///
    /// Servers with zero load share are excluded from the fork-join
    /// product (they receive no keys).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::Queue`] — most importantly
    /// `QueueError::Unstable` when the heaviest server is driven at or
    /// beyond `μ_S`.
    pub fn new(params: &ModelParams) -> Result<Self, ModelError> {
        let shares_all = params.load().shares(params.servers())?;
        let q = params.concurrency();
        let mut queues = Vec::new();
        let mut shares = Vec::new();
        for &p in &shares_all {
            if p <= 0.0 {
                continue;
            }
            let lam_j = p * params.total_key_rate();
            // Batch rate is (1−q)·λ so the *key* rate is λ.
            let gaps = params.arrival().gap_law((1.0 - q) * lam_j)?;
            queues.push(GixM1::new(&gaps, q, params.service_rate())?);
            shares.push(p);
        }
        if queues.is_empty() {
            return Err(ModelError::InvalidParam(
                "all servers have zero load".into(),
            ));
        }
        // Re-normalize in case zero-share servers were dropped (they keep
        // Σ p_j = 1 anyway, but guard against fp drift).
        let heaviest = shares
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(Self {
            queues,
            shares,
            heaviest,
        })
    }

    /// The solved queue of server `j`.
    #[must_use]
    pub fn queue(&self, j: usize) -> Option<&GixM1> {
        self.queues.get(j)
    }

    /// The solved queue of the heaviest server.
    #[must_use]
    pub fn heaviest_queue(&self) -> &GixM1 {
        &self.queues[self.heaviest]
    }

    /// The load share of the heaviest server, `p_1`.
    #[must_use]
    pub fn p1(&self) -> f64 {
        self.shares[self.heaviest]
    }

    /// Number of loaded servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True when no server carries load (cannot occur for a validated
    /// model).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// The paper's closed-form Theorem 1 bounds on `E[T_S(N)]` (eq. 14):
    ///
    /// * upper: `(T_C1)_k = ln(N+1)/((1−δ₁)(1−q)μ_S)` with `k = N/(N+1)`,
    ///   where server 1 is the heaviest;
    /// * lower: `(T_Q1)_{k^{1/p1}}` per Proposition 1.
    ///
    /// # Panics
    ///
    /// Never panics for `n ≥ 1` (enforced by clamping).
    #[must_use]
    pub fn theorem1_bounds(&self, n: u64) -> Bounds {
        let n = n.max(1);
        let k = n as f64 / (n as f64 + 1.0);
        let q1 = self.heaviest_queue();
        let upper = q1.batch_queue().sojourn_quantile(k);
        let k_lower = k.powf(1.0 / self.p1());
        let lower = q1.batch_queue().waiting_quantile(k_lower);
        Bounds::new(lower.min(upper), upper)
    }

    /// CDF lower/upper envelopes of `T_S(1)` from the product form
    /// (eq. 11): `Π_j [T_Q,j(t)]^{p_j}` and `Π_j [T_C,j(t)]^{p_j}`.
    ///
    /// Because `T_Q ≤ T_S ≤ T_C` per key, the completion-based product is
    /// a *lower* envelope of the `T_S(1)` CDF (an upper bound in latency)
    /// and the queueing-based product an upper envelope.
    fn product_cdf(&self, t: f64, use_completion: bool) -> f64 {
        let mut log_acc = 0.0;
        for (queue, p) in self.queues.iter().zip(&self.shares) {
            let f = if use_completion {
                queue.completion_time_cdf(t)
            } else {
                queue.queueing_time_cdf(t)
            };
            if f <= 0.0 {
                return 0.0;
            }
            log_acc += p * f.ln();
        }
        log_acc.exp()
    }

    /// Inverts a product CDF at probability `k` by bracket doubling and
    /// bisection.
    fn product_quantile(&self, k: f64, use_completion: bool) -> f64 {
        debug_assert!((0.0..1.0).contains(&k));
        // An upper-envelope starting bracket: the heaviest server's own
        // quantile is within a factor of ~1/p1 of the product quantile.
        let mut hi = self
            .heaviest_queue()
            .batch_queue()
            .sojourn_quantile(k)
            .max(1e-12);
        let mut guard = 0;
        while self.product_cdf(hi, use_completion) < k {
            hi *= 2.0;
            guard += 1;
            if guard > 200 {
                break;
            }
        }
        memlat_numerics::bisect(
            |t| self.product_cdf(t, use_completion) - k,
            0.0,
            hi,
            hi * 1e-12,
            200,
        )
        .unwrap_or(hi)
    }

    /// Tighter bounds on `E[T_S(N)] ≈ (T_S(1))_{N/(N+1)}` via numeric
    /// inversion of the product-form CDF (extension over the paper's
    /// closed form; coincides with it for a single loaded server).
    #[must_use]
    pub fn product_form_bounds(&self, n: u64) -> Bounds {
        let n = n.max(1);
        let k = n as f64 / (n as f64 + 1.0);
        let upper = self.product_quantile(k, true);
        let lower = self.product_quantile(k, false).min(upper);
        Bounds::new(lower, upper)
    }

    /// The model's point estimate of `E[T_S(N)]`: the completion-based
    /// product-form quantile (the curve the paper plots as "Theorem 1" in
    /// Figs. 5–10 and 12 tracks this upper estimate).
    #[must_use]
    pub fn expected_latency(&self, n: u64) -> f64 {
        self.product_form_bounds(n).upper
    }

    /// The `k`-th quantile bounds for a *single* key's processing latency
    /// at the heaviest server — the paper's eq. (9), plotted in Fig. 4.
    ///
    /// # Panics
    ///
    /// Panics unless `k ∈ [0, 1)`.
    #[must_use]
    pub fn single_key_quantile_bounds(&self, k: f64) -> (f64, f64) {
        self.heaviest_queue().key_latency_quantile_bounds(k)
    }

    /// The full fork-join CDF of `T_S(N)` (eq. 10):
    /// `P{T_S(N) ≤ t} = Π_j [F_j(t)]^{p_j·N}`, using the **exact**
    /// per-key law of each server (which coincides with eq. 5's
    /// completion law — see `memlat_queue::exact_key`).
    ///
    /// Extension over the paper, which only estimates `E[T_S(N)]`; the
    /// full CDF yields tail percentiles (p99, p999) of the request's
    /// server stage directly.
    #[must_use]
    pub fn fork_join_cdf(&self, n: u64, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let n = n.max(1) as f64;
        let mut log_acc = 0.0;
        for (queue, p) in self.queues.iter().zip(&self.shares) {
            let f = memlat_queue::ExactKeyLatency::new(queue).cdf(t);
            if f <= 0.0 {
                return 0.0;
            }
            log_acc += p * n * f.ln();
        }
        log_acc.exp()
    }

    /// The `p`-th percentile of `T_S(N)` from [`fork_join_cdf`]
    /// (e.g. `p = 0.999` for the tail latency SLOs the paper's §4.5
    /// mentions and declines to use).
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (0, 1)`.
    ///
    /// [`fork_join_cdf`]: Self::fork_join_cdf
    #[must_use]
    pub fn fork_join_quantile(&self, n: u64, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        // Upper bracket from the heaviest server's exact law: the
        // fork-join maximum of N keys is below that server's
        // (p^{1/N})-quantile scaled out to all keys landing there.
        let per_key = p.powf(1.0 / n.max(1) as f64);
        let mut hi = memlat_queue::ExactKeyLatency::new(self.heaviest_queue())
            .quantile(per_key.max(0.5))
            .max(1e-12);
        let mut guard = 0;
        while self.fork_join_cdf(n, hi) < p {
            hi *= 2.0;
            guard += 1;
            if guard > 200 {
                break;
            }
        }
        memlat_numerics::bisect(|t| self.fork_join_cdf(n, t) - p, 0.0, hi, hi * 1e-12, 200)
            .unwrap_or(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ArrivalPattern, LoadDistribution, ModelParams};

    fn base() -> ModelParams {
        ModelParams::builder().build().unwrap()
    }

    #[test]
    fn table3_band_reproduced() {
        // Paper Table 3: Theorem 1 gives T_S(N) ∈ [351 µs, 366 µs].
        let m = ServerLatencyModel::new(&base()).unwrap();
        let b = m.product_form_bounds(150);
        assert!(
            (b.lower * 1e6 - 351.0).abs() < 8.0,
            "lower {} µs vs paper 351 µs",
            b.lower * 1e6
        );
        assert!(
            (b.upper * 1e6 - 366.0).abs() < 8.0,
            "upper {} µs vs paper 366 µs",
            b.upper * 1e6
        );
    }

    #[test]
    fn balanced_product_form_equals_single_server() {
        let m = ServerLatencyModel::new(&base()).unwrap();
        let k: f64 = 150.0 / 151.0;
        let single_upper = m.heaviest_queue().batch_queue().sojourn_quantile(k);
        let b = m.product_form_bounds(150);
        assert!((b.upper - single_upper).abs() < 1e-9);
        let single_lower = m.heaviest_queue().batch_queue().waiting_quantile(k);
        assert!((b.lower - single_lower).abs() < 1e-9);
    }

    #[test]
    fn theorem1_bounds_contain_product_form() {
        for p1 in [0.3, 0.5, 0.75] {
            let params = ModelParams::builder()
                .load(LoadDistribution::HotServer { p1 })
                .total_key_rate(80_000.0)
                .build()
                .unwrap();
            let m = ServerLatencyModel::new(&params).unwrap();
            let wide = m.theorem1_bounds(150);
            let tight = m.product_form_bounds(150);
            assert!(wide.lower <= tight.lower + 1e-12, "p1={p1}");
            assert!(tight.upper <= wide.upper + 1e-12, "p1={p1}");
        }
    }

    #[test]
    fn latency_grows_logarithmically_in_n() {
        // E[T_S(N)] = Θ(log N): the increment per decade is ~constant.
        let m = ServerLatencyModel::new(&base()).unwrap();
        let l10 = m.expected_latency(10);
        let l100 = m.expected_latency(100);
        let l1000 = m.expected_latency(1_000);
        let d1 = l100 - l10;
        let d2 = l1000 - l100;
        assert!(d1 > 0.0 && d2 > 0.0);
        assert!((d2 / d1 - 1.0).abs() < 0.15, "d1={d1} d2={d2}");
    }

    #[test]
    fn hotter_server_dominates_latency() {
        let mut prev = 0.0;
        for p1 in [0.3, 0.5, 0.7, 0.9] {
            let params = ModelParams::builder()
                .load(LoadDistribution::HotServer { p1 })
                .total_key_rate(80_000.0)
                .build()
                .unwrap();
            let m = ServerLatencyModel::new(&params).unwrap();
            let l = m.expected_latency(150);
            assert!(l > prev, "p1={p1}: {l} vs {prev}");
            prev = l;
        }
    }

    #[test]
    fn unstable_heaviest_server_is_an_error() {
        let params = ModelParams::builder()
            .load(LoadDistribution::HotServer { p1: 0.9 })
            .total_key_rate(100_000.0) // heaviest sees 90 Kps > μ_S = 80 Kps
            .build()
            .unwrap();
        assert!(matches!(
            ServerLatencyModel::new(&params),
            Err(ModelError::Queue(memlat_queue::QueueError::Unstable { .. }))
        ));
    }

    #[test]
    fn zero_share_servers_are_skipped() {
        let params = ModelParams::builder()
            .load(LoadDistribution::Custom(vec![0.5, 0.5, 0.0, 0.0]))
            .total_key_rate(100_000.0)
            .build()
            .unwrap();
        let m = ServerLatencyModel::new(&params).unwrap();
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn poisson_less_latency_than_pareto_at_same_load() {
        let pareto = ServerLatencyModel::new(&base())
            .unwrap()
            .expected_latency(150);
        let poisson_params = ModelParams::builder()
            .arrival(ArrivalPattern::Poisson)
            .build()
            .unwrap();
        let poisson = ServerLatencyModel::new(&poisson_params)
            .unwrap()
            .expected_latency(150);
        assert!(poisson < pareto);
    }

    #[test]
    fn fork_join_cdf_is_proper_and_median_matches_e_estimate() {
        let m = ServerLatencyModel::new(&base()).unwrap();
        // Proper CDF in t.
        let mut prev = 0.0;
        for i in 1..100 {
            let t = i as f64 * 2e-5;
            let f = m.fork_join_cdf(150, t);
            assert!((0.0..=1.0).contains(&f) && f >= prev, "t={t}");
            prev = f;
        }
        // Balanced cluster: the fork-join quantile at p = N/(N+1)-ish
        // median sits near the expectation estimate.
        let med = m.fork_join_quantile(150, 0.5);
        let e = m.expected_latency(150);
        assert!((med / e - 1.0).abs() < 0.25, "median {med} vs E {e}");
    }

    #[test]
    fn fork_join_tail_percentiles_ordered_and_log_in_n() {
        let m = ServerLatencyModel::new(&base()).unwrap();
        let p50 = m.fork_join_quantile(150, 0.5);
        let p99 = m.fork_join_quantile(150, 0.99);
        let p999 = m.fork_join_quantile(150, 0.999);
        assert!(p50 < p99 && p99 < p999);
        // Balanced identical servers: tail of max of N·M exact-law keys
        // ⇒ p999 − p99 = ln(10)/decay.
        let decay = m.heaviest_queue().decay_rate();
        assert!(((p999 - p99) - 10f64.ln() / decay).abs() / p999 < 0.02);
        // p99 of a 10× larger fan-out ≈ p99 + ln(10)/decay.
        let p99_big = m.fork_join_quantile(1_500, 0.99);
        assert!(((p99_big - p99) - 10f64.ln() / decay).abs() / p99 < 0.05);
    }

    #[test]
    fn fork_join_quantile_respects_imbalance() {
        let hot = ModelParams::builder()
            .load(LoadDistribution::HotServer { p1: 0.7 })
            .total_key_rate(80_000.0)
            .build()
            .unwrap();
        let balanced = ModelParams::builder()
            .total_key_rate(80_000.0)
            .build()
            .unwrap();
        let q_hot = ServerLatencyModel::new(&hot)
            .unwrap()
            .fork_join_quantile(150, 0.99);
        let q_bal = ServerLatencyModel::new(&balanced)
            .unwrap()
            .fork_join_quantile(150, 0.99);
        assert!(q_hot > q_bal, "{q_hot} vs {q_bal}");
    }

    #[test]
    fn single_key_bounds_are_eq9() {
        let m = ServerLatencyModel::new(&base()).unwrap();
        let q1 = m.heaviest_queue();
        let (lo, hi) = m.single_key_quantile_bounds(0.9);
        let decay = q1.decay_rate();
        let delta = q1.delta();
        assert!((hi - (-(0.1f64).ln()) / decay).abs() < 1e-12);
        assert!((lo - ((delta.ln() - (0.1f64).ln()) / decay).max(0.0)).abs() < 1e-12);
    }
}
