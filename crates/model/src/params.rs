//! Model parameters — the factors of the paper's Table 2, as one value
//! object.

use memlat_dist::{
    Deterministic, Exponential, Gamma, GapLaw, GeneralizedPareto, Hyperexponential, Uniform,
};

use crate::{latency::LatencyEstimate, ModelError};

/// The arrival pattern of key batches at a memcached server.
///
/// All variants describe the *shape* of the inter-batch gap `T_X`; the
/// rate is supplied separately so sweeps can vary load and shape
/// independently (the scale-invariance behind Proposition 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Poisson arrivals (exponential gaps) — the paper's `ξ = 0` case.
    Poisson,
    /// Generalized Pareto gaps with burst degree `ξ ∈ [0, 1)` — the
    /// Facebook workload (paper eq. 24; `ξ = 0.15` measured).
    GeneralizedPareto {
        /// Burst degree `ξ`.
        xi: f64,
    },
    /// Perfectly paced arrivals (deterministic gaps) — least bursty.
    Deterministic,
    /// Erlang-`k` gaps — smoother than Poisson, burstier than
    /// deterministic.
    Erlang {
        /// Number of exponential phases.
        k: u32,
    },
    /// Uniform gaps on `[0, 2/λ]`.
    Uniform,
    /// Two-phase hyperexponential gaps with the given squared coefficient
    /// of variation (`scv > 1`) — burstier than Poisson with a closed-form
    /// transform.
    Hyperexponential {
        /// Squared coefficient of variation of the gap.
        scv: f64,
    },
}

impl ArrivalPattern {
    /// Materializes the inter-batch gap distribution with mean `1/rate`
    /// as a [`GapLaw`]: the closed enum the simulator samples without
    /// virtual dispatch, and a [`memlat_dist::Continuous`] law the solvers
    /// read.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParam`] if `rate ≤ 0` or the pattern's
    /// own parameter is out of range.
    pub fn gap_law(&self, rate: f64) -> Result<GapLaw, ModelError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ModelError::InvalidParam(format!(
                "arrival rate must be positive, got {rate}"
            )));
        }
        Ok(match self {
            ArrivalPattern::Poisson => GapLaw::from(Exponential::new(rate)?),
            ArrivalPattern::GeneralizedPareto { xi } => {
                GapLaw::from(GeneralizedPareto::facebook(*xi, rate)?)
            }
            ArrivalPattern::Deterministic => GapLaw::from(Deterministic::new(1.0 / rate)?),
            ArrivalPattern::Erlang { k } => GapLaw::from(Gamma::erlang(*k, 1.0 / rate)?),
            ArrivalPattern::Uniform => GapLaw::from(Uniform::with_mean(1.0 / rate)?),
            ArrivalPattern::Hyperexponential { scv } => {
                GapLaw::from(Hyperexponential::with_mean_scv(1.0 / rate, *scv)?)
            }
        })
    }

    /// The paper's burst degree `ξ` when the pattern is Generalized
    /// Pareto; 0 for Poisson; `None` for shapes outside that family.
    #[must_use]
    pub fn burst_degree(&self) -> Option<f64> {
        match self {
            ArrivalPattern::Poisson => Some(0.0),
            ArrivalPattern::GeneralizedPareto { xi } => Some(*xi),
            _ => None,
        }
    }
}

/// How total key load spreads across the `M` memcached servers — the
/// paper's `{p_j}` with `Σ p_j = 1`.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadDistribution {
    /// Every server receives `1/M` of the keys.
    Balanced,
    /// The heaviest server receives `p1`; the remainder splits evenly
    /// (the shape of the paper's Fig. 10 sweep).
    HotServer {
        /// Load share of the heaviest server, `1/M ≤ p1 < 1`.
        p1: f64,
    },
    /// Fully explicit shares (must sum to 1).
    Custom(Vec<f64>),
}

impl LoadDistribution {
    /// Resolves to an explicit probability vector of length `m`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParam`] if the shares are
    /// inconsistent with `m` servers or do not sum to 1.
    pub fn shares(&self, m: usize) -> Result<Vec<f64>, ModelError> {
        if m == 0 {
            return Err(ModelError::InvalidParam("need at least one server".into()));
        }
        match self {
            LoadDistribution::Balanced => Ok(vec![1.0 / m as f64; m]),
            LoadDistribution::HotServer { p1 } => {
                if m == 1 {
                    if (*p1 - 1.0).abs() > 1e-12 {
                        return Err(ModelError::InvalidParam(
                            "single server must carry the whole load".into(),
                        ));
                    }
                    return Ok(vec![1.0]);
                }
                if !(p1.is_finite() && *p1 >= 1.0 / m as f64 && *p1 < 1.0) {
                    return Err(ModelError::InvalidParam(format!(
                        "hot-server share must be in [1/M, 1), got {p1}"
                    )));
                }
                let rest = (1.0 - p1) / (m - 1) as f64;
                let mut v = vec![rest; m];
                v[0] = *p1;
                Ok(v)
            }
            LoadDistribution::Custom(p) => {
                if p.len() != m {
                    return Err(ModelError::InvalidParam(format!(
                        "expected {m} shares, got {}",
                        p.len()
                    )));
                }
                let sum: f64 = p.iter().sum();
                if (sum - 1.0).abs() > 1e-9 {
                    return Err(ModelError::InvalidParam(format!(
                        "shares must sum to 1, got {sum}"
                    )));
                }
                for &x in p {
                    if !(x.is_finite() && (0.0..=1.0).contains(&x)) {
                        return Err(ModelError::InvalidParam(format!("share out of range: {x}")));
                    }
                }
                Ok(p.clone())
            }
        }
    }

    /// The largest share `p1 = max_j p_j` once resolved for `m` servers.
    ///
    /// # Errors
    ///
    /// Same as [`LoadDistribution::shares`].
    pub fn p1(&self, m: usize) -> Result<f64, ModelError> {
        Ok(self.shares(m)?.into_iter().fold(0.0, f64::max))
    }
}

/// All factors of the memcached latency model (paper Table 2):
///
/// | symbol | field |
/// |---|---|
/// | `N`   | `keys_per_request` |
/// | `M`   | `servers` |
/// | `{p_j}` | `load` |
/// | `q`   | `concurrency` |
/// | shape of `T_X` | `arrival` |
/// | `λ` (total `Λ = Σ λ_j`) | `total_key_rate` |
/// | `μ_S` | `service_rate` |
/// | `r`   | `miss_ratio` |
/// | `μ_D` | `db_service_rate` |
/// | `T_N` | `network_latency` |
///
/// Construct with [`ModelParams::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    n_keys: u64,
    servers: usize,
    load: LoadDistribution,
    arrival: ArrivalPattern,
    total_key_rate: f64,
    concurrency: f64,
    service_rate: f64,
    miss_ratio: f64,
    db_service_rate: f64,
    network_latency: f64,
}

impl ModelParams {
    /// Starts a builder with the paper's defaults for the Facebook
    /// workload (everything except rates and counts must still be set or
    /// inherited).
    #[must_use]
    pub fn builder() -> ModelParamsBuilder {
        ModelParamsBuilder::default()
    }

    /// Number of keys an end-user request fans out into (`N`).
    #[must_use]
    pub fn keys_per_request(&self) -> u64 {
        self.n_keys
    }

    /// Number of memcached servers (`M`).
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The load distribution `{p_j}`.
    #[must_use]
    pub fn load(&self) -> &LoadDistribution {
        &self.load
    }

    /// The arrival pattern (shape of the batch gap law).
    #[must_use]
    pub fn arrival(&self) -> ArrivalPattern {
        self.arrival
    }

    /// Aggregate key arrival rate `Λ` across all servers (keys/s).
    #[must_use]
    pub fn total_key_rate(&self) -> f64 {
        self.total_key_rate
    }

    /// Concurrency probability `q`.
    #[must_use]
    pub fn concurrency(&self) -> f64 {
        self.concurrency
    }

    /// Per-key service rate at memcached servers `μ_S` (keys/s).
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Cache miss ratio `r`.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        self.miss_ratio
    }

    /// Database service rate `μ_D` (keys/s).
    #[must_use]
    pub fn db_service_rate(&self) -> f64 {
        self.db_service_rate
    }

    /// Constant network latency `T_N(N)` (seconds).
    #[must_use]
    pub fn network_latency(&self) -> f64 {
        self.network_latency
    }

    /// Utilization of the heaviest server: `ρ_1 = p_1·Λ/μ_S`.
    ///
    /// # Errors
    ///
    /// Propagates share-resolution errors.
    pub fn peak_utilization(&self) -> Result<f64, ModelError> {
        Ok(self.load.p1(self.servers)? * self.total_key_rate / self.service_rate)
    }

    /// Evaluates Theorem 1 for these parameters.
    ///
    /// Convenience for [`LatencyEstimate::compute`].
    ///
    /// # Errors
    ///
    /// Propagates queueing errors, e.g. instability of the heaviest
    /// server.
    pub fn estimate(&self) -> Result<LatencyEstimate, ModelError> {
        LatencyEstimate::compute(self)
    }

    /// Returns a copy with a different key fan-out `N`.
    #[must_use]
    pub fn with_keys_per_request(&self, n: u64) -> Self {
        let mut c = self.clone();
        c.n_keys = n.max(1);
        c
    }

    /// Returns a copy with a different miss ratio.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParam`] if `r ∉ [0, 1]`.
    pub fn with_miss_ratio(&self, r: f64) -> Result<Self, ModelError> {
        if !(r.is_finite() && (0.0..=1.0).contains(&r)) {
            return Err(ModelError::InvalidParam(format!(
                "miss ratio must be in [0,1], got {r}"
            )));
        }
        let mut c = self.clone();
        c.miss_ratio = r;
        Ok(c)
    }
}

/// Builder for [`ModelParams`].
///
/// Defaults correspond to the paper's §5.1 testbed: `M = 4` balanced
/// servers, `N = 150` keys, Facebook arrivals (`ξ = 0.15`, `q = 0.1`,
/// `λ = 62.5 Kps` per server), `μ_S = 80 Kps`, `r = 0.01`,
/// `μ_D = 1 Kps`, `T_N = 20 µs`.
#[derive(Debug, Clone)]
pub struct ModelParamsBuilder {
    n_keys: u64,
    servers: usize,
    load: LoadDistribution,
    arrival: ArrivalPattern,
    total_key_rate: Option<f64>,
    per_server_key_rate: Option<f64>,
    concurrency: f64,
    service_rate: f64,
    miss_ratio: f64,
    db_service_rate: f64,
    network_latency: f64,
}

impl Default for ModelParamsBuilder {
    fn default() -> Self {
        Self {
            n_keys: 150,
            servers: 4,
            load: LoadDistribution::Balanced,
            arrival: ArrivalPattern::GeneralizedPareto { xi: 0.15 },
            total_key_rate: None,
            per_server_key_rate: Some(62_500.0),
            concurrency: 0.1,
            service_rate: 80_000.0,
            miss_ratio: 0.01,
            db_service_rate: 1_000.0,
            network_latency: 20e-6,
        }
    }
}

impl ModelParamsBuilder {
    /// Sets the key fan-out `N` of an end-user request.
    #[must_use]
    pub fn keys_per_request(mut self, n: u64) -> Self {
        self.n_keys = n;
        self
    }

    /// Sets the number of memcached servers `M`.
    #[must_use]
    pub fn servers(mut self, m: usize) -> Self {
        self.servers = m;
        self
    }

    /// Sets the load distribution `{p_j}`.
    #[must_use]
    pub fn load(mut self, load: LoadDistribution) -> Self {
        self.load = load;
        self
    }

    /// Sets the arrival pattern.
    #[must_use]
    pub fn arrival(mut self, arrival: ArrivalPattern) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the aggregate key rate `Λ` (keys/s across all servers).
    /// Clears any per-server rate set earlier.
    #[must_use]
    pub fn total_key_rate(mut self, rate: f64) -> Self {
        self.total_key_rate = Some(rate);
        self.per_server_key_rate = None;
        self
    }

    /// Sets the per-server key rate under **balanced** load; `Λ` becomes
    /// `rate · M`. Clears any total rate set earlier.
    #[must_use]
    pub fn key_rate_per_server(mut self, rate: f64) -> Self {
        self.per_server_key_rate = Some(rate);
        self.total_key_rate = None;
        self
    }

    /// Sets the concurrency probability `q`.
    #[must_use]
    pub fn concurrency(mut self, q: f64) -> Self {
        self.concurrency = q;
        self
    }

    /// Sets the memcached per-key service rate `μ_S`.
    #[must_use]
    pub fn service_rate(mut self, mu_s: f64) -> Self {
        self.service_rate = mu_s;
        self
    }

    /// Sets the cache miss ratio `r`.
    #[must_use]
    pub fn miss_ratio(mut self, r: f64) -> Self {
        self.miss_ratio = r;
        self
    }

    /// Sets the database service rate `μ_D`.
    #[must_use]
    pub fn db_service_rate(mut self, mu_d: f64) -> Self {
        self.db_service_rate = mu_d;
        self
    }

    /// Sets the constant network latency (seconds).
    #[must_use]
    pub fn network_latency(mut self, t: f64) -> Self {
        self.network_latency = t;
        self
    }

    /// Validates and builds the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParam`] for out-of-range factors
    /// (including `per-server rate with unbalanced load`, which is
    /// ambiguous).
    pub fn build(self) -> Result<ModelParams, ModelError> {
        if self.n_keys == 0 {
            return Err(ModelError::InvalidParam(
                "keys per request must be at least 1".into(),
            ));
        }
        if self.servers == 0 {
            return Err(ModelError::InvalidParam("need at least one server".into()));
        }
        let total_key_rate = match (self.total_key_rate, self.per_server_key_rate) {
            (Some(t), None) => t,
            (None, Some(p)) => {
                if !matches!(self.load, LoadDistribution::Balanced) {
                    return Err(ModelError::InvalidParam(
                        "per-server key rate only makes sense under balanced load; \
                         use total_key_rate with an explicit distribution"
                            .into(),
                    ));
                }
                p * self.servers as f64
            }
            _ => {
                return Err(ModelError::InvalidParam(
                    "set exactly one of total_key_rate / key_rate_per_server".into(),
                ))
            }
        };
        if !(total_key_rate.is_finite() && total_key_rate > 0.0) {
            return Err(ModelError::InvalidParam(format!(
                "key rate must be positive, got {total_key_rate}"
            )));
        }
        if !(self.concurrency.is_finite() && (0.0..1.0).contains(&self.concurrency)) {
            return Err(ModelError::InvalidParam(format!(
                "concurrency must be in [0,1), got {}",
                self.concurrency
            )));
        }
        if !(self.service_rate.is_finite() && self.service_rate > 0.0) {
            return Err(ModelError::InvalidParam(format!(
                "service rate must be positive, got {}",
                self.service_rate
            )));
        }
        if !(self.miss_ratio.is_finite() && (0.0..=1.0).contains(&self.miss_ratio)) {
            return Err(ModelError::InvalidParam(format!(
                "miss ratio must be in [0,1], got {}",
                self.miss_ratio
            )));
        }
        if !(self.db_service_rate.is_finite() && self.db_service_rate > 0.0) {
            return Err(ModelError::InvalidParam(format!(
                "db service rate must be positive, got {}",
                self.db_service_rate
            )));
        }
        if !(self.network_latency.is_finite() && self.network_latency >= 0.0) {
            return Err(ModelError::InvalidParam(format!(
                "network latency must be non-negative, got {}",
                self.network_latency
            )));
        }
        // Validate the load distribution eagerly.
        self.load.shares(self.servers)?;
        Ok(ModelParams {
            n_keys: self.n_keys,
            servers: self.servers,
            load: self.load,
            arrival: self.arrival,
            total_key_rate,
            concurrency: self.concurrency,
            service_rate: self.service_rate,
            miss_ratio: self.miss_ratio,
            db_service_rate: self.db_service_rate,
            network_latency: self.network_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_dist::Continuous;

    fn base() -> ModelParams {
        ModelParams::builder().build().unwrap()
    }

    #[test]
    fn defaults_match_paper_section_5_1() {
        let p = base();
        assert_eq!(p.keys_per_request(), 150);
        assert_eq!(p.servers(), 4);
        assert_eq!(p.concurrency(), 0.1);
        assert_eq!(p.service_rate(), 80_000.0);
        assert_eq!(p.miss_ratio(), 0.01);
        assert_eq!(p.db_service_rate(), 1_000.0);
        assert_eq!(p.total_key_rate(), 250_000.0);
        assert!((p.peak_utilization().unwrap() - 0.781_25).abs() < 1e-9);
    }

    #[test]
    fn builder_validation() {
        assert!(ModelParams::builder().keys_per_request(0).build().is_err());
        assert!(ModelParams::builder().servers(0).build().is_err());
        assert!(ModelParams::builder().concurrency(1.0).build().is_err());
        assert!(ModelParams::builder().miss_ratio(1.5).build().is_err());
        assert!(ModelParams::builder()
            .network_latency(-1.0)
            .build()
            .is_err());
        assert!(ModelParams::builder()
            .key_rate_per_server(-5.0)
            .build()
            .is_err());
        // per-server rate + unbalanced load is ambiguous.
        assert!(ModelParams::builder()
            .load(LoadDistribution::HotServer { p1: 0.75 })
            .build()
            .is_err());
        assert!(ModelParams::builder()
            .load(LoadDistribution::HotServer { p1: 0.75 })
            .total_key_rate(80_000.0)
            .build()
            .is_ok());
    }

    #[test]
    fn load_distribution_shapes() {
        assert_eq!(LoadDistribution::Balanced.shares(4).unwrap(), vec![0.25; 4]);
        let hot = LoadDistribution::HotServer { p1: 0.7 }.shares(4).unwrap();
        assert!((hot[0] - 0.7).abs() < 1e-12);
        assert!((hot[1] - 0.1).abs() < 1e-12);
        assert!((hot.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(LoadDistribution::HotServer { p1: 0.1 }.shares(4).is_err()); // below 1/M
        assert!(LoadDistribution::Custom(vec![0.5, 0.4]).shares(2).is_err()); // sum != 1
        assert!(LoadDistribution::Custom(vec![0.5, 0.5]).shares(3).is_err()); // wrong len
        assert!((LoadDistribution::HotServer { p1: 0.7 }.p1(4).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn arrival_patterns_materialize_with_mean() {
        let rate = 1_000.0;
        for pat in [
            ArrivalPattern::Poisson,
            ArrivalPattern::GeneralizedPareto { xi: 0.3 },
            ArrivalPattern::Deterministic,
            ArrivalPattern::Erlang { k: 4 },
            ArrivalPattern::Uniform,
            ArrivalPattern::Hyperexponential { scv: 4.0 },
        ] {
            let d = pat.gap_law(rate).unwrap();
            assert!((d.mean() - 1e-3).abs() < 1e-12, "{pat:?}");
        }
        assert!(ArrivalPattern::Poisson.gap_law(0.0).is_err());
        assert!(ArrivalPattern::GeneralizedPareto { xi: 1.5 }
            .gap_law(1.0)
            .is_err());
    }

    #[test]
    fn burst_degree_mapping() {
        assert_eq!(ArrivalPattern::Poisson.burst_degree(), Some(0.0));
        assert_eq!(
            ArrivalPattern::GeneralizedPareto { xi: 0.6 }.burst_degree(),
            Some(0.6)
        );
        assert_eq!(ArrivalPattern::Deterministic.burst_degree(), None);
    }

    #[test]
    fn with_modifiers() {
        let p = base();
        assert_eq!(p.with_keys_per_request(10).keys_per_request(), 10);
        assert_eq!(p.with_keys_per_request(0).keys_per_request(), 1);
        assert!(p.with_miss_ratio(2.0).is_err());
        assert_eq!(p.with_miss_ratio(0.05).unwrap().miss_ratio(), 0.05);
    }
}
