//! End-to-end mode: explicit request fan-out.
//!
//! The analytical model (and the assembly path) assumes per-key
//! independence: the keys of one request sample latencies independently
//! (paper eq. 10). In a real deployment, the keys of one request arrive
//! at their servers *simultaneously*, so keys landing on the same server
//! queue behind each other — positive correlation the model ignores.
//!
//! This module simulates that real process: requests arrive as a Poisson
//! stream, each fans out `N` keys multinomially, keys reach servers after
//! half the network latency, are served FCFS, missed keys visit the
//! database, and the request completes at its slowest key. Comparing
//! against [`crate::assembly`] quantifies the independence assumption's
//! error — an extension experiment of this reproduction.

use memlat_des::rng::stream_rng;
use memlat_dist::{Exponential, Multinomial};
use memlat_stats::{ConfidenceInterval, StreamingStats};

use crate::{
    config::auto_db_shards,
    database::{run_db_stage, MissArrival},
    SimError,
};
use memlat_des::fcfs::FcfsStation;
use memlat_model::ModelParams;

/// Configuration of an end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eConfig {
    /// The system parameters (request rate derives from
    /// `total_key_rate / keys_per_request`).
    pub params: ModelParams,
    /// Number of requests to simulate (after warm-up).
    pub requests: usize,
    /// Requests discarded as warm-up.
    pub warmup_requests: usize,
    /// Master seed.
    pub seed: u64,
    /// Database shards (0 = auto, like [`crate::SimConfig`]).
    pub db_shards: usize,
}

impl E2eConfig {
    /// A default end-to-end configuration.
    #[must_use]
    pub fn new(params: ModelParams) -> Self {
        Self {
            params,
            requests: 20_000,
            warmup_requests: 2_000,
            seed: 0xe2e,
            db_shards: 0,
        }
    }

    /// Sets the measured request count.
    #[must_use]
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Results of an end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eOutput {
    /// Mean / CI of the true end-user latency.
    pub total: ConfidenceInterval,
    /// Mean / CI of `max_i s_i` per request.
    pub ts: ConfidenceInterval,
    /// Mean / CI of `max_i d_i` per request.
    pub td: ConfidenceInterval,
    /// Observed per-server utilization.
    pub utilization: Vec<f64>,
    /// Observed miss ratio.
    pub miss_ratio: f64,
}

/// Runs the end-to-end simulation.
///
/// # Errors
///
/// Propagates model errors (shares, instability) and configuration
/// problems.
pub fn run_e2e(cfg: &E2eConfig) -> Result<E2eOutput, SimError> {
    let params = &cfg.params;
    let n = params.keys_per_request();
    let shares = params.load().shares(params.servers())?;
    let request_rate = params.total_key_rate() / n as f64;
    let gaps =
        Exponential::new(request_rate).map_err(|e| SimError::InvalidConfig(e.to_string()))?;

    let mut rng = stream_rng(cfg.seed, 42);
    let mut stations: Vec<FcfsStation> =
        (0..params.servers()).map(|_| FcfsStation::new()).collect();

    let total_requests = cfg.warmup_requests + cfg.requests;
    // Per-request bookkeeping: (server_max_completion - arrival) etc.
    struct Pending {
        arrival: f64,
        worst_s: f64,
        worst_total_completion: f64,
        worst_d: f64,
        outstanding_db: u32,
        measured: bool,
    }
    let mut pending: Vec<Pending> = Vec::with_capacity(total_requests);
    let mut misses: Vec<MissArrival> = Vec::new();
    let mut clock = 0.0f64;
    let mut total_keys = 0u64;
    use memlat_dist::Continuous;
    let half_net = params.network_latency() / 2.0;

    let split = Multinomial::new(&shares).expect("validated shares");
    let mut counts = vec![0u64; shares.len()];
    for req_idx in 0..total_requests {
        clock += gaps.sample(&mut rng);
        split.sample_into(n, &mut counts, &mut rng);
        let mut p = Pending {
            arrival: clock,
            worst_s: 0.0,
            worst_total_completion: clock,
            worst_d: 0.0,
            outstanding_db: 0,
            measured: req_idx >= cfg.warmup_requests,
        };
        for (j, &c) in counts.iter().enumerate() {
            // Keys of one request reach their server together (a batch).
            let key_arrival = clock + half_net;
            for _ in 0..c {
                total_keys += 1;
                let svc = -memlat_dist::simd::dln(memlat_dist::open_unit(&mut rng))
                    / params.service_rate();
                let done = stations[j].submit(key_arrival, svc);
                let s = done.sojourn();
                p.worst_s = p.worst_s.max(s);
                let missed = params.miss_ratio() > 0.0
                    && memlat_dist::open_unit(&mut rng) < params.miss_ratio();
                if missed {
                    p.outstanding_db += 1;
                    misses.push(MissArrival {
                        time: done.departure,
                        origin: (req_idx as u32, 0),
                        key: crate::database::NO_KEY,
                    });
                } else {
                    p.worst_total_completion = p.worst_total_completion.max(done.departure);
                }
            }
        }
        pending.push(p);
    }

    // Database stage over the merged miss stream.
    misses.sort_by(|a, b| a.time.total_cmp(&b.time));
    let shards = if cfg.db_shards > 0 {
        cfg.db_shards
    } else {
        auto_db_shards(params)
    };
    let mut db_rng = stream_rng(cfg.seed, 43);
    let completed = run_db_stage(&misses, shards, params.db_service_rate(), &mut db_rng);
    for (i, ((req, _), d)) in completed.iter().enumerate() {
        let p = &mut pending[*req as usize];
        p.worst_d = p.worst_d.max(*d);
        // Key completion at db = miss time + d.
        let db_completion = misses[i].time + d;
        p.worst_total_completion = p.worst_total_completion.max(db_completion);
        p.outstanding_db -= 1;
    }

    let mut total = StreamingStats::new();
    let mut ts = StreamingStats::new();
    let mut td = StreamingStats::new();
    for p in &pending {
        debug_assert_eq!(p.outstanding_db, 0);
        if !p.measured {
            continue;
        }
        // The response still crosses the network back: + half_net.
        total.push(p.worst_total_completion - p.arrival + half_net);
        ts.push(p.worst_s);
        td.push(p.worst_d);
    }

    let horizon = clock;
    let utilization: Vec<f64> = stations
        .iter()
        .map(|s| s.utilization(horizon).min(1.0))
        .collect();

    Ok(E2eOutput {
        total: ConfidenceInterval::for_mean(&total, 0.95),
        ts: ConfidenceInterval::for_mean(&ts, 0.95),
        td: ConfidenceInterval::for_mean(&td, 0.95),
        utilization,
        miss_ratio: misses.len() as f64 / total_keys as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ModelParams {
        ModelParams::builder().build().unwrap()
    }

    #[test]
    fn e2e_reproduces_table3_scale() {
        let cfg = E2eConfig::new(base()).requests(8_000).seed(1);
        let out = run_e2e(&cfg).unwrap();
        // Utilization ≈ 78%, miss ratio ≈ 1%.
        for &u in &out.utilization {
            assert!((u - 0.78).abs() < 0.08, "{u}");
        }
        assert!((out.miss_ratio - 0.01).abs() < 0.004, "{}", out.miss_ratio);
        // Latency in the same regime as the paper's 1144 µs measurement.
        assert!(
            out.total.mean > 500e-6 && out.total.mean < 3e-3,
            "{}",
            out.total.mean
        );
        // Components below the total.
        assert!(out.ts.mean < out.total.mean);
        assert!(out.td.mean < out.total.mean);
    }

    #[test]
    fn e2e_latency_grows_with_load() {
        let slow = {
            let p = ModelParams::builder()
                .key_rate_per_server(30_000.0)
                .build()
                .unwrap();
            run_e2e(&E2eConfig::new(p).requests(4_000).seed(2)).unwrap()
        };
        let fast = {
            let p = ModelParams::builder()
                .key_rate_per_server(70_000.0)
                .build()
                .unwrap();
            run_e2e(&E2eConfig::new(p).requests(4_000).seed(2)).unwrap()
        };
        assert!(fast.ts.mean > slow.ts.mean);
    }

    #[test]
    fn e2e_zero_misses_zero_td() {
        let p = base().with_miss_ratio(0.0).unwrap();
        let out = run_e2e(&E2eConfig::new(p).requests(2_000).seed(3)).unwrap();
        assert_eq!(out.td.mean, 0.0);
        assert_eq!(out.miss_ratio, 0.0);
    }

    #[test]
    fn e2e_is_deterministic_per_seed() {
        let a = run_e2e(&E2eConfig::new(base()).requests(1_500).seed(17)).unwrap();
        let b = run_e2e(&E2eConfig::new(base()).requests(1_500).seed(17)).unwrap();
        assert_eq!(a, b);
        let c = run_e2e(&E2eConfig::new(base()).requests(1_500).seed(18)).unwrap();
        assert_ne!(a.total.mean, c.total.mean);
    }

    #[test]
    fn e2e_network_latency_is_additive() {
        // Doubling the constant network latency moves the mean by exactly
        // the extra constant (same seed ⇒ same queueing sample path).
        let base_p = base();
        let slow = ModelParams::builder()
            .network_latency(220e-6)
            .build()
            .unwrap();
        let a = run_e2e(&E2eConfig::new(base_p).requests(1_500).seed(19)).unwrap();
        let b = run_e2e(&E2eConfig::new(slow).requests(1_500).seed(19)).unwrap();
        assert!(((b.total.mean - a.total.mean) - 200e-6).abs() < 1e-9);
    }

    #[test]
    fn e2e_respects_explicit_db_shards() {
        // One overloaded shard (vs auto ≈50) inflates the db component.
        let mut cfg = E2eConfig::new(base()).requests(4_000).seed(20);
        cfg.db_shards = 200;
        let plenty = run_e2e(&cfg).unwrap();
        let mut cfg_one = E2eConfig::new(base()).requests(4_000).seed(20);
        cfg_one.db_shards = 3; // miss rate ≈2.5 K/s vs capacity 3 K/s: ρ≈0.83
        let scarce = run_e2e(&cfg_one).unwrap();
        assert!(
            scarce.td.mean > 1.5 * plenty.td.mean,
            "{} vs {}",
            scarce.td.mean,
            plenty.td.mean
        );
    }
}
