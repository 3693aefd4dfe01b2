//! Independent replications.
//!
//! The paper reports confidence intervals over a long run; we get the
//! same statistical strength from several shorter independent
//! replications, run on the [`pool`](crate::pool) with one reused
//! [`SimScratch`] per worker. Each replication's own servers stage then
//! runs inline on its worker.

use memlat_stats::{ConfidenceInterval, QuantileSketch, StreamingStats};
use rand::SeedableRng;

use crate::sim::{ClusterSim, SimScratch};
use crate::{
    assembly::assemble_requests,
    config::{Retention, SimConfig},
    SimError,
};

/// Per-replication summary statistics aggregated over seeds.
///
/// The intervals are 95% **Student-t** over the replication means
/// (`df = replications − 1`): with the 3–8 replications the
/// conformance profiles run, the t critical value is what makes the
/// claimed coverage honest.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedStats {
    /// Mean/CI of `E[T_S(N)]` across replications.
    pub ts: ConfidenceInterval,
    /// Mean/CI of `E[T_D(N)]` across replications.
    pub td: ConfidenceInterval,
    /// Mean/CI of `E[T(N)]` across replications.
    pub total: ConfidenceInterval,
    /// Mean observed miss ratio.
    pub miss_ratio: f64,
    /// Mean observed utilization of the heaviest server.
    pub peak_utilization: f64,
    /// Number of replications.
    pub replications: usize,
    /// Pooled per-key server-latency quantile sketch, merged over all
    /// replications in replication order (merge order does not affect
    /// the state — sketch merging is exact).
    pub latency_sketch: QuantileSketch,
}

/// Runs `replications` independent simulations (replication `i` seeded
/// `splitmix64(cfg.seed ^ (i + 1))`), assembling `requests_per_rep`
/// requests of `n` keys in each, on [`SimConfig::threads`] pool workers.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] when there is nothing to estimate or no
/// interval to report: fewer than two replications (a Student-t interval
/// needs `df ≥ 1`), zero keys per request, zero requests per replication,
/// [`Retention::Summary`] (assembly reads the per-key records), or a
/// replication in which a server with a positive load share recorded no
/// keys (run longer). Otherwise the lowest failing replication's error.
pub fn run_replications(
    cfg: &SimConfig,
    n: u64,
    replications: usize,
    requests_per_rep: usize,
) -> Result<ReplicatedStats, SimError> {
    let invalid = |why: &str| SimError::InvalidConfig(format!("run_replications: {why}"));
    if replications < 2 {
        return Err(invalid("needs two or more replications"));
    }
    if n == 0 || requests_per_rep == 0 {
        return Err(invalid("needs n > 0 and requests_per_rep > 0"));
    }
    if cfg.retention == Retention::Summary {
        return Err(invalid("request assembly needs Retention::Full"));
    }
    let threads = cfg.effective_threads().min(replications);
    let mut scratches: Vec<SimScratch> = (0..threads).map(|_| SimScratch::new()).collect();
    let mut results: Vec<Option<RepResult>> = (0..replications).map(|_| None).collect();
    crate::pool::for_each(&mut scratches, results.iter_mut(), |scratch, rep, slot| {
        let seed = memlat_des::rng::splitmix64(cfg.seed ^ (rep as u64 + 1));
        let cfg = cfg.clone().seed(seed);
        let out = ClusterSim::run_with(&cfg, scratch)?;
        let mut idle = out.shares().iter().zip(out.summaries());
        if let Some(j) = idle.position(|(&p, s)| p > 0.0 && s.counters.jobs == 0) {
            return Err(invalid(&format!("server {j} recorded no keys; run longer")));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xa55e);
        let stats = assemble_requests(&out, n, requests_per_rep, &mut rng);
        *slot = Some(RepResult {
            ts: stats.ts.mean,
            td: stats.td.mean,
            total: stats.total.mean,
            miss_ratio: out.miss_ratio(),
            peak_utilization: out.utilization().iter().copied().fold(0.0f64, f64::max),
            latency_sketch: out.pooled_latency_sketch().clone(),
        });
        Ok::<(), SimError>(())
    })?;

    let mut ts = StreamingStats::new();
    let mut td = StreamingStats::new();
    let mut total = StreamingStats::new();
    let mut miss = StreamingStats::new();
    let mut peak = StreamingStats::new();
    let mut latency_sketch = QuantileSketch::new();
    for r in results.into_iter().flatten() {
        ts.push(r.ts);
        td.push(r.td);
        total.push(r.total);
        miss.push(r.miss_ratio);
        peak.push(r.peak_utilization);
        latency_sketch.merge(&r.latency_sketch);
    }

    // Student-t intervals: the sample size here is the handful of
    // replications (not the millions of keys inside each), so the
    // normal critical value would be badly overconfident.
    Ok(ReplicatedStats {
        ts: ConfidenceInterval::for_mean_t(&ts, 0.95),
        td: ConfidenceInterval::for_mean_t(&td, 0.95),
        total: ConfidenceInterval::for_mean_t(&total, 0.95),
        miss_ratio: miss.mean(),
        peak_utilization: peak.mean(),
        replications,
        latency_sketch,
    })
}

struct RepResult {
    ts: f64,
    td: f64,
    total: f64,
    miss_ratio: f64,
    peak_utilization: f64,
    latency_sketch: QuantileSketch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_model::ModelParams;

    #[test]
    fn replications_tighten_estimates() {
        let params = ModelParams::builder().build().unwrap();
        let cfg = SimConfig::new(params).duration(0.3).warmup(0.05).seed(99);
        let stats = run_replications(&cfg, 150, 4, 4_000).unwrap();
        assert_eq!(stats.replications, 4);
        // Means in the Table-3 regime.
        assert!(
            stats.ts.mean > 150e-6 && stats.ts.mean < 800e-6,
            "{}",
            stats.ts.mean
        );
        assert!((stats.miss_ratio - 0.01).abs() < 0.005);
        assert!((stats.peak_utilization - 0.78).abs() < 0.1);
        // CI endpoints are ordered.
        assert!(stats.ts.lower <= stats.ts.mean && stats.ts.mean <= stats.ts.upper);
        assert!(stats.total.mean >= stats.ts.mean);
        assert!(stats.td.mean > 0.0);
        // The pooled sketch covers every recorded key of every rep, and
        // its high quantile is in the same regime as the ts estimate.
        assert!(stats.latency_sketch.count() > 0);
        let p99 = stats.latency_sketch.quantile(0.99);
        assert!(p99 > 50e-6 && p99 < 2e-3, "{p99}");
    }

    #[test]
    fn replications_are_deterministic() {
        let params = ModelParams::builder().build().unwrap();
        let cfg = SimConfig::new(params).duration(0.2).warmup(0.05).seed(7);
        let a = run_replications(&cfg, 150, 3, 2_000).unwrap();
        let b = run_replications(&cfg, 150, 3, 2_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn inputs_without_an_estimate_are_errors() {
        let params = ModelParams::builder().build().unwrap();
        let cfg = SimConfig::new(params).duration(0.2).seed(7);
        let summary = cfg.clone().retention(Retention::Summary);
        let no_keys = cfg.clone().duration(1e-7);
        for (cfg, n, reps, requests, why) in [
            (&cfg, 150, 0, 2_000, "two or more replications"),
            (&cfg, 150, 1, 2_000, "two or more replications"),
            (&cfg, 0, 2, 2_000, "n > 0"),
            (&cfg, 150, 2, 0, "requests_per_rep > 0"),
            (&summary, 150, 2, 2_000, "Retention::Full"),
            (&no_keys, 150, 2, 2_000, "recorded no keys"),
        ] {
            match run_replications(cfg, n, reps, requests) {
                Err(SimError::InvalidConfig(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{why}: {other:?}"),
            }
        }
    }
}
