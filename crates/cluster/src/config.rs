//! Simulation configuration.

use memlat_model::ModelParams;

use crate::fault::{ClientPolicy, FaultPlan};
use crate::SimError;

/// How cache misses are decided at each simulated memcached server.
#[derive(Debug, Clone, PartialEq)]
pub enum MissMode {
    /// Each key misses independently with the model's ratio `r` — the
    /// paper's assumption.
    FixedRatio,
    /// Each key consults a real slab/LRU store fed by Zipf-popular keys;
    /// the miss ratio *emerges* from memory size, item sizes and skew
    /// (extension experiment).
    CacheBacked(CacheBackedConfig),
}

/// How cache misses are relayed to the database stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissRelay {
    /// Every miss is an independent database trip — the paper's model.
    #[default]
    Independent,
    /// Per-key fetch coalescing: the first miss for a key dispatches the
    /// database fetch; concurrent misses for the same key park as
    /// waiters and resolve at that fetch's completion time ("delayed
    /// hits", Atre et al. SIGCOMM 2020; Jiang & Ma arXiv 2505.15531).
    /// Only keyed misses coalesce — [`MissMode::FixedRatio`] carries no
    /// key identity, so under it this mode is bit-identical to
    /// [`MissRelay::Independent`].
    Coalesced,
}

/// How keys reach cache-backed servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheRouting {
    /// Every server samples the full Zipf population independently —
    /// statistically a cluster whose clients spray keys uniformly, so
    /// each cache stores its own copy of the hot set.
    #[default]
    Independent,
    /// Cluster-wide consistent hashing: the global Zipf stream is
    /// partitioned over servers by a hash ring with virtual nodes, so
    /// each server caches only the keys it owns (memcached's actual
    /// deployment model). Per-server load becomes the ring-induced
    /// shares `{p_j}`, and the cluster-wide miss ratio follows the
    /// Ji/Quan/Tan single-LRU asymptotic at the *total* capacity.
    ConsistentHash {
        /// Virtual nodes per server on the ring.
        vnodes: usize,
    },
}

/// Configuration for [`MissMode::CacheBacked`].
///
/// This struct is the single source of truth for the cached key
/// population: the cluster builds its Zipf sampler (and, under
/// [`CacheRouting::ConsistentHash`], its routing table) from these
/// fields, and every layer below validates against them rather than
/// carrying its own copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheBackedConfig {
    /// Memory budget per server (bytes).
    pub memory_bytes: usize,
    /// Number of distinct keys in the population.
    pub keyspace: u64,
    /// Zipf popularity exponent.
    pub skew: f64,
    /// Mean value size in bytes (drawn from the Facebook value-size law
    /// scaled to this mean).
    pub mean_value_bytes: f64,
    /// How keys are routed to servers.
    pub routing: CacheRouting,
}

impl Default for CacheBackedConfig {
    fn default() -> Self {
        Self {
            memory_bytes: 64 << 20,
            keyspace: 5_000_000,
            skew: 1.01,
            mean_value_bytes: 329.0,
            routing: CacheRouting::Independent,
        }
    }
}

impl CacheBackedConfig {
    /// Validates the cache population parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.memory_bytes == 0 {
            return Err("cache memory budget must be positive".into());
        }
        if self.keyspace == 0 {
            return Err("cache keyspace must be non-empty".into());
        }
        if !(self.skew.is_finite() && self.skew > 0.0) {
            return Err(format!("cache skew must be positive, got {}", self.skew));
        }
        if !(self.mean_value_bytes.is_finite() && self.mean_value_bytes > 0.0) {
            return Err(format!(
                "mean value size must be positive, got {}",
                self.mean_value_bytes
            ));
        }
        if let CacheRouting::ConsistentHash { vnodes } = self.routing {
            if vnodes == 0 {
                return Err("consistent-hash routing needs at least one virtual node".into());
            }
        }
        Ok(())
    }
}

/// What per-key data a simulation run keeps in memory.
///
/// Streaming summaries (Welford statistics, quantile sketch, activity
/// counters) are always collected; this only controls the raw buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every per-key `(server, db)` latency pair — required by
    /// request assembly ([`crate::assembly`]) and exact ECDFs.
    #[default]
    Full,
    /// Drop per-key buffers as soon as each server's summaries are
    /// folded in: memory is a fixed-size summary per server plus one
    /// sketch per worker thread, regardless of duration. Quantiles are answered by the sketch (≤ 1% relative
    /// error); [`crate::SimOutput::records`] becomes unavailable.
    Summary,
}

/// Full simulation configuration: the paper's model parameters plus
/// simulation controls.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The system being simulated.
    pub params: ModelParams,
    /// Simulated seconds of traffic (after warm-up).
    pub duration: f64,
    /// Warm-up seconds discarded from all statistics.
    pub warmup: f64,
    /// Master seed; every internal stream derives from it.
    pub seed: u64,
    /// Number of database shards. The model assumes the database stage is
    /// heavily offloaded (`ρ_D ≪ 1`); shards keep that true under high
    /// aggregate miss rates. `0` means auto-size to ≤ 5% per-shard
    /// utilization.
    pub db_shards: usize,
    /// Miss decision mode.
    pub miss_mode: MissMode,
    /// Miss relay mode: independent database trips (the paper) or
    /// per-key fetch coalescing with delayed hits.
    pub miss_relay: MissRelay,
    /// Worker threads of the [`pool`](crate::pool) that runs the
    /// per-server simulations (and [`run_replications`]'s
    /// replications). `0` (default) auto-detects: the `MEMLAT_THREADS`
    /// environment variable if set, else the machine's available
    /// parallelism. Every value runs the same code, `1` inline on the
    /// calling thread, and produces bit-identical output: every server
    /// draws from its own seed-derived RNG stream and results are merged
    /// in server order.
    ///
    /// [`run_replications`]: crate::run_replications
    pub threads: usize,
    /// Per-key data retention policy.
    pub retention: Retention,
    /// Sampling block size for the per-server hot loop. Keys are staged
    /// in fixed-size structure-of-arrays blocks so the uniform→law
    /// transforms and the FCFS Lindley scan run over contiguous slices.
    /// `1` forces the scalar path; `0` (default) means 1024. Any value
    /// produces bit-identical output — blocks consume the per-server RNG
    /// stream in exactly the scalar order.
    pub block: usize,
    /// Scheduled per-server faults (crashes, slowdowns). Empty by
    /// default: the healthy run is bit-identical to the pre-fault
    /// simulator.
    pub fault_plan: FaultPlan,
    /// Client-side resilience: timeout, bounded retries, hedging.
    /// Passive by default.
    pub client: ClientPolicy,
}

/// Enough database shards to keep each below 5% utilization under the
/// expected aggregate miss rate, `ceil(Λ·r / (0.05·μ_D))`, and at least
/// one.
pub(crate) fn auto_db_shards(params: &ModelParams) -> usize {
    let miss_rate = params.total_key_rate() * params.miss_ratio();
    let per_shard_target = 0.05 * params.db_service_rate();
    ((miss_rate / per_shard_target).ceil() as usize).max(1)
}

impl SimConfig {
    /// A configuration with sensible defaults: 2 s of traffic, 0.2 s
    /// warm-up, fixed-ratio misses, auto-sized database shards.
    #[must_use]
    pub fn new(params: ModelParams) -> Self {
        Self {
            params,
            duration: 2.0,
            warmup: 0.2,
            seed: 0x6d656d6c,
            db_shards: 0,
            miss_mode: MissMode::FixedRatio,
            miss_relay: MissRelay::Independent,
            threads: 0,
            retention: Retention::default(),
            block: 0,
            fault_plan: FaultPlan::none(),
            client: ClientPolicy::none(),
        }
    }

    /// Sets the measured duration (seconds).
    #[must_use]
    pub fn duration(mut self, secs: f64) -> Self {
        self.duration = secs;
        self
    }

    /// Sets the warm-up period (seconds).
    #[must_use]
    pub fn warmup(mut self, secs: f64) -> Self {
        self.warmup = secs;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of database shards (0 = auto).
    #[must_use]
    pub fn db_shards(mut self, shards: usize) -> Self {
        self.db_shards = shards;
        self
    }

    /// Sets the miss mode.
    #[must_use]
    pub fn miss_mode(mut self, mode: MissMode) -> Self {
        self.miss_mode = mode;
        self
    }

    /// Sets the miss relay mode.
    #[must_use]
    pub fn miss_relay(mut self, relay: MissRelay) -> Self {
        self.miss_relay = relay;
        self
    }

    /// Sets the worker thread count (`0` = auto, `1` = inline).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-key data retention policy.
    #[must_use]
    pub fn retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Sets the sampling block size (`0` = auto, `1` = scalar path).
    #[must_use]
    pub fn block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }

    /// Sets the fault-injection plan.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the client resilience policy.
    #[must_use]
    pub fn client(mut self, client: ClientPolicy) -> Self {
        self.client = client;
        self
    }

    /// Validates the simulation controls.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-positive durations or
    /// a negative warm-up.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.duration.is_finite() && self.duration > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "duration must be positive, got {}",
                self.duration
            )));
        }
        if !(self.warmup.is_finite() && self.warmup >= 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "warmup must be non-negative, got {}",
                self.warmup
            )));
        }
        if let MissMode::CacheBacked(cache) = &self.miss_mode {
            cache.validate().map_err(SimError::InvalidConfig)?;
        }
        self.fault_plan
            .validate(self.params.servers())
            .map_err(SimError::InvalidConfig)?;
        self.client.validate().map_err(SimError::InvalidConfig)?;
        Ok(())
    }

    /// The number of database shards to actually use: the explicit value,
    /// or enough shards to keep each below 5% utilization under the
    /// expected aggregate miss rate.
    #[must_use]
    pub fn effective_db_shards(&self) -> usize {
        if self.db_shards > 0 {
            return self.db_shards;
        }
        auto_db_shards(&self.params)
    }

    /// The worker thread count to actually use: the explicit value, else
    /// `MEMLAT_THREADS`, else the machine's available parallelism; 1 on
    /// a pool worker, where nested pools run inline (see
    /// [`pool::threads`](crate::pool::threads)). Always at least 1.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        crate::pool::threads(self.threads)
    }

    /// The sampling block size to actually use: the explicit value, else
    /// 1024. Always at least 1.
    #[must_use]
    pub fn effective_block(&self) -> usize {
        if self.block > 0 {
            self.block
        } else {
            1024
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ModelParams {
        ModelParams::builder().build().unwrap()
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::new(base())
            .duration(1.0)
            .warmup(0.1)
            .seed(9)
            .db_shards(3)
            .threads(2)
            .retention(Retention::Summary)
            .block(256);
        assert_eq!(c.duration, 1.0);
        assert_eq!(c.warmup, 0.1);
        assert_eq!(c.seed, 9);
        assert_eq!(c.effective_db_shards(), 3);
        assert_eq!(c.effective_threads(), 2);
        assert_eq!(c.retention, Retention::Summary);
        assert_eq!(c.effective_block(), 256);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn thread_auto_detection_is_positive() {
        let c = SimConfig::new(base());
        assert_eq!(c.threads, 0);
        assert_eq!(c.retention, Retention::Full);
        assert!(c.effective_threads() >= 1);
    }

    #[test]
    fn block_auto_detection_defaults_to_1024() {
        let c = SimConfig::new(base());
        assert_eq!(c.block, 0);
        assert_eq!(c.effective_block(), 1024);
        assert_eq!(c.block(1).effective_block(), 1);
    }

    #[test]
    fn validation_catches_bad_durations() {
        assert!(SimConfig::new(base()).duration(0.0).validate().is_err());
        assert!(SimConfig::new(base())
            .duration(f64::NAN)
            .validate()
            .is_err());
        assert!(SimConfig::new(base()).warmup(-1.0).validate().is_err());
    }

    #[test]
    fn auto_shards_keep_db_offloaded() {
        // Base config: 250 Kps × 1% = 2.5 K misses/s vs μ_D = 1 Kps ⇒
        // needs 50 shards at the 5% target.
        let c = SimConfig::new(base());
        assert_eq!(c.effective_db_shards(), 50);
        // Zero miss ratio still yields at least one shard.
        let p = base().with_miss_ratio(0.0).unwrap();
        assert_eq!(SimConfig::new(p).effective_db_shards(), 1);
    }

    #[test]
    fn miss_relay_defaults_to_independent() {
        let c = SimConfig::new(base());
        assert_eq!(c.miss_relay, MissRelay::Independent);
        assert_eq!(
            c.miss_relay(MissRelay::Coalesced).miss_relay,
            MissRelay::Coalesced
        );
    }

    #[test]
    fn cache_backed_defaults() {
        let c = CacheBackedConfig::default();
        assert!(c.memory_bytes > 0);
        assert!(c.skew > 1.0);
        assert_eq!(c.routing, CacheRouting::Independent);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cache_backed_validation_rejects_degenerate_fields() {
        let check = |f: fn(&mut CacheBackedConfig)| {
            let mut c = CacheBackedConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(check(|c| c.memory_bytes = 0).is_err());
        assert!(check(|c| c.keyspace = 0).is_err());
        assert!(check(|c| c.skew = f64::NAN).is_err());
        assert!(check(|c| c.skew = -1.0).is_err());
        assert!(check(|c| c.mean_value_bytes = 0.0).is_err());
        assert!(check(|c| c.routing = CacheRouting::ConsistentHash { vnodes: 0 }).is_err());
        assert!(check(|c| c.routing = CacheRouting::ConsistentHash { vnodes: 64 }).is_ok());
        // The sim-level validate runs the same checks.
        let bad = CacheBackedConfig {
            keyspace: 0,
            ..CacheBackedConfig::default()
        };
        let c = SimConfig::new(base()).miss_mode(MissMode::CacheBacked(bad));
        assert!(c.validate().is_err());
    }
}
