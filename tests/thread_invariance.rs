//! Thread-count invariance of replicated runs: `run_replications` fans
//! its replications out over the worker pool, one reused `SimScratch` per
//! worker, and each replication's servers run inline on its worker. None
//! of that may move a bit of the aggregate.

use memlat::cluster::{
    run_replications, CacheBackedConfig, CacheRouting, MissMode, ReplicatedStats, SimConfig,
};
use memlat::model::ModelParams;

fn replicated(cfg: &SimConfig, threads: usize) -> ReplicatedStats {
    run_replications(&cfg.clone().threads(threads), 150, 4, 2_000).unwrap()
}

#[test]
fn replications_are_bit_equal_at_one_and_three_threads() {
    // Four replications on three workers: worker 0 runs two of them on
    // one reused scratch.
    let params = ModelParams::builder().build().unwrap();
    let cfg = SimConfig::new(params).duration(0.2).warmup(0.05).seed(31);
    let one = replicated(&cfg, 1);
    assert_eq!(one.replications, 4);
    assert!(one.latency_sketch.count() > 0);
    assert_eq!(one, replicated(&cfg, 3));
}

#[test]
fn routed_cache_backed_replications_are_bit_equal_at_one_and_three_threads() {
    // The ring and the Zipf alias table are cached in each worker's
    // scratch and reused by its later replications.
    let params = ModelParams::builder().build().unwrap();
    let cfg = SimConfig::new(params)
        .duration(0.1)
        .warmup(0.1)
        .seed(32)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace: 50_000,
            skew: 1.01,
            mean_value_bytes: 300.0,
            routing: CacheRouting::ConsistentHash { vnodes: 64 },
        }));
    let one = replicated(&cfg, 1);
    assert!(one.miss_ratio > 0.0);
    assert_eq!(one, replicated(&cfg, 3));
}
