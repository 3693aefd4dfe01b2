//! Asserts the Zipf alias table is built once per `(keyspace, skew)`
//! per scratch, not once per server per sweep point, and never under
//! consistent-hash routing.
//!
//! The alias-table build is `O(keyspace)`. Before the popularity cache,
//! every cache-backed server run rebuilt it — a sweep of P points over
//! M servers paid `P × M` builds of a table that never changes. The
//! cache in [`SimScratch`] keys one shared handle by
//! `(keyspace, skew bits)`, so the same sweep pays exactly one build
//! (plus one per keyspace/skew change). The table is built by the first
//! key draw, so routed runs — whose servers draw from their own
//! conditional samplers and read the popularity law only through its
//! pmf — build none.
//!
//! `memlat_workload::alias_builds()` is a process-global counter, so
//! this file holds a single test in its own integration-test binary:
//! `cargo test` runs each integration test file in its own process, and
//! with one test no sibling thread can build a table mid-count.

use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClusterSim, MissMode, Retention, SimConfig, SimScratch,
};
use memlat_model::ModelParams;
use memlat_workload::alias_builds;

fn cache_cfg(keyspace: u64, skew: f64, seed: u64) -> SimConfig {
    let params = ModelParams::builder().build().unwrap();
    SimConfig::new(params)
        .duration(0.05)
        .warmup(0.01)
        .seed(seed)
        .retention(Retention::Summary)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace,
            skew,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }))
}

fn routed_cfg(keyspace: u64, skew: f64, seed: u64) -> SimConfig {
    let params = ModelParams::builder()
        .key_rate_per_server(20_000.0)
        .build()
        .unwrap();
    SimConfig::new(params)
        .duration(0.05)
        .warmup(0.01)
        .seed(seed)
        .retention(Retention::Summary)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace,
            skew,
            mean_value_bytes: 300.0,
            routing: CacheRouting::ConsistentHash { vnodes: 64 },
        }))
}

#[test]
fn sweep_builds_alias_table_once_per_configuration() {
    let mut scratch = SimScratch::new();

    // A 5-point sweep over 4 servers at a fixed (keyspace, skew):
    // exactly one build, not 20.
    let before = alias_builds();
    for seed in 0..5u64 {
        ClusterSim::run_with(&cache_cfg(200_000, 1.01, seed), &mut scratch).unwrap();
    }
    assert_eq!(
        alias_builds() - before,
        1,
        "a fixed-configuration sweep must build the alias table exactly once"
    );

    // Changing the skew (or keyspace) invalidates the cache: one more
    // build, then reuse again.
    let before = alias_builds();
    for seed in 0..3u64 {
        ClusterSim::run_with(&cache_cfg(200_000, 0.9, seed), &mut scratch).unwrap();
    }
    assert_eq!(alias_builds() - before, 1);

    // Consistent-hash routing reads the popularity law only through its
    // pmf: no full-keyspace table, however many runs or seeds.
    let before = alias_builds();
    for seed in 0..3u64 {
        ClusterSim::run_with(&routed_cfg(200_000, 1.01, seed), &mut scratch).unwrap();
    }
    ClusterSim::run(&routed_cfg(100_000, 0.9, 9)).unwrap();
    assert_eq!(
        alias_builds() - before,
        0,
        "a routed run must not build the full-keyspace alias table"
    );

    // Independent routing after the routed runs reused the scratch's
    // cached population: still exactly one build per configuration.
    let before = alias_builds();
    for seed in 0..2u64 {
        ClusterSim::run_with(&cache_cfg(200_000, 1.01, seed), &mut scratch).unwrap();
    }
    assert_eq!(alias_builds() - before, 1);

    // Fixed-ratio runs never touch the popularity law at all.
    let before = alias_builds();
    let params = ModelParams::builder().build().unwrap();
    ClusterSim::run_with(
        &SimConfig::new(params)
            .duration(0.05)
            .seed(7)
            .retention(Retention::Summary),
        &mut scratch,
    )
    .unwrap();
    assert_eq!(alias_builds() - before, 0);

    // The cache must be invisible in the output: a run reusing the
    // cached table equals a run that built its own from scratch. This
    // part builds tables too, so it runs after the counted sections.
    let a = ClusterSim::run(&cache_cfg(150_000, 1.05, 42)).unwrap();
    let mut scratch = SimScratch::new();
    ClusterSim::run_with(&cache_cfg(150_000, 1.05, 41), &mut scratch).unwrap();
    let b = ClusterSim::run_with(&cache_cfg(150_000, 1.05, 42), &mut scratch).unwrap();
    assert_eq!(a.summaries(), b.summaries());
    assert_eq!(a.pooled_latency_sketch(), b.pooled_latency_sketch());
    assert_eq!(a.miss_ratio().to_bits(), b.miss_ratio().to_bits());
    assert_eq!(a.total_keys(), b.total_keys());
}
