//! Pinned determinism fingerprints.
//!
//! The fixed 100-server cluster run that `bench --digest` fingerprints
//! must hash to the committed line at one and at four worker threads,
//! and at sampling blocks other than the default: one key (the scalar
//! attempt path, which stages nothing speculatively) and 37 keys (many
//! short speculative fills per phase). A small consistent-hash,
//! LRU-backed run has its own pinned value: it covers the ring walk, the
//! per-server conditional samplers and the cache store, and it too must
//! read its value at block 1. Any change to a sampled value, the order
//! of draws, the key-to-server map, the shard merge or the staging of
//! arrivals across blocks moves one of them; a change that claims
//! bit-identity must leave them all alone.

use memlat::cluster::{
    CacheBackedConfig, CacheRouting, ClusterSim, MissMode, MissRelay, Retention, SimConfig,
};
use memlat::model::ModelParams;
use memlat_bench::determinism_digest;

#[test]
fn digest_matches_the_pinned_line_at_one_and_four_threads() {
    let pinned = include_str!("../crates/bench/expected_digest.txt").trim();
    for threads in [1, 4] {
        assert_eq!(
            determinism_digest(threads, 100, 0),
            pinned,
            "threads={threads}"
        );
    }
}

#[test]
fn digest_matches_the_pinned_line_at_blocks_1_and_37() {
    let pinned = include_str!("../crates/bench/expected_digest.txt").trim();
    for block in [1, 37] {
        assert_eq!(determinism_digest(1, 100, block), pinned, "block={block}");
    }
}

/// FNV-1a over the routed run's outputs: the ring-induced shares, and
/// per server the latency moments, counters and resident items.
fn routed_lru_fingerprint(threads: usize, block: usize) -> u64 {
    let params = ModelParams::builder()
        .key_rate_per_server(200_000.0)
        .service_rate(800_000.0)
        .db_service_rate(50_000.0)
        .build()
        .unwrap();
    let cfg = SimConfig::new(params)
        .duration(0.02)
        .warmup(0.03)
        .seed(0x5eed_0a11)
        .threads(threads)
        .block(block)
        .retention(Retention::Summary)
        .miss_relay(MissRelay::Coalesced)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 2 << 20,
            keyspace: 60_000,
            skew: 1.2,
            mean_value_bytes: 500.0,
            routing: CacheRouting::ConsistentHash { vnodes: 64 },
        }));
    let out = ClusterSim::run(&cfg).unwrap();
    // The fingerprint only guards the cache path if the run both hits
    // and misses and leaves items resident.
    assert!(out.miss_ratio() > 0.0 && out.miss_ratio() < 1.0);
    assert!(out.cached_items() > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
    };
    for &p in out.shares() {
        push(p.to_bits());
    }
    for s in out.summaries() {
        let l = &s.latency;
        push(l.count());
        push(l.mean().to_bits());
        push(l.sample_variance().to_bits());
        push(l.min().to_bits());
        push(l.max().to_bits());
        push(s.counters.jobs);
        push(s.counters.misses);
        push(s.cached_items);
    }
    h
}

const ROUTED_LRU_PINNED: u64 = 0x06ab_3b1e_d582_3c5e;

#[test]
fn routed_lru_run_matches_its_pinned_fingerprint_at_one_and_four_threads() {
    for threads in [1, 4] {
        assert_eq!(
            routed_lru_fingerprint(threads, 0),
            ROUTED_LRU_PINNED,
            "threads={threads}"
        );
    }
}

#[test]
fn routed_lru_run_matches_its_pinned_fingerprint_at_block_1() {
    assert_eq!(routed_lru_fingerprint(1, 1), ROUTED_LRU_PINNED);
}
