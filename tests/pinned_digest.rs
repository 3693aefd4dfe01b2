//! Pinned determinism fingerprints.
//!
//! The fixed 100-server cluster run that `bench --digest` fingerprints
//! must hash to the committed line at one and at four worker threads,
//! and at sampling blocks other than the default: one key (the scalar
//! attempt path, which stages nothing speculatively) and 37 keys (many
//! short speculative fills per phase). A small consistent-hash,
//! LRU-backed run has its own pinned value: it covers the ring walk, the
//! per-server conditional samplers and the cache store, and it too must
//! read its value at block 1. The same run with independent routing
//! (every server draws from the full Zipf key space, through its alias
//! table) has a second pinned value, at the default block and at block 1.
//! Request assembly on a small Table 3 run (M = 4, N = 150) is pinned
//! through the bits of its `RequestStats`. Any change to a sampled value,
//! the order of draws, the key-to-server map, the shard merge, the
//! staging of arrivals across blocks or the assembler's draws moves one
//! of them; a change that claims bit-identity must leave them all alone.

use memlat::cluster::{
    assembly::assemble_requests, CacheBackedConfig, CacheRouting, ClusterSim, MissMode, MissRelay,
    Retention, SimConfig,
};
use memlat::model::ModelParams;
use memlat_bench::determinism_digest;
use rand::SeedableRng;

/// FNV-1a accumulator over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }
}

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

/// FNV-1a over an LRU-backed run's outputs: the load shares, and per
/// server the latency moments, counters and resident items.
fn lru_fingerprint(routing: CacheRouting, threads: usize, block: usize) -> u64 {
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
            routing,
        }));
    let out = ClusterSim::run(&cfg).unwrap();
    // The fingerprint only guards the cache path if the run both hits
    // and misses and leaves items resident.
    assert!(out.miss_ratio() > 0.0 && out.miss_ratio() < 1.0);
    assert!(out.cached_items() > 0);
    let mut h = Fnv::new();
    for &p in out.shares() {
        h.push(p.to_bits());
    }
    for s in out.summaries() {
        let l = &s.latency;
        h.push(l.count());
        h.push(l.mean().to_bits());
        h.push(l.sample_variance().to_bits());
        h.push(l.min().to_bits());
        h.push(l.max().to_bits());
        h.push(s.counters.jobs);
        h.push(s.counters.misses);
        h.push(s.cached_items);
    }
    h.0
}

const ROUTED: CacheRouting = CacheRouting::ConsistentHash { vnodes: 64 };

const ROUTED_LRU_PINNED: u64 = 0x06ab_3b1e_d582_3c5e;

#[test]
fn routed_lru_run_matches_its_pinned_fingerprint_at_one_and_four_threads() {
    for threads in [1, 4] {
        assert_eq!(
            lru_fingerprint(ROUTED, threads, 0),
            ROUTED_LRU_PINNED,
            "threads={threads}"
        );
    }
}

#[test]
fn routed_lru_run_matches_its_pinned_fingerprint_at_block_1() {
    assert_eq!(lru_fingerprint(ROUTED, 1, 1), ROUTED_LRU_PINNED);
}

const INDEPENDENT_LRU_PINNED: u64 = 0x651d_3b58_9a6b_5ee0;

#[test]
fn independent_lru_run_matches_its_pinned_fingerprint_at_blocks_0_and_1() {
    for block in [0, 1] {
        assert_eq!(
            lru_fingerprint(CacheRouting::Independent, 1, block),
            INDEPENDENT_LRU_PINNED,
            "block={block}"
        );
    }
}

/// FNV-1a over the bits of every field of the `RequestStats` that
/// request assembly folds from a short run at the paper's Table 3 shape
/// (defaults: M = 4 servers, N = 150 keys per request).
fn assembly_fingerprint() -> u64 {
    let params = ModelParams::builder().build().unwrap();
    let cfg = SimConfig::new(params.clone())
        .duration(0.05)
        .warmup(0.02)
        .seed(0xa55e_4b1e);
    let out = ClusterSim::run(&cfg).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x007a_b1e3);
    let stats = assemble_requests(&out, params.keys_per_request(), 4_000, &mut rng);
    let mut h = Fnv::new();
    for ci in [&stats.total, &stats.ts, &stats.td] {
        h.push(ci.mean.to_bits());
        h.push(ci.lower.to_bits());
        h.push(ci.upper.to_bits());
        h.push(ci.level.to_bits());
    }
    h.push(stats.network.to_bits());
    h.push(stats.requests as u64);
    h.0
}

const ASSEMBLY_PINNED: u64 = 0x961c_d21f_bf2e_fb3f;

#[test]
fn request_assembly_matches_its_pinned_fingerprint() {
    assert_eq!(assembly_fingerprint(), ASSEMBLY_PINNED);
}
