//! Differential proof that the miss-state refactor (the `MissState`
//! deciders, fixed-ratio and LRU-backed, plus consistent-hash routing)
//! is invisible to the analytic fixed-ratio mode — and *visible* where
//! it must be.
//!
//! The first fingerprint constant below was captured at the refactor
//! boundary from the pre-`MissState` simulator's output (which the
//! fault-differential goldens independently pin back to commit
//! `008cca9`). Fixed-ratio runs must reproduce it bit-for-bit at every
//! thread count and block size: if this test fails, the analytic hot
//! path changed — a regression, not a tolerance issue. The second pins
//! a routed, coalesced, LRU-backed run the same way.

mod common;

use common::{fnv1a_records, fnv1a_u64};
use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClusterSim, MissMode, MissRelay, Retention, SimConfig,
    SimOutput,
};
use memlat_model::ModelParams;

const SEED: u64 = 0x70e7;

/// Golden FNV-1a fingerprint of the fixed-ratio run at `config()`,
/// captured from the pre-`MissState` simulator.
const GOLDEN_FIXED_FNV: u64 = 0x3af6_61dd_e724_d184;

/// Golden FNV-1a fingerprint of the routed, coalesced, LRU-backed run at
/// `lru_golden_config()` ([`fnv1a_lru`]: records plus store and
/// coalescing counters), captured while every cache-backed key still
/// took the scalar attempt path.
const GOLDEN_LRU_FNV: u64 = 0xe3a7_b621_2d8f_a39a;

fn config() -> SimConfig {
    let params = ModelParams::builder().build().unwrap();
    SimConfig::new(params).duration(0.3).warmup(0.1).seed(SEED)
}

/// Like [`config`], but with headroom for the ring's hottest server:
/// consistent hashing concentrates up to ~1.4× the balanced share on
/// one server, so the balanced ρ must stay below ~0.7.
fn routed_config() -> SimConfig {
    let params = ModelParams::builder()
        .key_rate_per_server(40_000.0)
        .build()
        .unwrap();
    SimConfig::new(params).duration(0.3).warmup(0.1).seed(SEED)
}

fn routed_cache() -> CacheBackedConfig {
    CacheBackedConfig {
        memory_bytes: 4 << 20,
        keyspace: 200_000,
        skew: 1.05,
        mean_value_bytes: 300.0,
        routing: CacheRouting::ConsistentHash { vnodes: 128 },
    }
}

/// FNV-1a over everything a cache-backed run reports per server: the
/// `(s, d)` record bits of [`fnv1a_records`], then per server the
/// utilization bits, jobs, misses, resident items and coalescing
/// counters, then the cluster's emergent miss ratio bits.
fn fnv1a_lru(out: &SimOutput) -> u64 {
    let mut h = fnv1a_records(out);
    let mut eat = |v: u64| h = fnv1a_u64(h, v);
    for s in out.summaries() {
        eat(s.utilization.to_bits());
        eat(s.counters.jobs);
        eat(s.counters.misses);
        eat(s.cached_items);
        eat(s.coalesce.dispatched);
        eat(s.coalesce.delayed_hits);
        eat(s.coalesce.wait_time.to_bits());
    }
    eat(out.miss_ratio().to_bits());
    h
}

/// A routed, coalesced, LRU-backed run keeping every record.
fn lru_golden_config() -> SimConfig {
    routed_config()
        .miss_mode(MissMode::CacheBacked(routed_cache()))
        .miss_relay(MissRelay::Coalesced)
        .retention(Retention::Full)
}

/// Cache-backed output is pinned, not only compared with itself: every
/// thread count and block size reproduces the fingerprint captured
/// from the scalar attempt path.
#[test]
fn lru_run_matches_its_golden_fingerprint() {
    for threads in [1usize, 4] {
        for block in [1usize, 1024, 1 << 22] {
            let out = ClusterSim::run(&lru_golden_config().threads(threads).block(block)).unwrap();
            assert!(out.miss_ratio() > 0.0 && out.coalesce().delayed_hits > 0);
            assert_eq!(
                fnv1a_lru(&out),
                GOLDEN_LRU_FNV,
                "threads={threads} block={block}: cache-backed output moved ({:#018x})",
                fnv1a_lru(&out)
            );
        }
    }
}

/// The tentpole's safety contract: fixed-ratio output is bit-identical
/// pre/post refactor at every `threads × block` combination.
#[test]
fn fixed_ratio_is_bit_identical_across_threads_and_blocks() {
    for threads in [1usize, 4] {
        for block in [1usize, 256, 1024] {
            let out = ClusterSim::run(&config().threads(threads).block(block)).unwrap();
            assert_eq!(
                fnv1a_records(&out),
                GOLDEN_FIXED_FNV,
                "threads={threads} block={block}: per-key record bits moved"
            );
        }
    }
}

/// The refactor must preserve 1-vs-N bit-identity for the *stateful*
/// decider too: a routed LRU-backed run draws every random number from
/// per-server streams, so the thread count cannot touch the output.
#[test]
fn routed_run_is_bit_identical_across_threads() {
    let cfg = routed_config().miss_mode(MissMode::CacheBacked(routed_cache()));
    let sequential = ClusterSim::run(&cfg.clone().threads(1)).unwrap();
    let parallel = ClusterSim::run(&cfg.threads(4)).unwrap();
    assert_eq!(fnv1a_records(&sequential), fnv1a_records(&parallel));
    assert_eq!(
        sequential.miss_ratio().to_bits(),
        parallel.miss_ratio().to_bits()
    );
    assert_eq!(sequential.cached_items(), parallel.cached_items());
}

/// Divergence sanity: switching the cache population from independent
/// full-Zipf streams to ring-routed conditional streams must change the
/// miss process — same seed, different key law — and must induce the
/// unbalanced ring shares in place of the balanced ones.
#[test]
fn routing_changes_the_miss_stream_and_the_shares() {
    let mut independent_cache = routed_cache();
    independent_cache.routing = CacheRouting::Independent;
    let independent = ClusterSim::run(
        &routed_config()
            .threads(2)
            .miss_mode(MissMode::CacheBacked(independent_cache)),
    )
    .unwrap();
    let routed = ClusterSim::run(
        &routed_config()
            .threads(2)
            .miss_mode(MissMode::CacheBacked(routed_cache())),
    )
    .unwrap();

    // Both emerge a real miss ratio...
    assert!(independent.miss_ratio() > 0.0);
    assert!(routed.miss_ratio() > 0.0);
    // ...but from different key processes.
    assert_ne!(
        fnv1a_records(&independent),
        fnv1a_records(&routed),
        "routing left the per-key records untouched"
    );

    // Independent mode keeps the configured balanced shares; routing
    // replaces them with the ring-induced masses, which sum to 1 but
    // are not uniform.
    let m = independent.shares().len();
    assert!(independent
        .shares()
        .iter()
        .all(|&p| (p - 1.0 / m as f64).abs() < 1e-12));
    let total: f64 = routed.shares().iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "routed shares sum {total}");
    assert!(
        routed
            .shares()
            .iter()
            .any(|&p| (p - 1.0 / m as f64).abs() > 1e-3),
        "ring shares suspiciously uniform: {:?}",
        routed.shares()
    );

    // Each routed server stores only its owned slice, so the cluster
    // holds ~one copy of the hot set; independent servers each cache
    // their own copy. Total resident items therefore differ.
    assert!(routed.cached_items() > 0);
    assert!(independent.cached_items() > 0);
}
