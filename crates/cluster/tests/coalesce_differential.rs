//! Differential test: the coalescing miss relay is **bit-identical** to
//! the legacy independent relay whenever coalescing cannot trigger —
//! fixed-ratio misses (no key identity, so nothing ever coalesces),
//! faulted runs whose forced misses are keyless by construction, and a
//! cache-backed regime whose fetches are too short for any two same-key
//! misses to overlap. Fingerprints are FNV-1a over the raw f32 bit
//! patterns of every `(s, d)` record, the PR 3/4 pattern: any RNG
//! drift, reordering, or rounding introduced by the key threading or
//! the coalesced database stage fails the suite.
//!
//! A final test pins the other side: in a regime where same-key misses
//! *do* overlap, the coalesced relay must actually diverge and report
//! delayed hits — proving the switch is live, not vacuously equal.

mod common;

use common::fnv1a_records;
use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClientPolicy, ClusterSim, FaultPlan, MissMode, MissRelay,
    RetryPolicy, SimConfig,
};
use memlat_model::ModelParams;

/// Runs `base` under both relays at 1 and 4 threads and asserts every
/// record fingerprint and every summary is identical; the coalesced runs
/// must additionally report zero delayed hits (the regime guarantees
/// none can occur) with every database trip counted as a dispatch.
fn assert_relay_invisible(base: &SimConfig) {
    let independent = ClusterSim::run(&base.clone().threads(1)).unwrap();
    assert!(
        independent.total_keys() > 1_000,
        "run produced too few keys to be meaningful"
    );
    let reference = fnv1a_records(&independent);
    assert!(!independent.coalesce().any(), "independent relay counted");
    for threads in [1usize, 4] {
        for relay in [MissRelay::Independent, MissRelay::Coalesced] {
            let out = ClusterSim::run(&base.clone().threads(threads).miss_relay(relay)).unwrap();
            assert_eq!(
                fnv1a_records(&out),
                reference,
                "records diverged at threads={threads} relay={relay:?}"
            );
            assert_eq!(
                out.db_latency_stats(),
                independent.db_latency_stats(),
                "db summary diverged at threads={threads} relay={relay:?}"
            );
            assert_eq!(out.total_keys(), independent.total_keys());
            assert_eq!(out.miss_ratio(), independent.miss_ratio());
            let c = out.coalesce();
            if relay == MissRelay::Coalesced {
                assert_eq!(c.delayed_hits, 0, "a delayed hit slipped in");
                assert_eq!(c.wait_time, 0.0);
                // Every database trip was a dispatched fetch.
                assert_eq!(c.dispatched, out.db_latency_stats().count());
            } else {
                assert!(!c.any(), "independent relay must count nothing");
            }
        }
    }
}

/// Table-3 configuration: fixed-ratio misses carry no key identity, so
/// the coalesced relay must walk the exact legacy path.
#[test]
fn coalescing_off_is_bit_identical_on_table3_config() {
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xc0a1e5ce);
    assert_relay_invisible(&base);
}

/// Faulted configuration with timeouts and retries: forced misses reach
/// the database keyless by construction and must never coalesce.
#[test]
fn coalescing_off_is_bit_identical_on_faulted_config() {
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xfa017)
        .fault_plan(
            FaultPlan::none()
                .crash(1, 0.15, 0.25)
                .slowdown(2, 0.2, 0.4, 4.0),
        )
        .client(
            ClientPolicy::none()
                .timeout(5e-3)
                .retry(RetryPolicy::default()),
        );
    assert_relay_invisible(&base);
}

/// Cache-backed configuration whose fetch concurrency never exceeds 1:
/// a *single* server, so there is exactly one cache and a missed key is
/// demand-filled the instant it misses — the same key cannot miss again
/// until evicted (seconds away), so no two same-key fetches ever
/// overlap. (With multiple servers a hot-tail key can miss on two
/// private caches inside one fetch window, which is real coalescing,
/// not a differential regime.) The database is explicitly sharded wide
/// enough to stay offloaded under the *emergent* ~44% miss ratio — the
/// auto-sizer only knows the configured 1% — keeping fetch windows at
/// the 20 µs service floor. Even with real key identities the coalesced
/// relay must match the legacy path bit-for-bit.
#[test]
fn coalescing_off_is_bit_identical_on_cache_backed_config() {
    let params = ModelParams::builder()
        .servers(1)
        .db_service_rate(50_000.0)
        .build()
        .unwrap();
    let base = SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xcac4ed)
        .db_shards(64)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 48 << 20,
            keyspace: 2_000_000,
            skew: 1.01,
            mean_value_bytes: 329.0,
            routing: CacheRouting::Independent,
        }));
    assert_relay_invisible(&base);
}

/// The other side of the differential: with slow fetches against a
/// small, hot keyspace, same-key misses overlap constantly — the
/// coalesced relay must diverge from the independent one, report
/// delayed hits, and dispatch strictly fewer database fetches.
#[test]
fn coalescing_diverges_when_fetches_overlap() {
    let params = ModelParams::builder()
        .db_service_rate(200.0)
        .build()
        .unwrap();
    let base = SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xde1a7ed)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 1 << 20,
            keyspace: 50_000,
            skew: 1.1,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }));
    let independent = ClusterSim::run(&base).unwrap();
    let coalesced = ClusterSim::run(&base.clone().miss_relay(MissRelay::Coalesced)).unwrap();
    // Server-side streams are identical (the relay is post-merge): same
    // keys, same misses.
    assert_eq!(independent.total_keys(), coalesced.total_keys());
    assert_eq!(independent.miss_ratio(), coalesced.miss_ratio());
    let c = coalesced.coalesce();
    assert!(c.delayed_hits > 0, "regime should coalesce heavily");
    assert!(c.wait_time > 0.0);
    assert_eq!(
        c.dispatched + c.delayed_hits,
        coalesced.db_latency_stats().count(),
        "every db-path resolution is a dispatch or a delayed hit"
    );
    assert!(
        c.dispatched < independent.db_latency_stats().count(),
        "coalescing must shed dispatches"
    );
    assert_ne!(
        fnv1a_records(&independent),
        fnv1a_records(&coalesced),
        "db latencies must actually differ"
    );
    // And the coalesced run itself stays thread-count invariant.
    let par = ClusterSim::run(&base.threads(4).miss_relay(MissRelay::Coalesced)).unwrap();
    assert_eq!(
        fnv1a_records(&coalesced),
        fnv1a_records(&par),
        "coalesced run diverged across thread counts"
    );
    assert_eq!(par.coalesce(), c);
}
