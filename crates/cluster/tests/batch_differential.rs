//! Differential test: the block-batched hot path is bit-identical to
//! the scalar loop for every block size, at every thread count.
//!
//! The scalar reference (`block = 1`) takes the pre-batching per-key
//! route: one service draw, one FCFS submit, one miss coin per key.
//! The batched runs stage keys in structure-of-arrays lanes, bank raw
//! RNG bits, and run the transforms and the Lindley recursion as slice
//! scans — but consume the per-server RNG streams in exactly the same
//! order. Fingerprints are FNV-1a over raw f32 bit patterns, so any
//! drift in draw order, rounding, or record order fails the test.

mod common;

use common::fnv1a_records;
use memlat_cluster::{ClusterSim, Retention, SimConfig};
use memlat_model::ModelParams;

fn assert_block_invariant(params: ModelParams, seed: u64) {
    let base = SimConfig::new(params).duration(0.4).warmup(0.1).seed(seed);
    // Scalar reference at one thread.
    let reference = ClusterSim::run(&base.clone().threads(1).block(1)).unwrap();
    assert!(
        reference.total_keys() > 1_000,
        "reference run produced too few keys to be meaningful"
    );
    let ref_fnv = fnv1a_records(&reference);
    // Power-of-two, odd (so blocks end mid-batch-cycle), and the tuned
    // default — each at the sequential and parallel thread counts.
    for block in [1024usize, 37, 256] {
        for threads in [1usize, 4] {
            let got = ClusterSim::run(&base.clone().threads(threads).block(block)).unwrap();
            assert_eq!(
                got.total_keys(),
                reference.total_keys(),
                "key count diverged at block={block} threads={threads}"
            );
            assert_eq!(
                fnv1a_records(&got),
                ref_fnv,
                "records diverged at block={block} threads={threads}"
            );
            assert_eq!(
                got.summaries(),
                reference.summaries(),
                "summaries diverged at block={block} threads={threads}"
            );
            assert_eq!(got.db_latency_stats(), reference.db_latency_stats());
            assert_eq!(got.miss_ratio().to_bits(), reference.miss_ratio().to_bits());
        }
    }
}

/// Table-3 configuration (the paper's default Facebook parameters).
#[test]
fn block_sizes_are_bit_identical_on_table3_config() {
    let params = ModelParams::builder().build().unwrap();
    assert_block_invariant(params, 0x7ab1e3);
}

/// Fig-7-style configuration: elevated per-server key rate, where the
/// queueing dominates and longer busy periods make the Lindley scan
/// carry state across many consecutive block boundaries.
#[test]
fn block_sizes_are_bit_identical_on_fig07_config() {
    let params = ModelParams::builder()
        .key_rate_per_server(75_000.0)
        .build()
        .unwrap();
    assert_block_invariant(params, 0xf17);
}

/// Every arrival law goes through the one block arrival driver: the
/// exponential and GP laws stage speculatively over banked gap bits, the
/// other four draw each gap in place. Either way the output must not
/// depend on the block size.
#[test]
fn block_sizes_are_bit_identical_for_every_arrival_pattern() {
    use memlat_model::ArrivalPattern;
    for (i, arrival) in [
        ArrivalPattern::Poisson,
        ArrivalPattern::GeneralizedPareto { xi: 0.4 },
        ArrivalPattern::Deterministic,
        ArrivalPattern::Erlang { k: 4 },
        ArrivalPattern::Uniform,
        ArrivalPattern::Hyperexponential { scv: 4.0 },
    ]
    .into_iter()
    .enumerate()
    {
        let params = ModelParams::builder().arrival(arrival).build().unwrap();
        assert_block_invariant(params, 0xa77 + i as u64);
    }
}

/// Summary retention must agree too: the bulk `push_slice` folds into
/// the Welford accumulator and sketch must match per-key pushes.
#[test]
fn block_summary_retention_matches_scalar_full() {
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.3)
        .warmup(0.05)
        .seed(0xb10c);
    let scalar = ClusterSim::run(&base.clone().threads(1).block(1)).unwrap();
    let lean = ClusterSim::run(&base.threads(4).block(1024).retention(Retention::Summary)).unwrap();
    assert!(!lean.has_records());
    assert_eq!(scalar.summaries(), lean.summaries());
    assert_eq!(scalar.db_latency_stats(), lean.db_latency_stats());
    assert_eq!(scalar.db_latency_sketch(), lean.db_latency_sketch());
    // Sketch-answered quantiles (Summary has no exact ECDF) must agree
    // with the scalar run's sketch bit-for-bit.
    let k = memlat_stats::max_order_quantile(150);
    assert_eq!(
        scalar.pooled_latency_sketch().quantile(k).to_bits(),
        lean.server_latency_quantile(k).to_bits()
    );
}

/// Hedging runs are block-eligible (the hedge pass happens after the
/// per-server loop); the hedged output must not depend on block size.
#[test]
fn block_sizes_are_bit_identical_under_hedging() {
    use memlat_cluster::ClientPolicy;
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.3)
        .warmup(0.05)
        .seed(0x4ed6)
        .client(ClientPolicy::none().hedge(2e-4));
    let scalar = ClusterSim::run(&base.clone().threads(1).block(1)).unwrap();
    assert!(scalar.resilience().hedges_sent > 0);
    for threads in [1usize, 4] {
        let got = ClusterSim::run(&base.clone().threads(threads).block(1024)).unwrap();
        assert_eq!(
            fnv1a_records(&got),
            fnv1a_records(&scalar),
            "threads={threads}"
        );
        assert_eq!(got.summaries(), scalar.summaries());
        assert_eq!(got.resilience(), scalar.resilience());
    }
}

/// Forced-scalar dispatch is bit-identical to whatever the host
/// auto-detected (AVX2 where available): the SIMD kernels share the
/// deterministic `dln`/`dexp` ports with the scalar fallback and use no
/// FMA, so instruction selection must be invisible in the output. On an
/// AVX2 host this proves SIMD ↔ scalar identity end to end through the
/// full cluster simulation; on hosts without AVX2 both runs take the
/// scalar path and the test degrades to a (still valid) self-check.
/// CI additionally runs a whole matrix leg under `MEMLAT_NO_SIMD=1`,
/// which pins detection off before any kernel runs.
#[test]
fn forced_scalar_dispatch_is_bit_identical() {
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.3)
        .warmup(0.05)
        .seed(0x513d);
    let auto = ClusterSim::run(&base.clone().threads(4).block(1024)).unwrap();
    memlat_dist::simd::set_forced_scalar(true);
    let scalar = ClusterSim::run(&base.clone().threads(4).block(1024)).unwrap();
    let scalar_unblocked = ClusterSim::run(&base.threads(1).block(1)).unwrap();
    memlat_dist::simd::set_forced_scalar(false);
    assert!(!memlat_dist::simd::simd_active() || cfg!(target_arch = "x86_64"));
    assert_eq!(fnv1a_records(&auto), fnv1a_records(&scalar));
    assert_eq!(auto.summaries(), scalar.summaries());
    assert_eq!(auto.db_latency_stats(), scalar.db_latency_stats());
    assert_eq!(fnv1a_records(&auto), fnv1a_records(&scalar_unblocked));
    assert_eq!(auto.summaries(), scalar_unblocked.summaries());
}

/// A timeout that can never fire still forces the scalar path (the
/// eligibility check is conservative), so output stays pinned.
#[test]
fn inert_timeout_output_is_block_size_independent() {
    use memlat_cluster::ClientPolicy;
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.2)
        .warmup(0.05)
        .seed(0x71e0)
        .client(ClientPolicy::none().timeout(1e3));
    let a = ClusterSim::run(&base.clone().block(1)).unwrap();
    let b = ClusterSim::run(&base.block(1024)).unwrap();
    assert_eq!(a.resilience().timeouts, 0);
    assert_eq!(fnv1a_records(&a), fnv1a_records(&b));
    assert_eq!(a.summaries(), b.summaries());
}

/// One server through `simulate_server` at `block`: the Facebook
/// service rate, concurrency `q` and model miss ratio `r` (the fixed
/// ratio; cache-backed modes ignore it) over the given gap law, with a
/// 0.3 s measured window after `warmup`. Returns the run and the RNG's
/// next draw.
fn one_server(
    mode: &memlat_cluster::MissMode,
    gaps: memlat_dist::GapLaw,
    q: f64,
    r: f64,
    routed: Option<memlat_cluster::RoutedHandle>,
    warmup: f64,
    block: usize,
    seed: u64,
) -> (memlat_cluster::server::ServerRun, u64) {
    use memlat_cluster::fault::{ClientPolicy, ServerFaults};
    use memlat_cluster::server::{simulate_server, ServerSimParams};
    use memlat_workload::facebook;
    use rand::{RngCore, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let run = simulate_server(
        ServerSimParams {
            interarrival: gaps,
            concurrency: q,
            service_rate: facebook::SERVICE_RATE,
            miss_ratio: r,
            miss_mode: mode,
            popularity: None,
            routed,
            warmup,
            duration: 0.3,
            faults: ServerFaults::none(),
            client: ClientPolicy::none(),
            block,
        },
        &mut rng,
    )
    .unwrap();
    (run, rng.next_u64())
}

/// The LRU block lanes against the scalar attempt path (`block = 1`),
/// per server: records (key ids included), counters, the store's miss
/// ratio and resident items as of the last kept key, utilization, and
/// the RNG's stream position afterwards. Covers the alias sampler
/// (≤ 2²⁰ keys, routed and independent) and rejection-inversion
/// (> 2²⁰ keys, a variable draw count per key), the speculative GP
/// driver and the in-place Erlang one, with and without warm-up. Block
/// 2²² stages the whole run speculatively, so its horizon tail is the
/// largest.
#[test]
fn lru_lanes_match_the_scalar_attempt_path_per_server() {
    use memlat_cluster::{CacheBackedConfig, CacheRouting, MissMode, RoutedHandle};
    use memlat_dist::{Gamma, GapLaw, GeneralizedPareto};
    use memlat_workload::facebook::CONCURRENCY_Q as Q;
    use memlat_workload::{RoutedKeyspace, ZipfPopularity};
    use std::sync::Arc;
    let cache = |keyspace: u64, routing: CacheRouting| {
        MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace,
            skew: 1.05,
            mean_value_bytes: 300.0,
            routing,
        })
    };
    let ring = RoutedKeyspace::new(&ZipfPopularity::new(200_000, 1.05).unwrap(), 3, 64).unwrap();
    let routed = RoutedHandle {
        keyspace: Arc::new(ring),
        server: 2,
    };
    let gp = GapLaw::from(GeneralizedPareto::facebook(0.15, 56_250.0).unwrap());
    let erlang = GapLaw::from(Gamma::erlang(4, 1.0 / 56_250.0).unwrap());
    let cases = [
        (
            "alias",
            cache(200_000, CacheRouting::Independent),
            None,
            &gp,
        ),
        (
            "routed",
            cache(200_000, CacheRouting::ConsistentHash { vnodes: 64 }),
            Some(routed),
            &gp,
        ),
        (
            "rejection",
            cache(2_000_000, CacheRouting::Independent),
            None,
            &gp,
        ),
        (
            "rejection-erlang",
            cache(2_000_000, CacheRouting::Independent),
            None,
            &erlang,
        ),
    ];
    for (i, (name, mode, handle, gaps)) in cases.iter().enumerate() {
        for warmup in [0.0, 0.15] {
            let seed = 0x1a0e + i as u64;
            let (want, want_next) = one_server(
                mode,
                (*gaps).clone(),
                Q,
                0.0,
                handle.clone(),
                warmup,
                1,
                seed,
            );
            assert!(want.records.len() > 5_000, "{name}: too few keys");
            assert!(want.records.iter().any(|r| r.missed), "{name}: no misses");
            for block in [2usize, 37, 1024, 1 << 22] {
                let at = format!("{name} warmup={warmup} block={block}");
                let (got, got_next) = one_server(
                    mode,
                    (*gaps).clone(),
                    Q,
                    0.0,
                    handle.clone(),
                    warmup,
                    block,
                    seed,
                );
                assert_eq!(got.records, want.records, "{at}: records");
                assert_eq!(got.counters, want.counters, "{at}: counters");
                assert_eq!(
                    got.miss_ratio.to_bits(),
                    want.miss_ratio.to_bits(),
                    "{at}: store miss ratio"
                );
                assert_eq!(got.cached_items, want.cached_items, "{at}: cached items");
                assert_eq!(
                    got.utilization.to_bits(),
                    want.utilization.to_bits(),
                    "{at}: utilization"
                );
                assert_eq!(got.key_rate.to_bits(), want.key_rate.to_bits(), "{at}");
                assert_eq!(got_next, want_next, "{at}: RNG stream position");
            }
        }
    }
}

/// The fixed-ratio block lanes against the scalar attempt path
/// (`block = 1`), per server: records, counters (the queue high-water
/// mark and the busy-time bits included), utilization, and the RNG's
/// stream position afterwards. The warm-up phase runs on the lanes up to
/// the batch that crosses the warm-up boundary, which then seeds the
/// measured phase; the warm-ups cover none, one shorter than the first
/// gap, a mid-run boundary, and one longer than the measured window.
/// Gaps cover the speculative GP and exponential drivers and the
/// in-place Erlang and deterministic ones; `q = 0` draws no batch-size
/// uniform and `r = 0` no miss uniform.
#[test]
fn fixed_lanes_match_the_scalar_attempt_path_per_server() {
    use memlat_dist::{Deterministic, Exponential, Gamma, GapLaw, GeneralizedPareto};
    let fixed = memlat_cluster::MissMode::FixedRatio;
    let batch_rate = 56_250.0;
    let laws = [
        (
            "gp",
            GapLaw::from(GeneralizedPareto::facebook(0.15, batch_rate).unwrap()),
        ),
        ("exp", GapLaw::from(Exponential::new(batch_rate).unwrap())),
        (
            "erlang",
            GapLaw::from(Gamma::erlang(4, 1.0 / batch_rate).unwrap()),
        ),
        (
            "det",
            GapLaw::from(Deterministic::new(1.0 / batch_rate).unwrap()),
        ),
    ];
    for (i, (name, gaps)) in laws.iter().enumerate() {
        for (j, &(r, q)) in [(0.01, 0.1), (0.0, 0.1), (0.01, 0.0), (0.0, 0.0)]
            .iter()
            .enumerate()
        {
            for warmup in [0.0, 1e-9, 0.15, 0.5] {
                let seed = 0xf1ed + 4 * i as u64 + j as u64;
                let (want, want_next) =
                    one_server(&fixed, gaps.clone(), q, r, None, warmup, 1, seed);
                assert!(want.records.len() > 5_000, "{name}: too few keys");
                assert_eq!(want.records.iter().any(|k| k.missed), r > 0.0, "{name}");
                for block in [2usize, 37, 1024, 1 << 22] {
                    let at = format!("{name} r={r} q={q} warmup={warmup} block={block}");
                    let (got, got_next) =
                        one_server(&fixed, gaps.clone(), q, r, None, warmup, block, seed);
                    assert_eq!(got.records, want.records, "{at}: records");
                    assert_eq!(got.counters, want.counters, "{at}: counters");
                    assert_eq!(
                        got.counters.busy_time.to_bits(),
                        want.counters.busy_time.to_bits(),
                        "{at}: busy time"
                    );
                    assert_eq!(
                        got.utilization.to_bits(),
                        want.utilization.to_bits(),
                        "{at}: utilization"
                    );
                    assert_eq!(
                        got.miss_ratio.to_bits(),
                        want.miss_ratio.to_bits(),
                        "{at}: miss ratio"
                    );
                    assert_eq!(got.key_rate.to_bits(), want.key_rate.to_bits(), "{at}");
                    assert_eq!(got_next, want_next, "{at}: RNG stream position");
                }
            }
        }
    }
}

/// A routed, coalesced, LRU-backed cluster is block- and
/// thread-invariant: the scalar reference (block 1, one thread) against
/// the default block and 2²², at one and four threads.
#[test]
fn lru_lanes_are_bit_identical_on_a_routed_coalesced_cluster() {
    use memlat_cluster::{CacheBackedConfig, CacheRouting, MissMode, MissRelay};
    let params = ModelParams::builder()
        .key_rate_per_server(40_000.0)
        .build()
        .unwrap();
    let base = SimConfig::new(params)
        .duration(0.3)
        .warmup(0.1)
        .seed(0x1a0c)
        .miss_relay(MissRelay::Coalesced)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace: 300_000,
            skew: 1.1,
            mean_value_bytes: 300.0,
            routing: CacheRouting::ConsistentHash { vnodes: 128 },
        }));
    let reference = ClusterSim::run(&base.clone().threads(1).block(1)).unwrap();
    assert!(reference.coalesce().delayed_hits > 0);
    for block in [1usize, 0, 1 << 22] {
        for threads in [1usize, 4] {
            let at = format!("block={block} threads={threads}");
            let got = ClusterSim::run(&base.clone().threads(threads).block(block)).unwrap();
            assert_eq!(fnv1a_records(&got), fnv1a_records(&reference), "{at}");
            assert_eq!(got.summaries(), reference.summaries(), "{at}");
            assert_eq!(got.db_latency_stats(), reference.db_latency_stats(), "{at}");
            assert_eq!(got.coalesce(), reference.coalesce(), "{at}");
            assert_eq!(
                got.miss_ratio().to_bits(),
                reference.miss_ratio().to_bits(),
                "{at}"
            );
            assert_eq!(got.cached_items(), reference.cached_items(), "{at}");
        }
    }
}
