//! Distributional test: order-statistic request assembly draws the same
//! law as the straightforward loop that picks one record for every key.
//! That loop is kept below as the reference. The two consume different
//! random draws, so they are compared as samples: a two-sample
//! Kolmogorov–Smirnov test at the 1% level on per-request `T_S`, `T_D`
//! and `T`, each side from its own seed.
//!
//! The simulated configurations cover every way a record gets a nonzero
//! `d`: fixed-ratio misses (Table 3), zero-share servers (Zipf shares),
//! forced misses from timeouts and retries, delayed hits of the
//! coalescing relay, and hedged requests. A small-N case sends most
//! ranks below the hit tail, so the exact fallback is compared too, and
//! a 20-seed pooled comparison at the Table 3 config is the re-gold
//! check. Synthetic columns full of ties and exact zeros then drive the
//! column-level entry point through its invariants and edge cases.
//! Replicated assembly keeps per-key draws, so it stays bit-identical
//! to its own reference.

use memlat_cluster::assembly::{
    assemble_requests, assemble_requests_replicated, RequestAssembler, RequestSample, RequestStats,
};
use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClientPolicy, ClusterSim, FaultPlan, KeyColumns, MissMode,
    MissRelay, Retention, RetryPolicy, SimConfig, SimOutput,
};
use memlat_dist::multinomial_counts;
use memlat_model::{LoadDistribution, ModelParams};
use memlat_stats::{gof::ks_two_sample, ConfidenceInterval, StreamingStats};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// The pick-every-key assembly loop: per-server key counts, then one
/// record per key, folding three running maxima.
fn reference_requests(
    columns: &[KeyColumns],
    shares: &[f64],
    network: f64,
    n: u64,
    requests: usize,
    rng: &mut dyn RngCore,
) -> Vec<RequestSample> {
    (0..requests)
        .map(|_| {
            let counts = multinomial_counts(n, shares, rng).expect("validated shares");
            let mut worst_total = 0.0f64;
            let mut worst_s = 0.0f64;
            let mut worst_d = 0.0f64;
            for (recs, &c) in columns.iter().zip(&counts) {
                for _ in 0..c {
                    let (s, d) = recs.get((rng.next_u64() % recs.len() as u64) as usize);
                    let (s, d) = (f64::from(s), f64::from(d));
                    worst_s = worst_s.max(s);
                    worst_d = worst_d.max(d);
                    worst_total = worst_total.max(s + d);
                }
            }
            RequestSample {
                total: network + worst_total,
                ts_max: worst_s,
                td_max: worst_d,
            }
        })
        .collect()
}

/// `requests` draws of the order-statistic assembler.
fn assembled_requests(
    columns: &[KeyColumns],
    shares: &[f64],
    network: f64,
    n: u64,
    requests: usize,
    seed: u64,
) -> Vec<RequestSample> {
    let mut assembler = RequestAssembler::new(columns, shares, network, n);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests).map(|_| assembler.draw(&mut rng)).collect()
}

/// Two-sample KS at the 1% level on each component of the request law.
fn assert_same_law(got: &[RequestSample], want: &[RequestSample], what: &str) {
    let components: [(&str, fn(&RequestSample) -> f64); 3] = [
        ("T_S", |r| r.ts_max),
        ("T_D", |r| r.td_max),
        ("T", |r| r.total),
    ];
    for (name, f) in components {
        let a: Vec<f64> = got.iter().map(f).collect();
        let b: Vec<f64> = want.iter().map(f).collect();
        let ks = ks_two_sample(&a, &b);
        assert!(
            ks.p_value > 0.01,
            "{what}: {name} differs from pick-every-key (D = {}, p = {})",
            ks.statistic,
            ks.p_value
        );
    }
}

fn columns_of(out: &SimOutput) -> Vec<KeyColumns> {
    (0..out.shares().len())
        .map(|j| out.records(j).clone())
        .collect()
}

/// Compares `n`-key requests of the assembler against the reference
/// over `out`'s records, each side from its own seed.
fn check_law(out: &SimOutput, n: u64, requests: usize, seed: u64, what: &str) {
    let columns = columns_of(out);
    let (shares, network) = (out.shares(), out.network_latency());
    let mut want_rng = StdRng::seed_from_u64(seed);
    let want = reference_requests(&columns, shares, network, n, requests, &mut want_rng);
    let got = assembled_requests(&columns, shares, network, n, requests, seed ^ 0x0a55_e3b1);
    assert_same_law(&got, &want, what);
}

/// Runs `cfg` and compares the request law at the paper's fan-out, then
/// checks that `assemble_requests` is the fold of the assembler's draws,
/// through `&mut StdRng` and through `&mut dyn RngCore` alike.
fn check_config(cfg: &SimConfig, label: &str) -> SimOutput {
    let out = ClusterSim::run(cfg).unwrap();
    assert!(out.total_keys() > 1_000, "{label}: too few keys");
    check_law(&out, 150, 4_000, cfg.seed, &format!("{label} N=150"));

    let columns = columns_of(&out);
    let (shares, network) = (out.shares(), out.network_latency());
    let draws = assembled_requests(&columns, shares, network, 150, 500, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let stats = assemble_requests(&out, 150, 500, &mut rng);
    assert_bit_identical(&stats, &fold(network, &draws), &format!("{label}: fold"));
    let mut dyn_rng = StdRng::seed_from_u64(7);
    let via_dyn = assemble_requests(&out, 150, 500, &mut dyn_rng as &mut dyn RngCore);
    assert_bit_identical(&via_dyn, &stats, &format!("{label}: dyn RngCore"));
    out
}

/// Folds per-request draws the way `RequestStats` reports them.
fn fold(network: f64, draws: &[RequestSample]) -> RequestStats {
    let mut total = StreamingStats::new();
    let mut ts = StreamingStats::new();
    let mut td = StreamingStats::new();
    for r in draws {
        total.push(r.total);
        ts.push(r.ts_max);
        td.push(r.td_max);
    }
    RequestStats {
        total: ConfidenceInterval::for_mean(&total, 0.95),
        ts: ConfidenceInterval::for_mean(&ts, 0.95),
        td: ConfidenceInterval::for_mean(&td, 0.95),
        network,
        requests: draws.len(),
    }
}

fn ci_bits(ci: &ConfidenceInterval) -> [u64; 4] {
    [ci.mean, ci.lower, ci.upper, ci.level].map(f64::to_bits)
}

/// Every field of `got` against `want`, by bit pattern.
fn assert_bit_identical(got: &RequestStats, want: &RequestStats, what: &str) {
    assert_eq!(ci_bits(&got.total), ci_bits(&want.total), "{what}: total");
    assert_eq!(ci_bits(&got.ts), ci_bits(&want.ts), "{what}: ts");
    assert_eq!(ci_bits(&got.td), ci_bits(&want.td), "{what}: td");
    assert_eq!(
        got.network.to_bits(),
        want.network.to_bits(),
        "{what}: network"
    );
    assert_eq!(got.requests, want.requests, "{what}: requests");
}

fn table3() -> SimConfig {
    SimConfig::new(ModelParams::builder().build().unwrap())
        .duration(0.4)
        .warmup(0.1)
        .seed(0xa55e_0001)
}

#[test]
fn table3_defaults() {
    let out = check_config(&table3(), "table3");
    // The regime the order statistics target: misses are sparse but
    // present.
    let missed = (0..4).flat_map(|j| out.records(j).d().iter().filter(|&&d| d > 0.0));
    assert!(missed.count() > 100);
}

#[test]
fn small_fan_out_takes_the_below_tail_fallback() {
    // With one or two hit picks per server, the hit maximum's rank falls
    // below the top-1/8 tail with probability (7/8)^c ≥ 3/4, so most
    // requests draw their hit picks by rejection under the threshold.
    let out = ClusterSim::run(&table3().seed(0xa55e_0007)).unwrap();
    for n in [1u64, 2, 5] {
        check_law(&out, n, 6_000, 0x5e11 + n, &format!("table3 N={n}"));
    }
}

#[test]
fn zipf_shares_with_a_zero_share_server() {
    // Zipf(1.0) shares over four loaded servers, and a fifth, idle one
    // in the middle that must never be sampled.
    let weights = [1.0, 0.5, 0.0, 1.0 / 3.0, 0.25];
    let sum: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / sum).collect();
    let params = ModelParams::builder()
        .servers(5)
        .load(LoadDistribution::Custom(shares))
        .total_key_rate(120_000.0)
        .build()
        .unwrap();
    let cfg = SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xa55e_0002);
    let out = check_config(&cfg, "zipf-shares");
    assert!(out.records(2).is_empty(), "the zero-share server got keys");
}

#[test]
fn faulted_run_with_retries() {
    let cfg = table3()
        .seed(0xa55e_0003)
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
    let out = check_config(&cfg, "faulted");
    let r = out.resilience();
    assert!(r.forced_misses > 0, "no forced misses: {r:?}");
}

#[test]
fn coalesced_cache_backed_run() {
    let params = ModelParams::builder()
        .db_service_rate(200.0)
        .build()
        .unwrap();
    let cfg = SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xa55e_0004)
        .retention(Retention::Full)
        .miss_relay(MissRelay::Coalesced)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 1 << 20,
            keyspace: 50_000,
            skew: 1.1,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }));
    let out = check_config(&cfg, "coalesced");
    assert!(out.coalesce().delayed_hits > 0, "regime should coalesce");
}

#[test]
fn hedged_run() {
    let cfg = table3()
        .seed(0xa55e_0005)
        .client(ClientPolicy::none().hedge(2e-4));
    let out = check_config(&cfg, "hedged");
    assert!(out.resilience().hedges_won > 0, "no hedge won");
}

/// The re-gold check for order-statistic assembly: at the Table 3
/// config, over 20 simulation seeds, pooled request-level `T_S` and
/// `T_D` of the order-statistic assembler and of pick-every-key pass a
/// two-sample KS test at 1%.
#[test]
fn regold_table3_twenty_seeds_pooled() {
    const SEEDS: u64 = 20;
    const REQUESTS: usize = 2_500;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for seed in 1..=SEEDS {
        let out = ClusterSim::run(&table3().seed(seed)).unwrap();
        let columns = columns_of(&out);
        let (shares, network) = (out.shares(), out.network_latency());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x01d_a55e);
        want.extend(reference_requests(
            &columns, shares, network, 150, REQUESTS, &mut rng,
        ));
        got.extend(assembled_requests(
            &columns,
            shares,
            network,
            150,
            REQUESTS,
            seed ^ 0x0e3_a55e,
        ));
    }
    assert_same_law(&got, &want, "table3, 20 seeds pooled");
}

#[test]
fn replicated_assembly_matches_reference() {
    let out = ClusterSim::run(&table3().seed(0xa55e_0006)).unwrap();
    for replicas in 1..=3 {
        for n in [1u64, 3, 150] {
            let seed = 0x7e9_0000 + replicas as u64 * 16 + n;
            let mut want_rng = StdRng::seed_from_u64(seed);
            let want = reference_replicated(&out, n, 400, replicas, &mut want_rng);
            let mut got_rng = StdRng::seed_from_u64(seed);
            let got = assemble_requests_replicated(&out, n, 400, replicas, &mut got_rng);
            let what = format!("replicas={replicas} N={n}");
            assert_bit_identical(&got, &fold(out.network_latency(), &want), &what);
            assert_eq!(
                got_rng.next_u64(),
                want_rng.next_u64(),
                "{what}: RNG stream position"
            );
        }
    }
}

/// The replicated assembly loop as it stood before its `chosen` buffer
/// was reused across keys.
fn reference_replicated(
    out: &SimOutput,
    n: u64,
    requests: usize,
    replicas: usize,
    rng: &mut dyn RngCore,
) -> Vec<RequestSample> {
    let shares = out.shares();
    let loaded: Vec<usize> = (0..shares.len())
        .filter(|&j| shares[j] > 0.0 && !out.records(j).is_empty())
        .collect();
    (0..requests)
        .map(|_| {
            let mut worst_total = 0.0f64;
            let mut worst_s = 0.0f64;
            let mut worst_d = 0.0f64;
            for _ in 0..n {
                let mut chosen: Vec<usize> = Vec::with_capacity(replicas);
                while chosen.len() < replicas {
                    let j = loaded[(rng.next_u64() % loaded.len() as u64) as usize];
                    if !chosen.contains(&j) {
                        chosen.push(j);
                    }
                }
                let mut best_total = f64::INFINITY;
                let mut best_s = f64::INFINITY;
                let mut best_d = f64::INFINITY;
                for j in chosen {
                    let recs = out.records(j);
                    let (s, d) = recs.get((rng.next_u64() % recs.len() as u64) as usize);
                    let (s, d) = (f64::from(s), f64::from(d));
                    if s + d < best_total {
                        best_total = s + d;
                        best_s = s;
                        best_d = d;
                    }
                }
                worst_total = worst_total.max(best_total);
                worst_s = worst_s.max(best_s);
                worst_d = worst_d.max(best_d);
            }
            RequestSample {
                total: out.network_latency() + worst_total,
                ts_max: worst_s,
                td_max: worst_d,
            }
        })
        .collect()
}

/// How a synthetic server's records miss.
#[derive(Debug, Clone, Copy)]
enum Misses {
    /// About half the records miss.
    Half,
    /// Every record misses (`H = 0`).
    All,
    /// No record misses (`m = 0`).
    None,
}

/// Synthetic columns: `s` drawn from a handful of levels, zero among
/// them, so ties and exact zeros are everywhere; missed records get a
/// positive `d` from another handful of levels.
fn synthetic_columns(servers: &[(usize, Misses)], seed: u64) -> Vec<KeyColumns> {
    let mut rng = StdRng::seed_from_u64(seed);
    servers
        .iter()
        .map(|&(len, misses)| {
            let mut cols = KeyColumns::new();
            for i in 0..len {
                cols.push_server((rng.next_u64() % 5) as f32 * 1.0e-4);
                let missed = match misses {
                    Misses::Half => rng.next_u64() % 2 == 0,
                    Misses::All => true,
                    Misses::None => false,
                };
                if missed {
                    cols.set_db(i, (1 + rng.next_u64() % 4) as f32 * 2.5e-4);
                }
            }
            cols
        })
        .collect()
}

/// Uneven shares `1/(j+1)`, with server `idle` (if in range) at zero.
fn uneven_shares(servers: usize, idle: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..servers)
        .map(|j| {
            if j == idle && servers > 1 {
                0.0
            } else {
                1.0 / (j + 1) as f64
            }
        })
        .collect();
    let sum: f64 = weights.iter().sum();
    weights.iter().map(|w| w / sum).collect()
}

#[test]
fn edge_populations_match_reference() {
    // One server of each kind, a one-record server and an idle one
    // (c = 0 on every request), at fan-outs from a single key up; then
    // a lone server where half the picks miss, so that `K` alone shapes
    // `T_D`.
    let mixed = [
        (200, Misses::Half),
        (150, Misses::All),
        (300, Misses::None),
        (1, Misses::None),
        (50, Misses::Half),
    ];
    let cases = [
        (
            synthetic_columns(&mixed, 0x0ed9e),
            uneven_shares(mixed.len(), 4),
        ),
        (
            synthetic_columns(&[(400, Misses::Half)], 0x0ed9f),
            vec![1.0],
        ),
    ];
    for (k, (columns, shares)) in cases.iter().enumerate() {
        for n in [1u64, 3, 7, 150] {
            let seed = 0xed9e + 16 * k as u64 + n;
            let mut want_rng = StdRng::seed_from_u64(seed);
            let want = reference_requests(columns, shares, 2.0e-5, n, 5_000, &mut want_rng);
            let got = assembled_requests(columns, shares, 2.0e-5, n, 5_000, seed ^ 1);
            assert_same_law(&got, &want, &format!("edge populations {k} N={n}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn synthetic_requests_keep_their_invariants(
        servers in proptest::collection::vec(
            (1usize..300, prop_oneof![Just(Misses::Half), Just(Misses::All), Just(Misses::None)]),
            1..6,
        ),
        idle in 0usize..8,
        n in 1u64..400,
        requests in 0usize..60,
        seed in 0u64..1_000_000,
    ) {
        let columns = synthetic_columns(&servers, seed);
        let shares = uneven_shares(servers.len(), idle);
        let network = 2.0e-5;
        let loaded: Vec<&KeyColumns> = columns
            .iter()
            .zip(&shares)
            .filter(|&(_, &p)| p > 0.0)
            .map(|(cols, _)| cols)
            .collect();
        let any_missed = loaded.iter().any(|c| c.d().iter().any(|d| d.to_bits() != 0));
        let is_s = |x: f64| loaded.iter().any(|c| c.s().iter().any(|&s| f64::from(s) == x));
        let is_d = |x: f64| x == 0.0 || loaded.iter().any(|c| c.d().iter().any(|&d| f64::from(d) == x));

        let draws = assembled_requests(&columns, &shares, network, n, requests, seed ^ 0xabc);
        for r in &draws {
            // T = network + max(s + d) ≥ network + T_S, and ≥ network + T_D.
            prop_assert!(r.total >= network + r.ts_max, "{r:?}");
            prop_assert!(network + r.td_max <= r.total, "{r:?}");
            // Every maximum is some picked record's value.
            prop_assert!(is_s(r.ts_max), "T_S {} is no record's s", r.ts_max);
            prop_assert!(is_d(r.td_max), "T_D {} is no record's d", r.td_max);
            if !any_missed {
                prop_assert_eq!(r.td_max, 0.0);
                prop_assert_eq!(r.total, network + r.ts_max);
            }
        }
    }
}
