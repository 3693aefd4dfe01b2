//! Differential test: request assembly is **bit-identical** to the
//! straightforward loop it replaced, which read both columns of every
//! sampled key and folded three running maxima. That loop is kept below
//! verbatim as the reference. Every `RequestStats` field is compared by
//! its bit pattern, and the RNG's next draw after the call must agree,
//! so a single extra, missing or reordered draw fails the suite.
//!
//! The simulated configurations cover every way a record gets a nonzero
//! `d`: fixed-ratio misses (Table 3), zero-share servers (Zipf shares),
//! forced misses from timeouts and retries, delayed hits of the
//! coalescing relay, and hedged requests. A proptest then drives the
//! column-level entry point with synthetic columns full of ties and
//! exact zeros.

use memlat_cluster::assembly::{
    assemble_columns, assemble_requests, assemble_requests_replicated, RequestStats,
};
use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClientPolicy, ClusterSim, FaultPlan, KeyColumns, MissMode,
    MissRelay, Retention, RetryPolicy, SimConfig, SimOutput,
};
use memlat_dist::multinomial_counts;
use memlat_model::{LoadDistribution, ModelParams};
use memlat_stats::{ConfidenceInterval, StreamingStats};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// The assembly loop as it stood before the one-load-per-key rewrite,
/// over caller-held columns instead of a `SimOutput`.
fn reference_assemble(
    columns: &[KeyColumns],
    shares: &[f64],
    network: f64,
    n: u64,
    requests: usize,
    rng: &mut dyn RngCore,
) -> RequestStats {
    assert!(n > 0, "requests need at least one key");
    let shares = shares.to_vec();
    let mut total = StreamingStats::new();
    let mut ts = StreamingStats::new();
    let mut td = StreamingStats::new();

    for _ in 0..requests {
        let counts = multinomial_counts(n, &shares, rng).expect("validated shares");
        let mut worst_total = 0.0f64;
        let mut worst_s = 0.0f64;
        let mut worst_d = 0.0f64;
        for (j, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let recs = &columns[j];
            assert!(
                !recs.is_empty(),
                "server {j} has load share {} but recorded no keys",
                shares[j]
            );
            for _ in 0..c {
                let idx = (rng.next_u64() % recs.len() as u64) as usize;
                let (s, d) = recs.get(idx);
                let (s, d) = (f64::from(s), f64::from(d));
                worst_s = worst_s.max(s);
                worst_d = worst_d.max(d);
                worst_total = worst_total.max(s + d);
            }
        }
        total.push(network + worst_total);
        ts.push(worst_s);
        td.push(worst_d);
    }

    RequestStats {
        total: ConfidenceInterval::for_mean(&total, 0.95),
        ts: ConfidenceInterval::for_mean(&ts, 0.95),
        td: ConfidenceInterval::for_mean(&td, 0.95),
        network,
        requests,
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
) -> RequestStats {
    assert!(n > 0, "requests need at least one key");
    let shares = out.shares().to_vec();
    let loaded: Vec<usize> = (0..shares.len())
        .filter(|&j| shares[j] > 0.0 && !out.records(j).is_empty())
        .collect();
    assert!(
        (1..=loaded.len()).contains(&replicas),
        "replicas must be in 1..={}, got {replicas}",
        loaded.len()
    );
    let mut total = StreamingStats::new();
    let mut ts = StreamingStats::new();
    let mut td = StreamingStats::new();

    for _ in 0..requests {
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
        total.push(out.network_latency() + worst_total);
        ts.push(worst_s);
        td.push(worst_d);
    }

    RequestStats {
        total: ConfidenceInterval::for_mean(&total, 0.95),
        ts: ConfidenceInterval::for_mean(&ts, 0.95),
        td: ConfidenceInterval::for_mean(&td, 0.95),
        network: out.network_latency(),
        requests,
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

const FAN_OUTS: [u64; 5] = [1, 2, 3, 150, 1000];

/// Fewer requests at the widest fan-out keep the suite quick while
/// still assembling ~10⁵ keys per case.
fn requests_for(n: u64) -> usize {
    if n >= 1000 {
        120
    } else {
        1_500
    }
}

/// Runs `cfg` and checks `assemble_requests` (both through `&mut StdRng`
/// and through `&mut dyn RngCore`) against the reference at every fan-out.
fn check_config(cfg: &SimConfig, label: &str) -> SimOutput {
    let out = ClusterSim::run(cfg).unwrap();
    assert!(out.total_keys() > 1_000, "{label}: too few keys");
    let columns: Vec<KeyColumns> = (0..out.shares().len())
        .map(|j| out.records(j).clone())
        .collect();
    for (k, &n) in FAN_OUTS.iter().enumerate() {
        let requests = requests_for(n);
        let seed = 0x5eed_0000 + k as u64;
        let mut want_rng = StdRng::seed_from_u64(seed);
        let want = reference_assemble(
            &columns,
            out.shares(),
            out.network_latency(),
            n,
            requests,
            &mut want_rng,
        );
        let mut got_rng = StdRng::seed_from_u64(seed);
        let got = assemble_requests(&out, n, requests, &mut got_rng);
        let what = format!("{label} N={n}");
        assert_bit_identical(&got, &want, &what);
        assert_eq!(
            got_rng.next_u64(),
            want_rng.next_u64(),
            "{what}: RNG stream position"
        );

        let mut dyn_rng = StdRng::seed_from_u64(seed);
        let via_dyn = assemble_requests(&out, n, requests, &mut dyn_rng as &mut dyn RngCore);
        assert_bit_identical(&via_dyn, &want, &format!("{what} (dyn RngCore)"));
    }
    out
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
    // The regime the rewrite targets: misses are sparse but present.
    let missed = (0..4).flat_map(|j| out.records(j).d().iter().filter(|&&d| d > 0.0));
    assert!(missed.count() > 100);
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
            assert_bit_identical(&got, &want, &what);
            assert_eq!(
                got_rng.next_u64(),
                want_rng.next_u64(),
                "{what}: RNG stream position"
            );
        }
    }
}

/// Synthetic columns: values drawn from a handful of levels, so ties
/// are everywhere, and about half the `d` entries exactly zero.
fn synthetic_columns(sizes: &[usize], seed: u64) -> Vec<KeyColumns> {
    let mut rng = StdRng::seed_from_u64(seed);
    sizes
        .iter()
        .map(|&len| {
            let mut cols = KeyColumns::new();
            for i in 0..len {
                let level = rng.next_u64() % 5;
                cols.push_server(level as f32 * 1.0e-4);
                if rng.next_u64() % 2 == 0 {
                    let d = (rng.next_u64() % 4) as f32 * 2.5e-4;
                    cols.set_db(i, d);
                }
            }
            cols
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn synthetic_columns_match_reference(
        sizes in proptest::collection::vec(1usize..300, 1..6),
        zero_share in 0usize..8,
        n in 1u64..400,
        requests in 0usize..60,
        seed in 0u64..1_000_000,
    ) {
        let columns = synthetic_columns(&sizes, seed);
        // Uneven shares; one server (if the index is in range) idle.
        let weights: Vec<f64> = (0..sizes.len())
            .map(|j| if j == zero_share && sizes.len() > 1 { 0.0 } else { 1.0 / (j + 1) as f64 })
            .collect();
        let sum: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights.iter().map(|w| w / sum).collect();
        let network = 2.0e-5;
        let mut want_rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let want = reference_assemble(&columns, &shares, network, n, requests, &mut want_rng);
        let mut got_rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let got = assemble_columns(&columns, &shares, network, n, requests, &mut got_rng);
        assert_bit_identical(&got, &want, "synthetic");
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
    }
}
