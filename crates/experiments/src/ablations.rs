//! Ablation and extension experiments beyond the paper's figures.
//!
//! Run with `cargo run --release -p memlat-experiments --bin ablations`.
//! Each returns an [`ExpResult`] like the paper artifacts do; findings
//! are summarized in EXPERIMENTS.md.

use memlat_cluster::{
    assembly::{assemble_requests, assemble_requests_replicated},
    e2e, ClusterSim, SimConfig, SimScratch,
};
use memlat_model::{database, LoadDistribution, ModelParams, ServerLatencyModel};
use rand::SeedableRng;

use crate::{parallel_sweep, quick_mode, sim_duration, ExpResult};

/// Redundancy trade-off ("low latency via redundancy", the paper's
/// related work \[12\]): dispatch every key to `R` replicas and keep the
/// fastest — which multiplies every server's load by `R`.
///
/// For each base per-server rate `λ₀`, compares plain operation against
/// duplicated operation at the doubled load, exposing the crossover: at
/// low utilization redundancy wins, near the cliff the extra load
/// dominates.
#[must_use]
pub fn ablation_redundancy() -> ExpResult {
    let lams: Vec<f64> = vec![10e3, 15e3, 20e3, 25e3, 30e3, 35e3];
    let n = 150;
    let requests = if quick_mode() { 4_000 } else { 20_000 };
    let rows = parallel_sweep(lams, |scratch, lam0| {
        let run = |rate: f64, seed: u64, scratch: &mut SimScratch| {
            let params = ModelParams::builder()
                .key_rate_per_server(rate)
                .build()
                .unwrap();
            ClusterSim::run_with(
                &SimConfig::new(params)
                    .duration(sim_duration())
                    .warmup(0.2)
                    .seed(seed),
                scratch,
            )
            .unwrap()
        };
        // Plain: load λ₀, one copy per key.
        let plain_out = run(lam0, 0xab1, scratch);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xab2);
        let plain = assemble_requests(&plain_out, n, requests, &mut rng).ts.mean;
        // Redundant: load 2λ₀ (every key stored and queried twice),
        // min-of-2 per key.
        let dup_out = run(2.0 * lam0, 0xab3, scratch);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xab4);
        let dup = assemble_requests_replicated(&dup_out, n, requests, 2, &mut rng)
            .ts
            .mean;
        vec![
            lam0 / 1e3,
            plain * 1e6,
            dup * 1e6,
            if dup < plain { 1.0 } else { 0.0 },
        ]
    });
    let mut r = ExpResult::new(
        "ablation_redundancy",
        "Ablation — duplicate-to-2-replicas vs plain (E[T_S(N)], load doubled by redundancy)",
        &["lambda0_kps", "plain_us", "redundant_us", "redundancy_wins"],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note(
        "redundancy wins while 2λ₀ stays well below the cliff; past it the extra load dominates",
    );
    r
}

/// Bound tightness: the paper's closed-form Theorem 1 band (Prop. 1 via
/// the heaviest server) vs this reproduction's product-form estimate vs
/// simulation, across load imbalance.
#[must_use]
pub fn ablation_bound_tightness() -> ExpResult {
    let p1s: Vec<f64> = vec![0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85];
    let rows = parallel_sweep(p1s, |scratch, p1| {
        let params = ModelParams::builder()
            .load(if p1 <= 0.25 {
                LoadDistribution::Balanced
            } else {
                LoadDistribution::HotServer { p1 }
            })
            .total_key_rate(80_000.0)
            .build()
            .unwrap();
        let model = ServerLatencyModel::new(&params).unwrap();
        let wide = model.theorem1_bounds(150);
        let tight = model.product_form_bounds(150);
        let cfg = SimConfig::new(params)
            .duration(sim_duration())
            .warmup(0.2)
            .seed(0xab5);
        let sim = ClusterSim::run_with(&cfg, scratch)
            .unwrap()
            .expected_server_latency(150);
        vec![
            p1,
            wide.width() / wide.upper,
            tight.width() / tight.upper,
            (tight.upper / sim - 1.0).abs(),
        ]
    });
    let mut r = ExpResult::new(
        "ablation_bounds",
        "Ablation — relative width of Theorem-1 band vs product form, and product-vs-sim error",
        &[
            "p1",
            "thm1_rel_width",
            "product_rel_width",
            "product_vs_sim_err",
        ],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("the product form stays within a few % of simulation at every imbalance; the closed form widens with p1");
    r
}

/// Database estimators: eq. 23 vs the exact binomial×harmonic value
/// across the `N·r` axis that controls the approximation error.
#[must_use]
pub fn ablation_db_estimators() -> ExpResult {
    let mut r = ExpResult::new(
        "ablation_db",
        "Ablation — eq. 23 vs exact E[T_D(N)] (ms) across N·r",
        &["n", "r", "n_times_r", "eq23_ms", "exact_ms", "rel_gap"],
    );
    for (n, miss) in [
        (10u64, 1e-3),
        (10, 1e-2),
        (100, 1e-3),
        (100, 1e-2),
        (150, 1e-2),
        (1_000, 1e-3),
        (1_000, 1e-2),
        (10_000, 1e-2),
        (100_000, 1e-2),
    ] {
        let eq23 = database::db_latency_mean(n, miss, 1_000.0);
        let exact = database::db_latency_mean_exact(n, miss, 1_000.0);
        r.push_row(vec![
            n as f64,
            miss,
            n as f64 * miss,
            eq23 * 1e3,
            exact * 1e3,
            (exact - eq23) / exact,
        ]);
    }
    r.note("the gap peaks (~30–45%) around N·r ≈ 0.1–1 and fades as N·r grows (both → ln(N·r)+γ)");
    r
}

/// Independence-assumption error (eq. 10): end-to-end (true fan-out
/// correlation) over assembly (independent draws), as the fan-out
/// concentration `N/M` varies.
#[must_use]
pub fn ablation_independence() -> ExpResult {
    let ms: Vec<usize> = vec![4, 8, 16, 32];
    let n = 150;
    let requests = if quick_mode() { 3_000 } else { 12_000 };
    let rows = parallel_sweep(ms, |scratch, m| {
        let params = ModelParams::builder()
            .servers(m)
            .key_rate_per_server(62_500.0)
            .build()
            .unwrap();
        let out = ClusterSim::run_with(
            &SimConfig::new(params.clone())
                .duration(sim_duration())
                .warmup(0.2)
                .seed(0xab6),
            scratch,
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xab7);
        let indep = assemble_requests(&out, n, requests, &mut rng).ts.mean;
        let corr = e2e::run_e2e(&e2e::E2eConfig::new(params).requests(requests).seed(0xab8))
            .unwrap()
            .ts
            .mean;
        vec![
            m as f64,
            n as f64 / m as f64,
            indep * 1e6,
            corr * 1e6,
            corr / indep,
        ]
    });
    let mut r = ExpResult::new(
        "ablation_independence",
        "Ablation — true fan-out (e2e) vs independent-draw assembly, E[T_S(N)]",
        &[
            "servers",
            "keys_per_server_per_req",
            "assembly_us",
            "e2e_us",
            "ratio",
        ],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("the model's independence assumption costs a factor ~N/M·q-ish in burst: ratio falls toward 1 as M grows");
    r
}

/// Eviction-policy ablation: slab/LRU vs Greedy-Dual cost-aware caching
/// (the paper's related work \[19\], GD-Wheel) under heterogeneous
/// database refetch costs.
///
/// Workload: Zipf(1.01) keys; 10% of keys ("hot-cost") take 10× the
/// database time. Both caches see the identical key sequence and byte
/// budget; the metric that matters for latency is the **mean refetch
/// cost per lookup** (the database stage's contribution), not the raw
/// miss ratio.
#[must_use]
pub fn ablation_eviction_policy() -> ExpResult {
    use memlat_cache::{CostAwareCache, Store, StoreConfig};
    use memlat_dist::Discrete;

    let keyspace = 200_000u64;
    let zipf = memlat_dist::Zipf::new(keyspace, 1.01).unwrap();
    let accesses = if quick_mode() {
        300_000usize
    } else {
        2_000_000
    };
    let value_size = 300usize;
    // Per-key refetch cost (ms): keys whose hash lands in the top decile
    // are served by a slow backend.
    let cost_of = |key: u64| {
        if memlat_workload::placement::mix64(key).is_multiple_of(10) {
            10.0
        } else {
            1.0
        }
    };

    let budgets_mb = [4usize, 16, 64];
    let rows = parallel_sweep(budgets_mb.to_vec(), |_, mb| {
        let budget = mb << 20;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xab9 + mb as u64);
        let mut lru = Store::new(StoreConfig::with_memory(budget)).unwrap();
        let mut gdw = CostAwareCache::new(budget).unwrap();
        let mut lru_misses = 0u64;
        let mut lru_cost = 0.0f64;
        for _ in 0..accesses {
            let key = zipf.sample(&mut rng) - 1;
            let cost = cost_of(key);
            // LRU path (manual cost accounting).
            if lru.get(key, 0.0).is_miss() {
                lru_misses += 1;
                lru_cost += cost;
                let _ = lru.set(key, value_size, None, 0.0);
            }
            // Greedy-Dual path.
            if !gdw.get(key, cost) {
                gdw.insert(key, value_size + 80, cost);
            }
        }
        let lru_miss_ratio = lru_misses as f64 / accesses as f64;
        let lru_cost_per_lookup = lru_cost / accesses as f64;
        let g = gdw.stats();
        vec![
            mb as f64,
            lru_miss_ratio,
            g.miss_ratio(),
            lru_cost_per_lookup,
            g.cost_per_lookup(),
            lru_cost_per_lookup / g.cost_per_lookup().max(1e-12),
        ]
    });
    let mut r = ExpResult::new(
        "ablation_eviction",
        "Ablation — LRU vs Greedy-Dual (cost-aware) eviction, heterogeneous db costs",
        &[
            "budget_mb",
            "lru_miss_ratio",
            "gdw_miss_ratio",
            "lru_cost_ms_per_lookup",
            "gdw_cost_ms_per_lookup",
            "lru_over_gdw_cost",
        ],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("GDW may miss slightly MORE often yet cost LESS per lookup — the related-work claim that miss *cost*, not count, drives E[T_D]");
    r
}

/// Validates the closed-form law of `T(N)`
/// (`memlat_model::RequestLatencyLaw`) against simulated request samples
/// via the Kolmogorov–Smirnov distance, across miss ratios.
#[must_use]
pub fn ablation_request_law() -> ExpResult {
    use memlat_model::RequestLatencyLaw;
    let rs = [0.0f64, 0.001, 0.01, 0.05];
    let requests = if quick_mode() { 4_000 } else { 30_000 };
    let rows = parallel_sweep(rs.to_vec(), |scratch, miss| {
        let params = ModelParams::builder().miss_ratio(miss).build().unwrap();
        let law = RequestLatencyLaw::new(&params).unwrap();
        let out = ClusterSim::run_with(
            &SimConfig::new(params.clone())
                .duration(sim_duration())
                .warmup(0.2)
                .seed(0xaba),
            scratch,
        )
        .unwrap();
        // Raw request samples (not just means): draw totals directly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xabb);
        let mut samples = Vec::with_capacity(requests);
        let split = memlat_dist::Multinomial::new(out.shares()).unwrap();
        let mut counts = vec![0u64; split.categories()];
        use rand::RngCore;
        for _ in 0..requests {
            split.sample_into(params.keys_per_request(), &mut counts, &mut rng);
            let mut worst = 0.0f64;
            for (j, &c) in counts.iter().enumerate() {
                let recs = out.records(j);
                for _ in 0..c {
                    let (s, d) = recs.get((rng.next_u64() % recs.len() as u64) as usize);
                    worst = worst.max(f64::from(s) + f64::from(d));
                }
            }
            samples.push(params.network_latency() + worst);
        }
        let ecdf = memlat_stats::Ecdf::from_samples(&samples);
        let ks = ecdf.ks_distance(|t| law.cdf(t));
        let mean_err = (ecdf.mean() / law.mean() - 1.0).abs();
        vec![miss, law.mean() * 1e6, ecdf.mean() * 1e6, ks, mean_err]
    });
    let mut r = ExpResult::new(
        "ablation_request_law",
        "Ablation — closed-form T(N) law vs simulated request samples (KS distance)",
        &[
            "miss_ratio",
            "law_mean_us",
            "sim_mean_us",
            "ks_distance",
            "rel_mean_err",
        ],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("small KS ⇒ the analytic distribution (not just the mean) matches the simulated one");
    r.note(
        "KS shrinks as r grows: the (exactly iid-exponential) database maxima dominate; at r=0 \
            the residual is finite-sample burst correlation in the server records",
    );
    r
}

/// All ablations.
#[must_use]
pub fn all() -> Vec<ExpResult> {
    vec![
        ablation_redundancy(),
        ablation_bound_tightness(),
        ablation_db_estimators(),
        ablation_independence(),
        ablation_eviction_policy(),
        ablation_request_law(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() {
        std::env::set_var("MEMLAT_QUICK", "1");
    }

    #[test]
    fn db_ablation_gap_shape() {
        let t = ablation_db_estimators();
        let gaps = t.column("rel_gap").unwrap();
        let nxr = t.column("n_times_r").unwrap();
        // All gaps positive (eq. 23 underestimates) and the largest gap
        // occurs at small-to-moderate N·r.
        assert!(gaps.iter().all(|&g| g > 0.0));
        let (mut max_gap, mut argmax) = (0.0, 0.0);
        for (&g, &x) in gaps.iter().zip(&nxr) {
            if g > max_gap {
                max_gap = g;
                argmax = x;
            }
        }
        assert!(argmax <= 1.0, "peak gap at N·r={argmax}");
        assert!(max_gap > 0.25 && max_gap < 0.5, "{max_gap}");
        // Gap at the largest N·r is the smallest of the high-N·r rows.
        assert!(*gaps.last().unwrap() < 0.1);
    }

    #[test]
    fn redundancy_crossover_exists() {
        quick();
        let t = ablation_redundancy();
        let wins = t.column("redundancy_wins").unwrap();
        // Redundancy wins at the lightest load and loses at the heaviest.
        assert_eq!(wins[0], 1.0, "redundancy should win at 10 Kps");
        assert_eq!(
            *wins.last().unwrap(),
            0.0,
            "redundancy should lose at 35 Kps (70 Kps doubled)"
        );
    }

    #[test]
    fn cost_aware_eviction_beats_lru_on_cost() {
        quick();
        let t = ablation_eviction_policy();
        let advantage = t.column("lru_over_gdw_cost").unwrap();
        // At every budget, GDW's cost per lookup is at most LRU's (ratio
        // ≥ 1), and strictly better at the tight budgets.
        assert!(advantage.iter().all(|&a| a > 0.95), "{advantage:?}");
        assert!(
            advantage[0] > 1.02,
            "no cost advantage at the tightest budget: {advantage:?}"
        );
    }

    #[test]
    fn independence_ratio_falls_with_servers() {
        quick();
        let t = ablation_independence();
        let ratio = t.column("ratio").unwrap();
        assert!(ratio[0] > ratio[ratio.len() - 1], "{ratio:?}");
        assert!(ratio[0] > 1.5);
    }
}
